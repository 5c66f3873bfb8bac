"""Borel subalgebras of gl(m|n) with the standard even part.

Such a Borel is determined by an eps/delta sequence (m symbols eps, n
symbols delta), equivalently by an (m|n)-shuffle, equivalently by a
partition inside the m x n box.  The canonical storage is the
partition; the bijection used throughout is

    k-th part (largest first)  =  number of delta symbols to the left
                                  of the k-th eps symbol from the right.

It sends the empty partition to eps^m delta^n (distinguished Borel) and
the full box to delta^n eps^m (anti-distinguished).  The convention is
fixed once and validated by the box-count invariant: the number of
delta-minus-eps roots in the positive system equals the number of
boxes.

An odd reflection swaps an adjacent eps,delta pair of the sequence and
either adds or removes exactly one box; the reflection graph is the
Young lattice of the box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .rootdata import (
    EnumerationBound,
    RankProfile,
    Root,
)

DEFAULT_BOREL_BOUND = 20000

EPS, DELTA = "ε", "δ"


@dataclass(frozen=True, slots=True)
class BorelElt:
    profile: RankProfile
    partition: tuple[int, ...]

    def __post_init__(self):
        parts = self.partition
        if any(not isinstance(p, int) or p <= 0 for p in parts):
            raise ValueError(f"malformed partition {parts}: parts must be positive")
        if any(parts[k] < parts[k + 1] for k in range(len(parts) - 1)):
            raise ValueError(f"malformed partition {parts}: not weakly decreasing")
        if len(parts) > self.profile.m or any(p > self.profile.n for p in parts):
            raise ValueError(
                f"partition {parts} does not fit the {self.profile.m}x{self.profile.n} box"
            )

    # -- views ------------------------------------------------------------

    def seq(self) -> str:
        return _seq(self)

    def seq_ascii(self) -> str:
        return _seq(self).replace(EPS, "e").replace(DELTA, "d")

    def shuffle(self) -> tuple[int, ...]:
        return _shuffle(self)

    def box_count(self) -> int:
        return sum(self.partition)

    def is_distinguished(self) -> bool:
        return not self.partition

    def is_antidistinguished(self) -> bool:
        return self.box_count() == self.profile.m * self.profile.n

    # -- root data ---------------------------------------------------------

    def positive_roots(self) -> frozenset[Root]:
        return _positive_roots(self)

    def odd_positive_roots(self) -> tuple[Root, ...]:
        return _odd_positive_roots(self)

    def flipped_odd_roots(self) -> tuple[Root, ...]:
        """Distinguished-positive odd roots that this Borel makes negative."""
        return _flipped_odd_roots(self)

    def simple_roots(self) -> tuple[Root, ...]:
        return _simple_roots(self)

    def __str__(self):
        return f"partition:[{','.join(map(str, self.partition))}]"


def borel(profile: RankProfile, parts) -> BorelElt:
    """Normalize (drop zero parts, sort check) and build a Borel."""
    parts = tuple(p for p in parts if p != 0)
    return BorelElt(profile, parts)


def distinguished(profile: RankProfile) -> BorelElt:
    return BorelElt(profile, ())


def antidistinguished(profile: RankProfile) -> BorelElt:
    return BorelElt(profile, (profile.n,) * profile.m)


@lru_cache(maxsize=None)
def _seq(b: BorelElt) -> str:
    m, n = b.profile.m, b.profile.n
    parts = list(b.partition) + [0] * (m - len(b.partition))
    # q[k] = deltas in front of the (k+1)-th eps from the left
    q = parts[::-1]
    out = []
    placed = 0
    for k in range(m):
        out.append(DELTA * (q[k] - placed))
        out.append(EPS)
        placed = q[k]
    out.append(DELTA * (n - placed))
    return "".join(out)


def borel_from_seq(profile: RankProfile, seq: str) -> BorelElt:
    """Accepts either the unicode symbols or the ascii fallback e/d."""
    symbols = []
    for ch in seq:
        if ch in (EPS, "e", "E"):
            symbols.append("e")
        elif ch in (DELTA, "d", "D"):
            symbols.append("d")
        else:
            raise ValueError(f"unexpected symbol {ch!r} in sequence")
    if symbols.count("e") != profile.m or symbols.count("d") != profile.n:
        raise ValueError(
            f"sequence needs {profile.m} eps and {profile.n} delta symbols"
        )
    counts = []
    deltas = 0
    for ch in symbols:
        if ch == "d":
            deltas += 1
        else:
            counts.append(deltas)
    return borel(profile, sorted(counts, reverse=True))


@lru_cache(maxsize=None)
def _shuffle(b: BorelElt) -> tuple[int, ...]:
    """tau with tau(i) = sequence position of basis vector i (1-based)."""
    m = b.profile.m
    tau = [0] * b.profile.dim
    n_eps = n_delta = 0
    for pos, ch in enumerate(_seq(b), start=1):
        if ch == EPS:
            n_eps += 1
            tau[n_eps - 1] = pos
        else:
            n_delta += 1
            tau[m + n_delta - 1] = pos
    return tuple(tau)


def borel_from_shuffle(profile: RankProfile, tau) -> BorelElt:
    tau = tuple(tau)
    if sorted(tau) != list(range(1, profile.dim + 1)):
        raise ValueError("shuffle must be a permutation of 1..m+n")
    m = profile.m
    if any(tau[k] >= tau[k + 1] for k in range(m - 1)) or any(
        tau[k] >= tau[k + 1] for k in range(m, profile.dim - 1)
    ):
        raise ValueError("not a shuffle: blocks must be increasing")
    symbols = [""] * profile.dim
    for i in range(1, profile.dim + 1):
        symbols[tau[i - 1] - 1] = "e" if i <= m else "d"
    return borel_from_seq(profile, "".join(symbols))


@lru_cache(maxsize=None)
def _positive_roots(b: BorelElt) -> frozenset[Root]:
    tau = _shuffle(b)
    d = b.profile.dim
    return frozenset(
        Root(b.profile, i, j)
        for i in range(1, d + 1)
        for j in range(1, d + 1)
        if i != j and tau[i - 1] < tau[j - 1]
    )


@lru_cache(maxsize=None)
def _odd_positive_roots(b: BorelElt) -> tuple[Root, ...]:
    return tuple(
        sorted(
            (r for r in _positive_roots(b) if r.is_odd),
            key=lambda r: (r.i, r.j),
        )
    )


@lru_cache(maxsize=None)
def _flipped_odd_roots(b: BorelElt) -> tuple[Root, ...]:
    m = b.profile.m
    tau = _shuffle(b)
    out = []
    for i in range(1, m + 1):
        for j in range(m + 1, b.profile.dim + 1):
            if tau[i - 1] > tau[j - 1]:
                out.append(Root(b.profile, i, j))
    return tuple(out)


@lru_cache(maxsize=None)
def _simple_roots(b: BorelElt) -> tuple[Root, ...]:
    tau = _shuffle(b)
    by_position = [0] * b.profile.dim
    for i in range(1, b.profile.dim + 1):
        by_position[tau[i - 1] - 1] = i
    return tuple(
        Root(b.profile, by_position[p], by_position[p + 1])
        for p in range(b.profile.dim - 1)
    )


@dataclass(frozen=True)
class BorelViews:
    partition: tuple[int, ...]
    seq: str
    shuffle: tuple[int, ...]
    lattice_path: tuple[tuple[int, int], ...]


def convert(b: BorelElt) -> BorelViews:
    """All mutually consistent views of one Borel.

    The lattice path walks from (n, 0) to (0, m), one step per sequence
    symbol: eps steps up, delta steps left.
    """
    x, y = b.profile.n, 0
    path = [(x, y)]
    for ch in _seq(b):
        if ch == EPS:
            y += 1
        else:
            x -= 1
        path.append((x, y))
    return BorelViews(b.partition, _seq(b), _shuffle(b), tuple(path))


def enumerate_borels(profile: RankProfile, bound: int = DEFAULT_BOREL_BOUND) -> list[BorelElt]:
    """All binomial(m+n, m) Borels, ordered by (box count, partition)."""
    count = math.comb(profile.dim, profile.m)
    if count > bound:
        raise EnumerationBound(f"|L({profile.m},{profile.n})| = {count} exceeds bound {bound}")
    parts_list = _box_partitions(profile.m, profile.n)
    return sorted(
        (borel(profile, p) for p in parts_list),
        key=lambda b: (b.box_count(), b.partition),
    )


def _box_partitions(m: int, n: int) -> list[tuple[int, ...]]:
    out = []

    def rec(prefix, last):
        out.append(tuple(prefix))
        if len(prefix) == m:
            return
        for p in range(1, last + 1):
            prefix.append(p)
            rec(prefix, p)
            prefix.pop()

    rec([], n)
    return out


# ---------------------------------------------------------------------------
# Odd reflections


def odd_reflection(b: BorelElt, alpha: Root) -> BorelElt:
    """Replace the odd simple root alpha by -alpha.

    The positive system changes only at alpha; the partition gains a box
    when alpha runs from the eps block to the delta block and loses one
    otherwise.
    """
    if not alpha.is_odd:
        raise ValueError(f"{alpha} is not odd")
    tau = _shuffle(b)
    simples = _simple_roots(b)
    if alpha not in simples:
        raise ValueError(f"{alpha} is not a simple root of {b}")
    pos = tau[alpha.i - 1]  # alpha.j sits at pos + 1
    s = _seq(b)
    swapped = s[: pos - 1] + s[pos] + s[pos - 1] + s[pos + 1:]
    return borel_from_seq(b.profile, swapped)


@dataclass(frozen=True)
class OddReflectionEdge:
    source: BorelElt
    target: BorelElt
    alpha: Root


def borel_graph(profile: RankProfile, bound: int = DEFAULT_BOREL_BOUND) -> list[OddReflectionEdge]:
    """Box-adding odd reflections between all Borels of the profile."""
    edges = []
    for b in enumerate_borels(profile, bound):
        for alpha in b.simple_roots():
            if alpha.is_odd and alpha.i <= profile.m:  # eps-to-delta: adds a box
                target = odd_reflection(b, alpha)
                edges.append(OddReflectionEdge(b, target, alpha))
    edges.sort(key=lambda e: (e.source.box_count(), e.source.partition, e.alpha.i, e.alpha.j))
    return edges


def render(b: BorelElt, ascii_only: bool = False) -> str:
    s = b.seq_ascii() if ascii_only else b.seq()
    return f"{b} seq:{s}"
