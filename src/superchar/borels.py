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

import itertools
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

    def box_count(self) -> int:
        return sum(self.partition)

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


def enumerate_borels(profile: RankProfile) -> list[BorelElt]:
    """All binomial(m+n, m) Borels, ordered by (box count, partition)."""
    count = math.comb(profile.dim, profile.m)
    if count > DEFAULT_BOREL_BOUND:
        raise EnumerationBound(
            f"|L({profile.m},{profile.n})| = {count} exceeds bound {DEFAULT_BOREL_BOUND}"
        )
    # every weakly decreasing m-tuple over n..0: the partitions in the box
    parts_list = itertools.combinations_with_replacement(range(profile.n, -1, -1), profile.m)
    return sorted(
        (borel(profile, p) for p in parts_list),
        key=lambda b: (b.box_count(), b.partition),
    )


# ---------------------------------------------------------------------------
# Odd reflections


def odd_reflection(b: BorelElt, alpha: Root) -> BorelElt:
    """Replace the odd simple root alpha by -alpha.

    The positive system changes only at alpha, whose two symbols sit next
    to each other in the sequence and swap.  The partition gains a box
    when alpha runs from the eps block to the delta block and loses one
    otherwise.  The part that moves is that of alpha's eps symbol: eps_k
    is the (m - k + 1)-th eps from the right, so it is part m - k, counted
    from 0.
    """
    if not alpha.is_odd:
        raise ValueError(f"{alpha} is not odd")
    if alpha not in _simple_roots(b):
        raise ValueError(f"{alpha} is not a simple root of {b}")
    m = b.profile.m
    parts = list(b.partition) + [0] * (m - len(b.partition))
    if alpha.i <= m:  # eps_i delta -> delta eps_i
        parts[m - alpha.i] += 1
    else:  # delta eps_j -> eps_j delta
        parts[m - alpha.j] -= 1
    return borel(b.profile, parts)


@dataclass(frozen=True)
class OddReflectionEdge:
    source: BorelElt
    target: BorelElt
    alpha: Root


def borel_graph(profile: RankProfile) -> list[OddReflectionEdge]:
    """Box-adding odd reflections between all Borels of the profile."""
    edges = []
    for b in enumerate_borels(profile):
        for alpha in b.simple_roots():
            if alpha.is_odd and alpha.i <= profile.m:  # eps-to-delta: adds a box
                target = odd_reflection(b, alpha)
                edges.append(OddReflectionEdge(b, target, alpha))
    edges.sort(key=lambda e: (e.source.box_count(), e.source.partition, e.alpha.i, e.alpha.j))
    return edges


def render(b: BorelElt) -> str:
    return f"{b} seq:{b.seq()}"
