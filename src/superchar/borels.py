"""Borel subalgebras of gl(m|n) with the standard even part.

Such a Borel is determined by an eps/delta sequence (m symbols eps, n
symbols delta), equivalently by a partition inside the m x n box.  The
canonical storage is the partition; the bijection used throughout is

    k-th part (largest first)  =  number of delta symbols to the left
                                  of the k-th eps symbol from the right.

It sends the empty partition to eps^m delta^n (distinguished Borel) and
the full box to delta^n eps^m (anti-distinguished).  Each Borel builds
one ordering from its partition, the basis indices in sequence order
(delta_j at index m + j), and reads every view from it once: the
sequence, the positive roots, the simple roots and the flipped odd
roots.  The box-count invariant validates the convention: the number of
delta-minus-eps roots in the positive system equals the number of boxes.

An odd reflection swaps an adjacent eps,delta pair of the sequence and
either adds or removes exactly one box; the reflection graph is the
Young lattice of the box.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .rootdata import (
    EnumerationBound,
    RankProfile,
    Record,
    Root,
)

DEFAULT_BOREL_BOUND = 20000

EPS, DELTA = "ε", "δ"


class BorelElt(Record):
    # _order holds the basis indices in sequence order, delta_j at index
    # m + j; it is derived from the partition, so equality, hash and repr
    # leave it out
    __slots__ = ("profile", "partition", "_order")
    _fields = ("profile", "partition")

    def __init__(self, profile: RankProfile, partition: tuple[int, ...]):
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "partition", partition)
        self.__post_init__()

    def __post_init__(self):
        parts = self.partition
        if not isinstance(parts, tuple):
            raise TypeError(f"a partition must be a tuple, got {parts!r}")
        if any(not isinstance(p, int) or p <= 0 for p in parts):
            raise ValueError(f"malformed partition {parts}: parts must be positive")
        if any(parts[k] < parts[k + 1] for k in range(len(parts) - 1)):
            raise ValueError(f"malformed partition {parts}: not weakly decreasing")
        m, n = self.profile.m, self.profile.n
        if len(parts) > m or any(p > n for p in parts):
            raise ValueError(f"partition {parts} does not fit the {m}x{n} box")
        # the deltas in front of each basis vector: eps_k has part m - k
        # (counted from 0) of them, delta_j has j - 1; eps comes first on a tie
        padded = parts + (0,) * (m - len(parts))
        ahead = [padded[m - i] if i <= m else i - m - 1 for i in range(1, m + n + 1)]
        order = sorted(range(1, m + n + 1), key=lambda i: (ahead[i - 1], i > m, i))
        object.__setattr__(self, "_order", tuple(order))

    # -- views ------------------------------------------------------------

    @lru_cache(maxsize=None)
    def seq(self) -> str:
        return "".join(EPS if i <= self.profile.m else DELTA for i in self._order)

    def seq_ascii(self) -> str:
        return self.seq().replace(EPS, "e").replace(DELTA, "d")

    def box_count(self) -> int:
        return sum(self.partition)

    # -- root data ---------------------------------------------------------

    @lru_cache(maxsize=None)
    def positive_roots(self) -> frozenset[Root]:
        order = self._order
        return frozenset(
            Root(self.profile, i, j) for a, i in enumerate(order) for j in order[a + 1:]
        )

    @lru_cache(maxsize=None)
    def odd_positive_roots(self) -> tuple[Root, ...]:
        """The odd positive roots, in (i, j) order."""
        odd = (r for r in self.positive_roots() if r.is_odd)
        return tuple(sorted(odd, key=lambda r: (r.i, r.j)))

    @lru_cache(maxsize=None)
    def flipped_odd_roots(self) -> tuple[Root, ...]:
        """Distinguished-positive odd roots that this Borel makes negative:
        each eps_i - delta_j with delta_j in front of eps_i, in (i, j) order."""
        order, m = self._order, self.profile.m
        return tuple(
            Root(self.profile, i, j)
            for i in range(1, m + 1)
            for j in order[: order.index(i)]
            if j > m
        )

    @lru_cache(maxsize=None)
    def simple_roots(self) -> tuple[Root, ...]:
        return tuple(Root(self.profile, i, j) for i, j in zip(self._order, self._order[1:]))

    def __str__(self):
        return f"partition:[{','.join(map(str, self.partition))}]"


def borel(profile: RankProfile, parts) -> BorelElt:
    """Drop trailing zero parts and build a Borel; any other zero is refused."""
    parts = tuple(parts)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return BorelElt(profile, parts)


def distinguished(profile: RankProfile) -> BorelElt:
    return BorelElt(profile, ())


def antidistinguished(profile: RankProfile) -> BorelElt:
    return BorelElt(profile, (profile.n,) * profile.m)


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
    if alpha not in b.simple_roots():
        raise ValueError(f"{alpha} is not a simple root of {b}")
    m = b.profile.m
    parts = list(b.partition) + [0] * (m - len(b.partition))
    if alpha.i <= m:  # eps_i delta -> delta eps_i
        parts[m - alpha.i] += 1
    else:  # delta eps_j -> eps_j delta
        parts[m - alpha.j] -= 1
    return borel(b.profile, parts)


class OddReflectionEdge(Record):
    __slots__ = ("source", "target", "alpha")

    def __init__(self, source: BorelElt, target: BorelElt, alpha: Root):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "alpha", alpha)


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
