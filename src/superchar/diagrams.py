"""Weight diagrams and genericity tests.

A regular dominant weight is drawn on the number line from its
coordinate multiset: positions hit by both blocks get a vee, positions
hit by the eps block only a cross, by the delta block only a circle,
everything else a wedge.  The number of vees is the atypicality and
the diagram determines the weight.

Genericity here means that shifting the weight by any subset of the
distinguished odd positive roots never changes the strict within-block
ordering of the coordinates and never creates a tie (open chambers,
the strictest reading).  The brute test walks all 2^{mn} subsets; the
fast test checks that within-block coordinate gaps exceed n on the eps
block and m on the delta block.  The two agree on every gl(m|n):
(1) a subset of the odd roots eps_i - delta_j is a 0/1 m x n matrix,
and the shift subtracts its row sums r from the eps block and its
column sums c from the delta block; (2) the rows are chosen
independently, so r ranges over all of [0, n]^m, and c over all of
[0, m]^n; (3) the eps pattern depends only on r and the delta pattern
only on c, so "for all subsets" splits into one "for all" per block;
(4) a pattern is the tuple of pairwise signs and each (r_a, r_b) ranges
over [0, n]^2, so it is kept iff no eps_a - eps_b reaches zero or
changes sign when any d in [-n, n] is subtracted, that is iff
|eps_a - eps_b| > n; likewise |delta_a - delta_b| > m.
"""

from __future__ import annotations

import itertools

from .rootdata import (
    EnumerationBound,
    RankProfile,
    Weight,
    classify,
    encode,
    odd_positive_roots,
    refuse_assignment,
)

CROSS, CIRCLE, VEE, WEDGE = "cross", "circle", "vee", "wedge"

DEFAULT_SUBSET_BOUND = 1 << 16


class WeightDiagram:
    __slots__ = ("profile", "entries")
    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, profile: RankProfile, entries: tuple[tuple[int, str], ...]):
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "entries", entries)  # (position, symbol), symbol != wedge

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.profile, self.entries) == (other.profile, other.entries)
        return NotImplemented

    def __hash__(self):
        return hash((self.profile, self.entries))

    def __repr__(self):
        return f"WeightDiagram(profile={self.profile!r}, entries={self.entries!r})"

    def label(self, position: int) -> str:
        for p, s in self.entries:
            if p == position:
                return s
        return WEDGE

    def positions(self, symbol: str) -> tuple[int, ...]:
        return tuple(sorted(p for p, s in self.entries if s == symbol))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(p for p, _ in self.entries))


def weight_diagram(lam: Weight) -> WeightDiagram:
    """Diagram of a regular dominant weight; anything else is rejected."""
    flags = classify(lam)
    if not flags.regular:
        raise ValueError(f"{lam} is not regular; it has no weight diagram")
    if not flags.dominant:
        raise ValueError(f"{lam} is not dominant; it has no weight diagram")
    c = encode(lam)
    eps, delta = set(c[: lam.profile.m]), set(c[lam.profile.m:])
    entries = []
    for p in sorted(eps | delta):
        if p in eps and p in delta:
            entries.append((p, VEE))
        elif p in eps:
            entries.append((p, CROSS))
        else:
            entries.append((p, CIRCLE))
    return WeightDiagram(lam.profile, tuple(entries))


def is_totally_disconnected(lam: Weight) -> bool:
    """At least one wedge strictly between any two consecutive vees."""
    d = weight_diagram(lam)
    vees = d.positions(VEE)
    occupied = set(d.support)
    for lo, hi in zip(vees, vees[1:]):
        if all(q in occupied for q in range(lo + 1, hi)):
            return False
    return True


def _ordering_pattern(values: tuple[int, ...]):
    """Strict comparison pattern of a tuple, or None if it has a tie."""
    pattern = []
    for a in range(len(values)):
        for b in range(a + 1, len(values)):
            if values[a] == values[b]:
                return None
            pattern.append(values[a] < values[b])
    return tuple(pattern)


def _generic_brute(lam: Weight) -> bool:
    p = lam.profile
    odd = odd_positive_roots(p)
    if 1 << len(odd) > DEFAULT_SUBSET_BOUND:
        raise EnumerationBound(
            f"brute genericity needs 2^{len(odd)} subsets, over the bound {DEFAULT_SUBSET_BOUND}"
        )
    c = encode(lam)
    coord_eps, coord_delta = c[: p.m], c[p.m:]
    base_eps = _ordering_pattern(coord_eps)
    base_delta = _ordering_pattern(coord_delta)
    if base_eps is None or base_delta is None:
        return False
    for mask in itertools.product((0, 1), repeat=len(odd)):
        rows = [0] * p.m
        cols = [0] * p.n
        for flag, beta in zip(mask, odd):
            if flag:
                rows[beta.i - 1] += 1
                cols[beta.j - p.m - 1] += 1
        eps = tuple(v - r for v, r in zip(coord_eps, rows))
        delta = tuple(v - r for v, r in zip(coord_delta, cols))
        if _ordering_pattern(eps) != base_eps or _ordering_pattern(delta) != base_delta:
            return False
    return True


def _generic_fast(lam: Weight) -> bool:
    p = lam.profile
    c = encode(lam)
    for block, cap in ((c[: p.m], p.n), (c[p.m:], p.m)):
        for a in range(len(block)):
            for b in range(a + 1, len(block)):
                if abs(block[a] - block[b]) <= cap:
                    return False
    return True


def is_g1_generic(lam: Weight, mode: str = "fast") -> bool:
    """Whether all odd-subset shifts of lam stay in one open Weyl chamber.

    mode "fast" uses the gap criterion; "brute" enumerates the 2^{mn}
    subsets, as the oracle the gap criterion is tested by, and raises
    EnumerationBound when they number more than DEFAULT_SUBSET_BOUND.
    """
    if mode == "fast":
        return _generic_fast(lam)
    if mode == "brute":
        return _generic_brute(lam)
    raise ValueError(f"unknown mode {mode!r}")


_ASCII = {CROSS: "x", CIRCLE: "o", VEE: "v", WEDGE: "^"}


def render_ascii(d: WeightDiagram) -> str:
    """One character per integer from one below the lowest entry to one
    above the highest; wedges fill the gaps."""
    positions = [p for p, _ in d.entries]
    lo, hi = min(positions) - 1, max(positions) + 1
    line = "".join(_ASCII[d.label(q)] for q in range(lo, hi + 1))
    return f"{lo}: {line} :{hi}"


def diagram_json(d: WeightDiagram) -> dict:
    return {"positions": {str(p): s for p, s in d.entries}}
