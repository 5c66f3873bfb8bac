"""Exact truncated formal characters over the weight lattice of gl(m|n).

A character is a finite sparse sum of exact integer coefficients on
weights, valid down to a cutoff of the depth functional xi, which is
strictly positive on the standard even positive roots and on the
distinguished odd positive roots.  xi is `RankProfile.xi` on the basis
and `Weight.xi` on a weight, computed once when the weight is built.
Every series handled here has its support inside top - (nonnegative
span of those roots), so truncating by xi keeps the data finite while
all coefficients at or above the cutoff are exact.

Characters of Verma modules for an arbitrary Borel are normalized into
this cone by rewriting each wrong-direction odd factor
(1 + e^{+beta}) = e^{beta} (1 + e^{-beta}); only the top weight moves,
so Vermas for all Borels become directly comparable series.
"""

from __future__ import annotations

import itertools
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from . import diagrams
from .rootdata import (
    ConsistencyError,
    ProfileMismatch,
    RankProfile,
    Root,
    Weight,
    WeylElt,
    atypicality,
    classify,
    dot_action,
    dot_action_usual,
    even_positive_roots,
    is_even_dominant,
    odd_positive_roots,
    pairing,
    rho,
    rho_b,
    weyl_group,
    zero_weight,
)

DEFAULT_DEPTH = 8


class DepthError(ValueError):
    """A coefficient or comparison was requested below the valid cutoff."""


class FormalChar:
    """Sparse exact-integer series, valid on xi-levels >= xi(top) - depth."""

    __slots__ = ("profile", "top", "depth", "coeffs")

    def __init__(self, profile, top: Weight, depth: int, coeffs: dict):
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        self.profile = profile
        self.top = top
        self.depth = depth
        ceiling, floor = top.xi, top.xi - depth
        cleaned = {}
        for k, v in coeffs.items():
            if v == 0:
                continue
            level = k.xi
            if level < floor or level > ceiling:
                raise ValueError(
                    f"weight {k} at xi-level {level} outside the window [{floor}, {ceiling}]"
                )
            cleaned[k] = v
        self.coeffs = cleaned

    # -- bookkeeping --------------------------------------------------------

    @property
    def floor(self) -> int:
        return self.top.xi - self.depth

    def coeff(self, w: Weight) -> int:
        if w.xi < self.floor:
            raise DepthError(f"{w} lies below the valid cutoff of this series")
        return self.coeffs.get(w, 0)

    def support(self):
        return set(self.coeffs)

    def sorted_terms(self):
        return sorted(self.coeffs.items(), key=lambda kv: (-kv[0].xi, kv[0].coeffs))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self):
        return f"FormalChar(top={self.top}, depth={self.depth}, {len(self.coeffs)} terms)"

    # -- ring operations ------------------------------------------------------

    def _join_top(self, other: "FormalChar") -> Weight:
        a, b = self.top, other.top
        return a if (a.xi, a.coeffs) >= (b.xi, b.coeffs) else b

    def __add__(self, other: "FormalChar") -> "FormalChar":
        if not isinstance(other, FormalChar):
            return NotImplemented
        if self.profile != other.profile:
            raise ProfileMismatch("cannot add characters of different profiles")
        top = self._join_top(other)
        floor = max(self.floor, other.floor)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        out = {k: v for k, v in out.items() if k.xi >= floor}
        return FormalChar(self.profile, top, top.xi - floor, out)

    def __sub__(self, other: "FormalChar") -> "FormalChar":
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, k: int) -> "FormalChar":
        return FormalChar(
            self.profile, self.top, self.depth, {w: k * v for w, v in self.coeffs.items()}
        )

    def mul(self, other: "FormalChar") -> "FormalChar":
        """Full convolution; valid depth is the smaller of the two."""
        if self.profile != other.profile:
            raise ProfileMismatch("cannot multiply characters of different profiles")
        top = self.top + other.top
        depth = min(self.depth, other.depth)
        floor = top.xi - depth
        out: dict = {}
        for ka, va in self.coeffs.items():
            for kb, vb in other.coeffs.items():
                k = ka + kb
                if k.xi < floor:
                    continue
                out[k] = out.get(k, 0) + va * vb
        return FormalChar(self.profile, top, depth, out)

    def __mul__(self, other):
        if isinstance(other, FormalChar):
            return self.mul(other)
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def _unit_weight(self, beta) -> Weight:
        b = beta.as_weight() if isinstance(beta, Root) else beta
        if b.xi <= 0:
            raise ValueError(f"unit factor exponent {b} must have positive xi")
        return b

    def mul_unit(self, beta, sign: int = 1) -> "FormalChar":
        """Multiply by (1 + sign * e^{-beta}) for a cone-positive beta."""
        b = self._unit_weight(beta)
        floor = self.floor
        out = dict(self.coeffs)
        for k, v in self.coeffs.items():
            shifted = k - b
            if shifted.xi >= floor:
                out[shifted] = out.get(shifted, 0) + sign * v
        return FormalChar(self.profile, self.top, self.depth, out)

    def div_unit(self, beta, sign: int = 1) -> "FormalChar":
        """Divide by (1 + sign * e^{-beta}); exact down to the same floor.

        Solves r[k] = f[k] - sign * r[k + beta] from the top level down.
        """
        b = self._unit_weight(beta)
        floor = self.floor
        candidates = set(self.coeffs)
        frontier = list(candidates)
        while frontier:
            nxt = []
            for k in frontier:
                down = k - b
                if down.xi >= floor and down not in candidates:
                    candidates.add(down)
                    nxt.append(down)
            frontier = nxt
        out: dict = {}
        for k in sorted(candidates, key=lambda w: w.xi, reverse=True):
            value = self.coeffs.get(k, 0) - sign * out.get(k + b, 0)
            if value:
                out[k] = value
        return FormalChar(self.profile, self.top, self.depth, out)

    def retruncate(self, depth: int) -> "FormalChar":
        """Restrict validity; deepening beyond the recorded window is refused."""
        if depth > self.depth:
            raise DepthError("cannot extend a truncated series to a deeper window")
        floor = self.top.xi - depth
        return FormalChar(
            self.profile,
            self.top,
            depth,
            {k: v for k, v in self.coeffs.items() if k.xi >= floor},
        )

    # -- comparison and serialization ------------------------------------------

    def equals(self, other: "FormalChar") -> bool:
        """Exact coefficient equality on the common valid window."""
        if self.profile != other.profile:
            raise ProfileMismatch("cannot compare characters of different profiles")
        floor = max(self.floor, other.floor)
        a = {k: v for k, v in self.coeffs.items() if k.xi >= floor}
        b = {k: v for k, v in other.coeffs.items() if k.xi >= floor}
        return a == b

    def first_discrepancy(self, other: "FormalChar"):
        """The xi-smallest weight where the two series differ, or None."""
        floor = max(self.floor, other.floor)
        keys = {k for k in itertools.chain(self.coeffs, other.coeffs) if k.xi >= floor}
        for k in sorted(keys, key=lambda w: (w.xi, w.coeffs)):
            a, b = self.coeffs.get(k, 0), other.coeffs.get(k, 0)
            if a != b:
                return (k, a, b)
        return None

    def to_json_obj(self) -> dict:
        return {
            "profile": [self.profile.m, self.profile.n],
            "top": list(self.top.coeffs),
            "depth": self.depth,
            "terms": [
                {"weight": list(w.coeffs), "coeff": str(c)} for w, c in self.sorted_terms()
            ],
        }

    @staticmethod
    def from_json_obj(obj: dict, profile: RankProfile | None = None) -> "FormalChar":
        if profile is None:
            m, n = obj["profile"]
            profile = RankProfile(m, n)
        top = Weight(profile, tuple(obj["top"]))
        coeffs = {
            Weight(profile, tuple(t["weight"])): int(t["coeff"]) for t in obj["terms"]
        }
        return FormalChar(profile, top, obj["depth"], coeffs)


def monomial(lam: Weight, depth: int) -> FormalChar:
    return FormalChar(lam.profile, lam, depth, {lam: 1})


def zero_char(profile: RankProfile, top: Weight, depth: int) -> FormalChar:
    return FormalChar(profile, top, depth, {})


def _floored(lam: Weight, floor: int) -> FormalChar:
    """Monomial e^lam valid down to the absolute xi-level `floor`."""
    depth = lam.xi - floor
    if depth < 0:
        raise DepthError(f"{lam} already lies below the requested floor")
    return monomial(lam, depth)


# ---------------------------------------------------------------------------
# Closed character formulas


@dataclass(frozen=True)
class GammaSet:
    """Atypical distinguished-positive odd roots; pairwise orthogonal."""

    roots: frozenset[Root]

    def __post_init__(self):
        for a in self.roots:
            for b in self.roots:
                if a != b and pairing(a.as_weight(), b.as_weight()) != 0:
                    raise ValueError(f"atypical roots {a} and {b} are not orthogonal")

    def __len__(self):
        return len(self.roots)


def gamma_set(lam: Weight) -> GammaSet:
    return GammaSet(atypicality(lam).gamma)


def _units(f: FormalChar, odd=(), even=(), atypical=()) -> FormalChar:
    """f * prod over odd (1+e^{-beta}) / prod over even (1-e^{-gamma})
    / prod over atypical (1+e^{-beta}): the unit factors of every closed
    formula, applied in that order."""
    for beta in odd:
        f = f.mul_unit(beta, +1)
    for gamma in even:
        f = f.div_unit(gamma, -1)
    for beta in atypical:
        f = f.div_unit(beta, +1)
    return f


def _by_index(roots):
    return sorted(roots, key=lambda r: (r.i, r.j))


def char_verma(b, lam: Weight, depth: int = DEFAULT_DEPTH) -> FormalChar:
    """e^lam * prod over odd positives (1+e^{-beta}) / prod (1-e^{-gamma}).

    Wrong-direction odd factors of b are normalized into the cone, which
    shifts the stored top to lam plus the flipped odd roots.
    """
    p = lam.profile
    top = lam
    for beta in b.flipped_odd_roots():
        top = top + beta.as_weight()
    return _units(monomial(top, depth), odd_positive_roots(p), even_positive_roots(p))


def char_even_verma(mu: Weight, depth: int) -> FormalChar:
    """Verma character for the even subalgebra: e^mu / prod (1-e^{-gamma})."""
    return _units(monomial(mu, depth), even=even_positive_roots(mu.profile))


def char_even_simple(mu: Weight, depth: int = DEFAULT_DEPTH) -> FormalChar:
    """Alternating Verma sum over the Weyl group with the usual dot action."""
    if not is_even_dominant(mu):
        raise ValueError(f"{mu} is not dominant for the even subalgebra")
    p = mu.profile
    floor = mu.xi - depth
    total = zero_char(p, mu, depth)
    for w in weyl_group(p):
        nu = dot_action_usual(w, mu)
        if nu.xi < floor:
            continue
        total = total + char_even_verma(nu, nu.xi - floor).scale(w.sign)
    return total


def char_kac(mu: Weight, depth: int = DEFAULT_DEPTH) -> FormalChar:
    """Even simple character tensored with the odd exterior algebra."""
    return _units(char_even_simple(mu, depth), odd_positive_roots(mu.profile))


def _narrow(nu: Weight, floor: int, gamma) -> FormalChar:
    """e^nu * prod over the odd positives outside gamma (1+e^{-beta})
    / prod (1-e^{-gamma}), valid down to the absolute xi-level `floor`."""
    p = nu.profile
    odd = [beta for beta in odd_positive_roots(p) if beta not in gamma]
    return _units(_floored(nu, floor), odd, even_positive_roots(p))


def char_narrow(lam: Weight, depth: int = DEFAULT_DEPTH, warn: bool = True) -> FormalChar:
    """Verma character with the atypical odd unit factors divided out.

    Computed twice, as quotient and as product over the non-atypical odd
    roots, and cross-asserted.  The closed formula is only established for
    g_{-1}-generic weights; other inputs are served with a warning.
    """
    p = lam.profile
    if warn and not diagrams.is_g1_generic(lam):
        warnings.warn(
            f"{lam} is not g_-1-generic; the narrow character formula is unproven here",
            stacklevel=2,
        )
    gamma = atypicality(lam).gamma
    quotient = _units(char_verma(_dist(p), lam, depth), atypical=_by_index(gamma))
    product = _narrow(lam, lam.xi - depth, gamma)
    if not quotient.equals(product):
        raise ConsistencyError("narrow character: quotient and product forms disagree")
    return product


@lru_cache(maxsize=None)
def _dist(profile: RankProfile):
    from .borels import distinguished

    return distinguished(profile)


def char_simple_td(lam: Weight, depth: int = DEFAULT_DEPTH) -> FormalChar:
    """Finite Weyl-type character of the simple module at a totally
    disconnected regular dominant weight.

    Each Weyl summand divides out its own atypical set w(Gamma), which is
    the atypical set of w.lam; a Weyl-independent denominator fails
    against the exact rank computations of the narrow submodules.  Three
    independent arrangements of the formula are evaluated and must agree
    exactly; any mismatch is a convention bug, not a math failure.
    """
    p = lam.profile
    flags = classify(lam)
    if not (flags.regular and flags.dominant):
        raise ValueError(f"{lam} must be regular dominant")
    if not diagrams.is_totally_disconnected(lam):
        raise ValueError(f"{lam} is not totally disconnected")
    gamma = _by_index(atypicality(lam).gamma)
    GammaSet(frozenset(gamma))
    floor = lam.xi - depth
    odd, even = odd_positive_roots(p), even_positive_roots(p)

    def moved_gamma(w: WeylElt):
        moved = []
        for beta in gamma:
            image = w.act(beta.as_weight())
            i = next(k + 1 for k, c in enumerate(image.coeffs) if c == 1)
            j = next(k + 1 for k, c in enumerate(image.coeffs) if c == -1)
            moved.append(Root(p, i, j))
        return _by_index(moved)

    # (a) prefactor times the alternating sum of e^{w.lam} / w(gamma) factors
    # (b) the same sum with the non-atypical odd product inside
    # (c) alternating Verma characters divided by the moved gamma factors
    inner = expr_b = expr_c = zero_char(p, lam, depth)
    for w in weyl_group(p):
        nu = dot_action(w, lam)
        if nu.xi < floor:
            continue
        moved = moved_gamma(w)
        top = _floored(nu, floor)
        inner = inner + _units(top, atypical=moved).scale(w.sign)
        expr_b = expr_b + _narrow(nu, floor, moved).scale(w.sign)
        expr_c = expr_c + _units(top, odd, even, moved).scale(w.sign)
    expr_a = char_verma(_dist(p), zero_weight(p), depth).mul(inner)

    if not (expr_a.equals(expr_b) and expr_b.equals(expr_c)):
        raise ConsistencyError("simple-character expressions disagree")
    if expr_b.coeff(lam) != 1:
        raise ConsistencyError("simple character is not normalized at its top weight")
    if any(v < 0 for v in expr_b.coeffs.values()):
        raise ConsistencyError("simple character has a negative coefficient")
    return expr_b


def char_restriction_decomposition(b, lam: Weight, depth: int = DEFAULT_DEPTH):
    """Even highest weights lam - sum(S) over all odd subsets S, as a multiset.

    The character identity ch M^b(lam + rho - rho^b) = sum of even Verma
    characters at those weights is asserted before returning.
    """
    p = lam.profile
    odd = odd_positive_roots(p)
    floor = lam.xi - depth
    tally: Counter = Counter()
    total = zero_char(p, lam, depth)
    for size in range(len(odd) + 1):
        for subset in itertools.combinations(odd, size):
            nu = lam
            for beta in subset:
                nu = nu - beta.as_weight()
            tally[nu] += 1
            if nu.xi >= floor:
                total = total + char_even_verma(nu, nu.xi - floor)
    shifted = lam + rho(p) - rho_b(b)
    lhs = char_verma(b, shifted, depth)
    if not lhs.equals(total):
        raise ConsistencyError("restriction decomposition identity failed")
    return sorted(tally.items(), key=lambda kv: (-kv[0].xi, kv[0].coeffs))
