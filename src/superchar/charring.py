"""Exact truncated formal characters over the weight lattice of gl(m|n).

A character is a finite sparse sum of exact integer coefficients on
weights, valid down to a cutoff of the depth functional xi, which is
strictly positive on the standard even positive roots and on the
distinguished odd positive roots.  xi is `RankProfile.xi` on the basis
and `Weight.xi` on a weight, computed once when the weight is built.
Every series handled here has its support inside top - (nonnegative
span of those roots), so truncating by xi keeps the data finite while
all coefficients at or above the cutoff are exact.

A series stores its terms by xi level, as {level: {coefficient tuple:
int}}, and the ring operations work on those plain tuples.  `Weight`
objects are built only at the API boundary: the public constructor
takes a {Weight: int} dict, and `FormalChar.coeffs` is a read-only
{Weight: int} view whose len() and values() build no Weight.

Characters of Verma modules for an arbitrary Borel are normalized into
this cone by rewriting each wrong-direction odd factor
(1 + e^{+beta}) = e^{beta} (1 + e^{-beta}); only the top weight moves,
so Vermas for all Borels become directly comparable series.  Each is
then e^{top} times one series P = prod over odd (1+e^{-beta}) / prod
over even (1-e^{-gamma}) that depends only on the profile, and the unit
steps act level by level relative to the top: a Verma character is P
translated, and P is built once per profile.
"""

from __future__ import annotations

import warnings
from collections import Counter
from collections.abc import Mapping, ValuesView
from operator import add, sub

from . import diagrams
from .borels import distinguished
from .rootdata import (
    ConsistencyError,
    ProfileMismatch,
    RankProfile,
    Root,
    Weight,
    _rho_b_shift,
    atypicality,
    classify,
    even_positive_roots,
    odd_positive_roots,
    weyl_window,
    zero_weight,
)

DEFAULT_DEPTH = 8


class DepthError(ValueError):
    """A coefficient or comparison was requested below the valid cutoff."""


class _Coeffs(Mapping):
    """Read-only {Weight: int} view of a level store; builds each Weight
    only when a key is asked for."""

    __slots__ = ("_profile", "_levels")

    def __init__(self, profile, levels):
        self._profile = profile
        self._levels = levels

    def __getitem__(self, w):
        if isinstance(w, Weight) and w.profile == self._profile:
            terms = self._levels.get(w.xi, {})
            if w.coeffs in terms:
                return terms[w.coeffs]
        raise KeyError(w)

    def __iter__(self):
        p = self._profile
        for terms in self._levels.values():
            for t in terms:
                yield Weight(p, t)

    def __len__(self):
        return sum(map(len, self._levels.values()))

    def values(self):
        return _Values(self)

    def __repr__(self):
        return repr(dict(self.items()))


class _Values(ValuesView):
    """The coefficients, read straight from the levels."""

    __slots__ = ()

    def __iter__(self):
        for terms in self._mapping._levels.values():
            yield from terms.values()


def _add_into(dst: dict, t: tuple, v: int) -> None:
    """dst[t] += v, dropping the key when it reaches zero."""
    new = dst.get(t, 0) + v
    if new:
        dst[t] = new
    else:
        dst.pop(t, None)


def _merged(base: dict, terms: dict, shift=None, factor: int = 1) -> dict:
    """A copy of the level `base` plus factor * `terms`, each term first
    moved by -shift when a shift is given; zero coefficients are dropped."""
    dst = dict(base)
    if shift is None:
        for t, v in terms.items():
            _add_into(dst, t, factor * v)
    else:
        for t, v in terms.items():
            _add_into(dst, tuple(map(sub, t, shift)), factor * v)
    return dst


class FormalChar:
    """Sparse exact-integer series, valid on xi-levels >= xi(top) - depth.

    The terms are stored as {xi level: {coefficient tuple: int}}, with no
    zero coefficient and no empty level.  Level dicts are never mutated
    once stored, so results may share them with their operands.
    """

    __slots__ = ("profile", "top", "depth", "_levels")

    def __init__(self, profile, top: Weight, depth: int, coeffs: dict):
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        if top.profile != profile:
            raise ProfileMismatch(f"top {top} is not a weight of {profile}")
        self.profile = profile
        self.top = top
        self.depth = depth
        ceiling, floor = top.xi, top.xi - depth
        levels: dict = {}
        for k, v in coeffs.items():
            if k.profile != profile:
                raise ProfileMismatch(f"weight {k} is not a weight of {profile}")
            if v == 0:
                continue
            level = k.xi
            if level < floor or level > ceiling:
                raise ValueError(
                    f"weight {k} at xi-level {level} outside the window [{floor}, {ceiling}]"
                )
            levels.setdefault(level, {})[k.coeffs] = v
        self._levels = levels

    @classmethod
    def _make(cls, profile, top: Weight, depth: int, levels: dict) -> "FormalChar":
        """A ring result: `levels` is already a clean level store."""
        ceiling, floor = top.xi, top.xi - depth
        for level in levels:
            if level < floor or level > ceiling:
                raise ConsistencyError(
                    f"ring result has xi-level {level} outside the window [{floor}, {ceiling}]"
                )
        f = object.__new__(cls)
        f.profile = profile
        f.top = top
        f.depth = depth
        f._levels = levels
        return f

    # -- bookkeeping --------------------------------------------------------

    @property
    def floor(self) -> int:
        return self.top.xi - self.depth

    @property
    def coeffs(self) -> Mapping:
        """The terms as a read-only {Weight: int} mapping."""
        return _Coeffs(self.profile, self._levels)

    def coeff(self, w: Weight) -> int:
        if w.profile != self.profile:
            raise ProfileMismatch(f"profile mismatch: {self.profile} vs {w.profile}")
        if w.xi < self.floor:
            raise DepthError(f"{w} lies below the valid cutoff of this series")
        return self._levels.get(w.xi, {}).get(w.coeffs, 0)

    def _sorted_tuples(self):
        """(coefficient tuple, coeff) by descending level, then by tuple."""
        for level in sorted(self._levels, reverse=True):
            terms = self._levels[level]
            for t in sorted(terms):
                yield t, terms[t]

    def sorted_terms(self):
        return [(Weight(self.profile, t), v) for t, v in self._sorted_tuples()]

    def __repr__(self):
        return f"FormalChar(top={self.top}, depth={self.depth}, {len(self.coeffs)} terms)"

    # -- ring operations ------------------------------------------------------

    def _levels_from(self, floor: int) -> dict:
        """The level store cut to levels >= floor, sharing the level dicts."""
        return {level: terms for level, terms in self._levels.items() if level >= floor}

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
        out = self._levels_from(floor)
        for level, terms in other._levels.items():
            if level < floor:
                continue
            mine = out.get(level)
            if mine is None:
                out[level] = terms
                continue
            merged = _merged(mine, terms)
            if merged:
                out[level] = merged
            else:
                del out[level]
        return FormalChar._make(self.profile, top, top.xi - floor, out)

    def scale(self, k: int) -> "FormalChar":
        out = {}
        if k:
            out = {
                level: {t: k * v for t, v in terms.items()}
                for level, terms in self._levels.items()
            }
        return FormalChar._make(self.profile, self.top, self.depth, out)

    def mul(self, other: "FormalChar") -> "FormalChar":
        """Full convolution; valid depth is the smaller of the two."""
        if self.profile != other.profile:
            raise ProfileMismatch("cannot multiply characters of different profiles")
        top = self.top + other.top
        depth = min(self.depth, other.depth)
        floor = top.xi - depth
        out: dict = {}
        for la, ta in self._levels.items():
            for lb, tb in other._levels.items():
                if la + lb < floor:
                    continue
                dst = out.setdefault(la + lb, {})
                for ka, va in ta.items():
                    for kb, vb in tb.items():
                        _add_into(dst, tuple(map(add, ka, kb)), va * vb)
        out = {level: terms for level, terms in out.items() if terms}
        return FormalChar._make(self.profile, top, depth, out)

    def _unit_step(self, beta) -> tuple[tuple[int, ...], int]:
        """(coefficient tuple, xi level) of a cone-positive unit exponent."""
        b = beta.as_weight() if isinstance(beta, Root) else beta
        if b.xi <= 0:
            raise ValueError(f"unit factor exponent {b} must have positive xi")
        return b.coeffs, b.xi

    def mul_unit(self, beta, sign: int = 1) -> "FormalChar":
        """Multiply by (1 + sign * e^{-beta}) for a cone-positive beta."""
        b, step = self._unit_step(beta)
        floor = self.floor
        out = dict(self._levels)
        for level, terms in self._levels.items():
            low = level - step
            if low < floor:
                continue
            merged = _merged(out.get(low, {}), terms, b, sign)
            if merged:
                out[low] = merged
            else:
                out.pop(low, None)
        return FormalChar._make(self.profile, self.top, self.depth, out)

    def div_unit(self, beta, sign: int = 1) -> "FormalChar":
        """Divide by (1 + sign * e^{-beta}); exact down to the same floor.

        Solves r_l = f_l - sign * shift_beta(r_{l + xi(beta)}) level by
        level from the top down, shift_beta moving each term by -beta.
        """
        b, step = self._unit_step(beta)
        src, floor = self._levels, self.floor
        out: dict = {}
        for level in range(max(src, default=floor), floor - 1, -1):
            above = out.get(level + step)
            if above is None:
                if level in src:
                    out[level] = src[level]
                continue
            merged = _merged(src.get(level, {}), above, b, -sign)
            if merged:
                out[level] = merged
        return FormalChar._make(self.profile, self.top, self.depth, out)

    def retruncate(self, depth: int) -> "FormalChar":
        """Restrict validity; deepening beyond the recorded window is refused."""
        if depth > self.depth:
            raise DepthError("cannot extend a truncated series to a deeper window")
        out = self._levels_from(self.top.xi - depth)
        return FormalChar._make(self.profile, self.top, depth, out)

    # -- comparison and serialization ------------------------------------------

    def equals(self, other: "FormalChar") -> bool:
        """Exact coefficient equality on the common valid window."""
        if self.profile != other.profile:
            raise ProfileMismatch("cannot compare characters of different profiles")
        floor = max(self.floor, other.floor)
        return self._levels_from(floor) == other._levels_from(floor)

    def first_discrepancy(self, other: "FormalChar"):
        """The xi-smallest weight where the two series differ, or None."""
        floor = max(self.floor, other.floor)
        mine, theirs = self._levels_from(floor), other._levels_from(floor)
        for level in sorted(mine.keys() | theirs.keys()):
            a, b = mine.get(level, {}), theirs.get(level, {})
            for t in sorted(a.keys() | b.keys()):
                if a.get(t, 0) != b.get(t, 0):
                    return (Weight(self.profile, t), a.get(t, 0), b.get(t, 0))
        return None

    def to_json_obj(self) -> dict:
        return {
            "profile": [self.profile.m, self.profile.n],
            "top": list(self.top.coeffs),
            "depth": self.depth,
            "terms": [{"weight": list(t), "coeff": str(c)} for t, c in self._sorted_tuples()],
        }


def monomial(lam: Weight, depth: int) -> FormalChar:
    return FormalChar(lam.profile, lam, depth, {lam: 1})


def zero_char(profile: RankProfile, top: Weight, depth: int) -> FormalChar:
    return FormalChar(profile, top, depth, {})


# ---------------------------------------------------------------------------
# Closed character formulas


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


# profile -> ch M(0) of the distinguished cone, at the deepest depth asked
_VERMA_AT_ZERO: dict = {}


def _verma_at_zero(profile: RankProfile, depth: int) -> FormalChar:
    """prod over odd (1+e^{-beta}) / prod over even (1-e^{-gamma}), top 0.

    One series per profile is kept, at the deepest depth asked for so
    far; a deeper request rebuilds and replaces it, a shallower one is a
    cut of it to levels >= -depth.  The cut is exact, as each unit step
    only moves terms down.
    """
    f = _VERMA_AT_ZERO.get(profile)
    if f is None or f.depth < depth:
        f = _units(
            monomial(zero_weight(profile), depth),
            odd_positive_roots(profile),
            even_positive_roots(profile),
        )
        _VERMA_AT_ZERO[profile] = f
    return f.retruncate(depth)


def char_verma(b, lam: Weight, depth: int = DEFAULT_DEPTH) -> FormalChar:
    """e^lam * prod over odd positives (1+e^{-beta}) / prod (1-e^{-gamma}).

    Wrong-direction odd factors of b are normalized into the cone, which
    shifts the stored top to lam plus the flipped odd roots, that is to
    lam + rho^b - rho, a shift cached once per Borel.  The unit factors do
    not depend on the top, and each step (mul_unit, div_unit) acts level
    by level relative to it, so the character is the series
    `_verma_at_zero` translated: every coefficient tuple moves by top and
    every xi level by xi(top).
    """
    p = lam.profile
    top = lam + _rho_b_shift(b)
    shift, step = top.coeffs, top.xi
    levels = {
        level + step: {tuple(map(add, t, shift)): v for t, v in terms.items()}
        for level, terms in _verma_at_zero(p, depth)._levels.items()
    }
    return FormalChar._make(p, top, depth, levels)


def char_even_simple(mu: Weight, depth: int = DEFAULT_DEPTH) -> FormalChar:
    """Weyl's formula for the even subalgebra: the alternating sum of
    e^{w.mu} over the Weyl window, divided once by prod (1-e^{-gamma}).
    `dot_action` is the usual one, as W fixes rho - rho0."""
    # rho steps by one inside each block, so both coefficient blocks of mu
    # weakly decrease exactly when its coordinates are strictly ordered
    flags = classify(mu)
    if not (flags.regular and flags.dominant):
        raise ValueError(f"{mu} is not dominant for the even subalgebra")
    signs = Counter()
    for w, nu in weyl_window(mu, depth):
        signs[nu] += w.sign
    return _units(FormalChar(mu.profile, mu, depth, signs), even=even_positive_roots(mu.profile))


def char_kac(mu: Weight, depth: int = DEFAULT_DEPTH) -> FormalChar:
    """Even simple character tensored with the odd exterior algebra."""
    return _units(char_even_simple(mu, depth), odd_positive_roots(mu.profile))


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
    quotient = _units(char_verma(distinguished(p), lam, depth), atypical=_by_index(gamma))
    odd = [beta for beta in odd_positive_roots(p) if beta not in gamma]
    product = _units(monomial(lam, depth), odd, even_positive_roots(p))
    if not quotient.equals(product):
        raise ConsistencyError("narrow character: quotient and product forms disagree")
    return product


def _simple_td_sides(lam: Weight, depth: int) -> tuple[FormalChar, FormalChar]:
    """(narrow, closed): the two sides of the Weyl-type simple character at
    a totally disconnected regular dominant lam, on the window below lam.

    narrow is the Euler characteristic of the narrow resolution,
    sum over w of sign(w) ch N(w.lam), each summand `char_narrow` with its
    own quotient/product cross-check.  closed is the prefactor form
    ch M(0) * sum over w of sign(w) e^{w.lam} / prod over Gamma(w.lam)
    (1+e^{-beta}), with the ch M(0) unit factors applied once to the whole
    inner sum (unit factors commute, and both are exact on the window).
    Gamma(w.lam) = w(Gamma(lam)), as W only permutes the odd roots; a
    Weyl-independent denominator fails against the exact rank computations
    of the narrow submodules.  The top-weight normalization and the
    nonnegativity of narrow are checked here.
    """
    p = lam.profile
    flags = classify(lam)
    if not (flags.regular and flags.dominant):
        raise ValueError(f"{lam} must be regular dominant")
    if not diagrams.is_totally_disconnected(lam):
        raise ValueError(f"{lam} is not totally disconnected")
    floor = lam.xi - depth
    narrow = inner = zero_char(p, lam, depth)
    for w, nu in weyl_window(lam, depth):
        gamma = _by_index(atypicality(nu).gamma)
        narrow = narrow + char_narrow(nu, nu.xi - floor, warn=False).scale(w.sign)
        inner = inner + _units(monomial(nu, nu.xi - floor), atypical=gamma).scale(w.sign)
    closed = _units(inner, odd_positive_roots(p), even_positive_roots(p))
    if narrow.coeff(lam) != 1:
        raise ConsistencyError("simple character is not normalized at its top weight")
    if any(v < 0 for v in narrow.coeffs.values()):
        raise ConsistencyError("simple character has a negative coefficient")
    return narrow, closed


def char_simple_td(lam: Weight, depth: int = DEFAULT_DEPTH) -> FormalChar:
    """Finite Weyl-type character of the simple module at a totally
    disconnected regular dominant weight: the Euler characteristic of the
    narrow resolution, which must equal the closed prefactor form exactly.
    A mismatch is a convention bug, not a math failure.
    """
    narrow, closed = _simple_td_sides(lam, depth)
    if not narrow.equals(closed):
        raise ConsistencyError("simple-character expressions disagree")
    return narrow
