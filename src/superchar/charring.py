"""Exact truncated formal characters over the weight lattice of gl(m|n).

A character is a finite sparse sum of exact integer coefficients on
weights, valid down to a cutoff of the depth functional xi, which is
strictly positive on the standard even positive roots and on the
distinguished odd positive roots.  xi is `RankProfile.xi` on the basis
and `Weight.xi` on a weight, computed once when the weight is built.
Every series handled here has its support inside top - (nonnegative
span of those roots), so truncating by xi keeps the data finite while
all coefficients at or above the cutoff are exact.

A series stores its terms relative to its top, as {xi-drop below top:
{packed offset: int}}: a term t has the offset o = t - top, packed as
the one int sum of o_i * 2^(16 (dim - i)), digits balanced in
[-2^15, 2^15).  The packing is linear, so a unit step moves a term by
one int subtraction and a Verma character is a new top over a shared
store; on the box |o_i| < 2^15 it is injective and orders keys as their
offsets.  Every stored key lies in the box: a series has a spread s, so
that a term at drop k has |o_i| <= s + k, and s + depth < 2^15, else
`PackingError`.  A monomial and ch M(0) have s = 0, and the public
constructor refuses a depth or a term offset of 2^13 or more.  A unit
step moves a term by a positive root, so each digit moves by at most 1
per xi-step and s is kept.  A sum or comparison of two series with one
top reads both stores as they are, cut to the common window.  When the
tops differ it keys the lower top's series from the higher top, which
moves its keys by the tops' packed difference d and its drops by their
xi difference l, so its spread becomes s + max|d_i| - l; a product adds
spreads.  A lookup beyond the spread is 0 without reading a key.
`Weight`s and coefficient tuples are built only at the API boundary: the
public constructor takes a {Weight: int} dict, and `FormalChar.coeffs`
is a read-only {Weight: int} view whose len() and values() decode
nothing.

Characters of Verma modules for an arbitrary Borel are normalized into
this cone by rewriting each wrong-direction odd factor
(1 + e^{+beta}) = e^{beta} (1 + e^{-beta}); only the top weight moves,
so Vermas for all Borels become directly comparable series.  Each is
then e^{top} times one series P = prod over odd (1+e^{-beta}) / prod
over even (1-e^{-gamma}) that depends only on the profile: P is built
once per profile, and every Verma character is a new top over its store.
The product form of a narrow character is likewise a new top over one
series per atypical set Gamma, P with the factors of Gamma left out,
built from a monomial and never from P; a profile's narrow series hold
no more terms than its P, the least recently used dropped first.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping, ValuesView
from itertools import chain
from operator import add, sub

from . import diagrams
from .borels import distinguished
from .rootdata import (
    ConsistencyError,
    ProfileMismatch,
    RankProfile,
    Root,
    Weight,
    rho_b_shift,
    atypical_roots,
    classify,
    even_positive_roots,
    odd_positive_roots,
    weyl_window,
    zero_weight,
)

DEFAULT_DEPTH = 8

_RADIX = 1 << 16
_HALF = _RADIX // 2  # the packing box: every |offset_i| < _HALF
_BOUND = 1 << 13  # the public constructor's bound on depth and term offsets


class DepthError(ValueError):
    """A coefficient or comparison was requested below the valid cutoff."""


class PackingError(ValueError):
    """A series spreads too wide, or two tops lie too far apart, for the packing box."""


def _depth_message(depth: int) -> str:
    return f"depth must be nonnegative and below {_BOUND}, got {depth}"


def _pack(offset) -> int:
    """sum of offset[i] * 2^(16 * (dim - 1 - i)): linear, injective on the box."""
    p = 0
    for x in offset:
        p = p * _RADIX + x
    return p


def _unpack(p: int, dim: int) -> tuple[int, ...]:
    """The offset in the box that packs to p: its balanced digits."""
    out = [0] * dim
    for i in range(dim - 1, -1, -1):
        out[i] = x = (p + _HALF) % _RADIX - _HALF
        p = (p - x) // _RADIX
    return tuple(out)


def _at(top: Weight, p: int) -> tuple[int, ...]:
    """The coefficient tuple of the term at packed offset p below top."""
    return tuple(map(add, top.coeffs, _unpack(p, len(top.coeffs))))


# (dim, i, j) -> the packed step of eps_i - eps_j: xi is (dim, ..., 1) in
# every profile, so dim and the indices fix both, and the lookup hashes
# ints, not the Root and its RankProfile
_STEPS: dict = {}


def _unit_step(beta: Root) -> tuple[int, int]:
    """(packed beta, xi(beta)) of a unit exponent, a root of positive xi."""
    if not isinstance(beta, Root):
        raise TypeError(f"unit factor exponent {beta} is not a root")
    xi, i, j = beta.profile.xi, beta.i, beta.j
    key = (len(xi), i, j)
    found = _STEPS.get(key)
    if found is None:
        step = xi[i - 1] - xi[j - 1]
        if step <= 0:
            raise ValueError(f"unit factor exponent {beta} must have positive xi")
        found = _STEPS[key] = (_RADIX ** (len(xi) - i) - _RADIX ** (len(xi) - j), step)
    return found


class _Coeffs(Mapping):
    """Read-only {Weight: int} view of a series; builds each Weight only
    when a key is asked for."""

    __slots__ = ("_f",)

    def __init__(self, f):
        self._f = f

    def __getitem__(self, w):
        v = self._f._get(w) if isinstance(w, Weight) and w.profile == self._f.profile else 0
        if v:
            return v
        raise KeyError(w)

    def __iter__(self):
        p, top = self._f.profile, self._f.top
        for terms in self._f._levels.values():
            for k in terms:
                yield Weight(p, _at(top, k))

    def __len__(self):
        return sum(map(len, self._f._levels.values()))

    def values(self):
        return _Values(self)

    def __repr__(self):
        return repr(dict(self.items()))


class _Values(ValuesView):
    """The coefficients, read straight from the levels."""

    __slots__ = ()

    def __iter__(self):
        return chain.from_iterable(terms.values() for terms in self._mapping._f._levels.values())


def _merged(base: dict, terms: dict, shift: int = 0, factor: int = 1) -> dict:
    """A copy of the level `base` plus factor * `terms`, each key first
    moved down by the packed `shift`; zero coefficients are dropped."""
    dst = dict(base)
    get = dst.get
    for k, v in terms.items():
        k -= shift
        new = get(k, 0) + factor * v
        if new:
            dst[k] = new
        else:
            dst.pop(k, None)
    return dst


class FormalChar:
    """Sparse exact-integer series, valid on xi-levels >= xi(top) - depth.

    The terms are stored as {xi-drop below top: {packed offset: int}},
    with no zero coefficient and no empty level; a term at drop k lies
    within _spread + k of the top in every coordinate (module docstring).
    Level dicts and stores are never mutated once stored, so results and
    Verma characters share them with their operands.
    """

    __slots__ = ("profile", "top", "depth", "_levels", "_spread")

    def __init__(self, profile, top: Weight, depth: int, coeffs: dict):
        if not 0 <= depth < _BOUND:
            raise ValueError(_depth_message(depth))
        if top.profile != profile:
            raise ProfileMismatch(f"top {top} is not a weight of {profile}")
        self.profile = profile
        self.top = top
        self.depth = depth
        levels: dict = {}
        self._spread = 0
        for k, v in coeffs.items():
            if k.profile != profile:
                raise ProfileMismatch(f"weight {k} is not a weight of {profile}")
            if v == 0:
                continue
            if not 0 <= top.xi - k.xi <= depth:
                raise ValueError(
                    f"weight {k} at xi-level {k.xi} outside the window [{self.floor}, {top.xi}]"
                )
            offset = tuple(map(sub, k.coeffs, top.coeffs))
            self._spread = max(self._spread, *map(abs, offset))
            if self._spread >= _BOUND:
                raise ValueError(f"weight {k} lies {_BOUND} or more from the top {top}")
            levels.setdefault(top.xi - k.xi, {})[_pack(offset)] = v
        self._levels = levels

    @classmethod
    def _make(cls, profile, top: Weight, depth: int, levels: dict, spread: int = 0) -> "FormalChar":
        """A ring result: `levels` is already a clean store keyed from top,
        with the given spread."""
        ceiling, floor = top.xi, top.xi - depth
        for drop in levels:
            if not 0 <= drop <= depth:
                raise ConsistencyError(
                    f"ring result has xi-level {ceiling - drop} outside the window "
                    f"[{floor}, {ceiling}]"
                )
        if spread + depth >= _HALF:
            raise PackingError(f"spread {spread} at depth {depth} leaves the packing box")
        f = object.__new__(cls)
        f.profile, f.top, f.depth, f._levels, f._spread = profile, top, depth, levels, spread
        return f

    # -- bookkeeping --------------------------------------------------------

    @property
    def floor(self) -> int:
        return self.top.xi - self.depth

    @property
    def coeffs(self) -> Mapping:
        """The terms as a read-only {Weight: int} mapping."""
        return _Coeffs(self)

    def _get(self, w: Weight) -> int:
        """The coefficient at w; 0 beyond the spread, so no key aliases w."""
        drop, offset = self.top.xi - w.xi, tuple(map(sub, w.coeffs, self.top.coeffs))
        if drop not in self._levels or max(map(abs, offset)) > self._spread + drop:
            return 0
        return self._levels[drop].get(_pack(offset), 0)

    def coeff(self, w: Weight) -> int:
        if w.profile != self.profile:
            raise ProfileMismatch(f"profile mismatch: {self.profile} vs {w.profile}")
        if w.xi < self.floor:
            raise DepthError(f"{w} lies below the valid cutoff of this series")
        return self._get(w)

    def _sorted_tuples(self):
        """(coefficient tuple, coeff) by descending level, then by tuple (key order)."""
        for drop in sorted(self._levels):
            terms = self._levels[drop]
            for k in sorted(terms):
                yield _at(self.top, k), terms[k]

    def sorted_terms(self):
        return [(Weight(self.profile, t), v) for t, v in self._sorted_tuples()]

    def __repr__(self):
        return f"FormalChar(top={self.top}, depth={self.depth}, {len(self.coeffs)} terms)"

    # -- ring operations ------------------------------------------------------

    def _cut(self, depth: int) -> dict:
        """The store cut to drops <= depth: the store itself when nothing is
        cut, else a new store sharing the level dicts."""
        if depth >= self.depth:
            return self._levels
        return {drop: terms for drop, terms in self._levels.items() if drop <= depth}

    def _aligned(self, other: "FormalChar"):
        """(top, depth, spread, store, store): both series keyed from the
        join of their tops and cut to the common window.  With equal tops
        the stores are already keyed alike and are only cut; otherwise the
        series whose top is not the join is re-keyed by one constant, key
        and drop."""
        if self.profile != other.profile:
            raise ProfileMismatch(f"profile mismatch: {self.profile} vs {other.profile}")
        a, b = self.top, other.top
        if a.coeffs == b.coeffs:
            depth, spread = min(self.depth, other.depth), max(self._spread, other._spread)
            if spread + depth >= _HALF:
                raise PackingError(f"spread {spread} at depth {depth} leaves the packing box")
            return a, depth, spread, self._cut(depth), other._cut(depth)
        top = a if (a.xi, a.coeffs) >= (b.xi, b.coeffs) else b
        depth = top.xi - max(self.floor, other.floor)
        spread, stores = 0, []
        for f in (self, other):
            lift, offset = top.xi - f.top.xi, tuple(map(sub, f.top.coeffs, top.coeffs))
            spread = max(spread, f._spread + max(map(abs, offset)) - lift)
            if spread + depth >= _HALF:
                raise PackingError(f"tops {a} and {b} lie too far apart for the packing box")
            store, shift = f._cut(depth - lift), _pack(offset)
            if any(offset):
                store = {d + lift: {k + shift: v for k, v in t.items()} for d, t in store.items()}
            stores.append(store)
        return top, depth, spread, *stores

    def __add__(self, other: "FormalChar") -> "FormalChar":
        if not isinstance(other, FormalChar):
            return NotImplemented
        top, depth, spread, mine, theirs = self._aligned(other)
        out = dict(mine)
        for drop, terms in theirs.items():
            out[drop] = _merged(out[drop], terms) if drop in out else terms
        out = {drop: terms for drop, terms in out.items() if terms}
        return FormalChar._make(self.profile, top, depth, out, spread)

    def scale(self, k: int) -> "FormalChar":
        if k == 1:  # series are immutable, so the unit scale is the series itself
            return self
        out = {d: {t: k * v for t, v in ts.items()} for d, ts in self._levels.items()} if k else {}
        return FormalChar._make(self.profile, self.top, self.depth, out, self._spread)

    def mul(self, other: "FormalChar") -> "FormalChar":
        """Full convolution; valid depth is the smaller of the two.  Offsets
        and drops below the summed top are sums of the factors' ones."""
        if self.profile != other.profile:
            raise ProfileMismatch("cannot multiply characters of different profiles")
        top = self.top + other.top
        depth = min(self.depth, other.depth)
        out: dict = {}
        for da, ta in self._levels.items():
            for db, tb in other._levels.items():
                if da + db <= depth:
                    for ka, va in ta.items():
                        out[da + db] = _merged(out.get(da + db, {}), tb, -ka, va)
        out = {drop: terms for drop, terms in out.items() if terms}
        return FormalChar._make(self.profile, top, depth, out, self._spread + other._spread)

    def mul_unit(self, beta: Root, sign: int = 1) -> "FormalChar":
        """Multiply by (1 + sign * e^{-beta}) for a root beta of positive xi."""
        step, lower = _unit_step(beta)
        out = dict(self._levels)
        for drop, terms in self._levels.items():
            if drop + lower <= self.depth:
                out[drop + lower] = _merged(out.get(drop + lower, {}), terms, step, sign)
        out = {drop: terms for drop, terms in out.items() if terms}
        return FormalChar._make(self.profile, self.top, self.depth, out, self._spread)

    def div_unit(self, beta: Root, sign: int = 1) -> "FormalChar":
        """Divide by (1 + sign * e^{-beta}); exact down to the same floor.

        Solves r_k = f_k - sign * shift_beta(r_{k - xi(beta)}) drop by drop
        from the top down, shift_beta moving each term by -beta.
        """
        step, lower = _unit_step(beta)
        src = self._levels
        out: dict = {}
        for drop in range(min(src, default=self.depth + 1), self.depth + 1):
            above = out.get(drop - lower)
            if above is None:
                if drop in src:
                    out[drop] = src[drop]
                continue
            merged = _merged(src.get(drop, {}), above, step, -sign)
            if merged:
                out[drop] = merged
        return FormalChar._make(self.profile, self.top, self.depth, out, self._spread)

    def retruncate(self, depth: int) -> "FormalChar":
        """Restrict validity; deepening beyond the recorded window, or a
        negative depth, is refused."""
        if depth < 0:
            raise ValueError(_depth_message(depth))
        if depth > self.depth:
            raise DepthError("cannot extend a truncated series to a deeper window")
        return FormalChar._make(self.profile, self.top, depth, self._cut(depth), self._spread)

    # -- comparison and serialization ------------------------------------------

    def equals(self, other: "FormalChar") -> bool:
        """Exact coefficient equality on the common valid window.  With equal
        tops nothing is re-keyed: the stores, cut to that window, are
        compared as they are, level by level, and a shared level dict costs
        one identity check."""
        *_, mine, theirs = self._aligned(other)
        return mine == theirs

    def first_discrepancy(self, other: "FormalChar"):
        """The xi-smallest weight where the two series differ, or None."""
        top, _, _, mine, theirs = self._aligned(other)
        for drop in sorted(mine.keys() | theirs.keys(), reverse=True):
            a, b = mine.get(drop, {}), theirs.get(drop, {})
            for k in sorted(a.keys() | b.keys()):
                if a.get(k, 0) != b.get(k, 0):
                    return (Weight(self.profile, _at(top, k)), a.get(k, 0), b.get(k, 0))
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


def weyl_sum(lam: Weight, depth: int, term) -> FormalChar:
    """sum over the Weyl window of sign(w) term(w.lam, d), on the window
    below lam, where d is the depth left below w.lam; the summands of sign
    -1 are summed apart and negated once."""
    floor = lam.xi - depth
    signed = {1: zero_char(lam.profile, lam, depth), -1: zero_char(lam.profile, lam, depth)}
    for w, nu in weyl_window(lam, depth):
        signed[w.sign] += term(nu, nu.xi - floor)
    return signed[1] + signed.pop(-1).scale(-1)  # popped, so freed once negated


def _kept(store: dict, key, depth: int, build) -> FormalChar:
    """store[key] cut to drops <= depth.

    One series is kept per key, at the deepest depth asked for so far: a
    deeper request replaces it by build(depth), a shallower one is a cut
    of it.  The cut is exact, as each unit step only moves terms down, and
    at the kept depth it is the store itself.  The key is put back last,
    so a store lists its keys least recently used first.
    """
    f = store.pop(key, None)
    if f is None or f.depth < depth:
        f = build(depth)
    store[key] = f
    return f.retruncate(depth)


# profile -> ch M(0) of the distinguished cone, at the deepest depth asked
_VERMA_AT_ZERO: dict = {}


def _verma_at_zero(profile: RankProfile, depth: int) -> FormalChar:
    """prod over odd (1+e^{-beta}) / prod over even (1-e^{-gamma}), top 0,
    kept once per profile."""
    return _kept(_VERMA_AT_ZERO, profile, depth, lambda d: _units(
        monomial(zero_weight(profile), d), odd_positive_roots(profile), even_positive_roots(profile)
    ))


# (m, n, index pairs of Gamma) -> the narrow product at top 0, at the
# deepest depth asked, least recently used first
_NARROW_AT_ZERO: dict = {}


def _narrow_at_zero(profile: RankProfile, atypical: tuple[Root, ...], depth: int) -> FormalChar:
    """prod over odd beta not in Gamma (1+e^{-beta}) / prod over even
    (1-e^{-gamma}), top 0, kept once per atypical set Gamma.

    `atypical` is Gamma as `atypical_roots` returns it, in root order, so
    its index pairs key the store as they come.  The series is built from
    a monomial, never from ch M(0), so that `char_narrow` compares two
    independent series.  A profile's entries together hold no more terms
    than its cached ch M(0): before a new entry is kept, the least
    recently used ones are dropped until it fits.  A lone entry always
    fits, as its support lies in that of ch M(0) at its depth (every
    factor has nonnegative coefficients, and ch M(0) has more of them).
    """
    m, n = profile.m, profile.n
    key = (m, n, tuple((beta.i, beta.j) for beta in atypical))

    def build(d: int) -> FormalChar:
        odd = [beta for beta in odd_positive_roots(profile) if beta not in atypical]
        f = _units(monomial(zero_weight(profile), d), odd, even_positive_roots(profile))
        _verma_at_zero(profile, d)  # the bound: ch M(0) as kept, at depth d or deeper
        room = len(_VERMA_AT_ZERO[profile].coeffs) - len(f.coeffs)
        mine = [k for k in _NARROW_AT_ZERO if k[:2] == (m, n)]
        held = sum(len(_NARROW_AT_ZERO[k].coeffs) for k in mine)
        for k in mine:
            if held <= room:
                break
            held -= len(_NARROW_AT_ZERO.pop(k).coeffs)
        return f

    return _kept(_NARROW_AT_ZERO, key, depth, build)


def char_verma(b, lam: Weight, depth: int = DEFAULT_DEPTH) -> FormalChar:
    """e^lam * prod over odd positives (1+e^{-beta}) / prod (1-e^{-gamma}).

    Wrong-direction odd factors of b are normalized into the cone, which
    shifts the stored top to lam plus the flipped odd roots, that is to
    lam + rho^b - rho, a shift cached once per Borel.  The unit factors do
    not depend on the top, and the store is keyed relative to the top, so
    the character is a new top over the cached store of `_verma_at_zero`:
    no term is touched, and every level dict is shared.
    """
    p = lam.profile
    return FormalChar._make(p, lam + rho_b_shift(b), depth, _verma_at_zero(p, depth)._levels)


def char_even_simple(mu: Weight, depth: int = DEFAULT_DEPTH) -> FormalChar:
    """Weyl's formula for the even subalgebra: the alternating sum of
    e^{w.mu} over the Weyl window, divided once by prod (1-e^{-gamma}).
    `dot_action` is the usual one, as W fixes rho - rho0."""
    # rho steps by one inside each block, so both coefficient blocks of mu
    # weakly decrease exactly when its coordinates are strictly ordered
    flags = classify(mu)
    if not (flags.regular and flags.dominant):
        raise ValueError(f"{mu} is not dominant for the even subalgebra")
    return _units(weyl_sum(mu, depth, monomial), even=even_positive_roots(mu.profile))


def char_kac(mu: Weight, depth: int = DEFAULT_DEPTH) -> FormalChar:
    """Even simple character tensored with the odd exterior algebra."""
    return _units(char_even_simple(mu, depth), odd_positive_roots(mu.profile))


def char_narrow(lam: Weight, depth: int = DEFAULT_DEPTH, warn: bool = True) -> FormalChar:
    """Verma character with the atypical odd unit factors divided out.

    Computed twice and cross-asserted: as the quotient of the cached
    Verma series by the atypical factors, made fresh on every call, and as
    the product over the non-atypical odd roots, a new top lam over the
    series `_narrow_at_zero` keeps for Gamma(lam), which was built from a
    monomial.  Both forms read one Gamma(lam), the tuple of
    `atypical_roots(lam)` in root order.  So every call checks the Verma
    store against an independent series.  The closed formula is only
    established for g_{-1}-generic weights; other inputs are served with a
    warning.
    """
    p = lam.profile
    if warn and not diagrams.is_g1_generic(lam):
        warnings.warn(
            f"{lam} is not g_-1-generic; the narrow character formula is unproven here",
            stacklevel=2,
        )
    atypical = atypical_roots(lam)
    quotient = _units(char_verma(distinguished(p), lam, depth), atypical=atypical)
    product = FormalChar._make(p, lam, depth, _narrow_at_zero(p, atypical, depth)._levels)
    if not quotient.equals(product):
        raise ConsistencyError("narrow character: quotient and product forms disagree")
    return product


def char_simple_td(lam: Weight, depth: int = DEFAULT_DEPTH) -> FormalChar:
    """Finite Weyl-type character of the simple module at a totally
    disconnected regular dominant lam, on the window below lam, in its
    closed prefactor form ch M(0) * sum over w of sign(w) e^{w.lam} / prod
    over Gamma(w.lam) (1+e^{-beta}).

    Gamma(w.lam) = w(Gamma(lam)), as W only permutes the odd roots; a
    Weyl-independent denominator fails against the exact rank computations
    of the narrow submodules.  Each summand divides by the tuple
    `atypical_roots(w.lam)` as it comes, in root order.  The ch M(0) unit
    factors are applied once to the whole inner `weyl_sum` (unit factors
    commute, and both are exact on the window).
    Top coefficient 1 and nonnegativity are checked here; the equality with
    the narrow resolution's Euler characteristic is `bggcheck.euler_check`.
    """
    p = lam.profile
    flags = classify(lam)
    if not (flags.regular and flags.dominant):
        raise ValueError(f"{lam} must be regular dominant")
    if not diagrams.is_totally_disconnected(lam):
        raise ValueError(f"{lam} is not totally disconnected")
    inner = weyl_sum(lam, depth, lambda nu, d: _units(monomial(nu, d), atypical=atypical_roots(nu)))
    chi = _units(inner, odd_positive_roots(p), even_positive_roots(p))
    if chi.coeff(lam) != 1:
        raise ConsistencyError("simple character is not normalized at its top weight")
    if min(chi.coeffs.values(), default=0) < 0:
        raise ConsistencyError("simple character has a negative coefficient")
    return chi
