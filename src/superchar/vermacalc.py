"""PBW-level calculus inside Verma modules of gl(m|n).

Basis elements of the superalgebra are index pairs (i, j) standing for
the elementary matrix E_ij of weight eps_i - eps_j.  A Verma module
for a Borel b is spanned by ordered monomials in the b-negative root
vectors applied to the highest weight vector: even factors first (lex
by index pair), then odd factors (lex), odd exponents at most one.
The order is a normalization choice only; every check downstream is
rank-based, never coefficient-literal.

A monomial is one non-negative int: slot k's exponent is a 16-bit
digit, slot 0 the most significant (`VermaModule.pack` and `unpack`).
Numeric order is then lexicographic exponent order, the leading slot is
read off the bit length, and multiplying by or dividing out one factor
is one addition or subtraction of the slot's unit.  An exponent that
would reach 2^16 raises `EnumerationBound` before a digit can carry:
in `pack`, in the level walk and in the direct product of `act_basis`.

Generator action straightens words against the highest-weight
relations: raising vectors die on the highest vector, Cartan elements
act by the weight, and out-of-order products are rewritten with the
supercommutator, read from one table per Borel keyed by (generator,
leading slot).  Every coefficient is an integer: the straightening, the
elements it produces and the row reduction of their coordinates use no
rationals, and each cached straightening is a dict of ints, which the
cyclic garbage collector does not track.

A weight space is read from its level: the monomials at one xi-drop
below the highest weight, bucketed by weight.  A module walks each of
its levels once, odd part then even part (see `_walk_level`).

An element's weight is read off its first monomial.  Homogeneity is
checked at the boundary: by `VermaModule.element`, and by `coordinates`,
which every element passes before it reaches a row basis.  Every Verma
vector the package names is built here, in the module it is given:
`singular_vector_even` lowers the highest vector, and `e_g1_apply` applies
the odd product.
A submodule generated by a vector that the distinguished raisers kill is
the image of a distinguished Verma module, so its ranks come from one
memoised `apply` per source PBW monomial, whose weight is known before
it straightens.  No structure on this path refers back to itself, so
the modules, memos and caches a call builds are freed when it returns.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from functools import lru_cache
from operator import sub

from .borels import BorelElt, antidistinguished, distinguished
from .linalg import RowBasis, matrix_rank
from .rootdata import (
    ConsistencyError,
    EnumerationBound,
    ProfileMismatch,
    RankProfile,
    Root,
    Weight,
    dot_action,
    even_positive_roots,
    odd_positive_roots,
    pairing,
    reflection,
    rho_b,
    rho1_doubled_distinguished,
)

DEFAULT_MAX_CELLS = 250_000
DIGIT_BITS = 16  # bits per PBW exponent in a packed monomial
DIGIT_MASK = (1 << DIGIT_BITS) - 1


def pair_parity(profile: RankProfile, pair: tuple[int, int]) -> int:
    return profile.index_parity(pair[0]) ^ profile.index_parity(pair[1])


def supercommutator(profile: RankProfile, x: tuple[int, int], y: tuple[int, int]):
    """[E_ij, E_kl] = d_jk E_il - (-1)^{|x||y|} d_li E_kj as (coeff, pair) terms."""
    (i, j), (k, l) = x, y
    sign = -1 if pair_parity(profile, x) and pair_parity(profile, y) else 1
    terms: dict = {}
    if j == k:
        terms[(i, l)] = terms.get((i, l), 0) + 1
    if l == i:
        terms[(k, j)] = terms.get((k, j), 0) - sign
    return [(c, p) for p, c in terms.items() if c]


# ---------------------------------------------------------------------------
# Verma modules


@lru_cache(maxsize=None)
def _straightening_rules(borel: BorelElt) -> dict:
    """(generator x, slot t) -> (z, [x, z] as (coeff, pair) terms, sign):
    what commuting x past the lowering vector z of slot t leaves, and the
    sign of the swap.  It depends on the Borel alone, so every Verma module
    of the Borel fills and reads one table, kept like the Borel's views."""
    return {}


class VermaModule:
    """M^b(lam) with its canonical PBW monomial basis."""

    def __init__(self, borel: BorelElt, highest_weight: Weight):
        if borel.profile != highest_weight.profile:
            raise ProfileMismatch("Borel and highest weight profiles differ")
        self.borel = borel
        self.lam = highest_weight
        self.profile = borel.profile
        positives = sorted(borel.positive_roots(), key=lambda r: (r.is_odd, r.j, r.i))
        # lowering vector for the positive root eps_a - eps_c is E_ca;
        # sorting above is lex on those pairs, even block first
        self.neg_pairs: tuple[tuple[int, int], ...] = tuple((r.j, r.i) for r in positives)
        self.neg_parity: tuple[bool, ...] = tuple(r.is_odd for r in positives)
        self.neg_index = {p: k for k, p in enumerate(self.neg_pairs)}
        self.zero_mono = 0
        # slot k's exponent is the digit at _shifts[k]; _units[k] is one factor there
        slots = len(positives)
        self._bits = DIGIT_BITS * slots
        self._shifts = tuple(DIGIT_BITS * (slots - 1 - k) for k in range(slots))
        self._units = tuple(1 << s for s in self._shifts)
        # per slot: coefficient indices the lowering vector moves, its xi-step,
        # and refund[k], the most xi the slots from k on can give back (only
        # odd roots of a non-distinguished Borel have a negative step)
        xi = self.profile.xi
        self._ends = tuple((r.i - 1, r.j - 1) for r in positives)
        self._steps = tuple(xi[i] - xi[j] for i, j in self._ends)
        refund = [0]
        for step in reversed(self._steps):
            refund.append(refund[-1] + max(0, -step))
        self._refund = tuple(reversed(refund))
        self._act_cache: dict = {}  # generator -> {monomial: {monomial: coefficient}}
        self._rules = _straightening_rules(borel)
        self._levels: dict = {}
        self._indices: dict = {}  # weight coefficients -> {monomial: index in its weight space}

    # -- monomials ---------------------------------------------------------

    def pack(self, exps) -> int:
        """The monomial with these PBW exponents, one per slot."""
        if len(exps) != len(self._units):
            raise ValueError(f"{len(exps)} exponents for {len(self._units)} slots")
        mono = 0
        for exp in exps:
            if exp < 0:
                raise ValueError(f"negative exponent {exp}")
            if exp > DIGIT_MASK:
                raise EnumerationBound(f"PBW exponent {exp} does not fit {DIGIT_BITS} bits")
            mono = mono << DIGIT_BITS | exp
        return mono

    def unpack(self, mono: int) -> tuple[int, ...]:
        """The PBW exponents of a monomial, one per slot."""
        return tuple([mono >> s & DIGIT_MASK for s in self._shifts])

    def _leading_slot(self, mono: int) -> int:
        """The first slot with a nonzero exponent; the slot count for the highest vector."""
        return (self._bits - mono.bit_length()) // DIGIT_BITS

    def _mono_coeffs(self, mono) -> tuple[int, ...]:
        out = list(self.lam.coeffs)
        for exp, (i, j) in zip(self.unpack(mono), self._ends):
            if exp:
                out[i] -= exp
                out[j] += exp
        return tuple(out)

    def mono_weight(self, mono) -> Weight:
        return Weight(self.profile, self._mono_coeffs(mono))

    def highest_vector(self) -> "VermaElement":
        return VermaElement(self, {self.zero_mono: 1})

    def element(self, terms: dict) -> "VermaElement":
        """The combination of one weight's monomials, packed ints as `pack`
        makes them, with the given integer coefficients."""
        for c in terms.values():
            if not isinstance(c, int):
                raise TypeError(f"coefficient {c!r} is not an integer")
        if len({self._mono_coeffs(m) for m, c in terms.items() if c}) > 1:
            raise ValueError("inhomogeneous combination of monomials")
        return VermaElement(self, terms)

    def lowered(self, alpha: Root, k: int) -> "VermaElement":
        """E_{-alpha}^k v: the lowering vector of the even positive root
        alpha, to the k-th power, applied to the highest vector."""
        exps = [0] * len(self._units)
        exps[self.neg_index[(alpha.j, alpha.i)]] = k
        return self.element({self.pack(exps): 1})

    # -- straightening -------------------------------------------------------

    def act_basis(self, x: tuple[int, int], mono: int) -> dict:
        """x . (mono . v) as a map mono -> integer coefficient.

        Every straightening is kept in the generator's cache; a direct
        product is formed afresh each time, faster than an entry is kept."""
        t = self._leading_slot(mono)
        idx = self.neg_index.get(x)
        if idx is not None and idx <= t:
            # x already sits at or before the leading slot: direct product
            if idx == t:
                if self.neg_parity[t]:
                    return {}  # odd square vanishes
                if mono >> self._shifts[t] == DIGIT_MASK:
                    raise EnumerationBound(f"PBW exponent 2^{DIGIT_BITS} in slot {t}")
            return {mono + self._units[idx]: 1}
        cache = self._act_cache.get(x)
        if cache is None:
            cache = self._act_cache[x] = {}
        hit = cache.get(mono)
        if hit is None:
            hit = cache[mono] = self._straighten(x, t, mono)
        return hit

    def _straighten(self, x, t, mono):
        """x . (mono . v) for a generator x that is not a direct product
        factor at mono's leading slot t."""
        if x[0] == x[1]:  # Cartan: diagonal on weight vectors
            scalar = self._mono_coeffs(mono)[x[0] - 1]
            return {mono: scalar} if scalar else {}
        if t == len(self._units):  # a raiser kills the highest vector
            return {}
        # commute x past the leading factor z
        rule = self._rules.get((x, t))
        if rule is None:
            z = self.neg_pairs[t]
            sign = -1 if pair_parity(self.profile, x) and self.neg_parity[t] else 1
            rule = self._rules[x, t] = (z, supercommutator(self.profile, x, z), sign)
        z, brackets, sign = rule
        rest = mono - self._units[t]
        out: dict = {}
        for coeff, y in brackets:
            for m2, c2 in self.act_basis(y, rest).items():
                out[m2] = out.get(m2, 0) + coeff * c2
        for m2, c2 in self.act_basis(x, rest).items():
            for m3, c3 in self.act_basis(z, m2).items():
                out[m3] = out.get(m3, 0) + sign * c2 * c3
        return {m: c for m, c in out.items() if c}

    def apply(self, x: tuple[int, int], elem: "VermaElement") -> "VermaElement":
        if elem.module is not self:
            raise ValueError("element belongs to a different module")
        out: dict = {}
        for mono, coeff in elem.terms.items():
            for m2, c2 in self.act_basis(x, mono).items():
                out[m2] = out.get(m2, 0) + coeff * c2
        return VermaElement(self, out)

    def apply_word(self, pairs, elem: "VermaElement") -> "VermaElement":
        """Apply a product of basis vectors, rightmost factor first."""
        for x in reversed(list(pairs)):
            elem = self.apply(x, elem)
        return elem

    # -- weight spaces ---------------------------------------------------------

    def weight_space_monomials(self, nu: Weight) -> tuple:
        """All monomials of weight nu, in increasing order, which is
        lexicographic exponent order.

        Read from nu's bucket at its xi level: the first request at a level
        walks the whole level once and buckets it by weight, and every later
        request there, at any weight, is a lookup."""
        if nu.profile != self.profile:
            raise ProfileMismatch(f"profile mismatch: {self.profile} vs {nu.profile}")
        return self._level(self.lam.xi - nu.xi).get(nu.coeffs, ())

    def _level(self, drop: int) -> dict:
        """{weight coefficients: monomials} at xi-drop exactly `drop`, walked once."""
        level = self._levels.get(drop)
        if level is None:
            level = self._levels[drop] = self._walk_level(drop)
        return level

    def _walk_level(self, drop: int) -> dict:
        """{weight coefficients: monomials} at xi-drop exactly `drop`, each
        bucket in increasing order, the buckets in the order of their first
        monomials.

        PBW order puts the even slots first, so a monomial is an even part
        plus an odd 0/1 part, in disjoint digits: its xi-drop is the sum of
        the two parts' drops, and its weight is lam minus the roots of both.
        The odd parts are grown slot by slot, a branch stopping once its
        xi-sum, lowered by every negative step still to come, exceeds `drop`
        (only odd roots of a non-distinguished Borel have a negative step).
        Each odd part leaves the even part a budget of `drop` minus its sum.
        Every even step is positive, so one odometer walk of the even slots
        in increasing order, up to the largest budget, finds every even part
        of every budget.  Each even part is joined to the odd parts of its
        budget, bucketed by the sum of their weight changes, and each bucket
        is sorted.
        """
        steps, refund, units = self._steps, self._refund, self._units
        first_odd, last = self.neg_parity.count(False), len(steps)
        # a factor's change of the weight coefficients as one int, coefficient
        # c's change the signed digit at bit width * c: below 2^16 per slot,
        # no change reaches half a digit, so equal ints are equal weights
        width = DIGIT_BITS + 1 + last.bit_length()
        moves = [(1 << width * j) - (1 << width * i) for i, j in self._ends]

        # (xi spent, odd part, its weight change), one slot at a time
        grown = [(0, 0, 0)] if 0 <= drop + refund[first_odd] else []
        for k in range(first_odd, last):
            step, unit, move, room = steps[k], units[k], moves[k], drop + refund[k + 1]
            odds, grown = grown, []
            for spent, part, moved in odds:
                if spent <= room:
                    grown.append((spent, part, moved))
                if spent + step <= room:
                    grown.append((spent + step, part + unit, moved + move))
        if not grown:
            return {}
        odd_parts: dict = {}  # budget -> [(odd part, its weight change)]
        for spent, part, moved in grown:
            odd_parts.setdefault(drop - spent, []).append((part, moved))

        # every even part whose xi-drop is a budget some odd part leaves, by budget
        even_parts: dict = {budget: [] for budget in odd_parts}
        most = max(odd_parts)
        if first_odd and most // min(steps[:first_odd]) > DIGIT_MASK:
            raise EnumerationBound(f"level {drop} needs a PBW exponent of 2^{DIGIT_BITS}")
        counts = [0] * first_odd
        used = part = moved = 0
        while True:
            parts = even_parts.get(used)
            if parts is not None:
                parts.append((part, moved))
            # the next even part: one more factor in the last slot with room,
            # every slot after it emptied
            k = first_odd - 1
            while k >= 0 and used + steps[k] > most:
                count = counts[k]
                if count:
                    used -= count * steps[k]
                    part -= count * units[k]
                    moved -= count * moves[k]
                    counts[k] = 0
                k -= 1
            if k < 0:
                break
            counts[k] += 1
            used += steps[k]
            part += units[k]
            moved += moves[k]

        buckets: dict = {}
        for budget, odds in odd_parts.items():
            for even_part, even_moved in even_parts[budget]:
                for odd_part, odd_moved in odds:
                    buckets.setdefault(even_moved + odd_moved, []).append(even_part + odd_part)
        level = {}
        for monos in sorted(buckets.values(), key=min):
            monos.sort()
            level[self._mono_coeffs(monos[0])] = tuple(monos)
        return level

    def coordinates(self, elem: "VermaElement", nu: Weight):
        """elem over nu's weight-space basis; a term of another weight is a ConsistencyError.

        The index of each weight space is built once and kept by its
        coefficients, so the profile is checked first."""
        if nu.profile != self.profile:
            raise ProfileMismatch(f"profile mismatch: {self.profile} vs {nu.profile}")
        index = self._indices.get(nu.coeffs)
        if index is None:
            monos = self.weight_space_monomials(nu)
            index = self._indices[nu.coeffs] = {m: k for k, m in enumerate(monos)}
        vec = [0] * len(index)
        for mono, coeff in elem.terms.items():
            k = index.get(mono)
            if k is None:
                raise ConsistencyError(
                    f"monomial {self.unpack(mono)} is not in the weight space of {nu}"
                )
            vec[k] = coeff
        return vec

    def __repr__(self):
        return f"VermaModule({self.borel}, {self.lam})"


class VermaElement:
    """Homogeneous element: sparse integer combination of one weight's monomials.

    The constructor only drops zeros; homogeneity is checked at the boundary."""

    __slots__ = ("module", "terms")

    def __init__(self, module: VermaModule, terms: dict):
        self.module = module
        self.terms = {m: c for m, c in terms.items() if c}

    @property
    def weight(self) -> Weight | None:
        """The weight of the first monomial, None for zero."""
        mono = next(iter(self.terms), None)
        return None if mono is None else self.module.mono_weight(mono)

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        unpack = self.module.unpack
        parts = [f"{c}*{unpack(m)}" for m, c in sorted(self.terms.items())]
        return f"VermaElement({' + '.join(parts) or '0'})"


# ---------------------------------------------------------------------------
# Public operations


def coroot_pairing(shifted: Weight, alpha: Root) -> int:
    """<mu, alpha^vee> = 2 (mu, alpha) / (alpha, alpha) for an even root."""
    if alpha.is_odd:
        raise ValueError("coroot pairing needs a non-isotropic root")
    value = pairing(shifted, alpha.as_weight())
    norm = pairing(alpha.as_weight(), alpha.as_weight())  # +-2 in each block
    return 2 * value // norm


def singular_vector_even(module: VermaModule, alpha: Root) -> VermaElement:
    """E_{-alpha}^k v in M^b(lam) for k = <lam + rho^b, alpha^vee>, a
    positive integer.

    The result is checked, not trusted: every simple raising generator of
    the Borel must annihilate it, and its weight must be s_alpha .b lam.
    """
    borel, lam = module.borel, module.lam
    if alpha not in borel.simple_roots() or alpha.is_odd:
        raise ValueError(f"{alpha} is not an even simple root of {borel}")
    k = coroot_pairing(lam + rho_b(borel), alpha)
    if k <= 0:
        raise ValueError(f"coroot pairing is {k}, not a positive integer")
    vec = module.lowered(alpha, k)
    for simple in borel.simple_roots():
        image = module.apply((simple.i, simple.j), vec)
        if not image.is_zero():
            raise ConsistencyError(f"singular vector not annihilated by {simple}")
    expected = dot_action(reflection(alpha), lam, borel)
    if vec.weight != expected:
        raise ConsistencyError(f"singular vector has weight {vec.weight}, not {expected}")
    return vec


def primitive_space_dim(
    module: VermaModule,
    target_weight: Weight,
    annihilating_borel: BorelElt | None = None,
) -> int:
    """Dimension of the vectors of the module at target_weight killed by a
    Borel's raisers, the module's own Borel when none is given.

    Equals the dimension of homomorphisms from the Verma at target_weight
    (for the annihilating Borel) into the module.
    """
    if annihilating_borel is None:
        annihilating_borel = module.borel
    monos = module.weight_space_monomials(target_weight)
    if not monos:
        return 0
    rows = []
    for simple in annihilating_borel.simple_roots():
        x = (simple.i, simple.j)
        up = target_weight + simple.as_weight()
        up_monos = module.weight_space_monomials(up)
        # one constraint row per up-monomial: entries over the target basis
        cols = [module.act_basis(x, m) for m in monos]
        for um in up_monos:
            rows.append([c.get(um, 0) for c in cols])
    if not rows:
        return len(monos)
    return len(monos) - matrix_rank(rows)


# ---------------------------------------------------------------------------
# The odd-product generator of the narrow submodule


def antidistinguished_module(lam: Weight) -> VermaModule:
    """M^{(n^m)}(lam - 2 rho1), the ambient of the narrow submodule at lam."""
    p = lam.profile
    return VermaModule(antidistinguished(p), lam - rho1_doubled_distinguished(p))


def e_g1_apply(module: VermaModule, vec: VermaElement) -> VermaElement:
    """X vec: the product X of all distinguished-positive odd root vectors,
    applied to vec.  The result must be nonzero, of weight vec.weight +
    2 rho1, or ConsistencyError is raised.  On the highest vector v of
    `antidistinguished_module(lam)`, X v is a single monomial of weight lam.

    The order of the factors matters only up to sign.  Each factor is
    E_{i,a} with i <= m < a, and
    [E_{i,a}, E_{k,b}] = d_{ak} E_{i,b} + d_{bi} E_{k,a} = 0 as a, b > m >= i, k:
    g_{+1} of the distinguished Borel is abelian, so the factors
    anticommute and each squares to zero.  Reordering X changes it only
    by the sign of the permutation, and X X = 0.

    X commutes with every even lowering vector f = E_{j,i} (i < j in one
    block).  ad f sends each factor to 0 or to plus or minus another
    factor: [E_{j,i}, E_{i,a}] = E_{j,a} on the eps block, and
    [E_{j,i}, E_{k,j}] = -E_{k,i} on the delta block.  So each term of
    [f, X] repeats a factor and vanishes, and f^k X v = X f^k v exactly:
    the even embedding and the odd product give one canonical map.
    """
    p = module.profile
    out = module.apply_word([(beta.i, beta.j) for beta in odd_positive_roots(p)], vec)
    if out.is_zero() or out.weight != vec.weight + rho1_doubled_distinguished(p):
        raise ConsistencyError(f"odd product of {vec} is {out}, not nonzero of weight + 2 rho1")
    return out


# ---------------------------------------------------------------------------
# Verma images and narrow-module weight ranks


def max_cells_from_env() -> int:
    """The cell bound from SUPERCHAR_MAX_CELLS, or the default when unset;
    anything but a positive integer is a ValueError."""
    env = os.environ.get("SUPERCHAR_MAX_CELLS")
    if not env:
        return DEFAULT_MAX_CELLS
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"SUPERCHAR_MAX_CELLS must be a positive integer, got {env!r}")
    return value


def cone_weights_below(top: Weight, depth: int) -> Iterator[Weight]:
    """Weights top - (nonnegative span of the distinguished positive roots)
    within the xi-window, yielded shallow to deep and in coefficient order
    within each xi-drop; none for a negative depth.

    Lazy, one level at a time: the weights at drop d are those at drop
    d - xi(r) lowered by a positive root r, so only the last max xi(r)
    levels are held, and a caller that stops early lists no deeper level."""
    p = top.profile
    roots = [r.as_weight() for r in even_positive_roots(p) + odd_positive_roots(p)]
    roots = [(r.coeffs, r.xi) for r in roots]
    span = max(step for _, step in roots)
    levels = {0: [top.coeffs]}
    for drop in range(depth + 1):
        if drop:
            levels[drop] = sorted(
                {tuple(map(sub, w, r)) for r, step in roots for w in levels.get(drop - step, ())}
            )
            levels.pop(drop - span - 1, None)
        for w in levels[drop]:
            yield Weight(p, w)


def submodule_weight_ranks(
    module: VermaModule, seeds, top: Weight, depth: int
) -> dict[Weight, int]:
    """Per-weight dimensions of the submodule generated by the seeds,
    restricted to the xi-window below `top`, in the order
    `cone_weights_below` yields the weights: xi-drop ascending, then
    coefficient order within a drop.

    Before the seeds, any iterable of elements, are drawn, the window's
    cell count is checked against the bound that `max_cells_from_env`
    reads from SUPERCHAR_MAX_CELLS on every call.

    Every seed must be singular for the distinguished Borel: each of its
    simple raisers kills the seed, or ConsistencyError is raised.  Those
    raisers generate n+, so U(g).seed = U(n-)U(h)U(n+).seed = U(n-).seed,
    the image of the Verma module M^dist(mu) -> module, v -> seed, at the
    seed's weight mu (Kac, LNM 676, 1978).  Its rank at nu is the rank of
    the images of M^dist(mu)'s PBW monomials of weight nu.  The source
    levels are walked shallow to deep, and a monomial's image is one
    `apply` of its leading lowering vector to the image of the monomial
    with that factor removed, memoised; a zero image stays zero for every
    monomial that extends it.  A weight whose row basis is full takes no
    further images, and a source weight outside the cone below `top`, whose
    rank is not asked for, takes none.  A seed outside the window
    contributes nothing.
    """
    p = module.profile
    floor = top.xi - depth
    max_cells = max_cells_from_env()
    bases: dict = {}  # weight coefficients -> (weight, row basis of the images there)
    total_cells = 0
    for nu in cone_weights_below(top, depth):
        width = len(module.weight_space_monomials(nu))
        total_cells += width
        if total_cells > max_cells:
            raise EnumerationBound(
                f"window holds more than {max_cells} basis cells; "
                "raise SUPERCHAR_MAX_CELLS to proceed"
            )
        bases[nu.coeffs] = (nu, RowBasis(width))
    dist = distinguished(p)
    raisers = [(r.i, r.j) for r in dist.simple_roots()]
    for seed in seeds:
        if seed.is_zero():
            continue
        mu = seed.weight
        if any(not module.apply(x, seed).is_zero() for x in raisers):
            raise ConsistencyError(f"seed of weight {mu} is not singular for {dist}")
        if not floor <= mu.xi <= top.xi:
            continue
        source = VermaModule(dist, mu)
        images = {source.zero_mono: seed}
        for drop in range(mu.xi - floor + 1):
            for coeffs, monos in source._level(drop).items():
                entry = bases.get(coeffs)
                if entry is None:  # outside the cone below top: no rank is asked for
                    continue
                nu, basis = entry
                for mono in monos:
                    if basis.rank == basis.width:
                        break
                    img = _verma_image(module, source, images, mono)
                    if not img.is_zero():
                        basis.insert(module.coordinates(img, nu))
    return {nu: basis.rank for nu, basis in bases.values()}


def _verma_image(module: VermaModule, source: VermaModule, images: dict, mono: int):
    """The image in module of the source monomial: its leading lowering
    vector applied to the image of the monomial with that factor removed.
    Every image on the way is memoised in `images`, which holds the image
    of the source's highest vector."""
    chain = []
    img = images.get(mono)
    while img is None:
        t = source._leading_slot(mono)
        chain.append((mono, source.neg_pairs[t]))
        mono -= source._units[t]
        img = images.get(mono)
    for mono, x in reversed(chain):
        if not img.is_zero():
            img = module.apply(x, img)
        images[mono] = img
    return img


def narrow_image_dims(lam: Weight, depth: int) -> dict[Weight, int]:
    """Weight-space dimensions of the submodule generated by the odd product
    vector inside the anti-distinguished Verma module, on the window below lam."""
    module = antidistinguished_module(lam)
    # a lazy seed: the window's cell bound is checked before it is built
    seeds = map(e_g1_apply, [module], [module.highest_vector()])
    return submodule_weight_ranks(module, seeds, lam, depth)
