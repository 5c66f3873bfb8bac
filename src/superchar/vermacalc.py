"""PBW-level calculus inside Verma modules of gl(m|n).

Basis elements of the superalgebra are index pairs (i, j) standing for
the elementary matrix E_ij of weight eps_i - eps_j.  A Verma module
for a Borel b is spanned by ordered monomials in the b-negative root
vectors applied to the highest weight vector: even factors first (lex
by index pair), then odd factors (lex), odd exponents at most one.
The order is a normalization choice only; every check downstream is
rank- or proportionality-based, never coefficient-literal.

Generator action straightens words against the highest-weight
relations: raising vectors die on the highest vector, Cartan elements
act by the weight, and out-of-order products are rewritten with the
supercommutator.  All arithmetic is exact (integers inside the
straightening, rationals in the linear algebra).
"""

from __future__ import annotations

import os
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .borels import BorelElt, antidistinguished
from .linalg import RowBasis, matrix_rank
from .rootdata import (
    ConsistencyError,
    EnumerationBound,
    ProfileMismatch,
    RankProfile,
    Root,
    Weight,
    WeylElt,
    dot_action,
    even_positive_roots,
    odd_positive_roots,
    pairing,
    reflection,
    rho,
    rho_b,
    rho1_doubled_distinguished,
)

DEFAULT_MAX_CELLS = 250_000


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


def matrix_of(profile: RankProfile, pair) -> list[list[int]]:
    d = profile.dim
    out = [[0] * d for _ in range(d)]
    out[pair[0] - 1][pair[1] - 1] = 1
    return out


def supercommutator_matrix_oracle(profile, x, y) -> dict:
    """AB - (-1)^{|x||y|} BA, returned as a pair -> coefficient map."""
    d = profile.dim
    a, b = matrix_of(profile, x), matrix_of(profile, y)
    sign = -1 if pair_parity(profile, x) and pair_parity(profile, y) else 1

    def mul(u, v):
        return [
            [sum(u[r][t] * v[t][c] for t in range(d)) for c in range(d)]
            for r in range(d)
        ]

    ab, ba = mul(a, b), mul(b, a)
    out = {}
    for r in range(d):
        for c in range(d):
            val = ab[r][c] - sign * ba[r][c]
            if val:
                out[(r + 1, c + 1)] = val
    return out


# ---------------------------------------------------------------------------
# Verma modules


@dataclass(frozen=True)
class PBWMonomial:
    """Readable view of one basis monomial: exponents over the b-positive
    roots whose lowering vectors build it, in the module's fixed order."""

    borel: BorelElt
    roots: tuple[Root, ...]
    exponents: tuple[int, ...]
    weight: Weight

    def as_dict(self) -> dict:
        return {r: e for r, e in zip(self.roots, self.exponents) if e}

    @property
    def length(self) -> int:
        return sum(self.exponents)


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
        self.pbw_roots: tuple[Root, ...] = tuple(positives)
        self.neg_pairs: tuple[tuple[int, int], ...] = tuple((r.j, r.i) for r in positives)
        self.neg_parity: tuple[bool, ...] = tuple(r.is_odd for r in positives)
        self.neg_index = {p: k for k, p in enumerate(self.neg_pairs)}
        self.raising_pairs = frozenset((r.i, r.j) for r in positives)
        self.zero_mono = (0,) * len(self.neg_pairs)
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
        self._act_cache: dict = {}
        self._space_cache: dict = {}

    # -- monomials ---------------------------------------------------------

    def _mono_coeffs(self, mono) -> tuple[int, ...]:
        out = list(self.lam.coeffs)
        for exp, (i, j) in zip(mono, self._ends):
            if exp:
                out[i] -= exp
                out[j] += exp
        return tuple(out)

    def mono_weight(self, mono) -> Weight:
        return Weight(self.profile, self._mono_coeffs(mono))

    def describe(self, mono) -> PBWMonomial:
        return PBWMonomial(self.borel, self.pbw_roots, tuple(mono), self.mono_weight(mono))

    def highest_vector(self) -> "VermaElement":
        return VermaElement(self, {self.zero_mono: Fraction(1)})

    def element(self, terms: dict) -> "VermaElement":
        return VermaElement(self, {m: Fraction(c) for m, c in terms.items()})

    def zero(self) -> "VermaElement":
        return VermaElement(self, {})

    # -- straightening -------------------------------------------------------

    def act_basis(self, x: tuple[int, int], mono) -> dict:
        """x . (mono . v) as a map mono -> integer coefficient."""
        if x[0] == x[1]:  # Cartan: diagonal on weight vectors
            scalar = self._mono_coeffs(mono)[x[0] - 1]
            return {mono: scalar} if scalar else {}
        key = (x, mono)
        hit = self._act_cache.get(key)
        if hit is not None:
            return hit
        result = self._act_basis_uncached(x, mono)
        self._act_cache[key] = result
        return result

    def _act_basis_uncached(self, x, mono):
        t = next((k for k, e in enumerate(mono) if e), None)
        if t is None:  # highest weight vector
            if x in self.raising_pairs:
                return {}
            idx = self.neg_index[x]
            new = list(mono)
            new[idx] = 1
            return {tuple(new): 1}
        idx = self.neg_index.get(x)
        if idx is not None and idx <= t:
            # x already sits at or before the leading slot: direct product
            if idx == t and self.neg_parity[t]:
                return {}  # odd square vanishes
            new = list(mono)
            new[idx] += 1
            return {tuple(new): 1}
        # commute x past the leading factor z
        z = self.neg_pairs[t]
        rest = list(mono)
        rest[t] -= 1
        rest = tuple(rest)
        out: dict = {}
        for coeff, y in supercommutator(self.profile, x, z):
            for m2, c2 in self.act_basis(y, rest).items():
                out[m2] = out.get(m2, 0) + coeff * c2
        sign = -1 if pair_parity(self.profile, x) and self.neg_parity[t] else 1
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
                val = out.get(m2, Fraction(0)) + coeff * c2
                if val:
                    out[m2] = val
                elif m2 in out:
                    del out[m2]
        return VermaElement(self, out)

    def apply_word(self, pairs, elem: "VermaElement") -> "VermaElement":
        """Apply a product of basis vectors, rightmost factor first."""
        for x in reversed(list(pairs)):
            elem = self.apply(x, elem)
        return elem

    # -- weight spaces ---------------------------------------------------------

    def weight_space_monomials(self, nu: Weight) -> tuple:
        """All monomials of weight nu, in lexicographic exponent order.

        Found by a depth-first walk over the slots, pruned by the xi budget."""
        if nu in self._space_cache:
            return self._space_cache[nu]
        target = self.lam - nu
        result = tuple(sorted(self._monomials(target.xi, target.coeffs)))
        self._space_cache[nu] = result
        return result

    def _monomials(self, drop: int, target=None) -> list:
        """Exponent tuples whose xi-drop below lam is at most `drop`; with
        `target` (the coefficients of lam - nu), exactly those of weight nu.

        Walks the slots in PBW order, odd exponents 0 or 1 and even ones up
        to what the budget allows, and stops a branch once the odd slots
        still to come cannot refund the xi it has overspent."""
        ends, steps, refund, odd = self._ends, self._steps, self._refund, self.neg_parity
        last = len(steps)
        remaining = list(target) if target is not None else [0] * self.profile.dim
        mono = [0] * last
        found = []

        def walk(k, left):
            if left + refund[k] < 0:
                return
            if k == last:
                if target is None or not any(remaining):
                    found.append(tuple(mono))
                return
            step = steps[k]
            top = 1 if odd[k] else (left + refund[k + 1]) // step
            i, j = ends[k]
            for count in range(top + 1):
                mono[k] = count
                walk(k + 1, left - count * step)
                remaining[i] -= 1
                remaining[j] += 1
            mono[k] = 0
            remaining[i] += top + 1
            remaining[j] -= top + 1

        walk(0, drop)
        return found

    def coordinates(self, elem: "VermaElement", nu: Weight):
        monos = self.weight_space_monomials(nu)
        index = {m: k for k, m in enumerate(monos)}
        vec = [Fraction(0)] * len(monos)
        for mono, coeff in elem.terms.items():
            vec[index[mono]] = coeff
        return vec

    def __repr__(self):
        return f"VermaModule({self.borel}, {self.lam})"


class VermaElement:
    """Homogeneous element: sparse rational combination of one weight's monomials."""

    __slots__ = ("module", "terms", "weight")

    def __init__(self, module: VermaModule, terms: dict):
        self.module = module
        self.terms = {m: Fraction(c) for m, c in terms.items() if c}
        coeffs = {module._mono_coeffs(m) for m in self.terms}
        if len(coeffs) > 1:
            raise ValueError("inhomogeneous combination of monomials")
        self.weight = Weight(module.profile, coeffs.pop()) if coeffs else None

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "VermaElement") -> "VermaElement":
        if self.module is not other.module:
            raise ValueError("elements of different modules")
        out = dict(self.terms)
        for m, c in other.terms.items():
            val = out.get(m, Fraction(0)) + c
            if val:
                out[m] = val
            elif m in out:
                del out[m]
        return VermaElement(self.module, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "VermaElement":
        c = Fraction(c)
        return VermaElement(self.module, {m: c * v for m, v in self.terms.items()})

    def proportionality(self, other: "VermaElement"):
        """The scalar c with self = c * other, or None if not proportional.

        Two zero elements are proportional with scalar 1.
        """
        if self.module is not other.module:
            return None
        if other.is_zero():
            return Fraction(1) if self.is_zero() else None
        if self.is_zero():
            return Fraction(0)
        if set(self.terms) != set(other.terms):
            return None
        ratios = {self.terms[m] / other.terms[m] for m in self.terms}
        return ratios.pop() if len(ratios) == 1 else None

    def __repr__(self):
        parts = [f"{c}*{m}" for m, c in sorted(self.terms.items())]
        return f"VermaElement({' + '.join(parts) or '0'})"


# ---------------------------------------------------------------------------
# Public operations


def weight_space_basis(borel: BorelElt, lam: Weight, nu: Weight, depth_cap: int | None = None):
    """Monomials of M^b(lam) at weight nu; count equals the character coefficient."""
    module = VermaModule(borel, lam)
    if depth_cap is not None:
        drop = lam.xi - nu.xi
        if not 0 <= drop <= depth_cap:
            raise ValueError(f"weight {nu} outside the depth cap {depth_cap}")
    return module.weight_space_monomials(nu)


def coroot_pairing(shifted: Weight, alpha: Root) -> int:
    """<mu, alpha^vee> = 2 (mu, alpha) / (alpha, alpha) for an even root."""
    if alpha.is_odd:
        raise ValueError("coroot pairing needs a non-isotropic root")
    value = pairing(shifted, alpha.as_weight())
    norm = pairing(alpha.as_weight(), alpha.as_weight())  # +-2 in each block
    return 2 * value // norm


def singular_vector_even(borel: BorelElt, lam: Weight, alpha: Root, module: VermaModule | None = None) -> VermaElement:
    """E_{-alpha}^k v for k = <lam + rho^b, alpha^vee>, a positive integer.

    The result is checked, not trusted: every simple raising generator of
    the Borel must annihilate it.
    """
    if alpha not in borel.simple_roots() or alpha.is_odd:
        raise ValueError(f"{alpha} is not an even simple root of {borel}")
    k = coroot_pairing(lam + rho_b(borel), alpha)
    if k <= 0:
        raise ValueError(f"coroot pairing is {k}, not a positive integer")
    if module is None:
        module = VermaModule(borel, lam)
    slot = module.neg_index[(alpha.j, alpha.i)]
    mono = list(module.zero_mono)
    mono[slot] = k
    vec = module.element({tuple(mono): 1})
    for simple in borel.simple_roots():
        image = module.apply((simple.i, simple.j), vec)
        if not image.is_zero():
            raise ConsistencyError(f"singular vector not annihilated by {simple}")
    expected = dot_action(reflection(alpha), lam, borel)
    if vec.weight != expected:
        raise ConsistencyError(f"singular vector has weight {vec.weight}, not {expected}")
    return vec


def primitive_space_dim(
    ambient_borel: BorelElt,
    ambient_weight: Weight,
    target_weight: Weight,
    annihilating_borel: BorelElt | None = None,
    module: VermaModule | None = None,
) -> int:
    """Dimension of the vectors at target_weight killed by a Borel's raisers.

    Equals the dimension of homomorphisms from the Verma at target_weight
    (for the annihilating Borel) into the ambient Verma module.
    """
    if module is None:
        module = VermaModule(ambient_borel, ambient_weight)
    if annihilating_borel is None:
        annihilating_borel = ambient_borel
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
            rows.append([Fraction(c.get(um, 0)) for c in cols])
    if not rows:
        return len(monos)
    return len(monos) - matrix_rank(rows)


# ---------------------------------------------------------------------------
# The odd-product generator of the narrow submodule


def _odd_product_pairs(profile: RankProfile):
    return tuple((beta.i, beta.j) for beta in odd_positive_roots(profile))


def antidistinguished_module(lam: Weight) -> VermaModule:
    """M^{(n^m)}(lam - 2 rho1), the ambient of the narrow submodule at lam."""
    p = lam.profile
    return VermaModule(antidistinguished(p), lam - rho1_doubled_distinguished(p))


def e_g1_apply(lam: Weight, module: VermaModule | None = None, order=None) -> VermaElement:
    """The product of all distinguished-positive odd root vectors applied to
    the anti-distinguished highest vector; a single monomial of weight lam."""
    if module is None:
        module = antidistinguished_module(lam)
    pairs = list(order) if order is not None else list(_odd_product_pairs(lam.profile))
    vec = module.apply_word(pairs, module.highest_vector())
    if vec.is_zero() or vec.weight != lam:
        raise ConsistencyError(f"odd product of weight {vec.weight} does not reach {lam}")
    return vec


def eg1_order_independence(lam: Weight, trials: int = 4, seed: int = 0) -> bool:
    """All reorderings of the odd product give proportional elements."""
    module = antidistinguished_module(lam)
    base = e_g1_apply(lam, module)
    rng = random.Random(seed)
    pairs = list(_odd_product_pairs(lam.profile))
    for _ in range(trials):
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        other = e_g1_apply(lam, module, order=shuffled)
        ratio = other.proportionality(base)
        if ratio is None or ratio == 0:
            return False
    return True


def eg1_centralizes(lam: Weight, depth: int = 2) -> bool:
    """Each even negative simple generator commutes with the odd product,
    as operators on the window, up to one global scalar per generator."""
    p = lam.profile
    module = antidistinguished_module(lam)
    odd_pairs = _odd_product_pairs(p)

    def odd_product(elem):
        return module.apply_word(odd_pairs, elem)

    generators = []
    for i in range(1, p.m):
        generators.append((i + 1, i))
    for j in range(1, p.n):
        generators.append((p.m + j + 1, p.m + j))
    if not generators:
        return True
    window = module._monomials(depth + rho1_doubled_distinguished(p).xi)
    for x in generators:
        scalar = None
        for mono in window:
            u = module.element({mono: 1})
            lhs = module.apply(x, odd_product(u))
            rhs = odd_product(module.apply(x, u))
            if rhs.is_zero():
                if not lhs.is_zero():
                    return False
                continue  # both zero: no constraint
            ratio = lhs.proportionality(rhs)
            if ratio is None:
                return False
            if scalar is None:
                scalar = ratio
            elif scalar != ratio:
                return False
    return True


# ---------------------------------------------------------------------------
# Submodule growth and narrow-module weight ranks


def _max_cells_default():
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


@lru_cache(maxsize=None)
def _generator_pairs(profile: RankProfile):
    d = profile.dim
    return tuple((i, j) for i in range(1, d + 1) for j in range(1, d + 1) if i != j)


def cone_weights_below(top: Weight, depth: int) -> list[Weight]:
    """Weights top - (nonnegative span of the distinguished positive roots)
    within the xi-window, sorted shallow to deep."""
    p = top.profile
    roots = [r.as_weight() for r in even_positive_roots(p) + odd_positive_roots(p)]
    steps = [r.xi for r in roots]
    floor = top.xi - depth
    seen = {top}
    frontier = [top]
    while frontier:
        nxt = []
        for w in frontier:
            for r, s in zip(roots, steps):
                if w.xi - s >= floor:
                    cand = w - r
                    if cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
        frontier = nxt
    return sorted(seen, key=lambda w: (-w.xi, w.coeffs))


def submodule_weight_ranks(
    module: VermaModule,
    seeds,
    top: Weight,
    depth: int,
    max_cells: int | None = None,
) -> dict[Weight, int]:
    """Per-weight dimensions of the submodule generated by the seeds,
    restricted to the xi-window below `top`.

    All basis generators are applied repeatedly and ranks grow monotonely
    inside a finite window, so the loop terminates at the exact answer.
    """
    p = module.profile
    floor = top.xi - depth
    max_cells = _max_cells_default() if max_cells is None else max_cells
    candidates = cone_weights_below(top, depth)
    total_cells = 0
    for nu in candidates:
        total_cells += len(module.weight_space_monomials(nu))
        if total_cells > max_cells:
            raise EnumerationBound(
                f"window holds more than {max_cells} basis cells; "
                "raise SUPERCHAR_MAX_CELLS to proceed"
            )
    bases: dict[Weight, RowBasis] = {}
    queue: deque = deque()
    for seed in seeds:
        if seed.is_zero():
            continue
        nu = seed.weight
        if not floor <= nu.xi <= top.xi:
            continue
        basis = bases.setdefault(nu, RowBasis(len(module.weight_space_monomials(nu))))
        if basis.insert(module.coordinates(seed, nu)):
            queue.append(seed)
    generators = _generator_pairs(p)
    while queue:
        elem = queue.popleft()
        for x in generators:
            image = module.apply(x, elem)
            if image.is_zero():
                continue
            nu = image.weight
            if not floor <= nu.xi <= top.xi:
                continue
            basis = bases.setdefault(nu, RowBasis(len(module.weight_space_monomials(nu))))
            if basis.insert(module.coordinates(image, nu)):
                queue.append(image)
    return {nu: bases[nu].rank if nu in bases else 0 for nu in candidates}


def narrow_image_dims(lam: Weight, depth: int, max_cells: int | None = None) -> dict[Weight, int]:
    """Weight-space dimensions of the submodule generated by the odd product
    vector inside the anti-distinguished Verma module, on the window below lam."""
    module = antidistinguished_module(lam)
    seed = e_g1_apply(lam, module)
    return submodule_weight_ranks(module, [seed], lam, depth, max_cells)


# ---------------------------------------------------------------------------
# Commutation of the odd product with even embeddings


def _simple_reflection_root(w: WeylElt, profile: RankProfile) -> Root:
    for alpha in even_positive_roots(profile):
        if reflection(alpha) == w:
            return alpha
    raise ValueError("the Weyl element is not a single reflection")


def bgg_square_check(lam: Weight, w: WeylElt, depth: int = 3) -> bool:
    """The two routes from the Verma at w.lam into the anti-distinguished
    ambient (odd product then even embedding, or the reverse) agree up to
    one nonzero scalar.

    Supported for length-one w; length zero is trivially true.
    """
    if w.length == 0:
        return True
    if w.length > 1:
        raise ValueError("only length-one reflections are supported")
    p = lam.profile
    alpha = _simple_reflection_root(w, p)
    k = coroot_pairing(lam + rho(p), alpha)
    if k <= 0:
        raise ValueError(f"no even embedding: coroot pairing is {k}")
    module = antidistinguished_module(lam)
    slot = module.neg_index[(alpha.j, alpha.i)]
    mono = list(module.zero_mono)
    mono[slot] = k
    embedded_highest = module.element({tuple(mono): 1})
    odd_pairs = _odd_product_pairs(p)
    # odd product after the even embedding, and the reverse order
    route_a = module.apply_word(odd_pairs, embedded_highest)
    route_b = module.apply_word(
        [(alpha.j, alpha.i)] * k, module.apply_word(odd_pairs, module.highest_vector())
    )
    ratio = route_a.proportionality(route_b)
    if ratio is None or ratio == 0 or route_b.is_zero():
        return False
    # one step deeper: the exact relation persists under every generator
    for x in _generator_pairs(p):
        im_a = module.apply(x, route_a)
        im_b = module.apply(x, route_b)
        if not (im_a - im_b.scale(ratio)).is_zero():
            return False
    return True
