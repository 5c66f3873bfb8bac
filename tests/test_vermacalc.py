import gc
import itertools
import math
import random
import sys
import weakref
from collections import deque
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from superchar.bggcheck import image_check, verma_count_check
from superchar.borels import antidistinguished, borel, distinguished, enumerate_borels
from superchar.charring import char_verma
from superchar.diagrams import is_g1_generic
from superchar.linalg import RowBasis, matrix_rank
from superchar.rootdata import (
    ConsistencyError,
    EnumerationBound,
    ProfileMismatch,
    RankProfile,
    Root,
    Weight,
    classify,
    dot_action,
    even_positive_roots,
    odd_positive_roots,
    reflection,
    rho,
    rho1_doubled_distinguished,
    rho_b,
    weight_from_blocks,
    weight_from_coords,
)
from superchar import vermacalc
from superchar.vermacalc import (
    DIGIT_BITS,
    DIGIT_MASK,
    VermaModule,
    antidistinguished_module,
    cone_weights_below,
    coroot_pairing,
    e_g1_apply,
    narrow_image_dims,
    pair_parity,
    primitive_space_dim,
    singular_vector_even,
    submodule_weight_ranks,
    supercommutator,
)


def P(m, n):
    return RankProfile(m, n)


def all_pairs(p):
    d = p.dim
    return [(i, j) for i in range(1, d + 1) for j in range(1, d + 1)]


def odd_pairs(p):
    """The factors of the odd product X, in its canonical order."""
    return [(beta.i, beta.j) for beta in odd_positive_roots(p)]


def combination(module, *scaled):
    """The element sum of c * elem over the (c, elem) pairs, checked
    homogeneous by `VermaModule.element`."""
    out: dict = {}
    for c, elem in scaled:
        for mono, v in elem.terms.items():
            out[mono] = out.get(mono, 0) + c * v
    return module.element(out)


# -- structure constants ------------------------------------------------------


def matrix_of(profile, pair) -> list[list[int]]:
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


def test_supercommutator_examples():
    p11 = P(1, 1)
    assert supercommutator(p11, (1, 2), (2, 1)) == [(1, (1, 1)), (1, (2, 2))] or dict(
        (pr, c) for c, pr in supercommutator(p11, (1, 2), (2, 1))
    ) == {(1, 1): 1, (2, 2): 1}
    assert dict((pr, c) for c, pr in supercommutator(p11, (1, 1), (1, 2))) == {(1, 2): 1}
    p21 = P(2, 1)
    assert supercommutator(p21, (1, 2), (1, 2)) == []


def test_supercommutator_against_matrix_oracle():
    for m, n in [(1, 1), (2, 1), (2, 2)]:
        p = P(m, n)
        for x in all_pairs(p):
            for y in all_pairs(p):
                got = {pr: c for c, pr in supercommutator(p, x, y)}
                assert got == supercommutator_matrix_oracle(p, x, y)


def test_super_antisymmetry():
    p = P(2, 2)
    rng = random.Random(3)
    pairs = all_pairs(p)
    for _ in range(100):
        x, y = rng.choice(pairs), rng.choice(pairs)
        sign = -1 if pair_parity(p, x) and pair_parity(p, y) else 1
        lhs = {pr: c for c, pr in supercommutator(p, x, y)}
        rhs = {pr: -sign * c for c, pr in supercommutator(p, y, x)}
        rhs = {pr: c for pr, c in rhs.items() if c}
        assert lhs == rhs


def test_super_jacobi_identity():
    # [x,[y,z]] = [[x,y],z] + (-1)^{|x||y|}[y,[x,z]] on 200 random triples
    p = P(2, 2)
    rng = random.Random(5)
    pairs = all_pairs(p)

    def bracket_into(acc, x, terms, coeff=1):
        for c, y in terms:
            for c2, z in supercommutator(p, x, y):
                acc[z] = acc.get(z, 0) + coeff * c * c2

    for _ in range(200):
        x, y, z = (rng.choice(pairs) for _ in range(3))
        lhs = {}
        bracket_into(lhs, x, supercommutator(p, y, z))
        rhs = {}
        for c, xy in supercommutator(p, x, y):
            for c2, w in supercommutator(p, xy, z):
                rhs[w] = rhs.get(w, 0) + c * c2
        sign = -1 if pair_parity(p, x) and pair_parity(p, y) else 1
        bracket_into(rhs, y, supercommutator(p, x, z), coeff=sign)
        assert {k: v for k, v in lhs.items() if v} == {k: v for k, v in rhs.items() if v}


# -- weight spaces -------------------------------------------------------------


def test_weight_space_basis_gl11():
    p = P(1, 1)
    lam = weight_from_blocks(p, [1], [1])
    module = VermaModule(distinguished(p), lam)
    assert tuple(map(module.unpack, module.weight_space_monomials(lam))) == ((0,),)
    beta = Root(p, 1, 2).as_weight()
    assert len(module.weight_space_monomials(lam - beta)) == 1
    assert module.weight_space_monomials(lam - 2 * beta) == ()


def test_weight_space_counts_match_characters():
    assert verma_count_check(weight_from_blocks(P(2, 2), [1, 0], [0, -1]), 4)


def box_oracle(module, drop):
    """(exponents, weight coefficients, xi-drop) for every tuple in the box
    odd slots 0..1, even slots 0..drop + total refund, by brute force."""
    xi = module.profile.xi
    # lowering pair (j, i) belongs to the positive root (i, j)
    roots = [Root(module.profile, i, j) for j, i in module.neg_pairs]
    steps = [sum(a * x for a, x in zip(r.as_weight().coeffs, xi)) for r in roots]
    refund = sum(-s for s, odd in zip(steps, module.neg_parity) if odd and s < 0)
    ranges = [range(2) if odd else range(drop + refund + 1) for odd in module.neg_parity]
    for mono in itertools.product(*ranges):
        coeffs = list(module.lam.coeffs)
        for e, r in zip(mono, roots):
            coeffs[r.i - 1] -= e
            coeffs[r.j - 1] += e
        yield mono, tuple(coeffs), sum(e * s for e, s in zip(mono, steps))


def window_monomials(module, drop):
    """Every monomial whose xi-drop is at most `drop`, read level by level
    from the lowest reachable one."""
    levels = range(-module._refund[0], drop + 1)
    return [mono for d in levels for monos in module._level(d).values() for mono in monos]


@st.composite
def borel_weights(draw):
    p = draw(st.sampled_from([P(1, 1), P(2, 1), P(1, 2), P(2, 2), P(3, 1), P(1, 3)]))
    b = draw(st.sampled_from(enumerate_borels(p)))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=p.dim, max_size=p.dim))
    return b, Weight(p, tuple(coeffs))


@settings(max_examples=30, deadline=None)
@given(borel_weights())
def test_weight_space_monomials_match_oracle(case):
    b, lam = case
    module = VermaModule(b, lam)
    weights = list(cone_weights_below(char_verma(b, lam, 3).top, 3))
    drop = max(lam.xi - nu.xi for nu in weights)
    by_weight: dict = {}
    for mono, coeffs, _ in box_oracle(module, drop):
        by_weight.setdefault(coeffs, []).append(mono)
    for nu in weights:
        monos = tuple(map(module.unpack, module.weight_space_monomials(nu)))
        assert monos == tuple(sorted(by_weight.get(nu.coeffs, [])))


@settings(max_examples=30, deadline=None)
@given(borel_weights(), st.integers(-1, 2))
def test_window_monomials_match_oracle(case, depth):
    # anti-distinguished odd roots have negative xi-steps: lowering by them raises xi
    _, lam = case
    module = antidistinguished_module(lam)
    drop = depth + rho1_doubled_distinguished(lam.profile).xi
    expected = sorted(mono for mono, _, d in box_oracle(module, drop) if d <= drop)
    assert sorted(map(module.unpack, window_monomials(module, drop))) == expected


@settings(max_examples=40, deadline=None)
@given(borel_weights(), st.booleans(), st.integers(0, 2))
def test_level_buckets_match_oracle(case, anti, depth):
    # every Borel, and the anti-distinguished ambient, whose lowest level
    # lies above its top: odd steps there are negative
    b, lam = case
    module = antidistinguished_module(lam) if anti else VermaModule(b, lam)
    drop = depth + (rho1_doubled_distinguished(lam.profile).xi if anti else 0)
    oracle = list(box_oracle(module, drop))
    weight_of = {mono: coeffs for mono, coeffs, _ in oracle}
    lowest = -module._refund[0]
    assert module._level(lowest - 1) == {}
    for level in range(lowest, drop + 1):
        buckets = {
            key: [module.unpack(mono) for mono in monos]
            for key, monos in module._level(level).items()
        }
        found = sorted(mono for monos in buckets.values() for mono in monos)
        assert found == sorted(mono for mono, _, d in oracle if d == level)
        for key, monos in buckets.items():
            assert monos and monos == sorted(monos)
            assert all(weight_of[mono] == key for mono in monos)
        # the buckets come in the order of their first monomials, as a
        # lexicographic walk files them
        firsts = [monos[0] for monos in buckets.values()]
        assert firsts == sorted(firsts)


@settings(max_examples=40, deadline=None)
@given(borel_weights(), st.booleans(), st.integers(0, 2))
def test_packing_round_trip_order_and_leading_slot(case, anti, depth):
    # the oracle box is in lexicographic exponent order; packing keeps it,
    # and the bit length finds the first nonzero slot
    b, lam = case
    module = antidistinguished_module(lam) if anti else VermaModule(b, lam)
    drop = depth + (rho1_doubled_distinguished(lam.profile).xi if anti else 0)
    slots = len(module.neg_pairs)
    exps = [mono for mono, _, _ in box_oracle(module, drop)]
    exps.append((DIGIT_MASK,) * slots)
    assert exps == sorted(exps)
    packed = [module.pack(e) for e in exps]
    assert [module.unpack(mono) for mono in packed] == exps
    assert all(a < b for a, b in zip(packed, packed[1:]))
    for e, mono in zip(exps, packed):
        assert module._leading_slot(mono) == next((k for k, x in enumerate(e) if x), slots)
    assert packed[-1] == (1 << DIGIT_BITS * slots) - 1


def test_pack_refuses_what_does_not_fit():
    p = P(2, 1)
    module = VermaModule(distinguished(p), weight_from_blocks(p, [3, 1], [-2]))
    with pytest.raises(EnumerationBound):
        module.pack((0, 2**DIGIT_BITS, 0))
    with pytest.raises(ValueError, match="negative"):
        module.pack((0, -1, 0))
    with pytest.raises(ValueError, match="slots"):
        module.pack((0, 1))


def test_exponents_past_the_digit_raise_before_they_carry():
    # each place an exponent grows: lowered, the direct product of
    # act_basis, and the level walk
    p = P(2, 1)
    alpha = Root(p, 1, 2)
    module = VermaModule(distinguished(p), weight_from_blocks(p, [3, 1], [-2]))
    with pytest.raises(EnumerationBound):
        module.lowered(alpha, 2**16)
    top = module.lowered(alpha, 2**16 - 1)
    assert [module.unpack(mono) for mono in top.terms] == [(2**16 - 1, 0, 0)]
    with pytest.raises(EnumerationBound):
        module.apply((alpha.j, alpha.i), top)
    with pytest.raises(EnumerationBound):
        module.weight_space_monomials(module.lam - 2**16 * alpha.as_weight())


def cone_breadth_first(top, depth):
    """The distinguished cone below top within the xi-window, walked breadth
    first from top and sorted shallow to deep."""
    if depth < 0:
        return []
    p = top.profile
    roots = [r.as_weight() for r in even_positive_roots(p) + odd_positive_roots(p)]
    seen = {top}
    frontier = [top]
    while frontier:
        nxt = []
        for w in frontier:
            for r in roots:
                cand = w - r
                if cand.xi >= top.xi - depth and cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return sorted(seen, key=lambda w: (-w.xi, w.coeffs))


@settings(max_examples=30, deadline=None)
@given(borel_weights(), st.integers(-1, 4))
def test_cone_weights_below_matches_breadth_first(case, depth):
    _, top = case
    assert list(cone_weights_below(top, depth)) == cone_breadth_first(top, depth)


def test_weight_space_profile_mismatch():
    # gl(2|2) and gl(3|1) weights have the same length, so only the check tells them apart
    module = VermaModule(distinguished(P(2, 2)), weight_from_blocks(P(2, 2), [1, 0], [0, 1]))
    with pytest.raises(ProfileMismatch):
        module.weight_space_monomials(weight_from_blocks(P(3, 1), [1, 0, 0], [1]))


def test_coordinates_index_each_weight_space_once(monkeypatch):
    p = P(2, 2)
    module = VermaModule(distinguished(p), weight_from_blocks(p, [3, 1], [0, -2]))
    nu = module.lam - Root(p, 1, 3).as_weight() - Root(p, 1, 2).as_weight()
    monos = module.weight_space_monomials(nu)
    assert len(monos) > 1
    asked = []
    original = VermaModule.weight_space_monomials

    def counting(self, w):
        asked.append(w)
        return original(self, w)

    monkeypatch.setattr(VermaModule, "weight_space_monomials", counting)
    for k, mono in enumerate(monos):
        vec = module.coordinates(module.element({mono: 7}), nu)
        assert vec == [7 if i == k else 0 for i in range(len(monos))]
    assert asked == [nu]
    # an index is kept per weight, profile included, so another profile still refuses
    stranger = Weight(P(3, 1), nu.coeffs)
    with pytest.raises(ProfileMismatch):
        module.coordinates(module.element({}), stranger)


# -- generator action -----------------------------------------------------------


def test_cartan_acts_by_weight():
    p = P(2, 1)
    lam = weight_from_blocks(p, [3, 1], [-2])
    module = VermaModule(distinguished(p), lam)
    v = module.highest_vector()
    for i in range(1, 4):
        out = module.apply((i, i), v)
        assert out.terms == {module.zero_mono: Fraction(lam.coeffs[i - 1])} or (
            lam.coeffs[i - 1] == 0 and out.is_zero()
        )


def test_element_rejects_mixed_weights():
    p = P(2, 1)
    module = VermaModule(distinguished(p), weight_from_blocks(p, [3, 1], [-2]))
    # slots e1-e2, e1-d1, e2-d1: f(e1-e2) f(e2-d1) and f(e1-d1) share a weight
    pack = module.pack
    elem = module.element({pack((1, 0, 1)): 1, pack((0, 1, 0)): 2})
    assert elem.weight == module.mono_weight(pack((0, 1, 0)))
    with pytest.raises(ValueError, match="inhomogeneous"):
        module.element({pack((0, 0, 0)): 1, pack((0, 1, 0)): 1})
    with pytest.raises(TypeError, match="not an integer"):
        module.element({pack((0, 1, 0)): Fraction(1, 2)})


def test_pbw_coefficients_are_integers():
    p = P(2, 1)
    module = VermaModule(distinguished(p), weight_from_blocks(p, [3, 1], [-2]))
    coeffs = set()
    for word in itertools.product(all_pairs(p), repeat=3):
        for c in module.apply_word(word, module.highest_vector()).terms.values():
            assert type(c) is int
            coeffs.add(c)
    assert max(map(abs, coeffs)) > 1


@settings(max_examples=30, deadline=None)
@given(borel_weights(), st.integers(0, 2))
def test_act_basis_moves_weight_by_the_root(case, drop):
    # the closure trusts this: an image's weight is its monomial's plus eps_i - eps_j
    b, lam = case
    module = VermaModule(b, lam)
    for mono in window_monomials(module, drop):
        coeffs = module.mono_weight(mono).coeffs
        for i, j in all_pairs(lam.profile):
            moved = list(coeffs)
            moved[i - 1] += 1
            moved[j - 1] -= 1
            for term in module.act_basis((i, j), mono):
                assert module.mono_weight(term).coeffs == tuple(moved)


def test_raising_annihilates_highest_vector():
    for m, n in [(2, 1), (2, 2)]:
        p = P(m, n)
        lam = weight_from_blocks(p, [2] * m, [0] * n)
        for b in enumerate_borels(p):
            module = VermaModule(b, lam)
            v = module.highest_vector()
            for r in b.simple_roots():
                assert module.apply((r.i, r.j), v).is_zero()


def test_gl11_hand_computation():
    # lowering then raising across the odd pair scales by the sum of entries
    p = P(1, 1)
    for a, b in [(2, 3), (0, 0), (1, -1), (-4, 7)]:
        lam = weight_from_blocks(p, [a], [b])
        module = antidistinguished_module(lam)
        w = module.highest_vector()
        assert module.apply((2, 1), w).is_zero()
        out = module.apply((2, 1), module.apply((1, 2), w))
        if a + b == 0:
            assert out.is_zero()
        else:
            assert out.terms == {module.zero_mono: Fraction(a + b)}


def test_module_axiom_random_triples():
    # [x,y].v = x.(y.v) - (-1)^{|x||y|} y.(x.v), 300 exact checks
    rng = random.Random(7)
    cases = [
        (P(1, 1), weight_from_blocks(P(1, 1), [2], [1]), ()),
        (P(2, 1), weight_from_blocks(P(2, 1), [1, 0], [-1]), (1,)),
        (P(2, 2), weight_from_blocks(P(2, 2), [2, 0], [1, -1]), (2, 1)),
    ]
    checks = 0
    for p, lam, parts in cases:
        module = VermaModule(borel(p, parts), lam)
        pairs = all_pairs(p)
        window = [module.zero_mono]
        # a few deeper vectors to act on
        seeds = [module.highest_vector()]
        for x in module.neg_pairs:
            seeds.append(module.apply(x, seeds[0]))
        for _ in range(100):
            x, y = rng.choice(pairs), rng.choice(pairs)
            v = rng.choice([s for s in seeds if not s.is_zero()])
            sign = -1 if pair_parity(p, x) and pair_parity(p, y) else 1
            difference = combination(
                module,
                *((c, module.apply(z, v)) for c, z in supercommutator(p, x, y)),
                (-1, module.apply(x, module.apply(y, v))),
                (sign, module.apply(y, module.apply(x, v))),
            )
            assert difference.is_zero()
            checks += 1
    assert checks == 300


def test_apply_drops_cancelled_terms():
    # a raiser kills combinations whose monomials it does not kill one by
    # one: the terms cancel to zero, and a partial cancellation keeps exactly
    # the terms that survive, none with a zero coefficient
    p = P(2, 1)
    lam = weight_from_coords(p, [3, 0], [3])
    module = VermaModule(distinguished(p), lam)
    cases = 0
    for nu in cone_weights_below(lam, 3):
        for r in distinguished(p).simple_roots():
            x = (r.i, r.j)
            monos, images = [], []
            for m in module.weight_space_monomials(nu):
                img = module.apply(x, module.element({m: 1}))
                if not img.is_zero():
                    monos.append(m)
                    images.append(img)
            if len(monos) < 2:
                continue
            mu = nu + r.as_weight()
            rows = sympy.Matrix([module.coordinates(img, mu) for img in images])
            for kernel in rows.T.nullspace():
                coeffs = [int(c) for c in kernel * math.lcm(*(c.q for c in kernel))]
                assert sum(map(bool, coeffs)) >= 2
                assert module.apply(x, module.element(dict(zip(monos, coeffs)))).is_zero()
                coeffs[0] += 1
                partial = module.apply(x, module.element(dict(zip(monos, coeffs))))
                assert partial.terms == images[0].terms and all(partial.terms.values())
                cases += 1
    assert cases == 3


# -- singular vectors -------------------------------------------------------------


def test_singular_vector_shapes():
    p = P(2, 1)
    b0 = distinguished(p)
    alpha = Root(p, 1, 2)
    for k in (1, 2, 3):
        lam = weight_from_coords(p, [k, 0], [5])
        module = VermaModule(b0, lam)
        v = singular_vector_even(module, alpha)
        assert [module.unpack(mono) for mono in v.terms] == [(k, 0, 0)]
        assert v.weight == dot_action(reflection(alpha), lam, b0)


def test_singular_vector_delta_block():
    p = P(2, 2)
    b0 = distinguished(p)
    alpha = Root(p, 3, 4)
    for k in (1, 2, 3):
        lam = weight_from_coords(p, [9, 1], [0, k])
        v = singular_vector_even(VermaModule(b0, lam), alpha)
        assert not v.is_zero()
        assert v.weight == dot_action(reflection(alpha), lam, b0)


def test_singular_vector_rejects_nonpositive_pairing():
    p = P(2, 1)
    with pytest.raises(ValueError):
        singular_vector_even(
            VermaModule(distinguished(p), weight_from_coords(p, [0, 3], [5])), Root(p, 1, 2)
        )


def test_primitive_space_dims():
    p = P(2, 1)
    b0 = distinguished(p)
    lam = weight_from_coords(p, [2, 0], [5])
    module = VermaModule(b0, lam)
    assert primitive_space_dim(module, lam) == 1
    alpha = Root(p, 1, 2)
    mu = dot_action(reflection(alpha), lam, b0)
    assert primitive_space_dim(module, mu) == 1


def test_primitive_space_dim_verma_transport():
    # matched highest weights: one-dimensional primitive space in every pair
    rng = random.Random(11)
    for m, n in [(2, 1), (1, 2)]:
        p = P(m, n)
        borels = enumerate_borels(p)
        for _ in range(4):
            lam = Weight(p, tuple(rng.randint(-3, 3) for _ in range(p.dim)))
            for b2 in borels:
                module = VermaModule(b2, lam - rho_b(b2))
                for b in borels:
                    dim = primitive_space_dim(module, lam - rho_b(b), annihilating_borel=b)
                    assert dim == 1


# -- the odd product --------------------------------------------------------------


def test_e_g1_single_monomial():
    for m, n in [(1, 1), (2, 1), (2, 2)]:
        p = P(m, n)
        lam = weight_from_blocks(p, [1] * m, [-1] * n)
        module = antidistinguished_module(lam)
        v = e_g1_apply(module, module.highest_vector())
        assert v.weight == lam
        assert len(v.terms) == 1
        coeff = next(iter(v.terms.values()))
        assert abs(coeff) == 1


def odd_product_cases():
    """Regular dominant generic weights of four profiles."""
    return [
        weight_from_coords(P(2, 1), [3, 0], [3]),
        weight_from_coords(P(1, 2), [3], [0, 3]),
        weight_from_coords(P(2, 2), [7, 2], [2, 7]),
        weight_from_coords(P(3, 1), [8, 4, 0], [3]),
    ]


def test_e_g1_order_independence():
    # g_{+1} is abelian and its root vectors square to zero, so each order of
    # the odd product gives the canonical one times the sign of the reordering
    for lam in odd_product_cases():
        p = lam.profile
        module = antidistinguished_module(lam)
        base = e_g1_apply(module, module.highest_vector())
        pairs = odd_pairs(p)
        for order in itertools.permutations(range(len(pairs))):
            inversions = sum(a > b for a, b in itertools.combinations(order, 2))
            other = module.apply_word([pairs[k] for k in order], module.highest_vector())
            assert combination(module, (1, other), (-(-1) ** inversions, base)).is_zero()


def test_e_g1_squares_to_zero():
    # X X = 0, so applying the odd product twice is refused
    for lam in odd_product_cases():
        module = antidistinguished_module(lam)
        once = e_g1_apply(module, module.highest_vector())
        with pytest.raises(ConsistencyError, match="odd product"):
            e_g1_apply(module, once)


def test_embedded_seed_matches_hand_built():
    # at the weights of acceptance criterion 10, the seed of
    # small_rank_exactness, built by the two checked builders, is the odd
    # product applied by hand after E_{-alpha}^k with k = <lam + rho, alpha^vee>
    cases = [
        weight_from_coords(P(2, 1), [3, 0], [3]),
        weight_from_coords(P(2, 1), [3, 0], [7]),
        weight_from_coords(P(1, 2), [3], [0, 3]),
        weight_from_coords(P(1, 2), [9], [0, 4]),
    ]
    for lam in cases:
        p = lam.profile
        (alpha,) = even_positive_roots(p)
        module = antidistinguished_module(lam)
        k = coroot_pairing(lam + rho(p), alpha)
        hand_built = module.apply_word(odd_pairs(p), module.lowered(alpha, k))
        seed = e_g1_apply(module, singular_vector_even(module, alpha))
        assert not seed.is_zero() and seed.terms == hand_built.terms
        assert seed.weight == dot_action(reflection(alpha), lam)


# -- narrow submodule ranks ----------------------------------------------------------


def closure_ranks(module, seeds, top, depth):
    """Ranks of the submodule the seeds generate, grown by applying every
    off-diagonal generator to every element that raises a rank until no
    rank grows: an oracle for the Verma-image walk of
    `submodule_weight_ranks` that assumes no singularity of the seeds."""
    p = module.profile
    floor = top.xi - depth
    generators = [(x, Root(p, *x).as_weight()) for x in all_pairs(p) if x[0] != x[1]]
    bases: dict = {}
    queue: deque = deque()

    def grow(nu, elem):
        basis = bases.setdefault(nu, RowBasis(len(module.weight_space_monomials(nu))))
        if basis.insert(module.coordinates(elem, nu)):
            queue.append((nu, elem))

    for seed in seeds:
        if not seed.is_zero() and floor <= seed.weight.xi <= top.xi:
            grow(seed.weight, seed)
    while queue:
        mu, elem = queue.popleft()
        for x, root in generators:
            if floor <= mu.xi + root.xi <= top.xi:
                image = module.apply(x, elem)
                if not image.is_zero():
                    grow(mu + root, image)
    return {nu: bases[nu].rank if nu in bases else 0 for nu in cone_weights_below(top, depth)}


@st.composite
def generic_dominant_weights(draw):
    """A g_-1-generic regular dominant weight of gl(2|1), gl(1|2) or gl(2|2)."""
    p = draw(st.sampled_from([P(2, 1), P(1, 2), P(2, 2)]))
    gaps = st.integers(1, 8)

    def block(size, sign):
        start = draw(st.integers(0, 12))
        values = [start]
        for _ in range(size - 1):
            values.append(values[-1] + sign * draw(gaps))
        return values

    lam = weight_from_coords(p, block(p.m, -1), block(p.n, 1))
    assume(is_g1_generic(lam))
    return lam


@settings(max_examples=40, deadline=None)
@given(generic_dominant_weights(), st.integers(0, 3))
def test_verma_image_matches_closure(lam, depth):
    flags = classify(lam)
    assert flags.regular and flags.dominant
    p = lam.profile
    module = antidistinguished_module(lam)
    seed = e_g1_apply(module, module.highest_vector())
    assert narrow_image_dims(lam, depth) == closure_ranks(module, [seed], lam, depth)
    # the seed of small_rank_exactness, the odd product after E_{-alpha}^k,
    # for every even simple root alpha
    for alpha in distinguished(p).simple_roots():
        if alpha.is_odd:
            continue
        embedded = e_g1_apply(module, singular_vector_even(module, alpha))
        ranks = submodule_weight_ranks(module, [embedded], lam, depth)
        assert ranks == closure_ranks(module, [embedded], lam, depth)


def test_narrow_image_gl11():
    p = P(1, 1)
    beta = Root(p, 1, 2).as_weight()
    lam = weight_from_blocks(p, [2], [3])  # typical: 2 + 3 != 0
    ranks = narrow_image_dims(lam, 1)
    assert ranks == {lam: 1, lam - beta: 1}
    lam0 = weight_from_blocks(p, [1], [-1])  # atypical
    ranks = narrow_image_dims(lam0, 1)
    assert ranks == {lam0: 1, lam0 - beta: 0}


def test_narrow_image_matches_character_gl21():
    assert image_check(weight_from_coords(P(2, 1), [3, 0], [3]), 3).passed


def test_narrow_image_typical_equals_verma():
    p = P(2, 1)
    lam = weight_from_coords(p, [3, 0], [7])
    ranks = narrow_image_dims(lam, 2)
    chart = char_verma(distinguished(p), lam, 2)
    assert ranks == {nu: chart.coeff(nu) for nu in ranks}


def test_narrow_image_bounded_by_verma():
    p = P(2, 2)
    lam = weight_from_coords(p, [7, 2], [2, 7])
    ranks = narrow_image_dims(lam, 2)
    chart = char_verma(distinguished(p), lam, 2)
    for nu, rank in ranks.items():
        assert rank <= chart.coeff(nu)


def test_negative_depth_window_is_empty():
    lam = weight_from_coords(P(2, 1), [3, 0], [3])
    assert list(cone_weights_below(lam, 0)) == [lam]
    assert narrow_image_dims(lam, 0) == {lam: 1}
    assert list(cone_weights_below(lam, -1)) == []
    assert narrow_image_dims(lam, -1) == {}


def test_weight_spaces_walk_once_per_level(monkeypatch):
    # two modules walk: the anti-distinguished ambient, for the window's
    # weight spaces, and the distinguished source, for the PBW monomials
    # whose images span the submodule; each walks each level once
    walks: dict = {}
    walk_level = VermaModule._walk_level

    def counted(module, drop):
        walks.setdefault(module.borel, []).append(drop)
        return walk_level(module, drop)

    monkeypatch.setattr(VermaModule, "_walk_level", counted)
    p = P(3, 3)
    lam = weight_from_coords(p, [16, 8, 0], [0, 8, 16])
    ranks = narrow_image_dims(lam, 4)
    assert len(ranks) == 126
    assert set(walks) == {antidistinguished(p), distinguished(p)}
    for levels in walks.values():
        assert len({nu.xi for nu in ranks}) == len(levels) == len(set(levels)) == 5
    assert walks[distinguished(p)] == list(range(5))


@pytest.mark.parametrize(
    "lam, depth",
    [
        (weight_from_coords(P(3, 3), [16, 8, 0], [0, 8, 16]), 4),
        (weight_from_coords(P(4, 4), [30, 20, 10, 0], [0, 10, 20, 30]), 6),
    ],
)
def test_level_walk_calls_stay_near_the_monomials_filed(monkeypatch, lam, depth):
    # every Python call the level walks make, counted by a profile hook set
    # for the walk alone, over both modules of the image route
    calls = filed = 0
    walk_level = VermaModule._walk_level

    def tally(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    def profiled(module, drop):
        nonlocal filed
        sys.setprofile(tally)
        try:
            level = walk_level(module, drop)
        finally:
            sys.setprofile(None)
        filed += sum(map(len, level.values()))
        return level

    monkeypatch.setattr(VermaModule, "_walk_level", profiled)
    narrow_image_dims(lam, depth)
    assert filed
    assert calls <= 4 * filed


def test_image_route_frees_its_modules_at_return(monkeypatch):
    # no reference cycle holds a module, or anything else the route builds:
    # with the cycle collector off, the ambient and the source module are
    # gone once narrow_image_dims returns, and no cyclic garbage is left
    built = []
    init = VermaModule.__init__

    def recorded(module, *args):
        init(module, *args)
        built.append(weakref.ref(module))

    monkeypatch.setattr(VermaModule, "__init__", recorded)
    lam = weight_from_coords(P(3, 3), [16, 8, 0], [0, 8, 16])
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        ranks = narrow_image_dims(lam, 4)
        alive = [ref for ref in built if ref() is not None]
        garbage = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert sum(ranks.values()) == 150
    assert len(built) == 2 and alive == []
    assert garbage == 0


def test_act_cache_holds_no_tracked_results(monkeypatch):
    # each straightening is a dict of ints, so the cycle collector never walks it
    modules = []
    ambient = vermacalc.antidistinguished_module

    def kept(lam):
        modules.append(ambient(lam))
        return modules[-1]

    monkeypatch.setattr(vermacalc, "antidistinguished_module", kept)
    narrow_image_dims(weight_from_coords(P(3, 3), [16, 8, 0], [0, 8, 16]), 4)
    (module,) = modules
    results = [r for cache in module._act_cache.values() for r in cache.values()]
    assert len(results) > 400
    assert not any(map(gc.is_tracked, results))


def test_cell_bound_fires_before_straightening(monkeypatch):
    p = P(2, 1)
    lam = weight_from_coords(p, [3, 0], [3])
    module = antidistinguished_module(lam)
    cells = sum(len(module.weight_space_monomials(nu)) for nu in cone_weights_below(lam, 3))
    monkeypatch.setenv("SUPERCHAR_MAX_CELLS", str(cells))
    assert narrow_image_dims(lam, 3)

    def no_straightening(*args):
        raise AssertionError("straightening started before the cell bound was checked")

    monkeypatch.setattr(VermaModule, "apply", no_straightening)
    monkeypatch.setenv("SUPERCHAR_MAX_CELLS", str(cells - 1))
    message = (
        f"window holds more than {cells - 1} basis cells; raise SUPERCHAR_MAX_CELLS to proceed"
    )
    with pytest.raises(EnumerationBound) as excinfo:
        narrow_image_dims(lam, 3)
    assert str(excinfo.value) == message


def test_cone_weights_below_is_lazy():
    # a window far too deep to list: its first weights come back at once,
    # the same as those of a shallow window
    lam = weight_from_coords(P(3, 3), [16, 8, 0], [0, 8, 16])
    shallow = list(cone_weights_below(lam, 2))
    deep = cone_weights_below(lam, 10**4)
    assert next(deep) == lam
    assert list(itertools.islice(deep, len(shallow) - 1)) == shallow[1:]


def test_narrow_image_window_env_guard(monkeypatch):
    monkeypatch.setenv("SUPERCHAR_MAX_CELLS", "2")
    p = P(2, 1)
    lam = weight_from_coords(p, [3, 0], [3])
    with pytest.raises(EnumerationBound):
        narrow_image_dims(lam, 3)
    # the cells are counted as the window is listed, so a window far too
    # deep to list is refused at the first drop past the bound
    with pytest.raises(EnumerationBound):
        narrow_image_dims(lam, 10**4)


def test_closure_straightens_only_inside_window(monkeypatch):
    # the bench image shape: apart from the singularity check, one call per
    # distinguished simple raiser on the seed, no generator is applied whose
    # image leaves the window
    lam = weight_from_coords(P(3, 3), [16, 8, 0], [0, 8, 16])
    module = antidistinguished_module(lam)
    seed = e_g1_apply(module, module.highest_vector())
    expected = closure_ranks(module, [seed], lam, 4)
    calls = []
    apply = VermaModule.apply

    def recorded(module, x, elem):
        calls.append((x, elem))
        return apply(module, x, elem)

    monkeypatch.setattr(VermaModule, "apply", recorded)
    ranks = submodule_weight_ranks(module, [seed], lam, 4)
    assert ranks == expected
    raisers = [(r.i, r.j) for r in distinguished(lam.profile).simple_roots()]
    assert [x for x, elem in calls if elem is seed and x in raisers] == raisers
    walk = [(x, elem.weight) for x, elem in calls if not (elem is seed and x in raisers)]
    assert walk
    for (i, j), mu in walk:
        assert lam.xi - 4 <= (mu + Root(lam.profile, i, j).as_weight()).xi <= lam.xi


def test_non_singular_seed_is_refused():
    # the anti-distinguished highest vector is lowered, not killed, by the
    # odd distinguished simple raiser, so it generates more than its Verma image
    lam = weight_from_coords(P(2, 1), [3, 0], [3])
    module = antidistinguished_module(lam)
    with pytest.raises(ConsistencyError, match="not singular"):
        submodule_weight_ranks(module, [module.highest_vector()], module.lam, 2)


def test_cell_bound_fires_before_singularity_check(monkeypatch):
    lam = weight_from_coords(P(2, 1), [3, 0], [3])
    module = antidistinguished_module(lam)
    seed = e_g1_apply(module, module.highest_vector())
    cells = sum(len(module.weight_space_monomials(nu)) for nu in cone_weights_below(lam, 3))

    def no_straightening(*args):
        raise AssertionError("the singularity check ran before the cell bound was checked")

    monkeypatch.setattr(VermaModule, "apply", no_straightening)
    monkeypatch.setenv("SUPERCHAR_MAX_CELLS", str(cells - 1))
    with pytest.raises(EnumerationBound, match="SUPERCHAR_MAX_CELLS"):
        submodule_weight_ranks(module, [seed], lam, 3)


def test_wrong_weight_straightening_is_caught(monkeypatch):
    # a homogeneous straightening of the wrong weight must not reach a row basis
    act_basis = VermaModule.act_basis

    def wrong(module, x, mono):
        return act_basis(module, (3, 1) if x == (2, 1) else x, mono)

    monkeypatch.setattr(VermaModule, "act_basis", wrong)
    with pytest.raises(ConsistencyError, match="not in the weight space"):
        narrow_image_dims(weight_from_coords(P(2, 1), [3, 0], [3]), 3)


def test_submodule_growth_of_whole_verma():
    # seeding with the highest vector recovers full weight spaces
    p = P(2, 1)
    lam = weight_from_blocks(p, [1, 0], [2])
    b0 = distinguished(p)
    module = VermaModule(b0, lam)
    ranks = submodule_weight_ranks(module, [module.highest_vector()], lam, 3)
    chart = char_verma(b0, lam, 3)
    assert ranks == {nu: chart.coeff(nu) for nu in ranks}
    assert ranks == closure_ranks(module, [module.highest_vector()], lam, 3)


# -- square commutation ---------------------------------------------------------------


def test_bgg_square_check():
    # X commutes with every even lowering vector f, so f^k X v = X f^k v
    # exactly: the odd product and the even embedding form a commuting square
    cases = 0
    for lam in odd_product_cases():
        p = lam.profile
        module = antidistinguished_module(lam)
        odd = odd_pairs(p)
        top = e_g1_apply(module, module.highest_vector())
        for alpha in even_positive_roots(p):
            k = coroot_pairing(lam + rho(p), alpha)
            if k <= 0:
                continue
            route_a = module.apply_word(odd, module.lowered(alpha, k))
            route_b = module.apply_word([(alpha.j, alpha.i)] * k, top)
            assert not route_b.is_zero() and route_a.terms == route_b.terms
            cases += 1
    assert cases == 7


# -- linear algebra helper ----------------------------------------------------------


def test_row_basis_incremental():
    basis = RowBasis(3)
    assert basis.insert([1, 2, 3])
    assert basis.insert([0, 1, 1])
    assert not basis.insert([1, 3, 4])
    assert basis.rank == 2
    assert not any(basis.reduce([2, 5, 7]))
    assert matrix_rank([[1, 2, 3], [0, 1, 1], [1, 3, 4]]) == 2
    assert matrix_rank([[3, 2], [18, 30]]) == 2
    assert matrix_rank([[3, 2], [18, 12]]) == 1
    # rows are ints: a rational entry is refused, not rounded or cleared
    with pytest.raises(TypeError):
        RowBasis(2).insert([Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(TypeError):
        basis.insert([1, Fraction(1, 2), 0])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda width: st.lists(
            st.lists(st.integers(-50, 50), min_size=width, max_size=width), min_size=1, max_size=6
        )
    )
)
def test_rank_matches_sympy(rows):
    expected = sympy.Matrix(rows).rank()
    basis = RowBasis(len(rows[0]))
    for k, row in enumerate(rows):
        stored, old_pivots = [list(r) for r in basis.rows], list(basis.pivots)
        basis.insert(row)
        # integer echelon form: primitive int rows, each 0 left of its
        # pivot, and strictly increasing pivots
        for row_k, p in zip(basis.rows, basis.pivots):
            assert all(type(x) is int for x in row_k)
            assert math.gcd(*row_k) == 1 and row_k[p] != 0
            assert not any(row_k[:p])
        assert all(a < b for a, b in zip(basis.pivots, basis.pivots[1:]))
        # an insert never rewrites a stored row, and the span holds every
        # vector inserted so far
        assert [r for r, p in zip(basis.rows, basis.pivots) if p in old_pivots] == stored
        assert all(not any(basis.reduce(v)) for v in rows[: k + 1])
    assert matrix_rank(rows) == basis.rank == expected

