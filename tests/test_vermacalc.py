import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from superchar.borels import borel, distinguished, enumerate_borels
from superchar.charring import char_narrow, char_verma
from superchar.linalg import RowBasis, matrix_rank
from superchar.rootdata import (
    EnumerationBound,
    RankProfile,
    Root,
    Weight,
    dot_action,
    reflection,
    rho1_doubled_distinguished,
    rho_b,
    weight_from_blocks,
    weight_from_coords,
)
from superchar.vermacalc import (
    VermaModule,
    antidistinguished_module,
    bgg_square_check,
    cone_weights_below,
    e_g1_apply,
    eg1_centralizes,
    eg1_order_independence,
    narrow_image_dims,
    pair_parity,
    primitive_space_dim,
    singular_vector_even,
    submodule_weight_ranks,
    supercommutator,
    supercommutator_matrix_oracle,
    weight_space_basis,
)


def P(m, n):
    return RankProfile(m, n)


def all_pairs(p):
    d = p.dim
    return [(i, j) for i in range(1, d + 1) for j in range(1, d + 1)]


# -- structure constants ------------------------------------------------------


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
    b0 = distinguished(p)
    assert weight_space_basis(b0, lam, lam) == ((0,),)
    beta = Root(p, 1, 2).as_weight()
    assert len(weight_space_basis(b0, lam, lam - beta)) == 1
    assert weight_space_basis(b0, lam, lam - 2 * beta) == ()


def test_weight_space_counts_match_characters():
    p = P(2, 2)
    lam = weight_from_blocks(p, [1, 0], [0, -1])
    for b in enumerate_borels(p):
        chart = char_verma(b, lam, 4)
        module = VermaModule(b, lam)
        for nu in cone_weights_below(chart.top, 4):
            assert chart.coeff(nu) == len(module.weight_space_monomials(nu))


def box_oracle(module, drop):
    """(exponents, weight coefficients, xi-drop) for every tuple in the box
    odd slots 0..1, even slots 0..drop + total refund, by brute force."""
    xi = module.profile.xi
    steps = [sum(a * x for a, x in zip(r.as_weight().coeffs, xi)) for r in module.pbw_roots]
    refund = sum(-s for s, odd in zip(steps, module.neg_parity) if odd and s < 0)
    ranges = [range(2) if odd else range(drop + refund + 1) for odd in module.neg_parity]
    for mono in itertools.product(*ranges):
        coeffs = list(module.lam.coeffs)
        for e, r in zip(mono, module.pbw_roots):
            coeffs[r.i - 1] -= e
            coeffs[r.j - 1] += e
        yield mono, tuple(coeffs), sum(e * s for e, s in zip(mono, steps))


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
    weights = cone_weights_below(char_verma(b, lam, 3).top, 3)
    drop = max(lam.xi - nu.xi for nu in weights)
    by_weight: dict = {}
    for mono, coeffs, _ in box_oracle(module, drop):
        by_weight.setdefault(coeffs, []).append(mono)
    for nu in weights:
        assert module.weight_space_monomials(nu) == tuple(sorted(by_weight.get(nu.coeffs, [])))


@settings(max_examples=30, deadline=None)
@given(borel_weights(), st.integers(-1, 2))
def test_window_monomials_match_oracle(case, depth):
    # anti-distinguished odd roots have negative xi-steps: lowering by them raises xi
    _, lam = case
    module = antidistinguished_module(lam)
    drop = depth + rho1_doubled_distinguished(lam.profile).xi
    expected = sorted(mono for mono, _, d in box_oracle(module, drop) if d <= drop)
    assert sorted(module._monomials(drop)) == expected


def test_weight_space_basis_depth_cap():
    p = P(1, 1)
    lam = weight_from_blocks(p, [0], [0])
    beta = Root(p, 1, 2).as_weight()
    with pytest.raises(ValueError):
        weight_space_basis(distinguished(p), lam, lam - beta, depth_cap=0)


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
    elem = module.element({(1, 0, 1): 1, (0, 1, 0): 2})
    assert elem.weight == module.mono_weight((0, 1, 0))
    with pytest.raises(ValueError, match="inhomogeneous"):
        module.element({(0, 0, 0): 1, (0, 1, 0): 1})


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
            lhs = module.zero()
            for c, z in supercommutator(p, x, y):
                lhs = lhs + module.apply(z, v).scale(c)
            rhs = module.apply(x, module.apply(y, v)) - module.apply(
                y, module.apply(x, v)
            ).scale(sign)
            assert (lhs - rhs).is_zero()
            checks += 1
    assert checks == 300


# -- singular vectors -------------------------------------------------------------


def test_singular_vector_shapes():
    p = P(2, 1)
    b0 = distinguished(p)
    alpha = Root(p, 1, 2)
    for k in (1, 2, 3):
        lam = weight_from_coords(p, [k, 0], [5])
        v = singular_vector_even(b0, lam, alpha)
        assert list(v.terms) == [(k, 0, 0)]
        assert v.weight == dot_action(reflection(alpha), lam, b0)


def test_singular_vector_delta_block():
    p = P(2, 2)
    b0 = distinguished(p)
    alpha = Root(p, 3, 4)
    for k in (1, 2, 3):
        lam = weight_from_coords(p, [9, 1], [0, k])
        v = singular_vector_even(b0, lam, alpha)
        assert not v.is_zero()
        assert v.weight == dot_action(reflection(alpha), lam, b0)


def test_singular_vector_rejects_nonpositive_pairing():
    p = P(2, 1)
    with pytest.raises(ValueError):
        singular_vector_even(
            distinguished(p), weight_from_coords(p, [0, 3], [5]), Root(p, 1, 2)
        )


def test_primitive_space_dims():
    p = P(2, 1)
    b0 = distinguished(p)
    lam = weight_from_coords(p, [2, 0], [5])
    assert primitive_space_dim(b0, lam, lam) == 1
    alpha = Root(p, 1, 2)
    mu = dot_action(reflection(alpha), lam, b0)
    assert primitive_space_dim(b0, lam, mu) == 1


def test_primitive_space_dim_verma_transport():
    # matched highest weights: one-dimensional primitive space in every pair
    rng = random.Random(11)
    for m, n in [(2, 1), (1, 2)]:
        p = P(m, n)
        borels = enumerate_borels(p)
        for _ in range(4):
            lam = Weight(p, tuple(rng.randint(-3, 3) for _ in range(p.dim)))
            for b in borels:
                for b2 in borels:
                    mu = lam - rho_b(b)
                    module = VermaModule(b2, lam - rho_b(b2))
                    dim = primitive_space_dim(
                        b2, lam - rho_b(b2), mu, annihilating_borel=b, module=module
                    )
                    assert dim == 1


# -- the odd product --------------------------------------------------------------


def test_e_g1_single_monomial():
    for m, n in [(1, 1), (2, 1), (2, 2)]:
        p = P(m, n)
        lam = weight_from_blocks(p, [1] * m, [-1] * n)
        v = e_g1_apply(lam)
        assert v.weight == lam
        assert len(v.terms) == 1
        coeff = next(iter(v.terms.values()))
        assert abs(coeff) == 1


def test_e_g1_order_independence():
    p21 = P(2, 1)
    lam = weight_from_coords(p21, [3, 0], [3])
    assert eg1_order_independence(lam, trials=3, seed=1)
    p22 = P(2, 2)
    lam22 = weight_from_coords(p22, [7, 2], [2, 7])
    assert eg1_order_independence(lam22, trials=4, seed=2)
    # explicit ratio for two orders in gl(2|1): odd factors anticommute
    module = antidistinguished_module(lam)
    base = e_g1_apply(lam, module)
    swapped = e_g1_apply(lam, module, order=[(2, 3), (1, 3)])
    assert swapped.proportionality(base) in (Fraction(1), Fraction(-1))


def test_eg1_centralizes():
    p11 = P(1, 1)
    assert eg1_centralizes(weight_from_blocks(p11, [2], [0]), 2)
    p21 = P(2, 1)
    assert eg1_centralizes(weight_from_coords(p21, [3, 0], [3]), 2)
    p22 = P(2, 2)
    assert eg1_centralizes(weight_from_coords(p22, [7, 2], [2, 7]), 2)


# -- narrow submodule ranks ----------------------------------------------------------


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
    p = P(2, 1)
    lam = weight_from_coords(p, [3, 0], [3])
    ranks = narrow_image_dims(lam, 3)
    chart = char_narrow(lam, 3, warn=False)
    assert ranks == {nu: chart.coeff(nu) for nu in ranks}


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


def test_narrow_image_window_guard():
    p = P(2, 1)
    lam = weight_from_coords(p, [3, 0], [3])
    with pytest.raises(EnumerationBound):
        narrow_image_dims(lam, 3, max_cells=2)


def test_narrow_image_window_env_guard(monkeypatch):
    monkeypatch.setenv("SUPERCHAR_MAX_CELLS", "2")
    p = P(2, 1)
    lam = weight_from_coords(p, [3, 0], [3])
    with pytest.raises(EnumerationBound):
        narrow_image_dims(lam, 3)


def test_submodule_growth_of_whole_verma():
    # seeding with the highest vector recovers full weight spaces
    p = P(2, 1)
    lam = weight_from_blocks(p, [1, 0], [2])
    b0 = distinguished(p)
    module = VermaModule(b0, lam)
    ranks = submodule_weight_ranks(module, [module.highest_vector()], lam, 3)
    chart = char_verma(b0, lam, 3)
    assert ranks == {nu: chart.coeff(nu) for nu in ranks}


# -- square commutation ---------------------------------------------------------------


def test_bgg_square_check():
    p21 = P(2, 1)
    lam = weight_from_coords(p21, [3, 0], [3])
    s = reflection(Root(p21, 1, 2))
    assert bgg_square_check(lam, s, 3)
    p12 = P(1, 2)
    lam12 = weight_from_coords(p12, [3], [0, 3])
    s12 = reflection(Root(p12, 2, 3))
    assert bgg_square_check(lam12, s12, 3)


def test_bgg_square_check_identity_and_errors():
    p = P(2, 1)
    lam = weight_from_coords(p, [3, 0], [3])
    from superchar.rootdata import identity_weyl, longest_element

    assert bgg_square_check(lam, identity_weyl(p), 3)
    p22 = P(2, 2)
    with pytest.raises(ValueError):
        bgg_square_check(
            weight_from_coords(p22, [9, 1], [2, 8]), longest_element(p22), 2
        )


# -- linear algebra helper ----------------------------------------------------------


def test_row_basis_incremental():
    basis = RowBasis(3)
    assert basis.insert([1, 2, 3])
    assert basis.insert([0, 1, 1])
    assert not basis.insert([1, 3, 4])
    assert basis.rank == 2
    assert basis.contains([2, 5, 7])
    assert matrix_rank([[1, 2, 3], [0, 1, 1], [1, 3, 4]]) == 2
    assert matrix_rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3), Fraction(5)]]) == 2
    assert matrix_rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3), Fraction(2)]]) == 1


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda width: st.lists(
            st.lists(st.integers(-3, 3), min_size=width, max_size=width), min_size=1, max_size=5
        )
    )
)
def test_rank_matches_sympy(rows):
    expected = sympy.Matrix(rows).rank()
    basis = RowBasis(len(rows[0]))
    for row in rows:
        basis.insert(row)
    assert matrix_rank(rows) == basis.rank == expected


def test_pbw_monomial_view():
    p = P(2, 1)
    lam = weight_from_coords(p, [3, 0], [3])
    module = VermaModule(distinguished(p), lam)
    mono = module.weight_space_monomials(lam - Root(p, 1, 3).as_weight())[0]
    view = module.describe(mono)
    assert view.borel == module.borel
    assert view.weight == module.mono_weight(mono)
    assert view.length == sum(mono)
    assert all(root in module.pbw_roots for root in view.as_dict())
