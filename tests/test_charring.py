import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superchar.borels import antidistinguished, distinguished, enumerate_borels
from superchar.charring import (
    DepthError,
    FormalChar,
    GammaSet,
    char_even_simple,
    char_even_verma,
    char_kac,
    char_narrow,
    char_restriction_decomposition,
    char_simple_td,
    char_verma,
    gamma_set,
    monomial,
)
from superchar.rootdata import (
    RankProfile,
    Root,
    Weight,
    basis_weight,
    dot_action,
    even_positive_roots,
    odd_positive_roots,
    rho_b,
    weight_from_blocks,
    weight_from_coords,
    weyl_group,
    zero_weight,
)


def P(m, n):
    return RankProfile(m, n)


def random_char(rng, p, top_shift, depth):
    top = Weight(p, tuple(rng.randint(-2, 2) for _ in range(p.dim)))
    f = monomial(top, depth)
    roots = list(even_positive_roots(p)) + list(odd_positive_roots(p))
    for _ in range(3):
        f = f.mul_unit(rng.choice(roots), rng.choice([1, -1]))
    return f


# -- series ring ---------------------------------------------------------------


def test_unit_divide_multiply_round_trip():
    p = P(2, 1)
    lam = weight_from_blocks(p, [2, 0], [-1])
    f = char_verma(distinguished(p), lam, 5)
    for root in list(even_positive_roots(p)) + list(odd_positive_roots(p)):
        for sign in (1, -1):
            assert f.div_unit(root, sign).mul_unit(root, sign).equals(f)
            assert f.mul_unit(root, sign).div_unit(root, sign).equals(f)


def test_unit_inverse_of_constant():
    p = P(2, 1)
    beta = Root(p, 1, 3)
    one = monomial(zero_weight(p), 5)
    g = one.mul_unit(beta, 1).div_unit(beta, 1)
    assert g.equals(one)
    assert g.coeffs == {zero_weight(p): 1}


def test_geometric_series():
    p = P(2, 1)
    gamma = Root(p, 1, 2)
    one = monomial(zero_weight(p), 3)
    g = one.div_unit(gamma, -1)
    gw = gamma.as_weight()
    expected = {zero_weight(p): 1}
    for k in (1, 2, 3):
        expected[(-k) * gw] = 1
    assert g.coeffs == expected


def test_monomial_product():
    p = P(1, 1)
    lam = weight_from_blocks(p, [2], [1])
    mu = weight_from_blocks(p, [-1], [3])
    f = monomial(lam, 4) * monomial(mu, 4)
    assert f.coeffs == {lam + mu: 1}


def test_ring_laws_on_random_series():
    rng = random.Random(41)
    p = P(2, 1)
    for _ in range(10):
        a = random_char(rng, p, 0, 4)
        b = random_char(rng, p, 0, 4)
        c = random_char(rng, p, 0, 4)
        assert (a + b).equals(b + a)
        assert ((a + b) + c).equals(a + (b + c))
        assert (a * b).equals(b * a)
        assert ((a * b) * c).equals(a * (b * c))
        assert (a * (b + c)).equals(a * b + a * c)


@st.composite
def random_series(draw):
    """Three series on one window profile, each a monomial times unit factors."""
    p = draw(st.sampled_from(WINDOW_PROFILES))
    roots = list(even_positive_roots(p)) + list(odd_positive_roots(p))

    def series():
        top = Weight(p, tuple(draw(st.lists(st.integers(-2, 2), min_size=p.dim, max_size=p.dim))))
        f = monomial(top, draw(st.integers(0, 4)))
        for _ in range(3):
            f = f.mul_unit(draw(st.sampled_from(roots)), draw(st.sampled_from([1, -1])))
        return f

    return roots, series(), series(), series()


@settings(max_examples=40, deadline=None)
@given(random_series())
def test_ring_laws_property(case):
    roots, a, b, c = case
    assert (a + b).equals(b + a)
    assert ((a + b) + c).equals(a + (b + c))
    assert (a * b).equals(b * a)
    assert ((a * b) * c).equals(a * (b * c))
    assert (a * (b + c)).equals(a * b + a * c)
    for beta in roots:
        for sign in (1, -1):
            assert a.mul_unit(beta, sign).div_unit(beta, sign).equals(a)


def test_divide_rejects_nonpositive_direction():
    p = P(1, 1)
    f = monomial(zero_weight(p), 3)
    with pytest.raises(ValueError):
        f.div_unit(Root(p, 2, 1), 1)  # delta-minus-eps direction


def test_coeff_query_below_floor_raises():
    p = P(1, 1)
    lam = zero_weight(p)
    f = char_verma(distinguished(p), lam, 1)
    deep = lam - 5 * Root(p, 1, 2).as_weight()
    with pytest.raises(DepthError):
        f.coeff(deep)


def test_retruncate_refuses_deeper():
    p = P(1, 1)
    f = char_verma(distinguished(p), zero_weight(p), 2)
    assert f.retruncate(1).depth == 1
    with pytest.raises(DepthError):
        f.retruncate(3)


def test_serialization_round_trip_and_order():
    p = P(2, 1)
    lam = weight_from_coords(p, [3, 0], [3])
    f = char_verma(distinguished(p), lam, 4)
    obj = f.to_json_obj()
    assert obj["terms"][0]["coeff"] == "1"
    levels = [Weight(p, tuple(t["weight"])).xi for t in obj["terms"]]
    assert levels == sorted(levels, reverse=True)
    g = FormalChar.from_json_obj(json.loads(json.dumps(obj)))
    assert g.equals(f) and g.top == f.top and g.depth == f.depth


# -- Verma characters ------------------------------------------------------------


def test_char_verma_gl11():
    p = P(1, 1)
    lam = weight_from_blocks(p, [3], [-1])
    f = char_verma(distinguished(p), lam, 3)
    beta = Root(p, 1, 2).as_weight()
    assert f.coeffs == {lam: 1, lam - beta: 1}


def test_char_verma_gl21_first_layer():
    p = P(2, 1)
    lam = weight_from_blocks(p, [1, 0], [0])
    f = char_verma(distinguished(p), lam, 2)
    assert f.coeff(lam - Root(p, 1, 2).as_weight()) == 1


def test_char_verma_borel_shift_gl11():
    p = P(1, 1)
    two_rho1 = Root(p, 1, 2).as_weight()
    lam = weight_from_blocks(p, [4], [2])
    a = char_verma(distinguished(p), lam, 4)
    b = char_verma(antidistinguished(p), lam - two_rho1, 4)
    assert a.equals(b)


def test_character_shift_equalities_and_converse():
    rng = random.Random(43)
    for m, n in [(1, 1), (2, 1)]:
        p = P(m, n)
        borels = enumerate_borels(p)
        for _ in range(5):
            lam = Weight(p, tuple(rng.randint(-4, 4) for _ in range(p.dim)))
            charts = {b: char_verma(b, lam - rho_b(b), 6) for b in borels}
            for b1 in borels:
                for b2 in borels:
                    assert charts[b1].equals(charts[b2])
                    target = lam - rho_b(b1)
                    if target.xi >= charts[b2].floor:
                        assert charts[b2].coeff(target) == 1
            # mismatched shift has a different top term
            shifted = char_verma(borels[0], lam + basis_weight(p, 1) - rho_b(borels[0]), 6)
            assert not shifted.equals(charts[borels[0]])


# -- even simple and Kac characters ------------------------------------------------


def test_char_even_simple_trivial():
    p = P(2, 1)
    f = char_even_simple(zero_weight(p), 6)
    assert f.coeffs == {zero_weight(p): 1}


def test_char_even_simple_standard_rep():
    p = P(2, 1)
    mu = weight_from_blocks(p, [1, 0], [0])
    f = char_even_simple(mu, 8)
    e2 = weight_from_blocks(p, [0, 1], [0])
    assert f.coeffs == {mu: 1, e2: 1}
    assert sum(f.coeffs.values()) == 2


def test_char_even_simple_rejects_non_dominant():
    p = P(2, 1)
    with pytest.raises(ValueError):
        char_even_simple(weight_from_blocks(p, [0, 1], [0]), 4)


def test_char_even_simple_nonnegative():
    rng = random.Random(47)
    p = P(2, 2)
    for _ in range(5):
        a = sorted([rng.randint(-3, 3) for _ in range(2)], reverse=True)
        b = sorted([rng.randint(-3, 3) for _ in range(2)], reverse=True)
        mu = weight_from_blocks(p, a, b)
        f = char_even_simple(mu, 6)
        assert f.coeff(mu) == 1
        assert all(v >= 0 for v in f.coeffs.values())


def test_char_kac_gl11():
    p = P(1, 1)
    f = char_kac(zero_weight(p), 4)
    beta = Root(p, 1, 2).as_weight()
    assert f.coeffs == {zero_weight(p): 1, -1 * beta: 1}


def test_char_kac_gl21_coefficient():
    p = P(2, 1)
    f = char_kac(zero_weight(p), 4)
    assert f.coeff(-1 * Root(p, 1, 3).as_weight()) == 1


def test_char_kac_equals_verma_for_rank_one_blocks():
    p = P(1, 1)
    for t in (-2, 0, 3):
        mu = weight_from_blocks(p, [t], [t + 1])
        assert char_kac(mu, 5).equals(char_verma(distinguished(p), mu, 5))


def test_kac_of_even_verma_is_whole_verma():
    # inducing the even Verma gives the distinguished Verma at character level
    p = P(2, 1)
    lam = weight_from_blocks(p, [2, -1], [1])
    f = char_even_verma(lam, 6)
    for beta in odd_positive_roots(p):
        f = f.mul_unit(beta, 1)
    assert f.equals(char_verma(distinguished(p), lam, 6))


# -- narrow and simple characters ----------------------------------------------------


def test_gamma_set_validation():
    p = P(2, 2)
    lam = weight_from_coords(p, [5, 2], [2, 5])
    gs = gamma_set(lam)
    assert len(gs) == 2
    with pytest.raises(ValueError):
        GammaSet(frozenset({Root(p, 1, 3), Root(p, 1, 4)}))


def test_char_narrow_typical_equals_verma():
    p = P(2, 1)
    lam = weight_from_coords(p, [3, 0], [7])
    assert char_narrow(lam, 5, warn=False).equals(char_verma(distinguished(p), lam, 5))


def test_char_narrow_gl11_atypical_is_monomial():
    p = P(1, 1)
    lam = weight_from_coords(p, [4], [4])
    f = char_narrow(lam, 5, warn=False)
    assert f.coeffs == {lam: 1}


def test_char_narrow_gl21_coefficients():
    # the atypical direction re-enters through gamma + even combinations:
    # eps1-delta1 = (eps1-eps2) + (eps2-delta1), so the coefficient is 1
    p = P(2, 1)
    lam = weight_from_coords(p, [3, 0], [3])
    f = char_narrow(lam, 4, warn=False)
    beta1 = Root(p, 1, 3).as_weight()
    assert f.coeff(lam - beta1) == 1
    # at depth 1 that weight is below the window
    shallow = char_narrow(lam, 1, warn=False)
    with pytest.raises(DepthError):
        shallow.coeff(lam - beta1)


def test_char_narrow_warns_when_not_generic():
    p = P(2, 1)
    lam = weight_from_coords(p, [2, 1], [5])
    with pytest.warns(UserWarning):
        char_narrow(lam, 3)


def test_char_simple_td_gl11():
    p = P(1, 1)
    f = char_simple_td(zero_weight(p), 4)
    assert f.coeffs == {zero_weight(p): 1}


def test_char_simple_td_typical_is_alternating_verma_sum():
    p = P(2, 1)
    lam = weight_from_coords(p, [3, 0], [7])
    f = char_simple_td(lam, 6)
    total = None
    for w in weyl_group(p):
        term = char_verma(distinguished(p), dot_action(w, lam), 6 - (lam.xi - dot_action(w, lam).xi)).scale(w.sign)
        total = term if total is None else total + term
    assert f.equals(total)


def test_char_simple_td_normalization():
    p = P(2, 1)
    lam = weight_from_coords(p, [3, 0], [3])
    f = char_simple_td(lam, 6)
    assert f.coeff(lam) == 1
    assert all(v >= 0 for v in f.coeffs.values())


def test_char_simple_td_rejects_bad_input():
    p = P(2, 1)
    with pytest.raises(ValueError):
        char_simple_td(weight_from_coords(p, [0, 3], [5]), 4)  # not dominant
    p22 = P(2, 2)
    with pytest.raises(ValueError):
        char_simple_td(weight_from_coords(p22, [3, 2], [2, 3]), 4)  # not disconnected


# -- restriction decomposition ---------------------------------------------------------


def test_restriction_decomposition_counts():
    p11 = P(1, 1)
    lam = weight_from_blocks(p11, [2], [0])
    summands = char_restriction_decomposition(distinguished(p11), lam, 4)
    beta = Root(p11, 1, 2).as_weight()
    assert summands == [(lam, 1), (lam - beta, 1)]

    p21 = P(2, 1)
    lam = weight_from_blocks(p21, [1, 0], [0])
    assert len(char_restriction_decomposition(distinguished(p21), lam, 4)) == 4

    p22 = P(2, 2)
    lam = weight_from_blocks(p22, [1, 0], [0, -1])
    summands = char_restriction_decomposition(distinguished(p22), lam, 3)
    assert sum(mult for _, mult in summands) == 16


def test_restriction_decomposition_other_borel():
    p = P(2, 1)
    lam = weight_from_blocks(p, [2, 0], [1])
    for b in enumerate_borels(p):
        summands = char_restriction_decomposition(b, lam, 4)
        assert sum(mult for _, mult in summands) == 4


def test_char_simple_td_against_word_rank_oracle():
    # independent route: dim L(lam)_nu = rank of the raising-word functionals
    # M_nu -> M_lam, with no character formula involved
    from fractions import Fraction

    from superchar.vermacalc import VermaModule, cone_weights_below
    from superchar.linalg import matrix_rank

    for p, eps, delta, depth in [
        (P(1, 1), [4], [4], 3),
        (P(2, 1), [3, 0], [3], 4),
        (P(2, 1), [4, 1], [9], 4),
    ]:
        lam = weight_from_coords(p, eps, delta)
        b0 = distinguished(p)
        module = VermaModule(b0, lam)
        simples = [(r.i, r.j) for r in b0.simple_roots()]

        def raising_words(target):
            words = []

            def rec(word, remaining):
                if remaining.is_zero():
                    words.append(tuple(word))
                    return
                for x in simples:
                    rest = remaining - Root(p, x[0], x[1]).as_weight()
                    if rest.xi >= 0:
                        word.append(x)
                        rec(word, rest)
                        word.pop()

            rec([], target)
            return words

        chart = char_simple_td(lam, depth)
        for nu in cone_weights_below(lam, depth):
            monos = module.weight_space_monomials(nu)
            if not monos:
                assert chart.coeff(nu) == 0
                continue
            rows = []
            for word in raising_words(lam - nu):
                row = []
                for mono in monos:
                    out = module.apply_word(word, module.element({mono: 1}))
                    row.append(out.terms.get(module.zero_mono, Fraction(0)))
                rows.append(row)
            rank = matrix_rank(rows) if rows else len(monos)
            assert rank == chart.coeff(nu), (nu, rank, chart.coeff(nu))


# -- window monotonicity -----------------------------------------------------
# Computing at depth D and retruncating to D' < D must give exactly the
# series computed at D' directly: the unit-factor products never lose a
# coefficient near the floor, whichever formula feeds them.

WINDOW_PROFILES = (P(1, 1), P(2, 1), P(1, 2), P(2, 2))


@st.composite
def windowed_weights(draw, dominant=False):
    """(weight, D, D') on a small profile, with 0 <= D' < D <= 4."""
    p = draw(st.sampled_from(WINDOW_PROFILES))
    eps = draw(st.lists(st.integers(-3, 3), min_size=p.m, max_size=p.m))
    delta = draw(st.lists(st.integers(-3, 3), min_size=p.n, max_size=p.n))
    if dominant:
        eps, delta = sorted(eps, reverse=True), sorted(delta, reverse=True)
    deep = draw(st.integers(1, 4))
    shallow = draw(st.integers(0, deep - 1))
    return weight_from_blocks(p, eps, delta), deep, shallow


def assert_window_monotone(build, deep, shallow):
    wide, direct = build(deep), build(shallow)
    assert wide.top == direct.top
    assert wide.retruncate(shallow).equals(direct)


@settings(max_examples=30, deadline=None)
@given(windowed_weights(), st.data())
def test_window_monotone_char_verma(case, data):
    lam, deep, shallow = case
    b = data.draw(st.sampled_from(enumerate_borels(lam.profile)))
    assert_window_monotone(lambda d: char_verma(b, lam, d), deep, shallow)


@settings(max_examples=30, deadline=None)
@given(windowed_weights())
def test_window_monotone_char_even_verma(case):
    mu, deep, shallow = case
    assert_window_monotone(lambda d: char_even_verma(mu, d), deep, shallow)


@settings(max_examples=30, deadline=None)
@given(windowed_weights(dominant=True))
def test_window_monotone_char_kac(case):
    mu, deep, shallow = case
    assert_window_monotone(lambda d: char_kac(mu, d), deep, shallow)


@settings(max_examples=30, deadline=None)
@given(windowed_weights())
def test_window_monotone_char_narrow(case):
    lam, deep, shallow = case
    assert_window_monotone(lambda d: char_narrow(lam, d, warn=False), deep, shallow)
