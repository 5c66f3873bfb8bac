import contextlib
import itertools
import json
import operator
import random
from collections import Counter
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from superchar import bggcheck, charring
from superchar.bggcheck import character_shift_sweep, euler_check
from superchar.borels import antidistinguished, distinguished, enumerate_borels
from superchar.charring import (
    ConsistencyError,
    DepthError,
    FormalChar,
    _units,
    char_even_simple,
    char_kac,
    char_narrow,
    char_simple_td,
    char_verma,
    monomial,
    zero_char,
)
from superchar.diagrams import is_totally_disconnected
from superchar.rootdata import (
    ProfileMismatch,
    RankProfile,
    Record,
    Root,
    Weight,
    atypical_roots,
    basis_weight,
    classify,
    dot_action,
    even_positive_roots,
    odd_positive_roots,
    pairing,
    rho,
    rho_b,
    weight_from_blocks,
    weight_from_coords,
    weyl_group,
    weyl_window,
    zero_weight,
)


def P(m, n):
    return RankProfile(m, n)


@contextlib.contextmanager
def emptied_series_stores():
    """charring's kept series (ch M(0) per profile, the narrow product per
    atypical set) emptied, and restored on exit."""
    with patch.dict(charring._VERMA_AT_ZERO, clear=True), patch.dict(charring._NARROW_AT_ZERO, clear=True):
        yield


@pytest.fixture
def cold_stores():
    """A test that names a cold path runs it, whatever ran before it."""
    with emptied_series_stores():
        yield


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


def test_unit_factor_with_zero_sign_is_identity():
    p = P(2, 1)
    f = char_verma(distinguished(p), weight_from_blocks(p, [2, 0], [-1]), 4)
    for root in list(even_positive_roots(p)) + list(odd_positive_roots(p)):
        assert dict(f.mul_unit(root, 0).coeffs.items()) == dict(f.coeffs.items())
        assert dict(f.div_unit(root, 0).coeffs.items()) == dict(f.coeffs.items())


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
    f = monomial(lam, 4).mul(monomial(mu, 4))
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
        assert a.mul(b).equals(b.mul(a))
        assert a.mul(b).mul(c).equals(a.mul(b.mul(c)))
        assert a.mul(b + c).equals(a.mul(b) + a.mul(c))


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
    assert a.mul(b).equals(b.mul(a))
    assert a.mul(b).mul(c).equals(a.mul(b.mul(c)))
    assert a.mul(b + c).equals(a.mul(b) + a.mul(c))
    for beta in roots:
        for sign in (1, -1):
            assert a.mul_unit(beta, sign).div_unit(beta, sign).equals(a)


def assert_level_store(f):
    """Each key of f is a packed offset inside the box, within the spread
    of its level, and its xi-drop below the top is that level, inside the
    window; no coefficient is zero and no level is empty, and `coeffs`
    shows exactly these terms."""
    p = f.profile
    rebuilt = {}
    for drop, terms in f._levels.items():
        assert terms, f"empty level {drop}"
        assert 0 <= drop <= f.depth
        for k, v in terms.items():
            assert v != 0
            offset = charring._unpack(k, p.dim)
            assert charring._pack(offset) == k  # k is the packing of a box offset
            assert max(map(abs, offset)) <= f._spread + drop < charring._HALF
            assert -sum(map(operator.mul, offset, p.xi)) == drop
            rebuilt[Weight(p, tuple(map(operator.add, f.top.coeffs, offset)))] = v
    assert dict(f.coeffs.items()) == rebuilt
    assert len(f.coeffs) == len(rebuilt)
    assert sorted(f.coeffs.values()) == sorted(rebuilt.values())


@settings(max_examples=40, deadline=None)
@given(random_series())
def test_level_store_invariant_property(case):
    roots, a, b, c = case
    results = [a + b, a + b.scale(-1), a + a.scale(-1), a.scale(-1), a.scale(3), a.scale(0)]
    results += [a.mul(b), a.mul(c)]
    results += [a.retruncate(d) for d in range(a.depth + 1)]
    for beta in roots:
        for sign in (1, -1):
            results += [a.mul_unit(beta, sign), a.div_unit(beta, sign)]
    for f in results:
        assert_level_store(f)
    assert not (a + a.scale(-1)).coeffs
    with pytest.raises(TypeError):
        a.coeffs[a.top] = 1


def test_window_checks():
    """The public constructor rejects out-of-window terms with ValueError;
    a ring result outside its window is a ConsistencyError."""
    p = P(2, 1)
    top = weight_from_blocks(p, [1, 0], [0])
    gamma = Root(p, 1, 2).as_weight()
    assert FormalChar(p, top, 2, {top: 1, top + gamma: 0}).coeffs == {top: 1}
    for w in (top + gamma, top - 3 * gamma):
        with pytest.raises(ValueError, match="outside the window"):
            FormalChar(p, top, 2, {w: 1})
    with pytest.raises(ConsistencyError, match="outside the window"):
        FormalChar._make(p, top, 2, {top.xi + 1: {(top + gamma).coeffs: 1}})


# -- packed keys ------------------------------------------------------------------

@st.composite
def box_offsets(draw):
    """An offset in the packing box and two in its half, of one length."""
    dim, half = draw(st.integers(1, 12)), charring._HALF

    def offset(bound):
        return tuple(draw(st.lists(st.integers(1 - bound, bound - 1), min_size=dim, max_size=dim)))

    return dim, offset(half), offset(half // 2), offset(half // 2)


@settings(max_examples=200, deadline=None)
@given(box_offsets())
def test_packing_round_trip_linearity_and_order(case):
    dim, o, a, b = case
    assert charring._unpack(charring._pack(o), dim) == o
    total = tuple(map(operator.add, a, b))
    assert charring._pack(a) + charring._pack(b) == charring._pack(total)
    assert charring._unpack(charring._pack(a) + charring._pack(b), dim) == total
    # in the box, keys order as their offsets: sorted_terms relies on it
    assert (charring._pack(a) < charring._pack(b)) == (a < b)


def _aliasing_offset(p):
    """A nonzero offset of xi 0 that packs to 0, far outside the box: a
    weight moved by it lands on the same level and the same key."""
    r = charring._RADIX
    # v_i = r e_i - e_{i-1} packs to 0; combine v_1 and v_2 so that xi cancels
    v1 = [0] * p.dim
    v1[0], v1[1] = -1, r
    v2 = [0] * p.dim
    v2[1], v2[2] = -1, r
    xi1, xi2 = (sum(map(operator.mul, v, p.xi)) for v in (v1, v2))
    c = tuple(xi2 * x - xi1 * y for x, y in zip(v1, v2))
    assert any(c) and charring._pack(c) == 0 and sum(map(operator.mul, c, p.xi)) == 0
    return Weight(p, c)


def test_aliased_weight_reads_zero():
    for p in (P(2, 1), P(2, 2), P(3, 3)):
        c = _aliasing_offset(p)
        f = char_verma(distinguished(p), Weight(p, tuple(range(p.dim))), 4)
        assert len(f.coeffs) > 1
        for w in list(f.coeffs):
            # w + c reads w's level and w's key, which holds a nonzero coefficient
            aliased = w + c
            assert aliased.xi == w.xi
            assert charring._pack((aliased - f.top).coeffs) in f._levels[f.top.xi - w.xi]
            assert f.coeff(aliased) == 0 and f.coeff(w - c) == 0
            assert aliased not in f.coeffs


def test_constructor_refuses_a_deep_window_and_a_far_term():
    p = P(2, 1)
    top = weight_from_blocks(p, [1, 0], [0])
    flat = Weight(p, (1, -2, 1))  # xi 0: a term at the top's level
    assert FormalChar(p, top, charring._BOUND - 1, {}).depth == charring._BOUND - 1
    with pytest.raises(ValueError, match="below"):
        FormalChar(p, top, charring._BOUND, {})
    k = charring._BOUND // 2
    near = FormalChar(p, top, 2, {top: 1, top + (k - 1) * flat: 5})
    assert near.coeff(top + (k - 1) * flat) == 5
    assert_level_store(near)
    with pytest.raises(ValueError, match="from the top"):
        FormalChar(p, top, 2, {top: 1, top + k * flat: 5})
    with pytest.raises(ValueError, match="from the top"):
        FormalChar(p, top, 2, {top - k * flat: 5})


def test_far_apart_tops_raise_instead_of_aliasing():
    p = P(2, 1)
    top = weight_from_blocks(p, [1, 0], [0])
    flat = Weight(p, (1, -2, 1))
    a = monomial(top, 3).mul_unit(Root(p, 1, 2), -1)
    near = monomial(top + (charring._BOUND // 2) * flat, 3)
    total = a + near
    assert dict(total.coeffs.items()) == {**dict(a.coeffs.items()), **dict(near.coeffs.items())}
    assert_level_store(total)
    assert not a.equals(near) and (a + near).equals(near + a)
    far = monomial(top + (charring._HALF // 2) * flat, 3)
    for x, y in ((a, far), (far, a)):
        with pytest.raises(charring.PackingError):
            x + y
        with pytest.raises(charring.PackingError):
            x.equals(y)
        with pytest.raises(charring.PackingError):
            x.first_discrepancy(y)


# -- equal tops -----------------------------------------------------------------


def _flat(p):
    """e_1 - 2 e_2 + e_3: an offset of xi 0 and max |offset_i| 2."""
    return Weight(p, (1, -2, 1) + (0,) * (p.dim - 3))


@st.composite
def one_top_series(draw):
    """Three series with one top on gl(2|1), gl(2|2) or gl(3|2): a and b
    share their terms but not their depth or spread, c has its own terms.
    Each is a monomial, widened to spread 2j by adding a monomial at
    top - j * flat (and for a and b taking it away again), then unit
    steps."""
    p = draw(st.sampled_from([P(2, 1), P(2, 2), P(3, 2)]))
    top = Weight(p, tuple(draw(st.lists(st.integers(-2, 2), min_size=p.dim, max_size=p.dim))))
    roots = list(even_positive_roots(p)) + list(odd_positive_roots(p))
    step = st.tuples(st.sampled_from(roots), st.sampled_from([1, -1]), st.booleans())

    def series(depth, j, steps, keep=False):
        f = monomial(top, depth)
        if j:
            far = monomial(top - j * _flat(p), depth)
            f = f + far if keep else (f + far) + far.scale(-1)
        for beta, sign, divide in steps:
            f = f.div_unit(beta, sign) if divide else f.mul_unit(beta, sign)
        assert (f.top, f.depth, f._spread) == (top, depth, 2 * j)
        return f

    d1, d2 = draw(st.lists(st.integers(0, 5), min_size=2, max_size=2, unique=True))
    j1, j2 = draw(st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True))
    steps = draw(st.lists(step, max_size=4))
    other = draw(st.lists(step, max_size=4))
    c = series(draw(st.integers(0, 5)), draw(st.integers(0, 3)), other, keep=True)
    return series(d1, j1, steps), series(d2, j2, steps), c


def _window(f, floor):
    """f's terms at or above the xi-level floor, as {Weight: int}."""
    return {w: v for w, v in f.coeffs.items() if w.xi >= floor}


def _oracle_discrepancy(x, y):
    floor = max(x.floor, y.floor)
    mine, theirs = _window(x, floor), _window(y, floor)
    differ = [w for w in mine.keys() | theirs.keys() if mine.get(w, 0) != theirs.get(w, 0)]
    if not differ:
        return None
    w = min(differ, key=lambda w: (w.xi, w.coeffs))
    return w, mine.get(w, 0), theirs.get(w, 0)


def _changed(f, w, delta):
    return FormalChar(f.profile, f.top, f.depth, {**dict(f.coeffs.items()), w: f._get(w) + delta})


@settings(max_examples=60, deadline=None)
@given(one_top_series(), st.data())
def test_equal_tops_agree_with_a_term_by_term_oracle(case, data):
    a, b, c = case
    for x, y in ((a, b), (b, a), (a, c), (c, b)):
        floor = max(x.floor, y.floor)
        mine, theirs = _window(x, floor), _window(y, floor)
        assert x.equals(y) == (mine == theirs)
        total = x + y
        assert (total.top, total.depth) == (x.top, min(x.depth, y.depth))
        expected = {w: mine.get(w, 0) + theirs.get(w, 0) for w in mine.keys() | theirs.keys()}
        assert dict(total.coeffs.items()) == {w: v for w, v in expected.items() if v}
        assert_level_store(total)
        assert x.first_discrepancy(y) == _oracle_discrepancy(x, y)
    assert a.equals(b) and b.equals(a) and a.first_discrepancy(b) is None
    # a change inside the common window is found; one below it is not
    shallow, deep = sorted((a, b), key=lambda f: f.depth)
    top, alpha = a.top, Root(a.profile, 1, 2).as_weight()  # xi(alpha) = 1
    delta = data.draw(st.sampled_from([-2, -1, 1, 2]))
    inside = top - data.draw(st.integers(0, shallow.depth)) * alpha
    below = top - data.draw(st.integers(shallow.depth + 1, deep.depth)) * alpha
    for x, y in ((shallow, _changed(deep, inside, delta)), (_changed(shallow, inside, delta), deep)):
        assert not x.equals(y) and not y.equals(x)
        assert x.first_discrepancy(y) == (inside, x._get(inside), y._get(inside))
    changed = _changed(deep, below, delta)
    assert shallow.equals(changed) and changed.equals(shallow)
    assert shallow.first_discrepancy(changed) is None
    assert (shallow + changed).equals(shallow.scale(2))


def test_equal_tops_pack_no_key(monkeypatch):
    """Two series with one top are compared and added as they are stored:
    no offset is packed, whatever their depths and spreads."""
    p = P(2, 2)
    lam = weight_from_blocks(p, [3, 1], [0, -2])
    far = monomial(lam - 2 * _flat(p), 5)
    a = char_verma(distinguished(p), lam, 5)
    b = (char_verma(distinguished(p), lam, 3) + far) + far.scale(-1)
    assert (a.top, a._spread) == (b.top, 0) and b._spread == 4
    packed = []
    original = charring._pack

    def counting(offset):
        packed.append(offset)
        return original(offset)

    monkeypatch.setattr(charring, "_pack", counting)
    assert a.equals(b) and b.equals(a) and a.equals(a)
    assert (a + b).equals(b.scale(2)) and (a + a).equals(a.scale(2))
    assert a.first_discrepancy(b) is None
    assert packed == []
    assert not a.equals(far)  # different tops: the general path packs both offsets
    assert len(packed) == 2


def test_constructor_refuses_another_profile():
    # gl(2|1) and gl(1|2) weights have the same length, so only the check tells them apart
    p, q = P(2, 1), P(1, 2)
    top = weight_from_blocks(p, [3, 0], [0])
    stranger = Weight(q, (3, 0, 0))
    with pytest.raises(ProfileMismatch):
        FormalChar(p, stranger, 4, {})
    with pytest.raises(ProfileMismatch):
        FormalChar(p, top, 4, {stranger: 1})
    with pytest.raises(ProfileMismatch):
        zero_char(p, stranger, 4)


def even_verma(lam, depth):
    """The even Verma character e^lam / prod (1-e^{-gamma})."""
    return _units(monomial(lam, depth), even=even_positive_roots(lam.profile))


def test_ring_operations_build_no_weight_per_term(monkeypatch):
    """div_unit, mul_unit, mul, + and equals build a fixed number of
    Weights, however many terms their operands hold; a unit step builds
    none, even with its root's packed step not yet cached."""
    p = P(2, 2)
    lam = weight_from_blocks(p, [3, 1], [0, -2])
    beta = Root(p, 1, 3)
    built_by_depth = []
    for depth in (8, 10):
        f = char_verma(distinguished(p), lam, depth)
        g = even_verma(lam, depth)
        assert len(f.coeffs) >= 100
        built = []
        original = Weight.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        with monkeypatch.context() as patch:
            patch.setattr(Weight, "__post_init__", counting)
            patch.setattr(charring, "_STEPS", {})
            f.div_unit(beta, 1)
            f.mul_unit(beta, -1)
            assert built == []
            f.mul(g)
            f + g
            f.equals(g)
        built_by_depth.append(len(built))
    assert built_by_depth[0] == built_by_depth[1] <= 5


def test_divide_rejects_nonpositive_direction():
    p = P(1, 1)
    f = monomial(zero_weight(p), 3)
    with pytest.raises(ValueError):
        f.div_unit(Root(p, 2, 1), 1)  # delta-minus-eps direction
    with pytest.raises(TypeError):
        f.div_unit(Root(p, 1, 2).as_weight(), 1)  # unit exponents are roots


def test_coeff_query_below_floor_raises():
    p = P(1, 1)
    lam = zero_weight(p)
    f = char_verma(distinguished(p), lam, 1)
    deep = lam - 5 * Root(p, 1, 2).as_weight()
    with pytest.raises(DepthError):
        f.coeff(deep)


def test_coeff_query_of_another_profile_raises():
    # gl(2|1) and gl(1|2) weights have the same length, so only the check tells them apart
    p = P(2, 1)
    lam = weight_from_blocks(p, [1, 0], [0])
    f = char_verma(distinguished(p), lam, 2)
    assert f.coeff(lam) == 1
    with pytest.raises(ProfileMismatch):
        f.coeff(weight_from_blocks(P(1, 2), [1], [0, 0]))


def test_retruncate_refuses_deeper():
    p = P(1, 1)
    f = char_verma(distinguished(p), zero_weight(p), 2)
    assert f.retruncate(1).depth == 1
    with pytest.raises(DepthError):
        f.retruncate(3)


def test_negative_depth_is_refused_cold_and_warm(cold_stores):
    """retruncate refuses a negative depth as the constructor does, so a
    warm Verma cache answers char_verma(..., -1) as a cold one."""
    p = P(2, 1)
    lam = weight_from_blocks(p, [2, 0], [-1])
    for _ in ("cold", "warm"):
        with pytest.raises(ValueError, match="nonnegative"):
            char_verma(distinguished(p), lam, -1)
        char_verma(distinguished(p), lam, 3)
    f = char_verma(distinguished(p), lam, 3)
    with pytest.raises(ValueError, match="nonnegative"):
        f.retruncate(-1)
    assert f.retruncate(0).depth == 0


def test_serialization_round_trip_and_order():
    p = P(2, 1)
    lam = weight_from_coords(p, [3, 0], [3])
    f = char_verma(distinguished(p), lam, 4)
    obj = f.to_json_obj()
    assert obj["terms"][0]["coeff"] == "1"
    levels = [Weight(p, tuple(t["weight"])).xi for t in obj["terms"]]
    assert levels == sorted(levels, reverse=True)
    back = json.loads(json.dumps(obj))
    coeffs = {Weight(p, tuple(t["weight"])): int(t["coeff"]) for t in back["terms"]}
    g = FormalChar(p, Weight(p, tuple(back["top"])), back["depth"], coeffs)
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


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([P(2, 2), P(3, 1), P(1, 3)]), st.data())
def test_borel_independence_property(p, data):
    """ch M^b(lam - rho^b) is one series, top and window included, for
    every Borel b."""
    lam = Weight(p, tuple(data.draw(st.lists(st.integers(-4, 4), min_size=p.dim, max_size=p.dim))))
    depth = data.draw(st.integers(0, 5))
    first, *rest = (char_verma(b, lam - rho_b(b), depth) for b in enumerate_borels(p))
    for chart in rest:
        assert (chart.top, chart.depth) == (first.top, first.depth)
        assert chart.equals(first)


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


def test_char_even_simple_refuses_exactly_the_non_dominant():
    # the old test on coefficients: both blocks weakly decreasing
    def even_dominant(mu):
        e, d = mu.eps_block, mu.delta_block
        return all(map(operator.ge, e, e[1:])) and all(map(operator.ge, d, d[1:]))

    refused = 0
    for m, n in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]:
        p = P(m, n)
        for coeffs in itertools.product(range(-2, 3), repeat=p.dim):
            mu = Weight(p, coeffs)
            if even_dominant(mu):
                char_even_simple(mu, 0)
            else:
                refused += 1
                with pytest.raises(ValueError, match="not dominant for the even subalgebra"):
                    char_even_simple(mu, 0)
    assert refused


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
    f = even_verma(lam, 6)
    for beta in odd_positive_roots(p):
        f = f.mul_unit(beta, 1)
    assert f.equals(char_verma(distinguished(p), lam, 6))


# -- narrow and simple characters ----------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_gamma_is_pairwise_orthogonal_at_regular_weights(m, n, data):
    """(eps_i - delta_j, eps_k - delta_l) = [i=k] - [j=l]: with no ties
    inside a block, two distinct atypical roots share no index."""
    p = P(m, n)
    eps = data.draw(st.lists(st.integers(-3, 3), unique=True, min_size=m, max_size=m))
    delta = data.draw(st.lists(st.integers(-3, 3), unique=True, min_size=n, max_size=n))
    lam = weight_from_coords(p, eps, delta)
    assert classify(lam).regular
    gamma = [beta.as_weight() for beta in atypical_roots(lam)]
    assert all(pairing(a, b) == 0 for a in gamma for b in gamma)


def test_gamma_of_a_singular_weight_need_not_be_orthogonal():
    p = P(2, 2)
    lam = weight_from_coords(p, [5, 5], [5, 9])
    assert not classify(lam).regular
    assert atypical_roots(lam) == (Root(p, 1, 3), Root(p, 2, 3))
    assert pairing(Root(p, 1, 3).as_weight(), Root(p, 2, 3).as_weight()) == -1


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


def subset_weights(lam, roots):
    """The multiset of lam - sum(S) over the subsets S of `roots`."""
    tally = Counter()
    for mask in itertools.product((0, 1), repeat=len(roots)):
        nu = lam
        for bit, beta in zip(mask, roots):
            if bit:
                nu = nu - beta.as_weight()
        tally[nu] += 1
    return tally


def even_verma_subset_sum(lam, depth):
    """Sum over the subsets S of the odd positive roots of the even Verma
    characters at lam - sum(S), each summand on its own."""
    floor = lam.xi - depth
    window = [(nu, c) for nu, c in subset_weights(lam, odd_positive_roots(lam.profile)).items()
              if nu.xi >= floor]
    return _summand_by_summand(lam, depth, window, lambda nu: {"even": even_positive_roots(lam.profile)})


def test_restriction_decomposition_counts():
    # ch M(lam) restricts to the even Verma characters at lam - sum(S),
    # counted with multiplicity
    cases = [
        (P(1, 1), ([2], [0]), 4),
        (P(2, 1), ([1, 0], [0]), 4),
        (P(2, 2), ([1, 0], [0, -1]), 3),
        (P(2, 2), ([1, 0], [0, -1]), 4),
    ]
    for p, (eps, delta), depth in cases:
        lam = weight_from_blocks(p, eps, delta)
        expected = even_verma_subset_sum(lam, depth)
        assert char_verma(distinguished(p), lam, depth).to_json_obj() == expected.to_json_obj()
    # at gl(2|2) two subsets share their sum, at xi-drop 4: only the depth-4
    # window sees a multiplicity of 2
    p22 = P(2, 2)
    lam = weight_from_blocks(p22, [1, 0], [0, -1])
    shared = [nu for nu, c in subset_weights(lam, odd_positive_roots(p22)).items() if c == 2]
    assert [lam.xi - nu.xi for nu in shared] == [4]


def test_restriction_decomposition_other_borel():
    # for every Borel b, ch M^b(lam + rho - rho^b) is the same subset sum
    for p, (eps, delta) in [(P(2, 1), ([2, 0], [1])), (P(2, 2), ([1, 0], [0, -1]))]:
        lam = weight_from_blocks(p, eps, delta)
        expected = even_verma_subset_sum(lam, 4)
        for b in enumerate_borels(p):
            assert char_verma(b, lam + rho(p) - rho_b(b), 4).equals(expected)


def test_char_simple_td_against_word_rank_oracle():
    # independent route: dim L(lam)_nu = rank of the raising-word functionals
    # M_nu -> M_lam, with no character formula involved
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
                if not any(remaining.coeffs):
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
                    row.append(out.terms.get(module.zero_mono, 0))
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
    assert_window_monotone(lambda d: even_verma(mu, d), deep, shallow)


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


# -- closed sums divide once -------------------------------------------------
# Each closed sum is one series of monomials under one chain of unit factors.
# The oracle is the route it replaced: every summand divided on its own.


def _summand_by_summand(top, depth, weighted, units):
    """Sum of count * _units(e^nu, **units(nu)) over (nu, count), each
    summand on the window below top."""
    floor = top.xi - depth
    total = zero_char(top.profile, top, depth)
    for nu, count in weighted:
        total = total + _units(monomial(nu, nu.xi - floor), **units(nu)).scale(count)
    return total


@settings(max_examples=30, deadline=None)
@given(windowed_weights(dominant=True))
def test_closed_sums_equal_summand_by_summand(case):
    mu, depth, _ = case
    even = {"even": even_positive_roots(mu.profile)}
    window = [(nu, w.sign) for w, nu in weyl_window(mu, depth)]
    expected = _summand_by_summand(mu, depth, window, lambda nu: even)
    assert char_even_simple(mu, depth).to_json_obj() == expected.to_json_obj()


@st.composite
def td_weights(draw, profiles=WINDOW_PROFILES):
    """(lam, depth): a regular dominant totally disconnected weight of a
    small profile, generic or not, and a depth in 0..5."""
    p = draw(st.sampled_from(profiles))
    eps = sorted(draw(st.lists(st.integers(0, 7), unique=True, min_size=p.m, max_size=p.m)))
    delta = sorted(draw(st.lists(st.integers(0, 7), unique=True, min_size=p.n, max_size=p.n)))
    lam = weight_from_coords(p, eps[::-1], delta)
    assume(is_totally_disconnected(lam))
    return lam, draw(st.integers(0, 5))


@settings(max_examples=30, deadline=None)
@given(td_weights())
def test_euler_closed_side_equals_the_convolution(case):
    """char_simple_td = ch M(0) * (the alternating sum over the window of
    e^{w.lam} / prod over Gamma(w.lam) (1+e^{-beta})), as a convolution."""
    lam, depth = case
    p = lam.profile
    window = [(nu, w.sign) for w, nu in weyl_window(lam, depth)]
    inner = _summand_by_summand(
        lam, depth, window, lambda nu: {"atypical": atypical_roots(nu)}
    )
    expected = char_verma(distinguished(p), zero_weight(p), depth).mul(inner)
    assert char_simple_td(lam, depth).to_json_obj() == expected.to_json_obj()


def narrow_euler_sum(lam, depth):
    """sum over the window of sign(w) ch N(w.lam), summand by summand."""
    floor = lam.xi - depth
    total = zero_char(lam.profile, lam, depth)
    for w, nu in weyl_window(lam, depth):
        total = total + char_narrow(nu, nu.xi - floor, warn=False).scale(w.sign)
    return total


@settings(max_examples=60, deadline=None)
@given(td_weights())
def test_simple_td_is_the_narrow_euler_sum(case):
    """The ring identity behind `euler_check`, also where it refuses the
    weight as not g_-1-generic: the narrow summands and the closed ones are
    the same unit factors applied in another order."""
    lam, depth = case
    got, expected = char_simple_td(lam, depth), narrow_euler_sum(lam, depth)
    assert got.to_json_obj() == expected.to_json_obj()


def test_closed_sums_divide_by_each_even_factor_once(monkeypatch):
    """Not once per window element."""
    calls = []
    div_unit = FormalChar.div_unit

    def counting(self, beta, sign=1):
        calls.append(beta)
        return div_unit(self, beta, sign)

    monkeypatch.setattr(FormalChar, "div_unit", counting)
    p = P(3, 3)
    even = len(even_positive_roots(p))
    mu = weight_from_blocks(p, [6, 3, 0], [4, 2, 0])
    assert len(list(weyl_window(mu, 8))) > 1
    char_even_simple(mu, 8)
    assert len(calls) == even == 6


def test_euler_closed_side_is_no_convolution(monkeypatch):
    def convolution(self, other):
        raise AssertionError("FormalChar.mul called")

    monkeypatch.setattr(FormalChar, "mul", convolution)
    lam = weight_from_coords(P(3, 3), [16, 8, 0], [0, 8, 16])
    assert euler_check(lam, 6).equal


def test_simple_td_makes_no_narrow_call(monkeypatch):
    def narrow(*args, **kwargs):
        raise AssertionError("char_narrow called")

    monkeypatch.setattr(charring, "char_narrow", narrow)
    lam = weight_from_coords(P(3, 3), [16, 8, 0], [0, 8, 16])
    assert char_simple_td(lam, 6).coeff(lam) == 1


def test_weyl_sums_negate_once(monkeypatch):
    """Each alternating sum negates its summands of sign -1 together, not
    one copy per summand."""
    negated = []
    scale = FormalChar.scale

    def counting(self, k):
        if k == -1:
            negated.append(self)
        return scale(self, k)

    monkeypatch.setattr(FormalChar, "scale", counting)
    lam = weight_from_coords(P(3, 3), [16, 8, 0], [0, 8, 16])
    window = list(weyl_window(lam, 10))
    assert sum(w.sign == -1 for w, _ in window) >= 2
    char_simple_td(lam, 10)
    assert len(negated) == 1
    negated.clear()
    assert euler_check(lam, 10).equal
    assert len(negated) == 2


# -- one Verma series per profile -----------------------------------------------
# char_verma translates one cached series per profile; the oracle is the
# series built from a monomial at the translated top, as it was before.


def _from_scratch_verma(b, lam, depth):
    p = lam.profile
    top = lam
    for beta in b.flipped_odd_roots():
        top = top + beta.as_weight()
    return _units(monomial(top, depth), odd_positive_roots(p), even_positive_roots(p))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([P(2, 1), P(2, 2), P(3, 1)]), st.data())
def test_char_verma_is_the_cached_series_translated(p, data):
    """Depths in a random order, so requests both rebuild the cache
    (deeper) and cut it (shallower), for every Borel at random weights."""
    depths = data.draw(st.lists(st.integers(0, 5), min_size=2, max_size=5))
    coords = st.lists(st.integers(-5, 5), min_size=p.dim, max_size=p.dim)
    with emptied_series_stores():
        for i, depth in enumerate(depths):
            for b in enumerate_borels(p):
                lam = Weight(p, tuple(data.draw(coords)))
                got, expected = char_verma(b, lam, depth), _from_scratch_verma(b, lam, depth)
                assert got._levels == expected._levels
                assert got.to_json_obj() == expected.to_json_obj()
            assert charring._VERMA_AT_ZERO[p].depth == max(depths[: i + 1])


def test_char_verma_top_is_lam_plus_the_flipped_roots():
    # the oracle is the definition char_verma used before reading rho^b - rho:
    # the flipped odd roots added one by one
    for m in range(1, 5):
        for n in range(1, 5):
            p = P(m, n)
            lam = Weight(p, tuple(range(p.dim)))
            for b in enumerate_borels(p):
                top = lam
                for beta in b.flipped_odd_roots():
                    top = top + beta.as_weight()
                assert char_verma(b, lam, 0).top == top


def test_char_verma_shares_the_cached_levels(cold_stores):
    """Translation touches no term: every level dict of a Verma character
    is the cached series' own, at a rebuilt, a cut and a cached depth."""
    for p in (P(2, 2), P(3, 2)):
        lam = Weight(p, tuple(range(p.dim, 0, -1)))
        for depth in (3, 5, 2, 5):
            cached = charring._verma_at_zero(p, depth)
            for b in enumerate_borels(p):
                got = char_verma(b, lam, depth)
                assert got._levels.keys() == cached._levels.keys()
                assert all(got._levels[d] is cached._levels[d] for d in got._levels)


def test_sweep_charts_share_one_store(monkeypatch, cold_stores):
    """The pair equalities of a sweep compare one store with itself."""
    charts = []

    def recording(b, lam, depth):
        charts.append(char_verma(b, lam, depth))
        return charts[-1]

    monkeypatch.setattr(bggcheck, "char_verma", recording)
    assert character_shift_sweep(P(2, 2), trials=2, depth=4, seed=0).passed
    assert len(charts) == 2 * 6 + bggcheck.SWEEP_MISMATCHES * 2
    assert len({id(f._levels) for f in charts}) == 1


def test_verma_cache_keeps_one_entry_at_the_deepest_depth(cold_stores):
    p = P(2, 2)
    lam = weight_from_blocks(p, [3, 1], [0, -2])
    for depth in (2, 5, 3):
        assert char_verma(distinguished(p), lam, depth).depth == depth
    assert list(charring._VERMA_AT_ZERO) == [p]
    assert charring._VERMA_AT_ZERO[p].depth == 5


def test_cached_verma_series_is_cross_checked(cold_stores):
    """One wrong coefficient in the cache, on its lowest level (the largest
    xi-drop), is caught by the product form of char_narrow and by the Euler
    identity."""
    p, depth = P(3, 3), 6
    lam = weight_from_coords(p, [16, 8, 0], [0, 8, 16])
    cached = charring._verma_at_zero(p, depth)
    low = max(cached._levels)
    assert low == depth
    terms = dict(cached._levels[low])
    t = min(terms)
    terms[t] += 1
    levels = {**cached._levels, low: terms}
    charring._VERMA_AT_ZERO[p] = FormalChar._make(p, cached.top, depth, levels)
    with pytest.raises(ConsistencyError):
        char_narrow(lam, depth)
    try:
        report = euler_check(lam, depth)
    except ConsistencyError:
        pass
    else:
        assert not report.equal


def _counting_unit_steps(monkeypatch):
    calls = Counter()
    for name in ("mul_unit", "div_unit"):
        def counting(self, beta, sign=1, _name=name, _original=getattr(FormalChar, name)):
            calls[_name] += 1
            return _original(self, beta, sign)

        monkeypatch.setattr(FormalChar, name, counting)
    return calls


def test_sweep_builds_the_verma_series_once(monkeypatch, cold_stores):
    """All Verma characters of a sweep share a profile and a depth: a cold
    cache costs one chain of unit factors, a warm one none."""
    calls = _counting_unit_steps(monkeypatch)
    counts = []
    for _ in range(2):
        calls.clear()
        assert character_shift_sweep(P(3, 3), trials=2, depth=4, seed=0).passed
        counts.append((calls["mul_unit"], calls["div_unit"]))
    assert counts == [(9, 6), (0, 0)]


# -- one narrow product per atypical set -------------------------------------------
# char_narrow's product form is a new top over one kept series per Gamma;
# the oracle is the product built from a monomial at lam, as it was before.


def _from_scratch_narrow(lam, depth):
    p = lam.profile
    gamma = atypical_roots(lam)
    odd = [beta for beta in odd_positive_roots(p) if beta not in gamma]
    return _units(monomial(lam, depth), odd, even_positive_roots(p))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([P(2, 1), P(2, 2), P(3, 2)]), st.data())
def test_char_narrow_is_the_kept_product_translated(p, data):
    """Weights of one profile and depths in a random order, so a warm store
    meets repeated and new atypical sets and both rebuilds entries (deeper)
    and cuts them (shallower); a cold store answers each request alike."""
    request = st.tuples(td_weights((p,)), st.integers(0, 5))
    requests = data.draw(st.lists(request, min_size=2, max_size=6))
    with emptied_series_stores():
        for (lam, _), depth in requests:
            expected = _from_scratch_narrow(lam, depth).to_json_obj()
            assert char_narrow(lam, depth, warn=False).to_json_obj() == expected
            with emptied_series_stores():
                assert char_narrow(lam, depth, warn=False).to_json_obj() == expected


def test_warm_char_narrow_divides_only_by_gamma(monkeypatch, cold_stores):
    """A warm call builds no product: its only unit steps are the quotient's
    |Gamma| divisions.  A common shift keeps Gamma, so the second weight
    finds the first one's series."""
    p, depth = P(3, 3), 6
    eps, delta = [16, 8, 0], [0, 8, 16]
    gamma = atypical_roots(weight_from_coords(p, eps, delta))
    assert len(gamma) == 3
    calls = _counting_unit_steps(monkeypatch)
    counts = []
    for shift in (0, 5):
        calls.clear()
        lam = weight_from_coords(p, [e + shift for e in eps], [d + shift for d in delta])
        char_narrow(lam, depth)
        counts.append((calls["mul_unit"], calls["div_unit"]))
    odd, even = len(odd_positive_roots(p)), len(even_positive_roots(p))
    assert counts == [(2 * odd - len(gamma), 2 * even + len(gamma)), (0, len(gamma))]


def test_kept_narrow_series_is_cross_checked(cold_stores):
    """One wrong coefficient in the kept narrow product, on its lowest
    level, is caught by the fresh quotient of char_narrow and by the Euler
    identity."""
    p, depth = P(3, 3), 6
    lam = weight_from_coords(p, [16, 8, 0], [0, 8, 16])
    char_narrow(lam, depth)
    (key, kept), = charring._NARROW_AT_ZERO.items()
    low = max(kept._levels)
    assert low == depth
    terms = dict(kept._levels[low])
    terms[min(terms)] += 1
    levels = {**kept._levels, low: terms}
    charring._NARROW_AT_ZERO[key] = FormalChar._make(p, kept.top, depth, levels)
    with pytest.raises(ConsistencyError):
        char_narrow(lam, depth)
    try:
        report = euler_check(lam, depth)
    except ConsistencyError:
        pass
    else:
        assert not report.equal


def test_narrow_store_holds_no_more_terms_than_ch_m0(cold_stores):
    """A typical weight's narrow product is ch M(0) itself, so after an
    atypical weight the typical entry must go for the store to fit."""
    p, depth = P(2, 2), 8
    typical = weight_from_coords(p, [9, 4], [0, 11])
    atypical = weight_from_coords(p, [7, 2], [2, 7])

    def held():
        return sum(len(f.coeffs) for f in charring._NARROW_AT_ZERO.values())

    assert euler_check(typical, depth).equal
    assert held() == len(charring._VERMA_AT_ZERO[p].coeffs)
    assert euler_check(atypical, depth).equal
    assert atypical_roots(atypical) and (2, 2, ()) not in charring._NARROW_AT_ZERO
    assert held() <= len(charring._VERMA_AT_ZERO[p].coeffs)
    for lam in (typical, atypical):  # evicted entries are built again, alike
        expected = _from_scratch_narrow(lam, depth).to_json_obj()
        assert char_narrow(lam, depth).to_json_obj() == expected
        assert held() <= len(charring._VERMA_AT_ZERO[p].coeffs)


def record_hashes(call) -> Counter:
    """The `Record.__hash__` calls made while call() runs, by class name."""
    hashed = Counter()
    record_hash = Record.__hash__

    def counting(self):
        hashed[type(self).__name__] += 1
        return record_hash(self)

    with patch.object(Record, "__hash__", counting):
        call()
    return hashed


def test_warm_unit_steps_hash_no_record():
    """A unit step finds its packed step by ints, not by hashing its Root
    and the Root's RankProfile."""
    p = P(3, 2)
    f = char_verma(distinguished(p), zero_weight(p), 4)
    roots = even_positive_roots(p) + odd_positive_roots(p)
    for beta in roots:
        f.mul_unit(beta)

    def steps():
        for beta in roots:
            f.mul_unit(beta, -1).div_unit(beta, -1)

    assert record_hashes(steps) == Counter()


def test_warm_bench_euler_check_hashes_no_root(cold_stores):
    """The bench's `euler` input: gl(4|3) coordinates (15,10,5,0|0,5,10)
    shifted by a common c, at depth 6.  Once warm, every summand reads
    Gamma as the cached odd roots that `atypical_roots` keeps, in order,
    and the narrow store is keyed by their index pairs: no Root is hashed."""
    p, depth = P(4, 3), 6

    def shifted(c):
        return weight_from_coords(p, [e + c for e in (15, 10, 5, 0)], [d + c for d in (0, 5, 10)])

    assert euler_check(shifted(3), depth).equal
    reports = []
    hashed = record_hashes(lambda: reports.append(euler_check(shifted(7), depth)))
    assert reports[0].equal
    assert hashed["Root"] == 0 and sum(hashed.values()) <= 105
