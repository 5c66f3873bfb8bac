import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superchar.rootdata import (
    Coords,
    EnumerationBound,
    ProfileMismatch,
    RankProfile,
    Root,
    Weight,
    all_roots,
    atypicality,
    ber,
    basis_weight,
    classify,
    decode,
    dot_action,
    dot_action_usual,
    encode,
    even_positive_roots,
    identity_weyl,
    longest_element,
    odd_positive_roots,
    orbit_extremes,
    pairing,
    reflection,
    rho,
    rho0_doubled,
    rho1_doubled,
    rho1_doubled_distinguished,
    rho_b,
    rho_vectors,
    weight_from_coords,
    weyl_group,
    zero_weight,
)
from superchar.borels import antidistinguished, borel, distinguished, enumerate_borels


def P(m, n):
    return RankProfile(m, n)


def random_weight(rng, p, lo=-6, hi=6):
    return Weight(p, tuple(rng.randint(lo, hi) for _ in range(p.dim)))


# -- depth functional ----------------------------------------------------------

profiles = st.builds(RankProfile, st.integers(1, 4), st.integers(1, 4))


@st.composite
def weights(draw, profile=None):
    p = profile or draw(profiles)
    return Weight(p, tuple(draw(st.lists(st.integers(-9, 9), min_size=p.dim, max_size=p.dim))))


@st.composite
def weight_pairs(draw):
    p = draw(profiles)
    return draw(weights(p)), draw(weights(p))


@settings(max_examples=60, deadline=None)
@given(weights())
def test_xi_matches_its_closed_formula(w):
    p = w.profile
    basis = tuple(p.m + p.n - i + 1 for i in range(1, p.m + 1)) + tuple(
        p.n - j + 1 for j in range(1, p.n + 1)
    )
    assert p.xi == basis
    assert w.xi == sum(a * x for a, x in zip(w.coeffs, basis))


@settings(max_examples=60, deadline=None)
@given(weight_pairs(), st.integers(-5, 5))
def test_xi_is_additive(pair, k):
    a, b = pair
    assert (a + b).xi == a.xi + b.xi
    assert (a - b).xi == a.xi - b.xi
    assert (-a).xi == -a.xi
    assert (k * a).xi == (a * k).xi == k * a.xi


@settings(max_examples=20, deadline=None)
@given(profiles)
def test_xi_positive_on_the_cone(p):
    roots = even_positive_roots(p) + odd_positive_roots(p)
    assert all(r.as_weight().xi > 0 for r in roots)


@settings(max_examples=60, deadline=None)
@given(weight_pairs())
def test_weight_identity_ignores_xi(pair):
    a, b = pair
    p = a.profile
    twin = Weight(RankProfile(p.m, p.n), a.coeffs)
    assert twin == a and hash(twin) == hash(a) == hash((p, a.coeffs))
    assert (a == b) == (a.coeffs == b.coeffs)
    assert hash(p) == hash((p.m, p.n))
    assert repr(p) == f"RankProfile(m={p.m}, n={p.n})"
    assert repr(a) == f"Weight(profile={p!r}, coeffs={a.coeffs!r})"


# -- bilinear form -----------------------------------------------------------


def test_pairing_on_basis():
    p = P(2, 2)
    e1, d1 = basis_weight(p, 1), basis_weight(p, 3)
    assert pairing(e1, e1) == 1
    assert pairing(d1, d1) == -1
    assert pairing(e1, d1) == 0


def test_pairing_symmetric_bilinear():
    rng = random.Random(11)
    p = P(3, 2)
    for _ in range(50):
        x, y, z = (random_weight(rng, p) for _ in range(3))
        assert pairing(x, y) == pairing(y, x)
        assert pairing(x + z, y) == pairing(x, y) + pairing(z, y)
        assert pairing(3 * x, y) == 3 * pairing(x, y)


def test_pairing_weyl_invariant():
    rng = random.Random(12)
    p = P(2, 2)
    for w in weyl_group(p):
        for _ in range(10):
            x, y = random_weight(rng, p), random_weight(rng, p)
            assert pairing(w.act(x), w.act(y)) == pairing(x, y)


def test_pairing_profile_mismatch():
    with pytest.raises(ProfileMismatch):
        pairing(zero_weight(P(1, 1)), zero_weight(P(2, 1)))


def test_odd_roots_isotropic():
    p = P(3, 2)
    for beta in odd_positive_roots(p):
        assert pairing(beta.as_weight(), beta.as_weight()) == 0


# -- shift vectors -----------------------------------------------------------


def test_rho_values():
    assert rho(P(2, 1)).coeffs == (0, -1, 1)
    assert rho(P(1, 1)).coeffs == (0, 0)


def test_rho_b_single_reflection_gl11():
    p = P(1, 1)
    b1 = borel(p, [1])
    assert rho_b(b1) == rho(p) + Root(p, 1, 2).as_weight()
    assert rho_b(b1).coeffs == (1, -1)


def test_rho_vs_half_sums_is_ber_multiple():
    # 2*(rho - rho0 + rho1) must be an even multiple of ber
    for m in range(1, 5):
        for n in range(1, 5):
            p = P(m, n)
            b0 = distinguished(p)
            doubled = 2 * rho(p) - rho0_doubled(p) + rho1_doubled(b0)
            shifted = doubled + (m + n - 1) * ber(p)
            ratio = {c // b for c, b in zip(shifted.coeffs, ber(p).coeffs)}
            assert len(ratio) == 1
            t = ratio.pop()
            assert shifted == t * ber(p) and t % 2 == 0


def test_ber_orthogonal_to_all_roots():
    for m, n in [(1, 1), (2, 1), (3, 2), (2, 2)]:
        p = P(m, n)
        for r in all_roots(p):
            assert pairing(ber(p), r.as_weight()) == 0


def test_orthogonal_to_all_roots_is_ber_multiple():
    # brute force over a small coefficient box
    p = P(2, 2)
    roots = all_roots(p)
    for coeffs in itertools.product(range(-2, 3), repeat=4):
        w = Weight(p, coeffs)
        if all(pairing(w, r.as_weight()) == 0 for r in roots):
            if not w.is_zero():
                t = w.coeffs[0]
                assert w == t * ber(p)


def test_rho_b_pairs_to_half_norm_on_simples():
    # includes zero on odd simples
    for m, n in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)]:
        p = P(m, n)
        for b in enumerate_borels(p):
            rb = rho_b(b)
            for alpha in b.simple_roots():
                aw = alpha.as_weight()
                assert 2 * pairing(rb, aw) == pairing(aw, aw)
                if alpha.is_odd:
                    assert pairing(rb, aw) == 0


def test_rho1_antidistinguished_is_negated():
    for m, n in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        p = P(m, n)
        assert rho1_doubled(antidistinguished(p)) == -rho1_doubled_distinguished(p)


def test_rho_vectors_record():
    p = P(2, 1)
    vectors = rho_vectors(p, distinguished(p))
    assert vectors.rho == rho(p)
    assert vectors.rho_b == rho(p)
    assert vectors.rho0_x2.coeffs == (1, -1, 0)
    assert vectors.rho1_b_x2.coeffs == (1, 1, -2)


# -- coordinates -------------------------------------------------------------


def test_encode_examples():
    assert encode(zero_weight(P(1, 1))).values == (0, 0)
    assert encode(zero_weight(P(2, 1))).values == (0, -1, -1)


def test_coords_round_trip():
    p = P(2, 1)
    c = Coords(p, (3, 0, 3))
    assert encode(decode(c)) == c
    rng = random.Random(5)
    for m, n in [(1, 1), (2, 2), (3, 1)]:
        q = P(m, n)
        for _ in range(20):
            lam = random_weight(rng, q)
            assert decode(encode(lam)) == lam


def test_encode_intertwines_dot_action():
    rng = random.Random(7)
    p = P(2, 2)
    for w in weyl_group(p):
        for _ in range(10):
            lam = random_weight(rng, p)
            c = encode(lam)
            moved = encode(dot_action(w, lam))
            inv = w.inverse()
            expected_eps = tuple(c.values[inv.sigma[i] - 1] for i in range(p.m))
            expected_delta = tuple(c.values[p.m + inv.tau[j] - 1] for j in range(p.n))
            assert moved.values == expected_eps + expected_delta


# -- dot actions -------------------------------------------------------------


def test_dot_action_identity_and_involution():
    p = P(2, 1)
    lam = weight_from_coords(p, [3, 0], [5])
    e = identity_weyl(p)
    s = reflection(Root(p, 1, 2))
    assert dot_action(e, lam) == lam
    assert dot_action(s, dot_action(s, lam)) == lam


def test_dot_action_coords_example():
    p = P(2, 1)
    lam = weight_from_coords(p, [3, 0], [5])
    s = reflection(Root(p, 1, 2))
    assert encode(dot_action(s, lam)).values == (0, 3, 5)


def test_dot_action_is_group_action():
    rng = random.Random(3)
    p = P(2, 2)
    group = weyl_group(p)
    for _ in range(20):
        lam = random_weight(rng, p)
        w1, w2 = rng.choice(group), rng.choice(group)
        assert dot_action(w1 * w2, lam) == dot_action(w1, dot_action(w2, lam))


def test_three_dot_actions_coincide():
    rng = random.Random(9)
    for m, n in [(1, 1), (2, 1), (2, 2), (3, 3)]:
        p = P(m, n)
        group = weyl_group(p)
        for _ in range(100 // len(group) + 2):
            lam = random_weight(rng, p)
            for w in group:
                usual = dot_action_usual(w, lam)
                assert dot_action(w, lam, distinguished(p)) == usual
                assert dot_action(w, lam, antidistinguished(p)) == usual


# -- classification ----------------------------------------------------------


def test_classify_examples():
    p = P(2, 1)
    f = classify(weight_from_coords(p, [3, 0], [3]))
    assert f.regular and f.dominant and not f.antidominant
    f = classify(weight_from_coords(p, [0, 3], [3]))
    assert f.regular and f.antidominant
    f = classify(weight_from_coords(P(2, 2), [1, 1], [0, 0]))
    assert not f.regular


def test_orbit_extremes_examples():
    p = P(2, 1)
    ext = orbit_extremes(weight_from_coords(p, [0, 3], [3]))
    assert encode(ext.dominant).values == (3, 0, 3)
    dom = weight_from_coords(p, [3, 0], [3])
    assert orbit_extremes(dom).dominant == dom
    p22 = P(2, 2)
    ext = orbit_extremes(weight_from_coords(p22, [5, 2], [2, 5]))
    assert encode(ext.antidominant).values == (2, 5, 5, 2)


def test_orbit_extremes_lie_in_orbit():
    rng = random.Random(17)
    p = P(2, 2)
    group = weyl_group(p)
    for _ in range(20):
        lam = random_weight(rng, p)
        orbit = {dot_action(w, lam) for w in group}
        ext = orbit_extremes(lam)
        assert ext.dominant in orbit and ext.antidominant in orbit


# -- atypicality -------------------------------------------------------------


def brute_force_atypicality(lam, b):
    """Largest set of mutually orthogonal odd roots vanishing on lam + rho^b."""
    p = lam.profile
    shift = rho(p) if b is None else rho_b(b)
    shifted = lam + shift
    vanishing = [
        r for r in odd_positive_roots(p) if pairing(shifted, r.as_weight()) == 0
    ]
    best = 0
    for size in range(len(vanishing), 0, -1):
        for subset in itertools.combinations(vanishing, size):
            if all(
                pairing(a.as_weight(), c.as_weight()) == 0
                for a, c in itertools.combinations(subset, 2)
            ):
                return size
    return best


def test_atypicality_examples():
    p = P(1, 1)
    r = atypicality(zero_weight(p))
    assert r.aty == 1 and r.gamma == {Root(p, 1, 2)}

    p = P(2, 1)
    r = atypicality(weight_from_coords(p, [3, 0], [5]))
    assert r.aty == 0 and r.gamma == frozenset()

    p = P(2, 2)
    r = atypicality(weight_from_coords(p, [5, 2], [5, 2]))
    assert r.aty == 2
    assert r.gamma == {Root(p, 1, 3), Root(p, 2, 4)}


def test_atypicality_matches_brute_force():
    rng = random.Random(23)
    for m, n in [(2, 1), (2, 2), (3, 2)]:
        p = P(m, n)
        for _ in range(30):
            lam = random_weight(rng, p, -3, 3)
            assert atypicality(lam).aty == brute_force_atypicality(lam, None)


def test_atypicality_invariant_under_verma_transport():
    # matched highest weights lam - rho^b give one atypicality for every Borel
    rng = random.Random(29)
    for m, n in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        p = P(m, n)
        borels = enumerate_borels(p)
        for _ in range(15):
            lam = random_weight(rng, p, -3, 3)
            values = {atypicality(lam - rho_b(b), b).aty for b in borels}
            assert len(values) == 1


def test_atypicality_invariant_under_simple_transport():
    # crossing one odd reflection: the highest weight of a simple module
    # drops by alpha exactly when alpha does not vanish on lam + rho^b
    from superchar.borels import borel_graph

    rng = random.Random(31)
    for m, n in [(2, 1), (2, 2), (3, 2)]:
        p = P(m, n)
        edges = borel_graph(p)
        for _ in range(15):
            lam = random_weight(rng, p, -3, 3)
            for e in edges:
                aw = e.alpha.as_weight()
                if pairing(lam + rho_b(e.source), aw) == 0:
                    moved = lam
                else:
                    moved = lam - aw
                assert (
                    atypicality(moved, e.target).aty
                    == atypicality(lam, e.source).aty
                )


def test_atypicality_constant_on_dot_orbits():
    rng = random.Random(37)
    p = P(2, 2)
    for _ in range(20):
        lam = random_weight(rng, p, -4, 4)
        base = atypicality(lam).aty
        for w in weyl_group(p):
            assert atypicality(dot_action(w, lam)).aty == base


# -- Weyl group --------------------------------------------------------------


def gaussian_length_counts(m, n):
    def factor(k):
        out = [1]
        for step in range(2, k + 1):
            new = [0] * (len(out) + step - 1)
            for a, ca in enumerate(out):
                for b in range(step):
                    new[a + b] += ca
            out = new
        return out

    pm, pn = factor(m), factor(n)
    out = [0] * (len(pm) + len(pn) - 1)
    for a, ca in enumerate(pm):
        for b, cb in enumerate(pn):
            out[a + b] += ca * cb
    return out


def test_weyl_group_sizes_and_lengths():
    assert len(weyl_group(P(1, 1))) == 1
    assert longest_element(P(1, 1)).length == 0
    assert sorted(w.length for w in weyl_group(P(2, 1))) == [0, 1]
    g22 = weyl_group(P(2, 2))
    assert len(g22) == 4
    assert longest_element(P(2, 2)).length == 2


def test_weyl_length_generating_function():
    for m, n in [(2, 2), (3, 2), (3, 3)]:
        counts = gaussian_length_counts(m, n)
        lengths = [w.length for w in weyl_group(P(m, n))]
        assert [lengths.count(k) for k in range(max(lengths) + 1)] == counts
        assert longest_element(P(m, n)).length == m * (m - 1) // 2 + n * (n - 1) // 2


def test_weyl_signs_multiplicative():
    group = weyl_group(P(2, 2))
    for w1 in group:
        for w2 in group:
            assert (w1 * w2).sign == w1.sign * w2.sign


def test_weyl_group_bound():
    with pytest.raises(EnumerationBound):
        weyl_group(P(4, 4), bound=10)


# -- load-bearing checks -------------------------------------------------------


def test_consistency_error_is_one_class():
    import superchar
    from superchar import charring, rootdata

    assert charring.ConsistencyError is rootdata.ConsistencyError
    assert superchar.ConsistencyError is rootdata.ConsistencyError


def test_package_has_no_assert_statements():
    """python -O strips asserts, so no check in the package may be one."""
    import ast
    from pathlib import Path

    import superchar

    offenders = []
    for path in sorted(Path(superchar.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not offenders, f"assert statements in the package: {offenders}"
