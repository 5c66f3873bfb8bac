"""Acceptance battery.

One test per criterion, every comparison exact (tolerance zero), one
PASS line printed per criterion.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import math
import random
import time

from superchar.bggcheck import euler_check, character_shift_sweep, small_rank_exactness
from superchar.borels import borel_graph, distinguished, enumerate_borels
from superchar.charring import char_narrow, char_simple_td, char_verma
from superchar.diagrams import (
    is_g1_generic,
    is_totally_disconnected,
)
from superchar.rootdata import (
    RankProfile,
    Root,
    classify,
    dot_action,
    pairing,
    reflection,
    rho_b,
    weight_from_coords,
    weyl_group,
)
from superchar.vermacalc import (
    VermaModule,
    cone_weights_below,
    narrow_image_dims,
    primitive_space_dim,
    singular_vector_even,
)


def P(m, n):
    return RankProfile(m, n)


def report(number, label, elapsed, limit):
    print(f"PASS criterion {number}: {label} ({elapsed:.2f}s, limit {limit:.1f}s)")
    assert elapsed < limit


def test_criterion_01_gl11_narrow_image():
    start = time.perf_counter()
    p = P(1, 1)
    beta = Root(p, 1, 2).as_weight()
    for a, b in [(3, 0), (0, 3), (-2, 5), (4, 4), (0, 0), (-1, -1)]:
        lam = weight_from_coords(p, [a], [b])
        ranks = narrow_image_dims(lam, 1)
        by_depth = {lam.xi - nu.xi: r for nu, r in ranks.items()}
        if a != b:  # typical
            assert by_depth == {0: 1, 1: 1}
        else:  # atypical
            assert by_depth == {0: 1, 1: 0}
        chart = char_narrow(lam, 1, warn=False)
        assert ranks == {nu: chart.coeff(nu) for nu in ranks}
    elapsed = time.perf_counter() - start
    report(1, "gl(1|1) narrow image ranks match the closed character", elapsed, 0.1 * 6)


def test_criterion_02_euler_identity():
    cases = [
        (P(2, 1), ([3, 0], [3]), 8),
        (P(2, 2), ([7, 2], [2, 7]), 6),  # atypicality 2, generic
        (P(2, 2), ([9, 1], [2, 8]), 6),  # typical
    ]
    for p, (eps, delta), depth in cases:
        start = time.perf_counter()
        lam = weight_from_coords(p, eps, delta)
        result = euler_check(lam, depth)
        assert result.equal, result.first_discrepancy
        elapsed = time.perf_counter() - start
        report(
            2,
            f"Euler identity gl({p.m}|{p.n}) coords ({eps}|{delta}) depth {depth}",
            elapsed,
            30,
        )


def test_criterion_03_narrow_image_vs_formula():
    start = time.perf_counter()
    cases = [
        (P(2, 1), ([3, 0], [3]), 3),
        (P(2, 2), ([7, 2], [2, 7]), 2),
        (P(2, 2), ([9, 1], [2, 8]), 2),
        (P(4, 4), ([30, 20, 10, 0], [0, 10, 20, 30]), 2),
    ]
    for p, (eps, delta), depth in cases:
        lam = weight_from_coords(p, eps, delta)
        ranks = narrow_image_dims(lam, depth)
        chart = char_narrow(lam, depth, warn=False)
        assert ranks == {nu: chart.coeff(nu) for nu in ranks}
    elapsed = time.perf_counter() - start
    report(3, "narrow submodule ranks equal character coefficients", elapsed, 300)


def test_criterion_04_pbw_oracle():
    start = time.perf_counter()
    p = P(2, 2)
    lam = weight_from_coords(p, [6, 3], [0, 4])
    for b in enumerate_borels(p):
        chart = char_verma(b, lam, 5)
        module = VermaModule(b, lam)
        for nu in cone_weights_below(chart.top, 5):
            assert chart.coeff(nu) == len(module.weight_space_monomials(nu))
    elapsed = time.perf_counter() - start
    report(4, "character coefficients equal monomial counts, all Borels of gl(2|2)", elapsed, 60)


def test_criterion_05_character_sweep():
    start = time.perf_counter()
    result = character_shift_sweep(P(2, 2), trials=5, depth=6, seed=0, mismatches=10)
    assert result.passed
    assert result.pairs_checked == 36 * 5
    assert result.equalities_passed == result.pairs_checked
    assert result.mismatches_tried == 10 and result.mismatches_detected == 10
    elapsed = time.perf_counter() - start
    report(5, "Verma character sweep over all ordered Borel pairs of L(2,2)", elapsed, 60)


def test_criterion_06_borel_lattice():
    start = time.perf_counter()
    for m in range(1, 6):
        for n in range(1, 6):
            assert len(enumerate_borels(P(m, n))) == math.comb(m + n, m)
    for m, n in [(2, 1), (2, 2), (3, 2)]:
        p = P(m, n)
        edges = borel_graph(p)
        for e in edges:
            assert e.target.box_count() == e.source.box_count() + 1  # graded
            assert rho_b(e.target) == rho_b(e.source) + e.alpha.as_weight()
        reach = {distinguished(p)}
        frontier = [distinguished(p)]
        while frontier:
            node = frontier.pop()
            for e in edges:
                for nxt in ((e.target,) if e.source == node else ()) + (
                    (e.source,) if e.target == node else ()
                ):
                    if nxt not in reach:
                        reach.add(nxt)
                        frontier.append(nxt)
        assert reach == set(enumerate_borels(p))  # connected
    p32 = P(3, 2)
    for b in enumerate_borels(p32):
        rb = rho_b(b)
        for alpha in b.simple_roots():
            aw = alpha.as_weight()
            assert 2 * pairing(rb, aw) == pairing(aw, aw)
    elapsed = time.perf_counter() - start
    report(6, "Borel lattice counts, graded connected graph, rho identities", elapsed, 60)


def test_criterion_07_singular_vectors():
    start = time.perf_counter()
    checks = 0
    for p, alpha_pair, coords_maker in [
        (P(2, 1), (1, 2), lambda k: ([k, 0], [5])),
        (P(2, 2), (1, 2), lambda k: ([k, 0], [5, 9])),
        (P(2, 2), (3, 4), lambda k: ([9, 5], [0, k])),
    ]:
        alpha = Root(p, *alpha_pair)
        b0 = distinguished(p)
        for k in (1, 2, 3):
            eps, delta = coords_maker(k)
            lam = weight_from_coords(p, eps, delta)
            # construction checks annihilation by every simple raiser
            vec = singular_vector_even(b0, lam, alpha)
            mu = dot_action(reflection(alpha), lam, b0)
            assert vec.weight == mu
            assert primitive_space_dim(b0, lam, mu) == 1
            checks += 1
    assert checks == 9
    elapsed = time.perf_counter() - start
    report(7, "singular vectors for k in {1,2,3}, primitive spaces one-dimensional", elapsed, 60)


def test_criterion_08_genericity_properties():
    start = time.perf_counter()
    for m, n in [(2, 1), (1, 2), (2, 2)]:
        p = P(m, n)
        group = weyl_group(p)
        for values in itertools.product(range(-6, 7), repeat=p.dim):
            lam = weight_from_coords(p, values[: p.m], values[p.m:])
            fast = is_g1_generic(lam, "fast")
            assert fast == is_g1_generic(lam, "brute")
            if fast:
                flags = classify(lam)
                assert flags.regular
                if flags.dominant:
                    assert is_totally_disconnected(lam)
                for w in group:
                    assert is_g1_generic(dot_action(w, lam), "fast")
    elapsed = time.perf_counter() - start
    report(8, "gap criterion = subset test on |coord| <= 6 boxes; orbit and diagram laws", elapsed, 300)


def test_criterion_09_simple_character_internal_consistency():
    start = time.perf_counter()
    rng = random.Random(2024)
    for m, n in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        p = P(m, n)
        sampled = set()
        while len(sampled) < 10:
            eps = sorted(rng.sample(range(-12, 13), p.m), reverse=True)
            delta = sorted(rng.sample(range(-12, 13), p.n))
            lam = weight_from_coords(p, eps, delta)
            if lam in sampled:
                continue
            flags = classify(lam)
            if not (flags.regular and flags.dominant):
                continue
            if not is_totally_disconnected(lam):
                continue
            sampled.add(lam)
            # the three expressions are cross-asserted inside; a mismatch raises
            chart = char_simple_td(lam, 8)
            assert chart.coeff(lam) == 1
    elapsed = time.perf_counter() - start
    report(9, "three simple-character expressions agree at depth 8, 10 weights per profile", elapsed, 120)


def test_criterion_10_small_rank_exactness():
    start = time.perf_counter()
    cases = [
        (P(2, 1), ([3, 0], [3])),   # atypical, generic
        (P(2, 1), ([3, 0], [7])),   # typical
        (P(1, 2), ([3], [0, 3])),   # atypical, generic
        (P(1, 2), ([9], [0, 4])),   # typical
    ]
    for p, (eps, delta) in cases:
        lam = weight_from_coords(p, eps, delta)
        result = small_rank_exactness(lam, 3)
        assert result.passed and result.injective and result.cokernel_matches
    elapsed = time.perf_counter() - start
    report(10, "two-step narrow resolution verified per weight space at depth 3", elapsed, 120)
