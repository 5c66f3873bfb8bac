import itertools

import pytest

from superchar import bggcheck
from superchar.bggcheck import (
    euler_check,
    character_shift_sweep,
    image_check,
    small_rank_exactness,
)
from superchar.borels import antidistinguished, distinguished
from superchar.charring import FormalChar, char_narrow, char_verma, zero_char
from superchar.rootdata import (
    RankProfile,
    atypical_roots,
    odd_positive_roots,
    weight_from_coords,
)
from superchar.vermacalc import VermaModule, narrow_image_dims


def P(m, n):
    return RankProfile(m, n)


def test_euler_gl11_trivial():
    p = P(1, 1)
    lam = weight_from_coords(p, [0], [0])
    report = euler_check(lam, 4)
    assert report.equal
    assert report.lhs.coeffs == {lam: 1}
    assert report.rhs.coeffs == {lam: 1}
    assert report.first_discrepancy is None


def test_euler_atypical_and_typical_cases():
    cases = [
        (P(2, 1), ([3, 0], [3]), 6),
        (P(2, 1), ([3, 0], [7]), 6),
        (P(1, 2), ([3], [0, 3]), 6),
        (P(2, 2), ([7, 2], [2, 7]), 5),
        (P(2, 2), ([9, 1], [2, 8]), 5),
    ]
    for p, (eps, delta), depth in cases:
        report = euler_check(weight_from_coords(p, eps, delta), depth)
        assert report.equal, (p, eps, delta, report.first_discrepancy)


def test_euler_rejects_bad_inputs():
    p = P(2, 1)
    with pytest.raises(ValueError):
        euler_check(weight_from_coords(p, [0, 3], [3]), 4)  # not dominant
    with pytest.raises(ValueError):
        euler_check(weight_from_coords(p, [2, 1], [5]), 4)  # not generic
    p22 = P(2, 2)
    with pytest.raises(ValueError):
        euler_check(weight_from_coords(p22, [7, 2], [7, 2]), 4)  # not dominant
    # singular: its window is the whole stabilizer of lam+rho, all of gl(6|6)'s W,
    # so genericity is refused before the window is walked
    with pytest.raises(ValueError, match="not g_-1-generic"):
        euler_check(weight_from_coords(P(6, 6), [5] * 6, [5] * 6), 8)


def test_euler_discrepancy_only_on_inequality(monkeypatch):
    lam = weight_from_coords(P(2, 1), [3, 0], [3])
    calls = []
    first_discrepancy = FormalChar.first_discrepancy

    def counted(self, other):
        calls.append(other)
        return first_discrepancy(self, other)

    monkeypatch.setattr(FormalChar, "first_discrepancy", counted)
    assert euler_check(lam, 4).first_discrepancy is None and not calls
    simple = bggcheck.char_simple_td
    monkeypatch.setattr(bggcheck, "char_simple_td", lambda mu, d: simple(mu, d).scale(2))
    report = euler_check(lam, 4)
    assert not report.equal and len(calls) == 1
    _, lhs, rhs = report.first_discrepancy
    assert rhs == 2 * lhs != 0


def test_euler_report_json():
    p = P(1, 1)
    obj = euler_check(weight_from_coords(p, [1], [1]), 3).to_json_obj()
    assert obj["check"] == "euler" and obj["pass"] is True
    assert obj["profile"] == [1, 1] and obj["lambda_coords"] == [1, 1]


def test_character_shift_sweep_pass_and_mismatches(monkeypatch):
    report = character_shift_sweep(P(2, 2), trials=2, depth=5, seed=0)
    assert report.passed
    assert report.pairs_checked == 36 * 2
    assert report.mismatches_tried == report.mismatches_detected == 10
    monkeypatch.setattr(bggcheck, "SWEEP_MISMATCHES", 3)
    small = character_shift_sweep(P(1, 1), trials=2, depth=4, seed=1)
    assert small.mismatches_tried == small.mismatches_detected == 3
    assert small.passed and small.pairs_checked == 8


def even_verma_subset_sum(lam, roots, depth):
    """Sum over the subsets S of `roots` of the even Verma character at
    lam - sum(S), on the window below lam, each summand on its own: the
    even Verma character at nu is the gl(m|n) Verma character at nu with
    every odd factor divided back out."""
    p, floor = lam.profile, lam.xi - depth
    total = zero_char(p, lam, depth)
    for mask in itertools.product((0, 1), repeat=len(roots)):
        nu = lam
        for bit, beta in zip(mask, roots):
            if bit:
                nu = nu - beta.as_weight()
        if nu.xi >= floor:
            verma = char_verma(distinguished(p), nu, nu.xi - floor)
            for beta in odd_positive_roots(p):
                verma = verma.div_unit(beta, +1)
            total = total + verma
    return total


def test_restriction_check():
    # the narrow character restricts to the even Verma characters over the
    # subsets of the odd positive roots that are not atypical
    cases = [
        (P(1, 1), ([2], [2]), 4),  # atypical
        (P(2, 1), ([3, 0], [7]), 5),  # typical, 4 subsets
        (P(2, 1), ([3, 0], [3]), 5),  # 2 subsets
        (P(2, 2), ([7, 2], [2, 7]), 4),
    ]
    for p, (eps, delta), depth in cases:
        lam = weight_from_coords(p, eps, delta)
        gamma = atypical_roots(lam)
        usable = [beta for beta in odd_positive_roots(p) if beta not in gamma]
        expected = even_verma_subset_sum(lam, usable, depth)
        assert char_narrow(lam, depth, warn=False).to_json_obj() == expected.to_json_obj()


def test_restriction_subset_counts():
    p = P(2, 1)
    lam = weight_from_coords(p, [3, 0], [3])
    assert len(atypical_roots(lam)) == 1  # so 2 of the 4 subsets survive


def test_small_rank_exactness_rejects():
    with pytest.raises(ValueError):
        small_rank_exactness(weight_from_coords(P(2, 2), [7, 2], [2, 7]), 2)
    with pytest.raises(ValueError):
        small_rank_exactness(weight_from_coords(P(2, 1), [0, 3], [3]), 2)
    # regular dominant, but the eps gap 1 is not more than n = 1
    with pytest.raises(ValueError, match="not g_-1-generic"):
        small_rank_exactness(weight_from_coords(P(2, 1), [1, 0], [5]), 2)


def test_small_rank_exactness_builds_one_ambient_per_narrow_module(monkeypatch):
    """The images of X v and X f^k v are taken in one ambient module, so
    they share its level walk and straightening cache; N(s.lam) has its
    own.  Two anti-distinguished modules, with distinct highest weights."""
    built = []
    init = VermaModule.__init__
    monkeypatch.setattr(VermaModule, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    for p, (eps, delta) in [(P(2, 1), ([3, 0], [3])), (P(1, 2), ([9], [0, 4]))]:
        built.clear()
        assert small_rank_exactness(weight_from_coords(p, eps, delta), 3).passed
        ambients = [lam for b, lam in built if b == antidistinguished(p)]
        assert len(ambients) == len(set(ambients)) == 2


def test_antidominant_generic_narrow_is_simple_gl11():
    # antidominant generic weights: the narrow module is the simple one,
    # and its ranks match the closed character
    p = P(1, 1)
    for t in (-2, 0, 5):
        result = image_check(weight_from_coords(p, [t], [t]), 2)  # atypical, antidominant
        assert result.passed
        assert sum(rank for _, rank, _ in result.rows) == 1  # one-dimensional simple module


def test_image_check_refuses_non_generic_weights():
    # the closed narrow formula needs genericity: at the trivial gl(2|2)
    # weight one weight of xi-drop 4 has rank 0 and coefficient 1
    lam = weight_from_coords(P(2, 2), [0, -1], [-1, 0])
    ranks = narrow_image_dims(lam, 4)
    chart = char_narrow(lam, 4, warn=False)
    wrong = [(lam.xi - nu.xi, r, chart.coeff(nu)) for nu, r in ranks.items() if r != chart.coeff(nu)]
    assert wrong == [(4, 0, 1)]
    with pytest.raises(ValueError, match="not g_-1-generic"):
        image_check(lam, 4)
