import pytest

from superchar import bggcheck
from superchar.bggcheck import (
    complex_shape,
    euler_check,
    character_shift_sweep,
    image_check,
    restriction_check,
    small_rank_exactness,
)
from superchar.charring import FormalChar
from superchar.rootdata import (
    RankProfile,
    atypicality,
    weight_from_coords,
    weyl_group,
)


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
    sides = bggcheck._simple_td_sides

    def doubled(mu, d):
        narrow, closed = sides(mu, d)
        return narrow, closed.scale(2)

    monkeypatch.setattr(bggcheck, "_simple_td_sides", doubled)
    report = euler_check(lam, 4)
    assert not report.equal and len(calls) == 1
    _, lhs, rhs = report.first_discrepancy
    assert rhs == 2 * lhs != 0


def test_euler_report_json():
    p = P(1, 1)
    obj = euler_check(weight_from_coords(p, [1], [1]), 3).to_json_obj()
    assert obj["check"] == "euler" and obj["pass"] is True
    assert obj["profile"] == [1, 1] and obj["lambda_coords"] == [1, 1]


def test_complex_shape():
    assert complex_shape(P(2, 2)) == (1, 2, 1)
    for m, n in [(1, 1), (2, 1), (1, 3), (2, 2), (3, 2), (4, 3)]:
        lengths = [w.length for w in weyl_group(P(m, n))]
        shape = complex_shape(P(m, n))
        assert shape == tuple(lengths.count(k) for k in range(max(lengths) + 1))
        assert shape == shape[::-1]
    # closed form: gl(6|6) is past the Weyl-group enumeration bound
    widths = complex_shape(P(6, 6))
    assert sum(widths) == 518_400 and len(widths) == 31


def test_character_shift_sweep_pass_and_mismatches(monkeypatch):
    report = character_shift_sweep(P(2, 2), trials=2, depth=5, seed=0)
    assert report.passed
    assert report.pairs_checked == 36 * 2
    assert report.mismatches_tried == report.mismatches_detected == 10
    monkeypatch.setattr(bggcheck, "SWEEP_MISMATCHES", 3)
    small = character_shift_sweep(P(1, 1), trials=2, depth=4, seed=1)
    assert small.mismatches_tried == small.mismatches_detected == 3
    assert small.passed and small.pairs_checked == 8


def test_restriction_check():
    p11 = P(1, 1)
    assert restriction_check(weight_from_coords(p11, [2], [2]), 4)  # atypical
    p21 = P(2, 1)
    assert restriction_check(weight_from_coords(p21, [3, 0], [7]), 5)  # typical, 4 subsets
    assert restriction_check(weight_from_coords(p21, [3, 0], [3]), 5)  # 2 subsets
    p22 = P(2, 2)
    assert restriction_check(weight_from_coords(p22, [7, 2], [2, 7]), 4)


def test_restriction_check_rejects_non_generic():
    with pytest.raises(ValueError):
        restriction_check(weight_from_coords(P(2, 1), [2, 1], [5]), 4)


def test_restriction_subset_counts():
    p = P(2, 1)
    lam = weight_from_coords(p, [3, 0], [3])
    assert len(atypicality(lam).gamma) == 1  # so 2 of the 4 subsets survive


def test_small_rank_exactness_rejects():
    with pytest.raises(ValueError):
        small_rank_exactness(weight_from_coords(P(2, 2), [7, 2], [2, 7]), 2)
    with pytest.raises(ValueError):
        small_rank_exactness(weight_from_coords(P(2, 1), [0, 3], [3]), 2)


def test_antidominant_generic_narrow_is_simple_gl11():
    # antidominant generic weights: the narrow module is the simple one,
    # and its ranks match the closed character
    p = P(1, 1)
    for t in (-2, 0, 5):
        result = image_check(weight_from_coords(p, [t], [t]), 2)  # atypical, antidominant
        assert result.passed
        assert sum(rank for _, rank, _ in result.rows) == 1  # one-dimensional simple module
