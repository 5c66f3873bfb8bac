import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superchar.bggcheck import genericity_check
from superchar.diagrams import (
    diagram_json,
    is_g1_generic,
    is_totally_disconnected,
    render_ascii,
    weight_diagram,
)
from superchar.rootdata import (
    RankProfile,
    atypicality,
    classify,
    dot_action,
    weight_from_coords,
    weyl_group,
)


def P(m, n):
    return RankProfile(m, n)


def coords_box(p, radius):
    for values in itertools.product(range(-radius, radius + 1), repeat=p.dim):
        yield weight_from_coords(p, values[: p.m], values[p.m:])


def test_diagram_examples():
    p = P(2, 1)
    d = weight_diagram(weight_from_coords(p, [3, 0], [3]))
    assert d.positions("vee") == (3,)
    assert d.positions("cross") == (0,)
    assert d.positions("circle") == ()

    d = weight_diagram(weight_from_coords(p, [3, 0], [5]))
    assert d.positions("cross") == (0, 3)
    assert d.positions("circle") == (5,)

    p22 = P(2, 2)
    d = weight_diagram(weight_from_coords(p22, [5, 2], [2, 5]))
    assert d.positions("vee") == (2, 5)


def test_diagram_vee_count_is_atypicality():
    rng = random.Random(3)
    for m, n in [(2, 1), (2, 2), (3, 2)]:
        p = P(m, n)
        found = 0
        while found < 10:
            eps = sorted(
                rng.sample(range(-8, 9), p.m), reverse=True
            )
            delta = sorted(rng.sample(range(-8, 9), p.n))
            lam = weight_from_coords(p, eps, delta)
            found += 1
            d = weight_diagram(lam)
            assert len(d.positions("vee")) == atypicality(lam)


def test_diagram_round_trip():
    rng = random.Random(5)
    for m, n in [(1, 1), (2, 1), (2, 2)]:
        p = P(m, n)
        for _ in range(15):
            eps = sorted(rng.sample(range(-9, 10), p.m), reverse=True)
            delta = sorted(rng.sample(range(-9, 10), p.n))
            lam = weight_from_coords(p, eps, delta)
            # the diagram determines the weight: crosses and vees are the eps
            # coordinates, circles and vees the delta coordinates
            d = weight_diagram(lam)
            eps_back = sorted(d.positions("cross") + d.positions("vee"), reverse=True)
            delta_back = sorted(d.positions("circle") + d.positions("vee"))
            assert weight_from_coords(p, eps_back, delta_back) == lam


def test_diagram_rejects_non_dominant_and_non_regular():
    p = P(2, 2)
    with pytest.raises(ValueError):
        weight_diagram(weight_from_coords(p, [5, 2], [5, 2]))  # delta block decreasing
    with pytest.raises(ValueError):
        weight_diagram(weight_from_coords(p, [2, 2], [0, 1]))  # eps tie


def test_diagram_rendering():
    p = P(2, 1)
    d = weight_diagram(weight_from_coords(p, [3, 0], [3]))
    assert render_ascii(d) == "-1: ^x^^v^ :4"
    assert diagram_json(d) == {"positions": {"0": "cross", "3": "vee"}}


def test_totally_disconnected_examples():
    p22 = P(2, 2)
    assert is_totally_disconnected(weight_from_coords(p22, [5, 2], [2, 5]))
    assert not is_totally_disconnected(weight_from_coords(p22, [3, 2], [2, 3]))


def test_atypicality_at_most_one_is_disconnected():
    rng = random.Random(7)
    p = P(2, 2)
    found = 0
    while found < 20:
        eps = sorted(rng.sample(range(-6, 7), 2), reverse=True)
        delta = sorted(rng.sample(range(-6, 7), 2))
        lam = weight_from_coords(p, eps, delta)
        if atypicality(lam) <= 1:
            found += 1
            assert is_totally_disconnected(lam)


def test_generic_examples():
    p11 = P(1, 1)
    for t in (-3, 0, 4):
        assert is_g1_generic(weight_from_coords(p11, [t], [t]), "brute")
    p21 = P(2, 1)
    assert is_g1_generic(weight_from_coords(p21, [3, 0], [3]), "brute")
    assert not is_g1_generic(weight_from_coords(p21, [2, 1], [5]), "brute")


def test_fast_equals_brute_exhaustive():
    """Gap criterion against the subset walk on every weight of a box."""
    # radius 3 still holds gaps 2, 3 and 4 within each block, on both
    # sides of the thresholds n and m of gl(3|2) and gl(2|3); gl(2|2) is
    # walked at radius 6 by tests/test_acceptance.py criterion 8
    radius_by_dim = {2: 6, 3: 6, 4: 4, 5: 3}
    for m, n in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]:
        p = P(m, n)
        assert genericity_check(p, radius_by_dim[p.dim]) is None


# every gl(m|n) whose subset walk has at most 2^12 subsets
WALKABLE = [P(m, n) for m in range(1, 13) for n in range(1, 13) if m * n <= 12]


def block_near_walls(draw, size, cap):
    """A coordinate block whose consecutive gaps sit around the threshold
    cap, in random order and at a random offset."""
    values = [draw(st.integers(-20, 20))]
    for _ in range(size - 1):
        values.append(values[-1] + draw(st.integers(cap - 1, cap + 2)))
    return draw(st.permutations(values))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(WALKABLE), st.data())
def test_fast_equals_brute_near_walls(p, data):
    eps = block_near_walls(data.draw, p.m, p.n)
    delta = block_near_walls(data.draw, p.n, p.m)
    lam = weight_from_coords(p, eps, delta)
    assert is_g1_generic(lam, "fast") == is_g1_generic(lam, "brute")


def test_generic_implies_regular():
    for lam in coords_box(P(2, 2), 4):
        if is_g1_generic(lam, "brute"):
            assert classify(lam).regular


def test_generic_dominant_implies_disconnected():
    rng = random.Random(11)
    for m, n in [(2, 1), (2, 2), (3, 3)]:
        p = P(m, n)
        found = 0
        while found < 15:
            eps = sorted((rng.randint(-20, 20) for _ in range(p.m)), reverse=True)
            delta = sorted(rng.randint(-20, 20) for _ in range(p.n))
            lam = weight_from_coords(p, eps, delta)
            if is_g1_generic(lam, "brute") and classify(lam).dominant:
                found += 1
                assert is_totally_disconnected(lam)


def test_weyl_orbit_of_generic_is_generic():
    rng = random.Random(13)
    for m, n in [(2, 1), (2, 2), (3, 2)]:
        p = P(m, n)
        group = weyl_group(p)
        found = 0
        while found < 10:
            lam = weight_from_coords(
                p,
                [rng.randint(-20, 20) for _ in range(p.m)],
                [rng.randint(-20, 20) for _ in range(p.n)],
            )
            if is_g1_generic(lam, "brute"):
                found += 1
                for w in group:
                    assert is_g1_generic(dot_action(w, lam), "brute")


def test_generic_auto_mode_and_bound(monkeypatch):
    from superchar.rootdata import EnumerationBound

    p = P(2, 2)
    lam = weight_from_coords(p, [9, 1], [2, 8])
    assert is_g1_generic(lam)  # the default mode is the gap criterion
    monkeypatch.setattr("superchar.diagrams.DEFAULT_SUBSET_BOUND", 16)
    assert is_g1_generic(lam, "brute")
    monkeypatch.setattr("superchar.diagrams.DEFAULT_SUBSET_BOUND", 8)
    with pytest.raises(EnumerationBound) as excinfo:
        is_g1_generic(lam, "brute")
    assert str(excinfo.value) == "brute genericity needs 2^4 subsets, over the bound 8"
    with pytest.raises(ValueError):
        is_g1_generic(lam, "off")
