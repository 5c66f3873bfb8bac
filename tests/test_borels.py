import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superchar.borels import (
    BorelElt,
    antidistinguished,
    borel,
    borel_graph,
    distinguished,
    enumerate_borels,
    odd_reflection,
)
from superchar.rootdata import (
    EnumerationBound,
    RankProfile,
    Root,
    rho_b,
)


def P(m, n):
    return RankProfile(m, n)


def test_enumeration_counts():
    assert len(enumerate_borels(P(1, 1))) == 2
    assert len(enumerate_borels(P(2, 1))) == 3
    assert len(enumerate_borels(P(2, 2))) == 6
    for m in range(1, 6):
        for n in range(1, 6):
            items = enumerate_borels(P(m, n))
            assert len(items) == math.comb(m + n, m)
            assert len(set(items)) == len(items)
            assert distinguished(P(m, n)) in items
            assert antidistinguished(P(m, n)) in items


def test_enumeration_bound(monkeypatch):
    monkeypatch.setattr("superchar.borels.DEFAULT_BOREL_BOUND", 10)
    with pytest.raises(EnumerationBound, match=r"^\|L\(5,5\)\| = 252 exceeds bound 10$"):
        enumerate_borels(P(5, 5))
    with pytest.raises(EnumerationBound):
        borel_graph(P(5, 5))
    assert len(enumerate_borels(P(2, 1))) == 3


def test_partition_validation():
    with pytest.raises(ValueError):
        BorelElt(P(2, 2), (1, 2))  # not weakly decreasing
    with pytest.raises(ValueError, match="parts must be positive"):
        borel(P(2, 2), [0, 1])  # only trailing zeros are dropped
    assert borel(P(3, 2), [2, 1, 0]) == borel(P(3, 2), [2, 1])
    with pytest.raises(ValueError):
        BorelElt(P(2, 2), (3,))  # part exceeds the box
    with pytest.raises(ValueError):
        BorelElt(P(2, 2), (1, 1, 1))  # too many parts


def test_seq_examples():
    p = P(2, 2)
    assert distinguished(p).seq_ascii() == "eedd"
    assert antidistinguished(p).seq_ascii() == "ddee"
    assert borel(p, [1]).seq_ascii() == "eded"
    assert distinguished(P(2, 1)).seq_ascii() == "eed"


def test_views_round_trip_up_to_5_5():
    for m in range(1, 6):
        for n in range(1, 6):
            p = P(m, n)
            for b in enumerate_borels(p):
                # k-th part = deltas to the left of the k-th eps from the right
                seq = b.seq_ascii()
                eps_at = [pos for pos, ch in enumerate(seq) if ch == "e"][::-1]
                parts = tuple(seq[:pos].count("d") for pos in eps_at)
                assert b.partition == tuple(part for part in parts if part)
                assert b.seq() == seq.replace("e", "ε").replace("d", "δ")
                assert sorted(seq) == ["d"] * n + ["e"] * m


def test_views_match_an_independent_reading_of_the_sequence():
    # read seq_ascii alone: its k-th "e" is eps_k (index k), its k-th "d" is
    # delta_k (index m + k); a root is positive when its i comes before its j
    for m in range(1, 5):
        for n in range(1, 5):
            for b in enumerate_borels(P(m, n)):
                seen = {"e": 0, "d": m}
                basis = []
                for ch in b.seq_ascii():
                    seen[ch] += 1
                    basis.append(seen[ch])
                before = {(i, j) for a, i in enumerate(basis) for j in basis[a + 1:]}
                assert {(r.i, r.j) for r in b.positive_roots()} == before
                assert [(r.i, r.j) for r in b.simple_roots()] == list(zip(basis, basis[1:]))
                flipped = sorted((i, j) for j, i in before if i <= m < j)
                assert [(r.i, r.j) for r in b.flipped_odd_roots()] == flipped
                odd = sorted((i, j) for i, j in before if (i <= m) != (j <= m))
                assert [(r.i, r.j) for r in b.odd_positive_roots()] == odd


def test_positive_system_sizes_and_even_part():
    for m, n in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        p = P(m, n)
        d = p.dim
        standard_even = {
            (i, j)
            for i in range(1, d + 1)
            for j in range(1, d + 1)
            if i < j and ((j <= m) or (i > m))
        }
        for b in enumerate_borels(p):
            pos = b.positive_roots()
            assert len(pos) == d * (d - 1) // 2
            even = {(r.i, r.j) for r in pos if not r.is_odd}
            assert even == standard_even


def test_odd_positive_examples_gl11():
    p = P(1, 1)
    assert {(r.i, r.j) for r in distinguished(p).odd_positive_roots()} == {(1, 2)}
    assert {(r.i, r.j) for r in antidistinguished(p).odd_positive_roots()} == {(2, 1)}


def test_box_count_invariant():
    # delta-minus-eps positive roots == number of boxes
    for m in range(1, 5):
        for n in range(1, 5):
            p = P(m, n)
            for b in enumerate_borels(p):
                reversed_odd = [r for r in b.odd_positive_roots() if r.i > m]
                assert len(reversed_odd) == b.box_count()
                assert len(b.flipped_odd_roots()) == b.box_count()


def test_simple_roots_examples():
    p21 = P(2, 1)
    simples = distinguished(p21).simple_roots()
    assert [(r.i, r.j, r.parity) for r in simples] == [
        (1, 2, "even"),
        (2, 3, "odd"),
    ]
    p11 = P(1, 1)
    assert [(r.i, r.j) for r in distinguished(p11).simple_roots()] == [(1, 2)]
    p22 = P(2, 2)
    simples = antidistinguished(p22).simple_roots()
    assert [(r.i, r.j) for r in simples] == [(3, 4), (4, 1), (1, 2)]


def test_simple_roots_are_minimal():
    # a simple root never splits as a sum of two positive roots
    for m, n in [(2, 1), (2, 2)]:
        p = P(m, n)
        for b in enumerate_borels(p):
            pos = {r.as_weight().coeffs for r in b.positive_roots()}
            for alpha in b.simple_roots():
                aw = alpha.as_weight()
                for r in b.positive_roots():
                    diff = aw - r.as_weight()
                    assert diff.coeffs not in pos


def test_odd_reflection_examples():
    p11 = P(1, 1)
    b = odd_reflection(distinguished(p11), Root(p11, 1, 2))
    assert b.partition == (1,)
    p21 = P(2, 1)
    b = odd_reflection(distinguished(p21), Root(p21, 2, 3))
    assert b.partition == (1,)


def test_odd_reflection_involution():
    p = P(2, 2)
    b = borel(p, [1])
    for alpha in b.simple_roots():
        if alpha.is_odd:
            target = odd_reflection(b, alpha)
            assert odd_reflection(target, -alpha) == b


def test_odd_reflection_positive_system_update():
    p = P(2, 2)
    for b in enumerate_borels(p):
        for alpha in b.simple_roots():
            if not alpha.is_odd:
                continue
            target = odd_reflection(b, alpha)
            before, after = b.positive_roots(), target.positive_roots()
            assert before - after == {alpha}
            assert after - before == {-alpha}
            assert abs(target.box_count() - b.box_count()) == 1


def test_odd_reflection_rejects_bad_root():
    p = P(2, 1)
    with pytest.raises(ValueError):
        odd_reflection(distinguished(p), Root(p, 1, 2))  # even simple
    with pytest.raises(ValueError):
        odd_reflection(distinguished(p), Root(p, 1, 3))  # odd but not simple


def test_graph_edge_counts():
    assert len(borel_graph(P(1, 1))) == 1
    # chains () - (1) - (1,1) for gl(2|1)
    edges21 = borel_graph(P(2, 1))
    assert len(edges21) == 2
    # Young lattice of the 2x2 box has 6 covering pairs
    assert len(borel_graph(P(2, 2))) == 6


def test_graph_edges_are_box_additions():
    for m, n in [(2, 1), (2, 2), (3, 2)]:
        p = P(m, n)
        edges = borel_graph(p)
        covers = set()
        for b in enumerate_borels(p):
            parts = list(b.partition) + [0] * (m - len(b.partition))
            for row in range(m):
                grown = parts[:]
                grown[row] += 1
                if grown[row] <= n and (row == 0 or grown[row] <= grown[row - 1]):
                    covers.add((b.partition, borel(p, grown).partition))
        assert {(e.source.partition, e.target.partition) for e in edges} == covers


def test_graph_connected_graded_chains():
    for m, n in [(2, 1), (2, 2), (3, 2)]:
        p = P(m, n)
        edges = borel_graph(p)
        nodes = set(enumerate_borels(p))
        for e in edges:
            assert e.target.box_count() == e.source.box_count() + 1
        # connectivity of the undirected reflection graph
        reach = {distinguished(p)}
        frontier = [distinguished(p)]
        adjacency = {}
        for e in edges:
            adjacency.setdefault(e.source, []).append(e.target)
            adjacency.setdefault(e.target, []).append(e.source)
        while frontier:
            b = frontier.pop()
            for nxt in adjacency.get(b, []):
                if nxt not in reach:
                    reach.add(nxt)
                    frontier.append(nxt)
        assert reach == nodes
        # every maximal chain from bottom to top has m*n steps (grading)
        lengths = set()

        def walk(b, steps):
            outgoing = [e for e in edges if e.source == b]
            if not outgoing:
                lengths.add(steps)
            for e in outgoing:
                walk(e.target, steps + 1)

        walk(distinguished(p), 0)
        assert lengths == {m * n}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_odd_reflection_rho_update_property(m, n, data):
    """rho^{r_alpha b} = rho^b + alpha at every odd simple root alpha of b."""
    b = data.draw(st.sampled_from(enumerate_borels(P(m, n))))
    alpha = data.draw(st.sampled_from([a for a in b.simple_roots() if a.is_odd]))
    assert rho_b(odd_reflection(b, alpha)) == rho_b(b) + alpha.as_weight()


def test_render():
    from superchar.borels import render

    b = borel(P(2, 2), [2, 1])
    assert str(b) == "partition:[2,1]"
    assert b.seq_ascii() == "dede"
    assert render(b) == f"partition:[2,1] seq:{b.seq()}"
