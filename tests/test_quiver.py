from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction
from math import comb

import pytest

from quivhom import (
    CyclicQuiverError,
    Quiver,
    WeightedQuiver,
    WeightError,
    count_nchains,
    enumerate_nchains,
    enumerate_paths,
    find_cycle,
    induced_subquiver,
    is_acyclic,
    k_hop_levels,
    k_hop_vertices,
    make_nchain,
    make_path,
    topological_order,
)
from conftest import random_acyclic_weighted_quiver, random_digraph, random_multigraph

TRIANGLE = Quiver(3, [(0, 1), (1, 2), (0, 2)])
SQUARE = Quiver(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
PATH3 = Quiver(3, [(0, 1), (1, 2)])


def test_quiver_rejects_out_of_range_arrows():
    with pytest.raises(ValueError):
        Quiver(2, [(0, 2)])


def test_weighted_quiver_rejects_zero_weight():
    with pytest.raises(WeightError):
        WeightedQuiver(PATH3, [1, 0])


def test_weighted_quiver_rejects_wrong_weight_count():
    with pytest.raises(ValueError):
        WeightedQuiver(PATH3, [1])


@pytest.mark.parametrize("build, error", [
    (lambda: Quiver(2, [(0, 1), (-1, 0)]), ValueError),
    (lambda: Quiver(-1), ValueError),
    (lambda: WeightedQuiver(PATH3, [Fraction(1), 0]), WeightError),
    (lambda: WeightedQuiver(PATH3, [1, 2, 3]), ValueError),
])
def test_public_constructors_keep_their_checks(build, error):
    with pytest.raises(error):
        build()


def test_weighted_quiver_stores_fractions_and_keeps_given_ones():
    given = Fraction(7, 3)
    wq = WeightedQuiver(TRIANGLE, [2, "3/4", given])
    assert wq.weights == (Fraction(2), Fraction(3, 4), given)
    assert all(type(w) is Fraction for w in wq.weights)
    assert wq.weights[2] is given
    with pytest.raises(WeightError):
        WeightedQuiver(PATH3, [Fraction(1), Fraction(0)])


def test_parallel_arrows_are_allowed():
    q = Quiver(2, [(0, 1), (0, 1)])
    assert q.arrow_count == 2
    assert q.out_arrows[0] == (0, 1)


def test_is_acyclic_chain():
    assert is_acyclic(PATH3)
    assert topological_order(PATH3) == [0, 1, 2]


def test_is_acyclic_two_cycle():
    q = Quiver(2, [(0, 1), (1, 0)])
    assert not is_acyclic(q)
    cycle = find_cycle(q)
    assert cycle[0] == cycle[-1] and len(cycle) == 3


def test_is_acyclic_self_loop():
    q = Quiver(1, [(0, 0)])
    assert not is_acyclic(q)
    assert find_cycle(q) == [0, 0]


def test_is_acyclic_agrees_with_topological_order():
    rng = random.Random(71)
    outcomes = set()
    for _ in range(300):
        q = random_multigraph(rng).quiver
        acyclic = is_acyclic(q)
        assert acyclic == (topological_order(q) is not None)
        outcomes.add(acyclic)
    assert outcomes == {True, False}


@pytest.mark.parametrize("draw", [
    random_multigraph,
    lambda rng: random_digraph(rng, max_vertices=20, max_arrows=30, self_loops=True),
], ids=["multigraph", "digraph"])
def test_find_cycle_and_topological_order_agree_with_is_acyclic(draw):
    rng = random.Random(28)
    outcomes = set()
    for _ in range(300):
        q = draw(rng).quiver
        acyclic = is_acyclic(q)
        outcomes.add(acyclic)
        cycle = find_cycle(q)
        assert (cycle is None) == acyclic
        if cycle is not None:
            # a closed walk along arrows of q, no vertex repeated inside it
            assert len(cycle) >= 2 and cycle[0] == cycle[-1]
            assert set(zip(cycle, cycle[1:])) <= set(q.arrows)
            assert len(set(cycle[1:])) == len(cycle) - 1
        order = topological_order(q)
        assert topological_order(q) == order
        if acyclic:
            assert sorted(order) == list(range(q.vertex_count))
            place = {v: i for i, v in enumerate(order)}
            assert all(place[s] < place[t] for s, t in q.arrows)
        else:
            assert order is None
    assert outcomes == {True, False}


def test_enumerate_paths_triangle():
    paths = enumerate_paths(TRIANGLE)
    assert len(paths) == 4
    assert sorted(p.arrows for p in paths) == [(0,), (0, 1), (1,), (2,)]
    two_step = next(p for p in paths if p.length == 2)
    assert (two_step.source, two_step.target) == (0, 2)


def test_enumerate_paths_single_arrow():
    q = Quiver(2, [(0, 1)])
    assert [p.arrows for p in enumerate_paths(q)] == [(0,)]


def test_enumerate_paths_square():
    paths = enumerate_paths(SQUARE)
    assert len(paths) == 6
    assert sorted(p.arrows for p in paths if p.length == 2) == [(0, 1), (2, 3)]


def test_enumerate_paths_lexicographic_order():
    paths = enumerate_paths(TRIANGLE)
    assert [p.arrows for p in paths] == sorted(p.arrows for p in paths)


def test_enumerate_paths_unbounded_requires_acyclic():
    with pytest.raises(CyclicQuiverError):
        enumerate_paths(Quiver(2, [(0, 1), (1, 0)]))


def test_enumerate_paths_bounded_on_count():
    # path counts must match an independent DP over the adjacency counts
    rng = random.Random(11)
    for _ in range(30):
        wq = random_acyclic_weighted_quiver(rng)
        q = wq.quiver
        n = q.vertex_count
        adj = [[0] * n for _ in range(n)]
        for s, t in q.arrows:
            adj[s][t] += 1
        total, power = 0, adj
        for _ in range(max(n - 1, 0)):
            total += sum(map(sum, power))
            power = [
                [sum(power[i][k] * adj[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
        assert len(enumerate_paths(q)) == total


def test_nchains_triangle_unbounded():
    chains = enumerate_nchains(TRIANGLE, 2)
    assert len(chains) == 1
    (chain,) = chains
    assert [p.arrows for p in chain.parts] == [(0,), (1,)]


def test_nchains_triangle_truncated_to_length_one():
    assert enumerate_nchains(TRIANGLE, 2, ell=1) == []


def test_nchains_degree_one_truncated_is_arrow_set():
    for q in (TRIANGLE, SQUARE, PATH3):
        chains = enumerate_nchains(q, 1, ell=1)
        assert [c.parts[0].arrows for c in chains] == [(a,) for a in range(q.arrow_count)]


def test_nchains_degree_one_unbounded_equals_paths():
    rng = random.Random(3)
    for _ in range(20):
        q = random_acyclic_weighted_quiver(rng).quiver
        assert [c.parts[0] for c in enumerate_nchains(q, 1)] == enumerate_paths(q)


def test_nchains_are_composable_and_nondegenerate():
    rng = random.Random(4)
    for _ in range(20):
        q = random_acyclic_weighted_quiver(rng).quiver
        for chain in enumerate_nchains(q, 3):
            for a, b in zip(chain.parts, chain.parts[1:]):
                assert a.target == b.source
            assert all(p.length >= 1 for p in chain.parts)


def test_nchains_reject_cyclic_input():
    with pytest.raises(CyclicQuiverError):
        enumerate_nchains(Quiver(2, [(0, 1), (1, 0)]), 1, ell=2)


def test_count_nchains_matches_enumeration_and_caps():
    assert count_nchains(TRIANGLE, 2) == 1
    assert count_nchains(SQUARE, 1) == 6
    assert count_nchains(SQUARE, 1, cap=3) == 4  # stops at cap + 1


def test_closed_form_count_matches_enumeration_on_multigraph_dags():
    # the closed form against the enumeration it replaced in the guard, on
    # DAGs with parallel arcs and isolated vertices, every ell axis size
    rng = random.Random(0xC0DE)
    dags = parallel = 0
    while dags < 300:
        q = random_multigraph(rng, max_vertices=9).quiver
        if not is_acyclic(q):
            with pytest.raises(CyclicQuiverError):
                count_nchains(q, 1)
            continue
        dags += 1
        parallel += len(set(q.arrows)) < q.arrow_count
        for ell in (None, 0, 1, 2, 3, 5):
            for n in range(1, 5):
                assert count_nchains(q, n, ell) == len(enumerate_nchains(q, n, ell)), \
                    (q, n, ell)
    assert parallel >= 30


def test_count_nchains_caps_and_counts_exactly():
    # a chain on a line graph picks n + 1 of its vertices in order
    n = 1500
    line = Quiver(n, [(i, i + 1) for i in range(n - 1)])
    assert [count_nchains(line, k) for k in (1, 2, 3)] == [comb(n, k + 1) for k in (1, 2, 3)]
    assert count_nchains(line, 3, cap=comb(n, 4)) == comb(n, 4)
    assert count_nchains(line, 3, cap=comb(n, 4) - 1) == comb(n, 4)
    assert count_nchains(SQUARE, 1, cap=0) == 1
    assert count_nchains(SQUARE, 2, ell=-1) == 0
    with pytest.raises(ValueError, match="n must be positive"):
        count_nchains(SQUARE, 0)


def test_count_nchains_above_the_longest_path_keeps_short_rows():
    # a chain has at most N - 1 parts, so each vertex's count row stops
    # there; one 10**6-long row alone takes 8 MB
    rng = random.Random(11)
    q = Quiver(40, [tuple(sorted(rng.sample(range(40), 2))) for _ in range(60)])
    tracemalloc.start()
    try:
        assert count_nchains(q, 10**6) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * 10**6


def test_deep_line_graph_enumeration_is_iterative():
    # paths deeper than the interpreter recursion limit must still stream
    n = 1500
    q = Quiver(n, [(i, i + 1) for i in range(n - 1)])
    assert count_nchains(q, 1, cap=10_000) == 10_001


def test_k_hop_examples():
    assert k_hop_vertices(PATH3, 0, 1) == {0, 1}
    assert k_hop_vertices(PATH3, 0, 2) == {0, 1, 2}
    assert k_hop_vertices(PATH3, 2, 0) == {2}
    assert k_hop_vertices(PATH3, 2, 5) == {2}
    assert k_hop_vertices(PATH3, 0, 10**9) == {0, 1, 2}


def test_k_hop_monotone_and_stabilizes():
    rng = random.Random(5)
    for _ in range(20):
        q = random_acyclic_weighted_quiver(rng).quiver
        for v in range(q.vertex_count):
            prev = k_hop_vertices(q, v, 0)
            for k in range(1, q.vertex_count + 2):
                cur = k_hop_vertices(q, v, k)
                assert prev <= cur
                prev = cur
            assert prev == k_hop_vertices(q, v, max(q.vertex_count - 1, 0))


def test_induced_subquiver_full_set_is_identity():
    wq = WeightedQuiver(TRIANGLE, [2, 3, 6])
    sub = induced_subquiver(wq, {0, 1, 2})
    assert sub.wq == wq
    assert sub.sub_to_vertex == (0, 1, 2)
    assert sub.sub_to_arrow == (0, 1, 2)


def test_induced_subquiver_drops_arrows():
    wq = WeightedQuiver(TRIANGLE, [2, 3, 6])
    sub = induced_subquiver(wq, {0, 2})
    assert sub.wq.vertex_count == 2
    assert sub.wq.quiver.arrows == ((0, 1),)
    assert sub.wq.weights == (Fraction(6),)
    assert sub.sub_to_arrow == (2,)


def test_induced_subquiver_empty():
    wq = WeightedQuiver(TRIANGLE, [2, 3, 6])
    sub = induced_subquiver(wq, set())
    assert sub.wq.vertex_count == 0
    assert sub.wq.arrow_count == 0


def _scan_induced(wq: WeightedQuiver, vs):
    """Reference: the induced subquiver by a scan over every arrow."""
    sub_to_vertex = tuple(sorted(set(vs)))
    vertex_to_sub = {v: i for i, v in enumerate(sub_to_vertex)}
    sub_to_arrow = tuple(
        a for a, (s, t) in enumerate(wq.quiver.arrows)
        if s in vertex_to_sub and t in vertex_to_sub
    )
    arrows = tuple(
        (vertex_to_sub[wq.quiver.arrows[a][0]], vertex_to_sub[wq.quiver.arrows[a][1]])
        for a in sub_to_arrow
    )
    return {
        "vertex_to_sub": vertex_to_sub,
        "sub_to_vertex": sub_to_vertex,
        "arrow_to_sub": {a: i for i, a in enumerate(sub_to_arrow)},
        "sub_to_arrow": sub_to_arrow,
        "arrows": arrows,
        "weights": tuple(wq.weights[a] for a in sub_to_arrow),
    }


def test_induced_subquiver_matches_full_scan():
    rng = random.Random(83)
    for _ in range(300):
        wq = random_multigraph(rng)
        n = wq.vertex_count
        vs = rng.sample(range(n), rng.randint(0, n))
        vs += rng.choices(vs, k=rng.randint(0, len(vs)))  # duplicates
        rng.shuffle(vs)
        sub = induced_subquiver(wq, iter(vs))
        ref = _scan_induced(wq, vs)
        assert sub.vertex_to_sub == ref["vertex_to_sub"]
        assert sub.sub_to_vertex == ref["sub_to_vertex"]
        assert sub.arrow_to_sub == ref["arrow_to_sub"]
        assert sub.sub_to_arrow == ref["sub_to_arrow"]
        assert sub.wq.quiver.arrows == ref["arrows"]
        assert sub.wq.weights == ref["weights"]
        assert sub.wq.vertex_count == len(ref["sub_to_vertex"])
    for bad in (-1, n):
        with pytest.raises(ValueError):
            induced_subquiver(wq, [0, bad])


def test_k_hop_levels_match_k_hop_vertices():
    rng = random.Random(89)
    for _ in range(100):
        q = random_multigraph(rng).quiver
        for v in range(q.vertex_count):
            levels = k_hop_levels(q, v, 4)
            assert len(levels) == 4
            for k, level in enumerate(levels, start=1):
                assert level == k_hop_vertices(q, v, k)
    assert k_hop_levels(PATH3, 0, 0) == []
    with pytest.raises(ValueError):
        k_hop_levels(PATH3, 3, 1)
    with pytest.raises(ValueError):
        k_hop_levels(PATH3, 0, -1)


def test_k_hop_vertices_is_the_last_level():
    rng = random.Random(61)
    for _ in range(60):
        q = random_multigraph(rng).quiver
        n = q.vertex_count
        for v in range(n):
            assert k_hop_vertices(q, v, 0) == {v}
            for k in (1, 2, 3, 4, 5, n, n + 1, 10**9):
                assert k_hop_vertices(q, v, k) == k_hop_levels(q, v, min(k, n + 1))[-1]
    with pytest.raises(ValueError):
        k_hop_vertices(PATH3, 3, 0)


def test_make_path_checks_composability():
    with pytest.raises(ValueError):
        make_path(TRIANGLE, [1, 0])
    p = make_path(TRIANGLE, [0, 1])
    assert (p.source, p.target, p.length) == (0, 2, 2)


def test_make_nchain_checks_composability():
    p01 = make_path(TRIANGLE, [0])
    p12 = make_path(TRIANGLE, [1])
    chain = make_nchain([p01, p12])
    assert chain.total_length == 2
    with pytest.raises(ValueError):
        make_nchain([p12, p01])
