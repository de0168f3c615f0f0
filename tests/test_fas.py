from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from quivhom import Quiver, WeightedQuiver, berger_shor, is_acyclic, to_dag
from quivhom.cli import main
from quivhom.fas import berger_shor_arcs
from quivhom.quiver import _kahn_order
from conftest import random_digraph, random_multigraph


def wquiver(n, arrows):
    return WeightedQuiver(Quiver(n, arrows), [1] * len(arrows))


def test_single_arrow_is_always_kept():
    wq = wquiver(2, [(0, 1)])
    for seed in range(10):
        res = berger_shor(wq, seed)
        assert res.feedback == frozenset()
        assert res.kept_arrows == (0,)


def test_two_cycle_tie_removes_incoming():
    wq = wquiver(2, [(0, 1), (1, 0)])
    for seed in range(20):
        res = berger_shor(wq, seed)
        first = res.permutation[0]
        # tie at the first vertex: the incoming arc is sacrificed
        expected = 1 if first == 0 else 0
        assert res.feedback == frozenset({expected})
        assert is_acyclic(res.kept.quiver)


def test_self_loop_goes_to_feedback():
    wq = wquiver(1, [(0, 0)])
    res = berger_shor(wq, 7)
    assert res.feedback == frozenset({0})
    assert res.kept.arrow_count == 0


def test_to_dag_keeps_acyclic_output_acyclic():
    wq = wquiver(3, [(0, 1), (1, 2)])
    for seed in range(5):
        assert is_acyclic(to_dag(wq, seed).quiver)


def test_to_dag_tournament_keeps_at_least_half():
    arrows = [(i, j) for i in range(4) for j in range(4) if i < j]
    wq = wquiver(4, arrows)
    for seed in range(10):
        assert to_dag(wq, seed).arrow_count >= 3


def test_to_dag_empty_quiver():
    wq = wquiver(0, [])
    assert to_dag(wq, 0).arrow_count == 0


def test_weights_carried_over():
    wq = WeightedQuiver(Quiver(2, [(0, 1), (1, 0)]), [2, 3])
    res = berger_shor(wq, 0)
    (kept_weight,) = res.kept.weights
    original = next(iter(set(range(2)) - set(res.feedback)))
    assert kept_weight == wq.weights[original]


def test_randomized_properties():
    rng = random.Random(17)
    for _ in range(100):
        wq = random_digraph(rng, max_vertices=20, max_arrows=60)
        for seed in (0, 1):
            res = berger_shor(wq, seed)
            assert is_acyclic(res.kept.quiver)
            assert len(res.kept_arrows) * 2 >= wq.arrow_count
            assert res.feedback.isdisjoint(res.kept_arrows)
            assert len(res.feedback) + len(res.kept_arrows) == wq.arrow_count
            again = berger_shor(wq, seed)
            assert again.feedback == res.feedback
            assert again.permutation == res.permutation
            assert again.kept_arrows == res.kept_arrows


def test_kept_and_feedback_equal_their_public_rebuild():
    rng = random.Random(23)
    for _ in range(200):
        wq = random_multigraph(rng)
        arrows, weights = wq.quiver.arrows, wq.weights
        for seed in (0, 5):
            res = berger_shor(wq, seed)
            kept = res.kept_arrows
            assert res.kept == WeightedQuiver(
                Quiver(wq.vertex_count, [arrows[a] for a in kept]),
                [weights[a] for a in kept])
            assert res.kept.quiver.out_arrows == Quiver(
                wq.vertex_count, [arrows[a] for a in kept]).out_arrows
            assert type(res.feedback) is frozenset
            assert res.feedback == frozenset(range(wq.arrow_count)) - set(kept)


def test_kept_quiver_reuses_the_kahn_pass_of_its_acyclicity_check():
    # the check's pass seeds the kept quiver's cache; it must equal a fresh
    # pass on the kept arrows, and an acyclic pass keeps no in-degrees
    rng = random.Random(31)
    for _ in range(200):
        wq = random_multigraph(rng)
        for seed in (0, 5):
            kept = berger_shor(wq, seed).kept.quiver
            assert "_kahn" in vars(kept)
            assert vars(kept)["_kahn"] == _kahn_order(kept.vertex_count, kept.arrows)
            assert vars(kept)["_kahn"][1] is None
            assert is_acyclic(kept)


def test_bound_with_self_loops_counts_non_loop_arcs():
    rng = random.Random(19)
    for _ in range(50):
        wq = random_digraph(rng, max_vertices=10, max_arrows=30, self_loops=True)
        loops = sum(1 for s, t in wq.quiver.arrows if s == t)
        res = berger_shor(wq, 3)
        assert all(wq.quiver.arrows[a][0] != wq.quiver.arrows[a][1]
                   for a in res.kept_arrows)
        assert len(res.kept_arrows) * 2 >= wq.arrow_count - loops


def visit_order_reference(n, arcs, seed):
    """Berger-Shor as a literal visit: walk the seeded permutation, and at
    each vertex keep the larger side of its arcs not yet claimed (the
    outgoing side on a tie), then claim both sides."""
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    ins = [[] for _ in range(n)]
    outs = [[] for _ in range(n)]
    for a, (s, t) in enumerate(arcs):
        # a self-loop joins no side, so it is never kept
        if s != t:
            outs[s].append(a)
            ins[t].append(a)
    claimed = [False] * len(arcs)
    keep = [False] * len(arcs)
    for v in perm:
        vin = [a for a in ins[v] if not claimed[a]]
        vout = [a for a in outs[v] if not claimed[a]]
        for a in vin if len(vin) > len(vout) else vout:
            keep[a] = True
        for a in vin + vout:
            claimed[a] = True
    return [a for a, k in enumerate(keep) if k], perm


def test_counting_passes_match_the_visit_order_reference():
    rng = random.Random(0xB5)
    cases = [(0, []), (1, [(0, 0)]), (1, [(0, 0), (0, 0)])]
    for _ in range(2000):
        q = random_multigraph(rng).quiver
        cases.append((q.vertex_count, q.arrows))
    for n, arcs in cases:
        for seed in (0, 1, 7, rng.randrange(1 << 64)):
            assert berger_shor_arcs(n, arcs, seed) == visit_order_reference(n, arcs, seed)


def pinned_fas_graph() -> tuple[WeightedQuiver, str]:
    """A seeded 16-vertex multigraph with self-loops and parallel arcs, as
    a quiver and as the edge list text the CLI reads (ids interned in
    index order, so both views number the vertices alike)."""
    rng = random.Random(0xFA5)
    n = 16
    arrows = [(v, (v + 1) % n) for v in range(n)]
    while len(arrows) < 44:
        arrows.append((rng.randrange(n), rng.randrange(n)))
    for _ in range(4):
        arrows.insert(rng.randrange(len(arrows) + 1), rng.choice(arrows))
    arrows += [(3, 3), (11, 11)]
    weights = [Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in arrows]
    text = "".join(f"v{s},v{t},{w}\n" for (s, t), w in zip(arrows, weights))
    return WeightedQuiver(Quiver(n, arrows), weights), text


# Pinned Berger-Shor outcome and `quivhom fas --seed 7 --dot` bytes for
# pinned_fas_graph(). Any refactor of the pass must reproduce them exactly.
PINNED_FAS_PERMUTATION = (3, 14, 7, 9, 13, 11, 4, 5, 12, 8, 1, 0, 15, 6, 2, 10)
PINNED_FAS_FEEDBACK = (0, 3, 4, 7, 10, 12, 15, 17, 29, 30, 31, 35, 36, 48, 49)
PINNED_FAS_CLI_SHA256 = "6b0b8ce714916b807a13c6f0bc66e23daf9ba953c784ad2115f1432b70671cff"


def test_pinned_fas_graph_has_loops_and_parallel_arcs():
    wq, _ = pinned_fas_graph()
    arrows = wq.quiver.arrows
    assert any(s == t for s, t in arrows)
    assert len(set(arrows)) < len(arrows)


def test_berger_shor_pinned_permutation_and_feedback():
    wq, _ = pinned_fas_graph()
    res = berger_shor(wq, 7)
    assert res.permutation == PINNED_FAS_PERMUTATION
    assert tuple(sorted(res.feedback)) == PINNED_FAS_FEEDBACK
    assert res.kept_arrows == tuple(
        a for a in range(wq.arrow_count) if a not in res.feedback)


def test_fas_cli_pinned_digest(tmp_path, capsys):
    _, text = pinned_fas_graph()
    edges = tmp_path / "edges.csv"
    edges.write_text(text)
    dot = tmp_path / "fas.dot"
    assert main(["fas", str(edges), "--seed", "7", "--dot", str(dot)]) == 0
    out = capsys.readouterr().out.encode() + dot.read_bytes()
    assert hashlib.sha256(out).hexdigest() == PINNED_FAS_CLI_SHA256
