"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria 3-5 share one randomized suite of 500 acyclic weighted quivers;
its full construction time (fast path, brute-force complexes, and the
truncated variants) is charged against the 60-second budget.
"""

from __future__ import annotations

import hashlib
import random
import time
from contextlib import contextmanager

import pytest

from quivhom import (
    DenseMatrix,
    Quiver,
    QuiverMorphism,
    WeightedQuiver,
    berger_shor,
    boundary1_matrix,
    build_chain_complex,
    dim_h1,
    feature_matrix,
    h1_kernel_basis,
    homology_dims,
    induced_chain_map,
    induced_subquiver,
    is_acyclic,
    scalar_representation,
)
from quivhom.ingest import feature_matrix_csv
from quivhom.linalg import FLOAT
from conftest import (
    random_acyclic_weighted_quiver,
    random_digraph,
    random_nonzero_fraction,
    weak_component_count,
)


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"\n{label}: FAIL")
        raise
    print(f"\n{label}: PASS")


def triangle(w1, w2, w3):
    return WeightedQuiver(Quiver(3, [(0, 1), (1, 2), (0, 2)]), [w1, w2, w3])


@pytest.fixture(scope="module")
def oracle_suite():
    """500 random acyclic weighted quivers with their complexes (full and
    ell-truncated) built once; elapsed build time is recorded."""
    rng = random.Random(0xABCDEF)
    suite = []
    start = time.perf_counter()
    for _ in range(500):
        wq = random_acyclic_weighted_quiver(rng, max_vertices=8, max_arrows=14)
        complexes = {None: build_chain_complex(wq, n_max=3)}
        for ell in (1, 2, 3):
            complexes[ell] = build_chain_complex(wq, n_max=3, ell=ell)
        dims = homology_dims(complexes[None])
        fast = dim_h1(wq)
        suite.append((wq, complexes, dims, fast))
    elapsed = time.perf_counter() - start
    return suite, elapsed


def test_criterion_1_triangle_golden():
    with criterion("ACCEPTANCE 1 TRIANGLE GOLDEN"):
        start = time.perf_counter()
        commuting = triangle(2, 3, 6)
        assert dim_h1(commuting) == 1
        (vec,) = h1_kernel_basis(commuting)
        scale = vec[0]
        assert tuple(x / scale for x in vec) == (1, 2, -1)  # (1, w1, -1)
        assert dim_h1(triangle(2, 3, 5)) == 0
        assert h1_kernel_basis(triangle(2, 3, 5)) == []
        assert time.perf_counter() - start < 1.0


def test_criterion_2_square_golden():
    with criterion("ACCEPTANCE 2 SQUARE GOLDEN"):
        start = time.perf_counter()
        def square(w1, w2, w3, w4):
            return WeightedQuiver(
                Quiver(4, [(0, 1), (1, 3), (0, 2), (2, 3)]), [w1, w2, w3, w4]
            )
        assert dim_h1(square(2, 3, 3, 2)) == 1  # w4*w3 == w2*w1
        assert dim_h1(square(2, 3, 3, 5)) == 0
        assert time.perf_counter() - start < 1.0


def test_criterion_3_oracle_equivalence(oracle_suite):
    suite, elapsed = oracle_suite
    with criterion("ACCEPTANCE 3 ORACLE EQUIVALENCE"):
        assert len(suite) >= 500
        mismatches = [
            (i, dims, fast)
            for i, (_, _, dims, fast) in enumerate(suite)
            if dims[1] != fast or dims[2] != 0
        ]
        assert mismatches == []
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s"


def test_criterion_4_boundary_squared_zero(oracle_suite):
    suite, _ = oracle_suite
    with criterion("ACCEPTANCE 4 BOUNDARY SQUARED ZERO"):
        for _, complexes, _, _ in suite:
            for ell in (None, 1, 2, 3):
                c = complexes[ell]
                for n in range(2, c.n_max + 1):
                    product = c.boundaries[n - 1].matmul(c.boundaries[n])
                    assert product.is_zero(), f"ell={ell}, degree {n}"


def test_criterion_5_unweighted_consistency(oracle_suite):
    suite, _ = oracle_suite
    with criterion("ACCEPTANCE 5 UNWEIGHTED CONSISTENCY"):
        for wq, _, _, _ in suite:
            flat = WeightedQuiver(wq.quiver, [1] * wq.arrow_count)
            q = flat.quiver
            expected = q.arrow_count - q.vertex_count + weak_component_count(q)
            assert dim_h1(flat) == expected


def test_criterion_6_fas_properties():
    with criterion("ACCEPTANCE 6 FAS PROPERTIES"):
        rng = random.Random(0xFA5)
        start = time.perf_counter()
        for _ in range(1000):
            wq = random_digraph(rng, max_vertices=50, max_arrows=400)
            for seed in range(5):
                res = berger_shor(wq, seed)
                assert is_acyclic(res.kept.quiver)
                assert len(res.kept_arrows) * 2 >= wq.arrow_count
                assert res.feedback.isdisjoint(res.kept_arrows)
                assert len(res.feedback) + len(res.kept_arrows) == wq.arrow_count
                rerun = berger_shor(wq, seed)
                assert rerun.feedback == res.feedback
                assert rerun.kept_arrows == res.kept_arrows
                assert rerun.permutation == res.permutation
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"suite took {elapsed:.1f}s"


def criterion_7_graph() -> tuple[WeightedQuiver, list[str]]:
    """The seeded N=200, M=600 digraph of criterion 7 and its vertex ids."""
    rng = random.Random(0x200)
    n = 200
    arrows = []
    while len(arrows) < 600:
        s, t = rng.randrange(n), rng.randrange(n)
        if s != t:
            arrows.append((s, t))
    weights = [random_nonzero_fraction(rng, span=9) for _ in arrows]
    return WeightedQuiver(Quiver(n, arrows), weights), [f"v{i}" for i in range(n)]


# SHA-256 of feature_matrix_csv for criterion 7's graph, H=3, seed 2024.
# Any refactor of the feature pipeline must reproduce it byte for byte.
CRITERION_7_CSV_SHA256 = "0f1978ead362a754811adfc1e733854f069677a309ee0067024195f6b4843e14"


def test_criterion_7_pipeline_determinism():
    with criterion("ACCEPTANCE 7 PIPELINE DETERMINISM"):
        wq, ids = criterion_7_graph()
        start = time.perf_counter()
        serial = feature_matrix(wq, 3, seed=2024, threads=1)
        elapsed = time.perf_counter() - start
        parallel = feature_matrix(wq, 3, seed=2024, threads=8)
        assert feature_matrix_csv(serial, ids).encode() == \
            feature_matrix_csv(parallel, ids).encode()
        assert elapsed < 60.0, f"serial run took {elapsed:.1f}s"


def test_criterion_7_golden_digest():
    with criterion("ACCEPTANCE 7 GOLDEN DIGEST"):
        wq, ids = criterion_7_graph()
        csv = feature_matrix_csv(feature_matrix(wq, 3, seed=2024), ids)
        assert hashlib.sha256(csv.encode()).hexdigest() == CRITERION_7_CSV_SHA256


def test_criterion_8_float_exact_agreement():
    with criterion("ACCEPTANCE 8 FLOAT EXACT AGREEMENT"):
        rng = random.Random(0xF10A7)
        float_rep = scalar_representation(FLOAT)
        for _ in range(100):
            wq = random_acyclic_weighted_quiver(rng, max_vertices=8, max_arrows=14)
            exact_rank = boundary1_matrix(wq).rank()
            float_rank = boundary1_matrix(wq, float_rep).rank(tol=1e-9)
            assert float_rank == exact_rank


def test_criterion_9_chain_map_property():
    with criterion("ACCEPTANCE 9 CHAIN MAP PROPERTY"):
        rng = random.Random(0x91)
        done = 0
        identity = DenseMatrix.identity(1)
        while done < 50:
            big = random_acyclic_weighted_quiver(rng, max_vertices=6, max_arrows=10)
            if big.vertex_count < 2:
                continue
            size = rng.randint(1, big.vertex_count)
            sub = induced_subquiver(big, rng.sample(range(big.vertex_count), size))
            inclusion = QuiverMorphism(
                vertex_map=sub.sub_to_vertex, arrow_map=sub.sub_to_arrow
            )
            src = build_chain_complex(sub.wq, n_max=3)
            dst = build_chain_complex(big, n_max=3)
            maps = induced_chain_map(inclusion, identity, src, dst)
            for n in range(1, 4):
                left = dst.boundaries[n].matmul(maps[n])
                right = maps[n - 1].matmul(src.boundaries[n])
                assert left == right, f"degree {n} chain-map identity failed"
            done += 1
