"""Differential tests: dim H1 three ways.

``dim_h1`` takes the gain-graph spanning forest for 1-dimensional exact
representations; any other representation ranks the sparse degree-1
columns of the ell = 1 chain complex. Both routes are checked against the
nullity of the dense ``boundary1_matrix`` and against H1 of the
untruncated chain complex, which shares no code with the spanning forest.
The ``count_ranks`` fixture shows which route ran.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from quivhom import (
    CyclicQuiverError,
    DenseMatrix,
    Quiver,
    WeightedQuiver,
    WeightError,
    boundary1_matrix,
    build_chain_complex,
    dim_h1,
    h1_kernel_basis,
    homology_dims,
)
from quivhom import homology
from quivhom.homology import Representation, gain_graph_h1
from conftest import HUGE, EXTREME_WEIGHTS as POOL
from test_linalg import _rref_kernel_basis


def random_dag(rng: random.Random) -> WeightedQuiver:
    """A random DAG with isolated vertices, parallel arrows and weights from
    2^200/3 down to 1/2^200. Most arrows take the ratio of random vertex
    potentials, so that whole components are often balanced; the rest
    take a pool weight, which usually breaks the balance."""
    n = rng.randint(1, 7)
    isolated = rng.randint(0, 2)
    order = list(range(n + isolated))
    rng.shuffle(order)
    potential = [rng.choice(POOL) for _ in order]
    unbalancing = rng.choice([0.0, 0.1, 0.5])
    arrows, weights = [], []
    if n >= 2:
        for _ in range(rng.randint(0, 10)):
            i, j = sorted(rng.sample(range(n), 2))
            s, t = order[i], order[j]
            copies = 2 if rng.random() < 0.2 else 1
            for _ in range(copies):
                arrows.append((s, t))
                if rng.random() < unbalancing:
                    weights.append(rng.choice(POOL))
                else:
                    weights.append(potential[s] / potential[t])
    return WeightedQuiver(Quiver(n + isolated, arrows), weights)


def oracle_h1(wq: WeightedQuiver, rep: Representation | None = None) -> int:
    return homology_dims(build_chain_complex(wq, rep, n_max=2))[1]


def nullity_h1(wq: WeightedQuiver, rep: Representation | None = None) -> int:
    m = boundary1_matrix(wq, rep)
    return m.cols - m.rank()


def square_action(w: Fraction) -> DenseMatrix:
    return DenseMatrix.from_rows([[w * w]])


def diagonal_action(w: Fraction) -> DenseMatrix:
    return DenseMatrix.from_rows([[w, 0], [0, w * w]])


@pytest.fixture
def count_ranks(monkeypatch):
    """Records, for each sparse rank that homology runs, how many vectors
    it ranks."""
    calls = []
    real = homology._rank_sparse

    def counting(rows, tol=None):
        calls.append(len(rows))
        return real(rows, tol)

    monkeypatch.setattr(homology, "_rank_sparse", counting)
    return calls


def test_scalar_gain_graph_matches_rank_and_oracle():
    rng = random.Random(0xD1FF)
    seen = set()
    for _ in range(300):
        wq = random_dag(rng)
        fast = dim_h1(wq)
        assert fast == nullity_h1(wq) == oracle_h1(wq)
        seen.add(fast)
    assert len(seen) >= 4, f"generator only produced H1 values {sorted(seen)}"


def test_other_one_dimensional_action_takes_gain_path(count_ranks):
    rep = Representation(1, square_action)
    rng = random.Random(0x5A5A)
    for _ in range(100):
        wq = random_dag(rng)
        count_ranks.clear()
        fast = dim_h1(wq, rep)
        assert count_ranks == []
        assert fast == nullity_h1(wq, rep) == oracle_h1(wq, rep)


def test_two_dimensional_action_takes_matrix_path(count_ranks):
    rep = Representation(2, diagonal_action)
    square = Representation(1, square_action)
    rng = random.Random(0xD2)
    for _ in range(60):
        wq = random_dag(rng)
        count_ranks.clear()
        h1 = dim_h1(wq, rep)
        assert 2 * wq.arrow_count in count_ranks
        assert h1 == oracle_h1(wq, rep)
        # a diagonal action splits into its two 1-dimensional parts
        assert h1 == dim_h1(wq) + dim_h1(wq, square)


def test_kernel_basis_matches_rref_of_the_dense_boundary():
    reps = [None, Representation(2, diagonal_action), Representation(1, square_action)]
    rng = random.Random(0x4B)
    for _ in range(60):
        wq = random_dag(rng)
        for rep in reps:
            assert h1_kernel_basis(wq, rep) == _rref_kernel_basis(boundary1_matrix(wq, rep))


def test_two_dimensional_action_splits_in_every_degree():
    # chains of degree >= 2 carry 2 x 2 blocks of composite-path weights
    # in their boundaries, which a single-arrow quiver never reaches
    rep = Representation(2, diagonal_action)
    square = Representation(1, square_action)
    rng = random.Random(0xD3)
    deep = 0
    for _ in range(40):
        wq = random_dag(rng)
        c = build_chain_complex(wq, rep, n_max=3)
        scalar = homology_dims(build_chain_complex(wq, n_max=3))
        squared = homology_dims(build_chain_complex(wq, square, n_max=3))
        assert homology_dims(c) == [a + b for a, b in zip(scalar, squared)]
        deep += len(c.bases[2]) > 0
    assert deep >= 10


def test_gain_path_rejects_zero_gain_and_cycles():
    shifted = Representation(1, lambda w: DenseMatrix.from_rows([[w - 1]]))
    wq = WeightedQuiver(Quiver(2, [(0, 1)]), [1])
    with pytest.raises(WeightError):
        dim_h1(wq, shifted)
    with pytest.raises(CyclicQuiverError):
        dim_h1(WeightedQuiver(Quiver(2, [(0, 1), (1, 0)]), [2, Fraction(1, 2)]))


class ForestGuard:
    """Gains that fail the test when an arc of a forest component is read."""

    def __init__(self, gains, forest_arcs):
        self.gains, self.forest_arcs = gains, forest_arcs

    def __len__(self):
        return len(self.gains)

    def __getitem__(self, i):
        if i in self.forest_arcs:
            pytest.fail(f"gain of forest arc {i} was read")
        return self.gains[i]


def mixed_components(rng: random.Random):
    """Disjoint forest, balanced-cycle and unbalanced-cycle components with
    their arcs shuffled together, plus isolated vertices. Each cyclic
    component is a spanning tree plus one arc. Returns the weighted
    quiver, the component kinds and the positions of the forest arcs."""
    kinds = [rng.choice(["forest", "balanced", "unbalanced"])
             for _ in range(rng.randint(1, 6))]
    arcs, gains, arc_kind = [], [], []
    n = 0
    for kind in kinds:
        size = rng.randint(2, 5)
        vs = range(n, n + size)
        n += size
        potential = {v: rng.choice(POOL) for v in vs}
        # a random spanning tree, each arrow pointing up the vertex order
        comp = [(vs[rng.randrange(i)], vs[i]) for i in range(1, size)]
        if kind != "forest":
            # closes one cycle; parallel to the tree arrow when size is 2
            comp.append(tuple(sorted(rng.sample(vs, 2))))
        for s, t in comp:
            arcs.append((s, t))
            gains.append(potential[s] / potential[t])
            arc_kind.append(kind)
        if kind == "unbalanced":
            gains[-1] *= rng.choice([2, -1, HUGE])
    n += rng.randint(0, 2)
    order = list(range(len(arcs)))
    rng.shuffle(order)
    wq = WeightedQuiver(Quiver(n, [arcs[i] for i in order]), [gains[i] for i in order])
    forest = {p for p, i in enumerate(order) if arc_kind[i] == "forest"}
    return wq, kinds, forest


def test_gain_core_reads_no_forest_gains():
    rng = random.Random(0xF0E)
    mixes = set()
    for _ in range(100):
        wq, kinds, forest = mixed_components(rng)
        q = wq.quiver
        h1 = gain_graph_h1(q.vertex_count, q.arrows, ForestGuard(wq.weights, forest))
        # each balanced component adds one dimension, the others none
        assert h1 == kinds.count("balanced") == nullity_h1(wq)
        mixes.add(frozenset(kinds))
    assert frozenset({"forest", "balanced", "unbalanced"}) in mixes


def test_negative_gains_balance_through_sign_products():
    # y_0 = -y_1 and y_1 = -y_2, so the arrow 0 -> 2 balances with gain 1
    for direct, h1 in ((1, 1), (-1, 0), (Fraction(-1, 2), 0)):
        wq = WeightedQuiver(Quiver(3, [(0, 1), (1, 2), (0, 2)]), [-1, -1, direct])
        assert dim_h1(wq) == h1 == nullity_h1(wq) == oracle_h1(wq)


def random_64bit(rng: random.Random) -> Fraction:
    """A gain of either sign with 64-bit numerator and denominator."""
    num, den = ((1 << 63) | rng.getrandbits(63) for _ in range(2))
    return Fraction(rng.choice([-1, 1]) * num, den)


def test_64_bit_gains_match_rank_and_oracle():
    rng = random.Random(0x64)
    seen = set()
    for _ in range(100):
        wq = random_dag(rng)
        # random_dag's potentials re-drawn with 64-bit numerators and denominators
        potential = [random_64bit(rng) for _ in range(wq.vertex_count)]
        weights = [potential[s] / potential[t] if rng.random() < 0.8 else random_64bit(rng)
                   for s, t in wq.quiver.arrows]
        wq = WeightedQuiver(wq.quiver, weights)
        h1 = dim_h1(wq)
        assert h1 == nullity_h1(wq) == oracle_h1(wq)
        seen.add(h1)
    assert len(seen) >= 3, sorted(seen)


def test_long_cycle_is_balanced_until_one_gain_moves():
    rng = random.Random(0x1C)
    n = 500
    label = list(range(n))
    rng.shuffle(label)
    potential = [random_64bit(rng) for _ in range(n)]
    # the cycle label[0] - label[1] - ... - label[0], randomly oriented
    # except that edges 0 and 1 point opposite ways, so no directed cycle
    arrows, weights = [], []
    for i in range(n):
        s, t = label[i], label[(i + 1) % n]
        if i == 1 or (i > 1 and rng.random() < 0.5):
            s, t = t, s
        arrows.append((s, t))
        weights.append(potential[s] / potential[t])
    order = list(range(n))
    rng.shuffle(order)
    q = Quiver(n, [arrows[i] for i in order])
    weights = [weights[i] for i in order]
    assert dim_h1(WeightedQuiver(q, weights)) == 1
    i = rng.randrange(n)
    weights[i] *= Fraction(2**64 + 1, 2**64)
    assert dim_h1(WeightedQuiver(q, weights)) == 0
