from __future__ import annotations

import hashlib
import random
from copy import deepcopy
from fractions import Fraction

import pytest

from quivhom import (
    CyclicQuiverError,
    DenseMatrix,
    FieldModeError,
    InvariantError,
    MorphismError,
    NChain,
    Quiver,
    QuiverMorphism,
    WeightedQuiver,
    WeightError,
    boundary1_matrix,
    build_chain_complex,
    dim_h1,
    h1_kernel_basis,
    homology_dims,
    induced_chain_map,
    induced_subquiver,
    scalar_representation,
)
from quivhom import homology
from quivhom.homology import Representation, path_weight
from quivhom.cli import main
from quivhom.linalg import EXACT, FLOAT
from quivhom.quiver import make_path
from conftest import EXTREME_WEIGHTS, random_acyclic_weighted_quiver, weak_component_count


def triangle(w1, w2, w3) -> WeightedQuiver:
    return WeightedQuiver(Quiver(3, [(0, 1), (1, 2), (0, 2)]), [w1, w2, w3])


def square(w1, w2, w3, w4) -> WeightedQuiver:
    return WeightedQuiver(Quiver(4, [(0, 1), (1, 3), (0, 2), (2, 3)]), [w1, w2, w3, w4])


def test_boundary1_triangle_matches_worked_matrix():
    m = boundary1_matrix(triangle(2, 3, 6))
    assert [list(m.row(i)) for i in range(3)] == [
        [-1, 0, -1],
        [2, -1, 0],
        [0, 3, 6],
    ]


def test_boundary1_square_matches_worked_matrix():
    m = boundary1_matrix(square(2, 3, 3, 2))
    assert [list(m.row(i)) for i in range(4)] == [
        [-1, 0, -1, 0],
        [2, -1, 0, 0],
        [0, 0, 3, -1],
        [0, 3, 0, 2],
    ]


def test_boundary1_single_arrow():
    wq = WeightedQuiver(Quiver(2, [(0, 1)]), [Fraction(5, 7)])
    m = boundary1_matrix(wq)
    assert [list(m.row(i)) for i in range(2)] == [[-1], [Fraction(5, 7)]]


def test_boundary1_rejects_cycle():
    wq = WeightedQuiver(Quiver(2, [(0, 1), (1, 0)]), [1, 1])
    with pytest.raises(CyclicQuiverError) as exc:
        boundary1_matrix(wq)
    assert str(exc.value) == "weighted quiver homology requires an acyclic quiver"
    assert exc.value.cycle in ([0, 1, 0], [1, 0, 1])


def test_dim_h1_triangle_cases():
    assert dim_h1(triangle(2, 3, 6)) == 1  # w2*w1 == w3
    assert dim_h1(triangle(2, 3, 5)) == 0


def test_dim_h1_square_cases():
    assert dim_h1(square(2, 3, 3, 2)) == 1  # w4*w3 == w2*w1
    assert dim_h1(square(2, 3, 3, 5)) == 0


def test_dim_h1_single_arrow():
    assert dim_h1(WeightedQuiver(Quiver(2, [(0, 1)]), [Fraction(9, 2)])) == 0


def test_h1_kernel_triangle():
    (vec,) = h1_kernel_basis(triangle(2, 3, 6))
    scale = vec[0]
    assert [x / scale for x in vec] == [1, 2, -1]  # (1, w1, -1)
    assert h1_kernel_basis(triangle(2, 3, 5)) == []


def test_h1_kernel_parallel_arrows_equal_weight():
    wq = WeightedQuiver(Quiver(2, [(0, 1), (0, 1)]), [3, 3])
    (vec,) = h1_kernel_basis(wq)
    assert vec[0] / vec[1] == -1


def test_h1_kernel_rejects_float_mode():
    with pytest.raises(FieldModeError):
        h1_kernel_basis(triangle(2, 3, 6), scalar_representation(FLOAT))


def test_kernel_vectors_annihilated_by_boundary():
    rng = random.Random(21)
    for _ in range(20):
        wq = random_acyclic_weighted_quiver(rng)
        m = boundary1_matrix(wq)
        for vec in h1_kernel_basis(wq):
            col = DenseMatrix.from_rows([[x] for x in vec])
            assert m.matmul(col).is_zero()


def test_noninvertible_matrix_action_rejected():
    rep = Representation(2, lambda w: DenseMatrix.from_rows([[w, 0], [0, 0]]))
    wq = WeightedQuiver(Quiver(2, [(0, 1)]), [2])
    with pytest.raises(WeightError):
        boundary1_matrix(wq, rep)


def test_matrix_representation_dim_two():
    # a genuinely 2-dimensional action: w acts by [[w, 0], [1, w]]
    rep = Representation(2, lambda w: DenseMatrix.from_rows([[w, 0], [1, w]]))
    wq = WeightedQuiver(Quiver(2, [(0, 1)]), [3])
    m = boundary1_matrix(wq, rep)
    assert (m.rows, m.cols) == (4, 2)
    assert dim_h1(wq, rep) == 0
    c = build_chain_complex(wq, rep, n_max=2)
    assert homology_dims(c)[1] == 0


def test_chain_complex_triangle_commuting():
    c = build_chain_complex(triangle(2, 3, 6), n_max=2)
    assert c.basis_sizes() == [3, 4, 1]
    assert c.boundaries[1].rank() == 2
    assert c.boundaries[2].rank() == 1
    assert homology_dims(c) == [1, 1]


def test_chain_complex_triangle_noncommuting():
    c = build_chain_complex(triangle(2, 3, 5), n_max=2)
    assert c.boundaries[1].rank() == 3  # the composite path column is independent
    dims = homology_dims(c)
    assert dims[0] == 0
    assert dims[1] == (4 - 3) - c.boundaries[2].rank()


def test_chain_complex_truncated_to_arrows():
    c = build_chain_complex(triangle(2, 3, 6), n_max=1, ell=1)
    assert c.basis_sizes() == [3, 3]
    assert homology_dims(c) == [3 - c.boundaries[1].rank()]
    # no 2-chains survive ell=1, so truncated H1 equals the fast path
    c2 = build_chain_complex(triangle(2, 3, 6), n_max=2, ell=1)
    assert c2.basis_sizes() == [3, 3, 0]
    assert homology_dims(c2)[1] == dim_h1(triangle(2, 3, 6))


def test_chain_complex_empty_quiver():
    wq = WeightedQuiver(Quiver(0, []), [])
    c = build_chain_complex(wq, n_max=2)
    assert c.basis_sizes() == [0, 0, 0]
    assert homology_dims(c) == [0, 0]


def test_chain_complex_two_isolated_vertices():
    wq = WeightedQuiver(Quiver(2, []), [])
    c = build_chain_complex(wq, n_max=2)
    assert homology_dims(c) == [2, 0]


def test_boundary_squared_is_zero():
    rng = random.Random(31)
    for _ in range(15):
        wq = random_acyclic_weighted_quiver(rng, max_vertices=6, max_arrows=10)
        for ell in (None, 1, 2, 3):
            c = build_chain_complex(wq, n_max=3, ell=ell)
            for n in range(2, 4):
                assert c.boundaries[n - 1].matmul(c.boundaries[n]).is_zero()


@pytest.mark.parametrize("rep", [
    Representation(1, lambda w: DenseMatrix.from_rows([[w + 1]])),
    Representation(2, lambda w: DenseMatrix.from_rows([[w, 0], [0, w + 1]])),
    Representation(1, lambda w: DenseMatrix.from_rows([[w + 1]], FLOAT), FLOAT),
], ids=["scalar", "two-dimensional", "float"])
def test_nonmultiplicative_action_fails_square_zero_check(rep):
    # act(w) = [[w + 1]] breaks act(w1 * w2) == act(w2) @ act(w1), which
    # the d0 face of a composable pair relies on; so does any action
    # with w + 1 on its diagonal. The pair (a, b) leaves
    # (w_a + 1)(w_b + 1) - (w_a w_b + 1) = w_a + w_b, so on the 4-vertex
    # path the first pair (2, -2) passes and the second (2, -2 * 5) fails
    wq = WeightedQuiver(Quiver(3, [(0, 1), (1, 2)]), [2, 3])
    with pytest.raises(InvariantError, match="at degree 2, column 0$"):
        build_chain_complex(wq, rep, n_max=2)
    wq = WeightedQuiver(Quiver(4, [(0, 1), (1, 2), (2, 3)]), [2, -2, 5])
    with pytest.raises(InvariantError, match="at degree 2, column 1$"):
        build_chain_complex(wq, rep, n_max=3)


def _fraction_square_nonzero(sparse, d):
    """Reference for the boundary-squared check, in Fraction arithmetic:
    the first (degree, chain) whose column the boundary below does not
    send to zero, or None."""
    for n in range(2, len(sparse)):
        below = sparse[n - 1]
        for j, col in enumerate(sparse[n]):
            acc = {}
            for i, x in col.items():
                for r, y in below[i].items():
                    acc[r] = acc.get(r, 0) + Fraction(x) * y
            if any(acc.values()):
                return n, j // d
    return None


def _draw_64_bit(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 2**63 - 1), rng.randint(1, 2**63 - 1))


def _rescaled(cols, rng):
    """The same complex in a rescaled basis: each scalar chain of degrees
    1..top-1 is multiplied by a random rational s, so its column is
    multiplied by s and its row in the boundary above divided by s. The
    columns then carry scales g/m other than 1/m, and boundary squared
    stays zero."""
    out = [list(map(dict, level)) for level in cols]
    for n in range(1, len(out) - 1):
        for i, col in enumerate(out[n]):
            s = Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 12))
            out[n][i] = {r: x * s for r, x in col.items()}
            for above in out[n + 1]:
                if i in above:
                    above[i] = above[i] / s
    return out


@pytest.mark.parametrize("weights", ["extreme", "64-bit"])
def test_integer_square_zero_check_matches_fraction_reference(weights):
    # both checks pass on every built complex, also in a rescaled basis;
    # after one entry is doubled, both name the same first failing
    # degree and chain
    rng = random.Random(4242)
    reps = [scalar_representation(),
            Representation(2, lambda w: DenseMatrix.from_rows([[w, 0], [0, w * w]]))]
    caught = 0
    for _ in range(10):
        shape = random_acyclic_weighted_quiver(rng, max_vertices=6, max_arrows=10)
        draw = ((lambda: rng.choice(EXTREME_WEIGHTS)) if weights == "extreme"
                else (lambda: _draw_64_bit(rng)))
        wq = WeightedQuiver(shape.quiver, [draw() for _ in shape.weights])
        for rep in reps:
            for ell in (1, 2, None):
                built = build_chain_complex(wq, rep, 3, ell).columns
                for cols in ([list(map(dict, level)) for level in built], _rescaled(built, rng)):
                    assert _fraction_square_nonzero(cols, rep.dim) is None
                    homology._verify_square_zero(cols, rep.dim, EXACT)
                    filled = [(n, j) for n in range(1, 4) for j, col in enumerate(cols[n]) if col]
                    if not filled:
                        continue
                    n, j = rng.choice(filled)
                    r = rng.choice(sorted(cols[n][j]))
                    cols[n][j][r] *= 2
                    want = _fraction_square_nonzero(cols, rep.dim)
                    if want is None:
                        homology._verify_square_zero(cols, rep.dim, EXACT)
                        continue
                    caught += 1
                    with pytest.raises(InvariantError,
                                       match=f"at degree {want[0]}, column {want[1]}$"):
                        homology._verify_square_zero(cols, rep.dim, EXACT)
    assert caught >= 10


def _refuse_fraction_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("Fraction arithmetic")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
                 "__mod__", "__rmod__", "__pow__", "__rpow__", "__neg__", "__pos__",
                 "__abs__"):
        monkeypatch.setattr(Fraction, name, refuse)
    with pytest.raises(AssertionError, match="Fraction arithmetic"):
        Fraction(1, 2) * 3


def test_exact_square_zero_check_does_no_fraction_arithmetic(monkeypatch):
    rng = random.Random(77)
    complexes = []
    for rep in (scalar_representation(),
                Representation(2, lambda w: DenseMatrix.from_rows([[w, 0], [0, w * w]]))):
        for _ in range(6):
            shape = random_acyclic_weighted_quiver(rng, max_vertices=6, max_arrows=10)
            wq = WeightedQuiver(shape.quiver, [rng.choice(EXTREME_WEIGHTS) for _ in shape.weights])
            complexes.append(([list(level) for level in build_chain_complex(wq, rep, 3).columns],
                              rep.dim))
    broken = [list(map(dict, level)) for level in build_chain_complex(triangle(2, 3, 6)).columns]
    broken[1][2][2] = broken[1][2][2] + 1  # the path 1 -> 2 now acts by 4, not 3
    _refuse_fraction_arithmetic(monkeypatch)
    for cols, d in complexes:
        homology._verify_square_zero(cols, d, EXACT)
    with pytest.raises(InvariantError, match="at degree 2, column 0$"):
        homology._verify_square_zero(broken, 1, EXACT)


# actions that are not multiplicative: a composite path's entry is
# w_a w_b + 1, not (w_a + 1)(w_b + 1), and can be 0
NONMULTIPLICATIVE_REPS = [
    Representation(1, lambda w: DenseMatrix.from_rows([[w + 1]])),
    Representation(2, lambda w: DenseMatrix.from_rows([[w, 0], [0, w + 1]])),
]
STORAGE_REPS = [
    scalar_representation(),
    Representation(2, lambda w: DenseMatrix.from_rows([[w, 0], [0, w * w]])),
    *NONMULTIPLICATIVE_REPS,
]


def _stored_complexes(weights):
    """Exact complexes of seeded DAGs, in each of STORAGE_REPS at ell = 1,
    2 and None: up to degree 3, or up to degree 1 where the action is not
    multiplicative and chains compose (boundary squared is not zero
    there). Weight -1 would make w + 1 singular, so it is not drawn."""
    rng = random.Random(5151)
    extreme = [w for w in EXTREME_WEIGHTS if w != -1]
    out = []
    for _ in range(8):
        shape = random_acyclic_weighted_quiver(rng, max_vertices=6, max_arrows=10)
        draw = ((lambda: rng.choice(extreme)) if weights == "extreme"
                else (lambda: _draw_64_bit(rng)))
        wq = WeightedQuiver(shape.quiver, [draw() for _ in shape.weights])
        for rep in STORAGE_REPS:
            for ell in (1, 2, None):
                top = 1 if rep in NONMULTIPLICATIVE_REPS and ell != 1 else 3
                out.append(build_chain_complex(wq, rep, top, ell))
    # 2 * (-1/2) = -1, so [[w + 1]] acts on the composite path by 0
    wq = WeightedQuiver(Quiver(3, [(0, 1), (1, 2)]), [2, Fraction(-1, 2)])
    out.append(build_chain_complex(wq, NONMULTIPLICATIVE_REPS[0], 1))
    return out


@pytest.mark.parametrize("weights", ["extreme", "64-bit"])
def test_stored_integer_columns_match_the_derived_columns(weights):
    # column j of boundary n is stored_columns[n][j] / denominators[n][j];
    # ``columns`` holds those values, and homology_dims ranks the ints
    # without changing them
    complexes = _stored_complexes(weights)
    for c in complexes:
        for n in range(1, c.n_max + 1):
            ints, dens = c.stored_columns[n], c.denominators[n]
            assert len(ints) == len(dens) == len(c.columns[n])
            for col, p, m in zip(c.columns[n], ints, dens):
                assert {type(x) for x in p.values()} <= {int} and type(m) is int
                assert 0 not in p.values() and m > 0
                assert col == {r: Fraction(x, m) for r, x in p.items()}
        before = deepcopy((c.stored_columns, c.denominators))
        dims = homology_dims(c)
        assert homology_dims(c) == dims
        assert (c.stored_columns, c.denominators) == before
        ranks = [0] + [b.rank() for b in c.boundaries[1:]]
        sizes = c.basis_sizes()
        assert dims == [sizes[n] * c.rep.dim - ranks[n] - ranks[n + 1]
                        for n in range(c.n_max)]
    # the composite path's column keeps only its source entry
    assert sorted(map(len, complexes[-1].columns[1])) == [1, 2, 2]


@pytest.mark.parametrize("weights", ["extreme", "64-bit"])
def test_exact_homology_dims_does_no_fraction_arithmetic(weights, monkeypatch):
    complexes = _stored_complexes(weights)
    want = [homology_dims(c) for c in complexes]
    _refuse_fraction_arithmetic(monkeypatch)
    assert [homology_dims(c) for c in complexes] == want


def test_saturated_truncation_equals_full_complex():
    # every path in a DAG has length < vertex count, so ell = N saturates
    rng = random.Random(97)
    for _ in range(15):
        wq = random_acyclic_weighted_quiver(rng, max_vertices=6, max_arrows=10)
        full = build_chain_complex(wq, n_max=3)
        saturated = build_chain_complex(wq, n_max=3, ell=wq.vertex_count)
        assert saturated.bases == full.bases
        assert saturated.boundaries[1:] == full.boundaries[1:]
        assert homology_dims(saturated) == homology_dims(full)


DIFFERENTIAL_REPS = [
    scalar_representation(),
    Representation(2, lambda w: DenseMatrix.from_rows([[w, 0], [0, w * w]])),
    scalar_representation(FLOAT),
]


@pytest.mark.parametrize("rep", DIFFERENTIAL_REPS, ids=["scalar", "two-dimensional", "float"])
def test_homology_dims_matches_dense_boundary_ranks(rep):
    # homology_dims ranks the sparse columns; the dense boundaries give the
    # same dims, and ranking the columns leaves them intact
    rng = random.Random(2024)
    for _ in range(20):
        wq = random_acyclic_weighted_quiver(rng)
        for ell in (None, 1, 2):
            c = build_chain_complex(wq, rep, n_max=3, ell=ell)
            dims = homology_dims(c)
            ranks = [0] + [m.rank() for m in c.boundaries[1:]]
            sizes = c.basis_sizes()
            assert dims == [sizes[n] * rep.dim - ranks[n] - ranks[n + 1]
                            for n in range(3)]
            fresh = build_chain_complex(wq, rep, n_max=3, ell=ell)
            assert c.boundaries == fresh.boundaries


@pytest.mark.parametrize("rep", DIFFERENTIAL_REPS, ids=["scalar", "two-dimensional", "float"])
def test_exact_homology_dims_builds_no_dense_matrix(rep, monkeypatch):
    def refuse(*args):
        raise AssertionError("densified")

    monkeypatch.setattr(homology, "_densify", refuse)
    assert dim_h1(triangle(2, 3, 6), rep) == rep.dim
    if rep.mode == EXACT:
        assert len(h1_kernel_basis(triangle(2, 3, 6), rep)) == rep.dim
    c = build_chain_complex(triangle(2, 3, 6), rep, n_max=3)
    assert homology_dims(c) == [rep.dim, rep.dim, 0]
    assert "boundaries" not in vars(c)
    with pytest.raises(AssertionError, match="densified"):
        c.boundaries


def test_chain_bases_are_built_only_when_read(tmp_path, capsys, monkeypatch):
    def refuse(self, *args):
        raise AssertionError("built an NChain")

    monkeypatch.setattr(NChain, "__init__", refuse)
    edges = tmp_path / "edges.csv"
    edges.write_text("a,b,2\nb,c,3\na,c,6\n")
    assert main(["oracle", str(edges), "--n-max", "3"]) == 0
    assert "matches fast path: yes" in capsys.readouterr().out
    c = build_chain_complex(triangle(2, 3, 6), n_max=3)
    assert c.basis_sizes() == [3, 4, 1, 0]
    assert homology_dims(c) == [1, 1, 0]
    assert len(c.boundaries[2].entries) == 4
    with pytest.raises(AssertionError, match="built an NChain"):
        c.bases


def test_chain_complex_and_chain_maps_never_hash_a_chain(monkeypatch):
    # faces are found by integer chain ids, not by NChain dict keys
    def refuse(self):
        raise AssertionError("hashed an NChain")

    rng = random.Random(9)
    wq = random_acyclic_weighted_quiver(rng, max_vertices=7)
    expected = [build_chain_complex(wq, n_max=3, ell=ell).boundaries for ell in (None, 2)]
    monkeypatch.setattr(NChain, "__hash__", refuse)
    with pytest.raises(AssertionError, match="hashed"):
        {NChain(())}
    for ell, want in zip((None, 2), expected):
        c = build_chain_complex(wq, n_max=3, ell=ell)
        assert c.boundaries == want
        f = QuiverMorphism(tuple(range(wq.vertex_count)), tuple(range(wq.arrow_count)))
        maps = induced_chain_map(f, DenseMatrix.identity(1), c, c)
        assert maps == [DenseMatrix.identity(s) for s in c.basis_sizes()]


def test_exact_matrices_hold_only_fractions():
    # identity coefficients are ints inside the columns, never in a matrix
    wq = random_acyclic_weighted_quiver(random.Random(8), max_vertices=6)
    doubled = Representation(2, lambda w: DenseMatrix.from_rows([[w, 0], [0, w]]))
    src = build_chain_complex(wq, n_max=3)
    dst = build_chain_complex(wq, doubled, n_max=3)
    f = QuiverMorphism(tuple(range(wq.vertex_count)), tuple(range(wq.arrow_count)))
    maps = induced_chain_map(f, DenseMatrix.from_rows([[1], [2]]), src, dst)
    mats = [boundary1_matrix(wq), *src.boundaries[1:], *dst.boundaries[1:], *maps]
    assert {type(x) for m in mats for x in m.entries} == {Fraction}
    floats = build_chain_complex(wq, scalar_representation(FLOAT), n_max=3)
    assert {type(x) for m in floats.boundaries[1:] for x in m.entries} <= {float}


def test_truncated_bases_are_monotone_in_ell():
    rng = random.Random(41)
    for _ in range(15):
        wq = random_acyclic_weighted_quiver(rng, max_vertices=6, max_arrows=10)
        for n in range(1, 4):
            previous: set = set()
            for ell in (1, 2, 3, None):
                c = build_chain_complex(wq, n_max=n, ell=ell)
                current = set(c.bases[n])
                assert previous <= current
                previous = current


def test_oracle_matches_fast_path_small_suite():
    rng = random.Random(51)
    for _ in range(40):
        wq = random_acyclic_weighted_quiver(rng)
        dims = homology_dims(build_chain_complex(wq, n_max=3))
        assert dims[1] == dim_h1(wq)
        assert dims[2] == 0


def test_unweighted_h0_and_circuit_rank():
    rng = random.Random(61)
    for _ in range(30):
        shape = random_acyclic_weighted_quiver(rng)
        wq = WeightedQuiver(shape.quiver, [1] * shape.arrow_count)
        q = wq.quiver
        components = weak_component_count(q)
        dims = homology_dims(build_chain_complex(wq, n_max=2))
        assert dims[0] == components
        assert dim_h1(wq) == q.arrow_count - q.vertex_count + components


def test_dim_h1_invariant_under_column_rescaling():
    rng = random.Random(71)
    for _ in range(20):
        wq = random_acyclic_weighted_quiver(rng)
        m = boundary1_matrix(wq)
        rows = [list(m.row(i)) for i in range(m.rows)]
        for j in range(m.cols):
            c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            for row in rows:
                row[j] *= c
        scaled = DenseMatrix.from_rows(rows)
        assert m.cols - scaled.rank() == dim_h1(wq)


def test_path_weight_is_multiplicative():
    wq = triangle(2, 3, 6)
    p = make_path(wq.quiver, [0, 1])
    assert path_weight(wq, p) == 6


def test_induced_chain_map_identity():
    wq = triangle(2, 3, 6)
    c = build_chain_complex(wq, n_max=2)
    f = QuiverMorphism(vertex_map=(0, 1, 2), arrow_map=(0, 1, 2))
    maps = induced_chain_map(f, DenseMatrix.identity(1), c, c)
    for n, m in enumerate(maps):
        assert m == DenseMatrix.identity(len(c.bases[n]))


def test_induced_chain_map_inclusion_of_arrow():
    big = triangle(2, 3, 6)
    sub = induced_subquiver(big, {0, 2})
    small = sub.wq  # the single arrow x0 -> x2 with weight 6
    f = QuiverMorphism(vertex_map=sub.sub_to_vertex, arrow_map=sub.sub_to_arrow)
    src = build_chain_complex(small, n_max=2)
    dst = build_chain_complex(big, n_max=2)
    maps = induced_chain_map(f, DenseMatrix.identity(1), src, dst)
    for n in range(1, 3):
        left = dst.boundaries[n].matmul(maps[n])
        right = maps[n - 1].matmul(src.boundaries[n])
        assert left == right


def test_induced_chain_map_weight_scaling_identity_morphism():
    wq = WeightedQuiver(Quiver(2, [(0, 1)]), [4])
    c = build_chain_complex(wq, n_max=1)
    f = QuiverMorphism(vertex_map=(0, 1), arrow_map=(0,), weight_map=lambda w: w)
    maps = induced_chain_map(f, DenseMatrix.identity(1), c, c)
    assert maps[0] == DenseMatrix.identity(2)
    assert maps[1] == DenseMatrix.identity(1)


def test_induced_chain_map_rejects_broken_weight_compatibility():
    a = WeightedQuiver(Quiver(2, [(0, 1)]), [4])
    b = WeightedQuiver(Quiver(2, [(0, 1)]), [5])
    f = QuiverMorphism(vertex_map=(0, 1), arrow_map=(0,))
    ca, cb = build_chain_complex(a, n_max=1), build_chain_complex(b, n_max=1)
    with pytest.raises(MorphismError):
        induced_chain_map(f, DenseMatrix.identity(1), ca, cb)


def test_induced_chain_map_rejects_endpoint_violation():
    a = WeightedQuiver(Quiver(2, [(0, 1)]), [4])
    f = QuiverMorphism(vertex_map=(1, 0), arrow_map=(0,))
    c = build_chain_complex(a, n_max=1)
    with pytest.raises(MorphismError):
        induced_chain_map(f, DenseMatrix.identity(1), c, c)


def test_float_mode_dim_h1_matches_exact_on_small_weights():
    rng = random.Random(81)
    rep = scalar_representation(FLOAT)
    for _ in range(30):
        wq = random_acyclic_weighted_quiver(rng)
        assert dim_h1(wq, rep, tol=1e-9) == dim_h1(wq)


def test_float_mode_chain_complex_builds_and_agrees():
    # rounding noise in the square-zero check must be tolerated in float mode
    rng = random.Random(91)
    rep = scalar_representation(FLOAT)
    for _ in range(10):
        wq = random_acyclic_weighted_quiver(rng, max_vertices=6, max_arrows=10)
        dims_float = homology_dims(build_chain_complex(wq, rep, n_max=3))
        dims_exact = homology_dims(build_chain_complex(wq, n_max=3))
        assert dims_float == dims_exact


@pytest.mark.parametrize("tol", [float("inf"), float("-inf"), float("nan")])
def test_float_mode_rejects_non_finite_tolerance(tol):
    # commuting triangle: dim H1 is 1; tol=inf used to give 3 (rank 0)
    wq = WeightedQuiver(Quiver(3, [(0, 1), (1, 2), (0, 2)]), [2, 3, 6])
    rep = scalar_representation(FLOAT)
    assert dim_h1(wq, rep, tol=1e-9) == 1
    with pytest.raises(ValueError, match="tol must be nonnegative and finite"):
        dim_h1(wq, rep, tol=tol)
    complex_ = build_chain_complex(wq, rep, n_max=2)
    assert homology_dims(complex_, 1e-9) == [1, 1]
    with pytest.raises(ValueError, match="tol must be nonnegative and finite"):
        homology_dims(complex_, tol)


PINNED_CHAIN_COMPLEX_SHA256 = (
    "62fb7bdc1321decd6edc6cbac05c6e106e519f88eecc7d8ac9268d62da1aba43")


def _hash_matrix(h, m: DenseMatrix) -> None:
    h.update(f"{m.rows}x{m.cols}:{','.join(str(x) for x in m.entries)};".encode())


def test_chain_complex_pinned_digest():
    # every boundary (scalar exact, scalar float, a 2-dimensional action)
    # and a chain map with a non-square phi, on 50 seeded DAGs
    reps = [
        scalar_representation(),
        scalar_representation(FLOAT),
        Representation(2, lambda w: DenseMatrix.from_rows([[w, 0], [0, w * w]])),
    ]
    doubled = Representation(2, lambda w: DenseMatrix.from_rows([[w, 0], [0, w]]))
    phi = DenseMatrix.from_rows([[1], [2]])
    rng = random.Random(4321)
    h = hashlib.sha256()
    for _ in range(50):
        wq = random_acyclic_weighted_quiver(rng)
        for rep in reps:
            for ell in (None, 1, 2):
                for m in build_chain_complex(wq, rep, n_max=3, ell=ell).boundaries[1:]:
                    _hash_matrix(h, m)
        f = QuiverMorphism(tuple(range(wq.vertex_count)), tuple(range(wq.arrow_count)))
        src = build_chain_complex(wq, n_max=3)
        dst = build_chain_complex(wq, doubled, n_max=3)
        for m in induced_chain_map(f, phi, src, dst):
            _hash_matrix(h, m)
    assert h.hexdigest() == PINNED_CHAIN_COMPLEX_SHA256


PINNED_BOUNDARY1_SHA256 = (
    "79b626930a07faa65a9a9a3524d6cd09655041494cc26f2f8f5ac0a80d27d777")


def test_boundary1_pinned_digest():
    # the degree-1 boundary of the 50 DAGs above, in each differential rep
    rng = random.Random(4321)
    h = hashlib.sha256()
    for _ in range(50):
        wq = random_acyclic_weighted_quiver(rng)
        for rep in DIFFERENTIAL_REPS:
            _hash_matrix(h, boundary1_matrix(wq, rep))
    assert h.hexdigest() == PINNED_BOUNDARY1_SHA256
