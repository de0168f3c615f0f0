from __future__ import annotations

from copy import deepcopy
from fractions import Fraction
from math import gcd

import pytest

from quivhom import DenseMatrix, FieldModeError, build_chain_complex
from quivhom.linalg import EXACT, FLOAT, _integer_dicts, _integer_rows, _rank_sparse, _rref
from conftest import random_acyclic_weighted_quiver


def _random_matrix(rng, rows, cols, density=0.7, span=4):
    data = [
        [
            Fraction(rng.randint(-span, span), rng.randint(1, span + 1))
            if rng.random() < density
            else Fraction(0)
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]
    return DenseMatrix.from_rows(data)


def test_rank_triangle_matrix_with_dependent_columns():
    # det = w3 - w1*w2 = 6 - 6 = 0, every 2x2 minor nonzero
    m = DenseMatrix.from_rows([[-1, 0, -1], [2, -1, 0], [0, 3, 6]])
    assert m.rank() == 2


def test_rank_identity():
    assert DenseMatrix.identity(3).rank() == 3


def test_rank_zero_matrix():
    assert DenseMatrix.zeros(3, 4).rank() == 0


def test_rank_empty_shapes():
    assert DenseMatrix.zeros(0, 5).rank() == 0
    assert DenseMatrix.zeros(5, 0).rank() == 0


def test_kernel_triangle():
    m = DenseMatrix.from_rows([[-1, 0, -1], [2, -1, 0], [0, 3, 6]])
    (vec,) = m.kernel_basis()
    scale = vec[0]
    assert [x / scale for x in vec] == [1, 2, -1]


def test_kernel_identity_empty():
    assert DenseMatrix.identity(4).kernel_basis() == []


def test_kernel_single_equation():
    m = DenseMatrix.from_rows([[1, 1]])
    (vec,) = m.kernel_basis()
    assert vec[0] / vec[1] == -1


def test_kernel_requires_exact_mode():
    m = DenseMatrix.from_rows([[1.0, 1.0]], mode=FLOAT)
    with pytest.raises(FieldModeError):
        m.kernel_basis()


def test_matmul_identity_and_zero(rng):
    a = _random_matrix(rng, 3, 3)
    assert DenseMatrix.identity(3).matmul(a) == a
    assert a.matmul(DenseMatrix.zeros(3, 2)).is_zero()


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError):
        DenseMatrix.zeros(2, 3).matmul(DenseMatrix.zeros(2, 3))


def test_matmul_mixed_modes_rejected():
    with pytest.raises(FieldModeError):
        DenseMatrix.zeros(2, 2).matmul(DenseMatrix.zeros(2, 2, mode=FLOAT))


def test_transpose_of_product(rng):
    a = _random_matrix(rng, 3, 3)
    b = _random_matrix(rng, 3, 3)
    assert a.matmul(b).transpose() == b.transpose().matmul(a.transpose())


def test_sub_and_is_zero(rng):
    a = _random_matrix(rng, 4, 2)
    assert a.sub(a).is_zero()


def test_rank_equals_rank_of_transpose(rng):
    for _ in range(50):
        m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert m.rank() == m.transpose().rank()


def test_rank_nullity(rng):
    for _ in range(50):
        m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert m.cols == m.rank() + len(m.kernel_basis())


def test_kernel_vectors_are_exact_kernel_elements(rng):
    for _ in range(50):
        m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        for vec in m.kernel_basis():
            col = DenseMatrix.from_rows([[x] for x in vec])
            assert m.matmul(col).is_zero()


def test_rank_invariant_under_elementary_row_operations(rng):
    for _ in range(30):
        rows = rng.randint(2, 5)
        m = _random_matrix(rng, rows, rng.randint(1, 5))
        data = [list(m.row(i)) for i in range(rows)]
        for _ in range(6):
            op = rng.randrange(3)
            i, j = rng.sample(range(rows), 2)
            if op == 0:
                data[i], data[j] = data[j], data[i]
            elif op == 1:
                c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
                data[i] = [c * x for x in data[i]]
            else:
                c = Fraction(rng.randint(-3, 3))
                data[i] = [x + c * y for x, y in zip(data[i], data[j])]
        assert DenseMatrix.from_rows(data).rank() == m.rank()


def test_float_rank_agrees_with_exact_on_small_integers(rng):
    for _ in range(100):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        data = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)]
        exact = DenseMatrix.from_rows(data)
        approx = DenseMatrix.from_rows(data, mode=FLOAT)
        assert approx.rank(tol=1e-9) == exact.rank()


_EXTREME = [Fraction(2**200, 3), Fraction(1, 2**200), Fraction(-(2**200) - 1, 7)]


def _dependent_matrix(rng, rows, cols, density, extreme):
    """Random exact rows, some all zero and some rational combinations of
    two earlier rows, then each row scaled by an extreme value or 1. With
    probability `extreme` an entry is itself extreme, which only small
    matrices can afford: the reference _rref slows down sharply."""
    data: list[list[Fraction]] = []
    for _ in range(rows):
        roll = rng.random()
        if roll < 0.1:
            row = [Fraction(0)] * cols
        elif roll < 0.3 and len(data) >= 2:
            a, b = rng.sample(data, 2)
            c = Fraction(rng.choice([-3, -1, 2]), rng.randint(1, 3))
            row = [x + c * y for x, y in zip(a, b)]
        else:
            row = [
                rng.choice(_EXTREME) if rng.random() < extreme
                else Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
                for _ in range(cols)
            ]
            row = [x if rng.random() < density else Fraction(0) for x in row]
        data.append(row)
    scales = [rng.choice(_EXTREME + [1]) for _ in data]
    return DenseMatrix(rows, cols, tuple(x * c for r, c in zip(data, scales) for x in r), EXACT)


def test_sparse_rank_matches_rref_pivot_count(rng):
    # shapes on both sides of min(rows, cols) = 48, where exact rank used to
    # switch from a second (Bareiss) engine to this one
    shapes = (
        [(rng.randint(1, 9), rng.randint(1, 9), 0.5, 0.2) for _ in range(150)]
        + [(rng.randint(49, 64), rng.randint(49, 64), 0.06, 0.0) for _ in range(3)]
        + [(rng.randint(1, 9), rng.randint(49, 70), 0.3, 0.05) for _ in range(10)]
        + [(0, rng.randint(1, 70), 0.5, 0.0) for _ in range(3)]
    )
    for rows, cols, density, extreme in shapes:
        m = _dependent_matrix(rng, rows, cols, density, extreme)
        for x in (m, m.transpose()):
            expected = len(_rref(x)[1])
            assert _rank_sparse(_integer_rows(x)) == expected
            assert x.rank() == expected


def rank_sparse_scan_reference(sparse: list[dict[int, int]]) -> int:
    """The elimination of _rank_sparse with its former pivot choice: a scan
    of every column for the fewest rows, then the least index."""
    col_rows: dict[int, set[int]] = {}
    for i, d in enumerate(sparse):
        for j in d:
            col_rows.setdefault(j, set()).add(i)
    rank = 0
    while True:
        best = min(((len(rs), j) for j, rs in col_rows.items() if rs), default=None)
        if best is None:
            return rank
        c = best[1]
        piv = min(col_rows[c], key=lambda i: (len(sparse[i]), i))
        prow = sparse[piv]
        p = prow[c]
        rank += 1
        for j in prow:
            col_rows[j].discard(piv)
        for i in list(col_rows[c]):
            row = sparse[i]
            f = row[c]
            g = gcd(p, f)
            a, b = p // g, f // g
            if a != 1:
                for j in row:
                    row[j] *= a
            for j, pv in prow.items():
                nv = row.get(j, 0) - b * pv
                if nv:
                    if j not in row:
                        col_rows.setdefault(j, set()).add(i)
                    row[j] = nv
                elif j in row:
                    del row[j]
                    col_rows[j].discard(i)
            if row:
                g = gcd(*row.values())
                if g > 1:
                    for j in row:
                        row[j] //= g


def test_heap_pivots_match_the_column_scan(rng):
    # equal ranks and equal rows left in place mean the same pivot
    # sequence; chain-complex boundaries bring many tied column counts
    inputs = [_integer_rows(_dependent_matrix(rng, rng.randint(1, 30), rng.randint(1, 30),
                                              rng.choice([0.1, 0.3, 0.6]), 0.0))
              for _ in range(150)]
    for _ in range(40):
        wq = random_acyclic_weighted_quiver(rng, max_vertices=9, max_arrows=16)
        inputs += [_integer_dicts(cols)
                   for cols in build_chain_complex(wq, n_max=3).columns[1:]]
    for rows in inputs:
        heap_rows, scan_rows = deepcopy(rows), deepcopy(rows)
        assert _rank_sparse(heap_rows) == rank_sparse_scan_reference(scan_rows)
        assert heap_rows == scan_rows


def test_integer_rows_skip_zeros_and_normalize():
    m = DenseMatrix.from_rows([
        [0, 0, 0],
        [Fraction(2**200, 3), 0, Fraction(-(2**201), 9)],
        [Fraction(1, 2**200), Fraction(3, 2**199), 0],
    ])
    assert _integer_rows(m) == [{0: 3, 2: -2}, {0: 1, 1: 6}]
    assert _integer_rows(DenseMatrix.zeros(0, 4)) == []


def test_integer_dicts_take_int_units_and_skip_empty_vectors():
    vectors = [{}, {0: 1, 2: -1}, {}, {1: Fraction(2, 3), 3: -2}]
    out = _integer_dicts(vectors)
    assert out == [{0: 1, 2: -1}, {1: 1, 3: -3}]
    # new dicts: the elimination modifies its rows in place
    assert _rank_sparse(out) == 2
    assert vectors == [{}, {0: 1, 2: -1}, {}, {1: Fraction(2, 3), 3: -2}]


def test_float_rank_respects_tolerance():
    m = DenseMatrix.from_rows([[1.0, 1.0], [1.0, 1.0 + 1e-12]], mode=FLOAT)
    assert m.rank(tol=1e-9) == 1
    assert m.rank(tol=1e-15) == 2
    # a column with no entry above tol has no pivot
    assert DenseMatrix.from_rows([[1e-12, 0], [0, 1]], mode=FLOAT).rank(tol=1e-9) == 1
    # the largest entry of a column is its pivot, not the shortest row's
    assert DenseMatrix.from_rows([[1e-12, 1], [1, 1]], mode=FLOAT).rank(tol=1e-9) == 2


@pytest.mark.parametrize("tol", [-1e-9, float("nan")])
def test_float_rank_rejects_negative_and_nan_tolerance(tol):
    m = DenseMatrix.from_rows([[1.0, 1.0], [1.0, 1.0]], mode=FLOAT)
    with pytest.raises(ValueError, match="tol must be nonnegative"):
        m.rank(tol)


@pytest.mark.parametrize("tol", [float("inf"), float("-inf"), float("nan")])
def test_float_rank_rejects_non_finite_tolerance(tol):
    # an infinite tol used to accept no pivot and report rank 0
    m = DenseMatrix.identity(2, mode=FLOAT)
    assert m.rank(1e-9) == 2
    with pytest.raises(ValueError, match="tol must be nonnegative and finite"):
        m.rank(tol)


def test_from_rows_rejects_ragged_input():
    with pytest.raises(ValueError):
        DenseMatrix.from_rows([[1, 2], [3]])
