"""Dense matrices over exact rationals or 64-bit floats.

Every matrix carries a field-mode tag fixed at construction: "exact"
(entries are fractions.Fraction) or "float". One sparse elimination, fed
only the nonzero entries, ranks both: over the integers in exact mode
(the rank over the rationals), and in float mode counting pivots above a
tolerance. Exact kernel bases come from a left-to-right sparse elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import compress
from math import gcd, inf, lcm
from typing import Iterable, Sequence

from .errors import FieldModeError

EXACT = "exact"
FLOAT = "float"

_F0 = Fraction(0)
_F1 = Fraction(1)


@dataclass(frozen=True, eq=False)
class DenseMatrix:
    """Row-major dense matrix with a fixed field mode."""

    rows: int
    cols: int
    entries: tuple
    mode: str

    def __post_init__(self):
        if self.mode not in (EXACT, FLOAT):
            raise FieldModeError(f"unknown field mode {self.mode!r}")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], mode: str = EXACT) -> DenseMatrix:
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat: list = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(r)
        conv = float if mode == FLOAT else Fraction
        return cls(nrows, ncols, tuple(conv(x) for x in flat), mode)

    @classmethod
    def zeros(cls, rows: int, cols: int, mode: str = EXACT) -> DenseMatrix:
        zero = 0.0 if mode == FLOAT else _F0
        return cls(rows, cols, (zero,) * (rows * cols), mode)

    @classmethod
    def identity(cls, n: int, mode: str = EXACT) -> DenseMatrix:
        zero, one = (0.0, 1.0) if mode == FLOAT else (_F0, _F1)
        ent = [zero] * (n * n)
        for i in range(n):
            ent[i * n + i] = one
        return cls(n, n, tuple(ent), mode)

    def at(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DenseMatrix)
            and self.mode == other.mode
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def transpose(self) -> DenseMatrix:
        ent = tuple(
            self.entries[i * self.cols + j]
            for j in range(self.cols)
            for i in range(self.rows)
        )
        return DenseMatrix(self.cols, self.rows, ent, self.mode)

    def _check_mode(self, other: DenseMatrix) -> None:
        if self.mode != other.mode:
            raise FieldModeError("mixed exact/float operands")

    def matmul(self, other: DenseMatrix) -> DenseMatrix:
        self._check_mode(other)
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        zero = 0.0 if self.mode == FLOAT else _F0
        out = [zero] * (self.rows * other.cols)
        oc = other.cols
        # skip zero left-entries: boundary matrices are extremely sparse
        for i in range(self.rows):
            base = i * self.cols
            for k in range(self.cols):
                a = self.entries[base + k]
                if a == 0:
                    continue
                obase = k * oc
                out_base = i * oc
                for j in range(oc):
                    b = other.entries[obase + j]
                    if b != 0:
                        out[out_base + j] += a * b
        return DenseMatrix(self.rows, other.cols, tuple(out), self.mode)

    def __matmul__(self, other: DenseMatrix) -> DenseMatrix:
        return self.matmul(other)

    def sub(self, other: DenseMatrix) -> DenseMatrix:
        self._check_mode(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        ent = tuple(a - b for a, b in zip(self.entries, other.entries))
        return DenseMatrix(self.rows, self.cols, ent, self.mode)

    def __sub__(self, other: DenseMatrix) -> DenseMatrix:
        return self.sub(other)

    def rank(self, tol: float = 1e-9) -> int:
        """Rank of the matrix by sparse elimination over the nonzero
        entries. Exact mode: the rank over the rationals. Float mode: the
        pivots with |p| > tol; tol must be finite and nonnegative."""
        if self.mode == FLOAT:
            return _rank_sparse(_sparse_rows(self), tol)
        return _rank_sparse(_integer_rows(self))

    def kernel_basis(self) -> list[tuple[Fraction, ...]]:
        """A basis of the right null space {x : self @ x == 0}, exact mode
        only: the reduced echelon form's, from _kernel_sparse on the
        sparse columns."""
        if self.mode != EXACT:
            raise FieldModeError("kernel_basis requires exact mode")
        return _kernel_sparse(_sparse_rows(self.transpose()))


def _sparse_rows(m: DenseMatrix) -> list[dict]:
    """The rows of m as new sparse {col: entry} dicts. Zero entries are
    skipped by a truth test and never converted."""
    cols = range(m.cols)
    return [{j: row[j] for j in compress(cols, row)}
            for row in map(m.row, range(m.rows))]


def _integer_rows(m: DenseMatrix) -> list[dict[int, int]]:
    """The nonzero rows of an exact matrix as sparse {col: int} dicts,
    through _integer_dicts."""
    return _integer_dicts(_sparse_rows(m))


def _integer_dicts(vectors: Iterable[dict]) -> list[dict[int, int]]:
    """Sparse rational vectors {index: value} (Fraction or int values, no
    zeros) as new sparse {index: int} dicts, empty ones skipped.

    Each vector is replaced by its integer form from _integer_form divided
    by the gcd of its entries (scaling preserves rank), which keeps the
    elimination's integers small. The inputs are not modified.
    """
    out = []
    for nz in vectors:
        if nz:
            p, _ = _integer_form(nz)
            g = gcd(*p.values())
            out.append({j: x // g for j, x in p.items()} if g > 1 else p)
    return out


def _integer_form(nz: dict) -> tuple[dict[int, int], int]:
    """A sparse rational vector {index: value} (Fraction or int values, no
    zeros) as (p, m) with nz == p / m: m is the lcm of the denominators
    and p a new {index: int} dict. The empty vector gives ({}, 1). No
    Fraction arithmetic is done.
    """
    m = lcm(*(x.denominator for x in nz.values()))
    return {j: x.numerator * (m // x.denominator) for j, x in nz.items()}, m


def _rank_sparse(sparse: list[dict], tol: float | None = None) -> int:
    """Rank of sparse rows {col: entry} by elimination with Markowitz-style
    pivoting; the rows are modified in place. The next column is the one
    with the fewest rows, popped from a heap of (row count, column) that
    skips stale entries (a step changes the counts of the pivot row's
    columns only, which are pushed again).

    tol=None ranks the integer rows from _integer_dicts exactly: the pivot
    is the shortest row (then the lowest index), and rows are
    gcd-normalized after each update. Otherwise the rows are floats and
    tol must be finite and nonnegative: the pivot is the entry of largest
    |x| (then the shorter row, then the lower index), and a column with no
    |x| > tol has no pivot and loses its entries.
    """
    # an infinite tol accepts no pivot; NaN fails every comparison
    if tol is not None and not 0 <= tol < inf:
        raise ValueError("tol must be nonnegative and finite")
    col_rows: dict[int, set[int]] = {}
    for i, d in enumerate(sparse):
        for j in d:
            col_rows.setdefault(j, set()).add(i)
    heap = [(len(rs), j) for j, rs in col_rows.items()]
    heapify(heap)
    rank = 0
    while heap:
        k, c = heappop(heap)
        rows = col_rows[c]
        if k != len(rows):
            continue
        if tol is None:
            piv = min(rows, key=lambda i: (len(sparse[i]), i))
        else:
            piv = min(rows, key=lambda i: (-abs(sparse[i][c]), len(sparse[i]), i))
            if abs(sparse[piv][c]) <= tol:
                for i in rows:
                    del sparse[i][c]
                rows.clear()
                continue
        prow = sparse[piv]
        p = prow[c]
        rank += 1
        for j in prow:
            col_rows[j].discard(piv)
        rest = [(j, pv) for j, pv in prow.items() if j != c]
        for i in rows:
            row = sparse[i]
            f = row.pop(c)
            if tol is None:
                g = gcd(p, f)
                a, b = p // g, f // g
                # row <- a*row - b*prow (a valid elementary operation since a != 0)
                if a != 1:
                    for j in row:
                        row[j] *= a
            else:
                b = f / p
            for j, pv in rest:
                nv = row.get(j, 0) - b * pv
                if nv:
                    if j not in row:
                        col_rows.setdefault(j, set()).add(i)
                    row[j] = nv
                elif j in row:
                    del row[j]
                    col_rows[j].discard(i)
            if tol is None and row:
                g = gcd(*row.values())
                if g > 1:
                    for j in row:
                        row[j] //= g
        rows.clear()
        for j, _ in rest:
            if col_rows[j]:
                heappush(heap, (len(col_rows[j]), j))
    return rank


def _kernel_sparse(cols: list[dict]) -> list[tuple[Fraction, ...]]:
    """A kernel basis of the exact matrix with sparse columns {row: entry}:
    per free column, in ascending order, the one kernel vector with 1 there
    and 0 at every other free column (the reduced echelon form's).

    Columns are eliminated left to right, each by the pivots in the order
    they were made, popped from a heap: a pivot is zero at every earlier
    pivot's row, so the heap never goes back. A column that reduces to zero
    is free; the combination of columns that zeroed it is its kernel vector.
    """
    pivot_of: dict[int, int] = {}  # pivot row -> pivot number
    pivots: list[tuple[int, dict, dict]] = []  # (row, reduced column, combination)
    basis: list[tuple[Fraction, ...]] = []
    for j, col in enumerate(cols):
        vec = {r: Fraction(x) for r, x in col.items()}
        comb = {j: _F1}
        heap = [pivot_of[r] for r in vec if r in pivot_of]
        heapify(heap)
        while heap:
            r, pvec, pcomb = pivots[heappop(heap)]
            if r not in vec:  # pushed twice, or cleared by an earlier pivot
                continue
            f = vec[r] / pvec[r]
            for part, src in ((vec, pvec), (comb, pcomb)):
                for i, x in src.items():
                    y = part.get(i, 0) - f * x
                    if y:
                        if part is vec and i not in vec and i in pivot_of:
                            heappush(heap, pivot_of[i])
                        part[i] = y
                    else:
                        del part[i]
        if vec:
            r = min(vec)
            pivot_of[r] = len(pivots)
            pivots.append((r, vec, comb))
        else:
            out = [_F0] * len(cols)
            for i, x in comb.items():
                out[i] = x
            basis.append(tuple(out))
    return basis
