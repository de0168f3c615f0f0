"""Homology of weighted acyclic quivers.

Every number here is the homology of one chain complex: the
nondegenerate chains of F^ell(Q), the free category on Q truncated at
composite path length ell (untruncated when ell is None), with
coefficients twisted by a weight action. build_chain_complex assembles
it and homology_dims ranks it.

* The fast path is the ell = 1 complex. No two arrows compose, so it has
  no chains of degree 2, and its degree-1 boundary column for an arrow u
  holds -I at the source block and the action of w(u) at the target
  block. dim H1 is the nullity of that boundary, and it equals the
  untruncated dim H1, because the path algebra of an acyclic quiver is
  hereditary. For a 1-dimensional exact representation the boundary is
  the incidence matrix of a gain graph, and the nullity is read off a
  spanning forest, with no complex built at all.
* The untruncated complex (the oracle) recomputes the same homology from
  first principles in every degree and cross-checks the fast path.

Every matrix here (boundaries and chain maps) is assembled by one helper
that expands each cell's faces into sparse scalar columns {row: coeff},
whatever the coefficient dimension. The chain complex keeps its
boundaries as those columns: boundary-of-boundary == 0 is checked on
them, homology_dims ranks them and h1_kernel_basis eliminates them. In
exact mode both the check and the rank turn each column into its integer
form (a primitive int vector and a rational scale, linalg._integer_form),
so neither does Fraction arithmetic. A DenseMatrix is built only by
``ChainComplexSlice.boundaries`` (which boundary1_matrix and the tests
read) and by chain maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Sequence

from .errors import (
    FieldModeError,
    InvariantError,
    MorphismError,
    WeightError,
)
from .linalg import (
    EXACT,
    FLOAT,
    DenseMatrix,
    _integer_dicts,
    _integer_form,
    _kernel_sparse,
    _rank_sparse,
)
from .quiver import (
    NChain,
    Path,
    WeightedQuiver,
    _chain_levels,
    _path_list,
    _require_acyclic,
)

@dataclass(frozen=True)
class Representation:
    """A weight action on a d-dimensional coefficient module.

    ``act`` maps a weight (an exact rational) to an invertible d x d
    DenseMatrix in the given field mode, and must be multiplicative:
    act(w1 * w2) == act(w1) @ act(w2). The 1-dimensional scalar action
    act(w) = [[w]] is the default used by the feature pipeline.
    """

    dim: int
    act: Callable[[Fraction], DenseMatrix]
    mode: str = EXACT

    def action(self, w: Fraction) -> DenseMatrix:
        try:
            m = self.act(w)
        except OverflowError:  # float(w) past the largest float
            raise WeightError(f"action of weight {w} overflows") from None
        if (m.rows, m.cols) != (self.dim, self.dim):
            raise ValueError("weight action has wrong shape")
        if m.mode != self.mode:
            raise FieldModeError("weight action mode does not match representation")
        return m


def scalar_representation(mode: str = EXACT) -> Representation:
    """The 1-dimensional representation acting by multiplication."""
    if mode == FLOAT:
        return Representation(1, lambda w: DenseMatrix(1, 1, (float(w),), FLOAT), FLOAT)
    return Representation(1, lambda w: DenseMatrix(1, 1, (Fraction(w),), EXACT), EXACT)


def _check_invertible(rep: Representation, weights: Sequence[Fraction]) -> dict[Fraction, DenseMatrix]:
    """Action matrices for each distinct weight, verified invertible (a
    1 x 1 action needs only a nonzero entry, so no rank is computed for it)."""
    actions: dict[Fraction, DenseMatrix] = {}
    for w in weights:
        if w not in actions:
            m = rep.action(w)
            singular = m.at(0, 0) == 0 if rep.dim == 1 else m.rank() != rep.dim
            if singular:
                raise WeightError(f"action of weight {w} is not invertible")
            actions[w] = m
    return actions


def path_weight(wq: WeightedQuiver, p: Path) -> Fraction:
    """The multiplicative extension of the arrow weights to a path."""
    w = Fraction(1)
    for a in p.arrows:
        w *= wq.weights[a]
    return w


def _scalar_columns(
    cells: Iterable[Iterable[tuple[int, int, DenseMatrix | None]]], d: int, mode: str
) -> list[dict]:
    """Expand each cell's faces into d scalar columns {row: coeff}.

    A face is (row block i, sign, block), ``block`` being an h x d
    DenseMatrix of coefficients or None for the d x d identity (h = d).
    Coordinate c of cell j is column j * d + c; coordinate r of row block
    i is row i * h + r. Identity coefficients are the ints +1 and -1 in
    exact mode (1.0 and -1.0 in float mode), so no Fraction is built for
    them; _densify turns them back into Fractions. Entries that cancel to
    zero are dropped.
    """
    one = 1.0 if mode == FLOAT else 1
    out: list[dict] = []
    for faces in cells:
        cols: list[dict] = [{} for _ in range(d)]
        for i, sign, block in faces:
            if d == 1 and (block is None or block.rows == 1):
                x = one if block is None else block.entries[0]
                x = x if sign > 0 else -x
                col = cols[0]
                col[i] = col[i] + x if i in col else x
                continue
            if block is None:
                entries = [(i * d + c, c, one) for c in range(d)]
            else:
                h = block.rows
                entries = [(i * h + r, c, block.at(r, c))
                           for r in range(h) for c in range(d)]
            for row, c, x in entries:
                x = x if sign > 0 else -x
                col = cols[c]
                col[row] = col[row] + x if row in col else x
        out.extend({r: x for r, x in col.items() if x} for col in cols)
    return out


def _densify(cols: list[dict], rows: int, mode: str) -> DenseMatrix:
    """The rows x len(cols) DenseMatrix holding the scalar columns, with
    every exact entry a Fraction (the int unit coefficients included)."""
    ncols = len(cols)
    exact = mode != FLOAT
    ent = [Fraction(0) if exact else 0.0] * (rows * ncols)
    for c, col in enumerate(cols):
        for r, x in col.items():
            ent[r * ncols + c] = Fraction(x) if exact and type(x) is int else x
    return DenseMatrix(rows, ncols, tuple(ent), mode)


def boundary1_matrix(wq: WeightedQuiver, rep: Representation | None = None) -> DenseMatrix:
    """The degree-1 boundary matrix of (Q, w) with coefficients in rep:
    boundary 1 of the ell = 1 complex, densified.

    At ell = 1 the degree-1 chains are the arrows in index order. Rows are
    vertex x coordinate blocks, columns arrow x coordinate blocks; the
    column block of arrow u is -I at the source and the action of w(u) at
    the target. dim H1 equals its nullity.
    """
    return build_chain_complex(wq, rep, 1, 1).boundaries[1]


def dim_h1(wq: WeightedQuiver, rep: Representation | None = None, tol: float = 1e-9) -> int:
    """dim H1(Q, w; M), which is H1 of the ell = 1 complex: that complex
    has no chains of degree 2, so H1 is the nullity of its degree-1
    boundary.

    A 1-dimensional exact representation takes the gain-graph route (no
    complex is built); any other ranks the sparse degree-1 columns of the
    ell = 1 complex, float mode with ``tol``. No DenseMatrix is built.
    """
    rep = rep or scalar_representation()
    if rep.dim == 1 and rep.mode == EXACT:
        _require_acyclic(wq.quiver, "weighted quiver homology")
        actions = _check_invertible(rep, wq.weights)
        gains = [actions[w].at(0, 0) for w in wq.weights]
        q = wq.quiver
        return gain_graph_h1(q.vertex_count, q.arrows, gains)
    return homology_dims(build_chain_complex(wq, rep, 2, 1), tol)[1]


def gain_graph_h1(n: int, arcs: Sequence[tuple[int, int]], gains: Sequence[Fraction]) -> int:
    """dim H1 of the acyclic arcs on vertices 0..n-1 with nonzero gains.

    The boundary column of arc s -> t with gain g is -e_s + g e_t, so its
    rank is n - b, where b counts the weakly connected components whose
    cycles all have gain product 1 (balanced; Zaslavsky, "Biased graphs
    II", 1991), and dim H1 = M - N + b. One breadth-first spanning forest
    walks every arc once; a component's arcs off its tree close its
    cycles, and there are (its arcs) - (its vertices) + 1 of them, so
    dim H1 is the number of closing arcs minus the unbalanced components.
    A component without a closing arc is a tree, hence balanced, and its
    gains are never read, so a forest needs no gain arithmetic at all.

    Otherwise a left-kernel vector y of the boundary satisfies
    y_s = g y_t on every arc s -> t with gain g = p/q. Replaying the tree
    arcs in breadth-first order fixes each y_v once, as an unreduced
    integer pair a_v / b_v, so bit lengths grow with the component's
    diameter. The component is balanced iff every closing arc satisfies
    a_s q b_t == p a_t b_s.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, (s, t) in enumerate(arcs):
        adj[s].append(i)
        adj[t].append(i)
    walked = [False] * len(arcs)
    seen = [False] * n
    a, b = [0] * n, [0] * n  # y_v = a[v] / b[v]; b[v] == 0 until fixed
    h1 = 0
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        reached = [root]
        tree: list[int] = []
        closing: list[int] = []
        for u in reached:  # grows while iterated, in breadth-first order
            for i in adj[u]:
                if walked[i]:
                    continue
                walked[i] = True
                s, t = arcs[i]
                w = t if s == u else s
                if seen[w]:
                    closing.append(i)
                else:
                    seen[w] = True
                    tree.append(i)
                    reached.append(w)
        if not closing:
            continue
        h1 += len(closing)
        a[root] = b[root] = 1
        for i in tree:
            s, t = arcs[i]
            p, q = gains[i].numerator, gains[i].denominator
            if b[s]:
                a[t], b[t] = a[s] * q, b[s] * p
            else:
                a[s], b[s] = p * a[t], q * b[t]
        for i in closing:
            s, t = arcs[i]
            p, q = gains[i].numerator, gains[i].denominator
            if a[s] * q * b[t] != p * a[t] * b[s]:
                h1 -= 1
                break
    return h1


def h1_kernel_basis(
    wq: WeightedQuiver, rep: Representation | None = None
) -> list[tuple[Fraction, ...]]:
    """A basis of H1 as kernel vectors indexed by arrow x coordinate (the
    reduced echelon basis): _kernel_sparse on the ell = 1 complex."""
    rep = rep or scalar_representation()
    if rep.mode != EXACT:
        raise FieldModeError("kernel basis requires exact mode")
    return _kernel_sparse(build_chain_complex(wq, rep, 1, 1).columns[1])


@dataclass(frozen=True, eq=False)
class ChainComplexSlice:
    """Degrees 0..n_max of the nondegenerate chain complex of F(Q) with
    coefficients twisted by the weight action, optionally ell-truncated.

    ``chain_ids[0]`` lists the vertices, ``chain_ids[n]`` the degree-n
    chains as tuples of positions in ``paths``; ``bases[n]`` holds them as
    NChains, built on first access and cached. The d0 face of a chain is
    twisted by the action of the weight of its first morphism; middle
    faces compose consecutive morphisms with alternating signs; the last
    face drops the final morphism.
    ``columns[n]`` holds boundary n (degree n to degree n-1; index 0 is
    empty) as sparse scalar columns {row: coeff}, one per chain x
    coordinate, which homology_dims ranks directly. Exact coefficients
    are Fractions, except identity coefficients, which are the ints +1
    and -1; the integer forms that the boundary-squared check and the
    rank use are derived from the columns and not kept.
    ``boundaries[n]`` is the same map as a DenseMatrix (index 0 is None),
    densified on first access and cached.
    """

    wq: WeightedQuiver
    rep: Representation
    n_max: int
    ell: int | None
    chain_ids: tuple
    paths: tuple
    columns: tuple

    @cached_property
    def bases(self) -> tuple:
        return (tuple(self.chain_ids[0]),) + tuple(
            tuple(NChain(tuple(self.paths[i] for i in c)) for c in ids)
            for ids in self.chain_ids[1:]
        )

    @cached_property
    def boundaries(self) -> tuple:
        d, mode = self.rep.dim, self.rep.mode
        return (None,) + tuple(
            _densify(self.columns[n], len(self.chain_ids[n - 1]) * d, mode)
            for n in range(1, self.n_max + 1)
        )

    def basis_sizes(self) -> list[int]:
        return [len(ids) for ids in self.chain_ids]


def build_chain_complex(
    wq: WeightedQuiver,
    rep: Representation | None = None,
    n_max: int = 3,
    ell: int | None = None,
) -> ChainComplexSlice:
    """Enumerate chain bases up to degree n_max and assemble every boundary
    as sparse scalar columns; boundary-of-boundary == 0 is verified on
    those columns, in integers when exact. No dense matrix is built here:
    ``boundaries`` densifies on first access. Chains are tuples of path
    positions, so faces are slices; NChains are built only when ``bases``
    is read."""
    rep = rep or scalar_representation()
    _require_acyclic(wq.quiver, "weighted quiver homology")
    if n_max < 1:
        raise ValueError("n_max must be positive")
    actions = _check_invertible(rep, wq.weights)
    q = wq.quiver
    paths = _path_list(q, ell)
    ids = [list(range(q.vertex_count)), *_chain_levels(paths, n_max, ell)]
    position = {p.arrows: i for i, p in enumerate(paths)}
    composite: dict[tuple[int, int], int] = {}
    weights: list[Fraction] = []  # each path's weight: w(prefix) * w(last arrow)
    acts = []  # the action of each path's weight
    for p in paths:
        a = p.arrows
        w = wq.weights[a[-1]]
        if len(a) > 1:  # a prefix comes before its extensions in paths
            w = weights[position[a[:-1]]] * w
        weights.append(w)
        act = actions.get(w)
        if act is None:
            act = actions[w] = rep.action(w)
        acts.append(act)

    def faces(c: tuple[int, ...], row: dict) -> list:
        # d0 is twisted by the action of the first part
        out = [(row[c[1:]], 1, acts[c[0]])]
        sign = -1
        for m in range(1, len(c)):
            k = composite.get(c[m - 1:m + 1])
            if k is None:
                k = composite[c[m - 1:m + 1]] = position[
                    paths[c[m - 1]].arrows + paths[c[m]].arrows]
            out.append((row[c[:m - 1] + (k,) + c[m + 1:]], sign, None))
            sign = -sign
        out.append((row[c[:-1]], sign, None))
        return out

    # truncation closure: faces never gain composite length, so a missing
    # face would mean a broken basis
    columns: list[list[dict]] = [[]]
    for n in range(1, n_max + 1):
        if n == 1:
            cells = ([(paths[i].target, 1, acts[i]), (paths[i].source, -1, None)]
                     for (i,) in ids[1])
        else:
            row = {c: r for r, c in enumerate(ids[n - 1])}
            cells = (faces(c, row) for c in ids[n])
        columns.append(_scalar_columns(cells, rep.dim, rep.mode))

    _verify_square_zero(columns, rep.dim, rep.mode)

    return ChainComplexSlice(
        wq=wq,
        rep=rep,
        n_max=n_max,
        ell=ell,
        chain_ids=tuple(ids),
        paths=tuple(paths),
        columns=tuple(columns),
    )


def _verify_square_zero(sparse: list[list[dict]], d: int, mode: str) -> None:
    """Check boundary(n-1) @ boundary(n) == 0 on the scalar columns.

    Exact mode works on integers only (_exact_square_nonzero) and demands
    literal zeros. Float mode allows rounding noise (float(a)*float(b)
    need not equal float(a*b)): each residue may be up to 1e-9 times the
    sum of the |products| summed into its row, while a broken face map
    leaves one as large as its terms. The error names the degree and the
    chain whose column fails."""
    bad = _float_square_nonzero(sparse) if mode == FLOAT else _exact_square_nonzero(sparse)
    if bad is not None:
        n, j = bad
        raise InvariantError(f"boundary squared nonzero at degree {n}, column {j // d}")


def _exact_square_nonzero(sparse: list[list[dict]]) -> tuple[int, int] | None:
    """The first (degree n, column j) with boundary(n-1) applied to column
    j of boundary(n) nonzero, or None, with no Fraction arithmetic.

    Every exact column is (g / m) * p for its integer form (p, g, m) from
    _integer_form. With column j of boundary n equal to (g_j / m_j) * p_j
    and M the lcm of the m_i over the support of p_j, boundary(n-1) maps
    it to zero exactly when the sum over i of p_j[i] * g_i * (M / m_i) * p_i
    is zero, a sum of ints. The scale is per column, so the integers stay
    as small as the columns' own. Integer forms are held for two degrees
    at a time: all of degree n - 1 and the part of degree n built so far
    (none for the top degree, whose forms nothing reads)."""
    if len(sparse) < 3:
        return None
    below = [_integer_form(col) for col in sparse[1]]
    for n in range(2, len(sparse)):
        keep = n + 1 < len(sparse)
        forms = []
        for j, col in enumerate(sparse[n]):
            form = _integer_form(col)
            p = form[0]
            big = lcm(*(below[i][2] for i in p))
            acc: dict[int, int] = {}
            for i, x in p.items():
                q, g, m = below[i]
                f = x * g * (big // m)
                for r, y in q.items():
                    acc[r] = acc[r] + f * y if r in acc else f * y
            if any(acc.values()):
                return n, j
            if keep:
                forms.append(form)
        below = forms
    return None


def _float_square_nonzero(sparse: list[list[dict]]) -> tuple[int, int] | None:
    """The first (degree n, column j) whose float residue under
    boundary(n-1) exceeds 1e-9 times the sum of the |products| summed
    into its row, or None."""
    for n in range(2, len(sparse)):
        below = sparse[n - 1]
        for j, col in enumerate(sparse[n]):
            acc: dict = {}
            scale: dict = {}
            for i, x in col.items():
                for g, y in below[i].items():
                    y = x * y
                    acc[g] = acc[g] + y if g in acc else y
                    scale[g] = scale.get(g, 0.0) + abs(y)
            if not all(abs(v) <= 1e-9 * scale[g] for g, v in acc.items()):
                return n, j
    return None


def homology_dims(c: ChainComplexSlice, tol: float = 1e-9) -> list[int]:
    """dim H_n for n = 0..n_max-1.

    H_n = (nullity of boundary n) - (rank of boundary n+1), with the
    degree-0 boundary the zero map. Each degree's sparse columns are
    ranked directly, fed in as the rows of the transpose (rank A =
    rank A^T), so no dense matrix is built: exact columns through
    _integer_dicts, float columns as copies, with ``tol``.
    """
    d = c.rep.dim
    exact = c.rep.mode == EXACT
    ranks = [0] + [_rank_sparse(_integer_dicts(cols)) if exact
                   else _rank_sparse(list(map(dict, cols)), tol)
                   for cols in c.columns[1:]]
    dims: list[int] = []
    for n in range(c.n_max):
        kernel = len(c.chain_ids[n]) * d - ranks[n]
        dims.append(kernel - ranks[n + 1])
    return dims


@dataclass(frozen=True)
class QuiverMorphism:
    """A morphism of weighted quivers: vertex and arrow maps plus a map
    on weights (None means the identity on weights)."""

    vertex_map: tuple[int, ...]
    arrow_map: tuple[int, ...]
    weight_map: Callable[[Fraction], Fraction] | None = None

    def map_weight(self, w: Fraction) -> Fraction:
        return w if self.weight_map is None else self.weight_map(w)


def _validate_morphism(f: QuiverMorphism, src: WeightedQuiver, dst: WeightedQuiver) -> None:
    if len(f.vertex_map) != src.vertex_count:
        raise MorphismError("vertex map has wrong length")
    if len(f.arrow_map) != src.arrow_count:
        raise MorphismError("arrow map has wrong length")
    for v in f.vertex_map:
        if not (0 <= v < dst.vertex_count):
            raise MorphismError(f"vertex image {v} out of range")
    for a, b in enumerate(f.arrow_map):
        if not (0 <= b < dst.arrow_count):
            raise MorphismError(f"arrow image {b} out of range")
        s, t = src.quiver.arrows[a]
        s2, t2 = dst.quiver.arrows[b]
        if f.vertex_map[s] != s2 or f.vertex_map[t] != t2:
            raise MorphismError(f"arrow {a}: endpoints not preserved")
        if dst.weights[b] != f.map_weight(src.weights[a]):
            raise MorphismError(f"arrow {a}: weights not compatible")


def induced_chain_map(
    f: QuiverMorphism,
    phi: DenseMatrix,
    src: ChainComplexSlice,
    dst: ChainComplexSlice,
) -> list[DenseMatrix]:
    """Per-degree matrices of the chain map sending a basis chain to its
    image chain with coefficients pushed through phi.

    Raises MorphismError when f fails source/target/weight preservation,
    phi has the wrong shape or fails to intertwine the two weight actions,
    or an image chain is missing from the target basis.
    """
    _validate_morphism(f, src.wq, dst.wq)
    if src.n_max != dst.n_max:
        raise MorphismError("complexes cover different degree ranges")
    if (phi.rows, phi.cols) != (dst.rep.dim, src.rep.dim):
        raise MorphismError("phi has wrong shape")
    for w in set(src.wq.weights):
        left = dst.rep.action(f.map_weight(w)).matmul(phi)
        right = phi.matmul(src.rep.action(w))
        if left != right:
            raise MorphismError(f"phi does not intertwine the action of {w}")

    out: list[DenseMatrix] = []
    for n in range(src.n_max + 1):
        # a chain is keyed by its parts' arrow tuples (degree 0: the vertex)
        dst_index = {c if n == 0 else tuple(p.arrows for p in c.parts): i
                     for i, c in enumerate(dst.bases[n])}
        cells = []
        for ci, chain in enumerate(src.bases[n]):
            if n == 0:
                image = f.vertex_map[chain]
            else:
                image = tuple(tuple(f.arrow_map[a] for a in p.arrows)
                              for p in chain.parts)
            fi = dst_index.get(image)
            if fi is None:
                raise MorphismError(f"image of degree-{n} basis chain {ci} "
                                    "is missing from the target basis")
            cells.append([(fi, 1, phi)])
        cols = _scalar_columns(cells, src.rep.dim, phi.mode)
        out.append(_densify(cols, len(dst.bases[n]) * dst.rep.dim, phi.mode))
    return out
