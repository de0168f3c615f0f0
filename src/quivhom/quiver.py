"""Quivers (multidigraphs), paths, composable chains, and neighborhoods.

Vertices are dense integer indices 0..N-1 and arrows carry stable indices
0..M-1; parallel arrows and self-loops are legal. A path is a nonempty
composable sequence of arrows; identities are never represented as paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import CyclicQuiverError, WeightError


@dataclass(frozen=True)
class Quiver:
    """A finite quiver: ``vertex_count`` vertices and a tuple of
    (source, target) arrow pairs indexed by position."""

    vertex_count: int
    arrows: tuple[tuple[int, int], ...]

    def __init__(self, vertex_count: int, arrows: Iterable[tuple[int, int]] = ()):
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "arrows", tuple((int(s), int(t)) for s, t in arrows))
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        for i, (s, t) in enumerate(self.arrows):
            if not (0 <= s < vertex_count and 0 <= t < vertex_count):
                raise ValueError(f"arrow {i}: endpoint ({s}, {t}) out of range")

    @classmethod
    def _trusted(
        cls,
        vertex_count: int,
        arrows: tuple[tuple[int, int], ...],
        kahn: tuple[list[int], list[int] | None] | None = None,
    ) -> Quiver:
        """A quiver built without the checks of ``__init__``.

        Only for arrows that are, by construction, a tuple of int pairs
        within 0..vertex_count-1; the tuple is stored as given. ``kahn``,
        when given, is ``_kahn_order`` of these arrows in this order, and
        seeds the ``_kahn`` cache so the pass is not run again.
        """
        q = object.__new__(cls)
        object.__setattr__(q, "vertex_count", vertex_count)
        object.__setattr__(q, "arrows", arrows)
        if kahn is not None:
            q.__dict__["_kahn"] = kahn
        return q

    @property
    def arrow_count(self) -> int:
        return len(self.arrows)

    def source(self, arrow: int) -> int:
        return self.arrows[arrow][0]

    def target(self, arrow: int) -> int:
        return self.arrows[arrow][1]

    @cached_property
    def out_arrows(self) -> tuple[tuple[int, ...], ...]:
        """Arrow indices leaving each vertex, ascending."""
        out: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for i, (s, _) in enumerate(self.arrows):
            out[s].append(i)
        return tuple(tuple(a) for a in out)

    @cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        """The targets of each vertex's ``out_arrows``, in that order."""
        out: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for s, t in self.arrows:
            out[s].append(t)
        return tuple(tuple(t) for t in out)

    @cached_property
    def _kahn(self) -> tuple[list[int], list[int] | None]:
        """The one Kahn pass over the arrows (``_kahn_order``): the removal
        order, and the in-degrees left on a cyclic quiver (None on an
        acyclic one). Readers never mutate either list."""
        return _kahn_order(self.vertex_count, self.arrows)


@dataclass(frozen=True)
class WeightedQuiver:
    """A quiver with one nonzero rational weight per arrow.

    Weights live in the multiplicative group of the field, so zero is
    rejected at construction. Float pipelines reinterpret the stored
    rationals at matrix-build time; storage is always exact.
    """

    quiver: Quiver
    weights: tuple[Fraction, ...]

    def __init__(self, quiver: Quiver, weights: Iterable[Fraction | int | str]):
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "weights", tuple(
            w if isinstance(w, Fraction) else Fraction(w) for w in weights))
        if len(self.weights) != quiver.arrow_count:
            raise ValueError(
                f"{len(self.weights)} weights for {quiver.arrow_count} arrows"
            )
        for i, w in enumerate(self.weights):
            if w == 0:
                raise WeightError(f"arrow {i} has zero weight")

    @classmethod
    def _trusted(cls, quiver: Quiver, weights: tuple[Fraction, ...]) -> WeightedQuiver:
        """A weighted quiver built without the checks of ``__init__``.

        Only for weights that are, by construction, a tuple of nonzero
        ``Fraction`` objects, one per arrow; the tuple is stored as given.
        """
        wq = object.__new__(cls)
        object.__setattr__(wq, "quiver", quiver)
        object.__setattr__(wq, "weights", weights)
        return wq

    @property
    def vertex_count(self) -> int:
        return self.quiver.vertex_count

    @property
    def arrow_count(self) -> int:
        return self.quiver.arrow_count


@dataclass(frozen=True)
class Path:
    """A composable, nonempty sequence of arrow indices.

    ``source``/``target`` are the endpoints of the whole path; length is the
    number of arrows. Paths are the nonidentity morphisms of the free
    category on the quiver.
    """

    arrows: tuple[int, ...]
    source: int
    target: int

    @property
    def length(self) -> int:
        return len(self.arrows)

    def compose(self, other: Path) -> Path:
        """The concatenation self-then-other (requires target == other.source)."""
        if self.target != other.source:
            raise ValueError("paths are not composable")
        return Path(self.arrows + other.arrows, self.source, other.target)


def make_path(q: Quiver, arrows: Sequence[int]) -> Path:
    """Build a Path from arrow indices, checking composability."""
    if not arrows:
        raise ValueError("a path has at least one arrow")
    for a, b in zip(arrows, arrows[1:]):
        if q.target(a) != q.source(b):
            raise ValueError(f"arrows {a} and {b} are not composable")
    return Path(tuple(arrows), q.source(arrows[0]), q.target(arrows[-1]))


@dataclass(frozen=True)
class NChain:
    """A composable tuple of paths: a nondegenerate chain in the free
    category. ``parts[0]`` is the first morphism applied (diagram order)."""

    parts: tuple[Path, ...]

    @property
    def order(self) -> int:
        return len(self.parts)

    @property
    def total_length(self) -> int:
        return sum(p.length for p in self.parts)

    @property
    def source(self) -> int:
        return self.parts[0].source

    @property
    def target(self) -> int:
        return self.parts[-1].target


def make_nchain(parts: Sequence[Path]) -> NChain:
    """Build an NChain, checking composability of consecutive paths."""
    if not parts:
        raise ValueError("a chain has at least one morphism")
    for a, b in zip(parts, parts[1:]):
        if a.target != b.source:
            raise ValueError("chain morphisms are not composable")
    return NChain(tuple(parts))


def _kahn_order(
    n: int, arcs: Iterable[tuple[int, int]]
) -> tuple[list[int], list[int] | None]:
    """Kahn's algorithm on the arcs over vertices 0..n-1: the vertices it
    can remove, in removal order, and the in-degrees it leaves, or None in
    their place when it removes every vertex (only ``find_cycle`` reads
    them, and only on a cyclic quiver).

    The sources come first, ascending; then each vertex joins the end of
    the list as its last predecessor is removed, so the list grows while it
    is read. Afterwards a vertex keeps a positive in-degree iff it was not
    removed, and the count is then the number of its arcs from vertices
    that were not removed either.
    """
    indeg = [0] * n
    succ: list[list[int]] = [[] for _ in range(n)]
    for s, t in arcs:
        indeg[t] += 1
        succ[s].append(t)
    order = [v for v, d in enumerate(indeg) if d == 0]
    for v in order:
        for t in succ[v]:
            indeg[t] -= 1
            if indeg[t] == 0:
                order.append(t)
    return order, None if len(order) == n else indeg


def topological_order(q: Quiver) -> list[int] | None:
    """A topological order by Kahn's algorithm, or None if q is cyclic.

    The order is deterministic: the sources ascending, then first in,
    first out, each vertex queued when its last predecessor is placed.
    It is read from the quiver's one cached Kahn pass, which also answers
    ``is_acyclic`` and ``find_cycle``; each call returns a new list.
    """
    order = q._kahn[0]
    return order[:] if len(order) == q.vertex_count else None


def arcs_acyclic(
    n: int, arcs: Sequence[tuple[int, int]]
) -> tuple[list[int], None] | None:
    """The Kahn pass (``_kahn_order``) of the arcs on vertices 0..n-1 if
    they form no directed cycle (self-loops count), else None. The pass is
    a nonempty tuple, so the result tests true exactly when the arcs are
    acyclic, and it can seed the ``_kahn`` cache of a quiver on the same
    arcs in the same order."""
    kahn = _kahn_order(n, arcs)
    return kahn if kahn[1] is None else None


def is_acyclic(q: Quiver) -> bool:
    """True iff the quiver has no directed cycle (self-loops count)."""
    return len(q._kahn[0]) == q.vertex_count


def find_cycle(q: Quiver) -> list[int] | None:
    """A directed cycle as a vertex list v0,...,vk with vk == v0, or None.

    Reads the quiver's one cached Kahn pass, so asking after ``is_acyclic``
    or ``topological_order`` repeats no pass. Every vertex that Kahn's
    algorithm cannot remove has a predecessor it cannot remove either, so
    walking back from the smallest of them along one such predecessor each
    must repeat a vertex; the walk from that vertex back to itself,
    reversed, is the cycle. Each call returns a new list.
    """
    order, indeg = q._kahn
    if len(order) == q.vertex_count:
        return None
    # a removed vertex has only removed predecessors, so these arcs join
    # unremoved vertices; the first such arc into each vertex is kept
    pred = {t: s for s, t in reversed(q.arrows) if indeg[s]}
    v = next(v for v, d in enumerate(indeg) if d)
    walk: dict[int, int] = {}  # vertex -> its step on the walk
    while v not in walk:
        walk[v] = len(walk)
        v = pred[v]
    cycle = [*list(walk)[walk[v]:], v]
    cycle.reverse()
    return cycle


def _require_acyclic(q: Quiver, what: str) -> None:
    cycle = find_cycle(q)
    if cycle:
        raise CyclicQuiverError(f"{what} requires an acyclic quiver", cycle=cycle)


def iter_paths(q: Quiver, max_length: int | None = None) -> Iterator[Path]:
    """Yield all paths of length 1..max_length in lexicographic order of
    their arrow-index sequences. Unbounded enumeration needs acyclicity.

    Iterative DFS: path depth is bounded by the longest path, not the
    interpreter recursion limit.
    """
    if max_length is None:
        _require_acyclic(q, "unbounded path enumeration")
    elif max_length < 1:
        raise ValueError("max_length must be positive")

    for first in range(q.arrow_count):
        source = q.source(first)
        arrows = [first]
        yield Path((first,), source, q.target(first))
        if max_length == 1:
            continue
        stack = [iter(q.out_arrows[q.target(first)])]
        while stack:
            nxt = next(stack[-1], None)
            if nxt is None:
                stack.pop()
                arrows.pop()
                continue
            arrows.append(nxt)
            yield Path(tuple(arrows), source, q.target(nxt))
            if max_length is None or len(arrows) < max_length:
                stack.append(iter(q.out_arrows[q.target(nxt)]))
            else:
                arrows.pop()


def enumerate_paths(q: Quiver, max_length: int | None = None) -> list[Path]:
    """All paths of length 1..max_length (all paths when unbounded)."""
    return list(iter_paths(q, max_length))


def _path_list(q: Quiver, ell: int | None) -> list[Path]:
    """The paths of the acyclic q no longer than ell (else than N)."""
    bound = q.vertex_count if ell is None else ell
    return list(iter_paths(q, bound)) if bound > 0 else []


def _chain_levels(paths: list[Path], n: int, ell: int | None) -> Iterator[list[tuple]]:
    """For each degree 1..n, the chains of composite length at most ell as
    tuples of the positions of their parts in ``paths`` (from _path_list),
    in lexicographic order; each degree extends the one below."""
    succ: dict[int, list[int]] = {}
    for i, p in enumerate(paths):
        succ.setdefault(p.source, []).append(i)
    size = [len(p.arrows) for p in paths]
    level = [((i,), k) for i, k in enumerate(size)]
    yield [c for c, _ in level]
    for _ in range(n - 1):
        level = [(c + (j,), k + size[j]) for c, k in level
                 for j in succ.get(paths[c[-1]].target, ()) if ell is None or k + size[j] <= ell]
        yield [c for c, _ in level]


def iter_nchains(q: Quiver, n: int, ell: int | None = None) -> Iterator[NChain]:
    """Yield all composable n-tuples of paths, i.e. nondegenerate n-chains
    of the free category; with finite ``ell``, only chains whose composite
    has length at most ell. Deterministic lexicographic order. Holds every
    path no longer than ell (else N) and two degrees' chains at a time."""
    if n < 1:
        raise ValueError("n must be positive")
    _require_acyclic(q, "chain enumeration")
    paths = _path_list(q, ell)
    for level in _chain_levels(paths, n, ell):
        pass
    for c in level:
        yield NChain(tuple(paths[i] for i in c))


def enumerate_nchains(q: Quiver, n: int, ell: int | None = None) -> list[NChain]:
    """All nondegenerate n-chains, optionally length-truncated by ell."""
    return list(iter_nchains(q, n, ell))


def _chain_counts(q: Quiver, n: int, ell: int | None = None) -> list[int]:
    """Nondegenerate k-chain counts for k = 1..n, over a topological order.

    A k-chain from v starts with an arrow v -> u, then is a (k-1)-chain
    from u or goes on as a k-chain from u: c_k(v) = sum over v -> u of
    c_{k-1}(u) + c_k(u), c_0 = 1. ``ell`` adds an axis of length budget.
    """
    _require_acyclic(q, "chain enumeration")
    order = q._kahn[0]
    # chains are shorter than N, so a larger ell truncates nothing
    lag = 0 if ell is None or ell >= q.vertex_count else 1
    top = max(ell, 0) if lag else 0
    # each part of a chain has an arrow, so no chain has more than N - 1
    m = max(min(n, q.vertex_count - 1), 0)
    base = [1] + [0] * m
    table: list = [None] * q.vertex_count
    for v in reversed(order):
        rows = [base] * lag
        for b in range(lag, top + 1):
            row = base[:]
            for t in q.successors[v]:
                r = table[t][b - lag]
                for k in range(1, m + 1):
                    row[k] += r[k - 1] + r[k]
            rows.append(row)
        table[v] = rows
    return [sum(t[-1][k] for t in table) for k in range(1, m + 1)] + [0] * (n - m)


def count_nchains(
    q: Quiver, n: int, ell: int | None = None, cap: int | None = None
) -> int:
    """Number of nondegenerate n-chains; a count above cap is cap + 1."""
    if n < 1:
        raise ValueError("n must be positive")
    count = _chain_counts(q, n, ell)[-1]
    return count if cap is None else min(count, cap + 1)


def hood_sizes(q: Quiver, v: int, k: int) -> tuple[dict[int, int], list[tuple[int, int]]]:
    """One BFS from v to depth k: the distance of each vertex it reaches,
    in BFS order, and for i = 1..k the vertex and non-loop arrow counts of
    hood i, the vertices within i hops, which are the first keys of the
    distance map. Hood i holds the non-loop arrows leaving distances below
    i and those from distance i into it; the scan that finds level i + 1
    counts the latter, so each out-list is read once.
    """
    if not (0 <= v < q.vertex_count):
        raise ValueError(f"vertex {v} out of range")
    if k < 0:
        raise ValueError("k must be nonnegative")
    succ = q.successors
    dist = {v: 0}
    level = [v]
    inner = 0  # non-loop arrows leaving the vertices closer than level i
    sizes: list[tuple[int, int]] = []
    for i in range(k + 1):
        nxt: list[int] = []
        leaving = closing = 0
        for u in level:
            ts = succ[u]
            leaving += len(ts)
            for t in ts:
                if t in dist:
                    if dist[t] <= i:
                        if t == u:
                            leaving -= 1
                        else:
                            closing += 1
                elif i < k:
                    dist[t] = i + 1
                    nxt.append(t)
        if i:
            sizes.append((len(dist) - len(nxt), inner + closing))
        inner += leaving
        level = nxt
    return dist, sizes


def k_hop_levels(q: Quiver, v: int, k: int) -> list[set[int]]:
    """The k-hop out-neighbourhoods of v for hops 1..k, from hood_sizes.

    Entry i is the set of vertices reachable from v by a directed path of
    length <= i + 1, v included, so the sets are nested; each is its own
    set object.
    """
    dist, sizes = hood_sizes(q, v, k)
    order = list(dist)
    return [set(order[:n]) for n, _ in sizes]


def k_hop_vertices(q: Quiver, v: int, k: int) -> set[int]:
    """Vertices reachable from v by a directed path of length <= k,
    including v itself: the keys of one hood_sizes distance map."""
    # shortest paths have at most N - 1 arrows, so larger k adds nothing
    return set(hood_sizes(q, v, min(k, q.vertex_count))[0])


@dataclass(frozen=True, eq=False)
class InducedSubquiver:
    """An induced subquiver together with the old<->new index maps."""

    wq: WeightedQuiver
    vertex_to_sub: dict[int, int]
    sub_to_vertex: tuple[int, ...]
    arrow_to_sub: dict[int, int]
    sub_to_arrow: tuple[int, ...]


def induced_arcs(q: Quiver, vs: Iterable[int]) -> tuple[list[int], list[int]]:
    """The vertices of vs and the arrows with both endpoints in vs, as the
    ascending vertex list and the ascending original arrow indices.

    The cost depends only on vs and the arrows leaving it (one sort of the
    kept arrows), not on the whole quiver.
    """
    inside = set(vs)
    verts = sorted(inside)
    n = q.vertex_count
    if verts and (verts[0] < 0 or verts[-1] >= n):
        bad = next(v for v in verts if not 0 <= v < n)
        raise ValueError(f"vertex {bad} out of range")
    # only arrows leaving vs can lie inside it; sorting restores the
    # ascending original arrow order
    arrows, out = q.arrows, q.out_arrows
    return verts, sorted(
        a for v in verts for a in out[v] if arrows[a][1] in inside
    )


def induced_subquiver(wq: WeightedQuiver, vs: Iterable[int]) -> InducedSubquiver:
    """The subquiver on vertex set vs: exactly the arrows with both
    endpoints in vs, weights carried over. New vertex and arrow indices
    follow ascending original index (see ``induced_arcs``)."""
    verts, sub_to_arrow = induced_arcs(wq.quiver, vs)
    vertex_to_sub = {v: i for i, v in enumerate(verts)}
    arrows = wq.quiver.arrows
    sub_arrows = [
        (vertex_to_sub[arrows[a][0]], vertex_to_sub[arrows[a][1]])
        for a in sub_to_arrow
    ]
    sub = WeightedQuiver(
        Quiver(len(verts), sub_arrows),
        [wq.weights[a] for a in sub_to_arrow],
    )
    return InducedSubquiver(
        wq=sub,
        vertex_to_sub=vertex_to_sub,
        sub_to_vertex=tuple(verts),
        arrow_to_sub={a: i for i, a in enumerate(sub_to_arrow)},
        sub_to_arrow=tuple(sub_to_arrow),
    )
