"""Per-vertex homology feature vectors.

For each vertex v and hop radius k = 1..H: take the forward k-hop
neighborhood of v, induce the subquiver, break cycles with the seeded
feedback-arc-set pass, and record dim H1 of the resulting weighted DAG.
The N x H matrix of those dimensions is the node feature matrix; rerunning
with the same seed reproduces it exactly, because every (vertex, hop) pair
works from its own derived seed. Rows are built serially, in one thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .fas import berger_shor_arcs
from .homology import gain_graph_h1
from .quiver import hood_sizes, induced_arcs

if TYPE_CHECKING:
    from .quiver import WeightedQuiver

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One step of the splitmix64 mixer (Steele-Lea-Flood constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *parts: int) -> int:
    """Mix a base seed with integer labels into a new 64-bit seed."""
    h = seed & _MASK64
    for p in parts:
        h = _splitmix64(h ^ (p & _MASK64))
    return h


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """N x H matrix of per-vertex homology dimensions plus the run config."""

    rows: tuple[tuple[int, ...], ...]
    hops: int
    seed: int

    @property
    def vertex_count(self) -> int:
        return len(self.rows)


def feature_vector(
    wq: WeightedQuiver,
    v: int,
    hops: int,
    seed: int,
) -> tuple[int, ...]:
    """dim H1 of the k-hop DAG around v, for k = 1..hops.

    Cell k is ``dim_h1(berger_shor(induced_subquiver(wq, hood).wq,
    derive_seed(seed, v, k)).kept)``, computed on plain arc lists. A hood
    is weakly connected (each vertex but v keeps its BFS parent's arc), so
    one that ``hood_sizes`` finds to have fewer non-loop arcs than
    vertices is a tree: its cell is 0 whatever the FAS keeps, and no arc
    list is built.
    """
    if hops < 1:
        raise ValueError("hops must be positive")
    q = wq.quiver
    arrows, weights = q.arrows, wq.weights
    dist, sizes = hood_sizes(q, v, hops)
    out: list[int] = []
    for k, (n, m) in enumerate(sizes, start=1):
        if m < n:
            out.append(0)
            continue
        verts, ids = induced_arcs(q, list(dist)[:n])
        local = {u: i for i, u in enumerate(verts)}
        arcs = [(local[arrows[a][0]], local[arrows[a][1]]) for a in ids]
        kept, _ = berger_shor_arcs(n, arcs, derive_seed(seed, v, k))
        out.append(gain_graph_h1(
            n, [arcs[i] for i in kept], [weights[ids[i]] for i in kept]
        ))
    return tuple(out)


def feature_matrix(
    wq: WeightedQuiver,
    hops: int,
    seed: int,
    *,
    threads: int = 1,
) -> FeatureMatrix:
    """Feature vectors for every vertex, built serially row by row.

    ``threads`` is accepted for compatibility and must be positive; it
    changes neither the output nor the number of threads, which is one.
    """
    if hops < 1:
        raise ValueError("hops must be positive")
    if threads < 1:
        raise ValueError("threads must be positive")
    rows = tuple(feature_vector(wq, v, hops, seed) for v in range(wq.vertex_count))
    return FeatureMatrix(rows=rows, hops=hops, seed=seed)
