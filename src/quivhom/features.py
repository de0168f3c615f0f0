"""Per-vertex homology feature vectors.

For each vertex v and hop radius k = 1..H: take the forward k-hop
neighborhood of v, induce the subquiver, break cycles with the seeded
feedback-arc-set pass, and record dim H1 of the resulting weighted DAG.
The N x H matrix of those dimensions is the node feature matrix; rerunning
with the same seed reproduces it exactly, regardless of thread count,
because every (vertex, hop) pair works from its own derived seed.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .fas import berger_shor_arcs
from .homology import gain_graph_h1
from .quiver import induced_arcs, k_hop_levels

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


def _closes_cycle(n: int, arcs: list[tuple[int, int]]) -> bool:
    """True iff the non-loop arcs close a cycle of the underlying graph."""
    parent = list(range(n))
    for s, t in arcs:
        if s == t:
            continue
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        if s == t:
            return True
        parent[s] = t
    return False


def feature_vector(
    wq: WeightedQuiver,
    v: int,
    hops: int,
    seed: int,
) -> tuple[int, ...]:
    """dim H1 of the k-hop DAG around v, for k = 1..hops.

    Cell k is ``dim_h1(berger_shor(induced_subquiver(wq, hood).wq,
    derive_seed(seed, v, k)).kept)``, computed by the cores those
    functions wrap on plain arc lists, with the weights as gains. A hood
    whose non-loop arcs form a forest gives 0 whatever the FAS keeps, so
    it skips the FAS and the gains.
    """
    if hops < 1:
        raise ValueError("hops must be positive")
    q = wq.quiver
    arrows, weights = q.arrows, wq.weights
    out: list[int] = []
    cyclic = False  # hoods are nested, so once a cycle closes it stays
    for k, hood in enumerate(k_hop_levels(q, v, hops), start=1):
        verts, ids = induced_arcs(q, hood)
        local = {u: i for i, u in enumerate(verts)}
        arcs = [(local[arrows[a][0]], local[arrows[a][1]]) for a in ids]
        cyclic = cyclic or _closes_cycle(len(verts), arcs)
        if not cyclic:
            out.append(0)
            continue
        kept, _ = berger_shor_arcs(len(verts), arcs, derive_seed(seed, v, k))
        out.append(gain_graph_h1(
            len(verts), [arcs[i] for i in kept], [weights[ids[i]] for i in kept]
        ))
    return tuple(out)


def feature_matrix(
    wq: WeightedQuiver,
    hops: int,
    seed: int,
    *,
    threads: int = 1,
) -> FeatureMatrix:
    """Feature vectors for every vertex, assembled row-wise.

    The per-(vertex, hop) seeds are derived from the base seed, so serial
    and parallel runs produce identical matrices.
    """
    if hops < 1:
        raise ValueError("hops must be positive")
    if threads < 1:
        raise ValueError("threads must be positive")
    vertices = range(wq.vertex_count)

    def one(v: int) -> tuple[int, ...]:
        return feature_vector(wq, v, hops, seed)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = tuple(pool.map(one, vertices))
    else:
        rows = tuple(one(v) for v in vertices)
    return FeatureMatrix(rows=rows, hops=hops, seed=seed)
