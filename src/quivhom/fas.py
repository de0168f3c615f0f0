"""Randomized feedback arc set (Berger-Shor) and DAG extraction.

Vertices are visited in a seeded uniform random permutation. At each
vertex the smaller of the two incident sides (incoming vs outgoing, among
arcs not yet claimed) is sacrificed to the feedback set and both sides
leave the working set; on a tie the incoming side is sacrificed. Each arc
is therefore claimed exactly once, at whichever endpoint comes first, and
all arcs claimed at a vertex point the same way, which is what makes the
kept arcs acyclic. Self-loops can never be kept and go straight to the
feedback set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .errors import InvariantError
from .quiver import Quiver, WeightedQuiver, arcs_acyclic


@dataclass(frozen=True, eq=False)
class FasResult:
    """Outcome of one feedback-arc-set run.

    ``feedback`` and ``kept_arrows`` partition the input arrow indices;
    ``kept`` is the input quiver minus the feedback arcs (same vertices,
    arrows reindexed in ascending original order, weights carried over).
    """

    feedback: frozenset[int]
    kept: WeightedQuiver
    kept_arrows: tuple[int, ...]
    permutation: tuple[int, ...]
    seed: int


def berger_shor_arcs(
    n: int, arcs: Sequence[tuple[int, int]], seed: int
) -> tuple[list[int], list[int]]:
    """The feedback-arc-set pass on plain arcs over vertices 0..n-1.

    Returns the positions of the kept arcs, ascending, and the visiting
    order. The kept arcs pass one acyclicity check, which raises
    ``InvariantError`` if they close a cycle.
    """
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    ins: list[list[int]] = [[] for _ in range(n)]
    outs: list[list[int]] = [[] for _ in range(n)]
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
        for a in vin:
            claimed[a] = True
        for a in vout:
            claimed[a] = True

    kept = [a for a, k in enumerate(keep) if k]
    if not arcs_acyclic(n, [arcs[a] for a in kept]):
        raise InvariantError("feedback-arc-set pass kept a cycle")
    return kept, perm


def berger_shor(wq: WeightedQuiver, seed: int) -> FasResult:
    """Run the randomized feedback-arc-set pass with the given seed.

    Deterministic for a fixed (input, seed); the kept quiver is always
    acyclic and keeps at least half of the non-loop arcs.
    """
    q = wq.quiver
    kept_arrows, perm = berger_shor_arcs(q.vertex_count, q.arrows, seed)
    kept = WeightedQuiver(
        Quiver(q.vertex_count, [q.arrows[a] for a in kept_arrows]),
        [wq.weights[a] for a in kept_arrows],
    )
    return FasResult(
        feedback=frozenset(range(q.arrow_count)).difference(kept_arrows),
        kept=kept,
        kept_arrows=tuple(kept_arrows),
        permutation=tuple(perm),
        seed=seed,
    )


def to_dag(wq: WeightedQuiver, seed: int) -> WeightedQuiver:
    """The acyclic quiver left after removing the feedback arcs."""
    return berger_shor(wq, seed).kept
