"""Randomized feedback arc set (Berger-Shor) and DAG extraction.

Vertices are visited in a seeded uniform random permutation. Each non-loop
arc is claimed by whichever endpoint comes first; at each vertex the
smaller claimed side (incoming vs outgoing) goes to the feedback set, the
incoming side on a tie. All arcs kept at a vertex point the same way, which
makes the kept arcs acyclic. So two counting passes replace the visit: count
the in-arcs cin[v] and out-arcs cout[v] that each vertex claims, then keep
s -> t iff s comes first and cout[s] >= cin[s], or t comes first and
cin[t] > cout[t]. Self-loops are claimed by no vertex and never kept.
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
    pos = [0] * n
    for i, v in enumerate(perm):
        pos[v] = i
    cin = [0] * n
    cout = [0] * n
    for s, t in arcs:
        if pos[s] < pos[t]:
            cout[s] += 1
        elif pos[s] > pos[t]:
            cin[t] += 1
    kept = [
        a for a, (s, t) in enumerate(arcs)
        if (pos[s] < pos[t] and cout[s] >= cin[s])
        or (pos[s] > pos[t] and cin[t] > cout[t])
    ]
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
