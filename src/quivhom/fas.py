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

from .errors import InvariantError
from .quiver import Quiver, WeightedQuiver, topological_order


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


def berger_shor(wq: WeightedQuiver, seed: int) -> FasResult:
    """Run the randomized feedback-arc-set pass with the given seed.

    Deterministic for a fixed (input, seed); the kept quiver is always
    acyclic and keeps at least half of the non-loop arcs.
    """
    q = wq.quiver
    n, m = q.vertex_count, q.arrow_count
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)

    feedback: set[int] = set()
    present = [True] * m
    for a, (s, t) in enumerate(q.arrows):
        if s == t:
            feedback.add(a)
            present[a] = False

    for v in perm:
        ins = [a for a in q.in_arrows[v] if present[a]]
        outs = [a for a in q.out_arrows[v] if present[a]]
        if len(ins) > len(outs):
            feedback.update(outs)
        else:
            feedback.update(ins)
        for a in ins:
            present[a] = False
        for a in outs:
            present[a] = False

    kept_arrows = tuple(a for a in range(m) if a not in feedback)
    kept = WeightedQuiver(
        Quiver(n, [q.arrows[a] for a in kept_arrows]),
        [wq.weights[a] for a in kept_arrows],
    )
    if topological_order(kept.quiver) is None:
        raise InvariantError("feedback-arc-set pass kept a cycle")
    return FasResult(
        feedback=frozenset(feedback),
        kept=kept,
        kept_arrows=kept_arrows,
        permutation=tuple(perm),
        seed=seed,
    )


def to_dag(wq: WeightedQuiver, seed: int) -> WeightedQuiver:
    """The acyclic quiver left after removing the feedback arcs."""
    return berger_shor(wq, seed).kept
