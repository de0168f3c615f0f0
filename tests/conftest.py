from __future__ import annotations

import random
from fractions import Fraction

import pytest

from quivhom import Quiver, WeightedQuiver


HUGE = Fraction(2**200, 3)
TINY = Fraction(1, 2**200)
# gains from 2^200/3 down to 1/2^200, both signs
EXTREME_WEIGHTS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2),
                   Fraction(3, 5), HUGE, -HUGE, TINY, 1 / HUGE]


def random_nonzero_fraction(rng: random.Random, span: int = 6) -> Fraction:
    num = rng.choice([x for x in range(-span, span + 1) if x != 0])
    return Fraction(num, rng.randint(1, span))


def random_acyclic_weighted_quiver(
    rng: random.Random, max_vertices: int = 8, max_arrows: int = 14
) -> WeightedQuiver:
    """Random acyclic quiver: arrows only go forward along a hidden random
    vertex order, so parallel arrows are possible but cycles are not."""
    n = rng.randint(1, max_vertices)
    order = list(range(n))
    rng.shuffle(order)
    arrows = []
    if n >= 2:
        for _ in range(rng.randint(0, max_arrows)):
            i, j = sorted(rng.sample(range(n), 2))
            arrows.append((order[i], order[j]))
    weights = [random_nonzero_fraction(rng) for _ in arrows]
    return WeightedQuiver(Quiver(n, arrows), weights)


def random_digraph(
    rng: random.Random,
    max_vertices: int = 50,
    max_arrows: int = 400,
    self_loops: bool = False,
) -> WeightedQuiver:
    """Random digraph, cycles allowed (self-loops only when requested)."""
    n = rng.randint(1, max_vertices)
    arrows = []
    for _ in range(rng.randint(0, max_arrows)):
        s, t = rng.randrange(n), rng.randrange(n)
        if s == t and not self_loops:
            continue
        arrows.append((s, t))
    weights = [random_nonzero_fraction(rng) for _ in arrows]
    return WeightedQuiver(Quiver(n, arrows), weights)


def random_multigraph(rng: random.Random, max_vertices: int = 12) -> WeightedQuiver:
    """Random quiver with self-loops, parallel arrows and (usually) isolated
    vertices: endpoints come from a random subset of the vertices, and some
    arrows are repeated. Mostly forward along a hidden order, so both
    acyclic and cyclic quivers are common."""
    n = rng.randint(1, max_vertices)
    used = rng.sample(range(n), rng.randint(1, n))
    arrows = []
    for _ in range(rng.randint(0, 2 * n)):
        s, t = rng.choice(used), rng.choice(used)
        if rng.random() < 0.9 and used.index(s) > used.index(t):
            s, t = t, s
        arrows.append((s, t))
    for _ in range(rng.randint(0, 3) if arrows else 0):
        arrows.insert(rng.randrange(len(arrows) + 1), rng.choice(arrows))
    weights = [random_nonzero_fraction(rng) for _ in arrows]
    return WeightedQuiver(Quiver(n, arrows), weights)


def planted_potential_digraph(
    rng: random.Random, n: int, m: int, share: float
) -> WeightedQuiver:
    """Random digraph on n vertices with m arcs and no self-loops. A share
    of the arcs s -> t weigh y_s / y_t for random vertex potentials y, so
    many cycles are balanced; the rest take a random weight."""
    potential = [random_nonzero_fraction(rng, 9) for _ in range(n)]
    arrows, weights = [], []
    while len(arrows) < m:
        s, t = rng.randrange(n), rng.randrange(n)
        if s == t:
            continue
        arrows.append((s, t))
        weights.append(potential[s] / potential[t] if rng.random() < share
                       else random_nonzero_fraction(rng, 9))
    return WeightedQuiver(Quiver(n, arrows), weights)


def weak_component_count(q: Quiver) -> int:
    """Union-find over arrows with orientation ignored."""
    parent = list(range(q.vertex_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s, t in q.arrows:
        rs, rt = find(s), find(t)
        if rs != rt:
            parent[rs] = rt
    return len({find(v) for v in range(q.vertex_count)})


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
