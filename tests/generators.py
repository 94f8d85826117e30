"""Seeded random generators shared by the module tests and the acceptance
suite."""

from __future__ import annotations

import random
from functools import lru_cache

from ptodel.fixtures import complete_graph
from ptodel.fvsp import FvspInstance
from ptodel.graphs import (
    WeightedGraph,
    find_induced_c4,
    find_induced_gem,
    maximal_cliques,
)


def random_graph(
    rng: random.Random,
    n: int,
    p: float,
    weights: tuple[float, float] | None = None,
    zero_weight_p: float = 0.0,
) -> WeightedGraph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    w = None
    if weights is not None:
        lo, hi = weights
        w = [
            0.0 if rng.random() < zero_weight_p else rng.uniform(lo, hi)
            for _ in range(n)
        ]
    return WeightedGraph(n, edges, w)


def random_chordal(rng: random.Random, n: int) -> WeightedGraph:
    """Random connected chordal graph: each new vertex joins a random clique
    of the earlier ones that holds a random anchor, so the reverse order is
    a perfect elimination ordering; ids are then shuffled."""
    nbrs: list[set[int]] = []
    edges = []
    for v in range(n):
        clique = {rng.randrange(v)} if v else set()
        for u in rng.sample(range(v), v):
            if nbrs[u] >= clique and rng.random() < 0.5:
                clique.add(u)
        nbrs.append(clique)
        for u in clique:
            nbrs[u].add(v)
        edges += [(u, v) for u in clique]
    perm = list(range(n))
    rng.shuffle(perm)
    return WeightedGraph(n, [(perm[u], perm[v]) for u, v in edges])


@lru_cache(maxsize=None)
def large_clique(k: int) -> WeightedGraph:
    """``complete_graph(k)``, built once per test process: K1100 has 604,450
    edges and takes about a second to build, and two test modules use it."""
    return complete_graph(k)


def complete_multipartite(parts: int, size: int) -> WeightedGraph:
    """K(size, ..., size) with ``parts`` parts: ``size ** parts`` maximal
    cliques on ``parts * size`` vertices (Moon and Moser 1965 for size 3)."""
    n = parts * size
    return WeightedGraph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if u // size != v // size]
    )


def random_c4gem_free(
    rng: random.Random,
    n: int,
    p: float,
    weights: tuple[float, float] | None = None,
    zero_weight_p: float = 0.0,
    max_cliques_cap: int | None = None,
) -> WeightedGraph:
    """Random graph made (C4, gem)-free by deleting one random vertex of each
    obstruction until none remains.  Resamples until the maximal-clique cap
    (if any) is met; vertex ids are re-densified."""
    while True:
        g = random_graph(rng, n, p, weights, zero_weight_p)
        alive = set(range(g.n))
        while True:
            sub, old = g.induced(alive)
            obstruction = find_induced_c4(sub) or find_induced_gem(sub)
            if obstruction is None:
                break
            alive.discard(old[rng.choice(obstruction)])
        out, _ = g.induced(alive)
        if max_cliques_cap is None or len(maximal_cliques(out)) <= max_cliques_cap:
            return out


def random_multitree(
    rng: random.Random,
    n: int,
    extra_arc_tries: int = 40,
    zero_weight_p: float = 0.2,
    weight_hi: float = 5.0,
) -> FvspInstance:
    """Random valid FVSP instance: a DAG with at most one directed path
    between any two nodes (equivalent to every ancestor set inducing an
    in-tree), built by greedy arc insertion with a path-count matrix."""
    paths = [[0] * n for _ in range(n)]
    for v in range(n):
        paths[v][v] = 1
    arcs: list[tuple[int, int]] = []
    have = set()
    for _ in range(extra_arc_tries):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        if u > v:
            u, v = v, u  # topological order = id order
        if (u, v) in have:
            continue
        ok = all(
            paths[a][b] + paths[a][u] * paths[v][b] <= 1
            for a in range(n)
            for b in range(n)
        )
        if not ok:
            continue
        have.add((u, v))
        arcs.append((u, v))
        for a in range(n):
            if paths[a][u]:
                for b in range(n):
                    paths[a][b] += paths[a][u] * paths[v][b]
    weights = [
        0.0 if rng.random() < zero_weight_p else rng.uniform(0.1, weight_hi)
        for _ in range(n)
    ]
    return FvspInstance(n, arcs, weights)
