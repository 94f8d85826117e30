"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of ``(seed, index)``: the same pair always
gives the same graph, whatever else the run does.  Graphs are plain records
(vertex count, sorted edge list, weights) so the checker never depends on the
program's own graph type; ``to_gr`` writes them in the program's `.gr` format.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WEIGHTS = (1.0, 10.0)


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[float, ...]


@dataclass(frozen=True)
class Case:
    """One input of a workload: the graph, the CLI command run on it, and for
    `check` inputs the solution's deleted set and the length of the graph's
    only hole."""

    graph: Graph
    command: str
    deleted: tuple[int, ...] = ()
    hole_len: int = 0


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # string seeds hash through SHA-512, so they do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{index}")


def _weights(rng: random.Random, n: int) -> tuple[float, ...]:
    return tuple(rng.uniform(*WEIGHTS) for _ in range(n))


def _graph(n: int, edges, weights) -> Graph:
    return Graph(n, tuple(sorted((min(u, v), max(u, v)) for u, v in edges)), weights)


def _relabel(rng: random.Random, n: int, edges) -> tuple[list[int], list[tuple[int, int]]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, [(perm[u], perm[v]) for u, v in edges]


def erdos_renyi(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return _graph(n, edges, _weights(rng, n))


def _within(adj: list[list[int]], u: int, v: int, radius: int) -> bool:
    """True iff v is at distance at most ``radius`` from u."""
    seen = {u}
    frontier = [u]
    for _ in range(radius):
        frontier = [w for x in frontier for w in adj[x] if w not in seen]
        seen.update(frontier)
        if v in seen:
            return True
    return v in seen


def tree_plus_chords(rng: random.Random, n: int, chords: int) -> Graph:
    """Uniform random recursive tree plus ``chords`` extra edges, randomly
    relabelled.  Each chord joins two vertices at distance at least 5 in the
    graph so far, so every cycle is a hole of length at least 6: the graph
    has no C4 and no triangle, hence no gem, and stage 1 has nothing to hit."""
    adj: list[list[int]] = [[] for _ in range(n)]
    edges = []

    def add(u: int, v: int) -> None:
        edges.append((u, v))
        adj[u].append(v)
        adj[v].append(u)

    for v in range(1, n):
        add(rng.randrange(v), v)
    while len(edges) < n - 1 + chords:
        u, v = rng.sample(range(n), 2)
        if not _within(adj, u, v, 4):
            add(u, v)
    _, relabelled = _relabel(rng, n, edges)
    return _graph(n, relabelled, _weights(rng, n))


def hole_with_trees(rng: random.Random, k: int) -> tuple[Graph, tuple[int, ...]]:
    """Induced cycle on k vertices plus k tree vertices, each hung from a
    random earlier vertex, randomly relabelled.  The cycle is the only hole.

    Returns the graph and a deletion set of k // 4 tree vertices (none on
    the cycle), so the remainder still holds the hole."""
    n = 2 * k
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(rng.randrange(v), v) for v in range(k, n)]
    perm, relabelled = _relabel(rng, n, edges)
    tree = [perm[v] for v in range(k, n)]
    deleted = rng.sample(tree, max(1, k // 4))
    return _graph(n, relabelled, _weights(rng, n)), tuple(sorted(deleted))


# Sizes are chosen so that one call takes 30 to 150 milliseconds: a run then
# makes a hundred or more calls, enough for a steady median and a tail
# percentile with ten samples beyond it.  Every run works through the same
# CASES distinct cases, at least once and cyclically until its time is up,
# so the inputs behind every figure, peak memory included, depend on the seed
# alone and not on how fast the program is.
DENSE_N, DENSE_P = 22, 0.5
SPARSE_N, SPARSE_DEG = 90, 4.8
TREE_N = (80, 160)  # case i of CASES gets the i-th of evenly spaced sizes
HOLE_K = 36
CASES = 128


def _dense(rng, index):
    return Case(erdos_renyi(rng, DENSE_N, DENSE_P), "solve")


def _sparse(rng, index):
    return Case(erdos_renyi(rng, SPARSE_N, SPARSE_DEG / SPARSE_N), "solve")


def _tree(rng, index):
    # The same ladder of sizes for every seed: the cost of a call then spreads
    # over a range, so a run's median moves smoothly with the share of time
    # the host runs fast instead of jumping between the host's two speeds.
    lo, hi = TREE_N
    n = lo + (hi - lo) * index // (CASES - 1)
    return Case(tree_plus_chords(rng, n, n // 10), "solve")


def _hole(rng, index):
    g, deleted = hole_with_trees(rng, HOLE_K)
    return Case(g, "check", deleted=deleted, hole_len=HOLE_K)


# name -> (generator of one case, input size as stated in reports)
WORKLOADS = {
    "dense_obstructions": (_dense, f"Erdos-Renyi n={DENSE_N} p={DENSE_P}, ptodel solve"),
    "sparse_er": (_sparse, f"Erdos-Renyi n={SPARSE_N} p={SPARSE_DEG}/n, ptodel solve"),
    "tree_chords": (
        _tree, f"random tree n={TREE_N[0]}..{TREE_N[1]} plus n/10 chords, ptodel solve"),
    "hole_check": (_hole, f"hole C{HOLE_K} plus {HOLE_K} tree vertices, ptodel check"),
}


def make_case(workload: str, seed: int, index: int) -> Case:
    return WORKLOADS[workload][0](_rng(workload, seed, index), index)


def make_cases(workload: str, seed: int) -> list[Case]:
    return [make_case(workload, seed, i) for i in range(CASES)]


def to_gr(g: Graph) -> str:
    lines = [f"p {g.n} {len(g.edges)}"]
    lines += [f"v {v} {w!r}" for v, w in enumerate(g.weights)]
    lines += [f"e {u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"
