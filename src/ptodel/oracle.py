"""Exact exponential-time reference solvers, used as ground truth in tests.

These deliberately favor obviously-correct enumeration over speed; budgets
cap the instance sizes.  The obstruction detectors here are independent of
the ones in ``graphs`` (plain degree-sequence checks over subsets) so the two
routes can validate each other.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Iterator, Optional

from .fvsp import FvspInstance
from .graphs import (
    BudgetExceededError,
    VertexSet,
    WeightedGraph,
    _bits_to_list,
    _mask_of,
    is_ptolemaic,
    union_find,
)

# default size caps: graph vertices for the deletion and hitting solvers,
# FVSP nodes for exact_fvsp
MAX_GRAPH_VERTICES = 14
MAX_FVSP_NODES = 18


def _refuse_over(size: int, budget: int, noun: str) -> None:
    """Raise unless the budget is positive and ``size`` is within it."""
    if budget < 1:
        raise ValueError("budget bounds must be positive")
    if size > budget:
        raise BudgetExceededError(f"{size} {noun} exceeds oracle budget {budget}")


def _subsets_by_weight(
    weights: tuple[float, ...]
) -> Iterator[tuple[float, tuple[int, ...]]]:
    """All subsets of 0..n-1 in nondecreasing total weight (empty set
    first).  Classic heap scheme over the weight-sorted vertex order."""
    n = len(weights)
    yield 0.0, ()
    if n == 0:
        return
    order = sorted(range(n), key=lambda v: (weights[v], v))
    w = [weights[v] for v in order]
    heap: list[tuple[float, tuple[int, ...]]] = [(w[0], (0,))]
    while heap:
        total, idxs = heapq.heappop(heap)
        yield total, tuple(sorted(order[i] for i in idxs))
        last = idxs[-1]
        if last + 1 < n:
            heapq.heappush(heap, (total + w[last + 1], idxs + (last + 1,)))
            heapq.heappush(
                heap, (total - w[last] + w[last + 1], idxs[:-1] + (last + 1,))
            )


# ---------------------------------------------------------------------------
# independent obstruction scans (degree-sequence based)


def _induces_c4(g: WeightedGraph, quad: tuple[int, ...]) -> bool:
    degs = [sum(1 for y in quad if y != x and g.has_edge(x, y)) for x in quad]
    return degs == [2, 2, 2, 2]


def _induces_gem(g: WeightedGraph, quint: tuple[int, ...]) -> bool:
    degs = sorted(
        sum(1 for y in quint if y != x and g.has_edge(x, y)) for x in quint
    )
    return degs == [2, 2, 3, 3, 4]


def c4_gem_obstructions(g: WeightedGraph) -> list[VertexSet]:
    """Every 4-set inducing a C4 and 5-set inducing a gem, by subset scan."""
    out = [q for q in itertools.combinations(range(g.n), 4) if _induces_c4(g, q)]
    out += [q for q in itertools.combinations(range(g.n), 5) if _induces_gem(g, q)]
    return sorted(out)


# ---------------------------------------------------------------------------
# exact solvers


def _lightest_hitting_set(
    g: WeightedGraph,
    budget: int,
    feasible: Callable[[VertexSet], bool],
) -> tuple[float, VertexSet]:
    """Minimum-weight S meeting every induced C4 and gem with ``feasible(S)``
    true, by weight-ordered subset enumeration.  A set weighs
    ``g.weight_of(subset)``; ties resolve to the lexicographically smallest
    set."""
    _refuse_over(g.n, budget, "vertices")
    obstructions = [sum(1 << v for v in obs) for obs in c4_gem_obstructions(g)]
    best: Optional[tuple[float, VertexSet]] = None
    for total, subset in _subsets_by_weight(g.weights):
        # the heap's running total differs from a set's own sum by rounding
        # only, so a set up to 1e-9 above the best may still weigh no more
        if best is not None and total > best[0] + 1e-9:
            break
        mask = sum(1 << v for v in subset)
        if all(mask & ob for ob in obstructions) and feasible(subset):
            weight = g.weight_of(subset)
            if best is None or (weight, subset) < best:
                best = (weight, subset)
    assert best is not None, "deleting everything is always feasible"
    return best


def exact_ptolemaic_deletion(
    g: WeightedGraph, budget: int = MAX_GRAPH_VERTICES
) -> tuple[float, VertexSet]:
    """Minimum-weight S with G - S ptolemaic.  Meeting every C4 and gem is
    necessary, so the remainder is checked only for those sets."""
    return _lightest_hitting_set(
        g, budget, lambda subset: is_ptolemaic(g.delete(subset)[0])[0]
    )


def exact_c4gem_hitting(
    g: WeightedGraph, budget: int = MAX_GRAPH_VERTICES
) -> tuple[float, VertexSet]:
    """Minimum-weight vertex set meeting every induced C4 and gem."""
    return _lightest_hitting_set(g, budget, lambda subset: True)


def _cycle(n: int, edges: list[tuple[int, int]]) -> Optional[list[int]]:
    """Some cycle of the undirected graph ``edges`` on 0..n-1, as a node
    list, or None: the first edge ``union_find`` rejects, plus the path
    between its ends in the forest of the edges before it."""
    closing = union_find(n, edges)[1]
    if not closing:
        return None
    a, b = closing[0]
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges[: edges.index((a, b))]:
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * n  # of the forest rooted at a, until it reaches b
    parent[a] = a
    stack = [a]
    while parent[b] < 0:
        u = stack.pop()
        for w in adj[u]:
            if parent[w] < 0:
                parent[w] = u
                stack.append(w)
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    return path


def _exact_fvsp_component(inst: FvspInstance, arcs: list[tuple[int, int]]) -> list[int]:
    """The optimal deletion set within the weakly connected component of
    ``arcs``, searched on its nodes relabelled 0..k-1 (so a disjoint union
    costs the sum of its parts)."""
    nodes = sorted({v for arc in arcs for v in arc})
    local = {v: i for i, v in enumerate(nodes)}
    edges = [(local[u], local[v]) for u, v in arcs]
    bits = [1 << a | 1 << b for a, b in edges]
    des = [_mask_of(local[w] for w in _bits_to_list(inst.des_masks[v])) for v in nodes]
    weights = [inst.weights[v] for v in nodes]
    best_w, best = float("inf"), None
    seen: set[int] = set()
    stack = [0]
    while stack:
        del_mask = stack.pop()
        if del_mask in seen:
            continue
        seen.add(del_mask)
        # summed in id order, as ``inst.weight_of`` sums
        w = float(sum(weights[x] for x in _bits_to_list(del_mask)))
        if w >= best_w:
            continue
        kept = [e for e, e_bits in zip(edges, bits) if not del_mask & e_bits]
        cycle = _cycle(len(nodes), kept)
        if cycle is None:
            best_w, best = w, del_mask
            continue
        stack.extend(del_mask | des[x] for x in sorted(cycle, reverse=True))
    assert best is not None
    return [nodes[x] for x in _bits_to_list(best)]


def exact_fvsp(
    inst: FvspInstance, budget: int = MAX_FVSP_NODES
) -> tuple[float, tuple[int, ...]]:
    """Minimum-weight downward-closed set with forest remainder.

    A node's descendants lie in its weakly connected component, so the
    optimum is the union of the components' optima, and each component that
    holds a cycle is searched on its own.  The search is branch and bound
    over cycle vertices: a remaining cycle must lose some vertex together
    with its descendant closure, so branching on the vertices of one cycle
    (``_cycle``'s) covers every feasible solution; visited deletion sets are
    memoized and branches at or above the incumbent weight are cut.  It is
    depth first from an explicit stack, children in ascending vertex order,
    because its depth grows with the number of cycles broken.
    """
    _refuse_over(inst.n, budget, "nodes")
    if inst.topo_order is None:
        raise ValueError("oracle needs an acyclic digraph")
    root, closing = union_find(inst.n, inst.arcs)
    arcs_of: dict[int, list[tuple[int, int]]] = {root[u]: [] for u, _ in closing}
    for u, v in inst.arcs:
        if root[u] in arcs_of:
            arcs_of[root[u]].append((u, v))
    deleted = sorted(v for arcs in arcs_of.values() for v in _exact_fvsp_component(inst, arcs))
    return inst.weight_of(deleted), tuple(deleted)
