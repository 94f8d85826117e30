"""Output checker, independent of the program's recognizers.

Chordality is tested with a maximum-cardinality-search elimination order
(the program uses lexicographic BFS), gem-freeness with a P4-free (cograph)
test of every vertex's neighbourhood (the program scans 4-subsets), and the
reported weight is recomputed from the input weights.  Every function returns
None when the output is accepted and a one-line reason when it is rejected.
"""

from __future__ import annotations

import math
from typing import Optional

from workloads import Case, Graph


def _adjacency(n: int, edges, alive: int) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        if (alive >> u) & 1 and (alive >> v) & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


def _members(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _mcs_order(adj: list[int], alive: int) -> list[int]:
    """Maximum cardinality search: repeatedly visit an unvisited vertex with
    the most visited neighbours.  The reverse of the visit order is a perfect
    elimination order exactly when the graph is chordal."""
    verts = _members(alive)
    count = dict.fromkeys(verts, 0)
    buckets: list[set[int]] = [set(verts)]  # by number of visited neighbours
    top = 0
    order = []
    while len(order) < len(verts):
        while not buckets[top]:
            top -= 1
        v = buckets[top].pop()
        order.append(v)
        del count[v]
        for w in _members(adj[v]):
            if w in count:
                c = count[w]
                buckets[c].discard(w)
                if c + 1 == len(buckets):
                    buckets.append(set())
                buckets[c + 1].add(w)
                count[w] = c + 1
                top = max(top, c + 1)
    return order


def is_chordal(adj: list[int], alive: int) -> bool:
    order = _mcs_order(adj, alive)
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        earlier = [u for u in _members(adj[v]) if pos[u] < pos[v]]
        if not earlier:
            continue
        # the latest earlier neighbour must see all the other earlier ones
        parent = max(earlier, key=pos.__getitem__)
        rest = 0
        for u in earlier:
            if u != parent:
                rest |= 1 << u
        if rest & ~adj[parent]:
            return False
    return True


def _components(adj, vertices: int) -> list[int]:
    comps = []
    left = vertices
    while left:
        comp = frontier = left & -left
        while frontier:
            reach = 0
            for v in _members(frontier):
                reach |= adj[v]
            frontier = reach & vertices & ~comp
            comp |= frontier
        comps.append(comp)
        left &= ~comp
    return comps


def is_p4_free(adj: list[int], vertices: int) -> bool:
    """Cograph test: every induced subgraph on two or more vertices is
    disconnected or has a disconnected complement."""
    stack = [vertices]
    while stack:
        vs = stack.pop()
        if vs & (vs - 1) == 0:
            continue
        comps = _components(adj, vs)
        if len(comps) == 1:
            co_adj = {v: vs & ~adj[v] & ~(1 << v) for v in _members(vs)}
            comps = _components(co_adj, vs)
            if len(comps) == 1:
                return False
        stack.extend(comps)
    return True


def is_gem_free(adj: list[int], alive: int) -> bool:
    # a gem is a P4 plus a vertex adjacent to all of it
    return all(is_p4_free(adj, adj[v]) for v in _members(alive))


def _vertex_mask(g: Graph, ids) -> tuple[Optional[str], int]:
    """(None, bitmask) for a list of distinct vertex ids of ``g``, else
    (reason, 0)."""
    if not isinstance(ids, list) or not all(isinstance(v, int) for v in ids):
        return "is not a list of vertex ids", 0
    if len(set(ids)) != len(ids) or any(not 0 <= v < g.n for v in ids):
        return "has duplicate or out-of-range ids", 0
    mask = 0
    for v in ids:
        mask |= 1 << v
    return None, mask


def _weight_error(g: Graph, deleted: list[int], weight) -> Optional[str]:
    want = math.fsum(g.weights[v] for v in deleted)
    if not isinstance(weight, (int, float)) or not math.isclose(
        weight, want, rel_tol=1e-9, abs_tol=1e-9
    ):
        return f"weight {weight!r} != sum of deleted weights {want!r}"
    return None


def check_solve(g: Graph, out: dict) -> Optional[str]:
    """A `solve` result must delete a set whose remainder is ptolemaic, at
    the reported weight, and no lighter than its own LP lower bounds."""
    err, gone = _vertex_mask(g, out.get("deleted"))
    if err:
        return "deleted " + err
    err = _weight_error(g, out["deleted"], out.get("weight"))
    if err:
        return err
    alive = ((1 << g.n) - 1) & ~gone
    adj = _adjacency(g.n, g.edges, alive)
    if not is_chordal(adj, alive):
        return "remainder is not chordal"
    if not is_gem_free(adj, alive):
        return "remainder contains a gem"
    bound = lower_bound(out)
    if out["weight"] < bound - 1e-6 * max(1.0, bound):
        return f"weight {out['weight']!r} is below the LP lower bound {bound!r}"
    return None


def lower_bound(out: dict) -> float:
    """max(hitting LP, FVSP LP): both bound the optimum from below."""
    stages = out["stages"]
    return max(stages["hitting"]["lp_value"], stages["fvsp"]["lp_value"])


def check_check(case: Case, out: dict) -> Optional[str]:
    """A `check` of a solution that leaves the hole must say infeasible, at
    the solution's weight, with an induced cycle of length >= 4 as witness."""
    g = case.graph
    if out.get("feasible") is not False:
        return "solution leaves a hole but was reported feasible"
    err = _weight_error(g, list(case.deleted), out.get("weight"))
    if err:
        return err
    witness = out.get("witness")
    err, _ = _vertex_mask(g, witness)
    if err:
        return "witness " + err
    return hole_error(g, witness, case.deleted)


def hole_error(g: Graph, cycle: list[int], deleted=()) -> Optional[str]:
    """None iff ``cycle`` lists an induced cycle of length >= 4 of ``g``
    avoiding ``deleted``."""
    k = len(cycle)
    if k < 4:
        return f"witness has {k} vertices; a hole needs at least 4"
    if set(cycle) & set(deleted):
        return "witness uses a deleted vertex"
    adj = _adjacency(g.n, g.edges, (1 << g.n) - 1)
    for i, v in enumerate(cycle):
        for j in range(i + 1, k):
            consecutive = j == i + 1 or (i == 0 and j == k - 1)
            if bool((adj[v] >> cycle[j]) & 1) != consecutive:
                return f"witness is not an induced cycle at ({v}, {cycle[j]})"
    return None
