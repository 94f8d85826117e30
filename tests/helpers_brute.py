"""Independent brute-force reference implementations for the test suite.

Everything here deliberately avoids the production code paths: recognizers
work by exhaustive subset scans, chordality by greedy simplicial elimination,
the FVSP reference by literal enumeration of downward-closed sets, the
instance check by explicit ancestor sets, the C4 and gem references by plain
pair and subset scans, the hitting LP by one solve over all of their rows,
and the FVSP LP model by a per-arc loop.  The ICD section holds the analysis
helpers the tests use to compare lattices, walk them and state the lifting
lemma (``icd_equivalent``, ``descendants``, ``ancestors``, ``closure``), and
the closure of source masks under intersection (``close_sources``) that
``build_icd``'s one-round node family is checked against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

import numpy as np

from scipy.optimize import linprog

from ptodel.fvsp import (
    FvspInstance,
    FvspLpSolution,
    FvspSolution,
    InstanceViolation,
    cleanup_unicyclic,
    round_at,
    theta_candidates,
)
from ptodel.graphs import VertexSet, WeightedGraph, vset
from ptodel.lattice import InterCliqueDigraph

# ---------------------------------------------------------------------------
# labeled graph enumeration via edge masks


def edge_list(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def graph_from_mask(n: int, mask: int, weights=None) -> WeightedGraph:
    pairs = edge_list(n)
    edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
    return WeightedGraph(n, edges, weights)


def all_graph_masks(n: int) -> range:
    return range(1 << (n * (n - 1) // 2))


def is_connected(g: WeightedGraph) -> bool:
    if g.n <= 1:
        return True
    seen = {0}
    stack = [0]
    while stack:
        for w in _bits_to_list(g.adj_bits[stack.pop()]):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


@lru_cache(maxsize=None)
def connected_class_masks(n: int) -> tuple[int, ...]:
    """One labeled representative per isomorphism class of connected graphs
    on exactly n vertices (orbit minimization over all vertex permutations,
    vectorized over every edge mask)."""
    pairs = edge_list(n)
    e = len(pairs)
    idx = {p: i for i, p in enumerate(pairs)}
    masks = np.arange(1 << e, dtype=np.int64)
    canon = masks.copy()
    for perm in itertools.permutations(range(n)):
        remapped = np.zeros_like(masks)
        for i, (u, v) in enumerate(pairs):
            j = idx[(min(perm[u], perm[v]), max(perm[u], perm[v]))]
            remapped |= ((masks >> i) & 1) << j
        np.minimum(canon, remapped, out=canon)
    reps = np.unique(canon)
    out = [int(m) for m in reps if is_connected(graph_from_mask(n, int(m)))]
    return tuple(out)


# ---------------------------------------------------------------------------
# recognizers by exhaustive induced-subgraph search


def _induces_cycle(g: WeightedGraph, sub: tuple[int, ...]) -> bool:
    degs = []
    for x in sub:
        d = sum(1 for y in sub if y != x and g.has_edge(x, y))
        if d != 2:
            return False
        degs.append(d)
    # 2-regular and connected = a single cycle
    seen = {sub[0]}
    stack = [sub[0]]
    inside = set(sub)
    while stack:
        for w in _bits_to_list(g.adj_bits[stack.pop()]):
            if w in inside and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(sub)


def has_hole_brute(g: WeightedGraph) -> bool:
    for size in range(4, g.n + 1):
        for sub in itertools.combinations(range(g.n), size):
            if _induces_cycle(g, sub):
                return True
    return False


def _bits_to_list(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if (mask >> v) & 1]


def _hole_dfs(g: WeightedGraph, s: int, length: int) -> Optional[VertexSet]:
    bits = g.adj_bits
    stack: list[int] = [s]
    in_path = 1 << s

    def extend() -> Optional[VertexSet]:
        nonlocal in_path
        last = stack[-1]
        depth = len(stack)
        closing = depth == length - 1
        internal = 0
        for x in stack[1:-1]:
            internal |= 1 << x
        for w in _bits_to_list(bits[last]):
            if w <= s or (in_path >> w) & 1:
                continue
            if bits[w] & internal:
                continue  # chord to an internal path vertex
            adj_root = (bits[w] >> s) & 1
            if closing:
                if adj_root and stack[1] < w:
                    return tuple(stack) + (w,)
                continue
            if depth >= 2 and adj_root:
                continue  # premature chord back to the root
            stack.append(w)
            in_path |= 1 << w
            got = extend()
            stack.pop()
            in_path ^= 1 << w
            if got:
                return got
        return None

    return extend()


def shortest_hole_brute(g: WeightedGraph) -> Optional[VertexSet]:
    # Exhaustive search over induced cycles by increasing length.  Each cycle
    # is rooted at its minimum vertex with the smaller second vertex first,
    # so every hole is visited once.  Exponential; small inputs only.
    for length in range(4, g.n + 1):
        for s in range(g.n):
            found = _hole_dfs(g, s, length)
            if found:
                return found
    return None


def has_gem_brute(g: WeightedGraph) -> bool:
    for sub in itertools.combinations(range(g.n), 5):
        degs = sorted(
            sum(1 for y in sub if y != x and g.has_edge(x, y)) for x in sub
        )
        if degs == [2, 2, 3, 3, 4]:
            return True
    return False


# Reference C4 and gem scans: every non-adjacent pair b < d as a diagonal,
# and every 4-subset of N(apex).  They yield each square twice (once per
# diagonal) and each gem once; their first hit is the witness
# ``find_induced_c4`` and ``find_induced_gem`` must return.


def c4_scan_brute(g: WeightedGraph):
    for b, d in itertools.combinations(range(g.n), 2):
        if g.has_edge(b, d):
            continue
        common = _bits_to_list(g.adj_bits[b] & g.adj_bits[d])
        for a, c in itertools.combinations(common, 2):
            if not g.has_edge(a, c):
                yield vset((a, b, c, d))


def gem_scan_brute(g: WeightedGraph):
    for apex in range(g.n):
        for quad in itertools.combinations(_bits_to_list(g.adj_bits[apex]), 4):
            q = sum(1 << x for x in quad)
            degs = sorted((g.adj_bits[x] & q).bit_count() for x in quad)
            if degs == [1, 1, 2, 2]:  # on four vertices, only the path
                yield vset(quad + (apex,))


def hitting_lp_brute(g: WeightedGraph) -> float:
    """Optimum of the C4/gem hitting LP, solved once over every row."""
    rows = sorted(set(c4_scan_brute(g)) | set(gem_scan_brute(g)))
    if not rows:
        return 0.0
    a_ub = np.zeros((len(rows), g.n))
    for r, obs in enumerate(rows):
        for v in obs:
            a_ub[r, v] = -1.0
    res = linprog(
        np.asarray(g.weights),
        A_ub=a_ub,
        b_ub=-np.ones(len(rows)),
        bounds=(0.0, 1.0),
        method="highs",
    )
    assert res.success, res.message
    return float(res.fun)


def is_ptolemaic_brute(g: WeightedGraph) -> bool:
    return not has_hole_brute(g) and not has_gem_brute(g)


def is_chordal_greedy_simplicial(g: WeightedGraph) -> bool:
    """Chordal iff repeatedly deleting any simplicial vertex empties the
    graph (order does not matter)."""
    alive = set(range(g.n))
    changed = True
    while alive and changed:
        changed = False
        for v in sorted(alive):
            nbrs = [w for w in _bits_to_list(g.adj_bits[v]) if w in alive]
            if all(
                g.has_edge(a, b)
                for i, a in enumerate(nbrs)
                for b in nbrs[i + 1 :]
            ):
                alive.discard(v)
                changed = True
                break
    return not alive


def twin_classes(g: WeightedGraph) -> list[VertexSet]:
    """Partition of V into maximal groups with identical closed
    neighborhoods (true twin classes)."""
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(g.closed_bits(v), []).append(v)
    return sorted(vset(vs) for vs in groups.values())


def maximal_cliques_brute(g: WeightedGraph) -> list[tuple[int, ...]]:
    cliques = []
    for size in range(1, g.n + 1):
        for sub in itertools.combinations(range(g.n), size):
            if all(
                g.has_edge(a, b)
                for i, a in enumerate(sub)
                for b in sub[i + 1 :]
            ):
                cliques.append(sub)
    out = []
    sets = [set(c) for c in cliques]
    for i, c in enumerate(cliques):
        if not any(j != i and sets[i] < sets[j] for j in range(len(cliques))):
            out.append(c)
    return sorted(out)


# ---------------------------------------------------------------------------
# FVSP references


def downward_closed_sets(inst: FvspInstance, cap: int | None = None):
    """Every downward-closed node set, as frozensets; include/exclude DFS in
    reverse topological order (a node may enter only if its children did).
    Stops yielding once ``cap`` sets were produced."""
    order = inst.topo_order
    assert order is not None
    rev = list(reversed(order))
    produced = 0

    def rec(i: int, chosen: frozenset[int]):
        nonlocal produced
        if cap is not None and produced >= cap:
            return
        if i == len(rev):
            produced += 1
            yield chosen
            return
        v = rev[i]
        yield from rec(i + 1, chosen)
        if all(c in chosen for c in inst.out_adj[v]):
            yield from rec(i + 1, chosen | {v})

    yield from rec(0, frozenset())


def validate_instance_brute(inst: FvspInstance) -> Optional[InstanceViolation]:
    """Reference for ``validate_instance`` from ``inst.arcs`` alone.  Peel
    every source until none is left; a cycle's witness is the smallest node
    never peeled.  Otherwise build each node's ancestor set by relaxing arcs
    n times, and v fails when one of its proper ancestors does not have
    exactly one child among v and v's ancestors."""
    n = inst.n
    live = set(range(n))
    while True:
        fed = {v for u, v in inst.arcs if u in live}
        sources = live - fed
        if not sources:
            break
        live -= sources
    if live:
        return InstanceViolation("cycle", min(live))
    anc = [{v} for v in range(n)]
    for _ in range(n):
        for u, v in inst.arcs:
            anc[v] |= anc[u]
    for v in range(n):
        for u in sorted(anc[v] - {v}):
            kids_inside = [c for a, c in inst.arcs if a == u and c in anc[v]]
            if len(kids_inside) != 1:
                return InstanceViolation("ancestors-not-in-tree", v)
    return None


def remainder_is_forest(inst: FvspInstance, deleted) -> bool:
    sel = set(deleted)
    parent = list(range(inst.n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in inst.arcs:
        if u in sel or v in sel:
            continue
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def cleanup_brute(inst: FvspInstance, remaining) -> frozenset[int]:
    """Reference ``cleanup_unicyclic`` for remainders whose components have
    at most one cycle.  A node is on a cycle when dropping one of its edges
    leaves that edge's other end reachable from it; each component with such
    a node loses the one of least (remaining descendant weight, id) together
    with its remaining descendants."""
    rem = set(remaining)
    adj: dict[int, set[int]] = {v: set() for v in rem}
    for u, v in inst.arcs:
        if u in rem and v in rem:
            adj[u].add(v)
            adj[v].add(u)

    def reach(s: int, cut: frozenset) -> set[int]:
        seen, todo = {s}, [s]
        while todo:
            x = todo.pop()
            for y in adj[x]:
                if frozenset((x, y)) != cut and y not in seen:
                    seen.add(y)
                    todo.append(y)
        return seen

    def below(v: int) -> set[int]:
        seen, todo = {v}, [v]
        while todo:
            for y in inst.out_adj[todo.pop()]:
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        return seen & rem

    removed: set[int] = set()
    done: set[int] = set()
    for v in sorted(rem):
        if v in done:
            continue
        comp = reach(v, frozenset())
        done |= comp
        on_cycle = [
            x for x in comp if any(y in reach(x, frozenset((x, y))) for y in adj[x])
        ]
        if on_cycle:
            _, x = min(
                (sum(inst.weights[d] for d in sorted(below(x))), x) for x in on_cycle
            )
            removed |= below(x)
    return frozenset(removed)


@dataclass(frozen=True)
class FullLp:
    """The paper's full FVSP LP.  Column layout: z of every node, then
    x_tail, x_head of every arc in turn; one equality row per arc."""

    c: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray


def build_lp_loop(inst: FvspInstance) -> FullLp:
    """The paper's full LP, filled arc by arc: a z column for every node and
    both orientation columns for every arc, with nothing peeled or
    eliminated."""
    n, m = inst.n, inst.m
    nv = n + 2 * m
    c = np.zeros(nv)
    c[:n] = inst.weights
    a_eq = np.zeros((m, nv))
    b_eq = np.ones(m)
    a_ub = np.zeros((n + m, nv))
    b_ub = np.ones(n + m)
    for j, (u, v) in enumerate(inst.arcs):
        a_eq[j, v] = 1.0
        a_eq[j, n + 2 * j] = 1.0
        a_eq[j, n + 2 * j + 1] = 1.0
        a_ub[u, n + 2 * j] += 1.0
        a_ub[v, n + 2 * j + 1] += 1.0
        # precedence row: z_u - z_v <= 0
        a_ub[n + j, u] = 1.0
        a_ub[n + j, v] = -1.0
        b_ub[n + j] = 0.0
    for v in range(n):
        a_ub[v, v] = 1.0
    return FullLp(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub)


def derandomize_every_theta(inst: FvspInstance, lp: FvspLpSolution) -> FvspSolution:
    """Reference ``derandomize``: rounds and cleans up at every candidate."""
    best = None
    for theta in theta_candidates(inst, lp):
        outcome = round_at(inst, lp, theta)
        extra = cleanup_unicyclic(inst, set(range(inst.n)) - outcome.deleted)
        total = tuple(sorted(outcome.deleted | extra))
        key = (inst.weight_of(total), total, theta)
        if best is None or key < best[0]:
            best = (key, outcome, extra)
    (weight, deleted, theta), outcome, extra = best
    return FvspSolution(
        deleted=deleted,
        weight=weight,
        theta=theta,
        stage_weights={
            "step1": inst.weight_of(outcome.step1),
            "step3": inst.weight_of(outcome.step3),
            "cleanup": inst.weight_of(extra),
        },
        lp_value=lp.objective,
    )


def exact_fvsp_by_ideals(inst: FvspInstance) -> tuple[float, frozenset[int]]:
    """Literal reference: scan every downward-closed set."""
    best = None
    for sel in downward_closed_sets(inst):
        if not remainder_is_forest(inst, sel):
            continue
        w = sum(inst.weights[v] for v in sel)
        key = (w, tuple(sorted(sel)))
        if best is None or key < best[:2]:
            best = (w, key[1], sel)
    assert best is not None
    return float(best[0]), best[2]


# ---------------------------------------------------------------------------
# ICD comparison, closure and cycle structure


def icd_equivalent(a: InterCliqueDigraph, b: InterCliqueDigraph) -> bool:
    """Equality of ICDs with cliques as node identities (map comparison, not
    graph isomorphism)."""
    if set(a.cliques) != set(b.cliques):
        return False
    if set(a.max_cliques) != set(b.max_cliques):
        return False
    arcs_a = {(a.cliques[p], a.cliques[c]) for p, c in a.arcs}
    arcs_b = {(b.cliques[p], b.cliques[c]) for p, c in b.arcs}
    if arcs_a != arcs_b:
        return False
    srcs_a = {
        a.cliques[i]: frozenset(a.max_cliques[m] for m in s)
        for i, s in enumerate(a.src_sets)
    }
    srcs_b = {
        b.cliques[i]: frozenset(b.max_cliques[m] for m in s)
        for i, s in enumerate(b.src_sets)
    }
    if srcs_a != srcs_b:
        return False
    phi_a = {v: a.cliques[x] for v, x in enumerate(a.phi)}
    phi_b = {v: b.cliques[x] for v, x in enumerate(b.phi)}
    if phi_a != phi_b:
        return False
    wts_a = {a.cliques[i]: w for i, w in enumerate(a.node_weights)}
    wts_b = {b.cliques[i]: w for i, w in enumerate(b.node_weights)}
    return wts_a == wts_b


def subset_intersections(n: int, max_cliques: Iterable[VertexSet]) -> set[VertexSet]:
    """The nonempty intersections of every nonempty subset of the maximal
    cliques, by a DP over all 2^k subsets: drop the lowest clique index and
    intersect it back in."""
    masks = [sum(1 << v for v in c) for c in max_cliques]
    inter = [(1 << n) - 1] + [0] * ((1 << len(masks)) - 1)
    for sub in range(1, 1 << len(masks)):
        low = sub & -sub
        inter[sub] = inter[sub ^ low] & masks[low.bit_length() - 1]
    return {tuple(_bits_to_list(m)) for m in inter[1:] if m}


def close_sources(seeds: list[int]) -> set[int]:
    """Close source masks under nonempty pairwise intersection, intersecting
    only the previous round's new sets with the family (every other pair met
    in an earlier round)."""
    family = set(seeds)
    old: list[int] = []
    new = list(family)
    while new:
        fresh = {
            a & b
            for i, a in enumerate(new)
            for b in itertools.chain(old, new[i + 1 :])
        }
        old += new
        new = list(fresh - family - {0})
        family.update(new)
    return family


def parents(icd: InterCliqueDigraph) -> tuple[tuple[int, ...], ...]:
    out: list[list[int]] = [[] for _ in range(icd.n_nodes)]
    for p, c in icd.arcs:
        out[c].append(p)
    return tuple(tuple(sorted(ps)) for ps in out)


def children(icd: InterCliqueDigraph) -> tuple[tuple[int, ...], ...]:
    out: list[list[int]] = [[] for _ in range(icd.n_nodes)]
    for p, c in icd.arcs:
        out[p].append(c)
    return tuple(tuple(sorted(cs)) for cs in out)


def _reach(adj, x: int, include_self: bool) -> frozenset[int]:
    seen = {x}
    stack = [x]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if not include_self:
        seen.discard(x)
    return frozenset(seen)


def descendants(
    icd: InterCliqueDigraph, x: int, include_self: bool = True
) -> frozenset[int]:
    return _reach(children(icd), x, include_self)


def ancestors(
    icd: InterCliqueDigraph, x: int, include_self: bool = True
) -> frozenset[int]:
    return _reach(parents(icd), x, include_self)


def closure(icd: InterCliqueDigraph, seeds: Iterable[int]) -> frozenset[int]:
    """Least superset of ``seeds`` absorbing (a) every zero-weight descendant
    of a member and (b) every node with empty preimage whose immediate
    descendants are all absorbed."""
    closed = set(seeds)
    kids_of = children(icd)
    changed = True
    while changed:
        changed = False
        for x in list(closed):
            for d in descendants(icd, x, include_self=False):
                if d not in closed and icd.node_weights[d] == 0.0:
                    closed.add(d)
                    changed = True
        for x in range(icd.n_nodes):
            if x in closed or icd.phi_inv[x]:
                continue
            kids = kids_of[x]
            if kids and all(c in closed for c in kids):
                closed.add(x)
                changed = True
    return frozenset(closed)


def icd_cycles(icd) -> list[list[int]]:
    """All simple undirected cycles of an ICD (small inputs only), each as a
    closed node sequence without the repeated endpoint."""
    edges = sorted((min(p, c), max(p, c)) for p, c in icd.arcs)
    adj: dict[int, list[int]] = {v: [] for v in range(icd.n_nodes)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    cycles = []
    for start in range(icd.n_nodes):
        stack = [(start, [start])]
        while stack:
            u, path = stack.pop()
            for w in adj[u]:
                if w == start and len(path) >= 3 and path[1] < path[-1]:
                    cycles.append(path)
                elif w not in path and w > start:
                    stack.append((w, path + [w]))
    return cycles


def segment_length(icd, cycle: list[int]) -> int:
    """Number of maximal directed runs along an undirected cycle."""
    arcs = set(icd.arcs)
    k = len(cycle)
    dirs = []
    for i in range(k):
        a, b = cycle[i], cycle[(i + 1) % k]
        dirs.append((a, b) in arcs)  # True: forward orientation
    changes = sum(1 for i in range(k) if dirs[i] != dirs[i - 1])
    return changes if changes else 1  # directed cycles cannot occur in a DAG
