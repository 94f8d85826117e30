"""Inter-clique digraphs: the containment lattice of maximal-clique
intersections.

The nodes of an inter-clique digraph (ICD) are the distinct nonempty
intersections of maximal cliques of a graph; arcs run from each clique to the
maximal proper sub-cliques inside the collection (superset -> subset cover
relation).  A graph is ptolemaic exactly when the underlying undirected graph
of its ICD is a forest, which is what makes this structure the bridge from
vertex deletion to feedback vertex set.

Two constructions are provided.  ``build_icd`` is the polynomial-time
algorithm for (C4, gem)-free inputs and the only one production code uses:
its nodes are the per-vertex source masks (indices of the maximal cliques
containing a vertex) and their ANDs across the edges, and one sweep of each
maximal clique's nodes, which there form a laminar out-tree, gives the arcs
and checks that structure.  ``brute_force_icd`` closes the maximal cliques
under intersection directly; it is the desk-scale oracle behind
``icd --oracle`` and the tests, which validate the fast construction against
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .graphs import (
    BudgetExceededError,
    StageError,
    VertexSet,
    WeightedGraph,
    _bits_to_list,
    _mask_of,
    maximal_cliques,
    union_find,
)


# the most maximal cliques brute_force_icd accepts by default (``icd --oracle``)
ORACLE_CLIQUE_BUDGET = 20


@dataclass(frozen=True)
class InterCliqueDigraph:
    """Hasse diagram of maximal-clique intersections, with vertex bookkeeping.

    ``cliques[i]`` is the vertex set of node i, ``src_sets[i]`` the sorted
    indices into ``max_cliques`` of the maximal cliques containing it.  Arcs
    are sorted (parent, child) pairs with ``cliques[parent] > cliques[child]``.
    ``phi[v]`` maps vertex v to the node of its canonical clique (the unique
    minimal node containing v), and ``vertex_weights`` are the graph's
    weights.  The views ``phi_inv`` (the preimages, which partition the
    vertex set) and ``node_weights`` (``node_weights[i]`` sums the weights of
    ``phi_inv[i]``) are derived on first use.
    """

    cliques: tuple[VertexSet, ...]
    src_sets: tuple[tuple[int, ...], ...]
    arcs: tuple[tuple[int, int], ...]
    max_cliques: tuple[VertexSet, ...]
    phi: tuple[int, ...]
    vertex_weights: tuple[float, ...]

    @property
    def n_nodes(self) -> int:
        return len(self.cliques)

    @cached_property
    def phi_inv(self) -> tuple[VertexSet, ...]:
        inv: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for v, x in enumerate(self.phi):
            inv[x].append(v)
        return tuple(tuple(vs) for vs in inv)

    @cached_property
    def node_weights(self) -> tuple[float, ...]:
        return tuple(
            float(sum(self.vertex_weights[v] for v in vs)) for vs in self.phi_inv
        )

    def underlying_is_forest(self) -> bool:
        return not union_find(self.n_nodes, self.arcs)[1]


# ---------------------------------------------------------------------------
# construction helpers


def _node_sort_key(clique: VertexSet) -> tuple[int, VertexSet]:
    return (-len(clique), clique)


def _clique_forest(
    cliques: Sequence[VertexSet],
    srcs: Sequence[tuple[int, ...]],
    max_cliques: Sequence[VertexSet],
) -> tuple[set[tuple[int, int]], Optional[tuple]]:
    """Visit each maximal clique M's nodes (cliques and source sets, all
    sorted) largest first; a node's parent is the last node seen that holds
    its vertices.  M's family is a laminar out-tree exactly when M's node
    comes first and each later node finds one holder for all its vertices.
    Returns the parent arcs (then the cover relation of all nodes) and None,
    or a witness ``(m, None, None)`` (no node M first) or ``(m, p, x)`` (p,
    the holder of x's lowest vertex, does not hold all of x)."""
    members: list[list[int]] = [[] for _ in max_cliques]
    for x in sorted(range(len(cliques)), key=lambda i: -len(cliques[i])):
        for m in srcs[x]:
            members[m].append(x)
    arcs: set[tuple[int, int]] = set()
    for m, family in enumerate(members):
        if not family or cliques[family[0]] != max_cliques[m]:
            return arcs, (m, None, None)
        holder = dict.fromkeys(max_cliques[m], family[0])
        for x in family[1:]:
            vs = cliques[x]
            p = holder.get(vs[0])
            if p is None or any(holder.get(v) != p for v in vs):
                return arcs, (m, p, x)
            arcs.add((p, x))
            holder.update(dict.fromkeys(vs, x))
    return arcs, None


def build_icd(g: WeightedGraph) -> InterCliqueDigraph:
    """Polynomial-time ICD construction for (C4, gem)-free graphs.

    A node's source mask is the AND of its vertices' masks (the maximal
    cliques holding all of them), so the nodes are the closure of the
    per-vertex masks under nonzero AND.  Two vertices' masks meet exactly
    when the vertices are adjacent, so one round of that closure is the
    vertex masks plus one AND per edge.  One round reaches every node when
    each maximal clique's nodes form a laminar family, as they do on
    (C4, gem)-free input (Uehara and Uno 2005): for a clique S, laminarity
    puts all of S into the largest node K_uv over pairs u, v of S, so
    K_S = K_uv.  The per-clique sweep that reads the arcs checks that
    laminarity, so when it passes, the family is the whole closure.

    Each source mask is materialized as the intersection of its maximal
    cliques; ``phi`` reads each vertex's mask.  Structural guards (more than
    n^2 maximal cliques, equal cliques, a family that is not a laminar
    out-tree) raise a ``reduce`` StageError; they mean the precondition failed.
    """
    n = g.n
    mc = tuple(maximal_cliques(g, n * n))
    if len(mc) > n * n:
        raise StageError(
            "reduce",
            f"more than {n * n} maximal cliques on {n} vertices; input is not C4-free"
        )
    mc_masks = [_mask_of(c) for c in mc]
    vertex_src = [0] * n
    for i, c in enumerate(mc):
        for v in c:
            vertex_src[v] |= 1 << i
    src_family = set(vertex_src) | {vertex_src[u] & vertex_src[v] for u, v in g.edges}

    # (clique, source set, source mask) per node, each list made once
    nodes = []
    for s in src_family:
        src = tuple(_bits_to_list(s))
        cm = (1 << n) - 1
        for i in src:
            cm &= mc_masks[i]
        nodes.append((tuple(_bits_to_list(cm)), src, s))
    nodes.sort(key=lambda node: _node_sort_key(node[0]))
    cliques = tuple(c for c, _, _ in nodes)
    if len(set(cliques)) != len(nodes):
        raise StageError("reduce", "distinct source sets produced equal cliques")

    src_sets = tuple(src for _, src, _ in nodes)
    arcs, witness = _clique_forest(cliques, src_sets, mc)
    if witness is not None:
        raise StageError(
            "reduce",
            f"per-maximal-clique family is not an out-tree: {witness}; "
            "input is not (C4, gem)-free"
        )
    src_index = {s: i for i, (_, _, s) in enumerate(nodes)}
    phi = tuple(src_index[s] for s in vertex_src)
    return InterCliqueDigraph(
        cliques, src_sets, tuple(sorted(arcs)), mc, phi, g.weights
    )


def brute_force_icd(
    g: WeightedGraph, max_clique_budget: int = ORACLE_CLIQUE_BUDGET
) -> InterCliqueDigraph:
    """Oracle ICD construction by direct enumeration.

    Collects the distinct nonempty intersections of the maximal cliques by
    closing them under pairwise intersection, and takes the cover relation of
    set containment.  No structural assumption on the input; refuses inputs
    with more maximal cliques than the budget, which must be positive, as
    soon as the enumeration finds one clique over it.
    """
    if max_clique_budget < 1:
        raise ValueError("budget must be positive")
    n = g.n
    mc = tuple(maximal_cliques(g, max_clique_budget))
    if len(mc) > max_clique_budget:
        raise BudgetExceededError(
            f"more than {max_clique_budget} maximal cliques on {n} vertices "
            "exceeds the oracle budget"
        )
    mc_masks = [_mask_of(c) for c in mc]

    distinct = set(mc_masks)
    frontier = set(mc_masks)
    while frontier:
        fresh: set[int] = set()
        for a in frontier:
            for mm in mc_masks:
                c = a & mm
                if c and c not in distinct:
                    fresh.add(c)
        distinct |= fresh
        frontier = fresh

    cliques = sorted((tuple(_bits_to_list(cm)) for cm in distinct), key=_node_sort_key)
    clique_masks = [_mask_of(c) for c in cliques]
    src_sets = tuple(
        tuple(i for i, mm in enumerate(mc_masks) if cm & mm == cm) for cm in clique_masks
    )

    greater: list[list[int]] = []
    for j, cj in enumerate(clique_masks):
        ups = [
            i
            for i, ci in enumerate(clique_masks)
            if ci != cj and ci & cj == cj
        ]
        greater.append(ups)
    # here 'greater' means proper superset cliques; minimal ones are covers
    arcs = []
    for j, ups in enumerate(greater):
        for i in ups:
            if not any(
                k != i
                and clique_masks[k] & clique_masks[i] == clique_masks[k]
                for k in ups
            ):
                arcs.append((i, j))

    clique_index = {cm: i for i, cm in enumerate(clique_masks)}
    phi: list[int] = []
    for v in range(n):
        cm = (1 << n) - 1
        hit = False
        for mm in mc_masks:
            if (mm >> v) & 1:
                cm &= mm
                hit = True
        assert hit, "every vertex lies in some maximal clique"
        phi.append(clique_index[cm])

    return InterCliqueDigraph(
        tuple(cliques), src_sets, tuple(sorted(arcs)), mc, tuple(phi), g.weights
    )


# ---------------------------------------------------------------------------
# structural validators


def check_laminar_out_trees(
    icd: InterCliqueDigraph,
) -> tuple[bool, Optional[tuple]]:
    """For every maximal clique M, the nodes inside M must form a laminar
    out-tree rooted at M's node, and the arcs must be exactly those trees'
    arcs.  Returns (True, None) or (False, witness): ``_clique_forest``'s, or
    ``(None, p, c)`` for the least arc found on one side only."""
    arcs, witness = _clique_forest(icd.cliques, icd.src_sets, icd.max_cliques)
    if witness is None and sorted(icd.arcs) != sorted(arcs):
        witness = (None, *min(set(icd.arcs) ^ arcs, default=(None, None)))
    return witness is None, witness


def is_ptolemaic_via_icd(g: WeightedGraph) -> bool:
    """Ptolemaic test through the clique lattice: the underlying graph of the
    ICD must be a forest.  Every ptolemaic graph is (C4, gem)-free, where
    ``build_icd`` never raises, so a structural error is a False verdict."""
    try:
        return build_icd(g).underlying_is_forest()
    except StageError:
        return False


# ---------------------------------------------------------------------------
# export


def dump_icd(icd: InterCliqueDigraph) -> str:
    lines = []
    for i in range(icd.n_nodes):
        clique = ",".join(str(v) for v in icd.cliques[i])
        src = ",".join(str(m) for m in icd.src_sets[i])
        inv = ",".join(str(v) for v in icd.phi_inv[i])
        lines.append(
            f"node {i} clique={clique} src={src} w={icd.node_weights[i]!r} phiInv={inv}"
        )
    for p, c in icd.arcs:
        lines.append(f"arc {p} {c}")
    return "\n".join(lines) + "\n"


def icd_to_dot(icd: InterCliqueDigraph) -> str:
    lines = ["digraph icd {"]
    for i in range(icd.n_nodes):
        label = "{" + ",".join(str(v) for v in icd.cliques[i]) + "}"
        lines.append(f'  n{i} [label="{label}\\nw={icd.node_weights[i]:g}"];')
    for p, c in icd.arcs:
        lines.append(f"  n{p} -> n{c};")
    lines.append("}")
    return "\n".join(lines) + "\n"
