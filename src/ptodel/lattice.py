"""Inter-clique digraphs: the containment lattice of maximal-clique
intersections.

The nodes of an inter-clique digraph (ICD) are the distinct nonempty
intersections of maximal cliques of a graph; arcs run from each clique to the
maximal proper sub-cliques inside the collection (superset -> subset cover
relation).  A graph is ptolemaic exactly when the underlying undirected graph
of its ICD is a forest, which is what makes this structure the bridge from
vertex deletion to feedback vertex set.

Two constructions are provided.  ``build_icd`` is the polynomial-time
algorithm for (C4, gem)-free inputs: it seeds with the true-twin classes,
closes the family of their source sets (indices of maximal cliques containing
a clique) under pairwise intersection, and reads the arcs off the reversed
containment of source sets.  ``brute_force_icd`` enumerates subsets of the
maximal cliques directly and is the desk-scale oracle the fast construction
is validated against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .fvsp import FvspInstance, validate_instance
from .graphs import (
    CliqueGuardError,
    VertexSet,
    WeightedGraph,
    _bits_to_list,
    _mask_of,
    maximal_cliques,
    twin_classes,
    union_find,
)


_SUBSET_DP_LIMIT = 13  # above this many maximal cliques, enumerate by closure


class IcdStructureError(RuntimeError):
    """Structural guard tripped while building an ICD; the (C4, gem)-free
    precondition was most likely violated."""


class BruteForceBudgetError(ValueError):
    """Input has too many maximal cliques for the brute-force oracle."""


@dataclass(frozen=True)
class InterCliqueDigraph:
    """Hasse diagram of maximal-clique intersections, with vertex bookkeeping.

    ``cliques[i]`` is the vertex set of node i, ``src_sets[i]`` the sorted
    indices into ``max_cliques`` of the maximal cliques containing it.  Arcs
    are (parent, child) pairs with ``cliques[parent] > cliques[child]``.
    ``phi[v]`` maps vertex v to the node of its canonical clique (the unique
    minimal node containing v); ``phi_inv`` are the preimages, which partition
    the vertex set; ``node_weights[i]`` sums the graph weights of
    ``phi_inv[i]``.
    """

    cliques: tuple[VertexSet, ...]
    src_sets: tuple[tuple[int, ...], ...]
    arcs: tuple[tuple[int, int], ...]
    max_cliques: tuple[VertexSet, ...]
    phi: tuple[int, ...]
    phi_inv: tuple[VertexSet, ...]
    node_weights: tuple[float, ...]

    @property
    def n_nodes(self) -> int:
        return len(self.cliques)

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for p, c in self.arcs:
            out[p].append(c)
        return tuple(tuple(sorted(cs)) for cs in out)

    @cached_property
    def parents(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for p, c in self.arcs:
            out[c].append(p)
        return tuple(tuple(sorted(ps)) for ps in out)

    def descendants(self, x: int, include_self: bool = True) -> frozenset[int]:
        seen = {x}
        stack = [x]
        while stack:
            for c in self.children[stack.pop()]:
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        if not include_self:
            seen.discard(x)
        return frozenset(seen)

    def ancestors(self, x: int, include_self: bool = True) -> frozenset[int]:
        seen = {x}
        stack = [x]
        while stack:
            for p in self.parents[stack.pop()]:
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        if not include_self:
            seen.discard(x)
        return frozenset(seen)

    @cached_property
    def underlying_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted((min(p, c), max(p, c)) for p, c in self.arcs))

    def underlying_is_forest(self) -> bool:
        return not union_find(self.n_nodes, self.underlying_edges)[1]

    def weight_of(self, nodes: Iterable[int]) -> float:
        return float(sum(self.node_weights[x] for x in nodes))


# ---------------------------------------------------------------------------
# construction helpers


def _assemble(
    g: WeightedGraph,
    max_cliques_list: list[VertexSet],
    node_pairs: list[tuple[int, int]],
    arcs: list[tuple[int, int]],
    phi: list[int],
) -> InterCliqueDigraph:
    """Package nodes (clique_mask, src_mask pairs, already ordered), arcs and
    phi into the frozen structure."""
    cliques = tuple(tuple(_bits_to_list(cm)) for cm, _ in node_pairs)
    src_sets = tuple(tuple(_bits_to_list(sm)) for _, sm in node_pairs)
    inv: list[list[int]] = [[] for _ in node_pairs]
    for v, x in enumerate(phi):
        inv[x].append(v)
    phi_inv = tuple(tuple(vs) for vs in inv)
    weights = tuple(float(sum(g.weights[v] for v in vs)) for vs in phi_inv)
    return InterCliqueDigraph(
        cliques=cliques,
        src_sets=src_sets,
        arcs=tuple(sorted(arcs)),
        max_cliques=tuple(max_cliques_list),
        phi=tuple(phi),
        phi_inv=phi_inv,
        node_weights=weights,
    )


def _node_sort_key(pair: tuple[int, int]) -> tuple[int, tuple[int, ...]]:
    clique_mask, _ = pair
    return (-bin(clique_mask).count("1"), tuple(_bits_to_list(clique_mask)))


def _cover_arcs(keys: list[int], greater: list[list[int]]) -> list[tuple[int, int]]:
    """Cover pairs (i, j) of the strict order 'keys[i] proper subset of
    keys[j]'; ``greater[j]`` lists all i strictly below j in that order."""
    arcs = []
    for j, ups in enumerate(greater):
        for i in ups:
            # i covers j unless some k sits strictly between: keys[i] < keys[k]
            if not any(
                k != i and keys[i] & keys[k] == keys[i] and keys[i] != keys[k]
                for k in ups
            ):
                arcs.append((i, j))
    return arcs


def build_icd(g: WeightedGraph) -> InterCliqueDigraph:
    """Polynomial-time ICD construction for (C4, gem)-free graphs.

    Seeds with the source sets of the true-twin classes, closes under
    pairwise intersection (discarding empty ones) until a fixpoint, then
    materializes each source set as a node whose clique is the intersection
    of its maximal cliques.  Structural guards (node count above 2n^3,
    fixpoint not reached within n rounds, a non-laminar per-maximal-clique
    family) raise IcdStructureError; they indicate the precondition failed.
    """
    n = g.n
    try:
        mc = maximal_cliques(g, c4_free=True)
    except CliqueGuardError as exc:
        raise IcdStructureError(str(exc)) from exc
    mc_masks = [_mask_of(c) for c in mc]
    node_bound = max(2 * n * n * n, 1)

    src_family: set[int] = set()
    for cls in twin_classes(g):
        cmask = _mask_of(cls)
        smask = 0
        for i, mm in enumerate(mc_masks):
            if cmask & mm == cmask:
                smask |= 1 << i
        src_family.add(smask)

    rounds = 0
    while True:
        fresh: set[int] = set()
        family = sorted(src_family)
        for i, a in enumerate(family):
            for b in family[i + 1 :]:
                c = a & b
                if c and c not in src_family:
                    fresh.add(c)
        if not fresh:
            break
        src_family |= fresh
        rounds += 1
        if len(src_family) > node_bound:
            raise IcdStructureError(
                f"{len(src_family)} clique-intersection nodes exceeds the "
                f"2n^3 = {node_bound} bound; input is not (C4, gem)-free"
            )
        if rounds > n + 1:
            raise IcdStructureError(
                "source-set closure did not stabilize within the height "
                "bound; input is not (C4, gem)-free"
            )

    def clique_of(smask: int) -> int:
        cm = (1 << n) - 1
        for i in _bits_to_list(smask):
            cm &= mc_masks[i]
        return cm

    node_pairs = sorted(
        ((clique_of(s), s) for s in src_family), key=_node_sort_key
    )
    if len({cm for cm, _ in node_pairs}) != len(node_pairs):
        raise IcdStructureError("distinct source sets produced equal cliques")

    # arcs: reversal of the source-set containment order
    src_masks = [s for _, s in node_pairs]
    greater: list[list[int]] = []
    for j, sj in enumerate(src_masks):
        ups = [
            i
            for i, si in enumerate(src_masks)
            if si != sj and si & sj == si
        ]
        greater.append(ups)
    arcs = _cover_arcs(src_masks, greater)

    src_index = {s: i for i, (_, s) in enumerate(node_pairs)}
    phi: list[int] = []
    for v in range(n):
        smask = 0
        for i, mm in enumerate(mc_masks):
            if (mm >> v) & 1:
                smask |= 1 << i
        x = src_index.get(smask)
        if x is None:
            raise IcdStructureError(f"no node carries the source set of vertex {v}")
        phi.append(x)

    icd = _assemble(g, mc, node_pairs, arcs, phi)
    ok, witness = check_laminar_out_trees(icd)
    if not ok:
        raise IcdStructureError(
            f"per-maximal-clique family is not an out-tree: {witness}; "
            "input is not (C4, gem)-free"
        )
    return icd


def brute_force_icd(g: WeightedGraph, max_clique_budget: int = 20) -> InterCliqueDigraph:
    """Oracle ICD construction by direct enumeration.

    Collects the distinct nonempty intersections over all subsets of the
    maximal cliques and takes the cover relation of set containment.  No
    structural assumption on the input; refuses inputs with more maximal
    cliques than the budget.
    """
    n = g.n
    mc = maximal_cliques(g)
    k = len(mc)
    if k > max_clique_budget:
        raise BruteForceBudgetError(
            f"{k} maximal cliques exceeds the oracle budget {max_clique_budget}"
        )
    mc_masks = [_mask_of(c) for c in mc]

    distinct: set[int] = set()
    if k and k <= _SUBSET_DP_LIMIT:
        # subset DP: drop the lowest clique index, intersect it back in
        inter = [0] * (1 << k)
        inter[0] = (1 << n) - 1
        for mask in range(1, 1 << k):
            low = mask & -mask
            inter[mask] = inter[mask ^ low] & mc_masks[low.bit_length() - 1]
        distinct = set(inter[1:]) - {0}
    elif k:
        # pairwise closure reaches the same family without 2^k storage
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

    def src_of(cmask: int) -> int:
        s = 0
        for i, mm in enumerate(mc_masks):
            if cmask & mm == cmask:
                s |= 1 << i
        return s

    node_pairs = sorted(((cm, src_of(cm)) for cm in distinct), key=_node_sort_key)
    clique_masks = [cm for cm, _ in node_pairs]

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

    return _assemble(g, mc, node_pairs, arcs, phi)


# ---------------------------------------------------------------------------
# structural validators


def check_laminar_out_trees(
    icd: InterCliqueDigraph,
) -> tuple[bool, Optional[tuple]]:
    """For every maximal clique M, the nodes contained in M must form a
    laminar family and induce an out-tree rooted at M's node.

    Returns (True, None) or (False, witness); the witness names the maximal
    clique index and the offending node pair or node.
    """
    masks = [_mask_of(c) for c in icd.cliques]
    for m_idx in range(len(icd.max_cliques)):
        members = [i for i, s in enumerate(icd.src_sets) if m_idx in s]
        for a_pos, a in enumerate(members):
            for b in members[a_pos + 1 :]:
                inter = masks[a] & masks[b]
                if inter and inter != masks[a] and inter != masks[b]:
                    return False, (m_idx, a, b)
        roots = [
            i for i in members if icd.cliques[i] == icd.max_cliques[m_idx]
        ]
        if len(roots) != 1:
            return False, (m_idx, None, None)
        root = roots[0]
        member_set = set(members)
        indeg = {i: 0 for i in members}
        for p, c in icd.arcs:
            if p in member_set and c in member_set:
                indeg[c] += 1
        for i in members:
            want = 0 if i == root else 1
            if indeg[i] != want:
                return False, (m_idx, i, None)
        reach = icd.descendants(root) & member_set
        if len(reach) != len(members):
            return False, (m_idx, None, None)
    return True, None


def check_anc_in_trees(icd: InterCliqueDigraph) -> tuple[bool, Optional[int]]:
    """True iff for every node v the subdigraph induced by its ancestors
    (plus v) is an in-tree rooted at v; otherwise returns the first v whose
    ancestor set violates it.  The check is ``fvsp.validate_instance``'s."""
    bad = validate_instance(FvspInstance(icd.n_nodes, icd.arcs, icd.node_weights))
    return (True, None) if bad is None else (False, bad.node)


def is_ptolemaic_via_icd(g: WeightedGraph, max_clique_budget: int = 20) -> bool:
    """Ptolemaic test through the clique lattice: the underlying graph of the
    ICD must be a forest."""
    if len(maximal_cliques(g)) <= max_clique_budget:
        icd = brute_force_icd(g, max_clique_budget)
    else:
        icd = build_icd(g)
    return icd.underlying_is_forest()


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
