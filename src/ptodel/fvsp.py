"""Feedback vertex set with precedence constraints (FVSP).

Instances are acyclic digraphs with nonnegative node weights in which, for
every node v, the subgraph induced by the ancestors of v (plus v) is an
in-tree rooted at v.  A feasible solution is a downward-closed node set whose
removal leaves an undirected forest; this module computes one of weight at
most 63 times the optimum.

The solver relaxes the problem to a linear program with a deletion variable
z_v per node and a pair of orientation variables per arc.  Any optimum will
do, so the LP is solved only on the instance's kernel: nodes with at most one
neighbour are peeled down to the 2-core, kernel sources get no z column, and
each arc's equality row eliminates its head variable, so only inequality rows
remain.  The kernel optimum lifts back exactly to an optimum of the full LP,
which is checked row by row against ``LP_RESIDUAL_TOL``, the module's one
tolerance.  The solver then derandomizes a threshold rounding that compares
exactly: candidate thresholds are the arc breakpoints inside [ALPHA, BETA]
plus midpoints, every candidate is rounded and cleaned up, and the cheapest
outcome wins.  After rounding, each remaining component contains at most
one cycle.  The cleanup finds it with the same 2-core peel as the LP kernel
and breaks it at the lightest closure, comparing weights exactly.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.optimize import linprog

from .graphs import (
    MAX_WEIGHT, StageError, _bits_to_list, _mask_of, checked_ids, read_records, union_find
)

LP_RESIDUAL_TOL = 1e-8


class FvspFormatError(ValueError):
    """Raised when an instance text file cannot be parsed."""


@dataclass(frozen=True)
class InstanceViolation:
    kind: str  # "cycle" | "ancestors-not-in-tree"
    node: int

    def __str__(self) -> str:
        return f"{self.kind} at node {self.node}"


@dataclass(frozen=True)
class FvspInstance:
    """Weighted digraph; acyclicity and the ancestor in-tree property are
    checked by validate_instance, not by the constructor."""

    n: int
    arcs: tuple[tuple[int, int], ...]
    weights: tuple[float, ...]

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]], weights: Iterable[float]):
        if n < 0:
            raise ValueError("node count must be nonnegative")
        arc_set = set()
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-arc at node {u}")
            arc_set.add((u, v))
        w = tuple(float(x) for x in weights)
        if len(w) != n:
            raise ValueError("weights length must equal node count")
        if not all(math.isfinite(x) and x >= 0 for x in w):
            raise ValueError("node weights must be finite and nonnegative")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arcs", tuple(sorted(arc_set)))
        object.__setattr__(self, "weights", w)

    @property
    def m(self) -> int:
        return len(self.arcs)

    @cached_property
    def out_adj(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            out[u].append(v)
        return tuple(tuple(sorted(vs)) for vs in out)

    @cached_property
    def _kahn_order(self) -> tuple[int, ...]:
        """Smallest-id-first Kahn order; it misses every node on or below a cycle."""
        indeg = Counter(v for _, v in self.arcs)
        ready = [v for v in range(self.n) if not indeg[v]]  # sorted, so a heap
        order: list[int] = []
        while ready:
            v = heappop(ready)
            order.append(v)
            for w in self.out_adj[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heappush(ready, w)
        return tuple(order)

    @property
    def topo_order(self) -> Optional[tuple[int, ...]]:
        """Topological order (smallest-id-first Kahn), or None if cyclic."""
        order = self._kahn_order
        return order if len(order) == self.n else None

    @cached_property
    def des_masks(self) -> tuple[int, ...]:
        """Bitmask of descendants including the node itself (acyclic only)."""
        order = self.topo_order
        assert order is not None, "descendant masks need an acyclic digraph"
        masks = [0] * self.n
        for v in reversed(order):
            m = 1 << v
            for w in self.out_adj[v]:
                m |= masks[w]
            masks[v] = m
        return tuple(masks)

    @cached_property
    def violation(self) -> Optional[InstanceViolation]:
        """The verdict validate_instance returns, computed once."""
        if self.topo_order is None:
            unreached = set(range(self.n)).difference(self._kahn_order)
            return InstanceViolation("cycle", min(unreached))
        # the ancestors of v fail to be an in-tree exactly when some node has
        # two children that both reach v
        des, bad = self.des_masks, 0
        for kids in self.out_adj:
            below = 0
            for c in kids:
                bad |= below & des[c]
                below |= des[c]
        if bad:
            return InstanceViolation("ancestors-not-in-tree", (bad & -bad).bit_length() - 1)
        return None

    def weight_of(self, nodes: Iterable[int]) -> float:
        return float(sum(self.weights[v] for v in checked_ids(sorted(nodes), self.n)))


def validate_instance(inst: FvspInstance) -> Optional[InstanceViolation]:
    """None if the instance is a legal input (acyclic, every ancestor set an
    in-tree); otherwise the violation at the smallest node that lies on or
    below a cycle or, if there is none, whose ancestors are not an in-tree.
    The verdict is cached on the instance, so a second call is a lookup."""
    return inst.violation


# ---------------------------------------------------------------------------
# text format: `d <n> <m>`, `n <id> <weight>`, `a <u> <v>`, `#` comments


def parse_instance(text: str) -> FvspInstance:
    """Parse the FVSP instance text format; nodes without an ``n`` line
    default to weight 1.0, and no node may weigh more than MAX_WEIGHT.  The
    cap is checked here, not by the constructor, because an instance
    ``pipeline.reduce_to_fvsp`` builds sums a clique's vertex weights into one
    node."""
    inst = read_records(text, "dna", ("node", "arcs"), FvspFormatError, FvspInstance)
    if max(inst.weights, default=0.0) > MAX_WEIGHT:
        raise FvspFormatError(f"node weights must be at most {MAX_WEIGHT:g}")
    return inst


def format_instance(inst: FvspInstance) -> str:
    lines = [f"d {inst.n} {inst.m}"]
    lines += [f"n {v} {inst.weights[v]!r}" for v in range(inst.n)]
    lines += [f"a {u} {v}" for u, v in inst.arcs]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# rounding constants
#
# Rounding with (eps, alpha, beta) costs at most 1/eps + 2/(beta - alpha) + 1
# times the optimum whenever 2*alpha >= 1 + eps and 3*(1 - beta) >= 1 + 8*eps.
# Over every triple that meets both, that factor is at least
# 1/eps + 12/(1 - 19*eps) + 1, whose least value is 62.19934 at
# eps = 0.0293258.  These literals meet both constraints, compared exactly,
# with 1e-7 to spare, and prove 62.19939.
EPSILON = 0.0293258
ALPHA = 0.514663
BETA = 0.5884645


# ---------------------------------------------------------------------------
# LP model


def _peel(
    n: int, arcs: Sequence[tuple[int, int]]
) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Remove nodes with at most one live neighbour in the underlying graph
    of ``arcs`` on nodes 0..n-1 until none is left; the nodes that stay form
    the 2-core.  Returns the indices of the arcs inside the core and, in peel
    order, each removed node that still had a live neighbour, with the arc to
    it (its link).  Every arc outside the core is the link of exactly one
    removed node."""
    inc: list[list[int]] = [[] for _ in range(n)]
    for j, (u, v) in enumerate(arcs):
        inc[u].append(j)
        inc[v].append(j)
    deg = [len(js) for js in inc]
    alive = [True] * n
    stack = [v for v in reversed(range(n)) if deg[v] <= 1]
    peeled: list[tuple[int, int]] = []
    while stack:  # each node is pushed once, when its degree first is <= 1
        p = stack.pop()
        alive[p] = False
        for j in inc[p]:
            q = sum(arcs[j]) - p
            if alive[q]:  # at most one neighbour is still alive
                peeled.append((p, j))
                deg[q] -= 1
                if deg[q] == 1:
                    stack.append(q)
                break
    core = tuple(j for j, (u, v) in enumerate(arcs) if alive[u] and alive[v])
    return core, tuple(peeled)


@dataclass(frozen=True)
class LpModel:
    """The LP over the instance's kernel, in inequality form only.  Column
    layout: z of each node in ``z_nodes`` in turn, then x_tail of each arc in
    ``kernel_arcs`` (arc indices into ``inst.arcs``) in turn.  An arc's
    x_head has no column: its equality row fixes it to 1 - z_head - x_tail.
    ``peeled`` lists removed nodes in peel order with their link arcs, as
    ``_peel`` returns them."""

    inst: FvspInstance
    z_nodes: np.ndarray
    kernel_arcs: np.ndarray
    peeled: tuple[tuple[int, int], ...]
    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray


def build_lp(inst: FvspInstance) -> LpModel:
    """LP relaxation over the kernel.  The full LP has per arc e=(u,v) an
    equality z_v + x_ue + x_ve = 1, per node a capacity z_v + sum of its
    incident x_ve <= 1, per arc the precedence z_u <= z_v, everything boxed
    to [0, 1].  Three reductions keep its optimum value:

    - pendant nodes are peeled down to the 2-core; a pendant head's weight
      moves to its neighbour, because z_p >= z_q on every feasible point and
      z_p = z_q lifts back (see ``solve_lp``);
    - a kernel node with no kernel in-arc (a source) gets no z column: its z
      is the head of no equality row and has coefficient +1 in each
      inequality and in the objective, so z = 0 loses nothing.  Its
      precedence rows go with the column;
    - each equality row eliminates its x_head = 1 - z_v - x_tail.  Node w's
      capacity row becomes (1 - d_in(w)) z_w + (sum of x_tail over its
      out-arcs) - (sum of x_tail over its in-arcs) <= 1 - d_in(w), with
      d_in the kernel in-degree; x_head >= 0 becomes the row
      z_v + x_tail <= 1, and x_head <= 1 follows from the bounds.

    The rows are the capacities of the kernel nodes, then the x_head >= 0
    row of each kernel arc, then the precedence rows.
    """
    core, peeled = _peel(inst.n, inst.arcs)
    weight = list(inst.weights)
    for p, j in peeled:  # p's own pendant heads were moved onto it already
        if inst.arcs[j][1] == p:
            weight[inst.arcs[j][0]] += weight[p]
    kernel_arcs = np.array(core, dtype=np.intp)
    arcs = np.array(inst.arcs, dtype=np.intp).reshape(inst.m, 2)[kernel_arcs]
    tails, heads = arcs[:, 0], arcs[:, 1]
    kernel_nodes = np.unique(arcs)
    z_nodes = np.unique(heads)
    row = np.full(inst.n, -1, dtype=np.intp)
    row[kernel_nodes] = np.arange(len(kernel_nodes))
    col = np.full(inst.n, -1, dtype=np.intp)
    col[z_nodes] = np.arange(len(z_nodes))
    k, m, nk = len(z_nodes), len(core), len(kernel_nodes)
    c = np.zeros(k + m)
    c[:k] = np.array(weight)[z_nodes]
    j = np.arange(m)
    x_tail = k + j
    prec = np.flatnonzero(col[tails] >= 0)  # arcs whose tail has a z column
    a_ub = np.zeros((nk + m + len(prec), k + m))
    b_ub = np.ones(nk + m + len(prec))
    # capacity rows; an arc's tail and head are distinct rows
    d_in = np.bincount(row[heads], minlength=nk)
    a_ub[row[tails], x_tail] = 1.0
    a_ub[row[heads], x_tail] = -1.0
    a_ub[row[z_nodes], np.arange(k)] = 1.0 - d_in[row[z_nodes]]
    b_ub[:nk] = 1.0 - d_in
    # x_head >= 0 rows: z_v + x_tail <= 1
    a_ub[nk + j, col[heads]] = 1.0
    a_ub[nk + j, x_tail] = 1.0
    # precedence rows: z_u - z_v <= 0
    r = nk + m + np.arange(len(prec))
    a_ub[r, col[tails[prec]]] = 1.0
    a_ub[r, col[heads[prec]]] = -1.0
    b_ub[nk + m :] = 0.0
    return LpModel(
        inst=inst, z_nodes=z_nodes, kernel_arcs=kernel_arcs, peeled=peeled,
        c=c, a_ub=a_ub, b_ub=b_ub,
    )


@dataclass(frozen=True)
class FvspLpSolution:
    """Optimal fractional values: ``z`` per node, ``x_tail``/``x_head`` per
    arc."""

    z: tuple[float, ...]
    x_tail: tuple[float, ...]
    x_head: tuple[float, ...]
    objective: float


def solve_lp(model: LpModel) -> FvspLpSolution:
    """Solve the kernel LP to optimality with the HiGHS backend
    (deterministic for a fixed model; no solve when the kernel has no arcs)
    and lift the optimum to an optimum of the full LP.  Source z columns
    are 0.  Peeled nodes are lifted in reverse peel order, each against its
    link arc's other end q, which is settled by then:

    - pendant tail p (arc p->q): z_p = 0, x_tail = 1 - z_q;
    - pendant head p (arc q->p): z_p = z_q, x_tail = 0.

    A node removed without a live neighbour keeps z = 0.  Each arc's x_head
    then comes from its equality row, 1 - z_head - x_tail.

    Raises an ``fvsp`` StageError on solver failure or a full-LP residual
    above ``LP_RESIDUAL_TOL``, the module's one tolerance (the instance itself
    is always feasible: all-z=1 works).  The values are then clipped into
    [0, 1], and the rounding compares them exactly."""
    inst = model.inst
    n, m, k = inst.n, inst.m, len(model.z_nodes)
    arcs = np.array(inst.arcs, dtype=np.intp).reshape(m, 2)
    tails, heads = arcs[:, 0], arcs[:, 1]
    z, x_tail = np.zeros(n), np.zeros(m)
    objective = 0.0
    if len(model.kernel_arcs):
        res = linprog(
            model.c,
            A_ub=model.a_ub,
            b_ub=model.b_ub,
            bounds=(0.0, 1.0),
            method="highs",
        )
        if not res.success:
            raise StageError("fvsp", f"LP solve failed: {res.message}")
        z[model.z_nodes] = res.x[:k]
        x_tail[model.kernel_arcs] = res.x[k:]
        objective = float(res.fun)
    zs, xts = z.tolist(), x_tail.tolist()
    for p, j in reversed(model.peeled):
        u, v = inst.arcs[j]
        if p == u:
            xts[j] = 1.0 - zs[v]
        else:
            zs[p] = zs[u]
    z, x_tail = np.array(zs), np.array(xts)
    x_head = 1.0 - z[heads] - x_tail  # each arc's equality row
    # residual of every row of the full LP, then of the bounds
    load = z + np.bincount(tails, x_tail, n) + np.bincount(heads, x_head, n)
    values = np.concatenate([z, x_tail, x_head])
    resid = max(
        float(np.max(np.abs(z[heads] + x_tail + x_head - 1.0), initial=0.0)),
        float(np.max(z[tails] - z[heads], initial=0.0)),
        float(np.max(load - 1.0, initial=0.0)),
        float(np.max(np.abs(values - 0.5) - 0.5, initial=0.0)),
    )
    if resid > LP_RESIDUAL_TOL:
        raise StageError("fvsp", f"LP residual {resid:.3e} exceeds {LP_RESIDUAL_TOL:.0e}")
    return FvspLpSolution(
        z=tuple(np.clip(z, 0.0, 1.0).tolist()),
        x_tail=tuple(np.clip(x_tail, 0.0, 1.0).tolist()),
        x_head=tuple(np.clip(x_head, 0.0, 1.0).tolist()),
        objective=objective,
    )


# ---------------------------------------------------------------------------
# rounding


@dataclass(frozen=True)
class RoundingOutcome:
    """Result of rounding at one threshold.

    ``step1``: nodes with z above the deletion cutoff; ``step3``: additional
    nodes removed by arc firings (descendant closures); ``pointers`` maps a
    node to the arc indices it points to; ``fired_arcs`` are the arcs whose
    deletion interval contained theta.
    """

    step1: frozenset[int]
    step3: frozenset[int]
    pointers: dict[int, frozenset[int]]
    fired_arcs: frozenset[int]

    @property
    def deleted(self) -> frozenset[int]:
        return self.step1 | self.step3


def _breakpoints(
    inst: FvspInstance, lp: FvspLpSolution
) -> list[tuple[float, float, float]]:
    """Per arc j = (u, v), the rounding's three thresholds: the ends
    xbar - (z_v - z_u) and xbar of its deletion interval, where
    xbar = 1 - x_head[j] is also the head's pointer threshold, and the tail's
    pointer threshold 1 - x_tail[j]."""
    out = []
    for (u, v), xt, xh in zip(inst.arcs, lp.x_tail, lp.x_head):
        xbar = 1.0 - xh
        out.append((xbar - (lp.z[v] - lp.z[u]), xbar, 1.0 - xt))
    return out


def round_at(inst: FvspInstance, lp: FvspLpSolution, theta: float) -> RoundingOutcome:
    """One pass of the threshold rounding at a fixed theta.

    Nodes with z_v >= EPSILON go first (downward-closed by the precedence
    constraint).  Every arc between surviving endpoints is then examined
    against the original LP values: if theta falls in the arc's closed
    deletion interval the head and all its descendants are removed (deletion
    wins at breakpoints); otherwise each endpoint whose threshold is strictly
    exceeded points to the arc.  Every test is exact, so the outcome is the
    same at every theta strictly between two consecutive breakpoints.
    """
    step1_mask = 0
    for v in range(inst.n):
        if lp.z[v] >= EPSILON:
            # precedence makes descendants pass the threshold too, but close
            # explicitly so LP residuals can never break downward closure
            step1_mask |= inst.des_masks[v]
    step3_mask = 0
    pointers: dict[int, set[int]] = {}
    fired: set[int] = set()
    for j, ((u, v), (lo, xbar, tail_cut)) in enumerate(
        zip(inst.arcs, _breakpoints(inst, lp))
    ):
        if (step1_mask >> u) & 1 or (step1_mask >> v) & 1:
            continue
        if lo <= theta <= xbar:
            fired.add(j)
            step3_mask |= inst.des_masks[v]
            continue
        if theta > xbar:
            pointers.setdefault(v, set()).add(j)
        if theta > tail_cut:
            pointers.setdefault(u, set()).add(j)
    step3_mask &= ~step1_mask
    return RoundingOutcome(
        step1=frozenset(_bits_to_list(step1_mask)),
        step3=frozenset(_bits_to_list(step3_mask)),
        pointers={v: frozenset(js) for v, js in pointers.items()},
        fired_arcs=frozenset(fired),
    )


def theta_candidates(inst: FvspInstance, lp: FvspLpSolution) -> tuple[float, ...]:
    """Breakpoints of the rounding inside [ALPHA, BETA] plus midpoints of
    consecutive ones; at most 6m + 3 values."""
    breaks = {ALPHA, BETA}
    for bps in _breakpoints(inst, lp):
        breaks.update(val for val in bps if ALPHA <= val <= BETA)
    ordered = sorted(breaks)
    mids = [(a + b) / 2.0 for a, b in zip(ordered, ordered[1:])]
    return tuple(sorted(set(ordered + mids)))


def cleanup_unicyclic(
    inst: FvspInstance, remaining: Iterable[int]
) -> frozenset[int]:
    """Break the single cycle of every remaining component optimally.

    For each component that still contains a cycle, found by the LP
    kernel's 2-core peel, the cycle vertex whose remaining descendant
    closure is lightest (compared exactly; ties to the smallest id) is
    removed together with that closure.  A component with two or more
    independent cycles trips an ``fvsp`` StageError: the rounding must not
    produce one.
    """
    rem = sorted(set(remaining))
    rem_mask = _mask_of(rem)
    edges = [(u, v) for u, v in inst.arcs if rem_mask >> u & 1 and rem_mask >> v & 1]
    # a component with n_c nodes and k_c closing edges has n_c - 1 + k_c edges
    root, closing = union_find(inst.n, edges)
    cycles = Counter(root[u] for u, _ in closing)
    for v in rem:  # components in order of their smallest node
        if cycles[root[v]] > 1:
            n_c = sum(1 for w in rem if root[w] == root[v])
            raise StageError(
                "fvsp",
                f"remainder component with {n_c} nodes and "
                f"{n_c - 1 + cycles[root[v]]} edges has more than one cycle; "
                "rounding bug"
            )
    # the 2-core of a component with one cycle is that cycle
    best: dict[int, tuple[float, int]] = {}
    for v in {v for j in _peel(inst.n, edges)[0] for v in edges[j]}:
        closure = inst.des_masks[v] & rem_mask
        key = (sum(inst.weights[d] for d in _bits_to_list(closure)), v)
        best[root[v]] = min(best.get(root[v], key), key)
    removed_mask = 0
    for _, v in best.values():
        removed_mask |= inst.des_masks[v] & rem_mask
    return frozenset(_bits_to_list(removed_mask))


@dataclass(frozen=True)
class FvspSolution:
    deleted: tuple[int, ...]
    weight: float
    theta: float
    stage_weights: dict[str, float]
    lp_value: float


def derandomize(inst: FvspInstance, lp: FvspLpSolution) -> FvspSolution:
    """Evaluate rounding plus cleanup at every candidate threshold, cleaning
    up once per distinct rounded set; return the outcome of minimum weight
    (ties: lexicographically smallest deleted set, then smallest theta)."""
    best = None
    all_nodes = set(range(inst.n))
    seen: set[frozenset[int]] = set()
    for theta in theta_candidates(inst, lp):
        outcome = round_at(inst, lp, theta)
        if outcome.deleted in seen:
            # same cleanup, same key but a larger theta: it cannot win
            continue
        seen.add(outcome.deleted)
        extra = cleanup_unicyclic(inst, all_nodes - outcome.deleted)
        total = tuple(sorted(outcome.deleted | extra))
        key = (inst.weight_of(total), total, theta)
        if best is None or key < best[0]:
            best = (key, outcome, extra)
    assert best is not None
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


# ---------------------------------------------------------------------------
# end-to-end solve and verification


@dataclass(frozen=True)
class FvspViolation:
    kind: str  # "not-downward-closed" | "cycle"
    detail: tuple

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


def verify_fvsp_solution(
    inst: FvspInstance, deleted: Iterable[int]
) -> Optional[FvspViolation]:
    """Check downward closure and that the remainder's underlying graph is a
    forest; None when feasible, else the first violation: the least arc
    leaving the set, or the first arc of the remainder that closes a cycle."""
    sel = set(checked_ids(sorted(deleted), inst.n))
    leaving = next(((u, v) for u, v in inst.arcs if u in sel and v not in sel), None)
    if leaving is not None:
        return FvspViolation("not-downward-closed", leaving)
    kept = [(u, v) for u, v in inst.arcs if u not in sel and v not in sel]
    closing = union_find(inst.n, kept)[1]
    return FvspViolation("cycle", closing[0]) if closing else None


def solve_fvsp(inst: FvspInstance) -> FvspSolution:
    """Full pipeline: validate, solve the LP, derandomize the rounding, and
    verify the output.  The result is downward-closed, leaves a forest, and
    weighs at most 1/EPSILON + 2/(BETA - ALPHA) + 1 times the optimum."""
    violation = validate_instance(inst)
    if violation is not None:
        raise StageError("fvsp", f"invalid instance: {violation}")
    sol = derandomize(inst, solve_lp(build_lp(inst)))
    bad = verify_fvsp_solution(inst, sol.deleted)
    if bad is not None:
        raise StageError("fvsp", f"rounded solution infeasible: {bad}")
    return sol


def solution_to_json(sol: FvspSolution) -> dict:
    return {
        "deleted": list(sol.deleted),
        "weight": sol.weight,
        "theta": sol.theta,
        "stages": dict(sol.stage_weights),
    }
