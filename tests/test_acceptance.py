"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The corpora are shared
across criteria through module-scoped fixtures: criterion 2's lattice pairs
feed the structural and ratio checks of criteria 4 and 5, and criterion 6's
weighted graphs feed the hitting-stage bound of criterion 8.
"""

import math
import random

import pytest

from generators import random_c4gem_free, random_graph, random_multitree
from helpers_brute import (
    all_graph_masks,
    children,
    closure,
    graph_from_mask,
    icd_equivalent,
    is_connected,
    remainder_is_forest,
)
from ptodel.fixtures import cycle_graph
from ptodel.fvsp import (
    ALPHA,
    BETA,
    EPSILON,
    FvspInstance,
    build_lp,
    cleanup_unicyclic,
    round_at,
    solve_fvsp,
    solve_lp,
    theta_candidates,
    validate_instance,
)
from ptodel.graphs import (
    find_hole,
    find_induced_c4,
    find_induced_gem,
    is_ptolemaic,
)
from ptodel.lattice import (
    brute_force_icd,
    build_icd,
    is_ptolemaic_via_icd,
)
from ptodel.oracle import (
    exact_c4gem_hitting,
    exact_fvsp,
    exact_ptolemaic_deletion,
)
from ptodel.pipeline import lift, solve_ptolemaic_deletion


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"\nacceptance criterion {num} ({name}): {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def _is_free(g):
    return find_induced_c4(g) is None and find_induced_gem(g) is None


# ---------------------------------------------------------------------------
# shared corpora


@pytest.fixture(scope="module")
def lattice_corpus():
    """Criterion 2 work product.

    Every connected labeled graph on up to 6 vertices gets the brute-force
    lattice; the (C4, gem)-free ones also get the fast construction for
    comparison.  200 seeded random free graphs with up to 9 vertices follow.
    The free graphs' lattices double as FVSP instances for criteria 4 and 5.
    """
    mismatches = []
    bound_violations = []
    instances = []
    n_connected = 0
    n_free = 0
    for n in range(1, 7):
        bound = 2 * n**3
        for mask in all_graph_masks(n):
            g = graph_from_mask(n, mask)
            if not is_connected(g):
                continue
            n_connected += 1
            oracle_icd = brute_force_icd(g)
            if oracle_icd.n_nodes > bound:
                bound_violations.append((n, mask))
            if _is_free(g):
                n_free += 1
                fast = build_icd(g)
                if not icd_equivalent(fast, oracle_icd):
                    mismatches.append((n, mask))
                instances.append(
                    FvspInstance(fast.n_nodes, fast.arcs, fast.node_weights)
                )
    rng = random.Random(20260810)
    n_random = 0
    while n_random < 200:
        g = random_c4gem_free(
            rng,
            rng.randint(4, 9),
            rng.uniform(0.2, 0.6),
            weights=(0.0, 5.0),
            zero_weight_p=0.15,
            max_cliques_cap=20,
        )
        n_random += 1
        fast = build_icd(g)
        oracle_icd = brute_force_icd(g)
        if fast.n_nodes > 2 * max(g.n, 1) ** 3:
            bound_violations.append(("random", n_random))
        if not icd_equivalent(fast, oracle_icd):
            mismatches.append(("random", n_random))
        instances.append(FvspInstance(fast.n_nodes, fast.arcs, fast.node_weights))
    return {
        "mismatches": mismatches,
        "bound_violations": bound_violations,
        "instances": instances,
        "n_connected": n_connected,
        "n_free": n_free,
        "n_random": n_random,
    }


@pytest.fixture(scope="module")
def fvsp_corpus(lattice_corpus):
    """Criterion 4/5 instance pool: 120 random valid instances plus every
    lattice from criterion 2 (deduplicated exactly)."""
    rng = random.Random(4711)
    instances = [random_multitree(rng, rng.randint(3, 12)) for _ in range(120)]
    seen = set()
    for inst in lattice_corpus["instances"]:
        key = (inst.n, inst.arcs, inst.weights)
        if key not in seen:
            seen.add(key)
            instances.append(inst)
    return instances


@pytest.fixture(scope="module")
def weighted_corpus():
    """Criterion 6/8 inputs: 300 seeded weighted graphs, n <= 10,
    p in {0.2, 0.4, 0.6}, weights uniform in [0, 10]."""
    rng = random.Random(8128)
    graphs = []
    for i in range(300):
        n = rng.randint(2, 10)
        p = (0.2, 0.4, 0.6)[i % 3]
        graphs.append(random_graph(rng, n, p, weights=(0.0, 10.0)))
    return graphs


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_parameter_arithmetic():
    failures = []
    if not 2 * ALPHA >= 1 + EPSILON - 1e-9:
        failures.append(f"2*alpha >= 1+eps off by {1 + EPSILON - 2 * ALPHA:.3e}")
    if not 3 * (1 - BETA) >= 1 + 8 * EPSILON - 1e-9:
        failures.append(
            f"3*(1-beta) >= 1+8*eps off by {1 + 8 * EPSILON - 3 * (1 - BETA):.3e}"
        )
    ratio = 1 / EPSILON + 2 / (BETA - ALPHA) + 1
    if not ratio <= 62.2 + 1e-9:
        failures.append(f"ratio {ratio} > 62.2")
    report(1, "parameter arithmetic", not failures, "; ".join(failures))


def test_criterion_2_lattice_oracle_equivalence(lattice_corpus):
    c = lattice_corpus
    ok = (
        not c["mismatches"]
        and not c["bound_violations"]
        and c["n_random"] >= 200
        and c["n_connected"] == 27476
    )
    report(
        2,
        "lattice oracle equivalence",
        ok,
        f"{c['n_connected']} connected graphs (n<=6), {c['n_free']} free, "
        f"{c['n_random']} random free (n<=9); "
        f"{len(c['mismatches'])} mismatches, "
        f"{len(c['bound_violations'])} bound violations",
    )


def test_criterion_3_recognizer_agreement():
    rng = random.Random(355)
    checked = 0
    disagreements = []
    for _ in range(10_000):
        n = rng.randint(1, 7)
        g = graph_from_mask(n, rng.getrandbits(n * (n - 1) // 2))
        scan = find_hole(g) is None and find_induced_gem(g) is None
        lattice = is_ptolemaic_via_icd(g)
        if scan != lattice:
            disagreements.append((n, g.edges))
        checked += 1
    report(
        3,
        "recognizer agreement",
        not disagreements and checked == 10_000,
        f"{checked} graphs sampled, {len(disagreements)} disagreements",
    )


def test_criterion_4_rounding_structure(fvsp_corpus):
    n_instances = 0
    n_thetas = 0
    failures = []
    for inst in fvsp_corpus:
        if validate_instance(inst) is not None:
            failures.append(("invalid-instance", inst.arcs))
            continue
        if inst.n == 0:
            continue
        lp = solve_lp(build_lp(inst))
        n_instances += 1
        # analytic deletion-measure bound, per surviving vertex
        step1 = {v for v in range(inst.n) if lp.z[v] >= EPSILON}
        for v in range(inst.n):
            if v in step1:
                continue
            measure = 0.0
            spans = []
            for j, (u, w) in enumerate(inst.arcs):
                if not (inst.des_masks[w] >> v) & 1:
                    continue
                xbar = 1.0 - lp.x_head[j]
                y = lp.z[w] - lp.z[u]
                lo, hi = max(xbar - y, ALPHA), min(xbar, BETA)
                if lo <= hi:
                    spans.append((lo, hi))
            spans.sort()
            end = None
            start = None
            for lo, hi in spans:
                if end is None or lo > end:
                    if end is not None:
                        measure += end - start
                    start, end = lo, hi
                else:
                    end = max(end, hi)
            if end is not None:
                measure += end - start
            if measure > 2 * lp.z[v] + 1e-9:
                failures.append(("measure", inst.arcs, v))
        for theta in theta_candidates(inst, lp):
            n_thetas += 1
            out = round_at(inst, lp, theta)
            deleted = out.deleted
            for v in deleted:
                if not all(c in deleted for c in inst.out_adj[v]):
                    failures.append(("not-downward-closed", inst.arcs, theta))
                    break
            for j, (u, v) in enumerate(inst.arcs):
                if u in deleted or v in deleted:
                    continue
                if j not in out.pointers.get(u, frozenset()) and j not in out.pointers.get(
                    v, frozenset()
                ):
                    failures.append(("unpointed-arc", inst.arcs, theta, j))
            if any(len(js) > 2 for js in out.pointers.values()):
                failures.append(("pointer-cap", inst.arcs, theta))
            try:
                cleanup_unicyclic(inst, set(range(inst.n)) - deleted)
            except Exception as exc:  # >= 2 cycles in a component
                failures.append(("multi-cycle", inst.arcs, theta, str(exc)))
    report(
        4,
        "rounding structure",
        not failures,
        f"{n_instances} instances, {n_thetas} thresholds checked"
        + (f"; first failure {failures[0]}" if failures else ""),
    )


def test_criterion_5_fvsp_ratio(fvsp_corpus):
    n_checked = 0
    failures = []
    for inst in fvsp_corpus:
        if inst.n == 0 or inst.n > 18 or validate_instance(inst) is not None:
            continue
        sol = solve_fvsp(inst)
        opt_w, _ = exact_fvsp(inst, 18)
        n_checked += 1
        if not (opt_w - 1e-9 <= sol.weight <= 63 * opt_w + 1e-9):
            failures.append(("ratio", inst.arcs, sol.weight, opt_w))
        if not sol.lp_value <= opt_w + 1e-7:
            failures.append(("lp-above-opt", inst.arcs, sol.lp_value, opt_w))
    report(
        5,
        "fvsp ratio",
        not failures and n_checked >= 100,
        f"{n_checked} instances vs oracle"
        + (f"; first failure {failures[0]}" if failures else ""),
    )


def test_criterion_6_end_to_end_ratio(weighted_corpus):
    failures = []
    n_checked = 0
    for g in weighted_corpus:
        res = solve_ptolemaic_deletion(g)
        remainder, _ = g.delete(res.deleted)
        if not is_ptolemaic(remainder)[0] or not is_ptolemaic_via_icd(remainder):
            failures.append(("unverified", g.edges))
            continue
        opt_w, _ = exact_ptolemaic_deletion(g, 10)
        n_checked += 1
        if not (opt_w - 1e-9 <= res.weight <= 68 * opt_w + 1e-6):
            failures.append(("ratio", g.edges, res.weight, opt_w))
    c5 = solve_ptolemaic_deletion(cycle_graph(5))
    if c5.weight != 1.0:
        failures.append(("c5-weight", c5.weight))
    report(
        6,
        "end-to-end ratio",
        not failures and n_checked == 300,
        f"{n_checked} graphs vs oracle; C5 weight {c5.weight}"
        + (f"; first failure {failures[0]}" if failures else ""),
    )


def test_criterion_7_reduction_correctness():
    rng = random.Random(997)
    failures = []
    n_graphs = 0
    n_lift_checks = 0
    while n_graphs < 100:
        g = random_c4gem_free(
            rng,
            rng.randint(3, 8),
            rng.uniform(0.25, 0.6),
            weights=(0.0, 5.0),
            zero_weight_p=0.2,
        )
        n_graphs += 1
        icd = build_icd(g)
        inst = FvspInstance(icd.n_nodes, icd.arcs, icd.node_weights)

        # (a) a minimalized optimal deletion set maps to a downward-closed
        # node set with forest remainder and equal weight
        _, opt_set = exact_ptolemaic_deletion(g)
        sel = set(opt_set)
        for v in sorted(sel):
            trial = sel - {v}
            rem, _ = g.delete(trial)
            if is_ptolemaic(rem)[0]:
                sel = trial
        mapped = closure(icd, {icd.phi[v] for v in sel})
        kids_of = children(icd)
        for x in mapped:
            if not all(c in mapped for c in kids_of[x]):
                failures.append(("a-not-closed", g.edges))
                break
        else:
            if not remainder_is_forest(inst, mapped):
                failures.append(("a-not-forest", g.edges))
            elif not math.isclose(
                sum(icd.node_weights[x] for x in mapped),
                g.weight_of(sel),
                abs_tol=1e-9,
            ):
                failures.append(("a-weight", g.edges))
            # canonical cliques of solution vertices stay inside the solution
            for v in sel:
                if not set(icd.cliques[icd.phi[v]]) <= sel:
                    failures.append(("a-canonical-clique", g.edges, v))
                    break

        # (b) every downward-closed forest-remainder node set lifts back
        ideals = _enumerate_ideals(inst, cap=1 << 16)
        if ideals is not None:
            for sel_nodes in ideals:
                if not remainder_is_forest(inst, sel_nodes):
                    continue
                n_lift_checks += 1
                lifted = lift(icd, sel_nodes)
                rem, _ = g.delete(lifted)
                if not is_ptolemaic(rem)[0]:
                    failures.append(("b-not-ptolemaic", g.edges, tuple(sel_nodes)))
                    break
                if not math.isclose(
                    g.weight_of(lifted),
                    sum(icd.node_weights[x] for x in sel_nodes),
                    abs_tol=1e-9,
                ):
                    failures.append(("b-weight", g.edges, tuple(sel_nodes)))
                    break
    report(
        7,
        "reduction correctness",
        not failures,
        f"{n_graphs} free graphs, {n_lift_checks} lifted node sets"
        + (f"; first failure {failures[0]}" if failures else ""),
    )


def _enumerate_ideals(inst, cap):
    order = inst.topo_order
    ideals = [frozenset()]
    for v in reversed(order):
        new = []
        for sel in ideals:
            if all(c in sel for c in inst.out_adj[v]):
                new.append(sel | {v})
        ideals.extend(new)
        if len(ideals) > cap:
            return None
    return ideals


def test_criterion_8_hitting_stage(weighted_corpus):
    from ptodel.pipeline import hit_c4_gem

    failures = []
    n_checked = 0
    for g in weighted_corpus:
        hr = hit_c4_gem(g)
        n_checked += 1
        if hr.weight > 5 * hr.lp_value + 1e-6:
            failures.append(("lp-bound", g.edges, hr.weight, hr.lp_value))
        opt_w, _ = exact_c4gem_hitting(g)
        if hr.weight > 5 * opt_w + 1e-6:
            failures.append(("opt-bound", g.edges, hr.weight, opt_w))
        remainder, _ = g.delete(hr.deleted)
        if not _is_free(remainder):
            failures.append(("not-free", g.edges))
    report(
        8,
        "hitting-stage bound",
        not failures and n_checked == 300,
        f"{n_checked} graphs"
        + (f"; first failure {failures[0]}" if failures else ""),
    )
