"""FVSP solver: LP model, rounding behavior, cleanup, and the structural
claims the analysis rests on."""

import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from generators import random_c4gem_free, random_multitree
from helpers_brute import (
    build_lp_loop,
    cleanup_brute,
    derandomize_every_theta,
    exact_fvsp_by_ideals,
    remainder_is_forest,
    validate_instance_brute,
)
from ptodel import fvsp
from ptodel.fixtures import cycle_graph, fixture_graph
from ptodel.fvsp import (
    ALPHA,
    BETA,
    EPSILON,
    LP_RESIDUAL_TOL,
    FvspFormatError,
    FvspInstance,
    FvspLpSolution,
    InstanceViolation,
    build_lp,
    cleanup_unicyclic,
    derandomize,
    format_instance,
    parse_instance,
    round_at,
    solution_to_json,
    solve_fvsp,
    solve_lp,
    theta_candidates,
    validate_instance,
    verify_fvsp_solution,
)
from ptodel.graphs import MAX_WEIGHT, StageError, WeightedGraph, _bits_to_list, union_find
from ptodel.lattice import build_icd
from ptodel.oracle import exact_fvsp
from ptodel.pipeline import hit_c4_gem, reduce_to_fvsp, solve_ptolemaic_deletion

# s1=0, s2=1, t1=2, t2=3: an undirected 4-cycle with two sources
ST = FvspInstance(4, [(0, 2), (1, 2), (1, 3), (0, 3)], [1.0] * 4)
FOREST = FvspInstance(5, [(0, 1), (0, 2), (2, 3), (2, 4)], [1.0] * 5)


def icd_c5_instance():
    icd = build_icd(cycle_graph(5))
    return FvspInstance(icd.n_nodes, icd.arcs, icd.node_weights)


class TestValidate:
    def test_st_instance_ok(self):
        assert validate_instance(ST) is None

    def test_shared_descendant_violates(self):
        bad = FvspInstance(4, [(0, 1), (0, 2), (1, 3), (2, 3)], [1.0] * 4)
        violation = validate_instance(bad)
        assert violation is not None
        assert violation.kind == "ancestors-not-in-tree" and violation.node == 3

    def test_empty_ok(self):
        assert validate_instance(FvspInstance(0, [], [])) is None

    def test_cycle_detected(self):
        cyc = FvspInstance(3, [(0, 1), (1, 2), (2, 0)], [1.0] * 3)
        violation = validate_instance(cyc)
        assert violation is not None and violation.kind == "cycle"
        # the witness is the smallest node on or below a cycle: 0 -> 1 feeds
        # the cycle 2 -> 3 -> 2, which feeds 4
        fed = FvspInstance(5, [(0, 1), (1, 2), (2, 3), (3, 2), (3, 4)], [1.0] * 5)
        assert validate_instance(fed) == InstanceViolation("cycle", 2)

    @staticmethod
    def _agree(inst):
        got, want = validate_instance(inst), validate_instance_brute(inst)
        assert got == want, (inst.n, inst.arcs, got, want)
        return want

    def test_matches_brute_on_every_small_digraph(self):
        kinds = Counter()
        for n in range(5):
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
            for mask in range(1 << len(pairs)):
                arcs = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
                verdict = self._agree(FvspInstance(n, arcs, [1.0] * n))
                kinds[verdict.kind if verdict else "valid"] += 1
        assert sum(kinds.values()) == 1 + 1 + 4 + 64 + 4096
        assert min(kinds.values()) > 0, kinds

    def test_matches_brute_on_random_digraphs(self):
        rng = random.Random(2718)
        kinds = Counter()
        for i in range(20000):
            n = rng.randint(1, 9)
            if i % 3 == 0:  # a valid instance, maybe spoiled by one arc
                inst = random_multitree(rng, n, extra_arc_tries=3 * n)
                arcs = list(inst.arcs)
                if n > 1 and rng.random() < 0.6:
                    arcs.append(tuple(rng.sample(range(n), 2)))
            elif i % 3 == 1:  # a DAG on a shuffled order
                order = rng.sample(range(n), n)
                p = rng.choice((0.15, 0.3, 0.5))
                arcs = [
                    (order[a], order[b])
                    for a, b in itertools.combinations(range(n), 2)
                    if rng.random() < p
                ]
            else:  # any digraph
                p = rng.choice((0.08, 0.15, 0.3))
                arcs = [
                    (u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p
                ]
            verdict = self._agree(FvspInstance(n, arcs, [1.0] * n))
            kinds[verdict.kind if verdict else "valid"] += 1
        assert min(kinds.values()) >= 2000, kinds


class TestLpModel:
    def test_variable_and_constraint_counts(self):
        # ST is its own kernel; the sources 0 and 1 lose their z columns and,
        # being the tail of every arc, all four precedence rows.  Each arc's
        # equality row eliminates its x_head: 2 z + 4 x_tail columns, and
        # 4 capacity rows plus 4 x_head >= 0 rows
        model = build_lp(ST)
        assert len(model.c) == 6
        assert model.a_ub.shape == (8, 6)
        assert not hasattr(model, "a_eq")

    def test_forest_optimum_zero(self):
        assert solve_lp(build_lp(FOREST)).objective == pytest.approx(0.0, abs=1e-9)

    def test_st_optimum_at_most_one(self):
        # the integral solution deleting t1 is feasible
        assert solve_lp(build_lp(ST)).objective <= 1.0 + 1e-9

    def test_single_node(self):
        lp = solve_lp(build_lp(FvspInstance(1, [], [3.0])))
        assert lp.z == (0.0,) and lp.objective == 0.0

    def test_icd_c5_at_most_one(self):
        inst = icd_c5_instance()
        assert solve_lp(build_lp(inst)).objective <= 1.0 + 1e-9

    def test_matches_per_arc_loop(self):
        insts = [ST, FOREST, FvspInstance(0, [], []), FvspInstance(1, [], [3.0])]
        for name in ("diamond", "gem", "house", "domino", "bull", "dart", "cycle5"):
            g = fixture_graph(name)
            insts.append(reduce_to_fvsp(g.delete(hit_c4_gem(g).deleted)[0])[1])
        rng = random.Random(11)
        for _ in range(30):
            g = random_c4gem_free(rng, rng.randint(4, 14), rng.choice([0.3, 0.5, 0.7]))
            insts.append(reduce_to_fvsp(g)[1])
        insts += [random_multitree(rng, rng.randint(2, 12)) for _ in range(30)]
        kernels = 0
        for inst in insts:
            model = build_lp(inst)
            kernels += len(model.kernel_arcs) > 0
            # the kernel is a 2-core: no node in it has fewer than two arcs
            degree = Counter(v for j in model.kernel_arcs for v in inst.arcs[j])
            assert min(degree.values(), default=2) >= 2
            lp = solve_lp(model)
            full = build_lp_loop(inst)
            want = 0.0
            if len(full.c):
                want = linprog(
                    full.c, A_ub=full.a_ub, b_ub=full.b_ub, A_eq=full.a_eq,
                    b_eq=full.b_eq, bounds=(0.0, 1.0), method="highs",
                ).fun
            assert lp.objective == pytest.approx(want, abs=1e-9), inst
            # the lifted columns, laid out as the full LP's, meet every row
            x = np.empty(len(full.c))
            x[: inst.n] = lp.z
            x[inst.n :: 2] = lp.x_tail
            x[inst.n + 1 :: 2] = lp.x_head
            assert np.max(np.abs(full.a_eq @ x - full.b_eq), initial=0.0) <= LP_RESIDUAL_TOL
            assert np.max(full.a_ub @ x - full.b_ub, initial=0.0) <= LP_RESIDUAL_TOL
            assert float(full.c @ x) == pytest.approx(want, abs=1e-9)
        assert kernels >= 20, kernels

    def test_bad_solver_point_fails_the_full_rows(self, monkeypatch):
        # "optimal", yet x = 0 makes every x_head of ST read 1, so both
        # heads' capacity rows read 2 <= 1
        class Zeros:
            success, fun, message = True, 0.0, ""

            def __init__(self, c):
                self.x = np.zeros(len(c))

        monkeypatch.setattr(fvsp, "linprog", lambda c, **kw: Zeros(c))
        with pytest.raises(StageError, match="LP residual 1.000e"):
            solve_lp(build_lp(ST))

    def test_forest_needs_no_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a forest has an empty kernel")

        monkeypatch.setattr(fvsp, "linprog", refuse)
        lp = solve_lp(build_lp(FOREST))
        assert lp.objective == 0.0 and lp.z == (0.0,) * FOREST.n
        assert solve_fvsp(FOREST).deleted == ()

    def test_flat_columns_satisfy_the_rows(self):
        # z per node, x_tail and x_head per arc: each arc's equality row and
        # each node's capacity row read back from the three columns
        rng = random.Random(13)
        for _ in range(40):
            inst = random_multitree(rng, rng.randint(2, 12))
            lp = solve_lp(build_lp(inst))
            assert len(lp.z) == inst.n
            assert len(lp.x_tail) == len(lp.x_head) == inst.m
            load = list(lp.z)
            for j, (u, v) in enumerate(inst.arcs):
                assert abs(lp.z[v] + lp.x_tail[j] + lp.x_head[j] - 1.0) <= LP_RESIDUAL_TOL
                load[u] += lp.x_tail[j]
                load[v] += lp.x_head[j]
            assert max(load) <= 1.0 + LP_RESIDUAL_TOL

    def test_deterministic(self):
        a = solve_lp(build_lp(ST))
        b = solve_lp(build_lp(ST))
        assert a.z == b.z and a.x_tail == b.x_tail and a.x_head == b.x_head
        assert a.objective == b.objective


class TestRoundAt:
    def test_all_zero_lp_points_every_arc(self):
        lp = solve_lp(build_lp(FOREST))
        # midpoint candidates avoid the measure-zero deletion points
        cands = theta_candidates(FOREST, lp)
        theta = cands[len(cands) // 2]
        out = round_at(FOREST, lp, theta)
        assert out.deleted == frozenset()
        pointed = set()
        for js in out.pointers.values():
            pointed |= js
        assert pointed == set(range(FOREST.m))

    def test_high_z_deletes_descendants(self):
        from ptodel.fvsp import FvspLpSolution

        chain = FvspInstance(3, [(0, 1), (1, 2)], [1.0] * 3)
        lp = FvspLpSolution(
            z=(0.0, 0.5, 0.6),
            x_tail=(0.25, 0.2),
            x_head=(0.25, 0.2),
            objective=1.1,
        )
        out = round_at(chain, lp, 0.55)
        assert out.step1 == frozenset({1, 2})
        assert out.deleted == frozenset({1, 2})

    def test_interval_hit_fires_descendant_closure(self):
        from ptodel.fvsp import FvspLpSolution

        chain = FvspInstance(3, [(0, 1), (1, 2)], [1.0] * 3)
        lp = FvspLpSolution(
            z=(0.0, 0.0, 0.0),
            x_tail=(0.55, 0.5),
            x_head=(0.45, 0.5),
            objective=0.0,
        )
        out = round_at(chain, lp, 0.55)  # xbar_head of arc 0
        assert 0 in out.fired_arcs
        assert out.step3 == frozenset({1, 2})


    # arc 0 -> 1 with z_v + x_tail + x_head = 1 and z below epsilon: its
    # deletion interval is [xbar - 0.01, xbar], xbar = 1 - 0.45
    ARC = FvspInstance(2, [(0, 1)], [1.0, 1.0])
    ARC_LP = FvspLpSolution(z=(0.0, 0.01), x_tail=(0.54,), x_head=(0.45,), objective=0.01)

    def test_interval_top_compared_exactly(self):
        [(_, xbar, _)] = fvsp._breakpoints(self.ARC, self.ARC_LP)
        at = round_at(self.ARC, self.ARC_LP, xbar)
        assert at.fired_arcs == {0} and at.step3 == {1}
        above = round_at(self.ARC, self.ARC_LP, math.nextafter(xbar, 1))
        assert above.fired_arcs == set() and above.deleted == set()
        assert above.pointers[1] == {0}  # the head points to the arc instead

    def test_interval_bottom_compared_exactly(self):
        [(lo, _, _)] = fvsp._breakpoints(self.ARC, self.ARC_LP)
        at = round_at(self.ARC, self.ARC_LP, lo)
        assert at.fired_arcs == {0} and at.step3 == {1}
        below = round_at(self.ARC, self.ARC_LP, math.nextafter(lo, 0))
        assert below.fired_arcs == set() and below.deleted == set()

    def test_step1_cutoff_compared_exactly(self):
        for z, step1 in ((EPSILON, {1}), (math.nextafter(EPSILON, 0), set())):
            lp = FvspLpSolution(z=(0.0, z), x_tail=(0.5,), x_head=(0.5 - z,), objective=z)
            assert round_at(self.ARC, lp, 0.55).step1 == step1

    def test_rounding_constant_between_breakpoints(self):
        # no outcome changes strictly between consecutive values of the
        # breakpoints in [alpha, beta] plus alpha and beta.  The LP optima of
        # these instances put no breakpoint inside (alpha, beta) (it is 0,
        # 1/4, 1/3, 1/2, 2/3, 3/4 or 1), so the LP points here are random
        a, b = ALPHA, BETA
        rng = random.Random(22)
        gaps = 0
        for _ in range(40):
            inst = random_multitree(rng, rng.randint(4, 14))
            lp = FvspLpSolution(
                z=tuple(rng.uniform(0.0, 0.04) for _ in range(inst.n)),
                x_tail=tuple(rng.uniform(0.35, 0.55) for _ in range(inst.m)),
                x_head=tuple(rng.uniform(0.35, 0.55) for _ in range(inst.m)),
                objective=0.0,
            )
            breaks = {a, b}
            for bps in fvsp._breakpoints(inst, lp):
                breaks.update(t for t in bps if a <= t <= b)
            ordered = sorted(breaks)
            for lo, hi in zip(ordered, ordered[1:]):
                first, last = math.nextafter(lo, math.inf), math.nextafter(hi, -math.inf)
                if not first < hi:
                    continue  # no float lies strictly between
                thetas = (first, (lo + hi) / 2, last)
                outs = [round_at(inst, lp, t) for t in thetas]
                assert outs[0] == outs[1] == outs[2], (inst.arcs, lo, hi)
                gaps += 1
        assert gaps > 200, gaps


class TestCandidates:
    def test_exact_candidate_set(self):
        from ptodel.fvsp import FvspLpSolution

        # one breakpoint strictly inside (alpha, beta): candidates must be
        # the two ends, the breakpoint, and both midpoints
        inst = FvspInstance(2, [(0, 1)], [1.0, 1.0])
        lp = FvspLpSolution(
            z=(0.0, 0.0), x_tail=(0.55,), x_head=(0.45,), objective=0.0
        )
        a, b = ALPHA, BETA
        expected = sorted({a, 0.55, b, (a + 0.55) / 2, (0.55 + b) / 2})
        assert list(theta_candidates(inst, lp)) == expected

    def test_count_bound(self):
        rng = random.Random(2)
        for _ in range(20):
            inst = random_multitree(rng, rng.randint(2, 10))
            lp = solve_lp(build_lp(inst))
            cands = theta_candidates(inst, lp)
            assert len(cands) <= 6 * inst.m + 3
            assert all(
                ALPHA <= t <= BETA for t in cands
            )
            assert list(cands) == sorted(cands)


class TestCleanup:
    def test_forest_remainder_untouched(self):
        assert cleanup_unicyclic(FOREST, range(5)) == frozenset()

    def test_st_cycle_removes_cheapest_sink(self):
        # W(t1) = W(t2) = 1, W(s1) = W(s2) = 3; ties go to the smaller id
        assert cleanup_unicyclic(ST, range(4)) == frozenset({2})

    def test_two_disjoint_unicyclic_components(self):
        arcs = [(0, 2), (1, 2), (1, 3), (0, 3), (4, 6), (5, 6), (5, 7), (4, 7)]
        inst = FvspInstance(8, arcs, [1.0, 1.0, 1.0, 5.0, 1.0, 1.0, 1.0, 5.0])
        assert cleanup_unicyclic(inst, range(8)) == frozenset({2, 6})

    def test_near_tie_compared_exactly(self):
        # closures on the 4-cycle: W(2) = 0.1 + 0.2 = 0.30000000000000004,
        # W(3) = 0.3; node 3 is lighter by less than 1e-15
        inst = FvspInstance(
            5, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 4)], [1.0, 1.0, 0.1, 0.3, 0.2]
        )
        assert cleanup_unicyclic(inst, range(5)) == {3}
        assert solve_fvsp(inst).deleted == (3,)

    def test_matches_brute_on_random_remainders(self):
        # complements of random downward-closed sets and random node subsets,
        # kept when every component has at most one cycle
        rng = random.Random(31)
        cases = cleaned = 0
        while cases < 400:
            inst = random_multitree(rng, rng.randint(4, 14))
            if rng.random() < 0.5:
                gone = set()
                for v in rng.sample(range(inst.n), rng.randint(0, 2)):
                    gone.update(_bits_to_list(inst.des_masks[v]))
                rem = set(range(inst.n)) - gone
            else:
                rem = {v for v in range(inst.n) if rng.random() < 0.9}
            kept = [(u, v) for u, v in inst.arcs if u in rem and v in rem]
            root = union_find(inst.n, kept)[0]
            nodes = Counter(root[v] for v in rem)
            edges = Counter(root[u] for u, _ in kept)
            if any(edges[r] > nodes[r] for r in nodes):
                continue
            cases += 1
            want = cleanup_brute(inst, rem)
            assert cleanup_unicyclic(inst, rem) == want, (inst, rem)
            cleaned += bool(want)
        assert cleaned >= 100, cleaned

    def test_two_cycles_in_component_rejected(self):
        theta_shape = FvspInstance(
            4, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3), (1, 2)], [1.0] * 4
        )
        with pytest.raises(StageError) as info:
            cleanup_unicyclic(theta_shape, range(4))
        assert str(info.value) == (
            "[fvsp] remainder component with 4 nodes and 6 edges has more than one "
            "cycle; rounding bug"
        )

    def test_first_bad_component_is_reported(self):
        # {0..3} has one cycle and is cleaned; {4..8} has two and trips
        arcs = [(0, 2), (1, 2), (1, 3), (0, 3)]
        arcs += [(4, 5), (4, 6), (5, 7), (6, 7), (4, 7), (7, 8)]
        inst = FvspInstance(9, arcs, [1.0] * 9)
        with pytest.raises(StageError) as info:
            cleanup_unicyclic(inst, range(9))
        assert str(info.value) == (
            "[fvsp] remainder component with 5 nodes and 6 edges has more than one "
            "cycle; rounding bug"
        )

    def test_bad_components_reported_in_min_vertex_order(self):
        # two interleaved components with two cycles each; the one holding
        # node 0 is reported
        odd = [(1, 3), (1, 5), (3, 7), (5, 7), (1, 7), (7, 9)]
        even = [(0, 2), (0, 4), (0, 6), (2, 6), (4, 6), (2, 4)]
        inst = FvspInstance(10, odd + even, [1.0] * 10)
        with pytest.raises(StageError) as info:
            cleanup_unicyclic(inst, range(10))
        assert "with 4 nodes and 6 edges" in str(info.value)


class TestDerandomize:
    def test_forest_weight_zero(self):
        lp = solve_lp(build_lp(FOREST))
        rs = derandomize(FOREST, lp)
        assert rs.deleted == ()

    def test_icd_c5_weight_one(self):
        inst = icd_c5_instance()
        lp = solve_lp(build_lp(inst))
        rs = derandomize(inst, lp)
        assert inst.weight_of(rs.deleted) == pytest.approx(1.0)


    def test_matches_a_cleanup_at_every_theta(self):
        # one cleanup per distinct rounded set returns the very same solution
        from ptodel.fvsp import FvspLpSolution

        rng = random.Random(29)
        insts = [random_multitree(rng, rng.randint(4, 16)) for _ in range(40)]
        insts += [
            reduce_to_fvsp(random_c4gem_free(rng, rng.randint(8, 16), 0.4))[1]
            for _ in range(20)
        ]
        cases = [(inst, solve_lp(build_lp(inst))) for inst in insts]
        # a feasible point of ST's LP on which theta = alpha fires the arcs
        # into both sinks, while every later candidate leaves the 4-cycle to
        # the cleanup, which takes the lighter sink 2
        a = ALPHA
        heavy_st = FvspInstance(4, ST.arcs, [1.0, 1.0, 1.0, 2.0])
        cases.append((heavy_st, FvspLpSolution(
            z=(0.0,) * 4, x_tail=(1 - a, a, a, 1 - a), x_head=(a, 1 - a, 1 - a, a),
            objective=0.0,
        )))
        repeats = 0
        for inst, lp in cases:
            cands = theta_candidates(inst, lp)
            rounded = {round_at(inst, lp, t).deleted for t in cands}
            repeats += len(rounded) < len(cands)
            want = derandomize_every_theta(inst, lp)
            assert derandomize(inst, lp) == want
        assert repeats >= 20, repeats
        sol = derandomize(*cases[-1])
        assert sol.deleted == (2,) and sol.theta > a


class TestSolve:
    def test_forest_empty_solution(self):
        sol = solve_fvsp(FOREST)
        assert sol.deleted == () and sol.weight == 0.0

    def test_st_weight_one(self):
        sol = solve_fvsp(ST)
        assert sol.weight == pytest.approx(1.0)
        assert verify_fvsp_solution(ST, sol.deleted) is None

    def test_icd_c5_weight_one(self):
        sol = solve_fvsp(icd_c5_instance())
        assert sol.weight == pytest.approx(1.0)

    def test_empty_instance(self):
        sol = solve_fvsp(FvspInstance(0, [], []))
        assert sol.deleted == () and sol.weight == 0.0

    def test_invalid_instance_rejected(self):
        bad = FvspInstance(4, [(0, 1), (0, 2), (1, 3), (2, 3)], [1.0] * 4)
        with pytest.raises(StageError):
            solve_fvsp(bad)

    def test_stage_weights_sum(self):
        rng = random.Random(4)
        for _ in range(10):
            inst = random_multitree(rng, rng.randint(3, 10))
            sol = solve_fvsp(inst)
            assert sum(sol.stage_weights.values()) == pytest.approx(sol.weight)

    def test_json_shape(self):
        js = solution_to_json(solve_fvsp(ST))
        assert set(js) == {"deleted", "weight", "theta", "stages"}
        assert set(js["stages"]) == {"step1", "step3", "cleanup"}


class TestVerify:
    def test_empty_on_forest(self):
        assert verify_fvsp_solution(FOREST, []) is None

    def test_source_without_descendants_violates(self):
        bad = verify_fvsp_solution(ST, [0])
        assert bad is not None and bad.kind == "not-downward-closed"

    def test_everything_deleted_ok(self):
        assert verify_fvsp_solution(ST, range(4)) is None

    def test_remaining_cycle_detected(self):
        bad = verify_fvsp_solution(ST, [])
        assert bad is not None and bad.kind == "cycle"

    def test_remaining_cycle_names_the_closing_arc(self):
        # `ptodel check` prints this as its reason
        bad = verify_fvsp_solution(ST, [])
        assert bad.detail == (1, 3) and str(bad) == "cycle: (1, 3)"

    def test_names_the_least_open_arc(self):
        # a set iterates 8 before 5; the witness is still the least arc out
        inst = FvspInstance(10, [(5, 6), (8, 9)], [1.0] * 10)
        assert list({8, 5}) == [8, 5]
        bad = verify_fvsp_solution(inst, {8, 5})
        assert (bad.kind, bad.detail) == ("not-downward-closed", (5, 6))

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_ids_outside_the_instance_rejected(self, bad):
        # -1 used to pass as feasible, and 3 raised an IndexError
        inst = FvspInstance(3, [(0, 1)], [1.0, 1.0, 1.0])
        for call in (lambda ids: verify_fvsp_solution(inst, ids), inst.weight_of):
            with pytest.raises(ValueError, match=rf"^id {bad} is outside \[0, 3\)$"):
                call([bad])


class TestParams:
    # the rounding constants fvsp.EPSILON, ALPHA and BETA
    def test_defaults_validate_and_bound(self):
        assert 2 * ALPHA >= 1 + EPSILON
        assert 3 * (1 - BETA) >= 1 + 8 * EPSILON
        assert 1 / EPSILON + 2 / (BETA - ALPHA) + 1 <= 62.2

    def test_reject_beta_rounded_up(self):
        # beta = 0.588465 misses 3*(1-beta) >= 1+8*eps by 1.4e-6, so the
        # literal keeps its last digit
        assert 3 * (1 - 0.588465) < 1 + 8 * EPSILON

    def test_factor_within_5e_5_of_its_least_value(self):
        # 2/(beta - alpha) >= 12/(1 - 19*eps) on every triple that meets both
        # constraints, so no triple proves less than 1/eps + 12/(1 - 19*eps)
        # + 1, which is least at eps = 0.02932580
        eps = 0.02932580
        least = 1 / eps + 12 / (1 - 19 * eps) + 1
        assert least <= 1 / EPSILON + 2 / (BETA - ALPHA) + 1 <= least + 5e-5


def _deletion_spans(inst, lp, v):
    """Independent recomputation: theta ranges where v dies in step 3 (the
    deletion intervals of arcs whose head is an ancestor-or-self of v),
    clipped to [ALPHA, BETA] and merged."""
    spans = []
    for j, (u, w) in enumerate(inst.arcs):
        if not (inst.des_masks[w] >> v) & 1:
            continue
        xbar = 1.0 - lp.x_head[j]
        y = lp.z[w] - lp.z[u]
        lo = max(xbar - y, ALPHA)
        hi = min(xbar, BETA)
        if lo <= hi:
            spans.append((lo, hi))
    spans.sort()
    merged = []
    for lo, hi in spans:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _deletion_intervals_for(inst, lp, v):
    return sum(hi - lo for lo, hi in _deletion_spans(inst, lp, v))


class TestStructuralClaims:
    """Per-threshold guarantees the approximation analysis needs."""

    def _instances(self):
        rng = random.Random(8)
        insts = [random_multitree(rng, rng.randint(3, 12)) for _ in range(30)]
        insts.append(icd_c5_instance())
        return insts

    def test_rounding_structure(self):
        for inst in self._instances():
            lp = solve_lp(build_lp(inst))
            for theta in theta_candidates(inst, lp):
                out = round_at(inst, lp, theta)
                deleted = out.deleted
                # downward closure of step deletions
                for v in deleted:
                    assert all(c in deleted for c in inst.out_adj[v])
                # every surviving arc pointed by an endpoint
                for j, (u, v) in enumerate(inst.arcs):
                    if u in deleted or v in deleted:
                        continue
                    assert (
                        j in out.pointers.get(u, frozenset())
                        or j in out.pointers.get(v, frozenset())
                    )
                # nobody points to three arcs
                for js in out.pointers.values():
                    assert len(js) <= 2
                # a singly-pointed arc is its pointer's only arc
                for j, (u, v) in enumerate(inst.arcs):
                    if u in deleted or v in deleted or j in out.fired_arcs:
                        continue
                    havers = [
                        w for w in (u, v) if j in out.pointers.get(w, frozenset())
                    ]
                    if len(havers) == 1:
                        assert out.pointers[havers[0]] == frozenset({j})
                # at most one cycle per remaining component
                cleanup_unicyclic(inst, set(range(inst.n)) - deleted)

    def test_deletion_measure_bound(self):
        for inst in self._instances():
            lp = solve_lp(build_lp(inst))
            out1 = round_at(inst, lp, ALPHA)
            for v in range(inst.n):
                if v in out1.step1:
                    continue
                measure = _deletion_intervals_for(inst, lp, v)
                assert measure <= 2 * lp.z[v] + 1e-9

    def test_step3_membership_matches_analytic_spans(self):
        # round_at's firing decisions agree with the independently computed
        # deletion intervals, away from breakpoints (strict interior points)
        rng = random.Random(14)
        for _ in range(10):
            inst = random_multitree(rng, rng.randint(3, 10))
            lp = solve_lp(build_lp(inst))
            if any(z >= EPSILON for z in lp.z):
                continue  # spans model the no-step1 case only
            cands = theta_candidates(inst, lp)
            mids = [
                (a + b) / 2 for a, b in zip(cands, cands[1:]) if b - a > 1e-9
            ]
            for theta in mids:
                out = round_at(inst, lp, theta)
                for v in range(inst.n):
                    inside = any(
                        lo <= theta <= hi
                        for lo, hi in _deletion_spans(inst, lp, v)
                    )
                    assert (v in out.step3) == inside, (inst.arcs, theta, v)


class TestApproximation:
    def test_against_exact_on_random_instances(self):
        rng = random.Random(12)
        for _ in range(25):
            inst = random_multitree(rng, rng.randint(2, 11))
            sol = solve_fvsp(inst)
            opt_w, opt_set = exact_fvsp(inst)
            assert opt_w - 1e-9 <= sol.weight <= 63 * opt_w + 1e-9
            assert verify_fvsp_solution(inst, opt_set) is None

    def test_exact_matches_ideal_reference(self):
        rng = random.Random(16)
        for _ in range(25):
            inst = random_multitree(rng, rng.randint(2, 9))
            fast_w, _ = exact_fvsp(inst)
            ref_w, ref_set = exact_fvsp_by_ideals(inst)
            assert fast_w == pytest.approx(ref_w, abs=1e-9)
            assert remainder_is_forest(inst, ref_set)


class TestInstanceFormat:
    def test_round_trip(self):
        assert parse_instance(format_instance(ST)) == ST

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 400))
    def test_round_trip_random(self, seed):
        inst = random_multitree(random.Random(seed), seed % 10 + 1)
        assert parse_instance(format_instance(inst)) == inst

    @pytest.mark.parametrize(
        "text",
        ["", "a 0 1\n", "d 2 1\n", "d 2 1\na 0 5\n", "d 1 0\nn 3 1.0\n", "z\n"],
    )
    def test_malformed(self, text):
        with pytest.raises(FvspFormatError):
            parse_instance(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "missing `d <n> <m>` header"),
            ("a 0 1\n", "line 1: a before header"),
            ("d 2 1\n", "header declares 1 arcs, file has 0"),
            ("d 2 1\na 0 5\n", "arc (0,5) out of range for n=2"),
            ("d 1 0\nn 3 1.0\n", "line 2: node 3 out of range"),
            ("z\n", "line 1: unknown record 'z'"),
            ("d 1 0\nd 1 0\n", "line 2: duplicate header"),
            ("d 1 0\nn 0 -2\n", "node weights must be finite and nonnegative"),
            ("d 1 0\nn 0 inf\n", "node weights must be finite and nonnegative"),
            ("d 1 0\nn 0 1e308\n", "node weights must be at most 1e+06"),
            ("d 1000001 0\n", "line 1: node count 1000001 exceeds 1000000"),
            ("d 2 0\nn 1 2\nn 1 3\n", "line 3: duplicate weight for node 1"),
        ],
    )
    def test_malformed_message(self, text, message):
        with pytest.raises(FvspFormatError) as info:
            parse_instance(text)
        assert str(info.value) == message

    def test_weight_fault_reported_before_id_range(self):
        # one reader serves both formats: it converts a record's tokens
        # before it checks the id's range, as the graph format always did
        with pytest.raises(FvspFormatError) as info:
            parse_instance("d 2 0\nn 5 abc\n")
        assert str(info.value) == (
            "line 2: 'n 5 abc': could not convert string to float: 'abc'"
        )

    def test_negative_weight_rejected(self):
        with pytest.raises(FvspFormatError):
            parse_instance("d 1 0\nn 0 -2\n")

    def test_non_finite_weight_rejected(self):
        with pytest.raises(FvspFormatError):
            parse_instance("d 1 0\nn 0 inf\n")

    def test_weight_cap_binds_the_text_format_only(self):
        assert parse_instance(f"d 1 0\nn 0 {MAX_WEIGHT!r}\n").weights == (MAX_WEIGHT,)
        # an ICD node sums its clique's vertex weights, so the instance the
        # pipeline builds from a graph within the cap may exceed it
        g = WeightedGraph(3, [(0, 1), (1, 2), (0, 2)], [MAX_WEIGHT] * 3)
        assert reduce_to_fvsp(g)[1].weights == (3 * MAX_WEIGHT,)
        assert solve_ptolemaic_deletion(g).weight == 0.0


class TestSolutionProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_solution_always_feasible(self, seed):
        inst = random_multitree(random.Random(seed), seed % 11 + 1)
        sol = solve_fvsp(inst)
        assert verify_fvsp_solution(inst, sol.deleted) is None
        assert math.isclose(sol.weight, inst.weight_of(sol.deleted))
