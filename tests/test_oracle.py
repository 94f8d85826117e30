"""Exact solvers: frozen small cases, feasibility, and sanity properties."""

import inspect
import random
import sys

import pytest

from generators import random_graph, random_multitree
from helpers_brute import exact_fvsp_by_ideals, remainder_is_forest
from ptodel import graphs, oracle
from ptodel.fixtures import cycle_graph, fixture_graph, path_graph
from ptodel.fvsp import FvspInstance, verify_fvsp_solution
from ptodel.graphs import WeightedGraph, is_ptolemaic
from ptodel.lattice import build_icd
from ptodel.oracle import (
    BudgetExceededError,
    _subsets_by_weight,
    c4_gem_obstructions,
    exact_c4gem_hitting,
    exact_fvsp,
    exact_ptolemaic_deletion,
)

ST = FvspInstance(4, [(0, 2), (1, 2), (1, 3), (0, 3)], [1.0] * 4)


class TestSubsetEnumeration:
    def test_complete_and_ordered(self):
        weights = (2.0, 1.0, 4.0, 0.5)
        seen = []
        totals = []
        for total, subset in _subsets_by_weight(weights):
            seen.append(subset)
            totals.append(total)
        assert len(seen) == 16 and len(set(seen)) == 16
        assert totals == sorted(totals)
        assert seen[0] == () and totals[0] == 0.0

    def test_totals_match_subsets(self):
        weights = (1.5, 0.0, 2.25)
        for total, subset in _subsets_by_weight(weights):
            assert total == pytest.approx(sum(weights[v] for v in subset))


class TestExactPtolemaicDeletion:
    def test_p4(self):
        assert exact_ptolemaic_deletion(path_graph(4)) == (0.0, ())

    def test_c5_lex_smallest(self):
        # every single deletion of C5 leaves P4, so the tie-break picks {0}
        assert exact_ptolemaic_deletion(cycle_graph(5)) == (1.0, (0,))

    def test_gem_single_deletion(self):
        # each one-vertex deletion of the gem is ptolemaic; lex-min is {0}
        assert exact_ptolemaic_deletion(fixture_graph("gem")) == (1.0, (0,))

    def test_weights_drive_choice(self):
        g = WeightedGraph(5, cycle_graph(5).edges, [5.0, 5.0, 0.25, 5.0, 5.0])
        assert exact_ptolemaic_deletion(g) == (0.25, (2,))

    def test_weight_ties_resolve_lexicographically(self):
        g = WeightedGraph(5, cycle_graph(5).edges, [9.0, 2.0, 2.0, 2.0, 2.0])
        assert exact_ptolemaic_deletion(g) == (2.0, (1,))
        h = WeightedGraph(4, cycle_graph(4).edges, [2.0, 1.0, 1.0, 2.0])
        assert exact_c4gem_hitting(h) == (1.0, (1,))

    def test_budget(self):
        assert BudgetExceededError is graphs.BudgetExceededError
        with pytest.raises(BudgetExceededError, match="^5 vertices exceeds oracle budget 4$"):
            exact_ptolemaic_deletion(path_graph(5), 4)
        with pytest.raises(BudgetExceededError, match="^5 vertices exceeds oracle budget 4$"):
            exact_c4gem_hitting(path_graph(5), 4)
        assert exact_ptolemaic_deletion(path_graph(5), 5) == (0.0, ())

    def test_reported_weight_is_the_sets_own(self):
        # the weight-ordered scan reaches (2, 4) with a running total one ulp
        # above 0.7831346397300021 + 2.5376883303138342
        weights = [
            2.2404367846249174, 9.615370017316605, 0.7831346397300021,
            6.729831597741093, 2.5376883303138342, 3.347597000269494,
            3.9594131556827215, 9.453525196056425,
        ]
        edges = [
            (0, 2), (0, 3), (0, 4), (1, 6), (2, 4), (2, 5), (2, 6),
            (3, 4), (3, 5), (4, 5), (4, 6), (4, 7), (5, 7), (6, 7),
        ]
        g = WeightedGraph(8, edges, weights)
        for solver in (exact_ptolemaic_deletion, exact_c4gem_hitting):
            assert solver(g) == (g.weight_of((2, 4)), (2, 4))

    def test_outputs_feasible(self):
        rng = random.Random(51)
        for _ in range(15):
            g = random_graph(rng, rng.randint(2, 8), 0.5, weights=(0.0, 5.0))
            _, sel = exact_ptolemaic_deletion(g)
            remainder, _ = g.delete(sel)
            assert is_ptolemaic(remainder)[0]


class TestExactFvsp:
    def test_forest(self):
        assert exact_fvsp(FvspInstance(3, [(0, 1), (0, 2)], [1.0] * 3)) == (0.0, ())

    def test_st_instance(self):
        weight, sel = exact_fvsp(ST)
        assert weight == 1.0 and sel in ((2,), (3,))

    def test_icd_of_c5(self):
        icd = build_icd(cycle_graph(5))
        inst = FvspInstance(icd.n_nodes, icd.arcs, icd.node_weights)
        weight, sel = exact_fvsp(inst)
        assert weight == 1.0
        assert len(sel) == 1 and len(icd.cliques[sel[0]]) == 1

    def test_budget(self):
        with pytest.raises(BudgetExceededError, match="^4 nodes exceeds oracle budget 2$"):
            exact_fvsp(ST, 2)
        assert exact_fvsp(ST, 4)[0] == 1.0

    def test_near_tie_is_compared_exactly(self):
        # deleting node 3 is 4e-13 lighter than deleting node 2
        inst = FvspInstance(4, [(0, 2), (1, 2), (1, 3), (0, 3)], [5, 5, 1.0, 1 - 4e-13])
        assert exact_fvsp(inst) == (1 - 4e-13, (3,))

    def test_many_cycles_without_recursion(self):
        # 300 disjoint diamonds (sinks 4i, 4i+1 under sources 4i+2, 4i+3):
        # the search breaks one cycle per level, deleting a free sink
        k = 300
        arcs = [(4 * i + s, 4 * i + t) for i in range(k) for s in (2, 3) for t in (0, 1)]
        weights = [0.0, 0.0, 1.0, 1.0] * k
        inst = FvspInstance(4 * k, arcs, weights)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            weight, sel = exact_fvsp(inst, 4 * k)
        finally:
            sys.setrecursionlimit(limit)
        assert (weight, sel) == (0.0, tuple(4 * i for i in range(k)))

    def test_branching_cycle_is_a_cycle_of_the_surviving_graph(self, monkeypatch):
        # every cycle the search branches on, from the first arc union_find
        # rejects: at least 3 distinct nodes, each consecutive pair adjacent,
        # last and first adjacent; None exactly on a forest
        seen = []
        real = oracle._cycle

        def record(n, edges):
            seen.append((n, edges, real(n, edges)))
            return seen[-1][2]

        monkeypatch.setattr(oracle, "_cycle", record)
        rng = random.Random(61)
        for _ in range(60):
            exact_fvsp(random_multitree(rng, rng.randint(3, 12)))
        assert sum(cycle is not None for _, _, cycle in seen) > 100
        for n, edges, cycle in seen:
            forest = remainder_is_forest(FvspInstance(n, edges, [1.0] * n), ())
            assert (cycle is None) == forest
            if cycle is not None:
                adjacent = {frozenset(e) for e in edges}
                assert len(cycle) >= 3 and len(set(cycle)) == len(cycle)
                assert all(frozenset(p) in adjacent for p in zip(cycle, cycle[1:] + cycle[:1]))

    def test_against_ideal_scan(self):
        rng = random.Random(53)
        for _ in range(20):
            inst = random_multitree(rng, rng.randint(2, 9))
            fast_w, fast_set = exact_fvsp(inst)
            ref_w, _ = exact_fvsp_by_ideals(inst)
            assert fast_w == pytest.approx(ref_w, abs=1e-9)
            assert verify_fvsp_solution(inst, fast_set) is None


class TestExactHitting:
    def test_ptolemaic_graph(self):
        assert exact_c4gem_hitting(path_graph(4)) == (0.0, ())

    def test_c4(self):
        assert exact_c4gem_hitting(cycle_graph(4)) == (1.0, (0,))

    def test_house_hits_its_square(self):
        weight, sel = exact_c4gem_hitting(fixture_graph("house"))
        assert weight == 1.0
        assert len(sel) == 1 and sel[0] in (1, 2, 3, 4)

    def test_obstruction_scan_matches_recognizers(self):
        from ptodel.graphs import all_induced_c4, all_induced_gems

        rng = random.Random(57)
        for _ in range(40):
            g = random_graph(rng, rng.randint(4, 8), 0.5)
            mine = c4_gem_obstructions(g)
            theirs = sorted(set(all_induced_c4(g)) | set(all_induced_gems(g)))
            assert mine == theirs


class TestBudgetsAndMonotonicity:
    def test_budget_validation(self):
        # checked before the size: the empty input is within any cap
        for solve, inst in (
            (exact_ptolemaic_deletion, WeightedGraph(0, [])),
            (exact_c4gem_hitting, WeightedGraph(0, [])),
            (exact_fvsp, FvspInstance(0, [], [])),
        ):
            for budget in (0, -3):
                with pytest.raises(ValueError, match="^budget bounds must be positive$"):
                    solve(inst, budget)

    def test_zero_weight_vertex_never_hurts(self):
        rng = random.Random(59)
        for _ in range(10):
            g = random_graph(rng, rng.randint(3, 7), 0.5, weights=(0.5, 4.0))
            base_w, _ = exact_ptolemaic_deletion(g)
            # adding an isolated zero-weight vertex
            bigger = WeightedGraph(
                g.n + 1, g.edges, list(g.weights) + [0.0]
            )
            new_w, _ = exact_ptolemaic_deletion(bigger)
            assert new_w <= base_w + 1e-9

            base_h, _ = exact_c4gem_hitting(g)
            new_h, _ = exact_c4gem_hitting(bigger)
            assert new_h <= base_h + 1e-9
