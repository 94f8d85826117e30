"""End-to-end deletion pipeline: hitting stage, reduction, closure/lift, and
the correspondence between graph-side and lattice-side solutions."""

import dataclasses
import random
import time

import pytest

from generators import random_c4gem_free, random_graph
from helpers_brute import (
    closure,
    downward_closed_sets,
    hitting_lp_brute,
    remainder_is_forest,
)
from ptodel import fvsp, lattice, pipeline
from ptodel.cli import main
from ptodel.fixtures import complete_graph, cycle_graph, fixture_graph, path_graph
from ptodel.fvsp import FvspInstance, InstanceViolation
from ptodel.graphs import (
    StageError,
    WeightedGraph,
    find_induced_c4,
    find_induced_gem,
    format_graph,
    is_ptolemaic,
)
from ptodel.lattice import build_icd, is_ptolemaic_via_icd
from ptodel.oracle import exact_c4gem_hitting, exact_fvsp, exact_ptolemaic_deletion
from ptodel.pipeline import (
    HittingResult,
    enumerate_obstructions,
    hit_c4_gem,
    lift,
    reduce_to_fvsp,
    result_to_json,
    solve_ptolemaic_deletion,
)


def _is_free(g):
    return find_induced_c4(g) is None and find_induced_gem(g) is None


class TestHittingStage:
    def test_ptolemaic_input_no_constraints(self):
        hr = hit_c4_gem(path_graph(6))
        assert hr.deleted == () and hr.n_constraints == 0 and hr.lp_value == 0.0

    def test_c4_bound_and_freeness(self):
        g = cycle_graph(4)
        hr = hit_c4_gem(g)
        opt_w, _ = exact_c4gem_hitting(g)
        assert hr.weight <= 5 * hr.lp_value + 1e-9
        assert hr.lp_value <= opt_w + 1e-9  # relaxation never beats the oracle
        assert hr.weight <= 5 * opt_w + 1e-9
        remainder, _ = g.delete(hr.deleted)
        assert _is_free(remainder)

    def test_gem_bound_and_freeness(self):
        g = fixture_graph("gem")
        hr = hit_c4_gem(g)
        opt_w, _ = exact_c4gem_hitting(g)
        assert hr.weight <= 5 * opt_w + 1e-9
        remainder, _ = g.delete(hr.deleted)
        assert _is_free(remainder)

    def test_every_constraint_support_is_an_obstruction(self):
        rng = random.Random(3)
        for _ in range(20):
            g = random_graph(rng, rng.randint(4, 9), 0.5)
            for obs in enumerate_obstructions(g):
                sub, _ = g.induced(obs)
                if len(obs) == 4:
                    assert find_induced_c4(sub) == (0, 1, 2, 3)
                else:
                    assert find_induced_gem(sub) == (0, 1, 2, 3, 4)

    def test_threshold_selects_every_fifth(self, monkeypatch):
        # a fractional optimum at 0.25 everywhere must select every vertex:
        # the cut is at 0.2, not anywhere higher
        import numpy as np

        import ptodel.pipeline as pipeline_mod

        g = WeightedGraph(8, list(cycle_graph(4).edges) + [(u + 4, v + 4) for u, v in cycle_graph(4).edges])

        class FakeResult:
            success = True
            message = "fake"
            x = np.full(8, 0.25)
            fun = 2.0

        monkeypatch.setattr(pipeline_mod, "linprog", lambda c, **kw: FakeResult())
        hr = hit_c4_gem(g)
        assert hr.deleted == tuple(range(8))

    def test_round_off_patch_restores_freeness(self, monkeypatch):
        # force a bogus all-zero LP optimum: thresholding selects nothing and
        # the post-check must greedily repair every surviving obstruction
        import numpy as np

        import ptodel.pipeline as pipeline_mod

        class FakeResult:
            success = True
            message = "fake"

            def __init__(self, nvars):
                self.x = np.zeros(nvars)
                self.fun = 0.0

        def fake_linprog(c, **kwargs):
            return FakeResult(len(c))

        monkeypatch.setattr(pipeline_mod, "linprog", fake_linprog)
        g = cycle_graph(4)
        hr = hit_c4_gem(g)
        remainder, _ = g.delete(hr.deleted)
        assert _is_free(remainder)
        assert hr.deleted != ()


class TestRowGeneration:
    """The hitting LP is solved over the C4 rows first, then again with the gem
    rows its optimum violates; the optimum must be the one-shot LP's."""

    @staticmethod
    def _count_solves(monkeypatch):
        calls = []
        real = pipeline.linprog

        def counting(*args, **kwargs):
            calls.append(len(kwargs["A_ub"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "linprog", counting)
        return calls

    @staticmethod
    def _hits_every_obstruction(g, hr):
        deleted = set(hr.deleted)
        return all(deleted & set(obs) for obs in enumerate_obstructions(g))

    @pytest.mark.parametrize(
        "n, p", [(22, 0.5), (90, 4.8 / 90)], ids=["dense_obstructions", "sparse_er"]
    )
    def test_optimum_matches_one_shot_lp(self, n, p):
        rng = random.Random(7)
        for _ in range(6):
            g = random_graph(rng, n, p, (1.0, 10.0))
            hr = hit_c4_gem(g)
            assert hr.lp_value == pytest.approx(hitting_lp_brute(g), rel=1e-9, abs=0)
            assert hr.n_constraints == len(enumerate_obstructions(g))
            assert self._hits_every_obstruction(g, hr)

    def test_violated_gem_rows_trigger_a_second_solve(self, monkeypatch):
        # a C4 beside a gem: the C4 rows' optimum leaves the gem's x at 0
        c4 = list(cycle_graph(4).edges)
        gem = [(u + 4, v + 4) for u, v in fixture_graph("gem").edges]
        g = WeightedGraph(9, c4 + gem)
        calls = self._count_solves(monkeypatch)
        hr = hit_c4_gem(g)
        assert calls == [1, 2]  # rows per solve: the C4, then the gem too
        assert hr.lp_value == pytest.approx(hitting_lp_brute(g), rel=1e-9, abs=0)
        assert hr.n_constraints == 2
        assert self._hits_every_obstruction(g, hr)

    def test_solve_count_is_bounded_by_the_gem_rows(self, monkeypatch):
        rng = random.Random(1)
        calls = self._count_solves(monkeypatch)
        most = 0
        for _ in range(40):
            g = random_graph(rng, 22, 0.5, (1.0, 10.0))
            calls.clear()
            hr = hit_c4_gem(g)
            gems = sum(1 for obs in enumerate_obstructions(g) if len(obs) == 5)
            assert 1 <= len(calls) <= gems + 1
            assert all(a < b for a, b in zip(calls, calls[1:]))  # rows only join
            assert self._hits_every_obstruction(g, hr)
            most = max(most, len(calls))
        assert most >= 2  # some seeded case needs a violated gem row

    def test_gem_only_starts_from_zero(self, monkeypatch):
        # no C4 rows: x = 0 violates the gem row, so the one solve holds it
        g = fixture_graph("gem")
        calls = self._count_solves(monkeypatch)
        hr = hit_c4_gem(g)
        assert calls == [1]
        assert hr.lp_value == pytest.approx(hitting_lp_brute(g), rel=1e-9, abs=0)
        assert self._hits_every_obstruction(g, hr)


class TestReduction:
    def test_c5_instance(self):
        icd, inst = reduce_to_fvsp(cycle_graph(5))
        assert inst.n == 10 and inst.m == 10
        assert sorted(inst.weights) == [0.0] * 5 + [1.0] * 5

    def test_diamond_forest_instance(self):
        icd, inst = reduce_to_fvsp(fixture_graph("diamond"))
        assert exact_fvsp(inst) == (0.0, ())

    def test_empty_graph(self):
        icd, inst = reduce_to_fvsp(WeightedGraph(0, []))
        assert inst.n == 0 and inst.m == 0

    def test_invalid_instance_tagged_once(self, monkeypatch):
        # reduce_to_fvsp raises its own StageError; the wrapper in
        # solve_ptolemaic_deletion must pass it on, not tag it again
        monkeypatch.setattr(
            pipeline, "validate_instance", lambda inst: InstanceViolation("cycle", 0)
        )
        with pytest.raises(StageError) as info:
            solve_ptolemaic_deletion(path_graph(3))
        assert info.value.stage == "reduce"
        assert str(info.value) == "[reduce] ICD is not a valid instance: cycle at node 0"

    @pytest.mark.parametrize(
        "exc, line",
        [
            (MemoryError(), "error: [reduce] MemoryError\n"),
            (MemoryError("no room"), "error: [reduce] MemoryError: no room\n"),
        ],
    )
    def test_other_failure_tagged_with_its_type(
        self, monkeypatch, tmp_path, capsys, exc, line
    ):
        # an exception that is not a StageError still reaches main tagged
        # with its stage, and the line names its type even when it is bare
        def exhausted(g, limit=None):
            raise exc

        monkeypatch.setattr(lattice, "maximal_cliques", exhausted)
        gr = tmp_path / "g.gr"
        gr.write_text(format_graph(path_graph(3)))
        assert main(["solve", str(gr)]) == 3
        assert capsys.readouterr() == ("", line)

    def test_solve_checks_each_instance_once(self, monkeypatch):
        # reduce_to_fvsp and solve_fvsp both ask; the second answer is cached
        asked, computed = [], []
        for module in (pipeline, fvsp):
            real_validate = module.validate_instance
            monkeypatch.setattr(
                module,
                "validate_instance",
                lambda inst, f=real_validate: asked.append(inst) or f(inst),
            )
        prop = FvspInstance.__dict__["violation"]
        real = prop.func
        monkeypatch.setattr(prop, "func", lambda inst: computed.append(inst) or real(inst))
        res = solve_ptolemaic_deletion(cycle_graph(5))
        assert res.weight == 1.0
        assert len(asked) == 2 and asked[0] is asked[1]
        assert computed == asked[:1]


class TestClosure:
    def test_no_rule_fires(self):
        icd = build_icd(fixture_graph("diamond"))  # all nodes carry weight
        assert closure(icd, set()) == frozenset()
        assert closure(icd, {0}) == frozenset({0})

    def test_c5_sink_is_closed(self):
        icd = build_icd(cycle_graph(5))
        sink = next(i for i in range(10) if len(icd.cliques[i]) == 1)
        assert closure(icd, {sink}) == frozenset({sink})

    def test_c5_edge_node_keeps_weighted_children_out(self):
        icd = build_icd(cycle_graph(5))
        enode = next(i for i in range(10) if len(icd.cliques[i]) == 2)
        assert closure(icd, {enode}) == frozenset({enode})

    def test_zero_weight_descendant_absorbed(self):
        g = WeightedGraph(3, [(0, 1), (1, 2)], [1.0, 0.0, 1.0])
        icd = build_icd(g)
        top = icd.cliques.index((0, 1))
        mid = icd.cliques.index((1,))
        assert closure(icd, {top}) == frozenset({top, mid})

    def test_empty_preimage_parent_absorbed(self):
        icd = build_icd(cycle_graph(5))
        enode = next(i for i in range(10) if len(icd.cliques[i]) == 2)
        kids = set(icd.children[enode])
        assert enode in closure(icd, kids)


class TestLift:
    def test_single_vertex_node(self):
        g = cycle_graph(5)
        icd = build_icd(g)
        node = icd.cliques.index((2,))
        lifted = lift(icd, {node})
        assert lifted == (2,)
        remainder, _ = g.delete(lifted)
        assert is_ptolemaic(remainder)[0]

    def test_empty(self):
        icd = build_icd(fixture_graph("diamond"))
        assert lift(icd, set()) == ()

    def test_all_nodes_covers_all_vertices(self):
        g = cycle_graph(6)
        icd = build_icd(g)
        assert lift(icd, range(icd.n_nodes)) == tuple(range(6))

    def test_rejects_open_sets(self):
        icd = build_icd(cycle_graph(5))
        enode = next(i for i in range(10) if len(icd.cliques[i]) == 2)
        with pytest.raises(ValueError):
            lift(icd, {enode})


class TestEndToEnd:
    def test_ptolemaic_input_untouched(self):
        res = solve_ptolemaic_deletion(path_graph(4))
        assert res.deleted == () and res.weight == 0.0

    def test_large_clique_in_seconds(self):
        # K60 is ptolemaic; the scans cost O(n·Δ²) mask operations on it,
        # where trying every 4-subset of each neighbourhood takes minutes
        start = time.perf_counter()
        res = solve_ptolemaic_deletion(complete_graph(60))
        assert res.deleted == ()
        assert time.perf_counter() - start < 10

    def test_degenerate_inputs(self):
        for g in (WeightedGraph(0, []), WeightedGraph(1, []), WeightedGraph(2, [(0, 1)])):
            res = solve_ptolemaic_deletion(g)
            assert res.deleted == () and res.weight == 0.0
            remainder = g.delete(res.deleted)[0]
            assert is_ptolemaic(remainder)[0] and is_ptolemaic_via_icd(remainder)

    def test_c5_optimal(self):
        g = cycle_graph(5)
        res = solve_ptolemaic_deletion(g)
        assert res.weight == 1.0 and len(res.deleted) == 1
        remainder = g.delete(res.deleted)[0]
        assert is_ptolemaic(remainder)[0] and is_ptolemaic_via_icd(remainder)

    def test_c4_weight_one(self):
        res = solve_ptolemaic_deletion(cycle_graph(4))
        assert res.weight == 1.0

    def test_house_and_domino(self):
        for name in ("house", "domino"):
            g = fixture_graph(name)
            res = solve_ptolemaic_deletion(g)
            opt_w, _ = exact_ptolemaic_deletion(g)
            assert opt_w - 1e-9 <= res.weight <= 68 * opt_w + 1e-9

    def test_random_graphs_against_oracle(self):
        rng = random.Random(31)
        for _ in range(15):
            g = random_graph(
                rng, rng.randint(3, 8), rng.choice([0.25, 0.5]), weights=(0.0, 10.0)
            )
            res = solve_ptolemaic_deletion(g)
            remainder, _ = g.delete(res.deleted)
            assert is_ptolemaic(remainder)[0]
            assert is_ptolemaic_via_icd(remainder)
            opt_w, _ = exact_ptolemaic_deletion(g)
            assert opt_w - 1e-9 <= res.weight <= 68 * opt_w + 1e-6

    def test_lp_values_bound_the_whole_graph_optimum(self):
        # the hitting LP relaxes the whole problem; the FVSP LP relaxes the
        # remainder's, which is no dearer than the whole graph's
        rng = random.Random(1)
        fvsp_positive = 0
        for _ in range(200):
            g = random_graph(rng, rng.choice((13, 14)), 0.15, weights=(1.0, 10.0))
            res = solve_ptolemaic_deletion(g)
            opt_w, _ = exact_ptolemaic_deletion(g)
            bound = max(res.hitting.lp_value, res.fvsp.lp_value)
            assert bound <= opt_w * (1 + 1e-9) + 1e-9, (g.edges, bound, opt_w)
            fvsp_positive += res.fvsp.lp_value > 0
        assert fvsp_positive >= 10

    def test_weight_decomposition(self):
        rng = random.Random(33)
        for _ in range(10):
            g = random_graph(rng, 8, 0.4, weights=(0.5, 3.0))
            res = solve_ptolemaic_deletion(g)
            assert res.weight == pytest.approx(res.hitting.weight + res.lifted_weight)
            assert res.lifted_weight == pytest.approx(res.fvsp.weight, abs=1e-9)

    def test_verify_failure_is_tagged(self, monkeypatch, tmp_path, capsys):
        # stages that hand the verifier a remainder with a gem and 22 maximal
        # cliques: build_icd raises on it, and the verdict is still [verify]
        monkeypatch.setattr(pipeline, "hit_c4_gem", lambda g: HittingResult((), 0.0, 0.0, 0))
        empty = WeightedGraph(0, [])
        monkeypatch.setattr(
            pipeline,
            "reduce_to_fvsp",
            lambda g: (build_icd(empty), FvspInstance(0, (), ())),
        )
        gem = fixture_graph("gem")
        path = [(gem.n + i, gem.n + i + 1) for i in range(19)]
        g = WeightedGraph(gem.n + 20, list(gem.edges) + path)
        with pytest.raises(StageError):
            build_icd(g)
        with pytest.raises(StageError) as info:
            solve_ptolemaic_deletion(g)
        assert info.value.stage == "verify"
        gr = tmp_path / "g.gr"
        gr.write_text(format_graph(g))
        assert main(["solve", str(gr)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: [verify] ")

    def test_json_shape(self):
        js = result_to_json(solve_ptolemaic_deletion(cycle_graph(5)))
        assert set(js) == {"deleted", "weight", "stages", "icd_nodes", "verification"}
        assert js["verification"] == {"obstruction_free": True, "lattice_forest": True}


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


class TestStageRunner:
    """Any exception a stage of ``solve`` raises is a StageError tagged with
    that stage: exit 3 and one line, never a traceback or a false exit 2."""

    @pytest.mark.parametrize(
        "exc, detail", [(MemoryError(), "MemoryError"), (ValueError("x"), "ValueError: x")]
    )
    @pytest.mark.parametrize(
        "name, stage",
        [
            ("hit_c4_gem", "hitting"),
            ("build_icd", "reduce"),
            ("solve_fvsp", "fvsp"),
            ("lift", "fvsp"),
            ("is_ptolemaic", "verify"),
            ("is_ptolemaic_via_icd", "verify"),
        ],
    )
    def test_every_stage_is_tagged(
        self, monkeypatch, tmp_path, capsys, name, stage, exc, detail
    ):
        monkeypatch.setattr(pipeline, name, _raise(exc))
        gr = tmp_path / "g.gr"
        gr.write_text(format_graph(cycle_graph(5)))
        assert main(["solve", str(gr)]) == 3
        assert capsys.readouterr() == ("", f"error: [{stage}] {detail}\n")

    def test_library_raises_a_stage_error(self, monkeypatch):
        monkeypatch.setattr(pipeline, "hit_c4_gem", _raise(MemoryError()))
        with pytest.raises(StageError) as info:
            solve_ptolemaic_deletion(cycle_graph(5))
        assert info.value.stage == "hitting"
        assert isinstance(info.value.__cause__, MemoryError)

    def test_value_error_inside_a_stage_is_not_bad_input(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(pipeline, "linprog", _raise(ValueError("bad bounds")))
        gr = tmp_path / "g.gr"
        gr.write_text(format_graph(cycle_graph(4)))
        assert main(["solve", str(gr)]) == 3
        assert capsys.readouterr() == ("", "error: [hitting] ValueError: bad bounds\n")

    def test_lift_refusal_is_an_fvsp_failure(self, monkeypatch, tmp_path, capsys):
        # an FVSP answer that is not downward-closed: lift's own ValueError
        icd = build_icd(cycle_graph(5))
        x = next(x for x in range(icd.n_nodes) if icd.children[x])
        real = pipeline.solve_fvsp
        monkeypatch.setattr(
            pipeline, "solve_fvsp", lambda inst: dataclasses.replace(real(inst), deleted=(x,))
        )
        gr = tmp_path / "g.gr"
        gr.write_text(format_graph(cycle_graph(5)))
        assert main(["solve", str(gr)]) == 3
        line = (
            "error: [fvsp] ValueError: node set is not downward-closed: "
            f"{x} in, child {icd.children[x][0]} out\n"
        )
        assert capsys.readouterr() == ("", line)


class TestSolutionCorrespondence:
    """Graph deletion sets and lattice node sets translate both ways."""

    def _minimalize(self, g, sel):
        sel = set(sel)
        for v in sorted(sel):
            trial = sel - {v}
            remainder, _ = g.delete(trial)
            if is_ptolemaic(remainder)[0]:
                sel = trial
        return sel

    def test_minimal_solutions_map_to_closed_forest_sets(self):
        rng = random.Random(41)
        for _ in range(12):
            g = random_c4gem_free(
                rng, rng.randint(4, 8), rng.uniform(0.3, 0.6),
                weights=(0.5, 4.0), zero_weight_p=0.25,
            )
            opt_w, opt_set = exact_ptolemaic_deletion(g)
            sel = self._minimalize(g, opt_set)
            icd = build_icd(g)
            mapped = closure(icd, {icd.phi[v] for v in sel})
            # downward closed
            for x in mapped:
                assert all(c in mapped for c in icd.children[x])
            # forest remainder
            inst = FvspInstance(icd.n_nodes, icd.arcs, icd.node_weights)
            assert remainder_is_forest(inst, mapped)
            # equal weight
            assert sum(icd.node_weights[x] for x in mapped) == pytest.approx(
                g.weight_of(sel), abs=1e-9
            )
            # canonical cliques of chosen vertices are fully chosen
            for v in sel:
                assert set(icd.cliques[icd.phi[v]]) <= sel

    def test_closed_forest_sets_lift_to_solutions(self):
        rng = random.Random(43)
        for _ in range(8):
            g = random_c4gem_free(rng, rng.randint(3, 7), rng.uniform(0.3, 0.6))
            icd = build_icd(g)
            inst = FvspInstance(icd.n_nodes, icd.arcs, icd.node_weights)
            for sel in downward_closed_sets(inst, cap=4096):
                if not remainder_is_forest(inst, sel):
                    continue
                lifted = lift(icd, sel)
                remainder, _ = g.delete(lifted)
                assert is_ptolemaic(remainder)[0]
                assert g.weight_of(lifted) == pytest.approx(
                    sum(icd.node_weights[x] for x in sel), abs=1e-9
                )


def _load_tracer():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    return tracer_mod


class TestBenchmarkTracer:
    def test_install_finds_every_name_and_unpatch_restores_it(self):
        # perfbench/tracer.py wraps module-level names by getattr, so renaming
        # or dropping one of them breaks the benchmark's traced runs
        from ptodel import cli, graphs, lattice

        tracer_mod = _load_tracer()
        modules = (cli, fvsp, graphs, lattice, pipeline)
        before = [dict(vars(m)) for m in modules]
        tracer = tracer_mod.Tracer()
        try:
            tracer_mod.install(tracer)
            patched = {
                (m.__name__, k)
                for m, old in zip(modules, before)
                for k, v in vars(m).items()
                if old[k] is not v
            }
            assert ("ptodel.fvsp", "derandomize") in patched
            assert ("ptodel.fvsp", "round_at") in patched
        finally:
            tracer.unpatch()
        for m, old in zip(modules, before):
            now = vars(m)
            assert now.keys() == old.keys()
            assert [k for k in old if now[k] is not old[k]] == [], m.__name__

    def test_fvsp_lp_counts_match_the_model(self):
        # the LP hook reads c from linprog's first positional argument and
        # counts the dense A_ub / A_eq it is given, so a change to the call
        # that the hook cannot read fails here
        import numpy as np

        g = fixture_graph("cycle5")
        model = fvsp.build_lp(reduce_to_fvsp(g)[1])
        assert len(model.kernel_arcs) > 0
        tracer = _load_tracer().Tracer()
        with tracer.patched():
            solve_ptolemaic_deletion(g)
        counts: dict[str, list[float]] = {}
        for _, name, value in tracer.counts:
            counts.setdefault(name, []).append(value)
        assert counts["fvsp.lp_cols"] == [len(model.c)]
        assert counts["fvsp.lp_rows"] == [model.a_ub.shape[0]]
        assert counts["fvsp.lp_nnz"] == [np.count_nonzero(model.a_ub)]
