"""Command-line behavior: formats, exit codes, determinism."""

import argparse
import json
import random
import re
import time
from types import SimpleNamespace

import pytest

from generators import complete_multipartite, random_graph
from ptodel import cli, fvsp, graphs, pipeline
from ptodel.cli import build_parser, main
from ptodel.fixtures import cycle_graph, fixture_graph, path_graph
from ptodel.graphs import MAX_HEADER_N, MAX_WEIGHT, format_graph, parse_graph
from ptodel.fvsp import FvspInstance, format_instance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


ST_TEXT = format_instance(FvspInstance(4, [(0, 2), (1, 2), (1, 3), (0, 3)], [1.0] * 4))


class TestSolve:
    def test_p4_empty(self, tmp_path, capsys):
        path = write(tmp_path, "p4.gr", format_graph(path_graph(4)))
        code, out, _ = run(capsys, "solve", path)
        assert code == 0
        res = json.loads(out)
        assert res["deleted"] == [] and res["weight"] == 0.0
        assert res["verification"] == {
            "lattice_forest": True,
            "obstruction_free": True,
        }

    def test_c5_weight_one(self, tmp_path, capsys):
        path = write(tmp_path, "c5.gr", format_graph(cycle_graph(5)))
        code, out, _ = run(capsys, "solve", path)
        assert code == 0
        res = json.loads(out)
        assert res["weight"] == 1.0 and len(res["deleted"]) == 1

    def test_malformed_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "bad.gr", "p x\n")
        code, _, err = run(capsys, "solve", path)
        assert code == 2 and "error" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, "solve", "/nonexistent/graph.gr")
        assert code == 2

    def test_directory_input_exits_2(self, tmp_path, capsys):
        code, out, err = run(capsys, "solve", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_text_format(self, tmp_path, capsys):
        path = write(tmp_path, "c5.gr", format_graph(cycle_graph(5)))
        code, out, _ = run(capsys, "solve", path, "--format", "text")
        assert code == 0 and out.startswith("deleted 1 vertices")

    def test_determinism(self, tmp_path, capsys):
        g = random_graph(random.Random(5), 8, 0.4, weights=(0.0, 10.0))
        path = write(tmp_path, "g.gr", format_graph(g))
        _, out1, _ = run(capsys, "solve", path)
        _, out2, _ = run(capsys, "solve", path)
        assert out1 == out2


class TestIcd:
    def test_diamond_dump(self, tmp_path, capsys):
        path = write(tmp_path, "d.gr", format_graph(fixture_graph("diamond")))
        code, out, _ = run(capsys, "icd", path, "--format", "text")
        lines = out.splitlines()
        assert code == 0
        assert sum(1 for ln in lines if ln.startswith("node ")) == 3
        assert sum(1 for ln in lines if ln.startswith("arc ")) == 2

    def test_c5_dump(self, tmp_path, capsys):
        path = write(tmp_path, "c5.gr", format_graph(cycle_graph(5)))
        code, out, _ = run(capsys, "icd", path, "--format", "text")
        lines = out.splitlines()
        assert code == 0
        assert sum(1 for ln in lines if ln.startswith("node ")) == 10
        assert sum(1 for ln in lines if ln.startswith("arc ")) == 10

    def test_c4_needs_oracle_flag(self, tmp_path, capsys):
        path = write(tmp_path, "c4.gr", format_graph(cycle_graph(4)))
        code, _, err = run(capsys, "icd", path)
        assert code == 3 and "obstruction" in err
        code, out, _ = run(capsys, "icd", path, "--oracle", "--format", "text")
        assert code == 0
        assert sum(1 for ln in out.splitlines() if ln.startswith("node ")) == 8

    def test_dot(self, tmp_path, capsys):
        path = write(tmp_path, "d.gr", format_graph(fixture_graph("diamond")))
        code, out, _ = run(capsys, "icd", path, "--format", "dot")
        assert code == 0 and out.startswith("digraph")

    def test_default_format_is_text(self, tmp_path, capsys):
        path = write(tmp_path, "d.gr", format_graph(fixture_graph("diamond")))
        assert run(capsys, "icd", path) == run(capsys, "icd", path, "--format", "text")

    @pytest.mark.parametrize("budget", ["1", "0"])
    def test_oracle_budget_exit_2(self, tmp_path, capsys, budget):
        path = write(tmp_path, "c5.gr", format_graph(cycle_graph(5)))
        code, out, err = run(capsys, "icd", path, "--oracle", "--budget", budget)
        assert (code, out) == (2, "")
        if budget == "0":
            assert err == "error: budget must be positive\n"
        else:
            assert err == (
                "error: more than 1 maximal cliques on 5 vertices exceeds the oracle budget\n"
            )

    def test_oracle_refuses_before_it_enumerates(self, tmp_path, capsys):
        # K(3,...,3) on 60 vertices has 3^20 maximal cliques: listing them
        # all would not fit in memory
        path = write(tmp_path, "k3x20.gr", format_graph(complete_multipartite(20, 3)))
        assert run(capsys, "icd", path, "--oracle") == (
            2,
            "",
            "error: more than 20 maximal cliques on 60 vertices exceeds the oracle budget\n",
        )

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_oracle_budget_must_be_positive_on_empty_graph(self, tmp_path, capsys, budget):
        # p 0 0 has no maximal clique, so no count can exceed the budget
        path = write(tmp_path, "empty.gr", "p 0 0\n")
        code, out, err = run(capsys, "icd", path, "--oracle", "--budget", budget)
        assert (code, out, err) == (2, "", "error: budget must be positive\n")

    def test_bad_budget_wins_over_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.gr")
        code, out, err = run(capsys, "icd", missing, "--oracle", "--budget", "0")
        assert (code, out, err) == (2, "", "error: budget must be positive\n")
        # without --oracle the budget is not read
        code, out, err = run(capsys, "icd", missing, "--budget", "0")
        assert (code, out) == (2, "") and "No such file or directory" in err


class TestFvsp:
    def test_forest(self, tmp_path, capsys):
        inst = FvspInstance(3, [(0, 1), (0, 2)], [1.0] * 3)
        path = write(tmp_path, "f.fv", format_instance(inst))
        code, out, _ = run(capsys, "fvsp", path)
        assert code == 0 and json.loads(out)["weight"] == 0.0

    def test_st_weight_one(self, tmp_path, capsys):
        path = write(tmp_path, "st.fv", ST_TEXT)
        code, out, _ = run(capsys, "fvsp", path)
        res = json.loads(out)
        assert code == 0 and res["weight"] == 1.0
        assert set(res["stages"]) == {"step1", "step3", "cleanup"}

    def test_malformed_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "bad.fv", "d x\n")
        code, out, err = run(capsys, "fvsp", path)
        assert (code, out) == (2, "") and err.startswith("error: line 1: 'd x'")

    def test_negative_node_count_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "neg.fv", "d -1 0\n")
        assert run(capsys, "fvsp", path) == (2, "", "error: node count must be nonnegative\n")

    def test_invalid_dag_exit_3(self, tmp_path, capsys):
        inst = FvspInstance(4, [(0, 1), (0, 2), (1, 3), (2, 3)], [1.0] * 4)
        path = write(tmp_path, "bad.fv", format_instance(inst))
        code, _, err = run(capsys, "fvsp", path)
        assert code == 3 and "node 3" in err


class TestOracleCommands:
    def test_pd_on_c5(self, tmp_path, capsys):
        path = write(tmp_path, "c5.gr", format_graph(cycle_graph(5)))
        code, out, _ = run(capsys, "oracle", "pd", path)
        assert code == 0 and json.loads(out)["weight"] == 1.0

    def test_hit_on_c4(self, tmp_path, capsys):
        path = write(tmp_path, "c4.gr", format_graph(cycle_graph(4)))
        code, out, _ = run(capsys, "oracle", "hit", path)
        assert code == 0 and json.loads(out)["weight"] == 1.0

    def test_fvsp_oracle(self, tmp_path, capsys):
        path = write(tmp_path, "st.fv", ST_TEXT)
        code, out, _ = run(capsys, "oracle", "fvsp", path)
        assert code == 0 and json.loads(out)["weight"] == 1.0

    def test_fvsp_oracle_on_many_disjoint_diamonds(self, tmp_path, capsys):
        # each weakly connected component is searched on its own, so 1,200
        # unit-weight diamonds (sinks 4i, 4i+1 under sources 4i+2, 4i+3) take
        # seconds; one search over their union ran for minutes
        k = 1200
        arcs = [(4 * i + s, 4 * i + t) for i in range(k) for s in (2, 3) for t in (0, 1)]
        path = write(tmp_path, "diamonds.fv", format_instance(FvspInstance(4 * k, arcs, [1.0] * (4 * k))))
        code, out, _ = run(capsys, "oracle", "fvsp", path, "--budget", str(4 * k))
        res = json.loads(out)
        assert code == 0 and res["weight"] == 1200.0
        assert res["deleted"] == [4 * i for i in range(k)]

    def test_budget_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "c5.gr", format_graph(cycle_graph(5)))
        code, _, _ = run(capsys, "oracle", "pd", path, "--budget", "3")
        assert code == 2

    def test_zero_budget_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "c5.gr", format_graph(cycle_graph(5)))
        code, out, err = run(capsys, "oracle", "pd", path, "--budget", "0")
        assert (code, out, err) == (2, "", "error: budget bounds must be positive\n")

    @pytest.mark.parametrize("kind", ["pd", "fvsp"])
    def test_bad_budget_wins_over_missing_file(self, tmp_path, capsys, kind):
        missing = str(tmp_path / "missing.gr")
        code, out, err = run(capsys, "oracle", kind, missing, "--budget", "0")
        assert (code, out, err) == (2, "", "error: budget bounds must be positive\n")


class TestCheck:
    def test_empty_solution_on_c5(self, tmp_path, capsys):
        gpath = write(tmp_path, "c5.gr", format_graph(cycle_graph(5)))
        spath = write(tmp_path, "sol.json", json.dumps({"deleted": []}))
        code, out, _ = run(capsys, "check", gpath, "--solution", spath)
        res = json.loads(out)
        assert code == 0
        assert res["feasible"] is False and res["reason"] == "not ptolemaic"
        assert len(res["witness"]) >= 4

    def test_single_vertex_fixes_c5(self, tmp_path, capsys):
        gpath = write(tmp_path, "c5.gr", format_graph(cycle_graph(5)))
        spath = write(tmp_path, "sol.json", json.dumps({"deleted": [0]}))
        code, out, _ = run(capsys, "check", gpath, "--solution", spath)
        res = json.loads(out)
        assert code == 0 and res["feasible"] is True and res["weight"] == 1.0

    def test_fvsp_check(self, tmp_path, capsys):
        ipath = write(tmp_path, "st.fv", ST_TEXT)
        spath = write(tmp_path, "sol.json", json.dumps({"deleted": [2]}))
        code, out, _ = run(capsys, "check", ipath, "--solution", spath)
        assert code == 0 and json.loads(out)["feasible"] is True
        spath = write(tmp_path, "sol2.json", json.dumps({"deleted": [0]}))
        code, out, _ = run(capsys, "check", ipath, "--solution", spath)
        assert code == 0 and json.loads(out)["feasible"] is False

    def test_bare_list_solution(self, tmp_path, capsys):
        gpath = write(tmp_path, "c5.gr", format_graph(cycle_graph(5)))
        spath = write(tmp_path, "sol.json", json.dumps([0]))
        code, out, _ = run(capsys, "check", gpath, "--solution", spath)
        res = json.loads(out)
        assert code == 0 and res["feasible"] is True and res["weight"] == 1.0

    @pytest.mark.parametrize(
        "solution",
        [[7], ["1"], [-1], [1, 1], [True], [1.0], {}, {"vertices": [0]}, "0", None],
    )
    def test_bad_solution_exits_2(self, tmp_path, capsys, solution):
        gpath = write(tmp_path, "c5.gr", format_graph(cycle_graph(5)))
        spath = write(tmp_path, "sol.json", json.dumps(solution))
        code, out, err = run(capsys, "check", gpath, "--solution", spath)
        assert code == 2 and out == "" and err.startswith("error: solution")

    @pytest.mark.parametrize("deleted", [[4], [-1], [2, 2], [False], 2])
    def test_bad_fvsp_solution_exits_2(self, tmp_path, capsys, deleted):
        ipath = write(tmp_path, "st.fv", ST_TEXT)
        spath = write(tmp_path, "sol.json", json.dumps({"deleted": deleted}))
        code, out, err = run(capsys, "check", ipath, "--solution", spath)
        assert code == 2 and out == "" and err.startswith("error: solution")

    @pytest.mark.parametrize(
        "text", ["  # note\nd 2 1\na 0 1\n", "d 2 1 # c\na 0 1\n"]
    )
    def test_fvsp_format_read_past_comments(self, tmp_path, capsys, text):
        ipath = write(tmp_path, "two.fv", text)
        spath = write(tmp_path, "sol.json", "[]")
        code, out, err = run(capsys, "check", ipath, "--solution", spath)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"feasible": True, "reason": None, "weight": 0.0}

    def test_directory_solution_exits_2(self, tmp_path, capsys):
        gpath = write(tmp_path, "c5.gr", format_graph(cycle_graph(5)))
        code, out, err = run(capsys, "check", gpath, "--solution", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_weight_does_not_depend_on_listed_order(self, tmp_path, capsys):
        gpath = write(tmp_path, "three.gr", "p 3 0\nv 0 0.1\nv 1 0.2\nv 2 0.3\n")
        weights = []
        for order in ([0, 1, 2], [2, 1, 0]):
            spath = write(tmp_path, "sol.json", json.dumps(order))
            code, out, _ = run(capsys, "check", gpath, "--solution", spath)
            assert code == 0
            weights.append(json.loads(out)["weight"])
        assert weights == [0.1 + 0.2 + 0.3] * 2

    def test_invalid_fvsp_instance_exits_3_as_fvsp_does(self, tmp_path, capsys):
        ipath = write(tmp_path, "cyc.fv", "d 3 3\na 0 1\na 1 2\na 2 0\n")
        spath = write(tmp_path, "sol.json", json.dumps([0, 1, 2]))
        line = "error: [fvsp] invalid instance: cycle at node 0\n"
        assert run(capsys, "check", ipath, "--solution", spath) == (3, "", line)
        assert run(capsys, "fvsp", ipath) == (3, "", line)

    def test_deeply_nested_solution_exits_2(self, tmp_path, capsys):
        gpath = write(tmp_path, "c5.gr", format_graph(cycle_graph(5)))
        spath = write(tmp_path, "deep.json", "[" * 200_000)
        code, out, err = run(capsys, "check", gpath, "--solution", spath)
        assert (code, out, err) == (2, "", "error: solution nests JSON too deeply\n")

    def test_solution_not_json_exits_2(self, tmp_path, capsys):
        gpath = write(tmp_path, "c5.gr", format_graph(cycle_graph(5)))
        spath = write(tmp_path, "sol.json", "deleted: 0\n")
        code, out, err = run(capsys, "check", gpath, "--solution", spath)
        assert (code, out) == (2, "") and err.startswith("error: Expecting value")

    def test_long_hole_witness(self, tmp_path, capsys):
        gpath = write(tmp_path, "c2000.gr", format_graph(cycle_graph(2000)))
        spath = write(tmp_path, "sol.json", json.dumps({"deleted": []}))
        code, out, _ = run(capsys, "check", gpath, "--solution", spath)
        res = json.loads(out)
        assert code == 0 and res["feasible"] is False
        assert res["witness"] == list(range(2000))


class TestGen:
    def test_fixture_gem(self, capsys):
        code, out, _ = run(capsys, "gen", "--fixture", "gem")
        assert code == 0
        assert parse_graph(out) == fixture_graph("gem")

    def test_all_fixture_names(self, capsys):
        for name in ["diamond", "gem", "house", "domino", "bull", "dart", "cycle5"]:
            code, out, _ = run(capsys, "gen", "--fixture", name)
            assert code == 0 and parse_graph(out).n >= 3

    def test_bad_weights_exit_2(self, capsys):
        code, out, err = run(capsys, "gen", "--random", "6", "--weights", "1,x")
        assert (code, out) == (2, "")
        assert err == "error: could not convert string to float: 'x'\n"

    @pytest.mark.parametrize(
        "extra, line",
        [
            (["--p", "2"], "--p must lie in [0, 1]: 2.0"),
            (["--p", "-0.1"], "--p must lie in [0, 1]: -0.1"),
            (["--p", "nan"], "--p must lie in [0, 1]: nan"),
            (["--weights", "5,1"], "--weights must have lo <= hi: '5,1'"),
            (["--weights", "nan,1"], "--weights must have lo <= hi: 'nan,1'"),
            (["--weights", "1,2,3"], "--weights must be 'lo,hi': '1,2,3'"),
            (["--weights", "7"], "--weights must be 'lo,hi': '7'"),
        ],
    )
    def test_bad_random_options_exit_2(self, capsys, extra, line):
        code, out, err = run(capsys, "gen", "--random", "6", *extra)
        assert (code, out, err) == (2, "", f"error: {line}\n")

    def test_random_above_the_header_cap_exit_2(self, capsys):
        # refused before any edge is drawn: the generator draws about N²/2 times
        start = time.perf_counter()
        code, out, err = run(capsys, "gen", "--random", str(MAX_HEADER_N + 1))
        assert (code, out, err) == (2, "", f"error: --random must be at most 1000000: {MAX_HEADER_N + 1}\n")
        assert time.perf_counter() - start < 1

    def test_unknown_fixture_exit_2(self, capsys):
        code, _, err = run(capsys, "gen", "--fixture", "nonsense")
        assert code == 2 and "unknown fixture" in err

    def test_random_seeded_deterministic(self, capsys):
        code, out1, _ = run(capsys, "gen", "--random", "9", "--p", "0.4", "--seed", "7")
        _, out2, _ = run(capsys, "gen", "--random", "9", "--p", "0.4", "--seed", "7")
        assert code == 0 and out1 == out2
        g = parse_graph(out1)
        assert g.n == 9

    def test_random_with_weights(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--random", "6", "--p", "0.5", "--seed", "3",
            "--weights", "0,10",
        )
        g = parse_graph(out)
        assert code == 0 and any(w != 1.0 for w in g.weights)


@pytest.mark.parametrize(
    "command, text, line",
    [
        ("solve", "p 3 2 9\ne 0 1\ne 1 2\n", 1),
        ("solve", "p 2 1\nv 0 2.5 junk\ne 0 1\n", 2),
        ("solve", "p 2 1\ne 0 1 7\n", 2),
        ("fvsp", "d 2 1 9\na 0 1\n", 1),
        ("fvsp", "d 2 1\nn 0 2.5 junk\na 0 1\n", 2),
        ("fvsp", "d 2 1\na 0 1 7\n", 2),
    ],
)
def test_trailing_tokens_exit_2(tmp_path, capsys, command, text, line):
    raw = text.splitlines()[line - 1]
    path = write(tmp_path, "in.txt", text)
    assert run(capsys, command, path) == (
        2,
        "",
        f"error: line {line}: {raw!r}: more than 3 tokens\n",
    )
    # the same file without the extra token is read
    path = write(tmp_path, "ok.txt", text.replace(raw, " ".join(raw.split()[:3])))
    assert run(capsys, command, path)[0] == 0


@pytest.mark.parametrize(
    "command, text, noun",
    [("solve", "p 1000000000 0\n", "vertex"), ("fvsp", "d 1000000000 0\n", "node")],
)
def test_header_over_the_cap_exits_2(tmp_path, capsys, command, text, noun):
    # rejected from the header, before anything n-sized is built
    path = write(tmp_path, "in.txt", text)
    line = f"error: line 1: {noun} count 1000000000 exceeds {MAX_HEADER_N}\n"
    assert run(capsys, command, path) == (2, "", line)


C4_HEAVY_GR = (
    "p 4 4\nv 0 1e20\nv 1 1e20\nv 2 1e20\nv 3 1e20\n"
    "e 0 1\ne 1 2\ne 2 3\ne 0 3\n"
)
HEAVY_FV = "d 2 1\nn 0 1e308\nn 1 1e308\na 0 1\n"


@pytest.mark.parametrize(
    "command, text, noun",
    [
        ("solve", C4_HEAVY_GR, "vertex"),
        ("fvsp", HEAVY_FV, "node"),
        ("check", HEAVY_FV, "node"),
    ],
)
def test_weight_over_the_cap_exits_2(tmp_path, capsys, command, text, noun):
    # a 1e20 weight made the hitting LP fail (HiGHS reads it as infinite),
    # and two 1e308 weights made `check` print "weight": Infinity
    argv = [command, write(tmp_path, "in.txt", text)]
    if command == "check":
        argv += ["--solution", write(tmp_path, "sol.json", "[0, 1]")]
    line = f"error: {noun} weights must be at most {MAX_WEIGHT:g}\n"
    assert run(capsys, *argv) == (2, "", line)


def _lp_refused(*args, **kwargs):
    return SimpleNamespace(success=False, message="refused")


CYCLIC_FV = "d 3 3\na 0 1\na 1 2\na 2 0\n"
C5_GR = format_graph(cycle_graph(5))


# every path to exit 3: (argv after the input, input, solution, patches, stage)
EXIT_3_PATHS = {
    "fvsp-invalid-instance": (["fvsp"], CYCLIC_FV, None, [], "fvsp"),
    "check-invalid-instance": (["check"], CYCLIC_FV, "[0, 1, 2]", [], "fvsp"),
    "icd-gem": (["icd"], format_graph(fixture_graph("gem")), None, [], "reduce"),
    "solve-hitting-lp-refused": (
        ["solve"], format_graph(cycle_graph(4)), None,
        [(pipeline, "linprog", _lp_refused)], "hitting",
    ),
    "solve-fvsp-lp-refused": (
        ["solve"], C5_GR, None, [(fvsp, "linprog", _lp_refused)], "fvsp"
    ),
    "check-hole-search-disagrees": (
        ["check"], C5_GR, "[]", [(graphs, "_shortest_hole", lambda g: None)], "verify"
    ),
    "solve-verify": (
        ["solve"], C5_GR, None, [(pipeline, "lift", lambda icd, nodes: ())], "verify"
    ),
}


@pytest.mark.parametrize("case", EXIT_3_PATHS)
def test_every_exit_3_is_one_tagged_line(tmp_path, capsys, monkeypatch, case):
    argv, text, solution, patches, stage = EXIT_3_PATHS[case]
    argv = argv + [write(tmp_path, "in.txt", text)]
    if solution is not None:
        argv += ["--solution", write(tmp_path, "sol.json", solution)]
    for module, name, value in patches:
        monkeypatch.setattr(module, name, value)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "") and err.count("\n") == 1
    assert re.match(r"^error: \[(hitting|reduce|fvsp|verify)\] \S", err), err
    assert err.startswith(f"error: [{stage}] ")


# each stage entry a command calls: (name in cli, argv, input, solution, stage)
CLI_STAGES = {
    "solve_fvsp": (["fvsp"], ST_TEXT, None, "fvsp"),
    "build_icd": (["icd"], C5_GR, None, "reduce"),
    "is_ptolemaic": (["check"], C5_GR, "[]", "verify"),
    "validate_instance": (["check"], ST_TEXT, "[]", "fvsp"),
    "verify_fvsp_solution": (["check"], ST_TEXT, "[]", "fvsp"),
}


@pytest.mark.parametrize(
    "exc, detail", [(MemoryError(), "MemoryError"), (ValueError("x"), "ValueError: x")]
)
@pytest.mark.parametrize("name", CLI_STAGES)
def test_any_failure_in_a_stage_exits_3(tmp_path, capsys, monkeypatch, name, exc, detail):
    # a ValueError raised inside a stage is a failure of that stage, not bad input
    argv, text, solution, stage = CLI_STAGES[name]
    argv = argv + [write(tmp_path, "in.txt", text)]
    if solution is not None:
        argv += ["--solution", write(tmp_path, "sol.json", solution)]

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, name, fail)
    assert run(capsys, *argv) == (3, "", f"error: [{stage}] {detail}\n")


class TestOptions:
    # each subcommand takes exactly the flags its handler reads
    OPTIONS = {
        "solve": ["--format"],
        "icd": ["--budget", "--format", "--oracle"],
        "fvsp": ["--format"],
        "oracle": ["--budget"],
        "check": ["--solution"],
        "gen": ["--fixture", "--p", "--random", "--seed", "--weights"],
    }
    FORMATS = {"solve": ["json", "text"], "icd": ["text", "dot"], "fvsp": ["json", "text"]}
    # a valid call of each subcommand, up to its options; argparse rejects
    # the extra flag before any file is read
    CALLS = {
        "solve": ["solve", "g.gr"],
        "icd": ["icd", "g.gr"],
        "fvsp": ["fvsp", "i.fv"],
        "oracle": ["oracle", "pd", "g.gr"],
        "check": ["check", "g.gr", "--solution", "s.json"],
        "gen": ["gen", "--fixture", "gem"],
    }

    def test_option_strings(self):
        (subparsers,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        options, formats = {}, {}
        for name, p in subparsers.choices.items():
            options[name] = sorted(
                s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")
            )
            formats.update({name: a.choices for a in p._actions if a.dest == "fmt"})
        assert options == self.OPTIONS and formats == self.FORMATS
        assert sum(map(len, options.values())) == 12

    @pytest.mark.parametrize(
        "command, extra, named",
        [
            ("solve", ["--budget", "3"], "--budget"),
            ("solve", ["--seed", "1"], "--seed"),
            ("solve", ["--format", "dot"], "invalid choice: 'dot'"),
            ("icd", ["--params", "0.02,0.52,0.6"], "--params"),
            ("icd", ["--seed", "1"], "--seed"),
            ("icd", ["--format", "json"], "invalid choice: 'json'"),
            ("fvsp", ["--budget", "3"], "--budget"),
            ("fvsp", ["--seed", "1"], "--seed"),
            ("fvsp", ["--format", "dot"], "invalid choice: 'dot'"),
            ("oracle", ["--seed", "1"], "--seed"),
            ("oracle", ["--format", "json"], "--format"),
            ("check", ["--budget", "3"], "--budget"),
            ("check", ["--seed", "1"], "--seed"),
            ("check", ["--format", "json"], "--format"),
            ("gen", ["--budget", "3"], "--budget"),
            ("gen", ["--format", "json"], "--format"),
            # the rounding constants are fixed (fvsp.EPSILON, ALPHA, BETA)
            ("solve", ["--params", "0.02,0.52,0.6"], "--params"),
            ("fvsp", ["--params", "0.02,0.52,0.6"], "--params"),
        ],
    )
    def test_removed_option_exits_2(self, capsys, command, extra, named):
        code, out, err = run(capsys, *self.CALLS[command], *extra)
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert err.startswith("error: ") and named in err, err

    @pytest.mark.parametrize(
        "argv, line",
        [
            ([], "error: the following arguments are required: command\n"),
            (
                ["gen", "--fixture", "gem", "--random", "3"],
                "error: argument --random: not allowed with argument --fixture\n",
            ),
        ],
    )
    def test_rejected_arguments_are_one_error_line(self, capsys, argv, line):
        assert run(capsys, *argv) == (2, "", line)

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: ptodel ")


class TestSharedParser:
    # after each call that sets an option or is rejected, one that leaves it
    # at its default
    CALLS = [
        ["gen", "--random", "6", "--p", "0.5", "--seed", "3"],
        ["gen", "--fixture", "gem"],
        ["gen", "--fixture", "gem", "--random", "3"],
        ["icd", "g.gr", "--oracle", "--budget", "1"],
        ["icd", "g.gr", "--oracle"],
        ["solve", "g.gr", "--bogus"],
        ["solve", "g.gr"],
        ["oracle", "pd", "g.gr", "--budget", "3"],
        ["oracle", "pd", "g.gr"],
    ]

    def test_one_parser_carries_nothing_between_calls(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "g.gr", format_graph(fixture_graph("gem")))
        assert build_parser() is build_parser()
        shared = [run(capsys, *argv) for argv in self.CALLS]
        fresh = []
        for argv in self.CALLS:
            build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 2, 2, 0, 2, 0, 2, 0]

    def test_two_calls_build_one_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for _ in range(2):
            assert run(capsys, "gen", "--fixture", "gem")[0] == 0
        # the root parser and one subparser per command, built once
        assert len(built) == 7


class TestSubprocess:
    def test_module_entry_point(self, tmp_path):
        import subprocess
        import sys

        path = write(tmp_path, "c5.gr", format_graph(cycle_graph(5)))
        proc = subprocess.run(
            [sys.executable, "-m", "ptodel.cli", "solve", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["weight"] == 1.0

    def test_cross_process_determinism(self, tmp_path):
        import subprocess
        import sys

        g = random_graph(random.Random(9), 9, 0.5, weights=(0.0, 10.0))
        path = write(tmp_path, "g.gr", format_graph(g))
        outs = [
            subprocess.run(
                [sys.executable, "-m", "ptodel.cli", "solve", path],
                capture_output=True,
                text=True,
            ).stdout
            for _ in range(2)
        ]
        assert outs[0] == outs[1] and outs[0]


class TestRoundTrips:
    def test_fixtures_and_random(self):
        graphs = [fixture_graph(n) for n in ["diamond", "gem", "house", "domino", "bull", "dart"]]
        rng = random.Random(71)
        graphs += [
            random_graph(rng, rng.randint(0, 10), 0.4, weights=(0.0, 9.0))
            for _ in range(100)
        ]
        for g in graphs:
            assert parse_graph(format_graph(g)) == g
