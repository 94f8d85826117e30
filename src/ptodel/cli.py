"""Command-line surface: parse graphs and instances, run stages or the whole
pipeline, emit JSON/text/DOT, generate fixtures.

Exit codes: 0 success, 2 bad input (parse/config/budget), 3 any
failure inside a stage (tagged in the message).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional

from . import fixtures
from .fvsp import (
    parse_instance,
    solution_to_json,
    solve_fvsp,
    validate_instance,
    verify_fvsp_solution,
)
from .graphs import (
    MAX_HEADER_N,
    StageError,
    find_induced_c4,
    find_induced_gem,
    first_record_tag,
    format_graph,
    is_ptolemaic,
    parse_graph,
    run_stage,
)
from .lattice import (
    ORACLE_CLIQUE_BUDGET,
    brute_force_icd,
    build_icd,
    dump_icd,
    icd_to_dot,
)
from .oracle import (
    MAX_FVSP_NODES,
    MAX_GRAPH_VERTICES,
    exact_c4gem_hitting,
    exact_fvsp,
    exact_ptolemaic_deletion,
)
from .pipeline import result_to_json, solve_ptolemaic_deletion

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_STRUCTURE = 3


def _emit(obj: dict) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _read(path: str) -> str:
    # any unreadable path (missing, a directory, no permission) is bad input
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValueError(str(exc)) from exc


# Each handler takes the argparse namespace and parses its own options
# before it reads a file, so a bad option wins over a missing file.


def cmd_solve(args: argparse.Namespace) -> int:
    res = solve_ptolemaic_deletion(parse_graph(_read(args.input)))
    if args.fmt == "text":
        print(f"deleted {len(res.deleted)} vertices, weight {res.weight!r}")
        print("deleted:", " ".join(str(v) for v in res.deleted))
    else:
        _emit(result_to_json(res))
    return EXIT_OK


def cmd_icd(args: argparse.Namespace) -> int:
    if args.oracle and args.budget < 1:
        raise ValueError("budget must be positive")
    g = parse_graph(_read(args.input))
    if args.oracle:
        icd = brute_force_icd(g, args.budget)
    else:
        witness = run_stage("reduce", lambda: find_induced_c4(g) or find_induced_gem(g))
        if witness is not None:
            raise StageError(
                "reduce", f"input is not (C4, gem)-free; obstruction: {list(witness)}"
            )
        icd = run_stage("reduce", build_icd, g)
    if args.fmt == "dot":
        print(icd_to_dot(icd), end="")
    else:
        print(dump_icd(icd), end="")
    return EXIT_OK


def cmd_fvsp(args: argparse.Namespace) -> int:
    sol = run_stage("fvsp", solve_fvsp, parse_instance(_read(args.input)))
    if args.fmt == "text":
        print(f"deleted {len(sol.deleted)} nodes, weight {sol.weight!r}, theta {sol.theta!r}")
    else:
        _emit(solution_to_json(sol))
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    kind = args.kind
    if args.budget is not None and args.budget < 1:
        raise ValueError("budget bounds must be positive")
    if kind == "fvsp":
        inst = parse_instance(_read(args.input))
        weight, nodes = exact_fvsp(inst, args.budget or MAX_FVSP_NODES)
        _emit({"kind": kind, "weight": weight, "deleted": list(nodes)})
        return EXIT_OK
    solver = exact_ptolemaic_deletion if kind == "pd" else exact_c4gem_hitting
    g = parse_graph(_read(args.input))
    weight, vertices = solver(g, args.budget or MAX_GRAPH_VERTICES)
    _emit({"kind": kind, "weight": weight, "deleted": list(vertices)})
    return EXIT_OK


def _deleted_ids(solution: object, n: int) -> list[int]:
    """The deleted ids of a solution file: a JSON list, or an object whose
    ``deleted`` key holds one, of distinct integer ids in [0, n)."""
    if isinstance(solution, dict):
        solution = solution.get("deleted")
    if not isinstance(solution, list):
        raise ValueError('solution must be a list of ids or {"deleted": [...]}')
    for v in solution:
        if type(v) is not int or not 0 <= v < n:  # bool is an int subclass
            raise ValueError(f"solution id {v!r} is not an integer in [0, {n})")
    if len(set(solution)) != len(solution):
        raise ValueError("solution lists an id more than once")
    return solution


def cmd_check(args: argparse.Namespace) -> int:
    text = _read(args.input)
    try:
        solution = json.loads(_read(args.solution))
    except RecursionError:  # a bad input, like any other malformed JSON
        raise ValueError("solution nests JSON too deeply") from None
    if first_record_tag(text) == "d":
        inst = parse_instance(text)
        violation = run_stage("fvsp", validate_instance, inst)
        if violation is not None:
            raise StageError("fvsp", f"invalid instance: {violation}")
        deleted = _deleted_ids(solution, inst.n)
        bad = run_stage("fvsp", verify_fvsp_solution, inst, deleted)
        _emit(
            {
                "feasible": bad is None,
                "reason": None if bad is None else str(bad),
                "weight": inst.weight_of(deleted),
            }
        )
        return EXIT_OK
    g = parse_graph(text)
    deleted = _deleted_ids(solution, g.n)
    remainder, old_ids = run_stage("verify", g.delete, deleted)
    ok, obstruction = run_stage("verify", is_ptolemaic, remainder)
    _emit(
        {
            "feasible": ok,
            "reason": None if ok else "not ptolemaic",
            "witness": None if ok else [old_ids[v] for v in obstruction],
            "weight": g.weight_of(deleted),
        }
    )
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    weights = None
    if args.weights:
        parts = args.weights.split(",")
        if len(parts) != 2:
            raise ValueError(f"--weights must be 'lo,hi': {args.weights!r}")
        lo, hi = (float(t) for t in parts)
        if not lo <= hi:
            raise ValueError(f"--weights must have lo <= hi: {args.weights!r}")
        weights = (lo, hi)
    if args.fixture:
        g = fixtures.fixture_graph(args.fixture)
    else:
        if not 0.0 <= args.p <= 1.0:
            raise ValueError(f"--p must lie in [0, 1]: {args.p!r}")
        if args.random > MAX_HEADER_N:
            raise ValueError(f"--random must be at most {MAX_HEADER_N}: {args.random}")
        g = fixtures.erdos_renyi(args.random, args.p, args.seed, weights)
    print(format_graph(g), end="")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a rejected argument as a ``ValueError``, so ``main`` prints it
    as one ``error: `` line and returns 2 like any other bad input.
    Subparsers inherit the class."""

    def error(self, message: str):
        raise ValueError(message)


# argparse keeps no per-parse state in the parser, so one serves every call;
# it is built on the first call, not at import
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="ptodel",
        description="approximate weighted ptolemaic vertex deletion",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the full deletion pipeline")
    p.add_argument("input")
    p.add_argument("--format", choices=["json", "text"], default="json", dest="fmt")

    p = sub.add_parser("icd", help="dump the inter-clique digraph")
    p.add_argument("input")
    p.add_argument("--oracle", action="store_true", help="use the brute-force construction")
    p.add_argument(
        "--budget",
        type=int,
        default=ORACLE_CLIQUE_BUDGET,
        help="cap on maximal cliques for --oracle",
    )
    p.add_argument("--format", choices=["text", "dot"], default="text", dest="fmt")

    p = sub.add_parser("fvsp", help="solve a feedback-vertex instance")
    p.add_argument("input")
    p.add_argument("--format", choices=["json", "text"], default="json", dest="fmt")

    p = sub.add_parser("oracle", help="exact reference solvers")
    p.add_argument("kind", choices=["pd", "fvsp", "hit"])
    p.add_argument("input")
    p.add_argument("--budget", type=int, help="size cap on the input")

    p = sub.add_parser("check", help="verify a solution file against an instance")
    p.add_argument("input")
    p.add_argument("--solution", required=True)

    p = sub.add_parser("gen", help="emit fixture or random graphs")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--fixture")
    group.add_argument("--random", type=int, metavar="N")
    p.add_argument("--p", type=float, default=0.3)
    p.add_argument(
        "--weights", default=None, help="lo,hi for uniform random weights"
    )
    p.add_argument("--seed", type=int, default=0)
    return ap


_HANDLERS = {
    "solve": cmd_solve,
    "icd": cmd_icd,
    "fvsp": cmd_fvsp,
    "oracle": cmd_oracle,
    "check": cmd_check,
    "gen": cmd_gen,
}


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _HANDLERS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURE


if __name__ == "__main__":
    sys.exit(main())
