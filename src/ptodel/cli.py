"""Command-line surface: parse graphs and instances, run stages or the whole
pipeline, emit JSON/text/DOT, generate fixtures.

Exit codes: 0 success, 2 bad input (parse/config/budget), 3 structural
failure inside a stage (tagged in the message).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import fixtures
from .fvsp import (
    DEFAULT_PARAMS,
    FvspFormatError,
    LpSolveError,
    RoundingParams,
    StructureError,
    parse_instance,
    solution_to_json,
    solve_fvsp,
    validate_instance,
    verify_fvsp_solution,
)
from .graphs import (
    GraphFormatError,
    find_induced_c4,
    find_induced_gem,
    format_graph,
    is_ptolemaic,
    parse_graph,
)
from .lattice import (
    BruteForceBudgetError,
    IcdStructureError,
    brute_force_icd,
    build_icd,
    dump_icd,
    icd_to_dot,
)
from .oracle import (
    BudgetExceededError,
    OracleBudget,
    exact_c4gem_hitting,
    exact_fvsp,
    exact_ptolemaic_deletion,
)
from .pipeline import PipelineError, result_to_json, solve_ptolemaic_deletion

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_STRUCTURE = 3


@dataclass
class RunConfig:
    command: str
    input_path: Optional[str] = None
    params: RoundingParams = field(default_factory=RoundingParams)
    budget: Optional[int] = None
    seed: int = 0
    fmt: str = "json"
    use_oracle: bool = False
    extra: dict = field(default_factory=dict)


def _emit(obj: dict) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _parse_params(spec: Optional[str]) -> RoundingParams:
    if spec is None:
        return DEFAULT_PARAMS
    try:
        eps, alpha, beta = (float(t) for t in spec.split(","))
    except ValueError as exc:
        raise ValueError(f"--params must be 'eps,alpha,beta': {exc}") from exc
    return RoundingParams(epsilon=eps, alpha=alpha, beta=beta)


def _read(path: str) -> str:
    return Path(path).read_text()


def cmd_solve(cfg: RunConfig) -> int:
    g = parse_graph(_read(cfg.input_path))
    res = solve_ptolemaic_deletion(g, cfg.params)
    if cfg.fmt == "text":
        print(f"deleted {len(res.deleted)} vertices, weight {res.weight!r}")
        print("deleted:", " ".join(str(v) for v in res.deleted))
    else:
        _emit(result_to_json(res))
    return EXIT_OK


def cmd_icd(cfg: RunConfig) -> int:
    g = parse_graph(_read(cfg.input_path))
    if cfg.use_oracle:
        icd = brute_force_icd(g, cfg.budget if cfg.budget else 20)
    else:
        witness = find_induced_c4(g) or find_induced_gem(g)
        if witness is not None:
            print(
                f"input is not (C4, gem)-free; obstruction: {list(witness)}",
                file=sys.stderr,
            )
            return EXIT_STRUCTURE
        icd = build_icd(g)
    if cfg.fmt == "dot":
        print(icd_to_dot(icd), end="")
    else:
        print(dump_icd(icd), end="")
    return EXIT_OK


def cmd_fvsp(cfg: RunConfig) -> int:
    inst = parse_instance(_read(cfg.input_path))
    violation = validate_instance(inst)
    if violation is not None:
        print(f"invalid instance: {violation}", file=sys.stderr)
        return EXIT_STRUCTURE
    sol = solve_fvsp(inst, cfg.params)
    if cfg.fmt == "text":
        print(f"deleted {len(sol.deleted)} nodes, weight {sol.weight!r}, theta {sol.theta!r}")
    else:
        _emit(solution_to_json(sol))
    return EXIT_OK


def cmd_oracle(cfg: RunConfig) -> int:
    kind = cfg.extra["kind"]
    if kind == "fvsp":
        inst = parse_instance(_read(cfg.input_path))
        budget = OracleBudget(max_fvsp_nodes=cfg.budget) if cfg.budget else OracleBudget()
        weight, nodes = exact_fvsp(inst, budget)
        _emit({"kind": kind, "weight": weight, "deleted": list(nodes)})
        return EXIT_OK
    g = parse_graph(_read(cfg.input_path))
    budget = (
        OracleBudget(max_graph_vertices=cfg.budget) if cfg.budget else OracleBudget()
    )
    solver = exact_ptolemaic_deletion if kind == "pd" else exact_c4gem_hitting
    weight, vertices = solver(g, budget)
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


def cmd_check(cfg: RunConfig) -> int:
    text = _read(cfg.input_path)
    solution = json.loads(_read(cfg.extra["solution"]))
    header = next(
        (ln.split()[0] for ln in text.splitlines() if ln.strip() and not ln.startswith("#")),
        "",
    )
    if header == "d":
        inst = parse_instance(text)
        deleted = _deleted_ids(solution, inst.n)
        bad = verify_fvsp_solution(inst, deleted)
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
    remainder, old_ids = g.delete(deleted)
    ok, obstruction = is_ptolemaic(remainder)
    _emit(
        {
            "feasible": ok,
            "reason": None if ok else "not ptolemaic",
            "witness": None if ok else [old_ids[v] for v in obstruction],
            "weight": g.weight_of(deleted),
        }
    )
    return EXIT_OK


def cmd_gen(cfg: RunConfig) -> int:
    if cfg.extra.get("fixture"):
        g = fixtures.fixture_graph(cfg.extra["fixture"])
    else:
        n = cfg.extra["random_n"]
        p = cfg.extra["p"]
        g = fixtures.erdos_renyi(n, p, cfg.seed, cfg.extra.get("weights"))
    print(format_graph(g), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ptodel",
        description="approximate weighted ptolemaic vertex deletion",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_params=True):
        if with_params:
            p.add_argument("--params", help="eps,alpha,beta override", default=None)
        p.add_argument("--budget", type=int, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--format", choices=["json", "text", "dot"], default="json", dest="fmt"
        )

    p = sub.add_parser("solve", help="run the full deletion pipeline")
    p.add_argument("input")
    common(p)

    p = sub.add_parser("icd", help="dump the inter-clique digraph")
    p.add_argument("input")
    p.add_argument("--oracle", action="store_true", help="use the brute-force construction")
    common(p)

    p = sub.add_parser("fvsp", help="solve a feedback-vertex instance")
    p.add_argument("input")
    common(p)

    p = sub.add_parser("oracle", help="exact reference solvers")
    p.add_argument("kind", choices=["pd", "fvsp", "hit"])
    p.add_argument("input")
    common(p, with_params=False)

    p = sub.add_parser("check", help="verify a solution file against an instance")
    p.add_argument("input")
    p.add_argument("--solution", required=True)
    common(p, with_params=False)

    p = sub.add_parser("gen", help="emit fixture or random graphs")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--fixture")
    group.add_argument("--random", type=int, metavar="N")
    p.add_argument("--p", type=float, default=0.3)
    p.add_argument(
        "--weights", default=None, help="lo,hi for uniform random weights"
    )
    common(p, with_params=False)
    return ap


def _config_from(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(
        command=args.command,
        input_path=getattr(args, "input", None),
        params=_parse_params(getattr(args, "params", None)),
        budget=getattr(args, "budget", None),
        seed=getattr(args, "seed", 0),
        fmt=getattr(args, "fmt", "json"),
        use_oracle=getattr(args, "oracle", False),
    )
    if args.command == "oracle":
        cfg.extra["kind"] = args.kind
    if args.command == "check":
        cfg.extra["solution"] = args.solution
    if args.command == "gen":
        cfg.extra["fixture"] = args.fixture
        cfg.extra["random_n"] = args.random
        cfg.extra["p"] = args.p
        if args.weights:
            lo, hi = (float(t) for t in args.weights.split(","))
            cfg.extra["weights"] = (lo, hi)
    return cfg


_HANDLERS = {
    "solve": cmd_solve,
    "icd": cmd_icd,
    "fvsp": cmd_fvsp,
    "oracle": cmd_oracle,
    "check": cmd_check,
    "gen": cmd_gen,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return _HANDLERS[cfg.command](cfg)
    except (
        GraphFormatError,
        FvspFormatError,
        BruteForceBudgetError,
        BudgetExceededError,
        FileNotFoundError,
        ValueError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (IcdStructureError, PipelineError, StructureError, LpSolveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURE


if __name__ == "__main__":
    sys.exit(main())
