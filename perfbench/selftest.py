"""Self-test of the benchmark's checker and input generators.

Every benchmark run calls ``run()`` before it measures anything; a failure
stops the run without a result.  Stand-alone, from the repository root:

    PYTHONPATH=src python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys

import checker
from workloads import WORKLOADS, Case, Graph, make_case


class SelfTestError(RuntimeError):
    pass


def _fixture(name: str) -> Graph:
    from ptodel.fixtures import fixture_graph

    g = fixture_graph(name)
    return Graph(g.n, g.edges, g.weights)


def _solve_output(g: Graph, deleted: list[int], weight: float) -> dict:
    return {
        "deleted": deleted,
        "weight": weight,
        "stages": {"hitting": {"lp_value": 0.0}, "fvsp": {"lp_value": 0.0}},
    }


def _expect(verdict, accept: bool, what: str) -> None:
    if (verdict is None) != accept:
        want = "accept" if accept else "reject"
        raise SelfTestError(f"checker should {want} {what}; verdict: {verdict!r}")


def run() -> None:
    for name in ("diamond", "bull", "path5"):
        _expect(checker.check_solve(_fixture(name), _solve_output(_fixture(name), [], 0.0)),
                True, name)
    for name in ("gem", "cycle5"):
        _expect(checker.check_solve(_fixture(name), _solve_output(_fixture(name), [], 0.0)),
                False, name)
    gem = _fixture("gem")
    _expect(checker.check_solve(gem, _solve_output(gem, [4], 1.0)), True, "gem minus its apex")
    _expect(checker.check_solve(gem, _solve_output(gem, [4], 2.0)), False, "a wrong weight")

    c5 = _fixture("cycle5")
    leave_hole = Case(c5, "check", deleted=(), hole_len=5)
    check_out = {"feasible": False, "witness": [0, 1, 2, 3, 4], "weight": 0.0}
    _expect(checker.check_check(leave_hole, check_out), True, "the C5 witness")
    _expect(checker.check_check(leave_hole, dict(check_out, witness=[0, 1, 2, 3])), False,
            "a path as witness")
    _expect(checker.check_check(leave_hole, dict(check_out, feasible=True)), False,
            "a hole reported feasible")

    for workload in WORKLOADS:
        first = [make_case(workload, 7, i) for i in range(2)]
        if first != [make_case(workload, 7, i) for i in range(2)]:
            raise SelfTestError(f"{workload}: generator is not deterministic")
        if first == [make_case(workload, 8, i) for i in range(2)]:
            raise SelfTestError(f"{workload}: generator ignores the seed")


if __name__ == "__main__":
    try:
        run()
    except SelfTestError as exc:
        print(f"self-test FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
    print("self-test passed")
