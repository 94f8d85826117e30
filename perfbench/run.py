"""Seeded benchmark for `ptodel solve` and `ptodel check`.

From the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run measures one workload in this fresh process: a single-threaded
closed loop with one client, where the next call starts when the previous one
returns.  The timed unit is one in-process call of ``ptodel.cli.main`` on a
generated input file, i.e. the ``ptodel`` command minus interpreter start-up,
whose dominant part is reported on its own as ``setup_s``.  Every output is
checked by ``checker.py`` after the timed phase.

With ``--trace 0`` the run prints the end-to-end metrics.  With ``--trace 1``
it runs every case twice in a row, untraced and then traced through the
wrappers in ``tracer.py``, and prints the per-layer metrics, the tracing
overhead, and whether the traced stdout was byte-identical to the untraced
one.  The last line of stdout is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every output passed the checker.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checker
from workloads import WORKLOADS, make_cases, to_gr

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_SUBPROCESSES = 4
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
    "import ptodel.cli; print(time.perf_counter() - t)"
)


class Loop:
    """Outcome of one closed-loop phase over a workload's cases."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.case_of_call: list[int] = []
        self.outputs: dict[int, str] = {}  # case -> stdout of its first call
        self.failures: list[tuple[int, str]] = []  # (call, reason)
        self.completed = 0
        self.wall = 0.0


def closed_loop(run_call, argvs: list[list[str]], seconds: float, around=None) -> Loop:
    """Run ``run_call(call, argv)`` on the cases in turn, cyclically, until
    ``seconds`` have passed and every case has run; each call is timed.
    ``around(call)``, if given, is a context entered outside the timing."""
    res = Loop()
    start = perf_counter()
    deadline = start + seconds
    call = 0
    while call < len(argvs) or perf_counter() < deadline:
        case = call % len(argvs)
        out, err = io.StringIO(), io.StringIO()
        scope = around(call) if around else contextlib.nullcontext()
        with scope, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = run_call(call, argvs[case])
            except (Exception, SystemExit) as exc:  # a failed call, not a failed run
                code = f"{type(exc).__name__}: {exc}"
            res.latencies.append(perf_counter() - t0)
        res.case_of_call.append(case)
        text = out.getvalue()
        if isinstance(code, int):
            res.completed += 1
        if code != 0:
            res.failures.append((call, f"exit {code!r}: {err.getvalue().strip()[:200]}"))
        elif case not in res.outputs:
            res.outputs[case] = text
        elif text != res.outputs[case]:
            res.failures.append((call, "stdout differs from an earlier call on the same input"))
        call += 1
    res.wall = perf_counter() - start
    return res


def check_outputs(cases, outputs: dict[int, str]) -> dict[int, str]:
    """case -> reason, for every case whose output the checker rejects."""
    bad: dict[int, str] = {}
    for case, text in outputs.items():
        try:
            out = json.loads(text)
            if cases[case].command == "solve":
                verdict = checker.check_solve(cases[case].graph, out)
            else:
                verdict = checker.check_check(cases[case], out)
        except (ValueError, KeyError, TypeError) as exc:
            verdict = f"unreadable output: {type(exc).__name__}: {exc}"
        if verdict is not None:
            bad[case] = verdict
    return bad


def failed_calls(loop: Loop, bad: dict[int, str]) -> list[tuple[int, str]]:
    failed = dict(loop.failures)
    for call, case in enumerate(loop.case_of_call):
        if case in bad and call not in failed:
            failed[call] = f"checker: {bad[case]}"
    return sorted(failed.items())


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest percentile of
    the ladder with at least TAIL_BEYOND samples beyond it (nearest rank)."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1], n - rank
    return 100.0, ordered[-1], 0


def measure_setup(in_process: float) -> list[float]:
    """Import time of ``ptodel.cli``: this process's own import plus that of
    a few fresh interpreters, run one after another."""
    samples = [in_process]
    for _ in range(SETUP_SUBPROCESSES):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE.format(src=str(SRC))],
            capture_output=True, text=True, timeout=30, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def write_inputs(cases, workdir: Path) -> list[list[str]]:
    workdir.mkdir(parents=True, exist_ok=True)
    argvs = []
    for i, case in enumerate(cases):
        graph = workdir / f"case{i:03d}.gr"
        graph.write_text(to_gr(case.graph))
        argv = [case.command, str(graph)]
        if case.command == "check":
            sol = workdir / f"case{i:03d}.sol.json"
            sol.write_text(json.dumps({"deleted": list(case.deleted)}))
            argv += ["--solution", str(sol)]
        argvs.append(argv)
    return argvs


def quality(cases, loop: Loop, bad: dict[int, str]) -> tuple[float, float, float]:
    """(deleted_weight, certified_ratio, certified_ratio_max) over the cases,
    skipping any the checker rejected.

    solve: the summed solution weight; the summed weight over the summed
    lower bound max(hitting LP, FVSP LP), which bounds the ratio to the summed
    optimum; and the worst single-case ratio.  check: the summed weight of the
    checked solutions, and witness lengths over the lengths of the inputs'
    only holes, summed and worst."""
    weight = value_sum = bound_sum = worst = 0.0
    for case in range(len(cases)):
        if case in bad or case not in loop.outputs:
            continue
        out = json.loads(loop.outputs[case])
        if cases[case].command == "solve":
            value, bound = out["weight"], checker.lower_bound(out)
        else:
            value, bound = len(out["witness"]), cases[case].hole_len
        weight += out["weight"]
        value_sum += value
        bound_sum += bound
        worst = max(worst, value / bound if bound > 0 else 1.0)
    return weight, (value_sum / bound_sum if bound_sum > 0 else 1.0), worst


def run_plain(args, cases, argvs, main, setup_in_process: float) -> tuple[dict, list[str]]:
    setup = measure_setup(setup_in_process)
    loop = closed_loop(lambda call, argv: main(argv), argvs, args.seconds)
    bad = check_outputs(cases, loop.outputs)
    failed = failed_calls(loop, bad)
    lat = loop.latencies
    p, tail_value, beyond = tail(lat)
    weight, ratio, worst = quality(cases, loop, bad)
    metrics = {
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (tail_value, "s"),
        "calls_per_s": (loop.completed / loop.wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
        "deleted_weight": (weight, "weight"),
        "certified_ratio": (ratio, "ratio"),
    }
    lines = [
        f"workload {args.workload}, seed {args.seed}: {len(cases)} cases of "
        f"{workload_size(args.workload)}",
        f"closed loop, 1 client, {len(lat)} calls in {loop.wall:.3f} s",
    ]
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "latency_tail_s":
            note = f"  (p{p:g} of {len(lat)} calls, {beyond} beyond it)"
        elif name == "setup_s":
            note = f"  (median of {len(setup)} imports)"
        lines.append(f"{name} = {value:.6g} {unit}{note}")
    lines.append(f"certified_ratio_max = {worst:.6g} ratio  (worst of {len(cases)} cases)")
    lines.append(f"failed_frac = {len(failed) / len(lat):.6g}  ({len(failed)} of {len(lat)})")
    lines += [f"FAILED call {call}: {why}" for call, why in failed[:10]]
    result = {
        "correct": not failed,
        "attempted": len(lat),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def run_traced(args, cases, argvs, main) -> tuple[dict, list[str]]:
    """Each case runs twice in a row, first untraced, then with the tracer's
    wrappers patched in, so drift in machine speed hits both alike.  Call
    2i is untraced and call 2i + 1 traced; the patching happens outside the
    timed region."""
    import tracer as tr

    t = tr.Tracer()

    def around(call: int):
        return t.patched() if call % 2 else contextlib.nullcontext()

    def run_call(call: int, argv):
        return t.root(call, main, argv) if call % 2 else main(argv)

    paired = [argv for argv in argvs for _ in (0, 1)]
    loop = closed_loop(run_call, paired, args.seconds, around)
    failed = failed_calls(loop, check_outputs(cases, {
        i // 2: text for i, text in loop.outputs.items() if i % 2 == 0}))
    changed = {
        i // 2 for i, text in loop.outputs.items()
        if i % 2 and loop.outputs.get(i - 1) != text
    }
    for call, index in enumerate(loop.case_of_call):
        if index % 2 and index // 2 in changed:
            failed.append((call, "traced stdout differs from untraced"))
    failed.sort()

    first_call: dict[int, int] = {}
    for call, index in enumerate(loop.case_of_call):
        if index % 2:
            first_call.setdefault(index // 2, call)
    layers = tr.layer_metrics(t, first_call)
    untraced, traced = loop.latencies[0::2], loop.latencies[1::2]
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics = {
        name: {"value": layers[name], "unit": unit}
        for name, (unit, _) in tr.LAYER_METRICS.items()
    }
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}

    WORK.mkdir(exist_ok=True)
    spans_file = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
    t.write(spans_file)
    lines = [
        f"workload {args.workload}, seed {args.seed}: {len(cases)} cases of "
        f"{workload_size(args.workload)}",
        f"{len(untraced)} untraced and {len(traced)} traced calls, interleaved; "
        f"spans written to {spans_file.relative_to(ROOT)}",
        f"traced stdout byte-identical to untraced on all {len(first_call)} cases: "
        f"{not changed}",
        f"tracing overhead (traced - untraced median latency): {overhead:.6g} s",
        "self-time share of traced calls:",
    ]
    lines += [f"  {share:7.2%}  {name}" for name, share in tr.self_time_shares(t)]
    lines += [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines += [f"FAILED call {call}: {why}" for call, why in failed[:10]]
    result = {
        "correct": not failed,
        "attempted": len(loop.latencies),
        "failed": len(failed),
        "metrics": metrics,
    }
    return result, lines


def workload_size(name: str) -> str:
    return WORKLOADS[name][1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ptodel" / "cli.py").is_file():
        print(f"error: no ptodel sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import ptodel.cli

    setup_in_process = perf_counter() - t0

    import selftest

    try:
        selftest.run()
    except selftest.SelfTestError as exc:
        print(f"error: benchmark self-test failed: {exc}", file=sys.stderr)
        return 1

    cases = make_cases(args.workload, args.seed)
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        argvs = write_inputs(cases, workdir)
        # keep the benchmark's own objects out of the collections the program
        # triggers: a `ptodel` process does not hold them
        gc.collect()
        gc.freeze()
        if args.trace:
            result, lines = run_traced(args, cases, argvs, ptodel.cli.main)
        else:
            result, lines = run_plain(args, cases, argvs, ptodel.cli.main, setup_in_process)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
