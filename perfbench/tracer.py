"""Span tracer built from wrappers around the program's module-level names.

The program has no tracing of its own, so the benchmark swaps each name a
layer is called through for a wrapper that records a span.  A name is patched
in the namespace where it is looked up: ``from .x import y`` binds ``y`` in the
importing module, so ``linprog`` is patched in both ``ptodel.pipeline`` and
``ptodel.fvsp``.

A span is ``(call, id, parent, name, start, end)``; spans of one CLI call
share ``call``.  Spans stay in memory and are written out when the run ends.
A span's self time is its duration minus that of its children.  Statistics a
hook computes from a layer's arguments and result run in a span named
``trace``, so they come out of the caller's self time and count only as
tracing overhead.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from time import perf_counter
from typing import Callable, Optional

import numpy as np

TIGHT_TOL = 1e-9


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: list[tuple[int, str, float]] = []
        self.call = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _run(self, name: str, fn: Callable, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((self.call, sid, parent, name, start, end))

    def count(self, name: str, value: float) -> None:
        self.counts.append((self.call, name, value))

    def root(self, call: int, fn: Callable, *args):
        """Run one CLI call as the root span ``cli.main``."""
        self.call = call
        return self._run("cli.main", fn, args, {})

    def patch(
        self,
        module,
        attr: str,
        span: Optional[str],
        hook: Optional[Callable] = None,
    ) -> None:
        """Replace ``module.attr`` with a wrapper.  With ``span`` None the
        wrapper records no span, only what ``hook(tracer, args, kwargs,
        result)`` counts."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            if span is None:
                result = original(*args, **kwargs)
            else:
                result = self._run(span, original, args, kwargs)
            if hook is not None:
                self._run("trace", hook, (self, args, kwargs, result), {})
            return result

        self._undo.append((module, attr, original))
        setattr(module, attr, wrapper)

    def unpatch(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def patched(self):
        """Every layer boundary wrapped (see ``install``) for the duration."""
        install(self)
        try:
            yield
        finally:
            self.unpatch()

    # -- derived figures -------------------------------------------------

    def self_times(self) -> dict[int, dict[str, float]]:
        """call -> span name -> summed self time."""
        child_time: dict[int, float] = {}
        for _, _, parent, _, start, end in self.spans:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: dict[int, dict[str, float]] = {}
        for call, sid, _, name, start, end in self.spans:
            per = out.setdefault(call, {})
            per[name] = per.get(name, 0.0) + (end - start) - child_time.get(sid, 0.0)
        return out

    def inclusive_times(self) -> dict[int, dict[str, float]]:
        """call -> span name -> summed duration of its outermost spans."""
        names = {sid: name for _, sid, _, name, _, _ in self.spans}
        out: dict[int, dict[str, float]] = {}
        for call, _, parent, name, start, end in self.spans:
            if names.get(parent) == name:
                continue  # nested in a span of the same name
            per = out.setdefault(call, {})
            per[name] = per.get(name, 0.0) + (end - start)
        return out

    def span_counts(self) -> dict[int, dict[str, int]]:
        out: dict[int, dict[str, int]] = {}
        for call, _, _, name, _, _ in self.spans:
            per = out.setdefault(call, {})
            per[name] = per.get(name, 0) + 1
        return out

    def call_counts(self) -> dict[int, dict[str, float]]:
        out: dict[int, dict[str, float]] = {}
        for call, name, value in self.counts:
            per = out.setdefault(call, {})
            per[name] = per.get(name, 0) + value
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for call, sid, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"call": call, "id": sid, "parent": parent, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )
            for call, name, value in self.counts:
                fh.write(json.dumps({"call": call, "count": name, "value": value}) + "\n")


# ---------------------------------------------------------------------------
# hooks: counts read from a layer's arguments and result


def _lp_hook(prefix: str, tight: bool):
    def hook(tracer: Tracer, args, kwargs, res) -> None:
        mats = [m for m in (kwargs.get("A_ub"), kwargs.get("A_eq")) if m is not None]
        tracer.count(prefix + "_rows", sum(m.shape[0] for m in mats))
        tracer.count(prefix + "_cols", len(args[0]))
        tracer.count(prefix + "_nnz", sum(int(np.count_nonzero(m)) for m in mats))
        tracer.count(prefix + "_bytes", sum(m.nbytes for m in mats))
        tracer.count(prefix + "_nit", res.nit)
        tracer.count(prefix + "_status", res.status)
        slack = getattr(res, "slack", None)
        if tight and slack is not None and len(slack):
            tracer.count(
                prefix + "_tight_frac",
                float(np.count_nonzero(np.abs(slack) <= TIGHT_TOL)) / len(slack),
            )

    return hook


def _len_hook(name: str):
    def hook(tracer: Tracer, args, kwargs, result) -> None:
        tracer.count(name, len(result) if result is not None else 0)

    return hook


def _one_hook(name: str):
    def hook(tracer: Tracer, args, kwargs, result) -> None:
        tracer.count(name, 1)

    return hook


def _hit_hook(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("pipeline.hit_deleted", len(result.deleted))


def _icd_hook(tracer: Tracer, args, kwargs, icd) -> None:
    tracer.count("lattice.icd_nodes", icd.n_nodes)
    tracer.count("lattice.icd_arcs", len(icd.arcs))


def install(tracer: Tracer) -> None:
    """Patch every layer boundary the benchmark reports."""
    from ptodel import cli, fvsp, graphs, lattice, pipeline

    table = [
        # cli
        (cli, "build_parser", "cli.build_parser", None),
        (cli, "_read", "cli._read", None),
        (cli, "parse_graph", "cli.parse_graph", None),
        (cli, "result_to_json", "cli.result_to_json", None),
        (cli, "_emit", "cli._emit", None),
        (cli, "solve_ptolemaic_deletion", "pipeline.solve_ptolemaic_deletion", None),
        (cli, "is_ptolemaic", "graphs.is_ptolemaic", None),
        # pipeline, stage 1
        (pipeline, "hit_c4_gem", "pipeline.hit_c4_gem", _hit_hook),
        (pipeline, "enumerate_obstructions", "graphs.enumerate_obstructions",
         _len_hook("graphs.obstructions")),
        (pipeline, "linprog", "pipeline.linprog", _lp_hook("pipeline.hit_lp", True)),
        (pipeline, "find_induced_c4", "graphs.postcheck", None),
        (pipeline, "find_induced_gem", "graphs.postcheck", None),
        # pipeline, stage 2 and verification
        (pipeline, "build_icd", "lattice.build_icd", _icd_hook),
        (pipeline, "validate_instance", "fvsp.validate_instance", None),
        (pipeline, "solve_fvsp", "fvsp.solve_fvsp", None),
        (pipeline, "is_ptolemaic", "graphs.is_ptolemaic", None),
        (pipeline, "is_ptolemaic_via_icd", "lattice.is_ptolemaic_via_icd", None),
        # graphs, as called from inside the recognizer
        (graphs, "find_hole", "graphs.find_hole", _len_hook("graphs.hole_len")),
        (graphs, "is_chordal", "graphs.is_chordal", None),
        # lattice
        (lattice, "build_icd", "lattice.build_icd", None),
        (lattice, "brute_force_icd", "lattice.brute_force_icd", None),
        (lattice, "maximal_cliques", "graphs.maximal_cliques", None),
        (lattice, "check_laminar_out_trees", "lattice.check_laminar_out_trees", None),
        # fvsp
        (fvsp, "validate_instance", "fvsp.validate_instance", None),
        (fvsp, "build_lp", "fvsp.build_lp", None),
        (fvsp, "solve_lp", "fvsp.solve_lp", None),
        (fvsp, "linprog", "fvsp.linprog", _lp_hook("fvsp.lp", False)),
        (fvsp, "derandomize", "fvsp.derandomize", None),
        (fvsp, "theta_candidates", None, _len_hook("fvsp.theta_candidates")),
        (fvsp, "round_at", None, _one_hook("fvsp.round_at_calls")),
        (fvsp, "cleanup_unicyclic", "fvsp.cleanup_unicyclic", None),
        (fvsp, "verify_fvsp_solution", "fvsp.verify_fvsp_solution", None),
    ]
    for module, attr, span, hook in table:
        tracer.patch(module, attr, span, hook)


# ---------------------------------------------------------------------------
# per-layer metrics: name -> (unit, how it is derived)
#   ("self", spans)       median over calls of the spans' summed self time
#   ("incl", spans)       median over calls of the spans' summed duration
#   ("spans", spans)      number of such spans per call
#   ("count", name)       value a hook counted per call

LAYER_METRICS: dict[str, tuple[str, tuple[str, object]]] = {
    "graphs.enumerate_s": ("s", ("self", ["graphs.enumerate_obstructions"])),
    "graphs.obstructions": ("count", ("count", "graphs.obstructions")),
    "graphs.postcheck_s": ("s", ("self", ["graphs.postcheck"])),
    "graphs.recognize_s": ("s", ("incl", ["graphs.is_ptolemaic"])),
    "graphs.chordal_s": ("s", ("self", ["graphs.is_chordal"])),
    "graphs.find_hole_s": ("s", ("self", ["graphs.find_hole"])),
    "graphs.hole_len": ("count", ("count", "graphs.hole_len")),
    "graphs.maximal_cliques_s": ("s", ("self", ["graphs.maximal_cliques"])),
    "graphs.maximal_cliques_calls": ("count", ("spans", ["graphs.maximal_cliques"])),
    "pipeline.hitting_s": ("s", ("self", ["pipeline.hit_c4_gem"])),
    "pipeline.hit_lp_s": ("s", ("self", ["pipeline.linprog"])),
    "pipeline.hit_lp_rows": ("count", ("count", "pipeline.hit_lp_rows")),
    "pipeline.hit_lp_nnz": ("count", ("count", "pipeline.hit_lp_nnz")),
    "pipeline.hit_lp_nit": ("count", ("count", "pipeline.hit_lp_nit")),
    "pipeline.hit_lp_status": ("code", ("count", "pipeline.hit_lp_status")),
    "pipeline.hit_lp_bytes": ("computed_bytes", ("count", "pipeline.hit_lp_bytes")),
    "pipeline.hit_lp_tight_frac": ("fraction", ("count", "pipeline.hit_lp_tight_frac")),
    "pipeline.hit_deleted": ("count", ("count", "pipeline.hit_deleted")),
    "pipeline.self_s": ("s", ("self", ["pipeline.solve_ptolemaic_deletion"])),
    "lattice.build_icd_s": ("s", ("self", ["lattice.build_icd"])),
    "lattice.build_icd_calls": ("count", ("spans", ["lattice.build_icd"])),
    "lattice.icd_nodes": ("count", ("count", "lattice.icd_nodes")),
    "lattice.icd_arcs": ("count", ("count", "lattice.icd_arcs")),
    "lattice.laminar_check_s": ("s", ("self", ["lattice.check_laminar_out_trees"])),
    "lattice.verify_icd_s": ("s", ("incl", ["lattice.is_ptolemaic_via_icd"])),
    "lattice.brute_force_icd_calls": ("count", ("spans", ["lattice.brute_force_icd"])),
    "fvsp.validate_s": ("s", ("self", ["fvsp.validate_instance"])),
    "fvsp.validate_calls": ("count", ("spans", ["fvsp.validate_instance"])),
    "fvsp.build_lp_s": ("s", ("self", ["fvsp.build_lp"])),
    "fvsp.lp_s": ("s", ("self", ["fvsp.linprog"])),
    "fvsp.lp_rows": ("count", ("count", "fvsp.lp_rows")),
    "fvsp.lp_cols": ("count", ("count", "fvsp.lp_cols")),
    "fvsp.lp_nnz": ("count", ("count", "fvsp.lp_nnz")),
    "fvsp.lp_nit": ("count", ("count", "fvsp.lp_nit")),
    "fvsp.lp_status": ("code", ("count", "fvsp.lp_status")),
    "fvsp.lp_bytes": ("computed_bytes", ("count", "fvsp.lp_bytes")),
    "fvsp.solve_lp_self_s": ("s", ("self", ["fvsp.solve_lp"])),
    "fvsp.theta_sweep_s": ("s", ("self", ["fvsp.derandomize"])),
    "fvsp.theta_candidates": ("count", ("count", "fvsp.theta_candidates")),
    "fvsp.round_at_calls": ("count", ("count", "fvsp.round_at_calls")),
    "fvsp.cleanup_s": ("s", ("self", ["fvsp.cleanup_unicyclic"])),
    "fvsp.verify_s": ("s", ("self", ["fvsp.verify_fvsp_solution"])),
    "cli.parse_s": ("s", ("self", ["cli.main", "cli.build_parser", "cli._read",
                                   "cli.parse_graph"])),
    "cli.emit_s": ("s", ("self", ["cli.result_to_json", "cli._emit"])),
}


def layer_metrics(tracer: Tracer, first_call_of_case: dict[int, int]) -> dict[str, float]:
    """Times are medians over every traced call.  Counts are means over the
    workload's cases of each case's first traced call, so they repeat
    exactly for a given seed however many calls fit in the run."""
    selfs = tracer.self_times()
    incls = tracer.inclusive_times()
    nspans = tracer.span_counts()
    counts = tracer.call_counts()
    calls = sorted(selfs)
    firsts = sorted(first_call_of_case.values())
    out: dict[str, float] = {}
    for metric, (_, (kind, what)) in LAYER_METRICS.items():
        if kind in ("self", "incl"):
            table = selfs if kind == "self" else incls
            per_call = [sum(table[c].get(s, 0.0) for s in what) for c in calls]
            out[metric] = statistics.median(per_call) if per_call else 0.0
        elif kind == "spans":
            vals = [sum(nspans.get(c, {}).get(s, 0) for s in what) for c in firsts]
            out[metric] = statistics.fmean(vals) if vals else 0.0
        else:
            vals = [counts.get(c, {}).get(what, 0) for c in firsts]
            out[metric] = statistics.fmean(vals) if vals else 0.0
    return out


def self_time_shares(tracer: Tracer) -> list[tuple[str, float]]:
    """Each span name's share of all self time, largest first; the shares of
    every name but ``trace`` sum to the untraced work of the calls."""
    total: dict[str, float] = {}
    for per in tracer.self_times().values():
        for name, t in per.items():
            total[name] = total.get(name, 0.0) + t
    whole = sum(total.values()) or 1.0
    return sorted(((n, t / whole) for n, t in total.items()), key=lambda x: -x[1])
