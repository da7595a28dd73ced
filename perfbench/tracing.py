"""Spans around the calls into each perturbreg layer, recorded from outside.

The benchmark installs wrappers on the functions each layer exposes; nothing
under ``src/`` changes. A function is wrapped wherever a perturbreg module
binds it (``perturbreg.cli`` imports ``solve_perturbed`` by name, so the
wrapper has to sit there as well as in ``perturbreg.solve``). Spans are kept
in memory as tuples and written out once, when the run ends.

Self time of a span is its duration minus the time its child spans cover.
The run has one thread and one caller, so children never overlap and no
layer ever waits on another: waiting time is zero by construction and is
not reported.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# Span record: (span_id, parent_id, call_id, name, start_ns, end_ns, raised, work)
# ``work`` is a dict of counters attached by the wrapper (bytes, samples, flops).

LAYERS = ("cli", "problems", "operators", "grid", "solve", "fredholm", "linalg",
          "differentiate", "experiments")

# Per-layer metrics reported by the traced run: name -> unit. Times are self
# time per workload pass, counts are per pass too.
LAYER_METRICS = {
    "import.total_s": "s",
    "import.scipy_s": "s",
    "import.jsonschema_s": "s",
    "cli.csv_read_s": "s",
    "cli.csv_read_bytes": "bytes",
    "cli.csv_format_s": "s",
    "cli.csv_bytes_written": "bytes",
    "cli.write_s": "s",
    "cli.files_written": "count",
    "cli.self_s": "s",
    "problems.load_s": "s",
    "problems.schema_validate_s": "s",
    "problems.json_bytes": "bytes",
    "operators.densify_calls": "count",
    "operators.densify_s": "s",
    "operators.densify_bytes": "bytes",
    "grid.functions_built": "count",
    "grid.build_s": "s",
    "solve.solve_perturbed_calls": "count",
    "solve.solve_perturbed_s": "s",
    "solve.c_alpha_calls": "count",
    "solve.c_alpha_s": "s",
    "solve.gap_calls": "count",
    "solve.gap_s": "s",
    "solve.linear_solves": "count",
    "solve.linear_solve_s": "s",
    "fredholm.solve_s": "s",
    "fredholm.build_stabilizer_s": "s",
    "linalg.svd_calls": "count",
    "linalg.svd_s": "s",
    "linalg.lu_calls": "count",
    "linalg.lu_s": "s",
    "linalg.flops_computed": "flop",
    "differentiate.samples": "count",
    "differentiate.resolvent_s": "s",
    "differentiate.resolvent_ns_per_sample": "ns",
    "differentiate.baseline_s": "s",
    "experiments.runs": "count",
    "experiments.run_s": "s",
    "experiments.add_noise_s": "s",
    **{f"{layer}.raised": "count" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Tracer:
    """In-memory span recorder with a stack of open spans."""

    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    call_id: int = 0
    call_kinds: dict = field(default_factory=dict)
    _next_id: int = 0
    _undo: list = field(default_factory=list)

    def span(self, name: str, fn, work=None):
        """Wrap ``fn`` so every call records a span; ``work(args, kwargs)`` gives counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            parent = self.stack[-1] if self.stack else 0
            self.stack.append(span_id)
            raised = False
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = time.perf_counter_ns()
                self.stack.pop()
                counters = work(args, kwargs) if work is not None else None
                self.spans.append((span_id, parent, self.call_id, name, start, end,
                                   raised, counters))

        return wrapper

    def patch(self, owner, attr: str, name: str, work=None, modules=()) -> None:
        """Replace ``owner.attr`` and every same-object binding in ``modules``."""
        original = getattr(owner, attr)
        wrapped = self.span(name, original, work)
        targets = [owner] + [m for m in modules
                             if m is not owner and getattr(m, attr, None) is original]
        for target in targets:
            setattr(target, attr, wrapped)
            self._undo.append((target, attr, original))

    def unpatch(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def root(self, fn, kind: str):
        """Run ``fn`` as one benchmark call: a fresh call id and a ``bench.call`` span."""
        self.call_id += 1
        self.call_kinds[self.call_id] = kind
        return self.span("bench.call", fn)()


def _n_of(array_like) -> int:
    shape = getattr(array_like, "shape", None)
    return int(shape[0]) if shape else 0


def _lu_flops(args, kwargs):
    # LU with partial pivoting: 2n^3/3, plus 2n^2 per right-hand side solved.
    n = _n_of(args[0])
    nrhs = 0
    if len(args) > 1:
        b = args[1]
        nrhs = 1 if getattr(b, "ndim", 1) == 1 else int(b.shape[1])
    return {"flops": 2 * n**3 / 3 + 2 * n * n * nrhs}


def _svd_flops(args, kwargs):
    # Golub-Van Loan counts for a square n x n input: 8n^3/3 for singular
    # values only, 21n^3 when U and V are formed as well.
    n = _n_of(args[0])
    compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    return {"flops": (21 * n**3) if compute_uv else (8 * n**3 / 3)}


def _svdvals_flops(args, kwargs):
    return {"flops": 8 * _n_of(args[0]) ** 3 / 3}


def _lstsq_flops(args, kwargs):
    # Householder QR of an m x k matrix: 2mk^2 - 2k^3/3.
    a = args[0]
    m, k = (a.shape[0], a.shape[1]) if getattr(a, "ndim", 1) == 2 else (_n_of(a), 1)
    return {"flops": 2 * m * k * k - 2 * k**3 / 3}


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every layer the per-layer table names."""
    import numpy as np
    import jsonschema
    from perturbreg import (cli, differentiate, experiments, fredholm, grid, operators,
                            problems, solve)

    mods = [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "perturbreg" or name.startswith("perturbreg."))]

    def size_of(path_arg):
        return {"bytes": os.path.getsize(path_arg)}

    def wrap(owner, attr, name, work=None):
        tracer.patch(owner, attr, name, work, modules=mods)

    wrap(cli, "main", "cli.main")
    wrap(cli, "read_csv_columns", "cli.csv_read", work=lambda a, k: size_of(a[0]))
    wrap(cli, "_csv_text", "cli.csv_format")
    wrap(cli, "_atomic_write", "cli.write",
         work=lambda a, k: {"bytes": len(a[1]), "files": 1})

    wrap(problems, "load_problem", "problems.load", work=lambda a, k: size_of(a[0]))
    wrap(jsonschema, "validate", "problems.schema_validate")

    wrap(operators, "cumulative_trapezoid_matrix", "operators.densify",
         work=lambda a, k: {"bytes": 8 * int(a[0]) ** 2})

    wrap(grid.GridFunction, "__post_init__", "grid.build", work=lambda a, k: {"built": 1})
    # ``sample`` is a classmethod: wrap the underlying function, rebind.
    sample = grid.GridFunction.__dict__["sample"].__func__
    wrapped_sample = tracer.span("grid.sample", sample)
    grid.GridFunction.sample = classmethod(wrapped_sample)
    tracer._undo.append((grid.GridFunction, "sample", classmethod(sample)))

    wrap(solve, "solve_perturbed", "solve.solve_perturbed")
    wrap(solve, "_c_alpha_estimate", "solve.c_alpha")
    wrap(solve, "stabilization_gap", "solve.gap")
    wrap(solve, "_solve_linear", "solve.linear_solve")

    wrap(fredholm, "solve_fredholm_regularized", "fredholm.solve")
    wrap(fredholm, "build_stabilizer", "fredholm.build_stabilizer")

    wrap(differentiate, "resolvent_apply", "differentiate.resolvent",
         work=lambda a, k: {"samples": int(a[0].n)})
    wrap(differentiate, "estimate_baseline", "differentiate.baseline")

    wrap(experiments, "run_experiment", "experiments.run")
    wrap(experiments, "add_noise", "experiments.add_noise")

    for attr, kind, work in (("solve", "lu", _lu_flops), ("det", "lu", _lu_flops),
                             ("svd", "svd", _svd_flops), ("lstsq", "lstsq", _lstsq_flops)):
        wrap(np.linalg, attr, f"linalg.{kind}", work=work)
    # The scipy.linalg entry points are wrapped only if the package has
    # imported scipy.linalg; the benchmark itself never imports it.
    scipy_linalg = sys.modules.get("scipy.linalg")
    if scipy_linalg is not None:
        for attr, kind, work in (("lu_factor", "lu", _lu_flops),
                                 ("lu_solve", "lu_solve", None),
                                 ("solve", "lu", _lu_flops), ("det", "lu", _lu_flops),
                                 ("svd", "svd", _svd_flops),
                                 ("svdvals", "svd", _svdvals_flops),
                                 ("lstsq", "lstsq", _lstsq_flops)):
            wrap(scipy_linalg, attr, f"linalg.{kind}", work=work)


def self_times(spans) -> dict[int, int]:
    """Span id -> self time in ns (duration minus the children's durations)."""
    child_ns: dict[int, int] = {}
    for span_id, parent, _call, _name, start, end, _raised, _work in spans:
        child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    return {s[0]: (s[5] - s[4]) - child_ns.get(s[0], 0) for s in spans}


def layer_metrics(spans, passes: int) -> dict[str, float]:
    """Aggregate spans into the per-layer metrics, per workload pass."""
    selfs = self_times(spans)
    by_name: dict[str, dict] = {}
    raised = {layer: 0 for layer in LAYERS}
    for span in spans:
        span_id, _parent, _call, name, _start, _end, was_raised, work = span
        agg = by_name.setdefault(name, {"calls": 0, "self_ns": 0, "work": {}})
        agg["calls"] += 1
        agg["self_ns"] += selfs[span_id]
        for key, value in (work or {}).items():
            agg["work"][key] = agg["work"].get(key, 0) + value
        layer = name.split(".", 1)[0]
        if was_raised and layer in raised:
            raised[layer] += 1

    def secs(*names):
        return sum(by_name.get(n, {}).get("self_ns", 0) for n in names) / 1e9 / passes

    def calls(*names):
        return sum(by_name.get(n, {}).get("calls", 0) for n in names) / passes

    def work(name, key):
        return by_name.get(name, {}).get("work", {}).get(key, 0) / passes

    samples = work("differentiate.resolvent", "samples")
    resolvent_s = secs("differentiate.resolvent")
    out = {
        "cli.csv_read_s": secs("cli.csv_read"),
        "cli.csv_read_bytes": work("cli.csv_read", "bytes"),
        "cli.csv_format_s": secs("cli.csv_format"),
        "cli.csv_bytes_written": work("cli.write", "bytes"),
        "cli.write_s": secs("cli.write"),
        "cli.files_written": work("cli.write", "files"),
        "cli.self_s": secs("cli.main"),
        "problems.load_s": secs("problems.load"),
        "problems.schema_validate_s": secs("problems.schema_validate"),
        "problems.json_bytes": work("problems.load", "bytes"),
        "operators.densify_calls": calls("operators.densify"),
        "operators.densify_s": secs("operators.densify"),
        "operators.densify_bytes": work("operators.densify", "bytes"),
        "grid.functions_built": work("grid.build", "built"),
        "grid.build_s": secs("grid.build", "grid.sample"),
        "solve.solve_perturbed_calls": calls("solve.solve_perturbed"),
        "solve.solve_perturbed_s": secs("solve.solve_perturbed"),
        "solve.c_alpha_calls": calls("solve.c_alpha"),
        "solve.c_alpha_s": secs("solve.c_alpha"),
        "solve.gap_calls": calls("solve.gap"),
        "solve.gap_s": secs("solve.gap"),
        "solve.linear_solves": calls("solve.linear_solve"),
        "solve.linear_solve_s": secs("solve.linear_solve"),
        "fredholm.solve_s": secs("fredholm.solve"),
        "fredholm.build_stabilizer_s": secs("fredholm.build_stabilizer"),
        "linalg.svd_calls": calls("linalg.svd"),
        "linalg.svd_s": secs("linalg.svd"),
        "linalg.lu_calls": calls("linalg.lu"),
        "linalg.lu_s": secs("linalg.lu", "linalg.lu_solve"),
        "linalg.flops_computed": sum(work(f"linalg.{k}", "flops")
                                     for k in ("lu", "svd", "lstsq")),
        "differentiate.samples": samples,
        "differentiate.resolvent_s": resolvent_s,
        "differentiate.resolvent_ns_per_sample":
            resolvent_s * 1e9 / samples if samples else 0.0,
        "differentiate.baseline_s": secs("differentiate.baseline"),
        "experiments.runs": calls("experiments.run"),
        "experiments.run_s": secs("experiments.run"),
        "experiments.add_noise_s": secs("experiments.add_noise"),
    }
    for layer, count in raised.items():
        out[f"{layer}.raised"] = count / passes
    return out


def largest_self_time(tracer: Tracer) -> dict[str, list[tuple[str, float]]]:
    """Per call kind, span names ordered by mean self time per call, largest first."""
    selfs = self_times(tracer.spans)
    totals: dict[str, dict[str, int]] = {}
    for span in tracer.spans:
        per_kind = totals.setdefault(tracer.call_kinds[span[2]], {})
        per_kind[span[3]] = per_kind.get(span[3], 0) + selfs[span[0]]
    calls: dict[str, int] = {}
    for kind in tracer.call_kinds.values():
        calls[kind] = calls.get(kind, 0) + 1
    return {kind: sorted(((n, ns / 1e9 / calls[kind]) for n, ns in names.items()),
                         key=lambda p: -p[1])
            for kind, names in totals.items()}


def write_spans(tracer: Tracer, path: Path) -> None:
    keys = ("span_id", "parent", "call_id", "name", "start_ns", "end_ns", "raised", "work")
    with open(path, "w") as fh:
        for span in tracer.spans:
            record = dict(zip(keys, span), kind=tracer.call_kinds[span[2]])
            fh.write(json.dumps(record) + "\n")
