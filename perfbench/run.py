"""Run one perturbreg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. The run is one process with one caller (a closed loop): seeded
inputs, one untimed warm-up call of each kind, then calls back to back for
``--seconds``, with the set-ups (fresh interpreters) spread evenly between
them. Every call's output is checked.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1`` the
run measures untraced for half the time, installs the span wrappers and runs
whole traced passes for the other half, and reports the per-layer metrics.

Stdout holds one ``metric NAME VALUE UNIT BETTER`` line per metric, then the
result as one JSON object on the last line. The exit code is 0 when every
check passed, 1 when one failed and 2 when the checkout has no package.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
COLD_STARTS = 8  # fresh interpreters per run, spread over the timed calls
REFERENCE_S = 0.010  # seconds of one reference probe at the speed times are reported at
# The start-up probe: a fresh interpreter importing a fixed set of standard modules.
STARTUP_PROBE = ("import argparse, asyncio, csv, decimal, email.parser, http.client, json, "
                 "logging, tempfile, unittest, xml.etree.ElementTree")
STARTUP_PROBE_S = 0.135  # its seconds at that speed, measured beside the reference probe
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": ("s", "lower"), "pass_s": ("s", "lower"),
              "peak_rss_mb": ("MB", "lower")}


def pin_blas_threads() -> int:
    """Pin BLAS to one thread, before numpy loads.

    One thread is at most nproc on any machine. With two threads on two
    vCPUs, OpenBLAS workers that keep spinning after a call slowed the
    pure-Python calls that followed by up to half, and by a different
    amount in every run.
    """
    threads = 1
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def versions(threads: int) -> dict:
    import numpy as np
    import scipy
    from importlib.metadata import version

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": threads, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "jsonschema": version("jsonschema"),
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def import_times(stderr: str) -> dict[str, float]:
    """Seconds spent importing perturbreg, scipy and jsonschema, from -X importtime.

    Each figure is the cumulative time of the outermost entries of that
    package, so a subpackage imported inside another entry is not counted
    twice. Lines come in post-order; walking them backwards gives parents
    before children.
    """
    entries = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative_us = int(parts[1])
        except ValueError:
            continue
        name = parts[2][1:]
        entries.append(((len(name) - len(name.lstrip(" "))) // 2, name.strip(), cumulative_us))
    prefixes = {"import.total_s": "perturbreg", "import.scipy_s": "scipy",
                "import.jsonschema_s": "jsonschema"}
    totals = dict.fromkeys(prefixes, 0)
    stack: list[str] = []
    for depth, name, cumulative_us in reversed(entries):
        del stack[depth:]
        for metric, prefix in prefixes.items():
            inside = [n for n in stack + [name] if n == prefix or n.startswith(prefix + ".")]
            if inside == [name]:
                totals[metric] += cumulative_us
        stack.append(name)
    return {metric: us / 1e6 for metric, us in totals.items()}


class Reference:
    """A fixed piece of the benchmark's own work, timed just before every call.

    The shared two-vCPU test machine runs the same work at speeds up to 1.8
    times apart, in phases of seconds to minutes, set by its neighbours'
    load; user CPU time moves with wall time. By wall time, ``pass_s`` of the
    same code spread by 0.21-0.33 over ten runs (quartile distance over
    median); by each call's wall time over the time of this probe, taken a
    moment earlier in the same phase, by 0.03-0.07. So each call is timed at
    the reference speed, the speed at which the probe takes ``REFERENCE_S``,
    and the measured wall times are printed beside. The probe is like the program's work: floats
    formatted and parsed in Python, a small SVD and a numpy reduction. It
    runs no package code, so a change to the package cannot move it, except
    one that slows the whole interpreter process. Set-ups have a probe of
    their own, ``STARTUP_PROBE``, as they are process start-ups.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.rows = rng.standard_normal((1500, 3)).tolist()
        self.matrix = rng.standard_normal((96, 96))
        # Bound now, so the traced run's wrappers never see the probe.
        self.asarray, self.svd, self.cumsum = np.asarray, np.linalg.svd, np.cumsum

    def probe(self) -> float:
        """Run the probe once; returns its wall time."""
        start = time.perf_counter()
        text = "\n".join(",".join(repr(v) for v in row) for row in self.rows)
        parsed = self.asarray([[float(f) for f in ln.split(",")] for ln in text.splitlines()])
        self.svd(self.matrix)
        self.cumsum(parsed, axis=0)
        return time.perf_counter() - start


class ColdStarts:
    """Fresh interpreters that import the package and make one tiny call per kind.

    They run one at a time between timed calls, spread evenly over the timed
    part of the run, each right after the start-up probe.
    """

    def __init__(self, workload, work: Path, rng):
        self.code = workload.cold_start_code(work, rng)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        self.samples: list[tuple[float, float]] = []  # (wall seconds, probe seconds)
        self.imports: list[dict] = []
        self.errors: list[str] = []

    def one(self) -> None:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", STARTUP_PROBE], cwd=ROOT, env=self.env,
                       capture_output=True, timeout=150, check=True)
        probe = time.perf_counter() - start
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", self.code], cwd=ROOT,
                              env=self.env, capture_output=True, text=True, timeout=150)
        self.samples.append((time.perf_counter() - start, probe))
        if proc.returncode != 0:
            self.errors.append(f"cold start exited {proc.returncode}: {proc.stderr[-300:]}")
        self.imports.append(import_times(proc.stderr))

    def due(self, fraction: float) -> None:
        """Run the next cold start once ``fraction`` of the timed part has passed."""
        if len(self.samples) < COLD_STARTS and fraction >= len(self.samples) / COLD_STARTS:
            self.one()

    def finish(self) -> None:
        while len(self.samples) < COLD_STARTS:
            self.one()


class Runner:
    """Calls a workload's passes back to back, timing and checking each call."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = Reference()
        self.calls = workload.calls()
        self.attempted = 0
        self.failures: list[str] = []

    def one(self, call, timer=None) -> tuple[float, float] | None:
        """Run one call; returns its wall time and the probe's before it, or
        None when it failed."""
        self.attempted += 1
        gc.collect()
        probe = self.reference.probe()
        run = call.run if timer is None else (lambda: timer.root(call.run, call.kind))
        start = time.perf_counter()
        try:
            result = run()
        except Exception as exc:  # a raising call is a failed call; keep running
            self.failures.append(f"{call.kind}: {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        try:
            call.check(result)
        except Exception as exc:  # CheckFailed, or a malformed output
            self.failures.append(f"{call.kind}: check: {type(exc).__name__}: {exc}")
            return None
        return elapsed, probe

    def timed(self, seconds: float, whole_passes: bool = False, timer=None, cold=None):
        """Run calls for ``seconds``, at least one whole pass; per-kind samples.

        ``cold`` (a ColdStarts) gets its due fresh interpreters between calls,
        inside the ``seconds``, and the rest of them at the end.
        """
        samples = {kind: [] for kind in self.workload.kinds}
        start = time.perf_counter()
        deadline = start + seconds
        i = passes = 0
        while True:
            if cold is not None:
                cold.due((time.perf_counter() - start) / seconds)
            call = self.calls[i % len(self.calls)]
            sample = self.one(call, timer)
            if sample is not None:
                samples[call.kind].append(sample)
            i += 1
            if i % len(self.calls) == 0:
                passes += 1
            done = time.perf_counter() >= deadline and passes >= 1
            if done and (not whole_passes or i % len(self.calls) == 0):
                if cold is not None:
                    cold.finish()
                return samples, passes


def typical_seconds(samples: list[tuple[float, float]], probe_s: float = REFERENCE_S) -> float:
    """Typical seconds of a call or set-up at the reference speed: the median
    of its wall time over its probe's time just before, times ``probe_s``."""
    if not samples:
        return float("nan")
    return probe_s * statistics.median(wall / probe for wall, probe in samples)


def wall_seconds(samples: list[tuple[float, float]]) -> float:
    """Median measured wall time of a call or set-up."""
    return statistics.median(wall for wall, _ in samples) if samples else float("nan")


def pass_seconds(workload, samples, typical=typical_seconds) -> tuple[float, dict[str, float]]:
    """Seconds of one pass: per kind, calls per pass times the typical call."""
    per_kind = {k: typical(v) for k, v in samples.items()}
    return sum(workload.kinds[k] * per_kind[k] for k in workload.kinds), per_kind


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """One benchmark run; returns the result object and the report lines."""
    threads = pin_blas_threads()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy as np
    import workloads
    import tracing

    workload = workloads.WORKLOADS[name](sizes or workloads.FULL)
    cold_rng, input_rng = (np.random.default_rng(s) for s in
                           np.random.SeedSequence([seed, zlib.crc32(name.encode())]).spawn(2))
    work = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cold = ColdStarts(workload, work, cold_rng)
        workload.prepare(work, input_rng)
        runner = Runner(workload)
        warm = {}
        for call in runner.calls:
            if warm.setdefault(call.kind, call) is call:
                runner.one(call)
        workload.reset_stats()

        lines = []
        if not trace:
            samples, _ = runner.timed(seconds, cold=cold)
            pass_s, typical = pass_seconds(workload, samples)
            metrics = {
                "setup_s": typical_seconds(cold.samples, STARTUP_PROBE_S),
                "pass_s": pass_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = dict(END_TO_END)
            recorded = samples
            probes = [probe for values in samples.values() for _, probe in values]
            extra = {"fail_ratio": (len(runner.failures) / runner.attempted, "ratio", "lower",
                                    runner.attempted),
                     "setup_wall_s": (wall_seconds(cold.samples), "s", "lower", None),
                     "pass_wall_s": (pass_seconds(workload, samples, wall_seconds)[0], "s",
                                     "lower", None),
                     "reference_s": (statistics.median(probes), "s", "lower", None),
                     "startup_probe_s": (statistics.median(p for _, p in cold.samples), "s",
                                         "lower", None),
                     **workload.report(typical)}
            nan = float("nan")
            for kind, values in samples.items():
                walls = [wall for wall, _ in values]
                deciles = statistics.quantiles(walls, n=10) if len(walls) > 1 else [nan] * 9
                lines.append(f"calls {kind} n={len(walls)} typical_s={typical[kind]!r} "
                             f"wall_median_s={wall_seconds(values)!r} "
                             f"wall_p90_s={deciles[8]!r} wall_min_s={min(walls, default=nan)!r} "
                             f"wall_max_s={max(walls, default=nan)!r}")
        else:
            untraced, _ = runner.timed(seconds / 2, cold=cold)
            untraced_pass_s, _ = pass_seconds(workload, untraced)
            timer = tracing.Tracer()
            tracing.install(timer)
            try:
                traced, passes = runner.timed(seconds / 2, whole_passes=True, timer=timer)
            finally:
                timer.unpatch()
            traced_pass_s, _ = pass_seconds(workload, traced)
            metrics = dict.fromkeys(tracing.LAYER_METRICS, 0.0)
            metrics.update({k: statistics.median(i[k] for i in cold.imports)
                            for k in cold.imports[0]})
            metrics.update(tracing.layer_metrics(timer.spans, passes))
            metrics["trace.overhead_ratio"] = traced_pass_s / untraced_pass_s
            units = {k: (u, "lower") for k, u in tracing.LAYER_METRICS.items()}
            recorded = {"untraced": untraced, "traced": traced}
            extra = {}
            spans_path = WORK / f"spans-{name}-seed{seed}.jsonl"
            tracing.write_spans(timer, spans_path)
            lines.append(f"spans {len(timer.spans)} in {passes} traced passes -> "
                         f"{spans_path.relative_to(ROOT)}")
            for kind, ranked in tracing.largest_self_time(timer).items():
                lines.append(f"self time per {kind} call: " + ", ".join(
                    f"{n}={sec:.4f}s" for n, sec in ranked[:4]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    runner.attempted += len(cold.samples)
    runner.failures += cold.errors

    env = versions(threads)
    lines.insert(0, "env " + " ".join(f"{k}={v}" for k, v in env.items()))
    lines.append("waiting: one caller, no queues; zero by construction, not reported")
    for metric, value in metrics.items():
        unit, better = units[metric]
        lines.append(f"metric {metric} {value!r} {unit} {better}")
    for metric, (value, unit, better, base) in extra.items():
        lines.append(f"report {metric} {value!r} {unit} {better}"
                     + ("" if base is None else f" base={base}"))
    for failure in runner.failures[:20]:
        lines.append(f"FAILED {failure}")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": float(v), "unit": units[k][0]} for k, v in metrics.items()},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": env, "result": result, "setup_samples": cold.samples,
              "call_samples": recorded,
              "report": {k: {"value": v[0], "unit": v[1], "better": v[2], "base": v[3]}
                         for k, v in extra.items()}}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return {"result": result, "lines": lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "perturbreg" / "__init__.py").is_file():
        print(f"error: no perturbreg package under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    from workloads import WORKLOADS, CheckFailed
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        out = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except CheckFailed as exc:  # the reference outputs made while preparing are wrong
        print(f"FAILED while preparing inputs: {exc}", file=sys.stderr)
        return 1
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
