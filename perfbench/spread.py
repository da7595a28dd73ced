"""Repeat benchmark runs over seeds and report each metric's median and spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--trace 0|1] [--out FILE]

Runs ``perfbench/run.py`` once per seed and workload, one run at a time, with
the ``run_seconds`` of BENCHMARK.json. For every end-to-end metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median, beside
the metric's bound. ``--out`` writes the runs and the summary as JSON.
The exit code is 1 when a run failed or a spread other than ``setup_s`` is
above its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    summary, runs, ok = {}, [], True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            runs.append({"workload": workload, "seed": seed, "exit": proc.returncode,
                         "wall_s": wall, "result": result})
            if proc.returncode != 0 or not result or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}"
                      f"\n{proc.stderr[-2000:]}", file=sys.stderr)
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: wall {wall:.1f}s "
                  + " ".join(f"{n}={result['metrics'][n]['value']:.6g}" for n in values
                             if args.trace == 0), flush=True)
        for m in metrics:
            vals = values[m["name"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("nan")
            bound = m.get("bound")
            summary.setdefault(workload, {})[m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                "unit": m["unit"], "values": vals}
            if bound is not None:
                flag = "" if spread <= bound / 3 else (" ABOVE BOUND/3" if spread <= bound
                                                        else " ABOVE BOUND")
                if m["name"] != "setup_s" and spread > bound:
                    ok = False
                print(f"  {workload} {m['name']}: median {med:.6g} {m['unit']} "
                      f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f} bound {bound}{flag}",
                      flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps({"run_seconds": spec["run_seconds"],
                                              "summary": summary, "runs": runs},
                                             indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
