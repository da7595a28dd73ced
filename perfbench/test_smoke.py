"""Smoke test: each workload runs at toy size and emits every named metric.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
SOLVE_REPORT = {"solve_dense_s", "solve_volterra_s", "solve_fredholm_s", "sweep_s",
                "certificate_violation_ratio"}
COMMON_REPORT = {"fail_ratio", "setup_wall_s", "pass_wall_s", "reference_s",
                 "startup_probe_s"}
REPORTED = {
    "differentiate_cli": COMMON_REPORT | {"differentiate_samples_per_s", "deriv_err_interior",
                                          "experiment_runs_per_s", "experiment_err_interior"},
    "solve": COMMON_REPORT | {f"{part}_{name}" for part in ("lib", "cli")
                              for name in SOLVE_REPORT},
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(name, trace):
    out = run.run_benchmark(name, seed=7, seconds=0.2, trace=bool(trace), sizes=workloads.TOY)
    result = out["result"]
    assert result["correct"], "\n".join(out["lines"])
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace == 0:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in listed)
        reported = {line.split()[1] for line in out["lines"] if line.startswith("report ")}
        assert reported == REPORTED[name]
    json.dumps(result, allow_nan=False)


def test_counterexample_violates_its_certificate():
    # The known dense-path defect must stay visible, not be fixed here.
    w = workloads.SolveLibDense(workloads.TOY)
    w.cx = workloads.counterexample()
    report = w._counterexample()
    assert report.bound is not None
    assert report.observed_error > 5 * report.bound


def test_import_times_counts_outermost_entries():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |         50 |     referencing",
        "import time:       150 |        200 |   jsonschema",
        "import time:      1000 |       1500 | perturbreg",
        "import time:        10 |         10 | perturbreg.cli",
    ])
    assert run.import_times(stderr) == {"import.total_s": 1510e-6, "import.scipy_s": 300e-6,
                                        "import.jsonschema_s": 200e-6}
