"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs once untraced and once traced with ``--size tiny``.
The untraced run must print every end-to-end metric with its unit and
fail no check; the traced run must print every per-layer metric.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import tracing  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMED = {
    "cli-session": {"cli_p50_s": "s", "cli_tail_s": "s"},
    "acquisition": {"acq_scan_p50_s": "s", "acq_nodes_per_s": "nodes/s"},
    "analysis": {"analysis_round_p50_s": "s", "analysis_rounds_per_s": "rounds/s"},
}
PROBES = ("process.python_start_s", "import.pmlab_s", "import.scipy_s", "import.numpy_s")


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *lines, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {}
    for line in lines:
        if line.startswith("#"):
            continue
        name, value, unit = line.split()
        printed[name] = (float(value), unit)
    return result, printed


def assert_reported(result, printed, listed):
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0, metric["name"]
        assert printed[metric["name"]][1] == metric["unit"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result, printed = run(workload, 0)
    assert_reported(result, printed, SPEC["end_to_end"])
    for name, unit in NAMED[workload].items():
        assert printed[name][1] == unit and printed[name][0] > 0
    assert printed["error_ratio"] == (0.0, "1")


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_every_per_layer_metric(workload):
    result, printed = run(workload, 1)
    assert_reported(result, printed, SPEC["per_layer"])
    expected = set(tracing.layer_metrics([])) | set(PROBES) | {"trace.overhead_ratio"}
    assert expected <= set(printed)
    for name in expected:
        assert printed[name][1] == tracing.unit_of(name)
