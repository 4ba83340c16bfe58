"""Smoke test of the benchmark harness on the current sources.

The traced run wraps package functions at their module attributes
(perfbench/tracer.py), so a refactor that drops one of them fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload]
        + ["--seed", "1", "--seconds", "2", "--trace", trace],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr[-2000:]
    assert result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", ["scan_plane", "point_queries", "slit_solver"])
def test_traced_run_is_correct(workload):
    metrics = run_bench(workload, "1")["metrics"]
    if workload == "slit_solver":
        # the tracer times extremal.splu and the solve() of what it returns
        assert metrics["extremal.solves"]["value"] > 0
        assert metrics["extremal.factor_s.n128"]["value"] > 0.0
        # Q is taken from the wrapped solve(), not past it
        assert metrics["extremal.backsolve_s.n128"]["value"] > 0.0


@pytest.mark.parametrize("workload", ["scan_plane"])
def test_untraced_run_is_correct(workload):
    # the untraced mode is the one whose end-to-end metrics are compared
    metrics = run_bench(workload, "0")["metrics"]
    assert sorted(metrics) == ["peak_rss_mb", "setup_s", "work_per_s"]
    assert all(metrics[name]["value"] > 0.0 for name in metrics)
