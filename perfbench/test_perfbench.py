"""The benchmark's own test: every workload at a tiny size.

Checks that each run prints every metric BENCHMARK.json names, with its
unit, that no op fails, and that the computed counts of two traced runs
of one seed are identical.

    python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# computed from array shapes, so they must repeat exactly for one seed
COUNTS = (
    "kernels.kernel_matrix.entries",
    "kernels.entries_per_op",
    "assembly.approx_parts.gemm_flops",
    "assembly.solve_block.calls",
    "assembly.solve_block.order",
    "assembly.solve_block.lu_flops",
    "assembly.solve_block.failures",
    "interpolant.eval_model.calls",
    "interpolant.eval_model.points",
    "exact_smoother.diagnostics.not_ok",
    "study.rho_search.evals",
)
REPORTED = ("setup_s", "latency_p50_s", "items_per_s", "err_max", "peak_rss_mb",
            "wall_setup_s", "wall_ops_per_s", "wall_latency_p50_s",
            "wall_latency_p90_s", "probe_s", "fail_ratio")
ITEMS = {"approx_stream": "fit_points_per_s", "exact_dense": "fit_points_per_s",
         "predict": "query_points_per_s", "rho_tune": "rho_evals_per_s"}


def run(workload, trace, seed=3):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return lines[:-1], result["metrics"]


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metrics_printed_and_counts_repeat(workload):
    report, metrics = run(workload, trace=0)
    assert {k: v["unit"] for k, v in metrics.items()} == units("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())
    printed = {line.split()[1]: line.split()[3] for line in report
               if line.startswith("metric ")}
    for name in REPORTED:
        assert printed.get(name), f"{name} not printed with a unit"
    assert any(ITEMS[workload] in line for line in report)

    _, first = run(workload, trace=1)
    _, second = run(workload, trace=1)
    assert {k: v["unit"] for k, v in first.items()} == units("per_layer")
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name
