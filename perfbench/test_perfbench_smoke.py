"""Tiny-size smoke test of every benchmark workload, untraced and traced.

Each run must exit cleanly, print a result line with exactly the metrics
BENCHMARK.json names for its mode and with their units, and a report line
naming the workload's own metrics with units and sample counts.  There are
no timing asserts.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMED = {
    "expert_data": ("transitions_per_s",),
    "bc_train": ("train_steps_per_s", "bc_loss_final"),
    "policy_eval": ("env_steps_per_s", "eval_norm_dist"),
    "artifact_io": ("artifact_mb_per_s",),
}
COMMON = ("setup_s", "wall_s", "peak_rss_mb", "ops_failed_frac")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    # the push env's scripted expert keeps no episodes: a known, counted failure
    assert (result["failed"] > 0) == (workload == "expert_data")
    assert all("DataQualityError" in reason for reason in report["failures"])

    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        for name in COMMON + NAMED[workload]:
            assert report["metrics"][name]["unit"]
            assert report["metrics"][name]["n"] >= 1
