"""Run every workload and print one table: the end-to-end metrics of each
workload over several seeds (median, quartile spread, bound), then one traced
run per workload with its per-layer metrics, tracing overhead, and a
cross-check of the traced per-call times against ROADMAP.md's reference table.

    python3 perfbench/suite.py --seeds 5 --first-seed 1

Each run is a separate ``run.py`` process, so no state is shared between them.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(workload: str, seed: int, trace: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return {"report": json.loads(lines[-2])["report"], "result": json.loads(lines[-1])}


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance as a share of the median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("nan")


def end_to_end(workload: str, seeds: list[int], seconds: float) -> None:
    runs = [run(workload, s, 0, seconds) for s in seeds]
    print(f"\n== {workload}: {len(runs)} untraced runs, seeds {seeds[0]}..{seeds[-1]}")
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    print(f"  {'metric':<22} {'median':>12}  {'unit':<14} {'iqr/median':>10} "
          f"{'bound':>6}  samples per run")
    for name, first in runs[0]["report"]["metrics"].items():
        values = [r["report"]["metrics"][name]["value"] for r in runs]
        med, rel = spread(values)
        bound = f"{bounds[name]:.2f}" if name in bounds else "-"
        print(f"  {name:<22} {med:>12.6g}  {first['unit']:<14} {rel:>10.4f} {bound:>6}  "
              f"{first['n']}")
    for name in bounds.keys() - runs[0]["report"]["metrics"].keys():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med, rel = spread(values)
        print(f"  {name:<22} {med:>12.6g}  {runs[0]['result']['metrics'][name]['unit']:<14} "
              f"{rel:>10.4f} {bounds[name]:>6.2f}  (generic throughput)")
    failed = sum(r["result"]["failed"] for r in runs)
    attempted = sum(r["result"]["attempted"] for r in runs)
    correct = all(r["result"]["correct"] for r in runs)
    print(f"  operations: {attempted} attempted, {failed} failed; outputs correct: {correct}")
    for reason in sorted({k for r in runs for k in r["report"]["failures"]}):
        print(f"    {reason}")


def traced(workload: str, seed: int, seconds: float) -> None:
    r = run(workload, seed, 1, seconds)
    metrics = r["report"]["metrics"]
    print(f"\n== {workload}: traced run, seed {seed}, "
          f"{metrics['trace.overhead_s']['n']} traced rounds (non-zero metrics)")
    for name, m in metrics.items():
        if m["value"]:
            print(f"  {name:<44} {m['value']:>12.6g}  {m['unit']}")


def per_call(trace: dict, label: str, span: str) -> float:
    """Mean seconds per call of ``span``, children included, in operations called ``label``."""
    row = trace["by_label"][label]["spans"][span]
    return row["total_s"] / row["calls"]


def cross_check() -> None:
    """Traced figures beside ROADMAP.md's reference table (cProfile, +-30%)."""
    def load(workload):
        path = ROOT / ".perfbench" / f"trace-{workload}.json"
        return json.loads(path.read_text()) if path.exists() else None

    print("\n== cross-check against ROADMAP.md (traced, so inflated by the overhead above)")
    expert = load("expert_data")
    if expert:
        label = "generate_dataset:ant_reach_5"
        print(f"  env.local_observations per call, ant_reach_5: "
              f"{per_call(expert, label, 'env.local_observations') * 1e3:.3f} ms   (ref 0.55-0.6 ms)")
        print(f"  env.step per call, ant_reach_5:               "
              f"{per_call(expert, label, 'env.step') * 1e6:.0f} us     (ref 70-130 us)")
        print(f"  env.scripted_expert per call, ant_reach_5:    "
              f"{per_call(expert, label, 'env.scripted_expert') * 1e6:.0f} us     (ref 140-170 us)")
    bc = load("bc_train")
    if bc:
        spans = bc["by_label"]["train"]["spans"]
        steps = spans["distill.adam_step"]["calls"]
        train_s = spans["distill.train"]["total_s"]
        lin = spans["nn.autodiff.linear"]["self_s"] / train_s
        ln = spans["nn.autodiff.layer_norm"]["self_s"] / train_s
        print(f"  train ms/step, batch 64:                      {train_s / steps * 1e3:.1f} ms "
              f"(ref ~36 ms); forward shares: linear {lin:.0%}, layer_norm {ln:.0%} "
              f"(ref fwd+bwd 33%, 20%; backward is under nn.autodiff.backward)")
    io = load("artifact_io")
    if io:
        print(f"  checkpoint_bytes, default PolicyConfig:       "
              f"{per_call(io, 'save_checkpoint', 'distill.checkpoint_bytes'):.2f} s   "
              f"(ref 1.5-1.7 s)")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seeds", type=int, default=3, help="untraced runs per workload")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    args = p.parse_args(argv)
    names = [w for w in args.workloads.split(",") if w]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    for w in names:
        if args.seeds:
            end_to_end(w, seeds, args.seconds)
    for w in names:
        traced(w, args.first_seed, args.seconds)
    cross_check()
    return 0


if __name__ == "__main__":
    sys.exit(main())
