"""morphtask benchmark: one pipeline stage per workload, end-to-end metrics
untraced, per-layer metrics from a traced run.

    python3 perfbench/run.py --workload expert_data --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process, one client (a closed loop): each operation starts
when the previous one ends.  BLAS is pinned to one thread before numpy loads.

A run sets up the workload's fixtures, then repeats rounds of public-API
operations for ``--seconds``.  With ``--trace 0`` it sets up
``SETUP_REPEATS`` times and reports the end-to-end metrics.  With
``--trace 1`` it spends half the time on untraced rounds and half on traced
ones (after one traced setup), reports the per-layer metrics of one setup
plus one round, the tracing overhead, and writes every span to
``.perfbench/trace-<workload>.json``.

``attempted`` counts the operations of the measured rounds.  Failed
operations (an exception from the package, output that does not verify,
artifact bytes that differ between rounds) are counted in ``failed``; they do
not stop the run.  Fixtures that differ between set-ups also count as a
failure and make ``correct`` false.  The last line of standard output is
the result object; the line before it is a ``{"report": ...}`` object with
the workload's named metrics, sample counts and the machine description.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}


def import_package():
    """Import numpy and the package from this checkout; returns seconds taken."""
    src = ROOT / "src"
    if not (src / "morphtask" / "__init__.py").is_file():
        sys.exit(f"perfbench: no morphtask package under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import numpy  # noqa: F401
    import morphtask
    import morphtask.cli  # noqa: F401  (what the morphtask command loads)
    elapsed = time.perf_counter() - start
    if Path(morphtask.__file__).resolve().parent != src / "morphtask":
        sys.exit(f"perfbench: imported morphtask from {morphtask.__file__}, not {src}")
    return elapsed


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("expert_data", "bc_train", "policy_eval", "artifact_io"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every fixture and operation, for smoke tests")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def machine(seed: int) -> dict:
    import numpy
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            sha = out.stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} "
                f"({blas.get('openblas configuration', 'no openblas configuration')})",
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


def package_caches():
    """Every lru_cache in the package, so each setup pays what a fresh process pays."""
    found = []
    for name, module in list(sys.modules.items()):
        if name == "morphtask" or name.startswith("morphtask."):
            found += [v for v in vars(module).values() if hasattr(v, "cache_clear")]
    return found


class Tally:
    """Operations attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.reasons: dict[str, int] = {}
        self.digests: dict[str, str] = {}

    def fail(self, label: str, reason: str, incorrect: bool) -> None:
        self.failed += 1
        self.incorrect += incorrect
        key = f"{label}: {reason}"
        self.reasons[key] = self.reasons.get(key, 0) + 1

    def same_bytes(self, label: str, digest) -> bool:
        return self.digests.setdefault(label, digest) == digest


def run_round(wl, tally: Tally, tracer=None) -> tuple[float, float]:
    """One round of the workload's operations: (seconds inside calls, work done)."""
    busy = work = 0.0
    for label, call in wl.ops():
        tally.attempted += 1
        if tracer is not None:
            tracer.op += 1
            tracer.labels[tracer.op] = label
            tracer.active = True
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failing public-API call is a result, not a crash
            busy += time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
            tally.fail(label, f"{type(exc).__name__}: {exc}", incorrect=False)
            wl.failed(label, exc)
            continue
        busy += time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        out = wl.check(label, result)
        if out.problem is None and not tally.same_bytes(label, out.digest):
            out.problem = "artifact bytes differ between repeats"
        if out.problem is not None:
            tally.fail(label, out.problem, incorrect=True)
        else:
            work += out.work
    return busy, work


def measure(wl, seconds: float, tally: Tally, tracer=None):
    """Whole rounds for about ``seconds``: another round starts only if it
    should end nearer the deadline than stopping now.  Returns per-round busy
    time and work."""
    walls, works = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + walls[-1] / 2 < seconds:
        busy, work = run_round(wl, tally, tracer)
        walls.append(busy)
        works.append(work)
    return walls, works


def set_up(cls, args, scratch, caches, tally: Tally):
    for cache in caches:
        cache.cache_clear()
    wl = cls(args.seed, args.size, scratch)
    start = time.perf_counter()
    wl.setup()
    elapsed = time.perf_counter() - start
    if not tally.same_bytes("setup", wl.fixture_digest()):
        tally.fail("setup", "fixture bytes differ between setups", incorrect=True)
    return wl, elapsed


def untraced_run(cls, args, scratch, caches, import_s, tally):
    setups = [set_up(cls, args, scratch, caches, tally) for _ in range(SETUP_REPEATS)]
    wl = setups[-1][0]
    walls, works = measure(wl, args.seconds, tally)
    wall = statistics.median(walls)
    work = statistics.median(works)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = import_s + statistics.median(t for _, t in setups)
    metrics = {"setup_s": setup_s, "wall_s": wall, "work_per_s": work / wall,
               "peak_rss_mb": rss_mb}
    named = {
        "setup_s": (setup_s, "s", SETUP_REPEATS),
        "wall_s": (wall, "s", len(walls)),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "ops_failed_frac": (tally.failed / tally.attempted, "1", tally.attempted),
        cls.rate_metric: (work / wall, cls.rate_unit, len(walls)),
    }
    for key, value in wl.values.items():
        named[key] = (value, "1", len(walls))
    return metrics, named, walls


SETUP_LAYERS = ("morphology.generate_morphology", "env.make_env", "env.reset")


def traced_run(cls, args, scratch, caches, tally, spans, info):
    from workloads import ExpertStats
    wl, _ = set_up(cls, args, scratch, caches, tally)
    untraced, _ = measure(wl, args.seconds / 2, tally)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.labels[0] = "setup"
        tracer.active = True
        wl, _ = set_up(cls, args, scratch, caches, tally)
        tracer.active = False
        wl.expert = ExpertStats()     # expert metrics cover the rounds only
        traced, _ = measure(wl, args.seconds / 2, tally, tracer)
    finally:
        tracer.uninstall()
    rounds = len(traced)
    per_op = tracer.per_op()
    setup = per_op.get(0, {})
    per_round: dict[str, list] = {}
    for op, rows in per_op.items():
        if op == 0:
            continue
        for name, row in rows.items():
            acc = per_round.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i] / rounds

    # span metrics are per round; the setup view covers the layers set-up time rests on
    metrics = {}
    for name in spans.SPAN_NAMES:
        calls, self_s, _ = per_round.get(name, [0, 0.0, 0.0])
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
    for name in SETUP_LAYERS:
        calls, self_s, total_s = setup.get(name, [0, 0.0, 0.0])
        metrics[f"setup.{name}.calls"] = calls
        metrics[f"setup.{name}.self_s"] = self_s
    metrics["setup.env.make_env.total_s"] = setup.get("env.make_env", [0, 0.0, 0.0])[2]
    round_counts = [c for op, c in tracer.counts.items() if op != 0]
    metrics["distill.fnv1a64.bytes"] = sum(c["fnv_bytes"] for c in round_counts) / rounds
    steps = per_round.get("env.step", [0])[0]
    tensors = sum(c["tensors"] for c in round_counts) / rounds
    metrics["nn.autodiff.tensors_per_env_step"] = tensors / steps if steps else 0.0
    expert = wl.expert
    metrics["expert.keep_ratio"] = expert.kept / expert.attempts if expert.attempts else 0.0
    expert_steps = sum(n for op, n in tracer.count_under(
        "env.step", "distill.generate_dataset").items() if op != 0)
    metrics["expert.wasted_step_frac"] = (
        expert.wasted_steps / expert_steps if expert_steps else 0.0)
    base = statistics.median(untraced)
    metrics["trace.overhead_s"] = statistics.median(traced) - base
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / base

    named = {name: (value, layer_unit(name), rounds) for name, value in metrics.items()}
    write_trace(args, info, tracer, per_op, metrics)
    return metrics, named, traced


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".bytes"):
        return "bytes"
    return "1"


def write_trace(args, info, tracer, per_op, metrics) -> None:
    """Every span, plus per operation label: op count and per-span calls/self_s/total_s."""
    by_label: dict[str, dict] = {}
    for op, rows in per_op.items():
        entry = by_label.setdefault(tracer.labels[op], {"ops": 0, "spans": {}})
        entry["ops"] += 1
        for name, row in rows.items():
            acc = entry["spans"].setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for key, value in zip(("calls", "self_s", "total_s"), row):
                acc[key] += value
    with open(OUT_DIR / f"trace-{args.workload}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "size": args.size,
                   "machine": info, "metrics": metrics,
                   "op_labels": tracer.labels, "by_label": by_label,
                   "span_fields": ["name", "start", "end", "parent", "op"],
                   "spans": tracer.spans}, fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import spans
    import workloads
    cls = workloads.WORKLOADS[args.workload]
    caches = package_caches()
    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    tally = Tally()
    info = machine(args.seed)
    try:
        if args.trace:
            metrics, named, rounds = traced_run(cls, args, scratch, caches, tally, spans, info)
        else:
            metrics, named, rounds = untraced_run(cls, args, scratch, caches, import_s, tally)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"perfbench {args.workload} size={args.size} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"  {'metric':<40} {'value':>14}  {'unit':<8} n")
    for name, (value, unit, n) in named.items():
        print(f"  {name:<40} {value:>14.6g}  {unit:<8} {n}")
    print(f"  operations: {tally.attempted} attempted, {tally.failed} failed")
    for reason, count in tally.reasons.items():
        print(f"    {count} x {reason}")
    print(json.dumps({"report": {
        "workload": args.workload, "size": args.size, "trace": args.trace,
        "machine": info,
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in named.items()},
        "round_s": rounds,
        "attempted": tally.attempted, "failed": tally.failed, "failures": tally.reasons}}))
    units = END_TO_END_UNITS if not args.trace else {k: named[k][1] for k in metrics}
    print(json.dumps({
        "correct": tally.incorrect == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
