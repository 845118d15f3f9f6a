"""Criterion 6 across train seeds.

Runs the desk pipeline of ``tests/test_acceptance.py`` (``desk_run``) once
per train seed s and prints one JSON line per seed: the final/initial BC
loss, the distilled d-bar, the d-bar of the same initial parameters
untrained, and their ratio, both over eval seeds 0-63.  Seed 0 is the
acceptance test's own run, which must stay at a ratio <= 0.5.

    PYTHONPATH=src python tests/criterion6_sweep.py --seeds 0-7

Each seed takes about three minutes on one core; the name has no ``test_``
prefix, so pytest does not collect it.
"""
import argparse
import json
import sys
import time

from morphtask.evaluation import evaluate_policy

from test_acceptance import DESK_ENVS, desk_run

EVAL_SEEDS = list(range(64))
BOUND = 0.5


def seed_list(text: str) -> list[int]:
    """"0-7" or "0,3,5" -> seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("0-7"),
                    help="train seeds, e.g. 0-7 or 0,2,5 (default 0-7)")
    args = ap.parse_args(argv)
    for s in args.seeds:
        t0 = time.time()
        run = desk_run(s)
        curve = run["curve"]
        d_model = evaluate_policy(run["params"], DESK_ENVS, EVAL_SEEDS).aggregate
        d_rand = evaluate_policy(run["random"], DESK_ENVS, EVAL_SEEDS).aggregate
        print(json.dumps({
            "seed": s,
            "loss_ratio": curve[-1][1] / curve[0][1],
            "d_model": d_model,
            "d_random": d_rand,
            "ratio": d_model / d_rand,
            "passes": d_model <= BOUND * d_rand,
            "seconds": round(time.time() - t0, 1)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
