"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report.  The desk-scale distillation (criteria 6 and 7) takes a few minutes;
everything else is seconds.
"""
import math
import os
import subprocess
import sys
import time
from decimal import Decimal, getcontext
from pathlib import Path

import numpy as np
import pytest

import morphtask
from morphtask.cli import main as cli_main
from morphtask.control_graph import (
    build_cg_v1,
    build_cg_v2,
    build_observation_spec,
    dequantize,
    mu_law,
    quantize,
)
from morphtask.distill import (
    TrainConfig,
    bc_loss,
    build_cg,
    cg_feature_width,
    generate_dataset,
    train,
)
from morphtask.env import (
    goal_distance,
    local_observations,
    make_env,
    reset,
    scripted_expert,
    step,
)
from morphtask.evaluation import (
    evaluate_policy,
    normalized_final_distance,
    percentage_improvement,
    rollout,
)
from morphtask.nn import autodiff as ad
from morphtask.nn.policies import (
    PolicyConfig,
    init_params,
    transformer_grid,
)

from test_control_graph import goal_bindings
from test_policies import directional_grad_check

OBS = build_observation_spec(["p", "v", "q", "a", "ja", "jr", "m"])
DESK_ENVS = ["ant_reach_3", "ant_reach_5",
             "ant_reach_handsup_3", "ant_reach_handsup_5"]


def report(criterion: int, detail: str):
    print(f"\n[PASS] criterion {criterion}: {detail}")


# --- criterion 1: gradient fidelity ------------------------------------------------

def _toy_pairs(variant="v2", k=4):
    spec = make_env("worm_touch_2")           # 2-node body
    pairs = []
    for seed in range(k):
        state = reset(spec, seed)
        obs = local_observations(state, OBS)
        cg = build_cg(spec, obs, np.concatenate(state.goals), variant)
        pairs.append((cg, scripted_expert(state)))
    return pairs


def test_criterion_1_gradient_fidelity():
    t0 = time.time()
    width2 = cg_feature_width(OBS, "v2")
    width1 = cg_feature_width(OBS, "v1")
    configs = {
        "mlp": PolicyConfig(arch="mlp", feature_width=width1, mlp_hidden=8,
                            max_nodes=4, max_action=4, cg_variant="v1"),
        "gnn": PolicyConfig(arch="gnn", feature_width=width1, gnn_hidden=8,
                            gnn_layers=2, cg_variant="v1"),
        "transformer": PolicyConfig(arch="transformer", feature_width=width2,
                                    embed=8, attn_hidden=8, heads=2, layers=1,
                                    max_nodes=8),
        "tokenized-c": PolicyConfig(arch="transformer_tokenized",
                                    feature_width=width2, embed=8,
                                    attn_hidden=8, heads=2, layers=1,
                                    max_nodes=8, token_variant="c"),
    }
    for name, cfg in configs.items():
        pairs = _toy_pairs("v1" if cfg.cg_variant == "v1" else "v2")
        params = init_params(cfg.arch, cfg, 1)
        directional_grad_check(params, lambda p: bc_loss(p, pairs),
                               n_dirs=50, eps=1e-5, rtol=1e-4, seed=7)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(1, f"MLP/GNN/Transformer/tokenized-C gradients match central "
              f"finite differences (eps=1e-5, rel 1e-4, 50 directions each) "
              f"in {elapsed:.1f}s")


# --- criterion 2: metric oracle ------------------------------------------------------

def test_criterion_2_metric_oracle():
    rng = np.random.default_rng(42)
    groups = []
    for e in range(3):
        finals = rng.uniform(0.15, 4.0, size=(8, 3))
        d_min = tuple(rng.uniform(0.01, 0.12, size=3))
        d_max = tuple(rng.uniform(2.0, 9.0, size=3))
        groups.append((f"ant_reach_{e + 2}", finals, d_min, d_max))

    def brute_force(groups):
        total = 0.0
        for _, finals, d_min, d_max in groups:
            env_total = 0.0
            for s in range(finals.shape[0]):
                for g in range(finals.shape[1]):
                    env_total += (finals[s, g] - d_min[g]) / (d_max[g] - d_min[g])
            total += env_total / finals.shape[0]
        return total / len(groups)

    result = normalized_final_distance(groups)
    assert abs(result.aggregate - brute_force(groups)) <= 1e-12
    at_min = normalized_final_distance(
        [("ant_reach_2", np.full((4, 1), 0.1), (0.1,), (8.75,))])
    at_max = normalized_final_distance(
        [("ant_reach_2", np.full((4, 1), 8.75), (0.1,), (8.75,))])
    assert at_min.aggregate == 0.0
    assert at_max.aggregate == 1.0
    report(2, "normalized final distance equals the brute-force oracle to "
              "1e-12 on 3 envs x 3 goals x 8 seeds; endpoints are exactly 0 and 1")


# --- criterion 3: reference improvement arithmetic --------------------------------------

def test_criterion_3_improvement_numbers():
    first = percentage_improvement(0.3128, 0.4069)
    second = percentage_improvement(0.4066, 0.4940)
    assert abs(first - 23.13) <= 0.01
    assert abs(second - 17.69) <= 0.01
    assert 14.0 <= second <= 18.0
    report(3, f"improvement(0.3128, 0.4069) = {first:.2f}%; "
              f"improvement(0.4066, 0.4940) = {second:.2f}%")


# --- criterion 4: mu-law / tokenizer ------------------------------------------------------

def test_criterion_4_mu_law_tokenizer():
    assert float(mu_law(0.0)) == 0.0
    assert float(mu_law(256.0)) == 1.0
    assert float(mu_law(-256.0)) == -1.0
    ys = np.linspace(-1.0, 1.0, 10_000)
    err = np.abs(dequantize(quantize(ys), "center") - ys)
    assert err.max() <= 1.0 / 1024
    getcontext().prec = 60
    oracle = float(Decimal(101).ln() / Decimal(25601).ln())
    assert abs(float(mu_law(1.0)) - oracle) <= 1e-12
    assert abs(oracle - 0.454672) <= 1e-5
    report(4, f"mu_law endpoints exact; 10^4-point round trip within 1/1024; "
              f"mu_law(1) = {float(mu_law(1.0)):.6f} vs extended-precision "
              f"{oracle:.6f}")


# --- criterion 5: architecture invariants ----------------------------------------------------

def test_criterion_5_architecture_invariants():
    spec = make_env("ant_reach_handsup_4")
    state = reset(spec, 3)
    obs = local_observations(state, OBS)
    cg = build_cg_v2(obs, goal_bindings(state), spec.graph)
    cfg = PolicyConfig(arch="transformer", feature_width=cg.width, embed=16,
                       attn_hidden=16, heads=2, layers=2, max_nodes=24,
                       use_pe=False)
    params = init_params("transformer", cfg, 5)
    grid, attn = transformer_grid(params, cg.node_features[None],
                                  cg.action_mask[None])
    np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(attn >= 0.0)
    rng = np.random.default_rng(0)
    for _ in range(4):
        sigma = rng.permutation(cg.n_nodes)
        grid_p, attn_p = transformer_grid(params, cg.node_features[sigma][None],
                                          cg.action_mask[sigma][None])
        assert np.array_equal(grid_p.data[0], grid.data[0][sigma])
        assert np.array_equal(attn_p[0], attn[0][:, :, sigma][:, :, :, sigma])
    assert np.all(grid.data[0][cg.action_mask == 0.0] == 0.0)
    params.zero_grad()
    inverse = 1.0 - cg.action_mask
    masked_only, _ = transformer_grid(params, cg.node_features[None],
                                      cg.action_mask[None])
    ad.tsum(ad.mul(masked_only, inverse[None])).backward()
    np.testing.assert_array_equal(params.tensors["decode/W"].grad, 0.0)
    np.testing.assert_array_equal(params.tensors["decode/b"].grad, 0.0)
    report(5, "attention rows sum to 1 +/- 1e-12; PE-off permutation "
              "equivariance holds bit-exactly; masked slots are exactly 0 "
              "and receive zero gradient")


# --- criteria 6 + 7 + 8: desk-scale distillation pipeline --------------------------------------

def desk_run(seed: int) -> dict:
    """The desk pipeline: gen-data seed 7 with 2000 transitions per desk env,
    then a 3-layer embed-64 transformer trained 5000 Adam steps at batch 64,
    with init seed = train seed = `seed`.  `tests/criterion6_sweep.py` runs
    it over several seeds; the acceptance tests use seed 0."""
    t0 = time.time()
    specs = [make_env(e) for e in DESK_ENVS]
    ds, reports = generate_dataset(specs, expert_gain=1.0, n_transitions=2000,
                                   seed=7, obs_spec=OBS)
    cfg = PolicyConfig(arch="transformer", feature_width=cg_feature_width(OBS, "v2"),
                       embed=64, attn_hidden=64, heads=2, layers=3,
                       max_nodes=24, cg_variant="v2", obs_flags=OBS.flags)
    random_init = init_params("transformer", cfg, seed)
    params = init_params("transformer", cfg, seed)
    params, curve = train(params, ds, TrainConfig(steps=5000, batch_size=64,
                                                  seed=seed))
    elapsed = time.time() - t0
    return {"dataset": ds, "reports": reports, "params": params,
            "random": random_init, "curve": curve, "train_time": elapsed}


@pytest.fixture(scope="module")
def desk_pipeline():
    return desk_run(0)


def test_criterion_6_desk_distillation(desk_pipeline):
    curve = desk_pipeline["curve"]
    init_loss, final_loss = curve[0][1], curve[-1][1]
    assert final_loss <= 0.1 * init_loss, (init_loss, final_loss)
    seeds = list(range(64))
    d_model = evaluate_policy(desk_pipeline["params"], DESK_ENVS, seeds)
    d_rand = evaluate_policy(desk_pipeline["random"], DESK_ENVS, seeds)
    assert d_model.aggregate <= 0.5 * d_rand.aggregate, (
        d_model.aggregate, d_rand.aggregate)
    total = desk_pipeline["train_time"]
    assert total <= 600.0, f"gen+train took {total:.0f}s"
    report(6, f"BC loss {init_loss:.4f} -> {final_loss:.4f} "
              f"(ratio {final_loss / init_loss:.4f} <= 0.1); distilled "
              f"d-bar {d_model.aggregate:.4f} <= 0.5 x random "
              f"{d_rand.aggregate:.4f}; gen+train {total:.0f}s")


def test_criterion_7_zero_shot_ant4(desk_pipeline):
    params = desk_pipeline["params"]
    finals = {}
    for env_id in ("ant_reach_4", "ant_reach_handsup_4"):
        spec = make_env(env_id)
        traj = rollout(params, spec, seed=123, T=100)
        assert traj.actions.shape[1] == 8  # unseen ant_4 emits exactly 8 actions
        assert np.all(np.isfinite(traj.actions))
        finals[env_id] = traj.final_distances
    d4 = evaluate_policy(params, ["ant_reach_4", "ant_reach_handsup_4"],
                         seeds=list(range(16)))
    # Directional claim (held-out morphology scores worse than training envs
    # but far better than random) is logged, not asserted.
    report(7, f"zero-shot ant_4 rollouts emit 8 actions per step; "
              f"d-bar on unseen ant_4 envs = {d4.aggregate:.4f} (logged)")


def test_criterion_8_expert_and_dataset_quality(desk_pipeline):
    spec = make_env("ant_reach_3")
    hits = 0
    for seed in range(200):
        state = reset(spec, seed)
        for _ in range(spec.task.episode_length):
            state = step(state, scripted_expert(state))
            if goal_distance(state, 0) <= spec.task.d_min[0]:
                hits += 1
                break
    assert hits >= 190, f"expert reached the goal in only {hits}/200 episodes"
    worst = max(r.mean_normalized_final for r in desk_pipeline["reports"])
    assert worst <= 0.1
    report(8, f"scripted expert success {hits}/200 within 500 steps; "
              f"worst per-env dataset d-bar {worst:.4f} <= 0.1")


# --- criterion 9: pipeline determinism -----------------------------------------------------------

CRITERION_9_CONFIG = (
    "envs = ant_reach_2\n"
    "transitions = 150\n"
    "steps = 60\n"
    "batch_size = 8\n"
    "embed = 16\n"
    "attn_hidden = 16\n"
    "layers = 1\n"
    "eval_seeds = 4\n"
    "eval_horizon = 20\n")


def test_criterion_9_byte_determinism(tmp_path):
    cfg = tmp_path / "config.txt"
    cfg.write_text(CRITERION_9_CONFIG)
    artifacts = {}
    for run in ("a", "b"):
        gen = tmp_path / f"gen_{run}"
        dist = tmp_path / f"dist_{run}"
        ev = tmp_path / f"eval_{run}"
        assert cli_main(["gen-data", "--config", str(cfg), "--out", str(gen),
                         "--seed", "3"]) == 0
        assert cli_main(["distill", "--config", str(cfg), "--dataset",
                         str(gen / "dataset.cgds"), "--out", str(dist),
                         "--seed", "3"]) == 0
        assert cli_main(["eval", "--config", str(cfg), "--checkpoint",
                         str(dist / "checkpoint.cgck"), "--out", str(ev),
                         "--seed", "3"]) == 0
        artifacts[run] = (
            (gen / "dataset.cgds").read_bytes(),
            (dist / "checkpoint.cgck").read_bytes(),
            (ev / "report.csv").read_bytes(),
        )
    assert artifacts["a"][0] == artifacts["b"][0], "dataset bytes differ"
    assert artifacts["a"][1] == artifacts["b"][1], "checkpoint bytes differ"
    assert artifacts["a"][2] == artifacts["b"][2], "report bytes differ"
    report(9, "gen-data -> distill -> eval repeated with identical configs "
              "produced byte-identical dataset, checkpoint, and report files")


# The CLI pipeline in a fresh interpreter: argv is config, out dir, stages.
_PIPELINE = """
import sys
from morphtask.cli import main
cfg, out, stages = sys.argv[1], sys.argv[2], sys.argv[3].split(",")
for argv in (["gen-data", "--out", out + "/gen"],
             ["distill", "--dataset", out + "/gen/dataset.cgds", "--out", out + "/dist"],
             ["eval", "--checkpoint", out + "/dist/checkpoint.cgck", "--out", out + "/eval"]):
    if argv[0] in stages and main(argv + ["--config", cfg, "--seed", "3"]) != 0:
        sys.exit(f"stage {argv[0]} failed")
"""

_OUTPUTS = {"gen-data": "gen/dataset.cgds", "distill": "dist/checkpoint.cgck",
            "eval": "eval/report.csv"}


def _pipeline_bytes(tmp_path, config: str, name: str, stages, **env) -> dict:
    """Run the CLI stages in a subprocess with extra environment variables;
    the bytes of each stage's artifact."""
    cfg = tmp_path / "config.txt"
    cfg.write_text(config)
    out = tmp_path / name
    src = str(Path(morphtask.__file__).resolve().parents[1])
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _PIPELINE, str(cfg), str(out),
                           ",".join(stages)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return {stage: (out / _OUTPUTS[stage]).read_bytes() for stage in stages}


def test_criterion_9_byte_determinism_across_processes(tmp_path):
    # In one process every run shares the string-hash seed, so an output
    # that depended on set or dict iteration order of str keys would still
    # repeat; two interpreters with different PYTHONHASHSEED would not.
    stages = ("gen-data", "distill", "eval")
    runs = [_pipeline_bytes(tmp_path, CRITERION_9_CONFIG, f"hash_{seed}", stages,
                            PYTHONHASHSEED=seed) for seed in ("1", "2")]
    for stage in stages:
        assert runs[0][stage] == runs[1][stage], \
            f"{_OUTPUTS[stage]} differs between PYTHONHASHSEED=1 and 2"
    report(9, "gen-data -> distill -> eval in two interpreters with "
              "PYTHONHASHSEED=1 and 2 produced byte-identical dataset, "
              "checkpoint, and report files")


def test_checkpoint_bytes_independent_of_blas_threads(tmp_path):
    # 50 samples of 12 node rows: the weight gradients reduce over 600 rows,
    # more than one BLAS K block, and are large enough for OpenBLAS to
    # thread; a threaded GEMM splits such a reduction differently.
    config = ("envs = ant_reach_5\n" "transitions = 100\n" "steps = 4\n"
              "batch_size = 50\n" "embed = 64\n" "attn_hidden = 64\n" "layers = 1\n")
    runs = [_pipeline_bytes(tmp_path, config, f"threads_{n}", ("gen-data", "distill"),
                            OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n, MKL_NUM_THREADS=n)
            for n in ("1", "2")]
    assert runs[0]["distill"] == runs[1]["distill"], \
        "checkpoint differs between 1 and 2 BLAS threads"
