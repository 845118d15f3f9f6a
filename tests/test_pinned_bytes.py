"""Pinned artifact bytes of a tiny gen-data -> distill -> eval pipeline,
and of the generator on 3-goal, reach, touch and push bodies.

Criterion 9 compares two runs of the same code, and the op-level oracles
share the kernels they check, so a change that moves one rounding inside
a shared kernel (attention, layer norm, Adam) passes both.  These tests pin
the sha256 of a checkpoint, of a report.csv and of a dataset instead: any
moved bit in data, training or evaluation changes them.

GEMMs and libm may round differently on another CPU or BLAS build, so the
pins are compared only where a float fingerprint of those primitives, on
fixed inputs and at the model's shapes, equals the one recorded with them.
Elsewhere the test skips and gives the fingerprint in its reason.
"""
import hashlib

import numpy as np
import pytest

from morphtask import distill, evaluation
from morphtask.control_graph import DEFAULT_OBS_FLAGS, build_observation_spec, cg_feature_width
from morphtask.distill import DataQualityError, GenReport
from morphtask.env import make_env
from morphtask.nn.policies import PolicyConfig, init_params

ENVS = ("ant_reach_2", "worm_touch_2")
FINGERPRINT = "e7cdcf4033f71ae166de81f3c85f87e4dc33d68464c526ec09e1d4d613a5a7aa"
PINS = {"checkpoint": "d88c1b7e65b05de6e846c2a41a893ded2fabf2a57debf3311df1b5e6654259ce",
        "report.csv": "f842a34c1a3332daf5fc4529d9e42037882bf1f08af21db9eb014bb506a4ede2"}
# generate_dataset of GEN_ENVS at 120 transitions, seed 3: the dataset_bytes
# digest, the reports and per env the digest of its features; and ant_push_3's
# refusal at the same size and seed.
GEN_ENVS = ("ant_reach_5", "claw_reach_4", "centipede_reach_handsup2_4")
GEN_DATASET = "9429747ed8f0afb9a681024e3f0d5cdcf63d83775d6d1f1c475acb5fa553efa7"
GEN_REPORTS = [
    GenReport("ant_reach_5", 1, 1, 120, 1.0, -0.0006648166967543289),
    GenReport("claw_reach_4", 1, 1, 120, 1.0, -0.001089621841433284),
    GenReport("centipede_reach_handsup2_4", 2, 2, 120, 1.0, -0.00879983876339556)]
GEN_FEATURES = {
    "ant_reach_5": "3089f2c4120e8cb20ec595515d529786b48594347f0f3c56c95edfc0734fc835",
    "claw_reach_4": "99bb5c5c3f34f03dfcb272c4149816648fc271f39f79350bb416b6db42ff9100",
    "centipede_reach_handsup2_4":
        "f608a05e4c3204bcc4bf406420a7c02ce871305d7a6d27a2316b7ff3efc7b212"}
PUSH_ERROR = "scripted expert proficient on only 0/13 episodes for env 'ant_push_3'"
# The same for two ball_contact bodies, at 120 transitions, seed 3; claw_touch_3
# rejects one of its four attempts.
TOUCH_ENVS = ("claw_touch_3", "centipede_touch_handsup_4")
TOUCH_DATASET = "e94047cfc093abac29e3cabdf4aa028225660ab7281a1e7874ffe5b18c5febe8"
TOUCH_REPORTS = [
    GenReport("claw_touch_3", 4, 3, 120, 0.75, -0.000828928531060221),
    GenReport("centipede_touch_handsup_4", 2, 2, 120, 1.0, -0.006986073634485785)]


def float_fingerprint() -> str:
    """sha256 of GEMMs at the model's shapes (plain and transposed operands,
    batched attention products) and of the ufuncs the pipeline rounds
    through, all on fixed inputs."""
    rng = np.random.Generator(np.random.PCG64(20221128))
    width = cg_feature_width(build_observation_spec(DEFAULT_OBS_FLAGS), "v2")
    out = []
    for rows, k, m in ((160, width, 16), (160, 16, 48), (160, 16, 16), (16, 160, 48),
                       (16, 160, 16)):
        a, b = rng.standard_normal((rows, k)), rng.standard_normal((k, m))
        out += [a @ b, b.T @ a.T, np.ascontiguousarray(a.T).T @ b]
    queries, keys = rng.standard_normal((2, 16, 2, 10, 8))
    out.append(queries @ np.swapaxes(keys, -1, -2))
    x = rng.standard_normal(4099)
    out += [np.exp(x), np.tanh(x), np.log(np.abs(x) + 1e-3), np.sqrt(np.abs(x)),
            np.sin(x), np.cos(x), np.arctan2(x[1:], x[:-1]),
            np.add.reduce(x), np.add.reduce(x[:4097].reshape(17, 241), axis=1),
            np.add.reduce(x[:4096].reshape(64, 64), axis=0)]
    return hashlib.sha256(b"".join(np.asarray(v).tobytes() for v in out)).hexdigest()


def pipeline_digests(tmp_path) -> dict[str, str]:
    """sha256 of the checkpoint and report.csv of the tiny pipeline: 40
    transitions per env at seed 3 through write_dataset and read_dataset, a
    2-layer embed-16 transformer for 5 steps, evaluation on seeds 0 and 1 for
    10 steps."""
    obs_spec = build_observation_spec(DEFAULT_OBS_FLAGS)
    ds, _ = distill.generate_dataset([make_env(e) for e in ENVS], n_transitions=40,
                                     seed=3, obs_spec=obs_spec)
    distill.write_dataset(ds, tmp_path / "dataset.cgds")
    ds = distill.read_dataset(tmp_path / "dataset.cgds")
    config = PolicyConfig(arch="transformer", feature_width=cg_feature_width(obs_spec, "v2"),
                          embed=16, attn_hidden=16, heads=2, layers=2, max_nodes=24)
    params, _ = distill.train(init_params("transformer", config, 0), ds,
                              distill.TrainConfig(steps=5, batch_size=16, seed=0))
    result = evaluation.evaluate_policy(params, ENVS, [0, 1], 10)
    return {"checkpoint": hashlib.sha256(distill.checkpoint_bytes(params)).hexdigest(),
            "report.csv": hashlib.sha256(
                evaluation.metric_report_csv(result, [0, 1]).encode()).hexdigest()}


def skip_unless_pinned_rounding():
    fingerprint = float_fingerprint()
    if fingerprint != FINGERPRINT:
        pytest.skip(f"float fingerprint {fingerprint} differs from the pinned "
                    f"{FINGERPRINT}: this machine may round GEMMs or libm differently")


def test_pipeline_bytes_equal_their_pins(tmp_path):
    skip_unless_pinned_rounding()
    assert pipeline_digests(tmp_path) == PINS


def test_generator_bytes_equal_their_pins():
    skip_unless_pinned_rounding()
    ds, reports = distill.generate_dataset([make_env(e) for e in GEN_ENVS],
                                           n_transitions=120, seed=3)
    assert hashlib.sha256(distill.dataset_bytes(ds)).hexdigest() == GEN_DATASET
    assert reports == GEN_REPORTS
    assert {e.env_id: hashlib.sha256(e.features.tobytes()).hexdigest()
            for e in ds.environments} == GEN_FEATURES
    with pytest.raises(DataQualityError) as failure:
        distill.generate_dataset([make_env("ant_push_3")], n_transitions=120, seed=3)
    assert str(failure.value) == PUSH_ERROR


def test_touch_generator_bytes_equal_their_pins():
    skip_unless_pinned_rounding()
    ds, reports = distill.generate_dataset([make_env(e) for e in TOUCH_ENVS],
                                           n_transitions=120, seed=3)
    assert hashlib.sha256(distill.dataset_bytes(ds)).hexdigest() == TOUCH_DATASET
    assert reports == TOUCH_REPORTS
