import contextlib
import io
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morphtask import artifacts
from morphtask import evaluation as meval
from morphtask.artifacts import seal
from morphtask.cli import (
    _CHOICES,
    _LEAST,
    CONFIG_DEFAULTS,
    UsageError,
    _obs_spec,
    build_configs,
    build_parser,
    main,
    resolve_config,
)
from morphtask.control_graph import DEFAULT_OBS_FLAGS
from morphtask.distill import (
    CHECKPOINT_MAGIC,
    DATASET_MAGIC,
    CorruptionError,
    TrainConfig,
    TransitionDataset,
    checkpoint_bytes,
    generate_dataset,
    load_checkpoint,
    read_dataset,
    write_dataset,
)
from morphtask.env import make_env
from morphtask.evaluation import read_tensor_table
from morphtask.morphology import text_lines
from morphtask.nn import autodiff as ad
from morphtask.nn.policies import ConfigError, PolicyConfig

from test_distill import _with_config
from test_morphology import with_node_field


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One tiny gen-data -> distill pipeline shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "config.txt"
    cfg.write_text(
        "envs = ant_reach_2\n"
        "transitions = 120\n"
        "steps = 40\n"
        "batch_size = 8\n"
        "embed = 16\n"
        "attn_hidden = 16\n"
        "layers = 1\n"
        "eval_seeds = 3\n"
        "eval_horizon = 10\n"
        "# comment line\n")
    gen_dir = root / "gen"
    assert run(["gen-data", "--config", str(cfg), "--out", str(gen_dir),
                "--seed", "1"]) == 0
    return root, cfg, gen_dir


def test_gen_data_outputs(workspace):
    root, cfg, gen_dir = workspace
    assert (gen_dir / "dataset.cgds").exists()
    manifest = (gen_dir / "manifest.csv").read_text().splitlines()
    assert manifest[0].startswith("env_id,transitions")
    assert manifest[1].startswith("ant_reach_2,120,")
    resolved = (gen_dir / "resolved_config.txt").read_text()
    assert "seed = 1" in resolved
    ds = read_dataset(gen_dir / "dataset.cgds")
    assert ds.n_transitions() == 120


def test_gen_data_transitions_flag(workspace, tmp_path):
    root, cfg, _ = workspace
    out = tmp_path / "gen100"
    assert run(["gen-data", "--config", str(cfg), "--out", str(out),
                "--transitions", "100", "--seed", "1"]) == 0
    ds = read_dataset(out / "dataset.cgds")
    assert ds.n_transitions() == 100


def test_gen_data_reproducible_bytes(workspace, tmp_path):
    root, cfg, gen_dir = workspace
    out = tmp_path / "again"
    assert run(["gen-data", "--config", str(cfg), "--out", str(out),
                "--seed", "1"]) == 0
    assert (out / "dataset.cgds").read_bytes() == \
        (gen_dir / "dataset.cgds").read_bytes()


def test_distill_and_eval_pipeline(workspace, tmp_path):
    root, cfg, gen_dir = workspace
    run_dir = tmp_path / "train"
    rc = run(["distill", "--config", str(cfg), "--dataset",
              str(gen_dir / "dataset.cgds"), "--out", str(run_dir),
              "--seed", "2", "--arch", "transformer", "--cg", "v2",
              "--steps", "40"])
    assert rc == 0
    params = load_checkpoint(run_dir / "checkpoint.cgck")
    assert params.arch == "transformer"
    assert params.config.cg_variant == "v2"
    loss_rows = (run_dir / "loss.csv").read_text().strip().splitlines()
    assert loss_rows[0] == "step,loss"
    assert len(loss_rows) - 1 == 40 // 100 + 1 + 1

    eval_dir = tmp_path / "eval"
    rc = run(["eval", "--config", str(cfg), "--checkpoint",
              str(run_dir / "checkpoint.cgck"), "--out", str(eval_dir),
              "--split", "indist"])
    assert rc == 0
    report = (eval_dir / "report.csv").read_text()
    assert report.splitlines()[0] == "env_id,goal_index,seed,final_distance,normalized"
    summary = (eval_dir / "summary.txt").read_text()
    assert "aggregate_env_mean=" in summary

    # deterministic eval bytes
    eval_dir2 = tmp_path / "eval2"
    run(["eval", "--config", str(cfg), "--checkpoint",
         str(run_dir / "checkpoint.cgck"), "--out", str(eval_dir2),
         "--split", "indist"])
    assert (eval_dir / "report.csv").read_bytes() == \
        (eval_dir2 / "report.csv").read_bytes()

    # comparison path
    eval_dir3 = tmp_path / "eval3"
    rc = run(["eval", "--config", str(cfg), "--checkpoint",
              str(run_dir / "checkpoint.cgck"), "--out", str(eval_dir3),
              "--compare", str(eval_dir / "report.csv")])
    assert rc == 0
    assert "improvement_pct=" in (eval_dir3 / "summary.txt").read_text()


def test_distill_zero_steps_checkpoint_equals_init(workspace, tmp_path):
    root, cfg, gen_dir = workspace
    out = tmp_path / "zero"
    assert run(["distill", "--config", str(cfg), "--dataset",
                str(gen_dir / "dataset.cgds"), "--out", str(out),
                "--seed", "2", "--steps", "0"]) == 0
    from morphtask.nn.policies import init_params
    params = load_checkpoint(out / "checkpoint.cgck")
    fresh = init_params(params.arch, params.config, 2)
    for k in fresh.tensors:
        np.testing.assert_array_equal(params.tensors[k].data,
                                      fresh.tensors[k].data)


def test_eval_missing_baseline_is_usage_error(workspace, tmp_path):
    root, cfg, gen_dir = workspace
    run_dir = tmp_path / "t"
    run(["distill", "--config", str(cfg), "--dataset",
         str(gen_dir / "dataset.cgds"), "--out", str(run_dir), "--steps", "0"])
    rc = run(["eval", "--config", str(cfg), "--checkpoint",
              str(run_dir / "checkpoint.cgck"), "--out", str(tmp_path / "e"),
              "--compare", str(tmp_path / "missing.csv")])
    assert rc == 1


@pytest.mark.parametrize("value", ["nan", "inf", "abc", "0.0", "-0.25"])
def test_eval_unusable_baseline_is_data_error(workspace, trained_checkpoint, tmp_path,
                                              capsys, monkeypatch, value):
    # refused before any rollout: the improvement is a fraction of the baseline
    root, cfg, _ = workspace
    baseline = tmp_path / "report.csv"
    baseline.write_text("env_id,goal_index,seed,final_distance,normalized\n"
                        f"# aggregate_env_mean={value}\n")
    evaluated = []
    monkeypatch.setattr(meval, "evaluate_policy", lambda *args: evaluated.append(args))
    out = tmp_path / "e"
    rc = run(["eval", "--config", str(cfg), "--checkpoint", str(trained_checkpoint),
              "--out", str(out), "--compare", str(baseline)])
    assert rc == 2
    assert f"error: baseline report {baseline} has aggregate_env_mean {value!r}, " \
        "not a finite positive number" in capsys.readouterr().err
    assert not out.exists() and evaluated == []


def test_default_config_uses_full_scale_transitions():
    from morphtask.cli import CONFIG_DEFAULTS
    assert CONFIG_DEFAULTS["transitions"] == 12_000


def test_ablate_token_axis(workspace, tmp_path):
    root, cfg, gen_dir = workspace
    abl_cfg = tmp_path / "ablate.txt"
    abl_cfg.write_text(
        "envs = ant_reach_2\n"
        "steps = 4\n"
        "batch_size = 4\n"
        "embed = 16\n"
        "attn_hidden = 16\n"
        "layers = 1\n"
        "eval_seeds = 2\n"
        "eval_horizon = 5\n"
        "ablate_token = d,da,c\n")
    out = tmp_path / "tok"
    assert run(["ablate", "--config", str(abl_cfg), "--dataset",
                str(gen_dir / "dataset.cgds"), "--out", str(out)]) == 0
    rows = (out / "ablation.csv").read_text().strip().splitlines()
    assert len(rows) - 1 == 3
    assert [r.split(",")[2] for r in rows[1:]] == ["d", "da", "c"]


def test_unknown_config_key_is_usage_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not_a_key = 3\n")
    assert run(["gen-data", "--config", str(bad), "--out",
                str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("line, message", [
    ("steps = abc", "config key 'steps' must be an integer, got 'abc'"),
    ("eval_seeds = 0", "config key 'eval_seeds' must be >= 1, got 0"),
    ("eval_horizon = -1", "config key 'eval_horizon' must be >= 0, got -1"),
    ("transitions = 0", "config key 'transitions' must be >= 1, got 0"),
    ("arch = foo", "config key 'arch' must be one of mlp, gnn, transformer, got 'foo'"),
    ("cg_variant = v9", "config key 'cg_variant' must be one of v1, v2, got 'v9'"),
    ("token_variant = xyz",
     "config key 'token_variant' must be one of none, d, da, c, got 'xyz'"),
    ("split = foo",
     "config key 'split' must be one of indist, comp-morph, comp-task, ood, got 'foo'"),
    ("split = comp-morph\nholdout = 4,x",
     "config key 'holdout' must list integers under split comp-morph, got '4,x'"),
    ("arch = mlp\ntoken_variant = d",
     "config key 'token_variant' value 'd' needs config key 'arch' = transformer, "
     "got 'mlp'"),
    ("heads = 0", "config key 'heads' must be >= 1, got 0"),
    ("obs_flags = p,zz", "config key 'obs_flags': unknown observation flags: ['zz']"),
    ("embed = 0", "config key 'embed' must be >= 1, got 0"),
    ("embed = 63", "config key 'embed' 63 is not divisible by heads 2"),
    ("attn_hidden = 0", "config key 'attn_hidden' must be >= 1, got 0"),
    ("layers = 0", "config key 'layers' must be >= 1, got 0"),
    ("history = 0", "config key 'history' must be >= 1, got 0"),
    ("arch = mlp\nmlp_hidden = 0", "config key 'mlp_hidden' must be >= 1, got 0"),
    ("arch = gnn\ngnn_hidden = 0", "config key 'gnn_hidden' must be >= 1, got 0"),
    ("batch_size = 0", "config key 'batch_size' must be >= 1, got 0"),
    ("steps = -1", "config key 'steps' must be >= 0, got -1"),
    ("learning_rate = -1",
     "config key 'learning_rate' must be finite and > 0, got -1.0"),
    ("learning_rate = nan",
     "config key 'learning_rate' must be finite and > 0, got nan"),
    ("grad_clip = 0", "config key 'grad_clip' must be finite and > 0, got 0.0"),
    ("grad_clip = nan", "config key 'grad_clip' must be finite and > 0, got nan"),
])
def test_bad_config_value_is_usage_error_naming_key(tmp_path, capsys, line, message):
    bad = tmp_path / "bad.txt"
    bad.write_text(f"envs = ant_reach_2\n{line}\n")
    for inputs in (["gen-data"], ["distill", "--dataset", str(tmp_path / "d.cgds")],
                   ["eval", "--checkpoint", str(tmp_path / "c.cgck")]):
        assert run(inputs + ["--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()


def test_bad_flag_is_usage_error():
    assert run(["gen-data", "--arch", "perceiver"]) == 1


def test_corrupt_checkpoint_is_data_error(workspace, tmp_path):
    root, cfg, gen_dir = workspace
    bad = tmp_path / "bad.cgck"
    bad.write_bytes(b"CGCKgarbage")
    rc = run(["eval", "--config", str(cfg), "--checkpoint", str(bad),
              "--out", str(tmp_path / "e")])
    assert rc == 2


@pytest.mark.parametrize("command,flag", [("eval", "--checkpoint"),
                                          ("distill", "--dataset")])
def test_data_error_leaves_no_out_dir(workspace, tmp_path, capsys, command, flag):
    root, cfg, _ = workspace
    bad = tmp_path / "garbage.cgck"
    bad.write_bytes(b"CGCKgarbage")
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), flag, str(bad), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_failed_ablate_cell_leaves_no_out_dir(workspace, tmp_path, capsys):
    root, cfg, gen_dir = workspace
    bad = tmp_path / "config.txt"
    bad.write_text(cfg.read_text() + "embed = 15\nablate_pe = on,off\n")
    out = tmp_path / "out"
    assert run(["ablate", "--config", str(bad), "--dataset",
                str(gen_dir / "dataset.cgds"), "--out", str(out)]) == 1
    assert "not divisible by heads" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def trained_checkpoint(workspace, tmp_path_factory):
    root, cfg, gen_dir = workspace
    out = tmp_path_factory.mktemp("ckpt")
    assert run(["distill", "--config", str(cfg), "--dataset",
                str(gen_dir / "dataset.cgds"), "--out", str(out),
                "--steps", "0"]) == 0
    return out / "checkpoint.cgck"


def test_eval_checkpoint_missing_tensor_is_data_error(workspace, trained_checkpoint,
                                                       tmp_path, capsys):
    root, cfg, _ = workspace
    params = load_checkpoint(trained_checkpoint)
    del params.tensors["decode/W"]
    bad = tmp_path / "missing.cgck"
    bad.write_bytes(checkpoint_bytes(params))
    rc = run(["eval", "--config", str(cfg), "--checkpoint", str(bad),
              "--out", str(tmp_path / "e")])
    assert rc == 2
    assert "tensors differ" in capsys.readouterr().err


def test_eval_checkpoint_with_key_bias_is_data_error(workspace, trained_checkpoint,
                                                    tmp_path, capsys):
    # the layout of checkpoints written before layers dropped attn/bk
    root, cfg, _ = workspace
    params = load_checkpoint(trained_checkpoint)
    tensors = {}
    for name, t in params.tensors.items():
        tensors[name] = t
        if name == "layer0/attn/bq":
            tensors["layer0/attn/bk"] = ad.parameter(np.zeros_like(t.data))
    params.tensors = tensors
    bad = tmp_path / "bk.cgck"
    bad.write_bytes(checkpoint_bytes(params))
    out = tmp_path / "e"
    rc = run(["eval", "--config", str(cfg), "--checkpoint", str(bad), "--out", str(out)])
    assert rc == 2
    assert "error: checkpoint tensors differ from what its config builds" in \
        capsys.readouterr().err
    assert not (out / "report.csv").exists()


def test_eval_checkpoint_unknown_config_key_is_data_error(workspace, trained_checkpoint,
                                                           tmp_path, capsys):
    root, cfg, _ = workspace
    raw = trained_checkpoint.read_bytes()
    off = 12 + struct.unpack("<I", raw[8:12])[0]
    size = struct.unpack("<I", raw[off:off + 4])[0]
    config = json.loads(raw[off + 4: off + 4 + size])
    text = json.dumps({**config, "dropout": 0.1}, sort_keys=True).encode()
    payload = raw[:off] + struct.pack("<I", len(text)) + text + raw[off + 4 + size:-4]
    bad = tmp_path / "extra.cgck"
    bad.write_bytes(seal(payload))
    rc = run(["eval", "--config", str(cfg), "--checkpoint", str(bad),
              "--out", str(tmp_path / "e")])
    assert rc == 2
    assert "config keys" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [{"heads": 0}, {"heads": 2.0}, {"embed": 0},
                                  {"layers": 0}, {"n_bins": True}, {"use_pe": 1},
                                  {"cg_variant": "v3"}, {"obs_flags": "p,zz"},
                                  {"obs_flags": ["zz"]}, {"obs_flags": ["v", "p"]},
                                  {"obs_flags": []}], ids=str)
def test_sealed_bad_checkpoint_header_is_data_error(workspace, trained_checkpoint,
                                                    tmp_path, capsys, edit):
    # a well-formed, correctly sealed file whose config breaks a PolicyConfig
    # rule; the error names the field
    root, cfg, _ = workspace
    bad = tmp_path / "header.cgck"
    bad.write_bytes(_with_config(trained_checkpoint.read_bytes(),
                                 lambda c: {**c, **edit}))
    with pytest.raises(CorruptionError, match="unreadable checkpoint config"):
        load_checkpoint(bad)
    out = tmp_path / "e"
    assert run(["eval", "--config", str(cfg), "--checkpoint", str(bad),
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unreadable checkpoint config:")
    assert err.startswith(f"error: unreadable checkpoint config: {next(iter(edit))!r} ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("gain", ["inf", "nan", "0", "-1"])
def test_gen_data_bad_expert_gain_fails_before_any_episode(tmp_path, capsys,
                                                          monkeypatch, gain):
    with pytest.raises(ConfigError, match="'expert_gain' must be finite and > 0"):
        generate_dataset([make_env("ant_reach_2")], expert_gain=float(gain),
                         n_transitions=40)
    monkeypatch.setattr("morphtask.distill.reset",
                        lambda *a: pytest.fail("an episode was rolled"))
    cfg = tmp_path / "config.txt"
    cfg.write_text(f"envs = ant_reach_2\ntransitions = 40\nexpert_gain = {gain}\n")
    out = tmp_path / "o"
    assert run(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"error: 'expert_gain' must be finite and > 0, got {float(gain)!r}" in \
        capsys.readouterr().err
    assert not out.exists()


def test_gen_data_zero_transitions_fails_before_any_episode(monkeypatch):
    monkeypatch.setattr("morphtask.distill.reset",
                        lambda *a: pytest.fail("an episode was rolled"))
    with pytest.raises(ConfigError, match="'n_transitions' must be >= 1, got 0"):
        generate_dataset([make_env("ant_reach_2")], n_transitions=0)


def test_distill_unknown_dataset_version_is_data_error(workspace, tmp_path):
    root, cfg, gen_dir = workspace
    raw = bytearray((gen_dir / "dataset.cgds").read_bytes())
    raw[4:8] = (99).to_bytes(4, "little")
    bad = tmp_path / "v99.cgds"
    bad.write_bytes(bytes(raw))
    rc = run(["distill", "--config", str(cfg), "--dataset", str(bad),
              "--out", str(tmp_path / "d")])
    assert rc == 2


def test_eval_v1_checkpoint_is_data_error(workspace, tmp_path, capsys):
    root, cfg, _ = workspace
    v1 = Path(__file__).parent / "data" / "v1_checkpoint.cgck"
    rc = run(["eval", "--config", str(cfg), "--checkpoint", str(v1),
              "--out", str(tmp_path / "e")])
    assert rc == 2
    assert "version 1" in capsys.readouterr().err


def test_distill_v1_dataset_is_data_error(workspace, tmp_path, capsys):
    root, cfg, _ = workspace
    v1 = Path(__file__).parent / "data" / "v1_dataset.cgds"
    rc = run(["distill", "--config", str(cfg), "--dataset", str(v1),
              "--out", str(tmp_path / "d")])
    assert rc == 2
    assert "version 1" in capsys.readouterr().err


def test_distill_dataset_with_nan_radius_is_data_error(workspace, tmp_path, capsys):
    root, cfg, gen_dir = workspace
    tag, meta, tensors = artifacts.parse((gen_dir / "dataset.cgds").read_bytes(),
                                         DATASET_MAGIC)
    env0 = meta["environments"][0]
    env0["morphology"] = with_node_field(env0["morphology"], 1, "radius", "nan")
    bad = tmp_path / "nan.cgds"
    bad.write_bytes(artifacts.to_bytes(DATASET_MAGIC, tag, meta, list(tensors.items())))
    rc = run(["distill", "--config", str(cfg), "--dataset", str(bad),
              "--out", str(tmp_path / "d")])
    assert rc == 2
    assert "radius must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("0/actions", np.nan, "actions of env 'ant_reach_2' must lie in [-1, 1]"),
    ("0/actions", 5.0, "actions of env 'ant_reach_2' must lie in [-1, 1]"),
    ("0/goals", np.inf, "goals of env 'ant_reach_2' must be finite"),
], ids=["nan action", "action 5", "inf goal"])
def test_distill_dataset_with_bad_action_or_goal_is_data_error(workspace, tmp_path, capsys,
                                                               key, value, message):
    # sealed, so only the reader's value checks stand between it and training
    root, cfg, gen_dir = workspace
    tag, meta, tensors = artifacts.parse((gen_dir / "dataset.cgds").read_bytes(),
                                         DATASET_MAGIC)
    tensors[key][5, 0] = value
    bad = tmp_path / "bad.cgds"
    bad.write_bytes(artifacts.to_bytes(DATASET_MAGIC, tag, meta, list(tensors.items())))
    out = tmp_path / "d"
    rc = run(["distill", "--config", str(cfg), "--dataset", str(bad), "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_distill_goal_on_missing_end_effector_is_data_error(workspace, tmp_path, capsys):
    root, cfg, gen_dir = workspace
    tag, meta, tensors = artifacts.parse((gen_dir / "dataset.cgds").read_bytes(),
                                         DATASET_MAGIC)
    env0 = meta["environments"][0]
    assert " ee0 " in env0["task"]
    env0["task"] = env0["task"].replace(" ee0 ", " ee9 ")
    bad = tmp_path / "ee9.cgds"
    bad.write_bytes(artifacts.to_bytes(DATASET_MAGIC, tag, meta, list(tensors.items())))
    out = tmp_path / "d"
    rc = run(["distill", "--config", str(cfg), "--dataset", str(bad), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "end effector 9 out of range (2 available)" in err
    assert "Traceback" not in err
    assert not (out / "checkpoint.cgck").exists()


def test_directory_paths_are_data_errors(workspace, tmp_path, capsys):
    root, cfg, _ = workspace
    rc = run(["distill", "--config", str(cfg), "--dataset", str(tmp_path),
              "--out", str(tmp_path / "d")])
    assert rc == 2
    assert "Is a directory" in capsys.readouterr().err
    rc = run(["eval", "--config", str(cfg), "--checkpoint", str(tmp_path),
              "--out", str(tmp_path / "e")])
    assert rc == 2
    assert "Is a directory" in capsys.readouterr().err


def test_distill_mlp_head_narrower_than_actions_is_data_error(workspace, tmp_path,
                                                            capsys):
    root, cfg, gen_dir = workspace
    narrow = tmp_path / "narrow.txt"
    narrow.write_text(cfg.read_text() + "max_action = 3\n")
    out = tmp_path / "d"
    rc = run(["distill", "--config", str(narrow), "--dataset",
              str(gen_dir / "dataset.cgds"), "--out", str(out), "--arch", "mlp"])
    assert rc == 2
    assert "action dimension 4 exceeds the MLP head width max_action=3" in \
        capsys.readouterr().err
    assert not (out / "checkpoint.cgck").exists()


def test_distill_empty_dataset_is_data_error(workspace, tmp_path, capsys):
    root, cfg, gen_dir = workspace
    empty = tmp_path / "empty.cgds"
    write_dataset(TransitionDataset(environments=[]), empty)
    rc = run(["distill", "--config", str(cfg), "--dataset", str(empty),
              "--out", str(tmp_path / "d")])
    assert rc == 2
    assert "holds no environments" in capsys.readouterr().err


def test_ablate_cross_product(workspace, tmp_path):
    root, cfg, gen_dir = workspace
    abl_cfg = tmp_path / "ablate.txt"
    abl_cfg.write_text(
        "envs = ant_reach_2\n"
        "steps = 6\n"
        "batch_size = 4\n"
        "embed = 16\n"
        "attn_hidden = 16\n"
        "layers = 1\n"
        "eval_seeds = 2\n"
        "eval_horizon = 5\n"
        "ablate_obs_sets = p,v,q,a,ja,jr;p,v,q,a,ja,jr,m\n"
        "ablate_pe = on,off\n")
    out = tmp_path / "abl"
    assert run(["ablate", "--config", str(abl_cfg), "--dataset",
                str(gen_dir / "dataset.cgds"), "--out", str(out)]) == 0
    rows = (out / "ablation.csv").read_text().strip().splitlines()
    assert len(rows) - 1 == 4  # 2 obs sets x 2 pe settings
    assert rows[0].startswith("obs_flags,use_pe,token,history,seed")
    cells = [r.split(",") for r in rows[1:]]
    assert [(c[0], c[1]) for c in cells] == [
        ("p+v+q+a+ja+jr", "True"), ("p+v+q+a+ja+jr", "False"),
        ("p+v+q+a+ja+jr+m", "True"), ("p+v+q+a+ja+jr+m", "False")]
    assert [c[4] for c in cells] == ["0"] * 4


def test_ablate_obs_sets_beyond_dataset_flags_trains_each_cell(workspace, tmp_path):
    # the dataset holds the default flags, without rp: each cell's
    # observations are rebuilt from its joint angles
    root, cfg, gen_dir = workspace
    assert read_dataset(gen_dir / "dataset.cgds").environments[0].obs_spec.flags == \
        DEFAULT_OBS_FLAGS
    abl_cfg = tmp_path / "ablate.txt"
    abl_cfg.write_text("envs = ant_reach_2\nsteps = 2\nbatch_size = 4\nembed = 16\n"
                       "attn_hidden = 16\nlayers = 1\neval_seeds = 1\neval_horizon = 3\n"
                       "ablate_obs_sets = p;p,rp\n")
    out = tmp_path / "abl"
    assert run(["ablate", "--config", str(abl_cfg), "--dataset",
                str(gen_dir / "dataset.cgds"), "--out", str(out)]) == 0
    cells = [r.split(",") for r in (out / "ablation.csv").read_text().splitlines()[1:]]
    assert [c[0] for c in cells] == ["p", "p+rp"]
    assert all(np.isfinite(float(c[-1])) for c in cells)


def test_distill_dataset_of_stored_observations_is_data_error(workspace, tmp_path, capsys):
    root, cfg, _ = workspace
    old = Path(__file__).parent / "data" / "v2_features_dataset.cgds"
    rc = run(["distill", "--config", str(cfg), "--dataset", str(old),
              "--out", str(tmp_path / "d")])
    assert rc == 2
    assert "re-run gen-data" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_ablate_empty_axes_is_usage_error(workspace, tmp_path):
    root, cfg, gen_dir = workspace
    assert run(["ablate", "--config", str(cfg), "--dataset",
                str(gen_dir / "dataset.cgds"), "--out",
                str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("line, message", [
    ("ablate_pe = on,yes", "config key 'ablate_pe' must be boolean, got 'yes'"),
    ("ablate_history = x", "config key 'ablate_history' must be an integer, got 'x'"),
    ("ablate_history = 0", "config key 'ablate_history' must be >= 1, got 0"),
    ("ablate_token = d,xyz",
     "config key 'ablate_token' must be one of none, d, da, c, got 'xyz'"),
    ("ablate_obs_sets = p;zz",
     "config key 'ablate_obs_sets': unknown observation flags: ['zz']"),
    ("arch = gnn\nablate_token = none,d",
     "config key 'ablate_token' value 'd' needs config key 'arch' = transformer, "
     "got 'gnn'"),
])
def test_bad_ablate_axis_is_usage_error_naming_key(workspace, tmp_path, capsys,
                                                  line, message):
    root, cfg, gen_dir = workspace
    bad = tmp_path / "ablate.txt"
    bad.write_text("envs = ant_reach_2\nsteps = 2\nbatch_size = 4\nembed = 16\n"
                   f"attn_hidden = 16\nlayers = 1\neval_seeds = 1\n{line}\n")
    out = tmp_path / "o"
    assert run(["ablate", "--config", str(bad), "--dataset",
                str(gen_dir / "dataset.cgds"), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_short_env_id_suffix_is_data_error(tmp_path, capsys):
    cfg = tmp_path / "config.txt"
    cfg.write_text("envs = ant_reach_3_missing\ntransitions = 5\n")
    out = tmp_path / "o"
    assert run(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
    assert "cannot parse env id 'ant_reach_3_missing'" in capsys.readouterr().err


def test_token_variant_needs_transformer_flags(workspace, tmp_path, capsys):
    root, cfg, gen_dir = workspace
    out = tmp_path / "d"
    assert run(["distill", "--config", str(cfg), "--dataset",
                str(gen_dir / "dataset.cgds"), "--out", str(out),
                "--arch", "mlp", "--token", "d"]) == 1
    assert "config key 'token_variant' value 'd' needs config key 'arch' = " \
        "transformer, got 'mlp'" in capsys.readouterr().err
    assert not out.exists()


def test_eval_comp_morph_without_held_out_envs_is_usage_error(tmp_path, capsys):
    # the default envs hold counts 3 and 5; comp-morph holds out 4 by default
    out = tmp_path / "e"
    assert run(["eval", "--checkpoint", str(tmp_path / "missing.cgck"),
                "--split", "comp-morph", "--out", str(out)]) == 1
    assert "usage error: split comp-morph: holding out counts [4] of the counts " \
        "[3, 5] present leaves no test environments" in capsys.readouterr().err
    assert not out.exists()


FLAG_LINES = [
    (["--seed", "3"], "seed = 3"),
    (["--out", "runs/x"], "out_dir = runs/x"),
    (["--arch", "gnn"], "arch = gnn"),
    (["--cg", "v1"], "cg_variant = v1"),
    (["--token", "d"], "token_variant = d"),
    (["--pe", "off"], "use_pe = off"),
    (["--history", "2"], "history = 2"),
    (["--transitions", "9"], "transitions = 9"),
    (["--steps", "7"], "steps = 7"),
    (["--split", "ood"], "split = ood"),
]


@pytest.mark.parametrize("flag, line", FLAG_LINES)
def test_flag_resolves_like_its_config_line(tmp_path, flag, line):
    path = tmp_path / "config.txt"
    path.write_text(line + "\n")
    parser = build_parser()
    by_flag = resolve_config(parser.parse_args(["gen-data", *flag]))
    by_line = resolve_config(parser.parse_args(["gen-data", "--config", str(path)]))
    assert by_flag == by_line != CONFIG_DEFAULTS


def test_every_config_flag_is_in_flag_lines():
    args = vars(build_parser().parse_args(["gen-data"]))
    assert set(args) & set(CONFIG_DEFAULTS) == \
        {line.split(" = ")[0] for _, line in FLAG_LINES}


def test_list_items_ignore_padding_and_empty_items(workspace, tmp_path):
    assert _obs_spec(" p, ,v,,") == _obs_spec("p,v")
    root, cfg, gen_dir = workspace
    texts = {}
    for name, sets in (("plain", "p,v,q,a,ja,jr;p,v,q,a,ja,jr,m"),
                       ("padded", " p, v,q,,a,ja,jr ;; p,v,q,a,ja,jr,m ;")):
        abl_cfg = tmp_path / f"{name}.txt"
        abl_cfg.write_text("envs = ant_reach_2\nsteps = 2\nbatch_size = 4\n"
                           "embed = 16\nattn_hidden = 16\nlayers = 1\n"
                           "eval_seeds = 1\neval_horizon = 3\n"
                           f"ablate_obs_sets = {sets}\n")
        out = tmp_path / name
        assert run(["ablate", "--config", str(abl_cfg), "--dataset",
                    str(gen_dir / "dataset.cgds"), "--out", str(out)]) == 0
        texts[name] = (out / "ablation.csv").read_text()
    assert texts["padded"] == texts["plain"]
    assert [r.split(",")[0] for r in texts["plain"].splitlines()[1:]] == \
        ["p+v+q+a+ja+jr", "p+v+q+a+ja+jr+m"]


_ASCII = st.characters(max_codepoint=127)
_VALUES = st.sampled_from(["0", "1", "-1", "3", "64", "1e-3", "nan", "on", "off",
                           "yes", "v1", "none", "d", "mlp", "comp-morph", "ood",
                           "4,5", "p, ,v", ""]) | st.text(_ASCII, max_size=10)


@st.composite
def config_lines(draw):
    """A known or arbitrary key, and a value its key takes (default or
    choice), a likely value of another key, or arbitrary text."""
    key = draw(st.sampled_from(sorted(CONFIG_DEFAULTS)) | st.text(_ASCII, max_size=8))
    fits = _CHOICES.get(key, ()) + (str(CONFIG_DEFAULTS.get(key, "")),)
    return key, draw(st.sampled_from(fits) | st.sampled_from(fits) | _VALUES)


@settings(settings.get_profile("ci"), max_examples=300, deadline=None)
@given(st.lists(config_lines(), max_size=6))
def test_config_file_resolves_or_raises_usage_error(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("fuzz") / "config.txt"
    path.write_text("".join(f"{key} = {value}\n" for key, value in lines))
    try:
        cfg = resolve_config(build_parser().parse_args(["gen-data", "--config",
                                                        str(path)]))
        pc, tc = build_configs(cfg)
    except UsageError:
        return
    for key, value in cfg.items():
        assert type(value) is type(CONFIG_DEFAULTS[key])
        assert value in _CHOICES.get(key, (value,))
        assert value >= _LEAST.get(key, value)
    assert isinstance(pc, PolicyConfig) and isinstance(tc, TrainConfig)



# Each size key's largest value in a CLI property case, none above the desk
# config's, so that no case allocates more than a few MB or runs more than a
# moment; eval_horizon 0 (the task's own horizon) counts as above its cap.
_CAPS = {"transitions": 40, "steps": 2, "eval_seeds": 1, "eval_horizon": 3,
         "embed": 64, "attn_hidden": 64, "heads": 2, "layers": 3, "mlp_hidden": 256,
         "gnn_hidden": 64, "max_nodes": 24, "max_action": 24, "batch_size": 64,
         "history": 3, "ablate_history": 3}
_FLAGS = [["--arch", "gnn"], ["--arch", "mlp"], ["--arch", "perceiver"], ["--cg", "v1"],
          ["--token", "d"], ["--pe", "off"], ["--history", "2"], ["--history", "0"],
          ["--steps", "1"], ["--steps", "x"], ["--transitions", "0"], ["--seed", "3"],
          ["--split", "ood"], ["--bogus", "1"]]
_HEADER_VALUES = st.sampled_from([0, -1, 2.0, True, 1, "v3", None, [], "p,zz"])
# A number key and an edge value: the cases most likely to slip past a rule.
_EDGE_LINES = st.tuples(
    st.sampled_from(sorted(_CAPS) + ["learning_rate", "grad_clip", "expert_gain"]),
    st.sampled_from(["0", "0", "-1", "1", "2.0", "nan", "inf"]))


def _above_cap(key: str, item: str) -> bool:
    try:
        return float(item) > _CAPS[key] or (key == "eval_horizon" and float(item) == 0)
    except ValueError:
        return False


def _pinned(text: str) -> str:
    """Config lines that, put after text, set envs to one small env, cap
    every size text sets or leaves at a larger default, and keep two items
    of each ablate axis."""
    values = {key: str(value) for key, value in CONFIG_DEFAULTS.items()}
    for _, line in text_lines(text):
        key, _, value = (part.strip() for part in line.partition("="))
        values[key] = value
    pins = {"envs": "ant_reach_2"}
    for key, value in values.items():
        sep = ";" if key == "ablate_obs_sets" else ","
        items = value.split(sep)
        if key.startswith("ablate_") and len(items) > 2:
            items = items[:2]
            pins[key] = sep.join(items)
        if key in _CAPS and any(_above_cap(key, item) for item in items):
            pins[key] = str(_CAPS[key])
    return "".join(f"{key} = {value}\n" for key, value in pins.items())


@pytest.fixture(scope="module")
def cli_inputs(workspace, trained_checkpoint):
    """The valid dataset and checkpoint that CLI property cases read or damage."""
    dataset = (DATASET_MAGIC, (workspace[2] / "dataset.cgds").read_bytes())
    return {"distill": dataset, "ablate": dataset,
            "eval": (CHECKPOINT_MAGIC, trained_checkpoint.read_bytes())}


@st.composite
def input_file(draw, magic: bytes, raw: bytes) -> bytes:
    """A valid input file, garbage, a truncated or bit-flipped copy, or a
    sealed copy whose JSON header holds a bad value."""
    kind = draw(st.sampled_from(["valid"] * 3 + ["garbage", "truncated", "flipped",
                                                 "header"]))
    if kind == "garbage":
        return draw(st.binary(max_size=64))
    if kind == "truncated":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    if kind == "flipped":
        bit = draw(st.integers(0, 8 * len(raw) - 1))
        return raw[:bit // 8] + bytes([raw[bit // 8] ^ 1 << bit % 8]) + raw[bit // 8 + 1:]
    if kind == "header":
        tag, meta, tensors = artifacts.parse(raw, magic)
        meta = {**meta, draw(st.sampled_from(sorted(meta) + ["spare"])): draw(_HEADER_VALUES)}
        return artifacts.to_bytes(magic, tag, meta, list(tensors.items()))
    return raw


@settings(settings.get_profile("ci"), max_examples=200, deadline=None)
@given(st.data())
def test_cli_ends_in_a_documented_exit_code(tmp_path_factory, cli_inputs, data):
    """Any command, flags, config lines and input file: exit 0, 1 or 2, no
    traceback, and an --out directory only on success."""
    command = data.draw(st.sampled_from(["gen-data", "distill", "eval", "ablate"]))
    lines = data.draw(st.lists(_EDGE_LINES, max_size=2)
                      | st.lists(config_lines() | _EDGE_LINES, max_size=4))
    text = "ablate_pe = on,off\n" + "".join(f"{key} = {value}\n" for key, value in lines)
    root = tmp_path_factory.mktemp("cli_case")
    (root / "config.txt").write_text(text + _pinned(text))
    argv = [command, "--config", str(root / "config.txt"), "--out", str(root / "out")]
    for flag in data.draw(st.lists(st.sampled_from(_FLAGS), max_size=2)):
        argv += flag
    if command in cli_inputs:
        (root / "input").write_bytes(data.draw(input_file(*cli_inputs[command])))
        argv += ["--checkpoint" if command == "eval" else "--dataset", str(root / "input")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert (root / "out").exists() == (code == 0)
