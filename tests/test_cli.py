import json
import struct
from pathlib import Path

import numpy as np
import pytest

from morphtask import artifacts
from morphtask.artifacts import seal
from morphtask.cli import main
from morphtask.distill import (
    DATASET_MAGIC,
    TransitionDataset,
    checkpoint_bytes,
    load_checkpoint,
    read_dataset,
    write_dataset,
)
from morphtask.evaluation import read_tensor_table

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
])
def test_bad_config_value_is_usage_error_naming_key(tmp_path, capsys, line, message):
    bad = tmp_path / "bad.txt"
    bad.write_text(f"envs = ant_reach_2\n{line}\n")
    assert run(["gen-data", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert message in capsys.readouterr().err
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


def test_ablate_empty_axes_is_usage_error(workspace, tmp_path):
    root, cfg, gen_dir = workspace
    assert run(["ablate", "--config", str(cfg), "--dataset",
                str(gen_dir / "dataset.cgds"), "--out",
                str(tmp_path / "x")]) == 1
