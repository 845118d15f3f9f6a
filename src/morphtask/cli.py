"""Command-line entry point: dataset generation, distillation, evaluation,
and ablation sweeps, each reproducible byte-for-byte from its resolved config.

Exit codes: 0 success, 1 usage error, 2 data or numeric error.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import env as menv
from . import evaluation as meval
from .artifacts import replacing
from .control_graph import build_observation_spec
from .distill import (
    CorruptionError,
    DataQualityError,
    TrainConfig,
    cg_feature_width,
    generate_dataset,
    load_checkpoint,
    read_dataset,
    save_checkpoint,
    train,
    write_dataset,
)
from .nn.autodiff import NumericError
from .nn.policies import ConfigError, PolicyConfig, init_params

USAGE_EXIT = 1
DATA_EXIT = 2


class UsageError(ValueError):
    pass


CONFIG_DEFAULTS = {
    "seed": 0,
    "obs_flags": "p,v,q,a,ja,jr,m",
    "cg_variant": "v2",
    "history": 1,
    "arch": "transformer",
    "embed": 64,
    "attn_hidden": 64,
    "heads": 2,
    "layers": 3,
    "mlp_hidden": 256,
    "gnn_hidden": 64,
    "max_nodes": 24,
    "max_action": 24,
    "token_variant": "none",
    "use_pe": True,
    "use_embed_ln": False,
    "learning_rate": 3e-4,
    "batch_size": 64,
    "grad_clip": 0.1,
    "steps": 5000,
    "mix_morphologies": True,
    "envs": "ant_reach_3,ant_reach_5,ant_reach_handsup_3,ant_reach_handsup_5",
    "transitions": 12000,
    "expert_gain": 1.0,
    "eval_seeds": 64,
    "eval_horizon": 0,
    "split": "indist",
    "holdout": "",
    "out_dir": "runs/out",
    "ablate_obs_sets": "",
    "ablate_pe": "",
    "ablate_token": "",
    "ablate_history": "",
}

_BOOLS = {"use_pe", "use_embed_ln", "mix_morphologies"}
_INTS = {"seed", "history", "embed", "attn_hidden", "heads", "layers",
         "mlp_hidden", "gnn_hidden", "max_nodes", "max_action", "batch_size",
         "steps", "transitions", "eval_seeds", "eval_horizon"}
_FLOATS = {"learning_rate", "grad_clip", "expert_gain"}
# Smallest value each count may take (eval_horizon 0 means the task's own).
_LEAST = {"transitions": 1, "eval_seeds": 1, "history": 1, "eval_horizon": 0}


def parse_config_file(path: Path) -> dict:
    values = {}
    for ln, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{ln}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_DEFAULTS:
            raise UsageError(f"{path}:{ln}: unknown config key {key!r}")
        values[key] = value
    return values


def resolve_config(args) -> dict:
    cfg = dict(CONFIG_DEFAULTS)
    if args.config:
        cfg.update(parse_config_file(Path(args.config)))
    overrides = {
        "seed": args.seed, "out_dir": args.out, "arch": args.arch,
        "cg_variant": args.cg, "token_variant": args.token,
        "history": args.history, "transitions": args.transitions,
        "steps": args.steps, "split": args.split,
    }
    if getattr(args, "pe", None) is not None:
        overrides["use_pe"] = {"on": True, "off": False}[args.pe]
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    for key in _BOOLS:
        if isinstance(cfg[key], str):
            if cfg[key].lower() not in ("true", "false", "on", "off", "0", "1"):
                raise UsageError(f"config key {key!r} must be boolean")
            cfg[key] = cfg[key].lower() in ("true", "on", "1")
    for key in sorted(_INTS | _FLOATS):
        kind, name = (int, "an integer") if key in _INTS else (float, "a number")
        try:
            cfg[key] = kind(cfg[key])
        except ValueError:
            raise UsageError(f"config key {key!r} must be {name}, got {cfg[key]!r}") from None
    for key, least in _LEAST.items():
        if cfg[key] < least:
            raise UsageError(f"config key {key!r} must be >= {least}, got {cfg[key]}")
    return cfg


def _write_text(path: Path, text: str) -> None:
    """Write an output file atomically (temp file, then os.replace)."""
    with replacing(path) as fh:
        fh.write(text.encode("utf-8"))


def write_resolved_config(cfg: dict, out_dir: Path) -> None:
    lines = [f"{k} = {cfg[k]}" for k in sorted(cfg)]
    _write_text(out_dir / "resolved_config.txt", "\n".join(lines) + "\n")


def _obs_spec(cfg):
    return build_observation_spec(
        [f.strip() for f in cfg["obs_flags"].split(",") if f.strip()])


def _env_list(cfg) -> list[str]:
    envs = [e.strip() for e in cfg["envs"].split(",") if e.strip()]
    if not envs:
        raise UsageError("config key 'envs' must list at least one environment")
    return envs


def _policy_config(cfg, obs_spec) -> PolicyConfig:
    arch = cfg["arch"]
    token = cfg["token_variant"]
    if token != "none":
        arch = "transformer_tokenized"
    variant = "v1" if arch == "gnn" else cfg["cg_variant"]
    return PolicyConfig(
        arch=arch,
        feature_width=cg_feature_width(obs_spec, variant, cfg["history"]),
        embed=cfg["embed"], attn_hidden=cfg["attn_hidden"], heads=cfg["heads"],
        layers=cfg["layers"], mlp_hidden=cfg["mlp_hidden"],
        gnn_hidden=cfg["gnn_hidden"], use_pe=cfg["use_pe"],
        use_embed_ln=cfg["use_embed_ln"], max_nodes=cfg["max_nodes"],
        max_action=cfg["max_action"],
        token_variant=token if token != "none" else "c",
        cg_variant=variant, history=cfg["history"],
        obs_flags=obs_spec.flags)


def _train_policy(cfg, ds):
    """Initialize the configured policy and behavior-clone it on ds."""
    pc = _policy_config(cfg, ds.environments[0].obs_spec)
    train_cfg = TrainConfig(**{f.name: cfg[f.name]
                               for f in dataclasses.fields(TrainConfig)})
    return train(init_params(pc.arch, pc, cfg["seed"]), ds, train_cfg)


def _out_dir(cfg) -> Path:
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen_data(cfg: dict) -> int:
    out = _out_dir(cfg)
    specs = [menv.make_env(e) for e in _env_list(cfg)]
    ds, reports = generate_dataset(specs, expert_gain=cfg["expert_gain"],
                                   n_transitions=cfg["transitions"],
                                   seed=cfg["seed"], obs_spec=_obs_spec(cfg))
    write_dataset(ds, out / "dataset.cgds")
    lines = ["env_id,transitions,attempts,episodes_kept,success_rate,"
             "mean_normalized_final"]
    for r in reports:
        lines.append(f"{r.env_id},{r.transitions},{r.attempts},"
                     f"{r.episodes_kept},{r.success_rate!r},"
                     f"{r.mean_normalized_final!r}")
    _write_text(out / "manifest.csv", "\n".join(lines) + "\n")
    write_resolved_config(cfg, out)
    print(f"wrote {out / 'dataset.cgds'} ({ds.n_transitions()} transitions)")
    return 0


def _read_training_dataset(path: str):
    """A dataset to train on: readable and holding at least one environment."""
    ds = read_dataset(path)
    if not ds.environments:
        raise DataQualityError(f"dataset {path} holds no environments")
    return ds


def cmd_distill(cfg: dict, dataset_path: str) -> int:
    out = _out_dir(cfg)
    ds = _read_training_dataset(dataset_path)
    params, curve = _train_policy(cfg, ds)
    save_checkpoint(params, out / "checkpoint.cgck")
    _write_text(out / "loss.csv",
                "step,loss\n" + "\n".join(f"{s},{v!r}" for s, v in curve) + "\n")
    write_resolved_config(cfg, out)
    print(f"wrote {out / 'checkpoint.cgck'} "
          f"(init loss {curve[0][1]:.6f}, final loss {curve[-1][1]:.6f})")
    return 0


SPLIT_NAMES = {"indist": "in_distribution",
               "comp-morph": "compositional_morphology",
               "comp-task": "compositional_task",
               "ood": "out_of_distribution"}


def cmd_eval(cfg: dict, checkpoint_path: str, compare: str | None) -> int:
    out = _out_dir(cfg)
    params = load_checkpoint(checkpoint_path)
    universe = _env_list(cfg)
    holdout = cfg["holdout"] or None
    if cfg["split"] in ("comp-morph",) and holdout:
        holdout = [int(x) for x in str(holdout).split(",")]
    plan = meval.split_environments(universe, SPLIT_NAMES[cfg["split"]], holdout)
    seeds = list(range(cfg["eval_seeds"]))
    horizon = cfg["eval_horizon"] or None
    result = meval.evaluate_policy(params, plan.test, seeds, horizon)
    _write_text(out / "report.csv", meval.metric_report_csv(result, seeds))
    summary = [f"split={plan.kind}",
               f"train_envs={','.join(plan.train)}",
               f"test_envs={','.join(plan.test)}",
               f"aggregate_env_mean={result.aggregate!r}",
               f"aggregate_subdomain_mean={result.subdomain_aggregate!r}"]
    if compare is not None:
        baseline = _read_report_aggregate(Path(compare))
        ours = result.aggregate
        if ours < baseline:
            pct = meval.percentage_improvement(ours, baseline)
        elif ours > baseline:
            pct = -meval.percentage_improvement(baseline, ours)
        else:
            pct = 0.0
        summary.append(f"baseline_env_mean={baseline!r}")
        summary.append(f"improvement_pct={pct!r}")
    _write_text(out / "summary.txt", "\n".join(summary) + "\n")
    write_resolved_config(cfg, out)
    print("\n".join(summary))
    return 0


def _read_report_aggregate(path: Path) -> float:
    if not path.exists():
        raise UsageError(f"baseline report {path} does not exist")
    for line in path.read_text().splitlines():
        if line.startswith("# aggregate_env_mean="):
            return float(line.split("=", 1)[1])
    raise UsageError(f"{path} carries no aggregate_env_mean line")


def cmd_ablate(cfg: dict, dataset_path: str) -> int:
    out = _out_dir(cfg)
    ds = _read_training_dataset(dataset_path)
    obs_sets = [s for s in cfg["ablate_obs_sets"].split(";") if s.strip()]
    pe_values = [s for s in cfg["ablate_pe"].split(",") if s.strip()]
    token_values = [s for s in cfg["ablate_token"].split(",") if s.strip()]
    history_values = [s for s in cfg["ablate_history"].split(",") if s.strip()]
    axes = {
        "obs_flags": obs_sets or [cfg["obs_flags"]],
        "use_pe": [v == "on" for v in pe_values] or [cfg["use_pe"]],
        "token_variant": token_values or [cfg["token_variant"]],
        "history": [int(v) for v in history_values] or [cfg["history"]],
    }
    if not (obs_sets or pe_values or token_values or history_values):
        raise UsageError("ablate needs at least one non-empty axis "
                         "(ablate_obs_sets / ablate_pe / ablate_token / "
                         "ablate_history)")
    rows = ["obs_flags,use_pe,token,history,seed,init_loss,final_loss,"
            "aggregate_dist"]
    for flags in axes["obs_flags"]:
        sliced = _subset_dataset(ds, flags)
        for pe in axes["use_pe"]:
            for token in axes["token_variant"]:
                for history in axes["history"]:
                    cell = dict(cfg, obs_flags=flags, use_pe=pe,
                                token_variant=token, history=history)
                    params, curve = _train_policy(cell, sliced)
                    envs = [e.env_id for e in sliced.environments]
                    result = meval.evaluate_policy(
                        params, envs, list(range(cell["eval_seeds"])),
                        cell["eval_horizon"] or None)
                    rows.append(
                        f"{flags.replace(',', '+')},{pe},{token},{history},"
                        f"{cell['seed']},{curve[0][1]!r},{curve[-1][1]!r},"
                        f"{result.aggregate!r}")
    _write_text(out / "ablation.csv", "\n".join(rows) + "\n")
    write_resolved_config(cfg, out)
    print(f"wrote {out / 'ablation.csv'} ({len(rows) - 1} cells)")
    return 0


def _subset_dataset(ds, flags: str):
    """Slice a dataset generated with a superset of observation flags."""
    want = build_observation_spec([f.strip() for f in flags.split(",")])
    out_envs = []
    for envd in ds.environments:
        have = envd.obs_spec
        missing = set(want.flags) - set(have.flags)
        if missing:
            raise UsageError(
                f"dataset lacks observation flags {sorted(missing)} needed "
                f"for ablation cell {flags!r}")
        cols = np.concatenate([np.arange(have.slot(f).start, have.slot(f).stop)
                               for f in want.flags])
        out_envs.append(dataclasses.replace(
            envd, obs_spec=want,
            features=envd.features[:, :, cols]))
    return dataclasses.replace(ds, environments=out_envs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morphtask",
        description="procedural morphology/task suite: generate expert data, "
                    "distill policies, evaluate goal-reaching")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory")
        p.add_argument("--arch", choices=["mlp", "gnn", "transformer"])
        p.add_argument("--cg", choices=["v1", "v2"])
        p.add_argument("--token", choices=["none", "d", "da", "c"])
        p.add_argument("--pe", choices=["on", "off"])
        p.add_argument("--history", type=int)
        p.add_argument("--transitions", type=int)
        p.add_argument("--steps", type=int)
        p.add_argument("--split", choices=list(SPLIT_NAMES))

    g = sub.add_parser("gen-data", help="roll the scripted expert into a dataset")
    common(g)
    d = sub.add_parser("distill", help="behavior-clone a policy from a dataset")
    common(d)
    d.add_argument("--dataset", required=True)
    e = sub.add_parser("eval", help="roll out a checkpoint and score it")
    common(e)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--compare", help="baseline report.csv for improvement %")
    a = sub.add_parser("ablate", help="cross-product of desk-scale runs")
    common(a)
    a.add_argument("--dataset", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0, None) else 0
    try:
        cfg = resolve_config(args)
        if args.command == "gen-data":
            return cmd_gen_data(cfg)
        if args.command == "distill":
            return cmd_distill(cfg, args.dataset)
        if args.command == "eval":
            return cmd_eval(cfg, args.checkpoint, args.compare)
        if args.command == "ablate":
            return cmd_ablate(cfg, args.dataset)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (DataQualityError, NumericError, CorruptionError, ConfigError,
            meval.OrderingError, meval.SplitConfigError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
