"""Command-line entry point: dataset generation, distillation, evaluation,
and ablation sweeps, each reproducible byte-for-byte from its resolved config.

Exit codes: 0 success, 1 usage error, 2 data or numeric error.
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import sys
from pathlib import Path

import numpy as np

from . import env as menv
from . import evaluation as meval
from .artifacts import replacing
from .control_graph import (CG_VARIANTS, DEFAULT_OBS_FLAGS, build_observation_spec,
                            cg_feature_width)
from .distill import (
    CorruptionError,
    DataQualityError,
    TrainConfig,
    generate_dataset,
    load_checkpoint,
    read_dataset,
    save_checkpoint,
    train,
    write_dataset,
)
from .morphology import text_lines
from .nn.autodiff import NumericError
from .nn.policies import ARCHS, TOKEN_VARIANTS, ConfigError, PolicyConfig, init_params

USAGE_EXIT = 1
DATA_EXIT = 2


class UsageError(ValueError):
    pass


CONFIG_DEFAULTS = {
    "seed": 0,
    "obs_flags": ",".join(DEFAULT_OBS_FLAGS),
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

SPLIT_NAMES = {"indist": "in_distribution",
               "comp-morph": "compositional_morphology",
               "comp-task": "compositional_task",
               "ood": "out_of_distribution"}
# Choice-valued keys (flags and files alike); token_variant, not arch, picks tokenized.
_CHOICES = {"arch": ARCHS[:3], "cg_variant": CG_VARIANTS,
            "token_variant": ("none",) + TOKEN_VARIANTS, "split": tuple(SPLIT_NAMES)}
# Smallest value of each count only the CLI reads (eval_horizon 0 means the task's own).
_LEAST = {"transitions": 1, "eval_seeds": 1, "eval_horizon": 0}
_AXES = {"obs_flags": "ablate_obs_sets", "use_pe": "ablate_pe",  # field: its ablate key
         "token_variant": "ablate_token", "history": "ablate_history"}


def parse_config_file(path: Path) -> dict:
    values = {}
    for ln, line in text_lines(path.read_text()):
        if "=" not in line:
            raise UsageError(f"{path}:{ln}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_DEFAULTS:
            raise UsageError(f"{path}:{ln}: unknown config key {key!r}")
        values[key] = value
    return values


def resolve_config(args) -> dict:
    """Defaults, then the config file, then each flag's own key, all typed."""
    cfg = dict(CONFIG_DEFAULTS)
    if args.config:
        cfg.update(parse_config_file(Path(args.config)))
    cfg.update((key, value) for key, value in vars(args).items()
               if key in cfg and value is not None)
    cfg = {key: _typed(key, value) for key, value in cfg.items()}
    _holdout(cfg)
    return cfg


def _items(text: str, sep: str = ",") -> list[str]:
    """The non-empty, stripped items of a list-valued config value."""
    return [item.strip() for item in text.split(sep) if item.strip()]


def _holdout(cfg):
    """Held-out morphology counts under comp-morph, else the task name."""
    holdout = cfg["holdout"]
    if cfg["split"] != "comp-morph":
        return holdout or None
    try:
        return [int(x) for x in _items(holdout)] or None
    except ValueError:
        raise UsageError(f"config key 'holdout' must list integers under split "
                         f"comp-morph, got {holdout!r}") from None


def _typed(key: str, value, label: str | None = None):
    """value converted to the type of config key ``key``'s default and checked
    against its bound or choices; a UsageError names ``label`` (default ``key``)."""
    label = label or key
    kind = type(CONFIG_DEFAULTS[key])
    if key in _CHOICES and value not in _CHOICES[key]:
        raise UsageError(f"config key {label!r} must be one of "
                         f"{', '.join(_CHOICES[key])}, got {value!r}")
    if kind is bool and isinstance(value, str):
        if value.lower() not in ("true", "false", "on", "off", "0", "1"):
            raise UsageError(f"config key {label!r} must be boolean, got {value!r}")
        return value.lower() in ("true", "on", "1")
    if kind in (bool, str):
        return value
    try:
        value = kind(value)
    except ValueError:
        name = "an integer" if kind is int else "a number"
        raise UsageError(f"config key {label!r} must be {name}, got {value!r}") from None
    if key in _LEAST and value < _LEAST[key]:
        raise UsageError(f"config key {label!r} must be >= {_LEAST[key]}, got {value}")
    return value


def _write_text(path: Path, text: str) -> None:
    """Write an output file atomically (temp file, then os.replace)."""
    with replacing(path) as fh:
        fh.write(text.encode("utf-8"))


def write_resolved_config(cfg: dict, out_dir: Path) -> None:
    lines = [f"{k} = {cfg[k]}" for k in sorted(cfg)]
    _write_text(out_dir / "resolved_config.txt", "\n".join(lines) + "\n")


def _obs_spec(flags: str, key: str = "obs_flags"):
    try:
        return build_observation_spec(_items(flags))
    except ValueError as exc:
        raise UsageError(f"config key {key!r}: {exc}") from None


def _env_list(cfg) -> list[str]:
    envs = _items(cfg["envs"])
    if not envs:
        raise UsageError("config key 'envs' must list at least one environment")
    return envs


def _reading(pc: PolicyConfig, obs_spec) -> PolicyConfig:
    """pc for node observations of obs_spec: its flags and graph width."""
    return dataclasses.replace(pc, obs_flags=obs_spec.flags, feature_width=
                               cg_feature_width(obs_spec, pc.cg_variant, pc.history))


def build_configs(cfg, keys=()) -> tuple[PolicyConfig, TrainConfig]:
    """The PolicyConfig and TrainConfig of the keys named like their fields, a
    token variant but none making the transformer tokenized.  A value they
    refuse is a UsageError naming its key, or the one ``keys`` maps it to."""
    key = {k: k for k in cfg} | dict(keys)
    fields = {f.name: cfg[f.name] for f in dataclasses.fields(PolicyConfig) if f.name in cfg}
    token = fields.pop("token_variant")
    if token != "none":
        if cfg["arch"] != "transformer":
            raise UsageError(f"config key {key['token_variant']!r} value {token!r} needs "
                             f"config key 'arch' = transformer, got {cfg['arch']!r}")
        fields.update(arch="transformer_tokenized", token_variant=token)
    obs_spec = _obs_spec(cfg["obs_flags"], key["obs_flags"])
    try:
        pc = PolicyConfig(**dict(fields, feature_width=0, obs_flags=obs_spec.flags))
        tc = TrainConfig(**{f.name: cfg[f.name] for f in dataclasses.fields(TrainConfig)})
    except ConfigError as exc:     # its message starts with the quoted field
        field, rule = str(exc)[1:].split("' ", 1)
        raise UsageError(f"config key {key.get(field, field)!r} {rule}") from None
    return _reading(pc, obs_spec), tc


def _train_policy(pc: PolicyConfig, tc: TrainConfig, ds):
    """Initialize the configured policy and behavior-clone it on ds."""
    return train(init_params(pc.arch, pc, tc.seed), ds, tc)


def _out_dir(cfg) -> Path:
    """The output directory, made just before the first write: a command that
    fails on its inputs or its work leaves no directory behind."""
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen_data(cfg: dict) -> int:
    specs = [menv.make_env(e) for e in _env_list(cfg)]
    ds, reports = generate_dataset(specs, expert_gain=cfg["expert_gain"],
                                   n_transitions=cfg["transitions"],
                                   seed=cfg["seed"], obs_spec=_obs_spec(cfg["obs_flags"]))
    out = _out_dir(cfg)
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


def cmd_distill(cfg: dict, configs, dataset_path: str) -> int:
    ds = _read_training_dataset(dataset_path)
    pc, tc = configs     # the dataset's observation flags, whatever obs_flags says
    params, curve = _train_policy(_reading(pc, ds.environments[0].obs_spec), tc, ds)
    out = _out_dir(cfg)
    save_checkpoint(params, out / "checkpoint.cgck")
    _write_text(out / "loss.csv",
                "step,loss\n" + "\n".join(f"{s},{v!r}" for s, v in curve) + "\n")
    write_resolved_config(cfg, out)
    print(f"wrote {out / 'checkpoint.cgck'} "
          f"(init loss {curve[0][1]:.6f}, final loss {curve[-1][1]:.6f})")
    return 0


def cmd_eval(cfg: dict, checkpoint_path: str, compare: str | None) -> int:
    try:
        plan = meval.split_environments(_env_list(cfg), SPLIT_NAMES[cfg["split"]],
                                        _holdout(cfg))
    except meval.SplitConfigError as exc:
        raise UsageError(f"split {cfg['split']}: {exc}") from None
    baseline = None if compare is None else _read_report_aggregate(Path(compare))
    params = load_checkpoint(checkpoint_path)
    seeds = list(range(cfg["eval_seeds"]))
    horizon = cfg["eval_horizon"] or None
    result = meval.evaluate_policy(params, plan.test, seeds, horizon)
    summary = [f"split={plan.kind}",
               f"train_envs={','.join(plan.train)}",
               f"test_envs={','.join(plan.test)}",
               f"aggregate_env_mean={result.aggregate!r}",
               f"aggregate_subdomain_mean={result.subdomain_aggregate!r}"]
    if baseline is not None:
        ours = result.aggregate
        if ours < baseline:
            pct = meval.percentage_improvement(ours, baseline)
        elif ours > baseline:
            pct = -meval.percentage_improvement(baseline, ours)
        else:
            pct = 0.0
        summary.append(f"baseline_env_mean={baseline!r}")
        summary.append(f"improvement_pct={pct!r}")
    out = _out_dir(cfg)
    _write_text(out / "report.csv", meval.metric_report_csv(result, seeds))
    _write_text(out / "summary.txt", "\n".join(summary) + "\n")
    write_resolved_config(cfg, out)
    print("\n".join(summary))
    return 0


def _read_report_aggregate(path: Path) -> float:
    """The aggregate_env_mean of a baseline report.csv, finite and positive."""
    if not path.exists():
        raise UsageError(f"baseline report {path} does not exist")
    for line in path.read_text().splitlines():
        if line.startswith("# aggregate_env_mean="):
            text = line.split("=", 1)[1]
            try:
                value = float(text)
            except ValueError:
                value = np.nan
            if not 0.0 < value < np.inf:     # the improvement's divisor; nan fails
                raise DataQualityError(f"baseline report {path} has aggregate_env_mean "
                                       f"{text!r}, not a finite positive number")
            return value
    raise UsageError(f"{path} carries no aggregate_env_mean line")


def cmd_ablate(cfg: dict, dataset_path: str) -> int:
    axes = {field: [_typed(field, s, key)
                    for s in _items(cfg[key], ";" if field == "obs_flags" else ",")]
            for field, key in _AXES.items()}
    if not any(axes.values()):
        raise UsageError("ablate needs at least one non-empty axis "
                         f"({' / '.join(_AXES.values())})")
    axes = {key: values or [cfg[key]] for key, values in axes.items()}
    cells = [(cell, build_configs(dict(cfg, **dict(zip(axes, cell))), _AXES))
             for cell in itertools.product(*axes.values())]
    ds = _read_training_dataset(dataset_path)
    rows = ["obs_flags,use_pe,token,history,seed,init_loss,final_loss,"
            "aggregate_dist"]
    for (flags, pe, token, history), (pc, tc) in cells:
        params, curve = _train_policy(pc, tc, ds)   # observations at the cell's flags
        result = meval.evaluate_policy(params, [e.env_id for e in ds.environments],
                                       list(range(cfg["eval_seeds"])),
                                       cfg["eval_horizon"] or None)
        rows.append(f"{'+'.join(_items(flags))},{pe},{token},{history},"
                    f"{cfg['seed']},{curve[0][1]!r},{curve[-1][1]!r},"
                    f"{result.aggregate!r}")
    out = _out_dir(cfg)
    _write_text(out / "ablation.csv", "\n".join(rows) + "\n")
    write_resolved_config(cfg, out)
    print(f"wrote {out / 'ablation.csv'} ({len(rows) - 1} cells)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morphtask",
        description="procedural morphology/task suite: generate expert data, "
                    "distill policies, evaluate goal-reaching")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--out", dest="out_dir", help="output directory")
        p.add_argument("--cg", dest="cg_variant", choices=_CHOICES["cg_variant"])
        p.add_argument("--token", dest="token_variant",
                       choices=_CHOICES["token_variant"])
        p.add_argument("--pe", dest="use_pe", choices=["on", "off"])
        for key in ("seed", "arch", "history", "transitions", "steps", "split"):
            p.add_argument(f"--{key}", choices=_CHOICES.get(key))

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
        configs = build_configs(cfg)
        if args.command == "gen-data":
            return cmd_gen_data(cfg)
        if args.command == "distill":
            return cmd_distill(cfg, configs, args.dataset)
        if args.command == "eval":
            return cmd_eval(cfg, args.checkpoint, args.compare)
        return cmd_ablate(cfg, args.dataset)     # argparse allows no other command
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
