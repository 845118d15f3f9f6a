"""The four benchmark workloads, one per pipeline stage.

Each workload builds its fixtures in ``setup`` from the workload seed and
then exposes one *round*: a fixed list of public-API operations.  A round is
repeated for the length of a run.  The program sees only environment ids and
integer seeds derived from the workload seed.

``check`` verifies one operation's output and returns the work it did, a
digest of its artifact bytes (compared across rounds of one run: the same
inputs must give byte-identical datasets, checkpoints and reports) and a
problem string, or None.
"""
from __future__ import annotations

import hashlib
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from morphtask import distill
from morphtask import env as menv
from morphtask import evaluation
from morphtask.control_graph import build_observation_spec
from morphtask.nn.policies import PolicyConfig, init_params

OBS = build_observation_spec(["p", "v", "q", "a", "ja", "jr", "m"])
DESK_ENVS = ("ant_reach_3", "ant_reach_5", "ant_reach_handsup_3", "ant_reach_handsup_5")


def desk_config(**overrides) -> PolicyConfig:
    """The acceptance suite's desk transformer: v2 graph, embed 64, 2 heads, 3 layers."""
    fields = dict(arch="transformer", feature_width=distill.cg_feature_width(OBS, "v2"),
                  embed=64, attn_hidden=64, heads=2, layers=3, max_nodes=24,
                  cg_variant="v2", obs_flags=OBS.flags)
    fields.update(overrides)
    return PolicyConfig(**fields)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def derived_seeds(seed: int, n: int) -> list[int]:
    """n program seeds drawn from the workload seed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


@dataclass
class Outcome:
    work: float                  # work units this operation completed
    digest: str | None = None    # sha256 of the artifact bytes it produced
    problem: str | None = None   # why the output is wrong, or None


@dataclass
class ExpertStats:
    """Scripted-expert bookkeeping over generate_dataset calls."""
    attempts: int = 0
    kept: int = 0
    wasted_steps: int = 0        # steps of discarded episodes (they run the full horizon)

    def add(self, attempts: int, kept: int, episode_length: int) -> None:
        self.attempts += attempts
        self.kept += kept
        self.wasted_steps += (attempts - kept) * episode_length


_PROFICIENCY = re.compile(r"proficient on only (\d+)/(\d+) episodes")


class Workload:
    name = ""
    rate_metric = ""             # the workload's named throughput metric ...
    rate_unit = ""               # ... and its unit: the work that work_per_s counts
    sizes: dict[str, dict] = {}

    def __init__(self, seed: int, size: str, scratch: str):
        self.seed = seed
        self.size = self.sizes[size]
        self.scratch = scratch
        self.expert = ExpertStats()
        self.values: dict[str, float] = {}   # deterministic per-round values

    def setup(self) -> None:
        """Build the fixtures (timed as set-up)."""
        raise NotImplementedError

    def fixture_digest(self) -> str:
        """sha256 of the fixtures, compared across set-ups (untimed)."""
        raise NotImplementedError

    def ops(self) -> list:
        """[(label, zero-argument call)] for one round."""
        raise NotImplementedError

    def check(self, label: str, result) -> Outcome:
        raise NotImplementedError

    def failed(self, label: str, exc: BaseException) -> None:
        """Bookkeeping for an operation that raised."""

    def _generate(self, specs, n_transitions: int, seed: int):
        ds, reports = distill.generate_dataset(specs, n_transitions=n_transitions,
                                               seed=seed, obs_spec=OBS)
        for spec, rep in zip(specs, reports):
            self.expert.add(rep.attempts, rep.episodes_kept, spec.task.episode_length)
        return ds


class ExpertData(Workload):
    name = "expert_data"
    rate_metric = "transitions_per_s"
    rate_unit = "transitions/s"
    sizes = {
        "full": {"envs": ("ant_reach_5", "claw_reach_4", "centipede_touch_3",
                          "worm_touch_4", "ant_reach_4_missing_1",
                          "ant_reach_hard_4_mass_0.5_1.0_3.0",
                          "centipede_reach_handsup2_4", "ant_push_3"),
                 "transitions": 250},
        "tiny": {"envs": ("worm_touch_2", "worm_push_2"), "transitions": 40},
    }

    def setup(self) -> None:
        self.specs = {f"generate_dataset:{e}": menv.make_env(e) for e in self.size["envs"]}
        self.gen_seeds = derived_seeds(self.seed, len(self.specs))

    def fixture_digest(self) -> str:
        return sha256("\n".join(menv.serialize_env(s)[1] for s in self.specs.values()).encode())

    def ops(self) -> list:
        n = self.size["transitions"]
        return [(label, lambda spec=spec, s=s: self._generate([spec], n, s))
                for (label, spec), s in zip(self.specs.items(), self.gen_seeds)]

    def check(self, label, ds) -> Outcome:
        n = ds.n_transitions()
        problem = None if n == self.size["transitions"] else f"{n} transitions"
        return Outcome(work=n, digest=sha256(distill.dataset_bytes(ds)), problem=problem)

    def failed(self, label, exc) -> None:
        # a proficiency failure returns no GenReport; its message carries kept/attempts
        match = _PROFICIENCY.search(str(exc))
        if isinstance(exc, distill.DataQualityError) and match:
            self.expert.add(int(match.group(2)), int(match.group(1)),
                            self.specs[label].task.episode_length)


class BCTrain(Workload):
    name = "bc_train"
    rate_metric = "train_steps_per_s"
    rate_unit = "steps/s"
    sizes = {
        "full": {"transitions": 300, "steps": 20, "config": {}},
        "tiny": {"transitions": 30, "steps": 20,
                 "config": {"embed": 16, "attn_hidden": 16, "layers": 1}},
    }

    def setup(self) -> None:
        gen_seed, self.train_seed = derived_seeds(self.seed, 2)
        specs = [menv.make_env(e) for e in DESK_ENVS]
        self.dataset = self._generate(specs, self.size["transitions"], gen_seed)
        self.config = desk_config(**self.size["config"])

    def fixture_digest(self) -> str:
        return sha256(distill.dataset_bytes(self.dataset))

    def ops(self) -> list:
        def fit():
            params = init_params("transformer", self.config, self.train_seed)
            cfg = distill.TrainConfig(steps=self.size["steps"], batch_size=64,
                                      seed=self.train_seed)
            return distill.train(params, self.dataset, cfg)
        return [("train", fit)]

    def check(self, label, result) -> Outcome:
        params, curve = result
        first, last = curve[0][1], curve[-1][1]
        self.values["bc_loss_final"] = last
        problem = None
        if not (math.isfinite(first) and math.isfinite(last)):
            problem = f"non-finite loss {first} -> {last}"
        elif last >= first:
            problem = f"loss did not drop: {first} -> {last}"
        return Outcome(work=self.size["steps"],
                       digest=sha256(distill.checkpoint_bytes(params)), problem=problem)


class PolicyEval(Workload):
    name = "policy_eval"
    rate_metric = "env_steps_per_s"
    rate_unit = "env-steps/s"
    sizes = {
        # the training bodies, a zero-shot ant_4, two other families and a push env
        "full": {"envs": DESK_ENVS + ("ant_reach_4", "claw_reach_3",
                                      "centipede_touch_3", "ant_push_3"),
                 "transitions": 100, "steps": 10, "seeds": 4, "horizon": 40,
                 "config": {}},
        "tiny": {"envs": ("ant_reach_3", "worm_push_2"), "transitions": 30,
                 "steps": 2, "seeds": 2, "horizon": 5,
                 "config": {"embed": 16, "attn_hidden": 16, "layers": 1}},
    }

    def setup(self) -> None:
        gen_seed, train_seed, *self.eval_seeds = derived_seeds(self.seed, 2 + self.size["seeds"])
        self.specs = [menv.make_env(e) for e in self.size["envs"]]
        train_specs = [s for s in self.specs if s.env_id in DESK_ENVS]
        ds = self._generate(train_specs, self.size["transitions"], gen_seed)
        params = init_params("transformer", desk_config(**self.size["config"]), train_seed)
        params, _ = distill.train(params, ds, distill.TrainConfig(
            steps=self.size["steps"], batch_size=64, seed=train_seed))
        self.checkpoint = os.path.join(self.scratch, "policy.cgck")
        distill.save_checkpoint(params, self.checkpoint)
        self.params = distill.load_checkpoint(self.checkpoint, expect_arch="transformer")

    def fixture_digest(self) -> str:
        with open(self.checkpoint, "rb") as fh:
            return sha256(fh.read())

    def ops(self) -> list:
        ids = [s.env_id for s in self.specs]
        return [("evaluate_policy", lambda: evaluation.evaluate_policy(
            self.params, ids, self.eval_seeds, self.size["horizon"]))]

    def check(self, label, result) -> Outcome:
        self.values["eval_norm_dist"] = result.aggregate
        problem = None if math.isfinite(result.aggregate) else \
            f"non-finite d-bar {result.aggregate}"
        steps = sum(len(self.eval_seeds) * min(self.size["horizon"], s.task.episode_length)
                    for s in self.specs)
        report = evaluation.metric_report_csv(result, self.eval_seeds)
        return Outcome(work=steps, digest=sha256(report.encode()), problem=problem)


class ArtifactIO(Workload):
    name = "artifact_io"
    rate_metric = "artifact_mb_per_s"
    rate_unit = "MB/s"
    sizes = {
        # the default PolicyConfig checkpoint is 12.8 MB
        "full": {"transitions": 500, "checkpoint": {}, "horizon": 40},
        "tiny": {"transitions": 20, "checkpoint": {"embed": 16, "attn_hidden": 16,
                                                   "layers": 1}, "horizon": 2},
    }

    def setup(self) -> None:
        gen_seed, init_seed, roll_seed = derived_seeds(self.seed, 3)
        spec = menv.make_env("ant_reach_5")
        self.dataset = self._generate([spec], self.size["transitions"], gen_seed)
        self.big = init_params("transformer", PolicyConfig(
            arch="transformer", feature_width=distill.cg_feature_width(OBS, "v2"),
            **self.size["checkpoint"]), init_seed)
        self.small = init_params("transformer", desk_config(), init_seed)
        traj = evaluation.rollout(self.small, spec, roll_seed, T=self.size["horizon"])
        self.attn, self.goal_mass = evaluation.attention_report(self.small, traj)
        self.paths = {k: os.path.join(self.scratch, k)
                      for k in ("dataset.cgds", "checkpoint.cgck", "attention.cgck")}

    def fixture_digest(self) -> str:
        tensors = b"".join(t.data.tobytes() for t in self.big.tensors.values())
        return sha256(distill.dataset_bytes(self.dataset) + tensors + self.attn.tobytes())

    def ops(self) -> list:
        p = self.paths
        return [
            ("write_dataset", lambda: distill.write_dataset(self.dataset, p["dataset.cgds"])),
            ("read_dataset", lambda: distill.read_dataset(p["dataset.cgds"])),
            ("save_checkpoint", lambda: distill.save_checkpoint(self.big, p["checkpoint.cgck"])),
            ("load_checkpoint", lambda: distill.load_checkpoint(p["checkpoint.cgck"])),
            ("write_attention_export", lambda: evaluation.write_attention_export(
                p["attention.cgck"], self.small, self.attn, self.goal_mass)),
            ("read_tensor_table", lambda: evaluation.read_tensor_table(p["attention.cgck"])),
        ]

    def check(self, label, result) -> Outcome:
        kind = {"write_dataset": "dataset.cgds", "read_dataset": "dataset.cgds",
                "save_checkpoint": "checkpoint.cgck", "load_checkpoint": "checkpoint.cgck",
                "write_attention_export": "attention.cgck",
                "read_tensor_table": "attention.cgck"}[label]
        with open(self.paths[kind], "rb") as fh:
            raw = fh.read()
        problem = None
        if label == "read_dataset":
            problem = _dataset_mismatch(self.dataset, result)
        elif label == "load_checkpoint":
            if result.config != self.big.config or result.arch != self.big.arch:
                problem = "checkpoint config differs"
            else:
                problem = _tensors_mismatch(
                    {k: t.data for k, t in self.big.tensors.items()},
                    {k: t.data for k, t in result.tensors.items()})
        elif label == "read_tensor_table":
            T, L, H = self.attn.shape[:3]
            expect = {f"attn/{t}/{l}/{h}": self.attn[t, l, h]
                      for t in range(T) for l in range(L) for h in range(H)}
            if self.goal_mass is not None:
                expect["goal_mass"] = self.goal_mass
            problem = _tensors_mismatch(expect, result)
        return Outcome(work=len(raw) / 1e6, digest=sha256(raw), problem=problem)


def _tensors_mismatch(expect: dict, got: dict) -> str | None:
    if list(expect) != list(got):
        return "tensor names differ"
    for name, data in expect.items():
        if got[name].shape != data.shape or not np.array_equal(got[name], data):
            return f"tensor {name} differs"
    return None


def _dataset_mismatch(expect, got) -> str | None:
    if len(expect.environments) != len(got.environments):
        return "environment count differs"
    for a, b in zip(expect.environments, got.environments):
        if (a.env_id, a.morphology_text, a.task_text, a.obs_spec.flags) != \
                (b.env_id, b.morphology_text, b.task_text, b.obs_spec.flags):
            return f"header of {a.env_id} differs"
        for rows_a, rows_b in ((a.features, b.features), (a.actions, b.actions),
                               (a.goals, b.goals)):
            if len(rows_a) != len(rows_b) or not all(
                    np.array_equal(x, y) for x, y in zip(rows_a, rows_b)):
                return f"rows of {a.env_id} differ"
    return None


WORKLOADS = {w.name: w for w in (ExpertData, BCTrain, PolicyEval, ArtifactIO)}
