"""Policy rollouts, the normalized final-distance metric, improvement
percentages, environment splits, and attention exports."""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import artifacts
from . import env as menv
from .control_graph import ControlGraph, build_observation_spec, graph_features
from .distill import CHECKPOINT_MAGIC, build_cg, goal_nodes
from .env import EnvSpec, local_observations, parse_env_id, reset, step
from .nn.policies import (
    PolicyParams,
    UnsupportedVariantError,
    action_index,
    adjacency,
    batch_grids,
    policy_inputs,
    transformer_grid,
)
from .nn.autodiff import no_grad


class OrderingError(ValueError):
    pass


class SplitConfigError(ValueError):
    pass


DEFAULT_EVAL_SEEDS = 64


@dataclass
class Trajectory:
    env_id: str
    seed: int
    actions: np.ndarray              # (T, A)
    distances: np.ndarray            # (T, G) goal distance after each step
    # rollout() keeps the policy's input per step, (T, n, F) or the MLP's
    # (T, W), and the control graph whose mask, actuators and edges they share.
    inputs: np.ndarray | None = None
    template: ControlGraph | None = None
    final_distances: np.ndarray = None

    def __post_init__(self):
        if self.final_distances is None and len(self.distances):
            self.final_distances = self.distances[-1]


@dataclass
class MetricResult:
    per_env: dict[str, float]            # env id -> normalized distance
    aggregate: float                      # mean over (m, psi) pairs
    per_subdomain: dict[str, float]
    subdomain_aggregate: float
    raw_finals: dict[str, np.ndarray]    # env id -> (seeds, goals) meters
    episodes: int


@dataclass(frozen=True)
class SplitPlan:
    universe: tuple[str, ...]
    train: tuple[str, ...]
    test: tuple[str, ...]
    kind: str


def rollout(params: PolicyParams, spec: EnvSpec, seed: int,
            T: int | None = None) -> Trajectory:
    """Deterministic policy rollout of min(T, episode_length) steps.

    The trajectory carries the inputs the policy consumed, so attention
    reports can replay it exactly.
    """
    return rollout_batch(params, spec, [seed], T, keep_inputs=True)[0]


def rollout_batch(params: PolicyParams, spec: EnvSpec, seeds,
                  T: int | None = None, keep_inputs: bool = False) -> list[Trajectory]:
    """Lockstep rollouts over several seeds; the policy runs batched.

    Each step's node features of every seed come from one graph_features
    call and reach the policy through policy_inputs, as training data does.
    With history H the features are a window of the last H frames, newest
    rightmost and zero-filled at the episode start.
    """
    horizon = spec.task.episode_length if T is None else min(T, spec.task.episode_length)
    cfg = params.config
    obs_spec = build_observation_spec(cfg.obs_flags)
    variant = "v1" if params.arch == "gnn" else cfg.cg_variant
    states = [reset(spec, s) for s in seeds]
    B = len(states)
    # Goals are fixed for an episode, so the goal values are taken once.
    goals = np.stack([np.concatenate(st.goals) if st.goals else np.zeros(0)
                      for st in states])
    template = build_cg(spec, local_observations(states[0], obs_spec), goals[0],
                        obs_spec, variant)
    index = action_index(cfg, template)
    mask = np.broadcast_to(template.action_mask, (B,) + template.action_mask.shape)
    adj = adjacency(template.edges, template.n_nodes) if params.arch == "gnn" else None
    nodes = goal_nodes(spec)
    w = template.width
    window = np.zeros((B, template.n_nodes, w * cfg.history))
    actions, distances, inputs = [], [], []
    for _ in range(horizon):
        obs = np.stack([local_observations(st, obs_spec) for st in states])
        frame = graph_features(obs, goals.reshape(B, -1, 3), nodes, variant, obs_spec)
        window = np.concatenate([window[:, :, w:], frame], axis=-1)
        x = policy_inputs(window, cfg)
        if keep_inputs:
            inputs.append(x)
        with no_grad():
            acts = batch_grids(params, x, mask, adj)[index]
        states = [step(st, act) for st, act in zip(states, acts)]
        actions.append(acts)
        distances.append([menv.goal_distances(st) for st in states])
    return [Trajectory(env_id=spec.env_id, seed=s,
                       actions=np.array([a[i] for a in actions]),
                       distances=np.array([d[i] for d in distances]),
                       inputs=np.array([x[i] for x in inputs]) if keep_inputs else None,
                       template=template if keep_inputs else None)
            for i, s in enumerate(seeds)]


# --- the normalized final-distance metric --------------------------------------

def subdomain_of(env_id: str) -> str:
    blueprint, task, _, _ = parse_env_id(env_id)
    return f"{blueprint}_{task}"


def normalized_final_distance(groups) -> MetricResult:
    """Exact normalized final distance over (morphology, task) groups.

    Each group is (env_id, final_distances (seeds, goals), d_min, d_max).
    Per goal the term is (d_T - d_min)/(d_max - d_min), summed over the
    task's goals, averaged over seeds, then averaged over groups; no
    clamping is applied.
    """
    per_env: dict[str, float] = {}
    raw: dict[str, np.ndarray] = {}
    episodes = 0
    for env_id, finals, d_min, d_max in groups:
        finals = np.asarray(finals, dtype=np.float64)
        d_min = np.asarray(d_min, dtype=np.float64)
        d_max = np.asarray(d_max, dtype=np.float64)
        if np.any(d_min >= d_max):
            raise SplitConfigError(f"d_min >= d_max for env {env_id!r}")
        normalized = (finals - d_min) / (d_max - d_min)
        per_env[env_id] = float(normalized.sum(axis=1).mean())
        raw[env_id] = finals
        episodes += finals.shape[0]
    if not per_env:
        raise ValueError("no groups to aggregate")
    aggregate = float(np.mean(list(per_env.values())))
    subdomains: dict[str, list[float]] = {}
    for env_id, value in per_env.items():
        subdomains.setdefault(subdomain_of(env_id), []).append(value)
    per_sub = {k: float(np.mean(v)) for k, v in sorted(subdomains.items())}
    return MetricResult(per_env=per_env, aggregate=aggregate,
                        per_subdomain=per_sub,
                        subdomain_aggregate=float(np.mean(list(per_sub.values()))),
                        raw_finals=raw, episodes=episodes)


def evaluate_policy(params: PolicyParams, env_ids, seeds=None,
                    T: int | None = None) -> MetricResult:
    """Roll the policy on each environment over the seed list and score it."""
    seeds = list(range(DEFAULT_EVAL_SEEDS)) if seeds is None else list(seeds)
    groups = []
    for env_id in env_ids:
        spec = menv.make_env(env_id)
        trajs = rollout_batch(params, spec, seeds, T)
        finals = np.stack([t.final_distances for t in trajs])
        groups.append((env_id, finals, spec.task.d_min, spec.task.d_max))
    return normalized_final_distance(groups)


def percentage_improvement(d1: float, d2: float) -> float:
    """100 * (d2 - d1) / d2 for d1 < d2."""
    if d2 <= 0.0:
        raise OrderingError("d2 must be positive")
    if d1 >= d2:
        raise OrderingError(f"improvement requires d1 < d2, got {d1} >= {d2}")
    return 100.0 * (d2 - d1) / d2


# --- environment splits -----------------------------------------------------------

def split_environments(universe, kind: str, holdout=None) -> SplitPlan:
    """Deterministic train/test division of an environment universe.

    holdout: morphology counts to hold out per family (compositional
    morphology; default [4]), or the task name that is unseen (compositional
    task and out-of-distribution).
    """
    universe = tuple(universe)
    if not universe:
        raise SplitConfigError("empty environment universe")
    if kind == "in_distribution":
        return SplitPlan(universe, universe, universe, kind)
    if kind == "compositional_morphology":
        counts = set(holdout) if holdout is not None else {4}
        test = tuple(e for e in universe if parse_env_id(e)[2] in counts)
        train = tuple(e for e in universe if e not in test)
    elif kind == "compositional_task":
        if holdout is None:
            raise SplitConfigError("compositional_task needs a held-out task name")
        test = tuple(e for e in universe if parse_env_id(e)[1] == holdout)
        train = tuple(e for e in universe if e not in test)
    elif kind == "out_of_distribution":
        if holdout is None:
            raise SplitConfigError("out_of_distribution needs a held-out task name")
        test = tuple(e for e in universe
                     if parse_env_id(e)[1] == holdout and parse_env_id(e)[3])
        train = tuple(e for e in universe if parse_env_id(e)[1] != holdout)
    else:
        raise SplitConfigError(f"unknown split kind {kind!r}")
    if not train:
        raise SplitConfigError("holdout rule leaves no training environments")
    if not test:
        raise SplitConfigError("holdout rule leaves no test environments")
    return SplitPlan(universe, train, test, kind)


# --- attention export ----------------------------------------------------------------

def attention_report(params: PolicyParams, trajectory: Trajectory):
    """Per-step attention tensors for a rolled-out trajectory, taken on the
    inputs the policy consumed, plus the attention mass directed at goal
    rows for v2 policies.

    Returns (attn (T, L, H, n, n), goal_mass (T,) or None).  The trajectory
    must carry its inputs (rollout keeps them).  All steps run as one
    batch; each sample gets its own GEMMs, so the maps equal per-step calls.
    """
    if params.arch not in ("transformer", "transformer_tokenized"):
        raise UnsupportedVariantError(
            "attention reports need a transformer policy")
    if trajectory.inputs is None:
        raise ValueError("trajectory carries no policy inputs; "
                         "roll out with keep_inputs=True")
    cg = trajectory.template
    mask = np.broadcast_to(cg.action_mask, (len(trajectory.inputs),) + cg.action_mask.shape)
    with no_grad():
        _, attn = transformer_grid(params, trajectory.inputs, mask)
    if not cg.n_goal_nodes:
        return attn, None
    goal_rows = np.arange(cg.n_body_nodes, cg.n_nodes)
    return attn, np.array([float(a[:, :, :, goal_rows].sum(axis=-1).mean()) for a in attn])


def write_attention_export(path, params: PolicyParams, attn: np.ndarray,
                           goal_mass: np.ndarray | None = None) -> None:
    """Attention tensors in the checkpoint tensor-table format,
    named attn/<step>/<layer>/<head>."""
    entries = [(f"attn/{t}/{l}/{h}", attn[t, l, h])
               for t, l, h in np.ndindex(attn.shape[:3])]
    if goal_mass is not None:
        entries.append(("goal_mass", goal_mass))
    artifacts.save(path, CHECKPOINT_MAGIC, params.arch, asdict(params.config),
                   entries)


def read_tensor_table(path) -> dict[str, np.ndarray]:
    return artifacts.load(path, CHECKPOINT_MAGIC)[2]


# --- report files ------------------------------------------------------------------

def metric_report_csv(result: MetricResult, seeds) -> str:
    """Per-episode rows plus commented aggregates (env- and sub-domain-level)."""
    lines = ["env_id,goal_index,seed,final_distance,normalized"]
    for env_id in sorted(result.raw_finals):
        finals = result.raw_finals[env_id]
        spec = menv.make_env(env_id)
        d_min = np.asarray(spec.task.d_min)
        d_max = np.asarray(spec.task.d_max)
        for si, seed in enumerate(seeds):
            for g in range(finals.shape[1]):
                norm = (finals[si, g] - d_min[g]) / (d_max[g] - d_min[g])
                lines.append(f"{env_id},{g},{seed},{finals[si, g]!r},{norm!r}")
    lines.append(f"# aggregate_env_mean={result.aggregate!r}")
    lines.append(f"# aggregate_subdomain_mean={result.subdomain_aggregate!r}")
    for env_id, v in sorted(result.per_env.items()):
        lines.append(f"# env {env_id}={v!r}")
    for sub, v in sorted(result.per_subdomain.items()):
        lines.append(f"# subdomain {sub}={v!r}")
    return "\n".join(lines) + "\n"
