"""Policy rollouts, the normalized final-distance metric, improvement
percentages, environment splits, and attention exports."""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import artifacts
from . import env as menv
from .control_graph import build_observation_spec, stack_history
from .distill import CHECKPOINT_MAGIC, build_cg
from .env import EnvSpec, local_observations, parse_env_id, reset, step
from .nn.policies import (
    PolicyParams,
    UnsupportedVariantError,
    actions_from_grid,
    adjacency,
    batch_grids,
    flatten_features,
    mlp_vector,
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
    states: list = field(default_factory=list)   # populated by rollout()
    cgs: list = field(default_factory=list)      # policy-input control graphs
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
            T: int | None = None, keep_cgs: bool = True) -> Trajectory:
    """Deterministic policy rollout of min(T, episode_length) steps.

    The trajectory carries the visited states and the control graphs the
    policy consumed, so attention reports can replay it exactly.
    """
    trajs = rollout_batch(params, spec, [seed], T, keep_cgs=keep_cgs,
                          keep_states=True)
    return trajs[0]


def rollout_batch(params: PolicyParams, spec: EnvSpec, seeds,
                  T: int | None = None, keep_cgs: bool = False,
                  keep_states: bool = False) -> list[Trajectory]:
    """Lockstep rollouts over several seeds; the policy runs batched."""
    horizon = spec.task.episode_length if T is None else min(T, spec.task.episode_length)
    H = params.config.history
    obs_spec = build_observation_spec(params.config.obs_flags)
    variant = "v1" if params.arch == "gnn" else params.config.cg_variant
    states = [reset(spec, s) for s in seeds]
    # Goals are fixed for an episode, so each seed's goal vector is built once.
    goals_flat = [np.concatenate(st.goals) if st.goals else np.zeros(0)
                  for st in states]
    frames: list[list] = [[] for _ in seeds]
    actions = [[] for _ in seeds]
    distances = [[] for _ in seeds]
    all_cgs: list[list] = [[] for _ in seeds]
    all_states: list[list] = [[st] for st in states] if keep_states \
        else [[] for _ in seeds]
    adj = adjacency([(e.parent_id, e.child_id) for e in spec.graph.edges],
                    spec.graph.n_nodes) if params.arch == "gnn" else None
    for _ in range(horizon):
        cgs = []
        for i, st in enumerate(states):
            cg = build_cg(spec, local_observations(st, obs_spec), goals_flat[i],
                          obs_spec, variant)
            if H > 1:
                frames[i] = (frames[i] + [cg])[-H:]
                cg = stack_history(frames[i], H)
            cgs.append(cg)
            if keep_cgs:
                all_cgs[i].append(cg)
        feats = np.stack([cg.node_features for cg in cgs])
        with no_grad():
            if params.arch == "mlp":
                vec = mlp_vector(params, flatten_features(feats, params.config.max_nodes)).data
                n_act = len(cgs[0].actuator_map)
                acts = [vec[i, :n_act] for i in range(len(states))]
            else:
                mask = np.stack([cg.action_mask for cg in cgs])
                grids = batch_grids(params, feats, mask, adj)
                acts = [actions_from_grid(grids[i], cgs[i]) for i in range(len(states))]
        for i, act in enumerate(acts):
            states[i] = step(states[i], act)
            actions[i].append(act)
            distances[i].append(menv.goal_distances(states[i]))
            if keep_states:
                all_states[i].append(states[i])
    return [Trajectory(env_id=spec.env_id, seed=s,
                       actions=np.array(actions[i]),
                       distances=np.array(distances[i]),
                       states=all_states[i], cgs=all_cgs[i])
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
    """Per-step attention tensors for a rolled-out trajectory, plus the
    attention mass directed at goal rows for v2 policies.

    Returns (attn (T, L, H, n, n), goal_mass (T,) or None).  The trajectory
    must carry its control graphs (rollout keeps them by default).
    """
    if params.arch not in ("transformer", "transformer_tokenized"):
        raise UnsupportedVariantError(
            "attention reports need a transformer policy")
    if not trajectory.cgs:
        raise ValueError("trajectory carries no control graphs; "
                         "roll out with keep_cgs=True")
    from .nn.policies import transformer_grid
    steps = []
    masses = []
    v2 = params.config.cg_variant == "v2"
    for cg in trajectory.cgs:
        with no_grad():
            _, attn = transformer_grid(params, cg.node_features[None],
                                       cg.action_mask[None])
        attn = attn[0]
        steps.append(attn)
        if v2 and cg.n_goal_nodes:
            goal_rows = np.arange(cg.n_body_nodes, cg.n_nodes)
            masses.append(float(attn[:, :, :, goal_rows].sum(axis=-1).mean()))
    attn_out = np.stack(steps)
    return attn_out, (np.array(masses) if masses else None)


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
    return artifacts.load(path, CHECKPOINT_MAGIC, versions=(1, 2))[2]


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
