"""Expert dataset generation, behavior-cloning objective, training loop and
checkpointing.

Datasets (magic ``CGDS``) store what the expert did: joint angles, expert
actions, goal values and episode ids per transition, as does an EnvDataset.
Observations follow from those and the body: a dataset derives them at its
own flags on their first read, and training at any other flags.  Checkpoints
(``CGCK``) carry the architecture tag, the full config and every parameter
tensor.  Both are tables of the ``artifacts`` container.
"""
from __future__ import annotations

from dataclasses import dataclass, asdict, fields
from functools import cached_property

import numpy as np

from . import artifacts
from . import env as menv
from .artifacts import CorruptionError
from .control_graph import (
    DEFAULT_OBS_FLAGS,
    ControlGraph,
    ObservationSpec,
    build_observation_spec,
    cg_feature_width,
    control_graph,
)
from .env import EnvSpec, local_observations, reset, step
from .nn import autodiff as ad
from .nn.autodiff import NumericError, Tensor
from .nn.policies import (
    ConfigError,
    PolicyConfig,
    PolicyParams,
    action_index,
    adjacency,
    check_field,
    gnn_grid,
    mlp_vector,
    param_shapes,
    policy_inputs,
    tokenize_actions,
    transformer_rows,
)

DATASET_MAGIC = b"CGDS"
CHECKPOINT_MAGIC = b"CGCK"
DEFAULT_TRANSITIONS = 12_000
HOLD_TAIL_STEPS = 25
OBSERVATION_BLOCK = 2048   # rows per local_observations call, bounding its temporaries


class DataQualityError(RuntimeError):
    pass


@dataclass(frozen=True)
class EnvDataset:
    env_id: str
    morphology_text: str
    task_text: str
    obs_spec: ObservationSpec
    joint_angles: np.ndarray  # (N, A) float64 state before each action
    actions: np.ndarray      # (N, A) float32 expert actions
    goals: np.ndarray        # (N, 3G) float32 goal values
    episodes: np.ndarray     # (N,) int32 episode id: from 0, never decreasing

    def env_spec(self) -> EnvSpec:
        return menv.env_from_texts(self.env_id, self.morphology_text,
                                   self.task_text)

    @cached_property
    def features(self) -> np.ndarray:
        """(N, n, W) float32 observations at obs_spec, built on the first read."""
        return _observations(self.env_spec().graph, self.joint_angles,
                             self.episodes, self.obs_spec)


@dataclass
class TransitionDataset:
    environments: list[EnvDataset]

    def n_transitions(self) -> int:
        return sum(len(e.actions) for e in self.environments)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 3e-4
    batch_size: int = 256
    grad_clip: float = 0.1
    steps: int = 5000
    seed: int = 0
    mix_morphologies: bool = True

    def __post_init__(self):
        for name, rule in (("learning_rate", float), ("grad_clip", float),
                           ("batch_size", 1), ("steps", 0)):
            check_field(name, getattr(self, name), rule)


@dataclass
class GenReport:
    env_id: str
    attempts: int
    episodes_kept: int
    transitions: int
    success_rate: float
    mean_normalized_final: float


def _episode_seed(seed: int, env_index: int, episode: int) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(env_index, episode))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _state_key(state: menv.EnvState) -> bytes:
    """Joint angles and box position as bytes: within one episode, all that
    the expert's next action and step depend on.  Bytes, not values, so a
    -0.0/0.0 difference can only hide a repeat, never invent one."""
    box = b"" if state.box_pos is None else state.box_pos.tobytes()
    return state.joint_angles.tobytes() + box


def _observations(graph, joint_angles: np.ndarray, episodes: np.ndarray,
                  obs_spec: ObservationSpec) -> np.ndarray:
    """float32 local_observations (N, n, W) of a dataset's rows: one array FK
    of their joint angles, then lockstep calls on blocks of episode starts,
    reset states with no previous frame (as their own they would not get
    exactly zero a slots), and of other rows, the row before as previous."""
    pos, quat = menv.forward_kinematics(graph, joint_angles)
    start = np.r_[True, episodes[1:] != episodes[:-1]]
    rows = np.empty(pos.shape[:2] + (obs_spec.width,), dtype=np.float32)
    for at in (np.flatnonzero(start), np.flatnonzero(~start)):
        for k in range(0, len(at), OBSERVATION_BLOCK):
            i = at[k: k + OBSERVATION_BLOCK]
            before = {} if start[i[0]] else dict(
                prev_joint_angles=joint_angles[i - 1], prev_positions=pos[i - 1],
                prev_orientations=quat[i - 1])
            rows[i] = local_observations(menv.EnvState(
                graph=graph, task=None, joint_angles=joint_angles[i], goals=(),
                positions=pos[i], orientations=quat[i], **before), obs_spec)
    return rows


def generate_dataset(env_specs, expert_gain: float = 1.0,
                     n_transitions: int = DEFAULT_TRANSITIONS,
                     seed: int = 0,
                     obs_spec: ObservationSpec | None = None,
                     ) -> tuple[TransitionDataset, list[GenReport]]:
    """Roll the scripted expert per environment until n_transitions accumulate.

    Episodes that never reach d <= d_min within the horizon are discarded
    (proficiency filter); kept episodes run until shortly after every goal is
    satisfied so the data includes hold-at-goal behavior.  At least half of
    the attempted episodes must be kept: DataQualityError is raised as soon
    as no later outcome can bring the keep rate to 50%, and its message
    gives the kept/attempted counts at that moment.  obs_spec only sets the
    datasets' flags (see EnvDataset.features).  A rejected episode ends at its
    first repeated state (same joint angles and box, no goal set satisfied
    yet): from there it can only cycle through states already found
    unsatisfied, so stopping gives the same data as the full horizon.
    """
    check_field("expert_gain", expert_gain, float)
    check_field("n_transitions", n_transitions, 1)
    obs_spec = obs_spec or build_observation_spec(DEFAULT_OBS_FLAGS)
    envs: list[EnvDataset] = []
    reports: list[GenReport] = []
    for env_index, spec in enumerate(env_specs):
        task = spec.task
        attempts = 0
        kept = 0
        finals: list[float] = []
        rows: list[tuple] = []     # per kept episode: (angles, actions, goals, episode ids)
        n_rows = 0
        max_attempts = 20 + 4 * (n_transitions // max(task.episode_length // 4, 1) + 1)
        while n_rows < n_transitions and attempts < max_attempts:
            if 2 * (attempts - kept) > max_attempts:
                break              # keep rate below 0.5 whatever comes next
            state = reset(spec, _episode_seed(seed, env_index, attempts))
            attempts += 1
            terms = menv.goal_terms(state)
            room = n_transitions - n_rows
            episode: list[tuple] = []  # (pre-step angles, expert action) of storable rows
            satisfied_at = None
            seen = {_state_key(state)}  # states of this episode before satisfaction
            for t in range(task.episode_length):
                action = menv.scripted_expert(state, expert_gain, terms)
                if t < room:
                    episode.append((state.joint_angles, action))
                state = step(state, action)
                terms = menv.goal_terms(state)
                if satisfied_at is None and all(
                        d <= d_min for (d, _, _), d_min in zip(terms, task.d_min)):
                    satisfied_at = t
                if satisfied_at is not None:
                    if t >= satisfied_at + HOLD_TAIL_STEPS:
                        break
                    continue
                # The next state depends only on this key (goals and ball are
                # fixed for the episode), so a repeated key means every later
                # state repeats one already found unsatisfied: reject now.
                key = _state_key(state)
                if key in seen:
                    break
                seen.add(key)
            if satisfied_at is None:
                continue
            finals.append(sum(
                (d - d_min) / (d_max - d_min)
                for (d, _, _), d_min, d_max in zip(terms, task.d_min, task.d_max)))
            angles, actions = zip(*episode)
            T = len(angles)
            goal_flat = np.concatenate(state.goals).astype(np.float32)
            rows.append((np.stack(angles), np.stack(actions).astype(np.float32),
                         np.tile(goal_flat, (T, 1)), np.full(T, kept, dtype=np.int32)))
            n_rows += T
            kept += 1
        rate = kept / attempts if attempts else 0.0
        if rate < 0.5:
            raise DataQualityError(
                f"scripted expert proficient on only {kept}/{attempts} "
                f"episodes for env {spec.env_id!r}")
        if n_rows < n_transitions:
            raise DataQualityError(
                f"could not accumulate {n_transitions} transitions for "
                f"env {spec.env_id!r}")
        theta, actions, goals, episodes = (np.concatenate(arrays) for arrays in zip(*rows))
        envs.append(EnvDataset(spec.env_id, *menv.serialize_env(spec), obs_spec, theta,
                               actions, goals, episodes))
        reports.append(GenReport(
            env_id=spec.env_id, attempts=attempts, episodes_kept=kept,
            transitions=n_rows, success_rate=rate,
            mean_normalized_final=float(np.mean(finals))))
    return TransitionDataset(environments=envs), reports


# --- dataset file ---------------------------------------------------------------

_DATASET_TAG = "states"
_ENV_KEYS = ("env_id", "morphology", "task", "obs_flags")
_ENV_ARRAYS = (("joint_angles", np.float64), ("actions", np.float32),
               ("goals", np.float32), ("episodes", np.int32))


def _dataset_table(ds: TransitionDataset):
    """(JSON header, tensors) of a dataset: per env i the arrays
    ``<i>/joint_angles``, ``<i>/actions``, ``<i>/goals`` and ``<i>/episodes``.
    Each environment passes the checks read_dataset makes, so no file is
    written that it would reject."""
    meta = {"environments": [
        {"env_id": e.env_id, "morphology": e.morphology_text,
         "task": e.task_text, "obs_flags": list(e.obs_spec.flags)}
        for e in ds.environments]}
    tensors = []
    for i, (header, e) in enumerate(zip(meta["environments"], ds.environments)):
        arrays = {key: np.asarray(getattr(e, key), dtype) for key, dtype in _ENV_ARRAYS}
        _checked_env(header, arrays)
        tensors += [(f"{i}/{key}", data) for key, data in arrays.items()]
    return meta, tensors


def dataset_bytes(ds: TransitionDataset) -> bytes:
    return artifacts.to_bytes(DATASET_MAGIC, _DATASET_TAG, *_dataset_table(ds))


def write_dataset(ds: TransitionDataset, path) -> None:
    artifacts.save(path, DATASET_MAGIC, _DATASET_TAG, *_dataset_table(ds))


def _checked_env(header, arrays: dict[str, np.ndarray]) -> EnvDataset:
    """One environment of a dataset, from its header and arrays; CorruptionError
    unless its header is well formed, its goals name nodes of its body, its
    arrays have the dtypes and shapes it implies and a row, its joint angles
    lie in their joint ranges, its actions in [-1, 1], its goals are finite,
    and its episode ids start at 0 and never decrease."""
    if not (isinstance(header, dict) and set(header) == set(_ENV_KEYS)
            and all(isinstance(header[k], str) for k in _ENV_KEYS[:3])
            and isinstance(header["obs_flags"], list)
            and all(isinstance(f, str) for f in header["obs_flags"])):
        raise CorruptionError("dataset environment header is malformed")
    env_id, morph_text, task_text, flags = (header[k] for k in _ENV_KEYS)
    try:
        obs_spec = build_observation_spec(flags)
        spec = menv.env_from_texts(env_id, morph_text, task_text)
        goal_nodes(spec)           # every goal names a node of this body
    except (ValueError, LookupError) as exc:
        raise CorruptionError(f"unreadable header for env {env_id!r}: {exc}") from exc
    if list(obs_spec.flags) != flags:
        raise CorruptionError(f"observation flags of env {env_id!r} are not canonical")
    n = arrays["episodes"].size
    shapes = {"joint_angles": (n, spec.graph.action_dimension()),
              "actions": (n, spec.graph.action_dimension()),
              "goals": (n, 3 * len(spec.task.goals)), "episodes": (n,)}
    for key, dtype in _ENV_ARRAYS:
        if arrays[key].dtype != dtype or arrays[key].shape != shapes[key]:
            raise CorruptionError(
                f"{key} of env {env_id!r}: {arrays[key].dtype} {arrays[key].shape}, "
                f"expected {np.dtype(dtype)} {shapes[key]}")
    episodes = arrays["episodes"]
    if n == 0:
        raise CorruptionError(f"env {env_id!r} holds no transitions")
    lo, hi = menv.joint_ranges(spec.graph)
    if not np.all((arrays["joint_angles"] >= lo) & (arrays["joint_angles"] <= hi)):
        raise CorruptionError(
            f"joint angles of env {env_id!r} must be finite and inside the joint ranges")
    if not np.all(np.abs(arrays["actions"]) <= 1.0):
        raise CorruptionError(f"actions of env {env_id!r} must lie in [-1, 1]")
    if not np.all(np.isfinite(arrays["goals"])):
        raise CorruptionError(f"goals of env {env_id!r} must be finite")
    if episodes[0] != 0 or np.any(episodes[1:] < episodes[:-1]):
        raise CorruptionError(
            f"episode ids of env {env_id!r} must start at 0 and never decrease")
    return EnvDataset(env_id, morph_text, task_text, obs_spec, **arrays)


def read_dataset(path) -> TransitionDataset:
    """The checked arrays of a version-2 ``CGDS`` file, no observation built
    (EnvDataset.features).  Version-1 datasets, and those that store
    observations (tag ``dataset``), are not read: ``gen-data`` remakes one
    from its ``resolved_config.txt``."""
    tag, meta, tensors = artifacts.load(path, DATASET_MAGIC)
    if tag == "dataset":
        raise CorruptionError("dataset stores observations (the schema before joint "
                              "angles): re-run gen-data to remake it")
    headers = meta.get("environments") if isinstance(meta, dict) and len(meta) == 1 else None
    if tag != _DATASET_TAG or not isinstance(headers, list) or list(tensors) != [
            f"{i}/{key}" for i in range(len(headers)) for key, _ in _ENV_ARRAYS]:
        raise CorruptionError("dataset header and tensors do not match")
    return TransitionDataset(environments=[
        _checked_env(header, {key: tensors[f"{i}/{key}"] for key, _ in _ENV_ARRAYS})
        for i, header in enumerate(headers)])


# --- control-graph preparation -------------------------------------------------

def goal_nodes(spec: EnvSpec) -> list[int]:
    return [menv.resolve_target(spec.graph, tmpl.target_selector)
            for tmpl in spec.task.goals]


def build_cg(envd_spec: EnvSpec, obs: np.ndarray, goals_flat: np.ndarray,
             variant: str) -> ControlGraph:
    """The control graph of an environment's rows: observations (..., n, w)
    and their flat goal values (..., 3G), any leading axes kept."""
    goals = np.asarray(goals_flat)
    return control_graph(obs, goals.reshape(goals.shape[:-1] + (-1, 3)),
                         goal_nodes(envd_spec), envd_spec.graph, variant)


@dataclass
class _EnvArrays:
    feats: np.ndarray          # (N, n, F) or flat (N, W_in) for the MLP
    target_grid: np.ndarray    # (N, n, 3) masked targets, or (N, max_action)
    mask: np.ndarray           # (n, 3) or (max_action,)
    n_act: int
    adjacency: np.ndarray | None = None
    token_targets: np.ndarray | None = None   # (N, n, 3) bin indices


def _history_features(feats: np.ndarray, episodes: np.ndarray, history: int) -> np.ndarray:
    """Per row, the node features of the last ``history`` rows of its
    episode side by side, newest rightmost and zero-filled on the left at
    the episode start."""
    N, n, w = feats.shape
    rows = np.arange(N)
    starts = np.concatenate([[True], episodes[1:] != episodes[:-1]])
    first = np.maximum.accumulate(np.where(starts, rows, 0))
    out = np.zeros((N, n, w * history))
    for lag in range(history):
        src = rows - lag
        ok = src >= first
        col = (history - 1 - lag) * w
        out[ok, :, col: col + w] = feats[src[ok]]
    return out


def prepare_training_data(ds: TransitionDataset,
                          config: PolicyConfig) -> list[_EnvArrays]:
    """Build per-environment tensors for the configured architecture.

    Observations are the dataset's features at its flags, else rebuilt from
    its joint angles.  One control graph holds every row of an environment,
    laid out with array ops, and the mask, actuator map and edges they share.
    """
    obs_spec = build_observation_spec(config.obs_flags)
    expect = cg_feature_width(obs_spec, config.cg_variant, config.history)
    if expect != config.feature_width:
        raise ConfigError(f"control-graph width {expect} does not match policy "
                          f"feature width {config.feature_width}")
    out = []
    for envd in ds.environments:
        spec = envd.env_spec()
        obs = envd.features if envd.obs_spec == obs_spec else _observations(
            spec.graph, envd.joint_angles, envd.episodes, obs_spec)
        cg = build_cg(spec, obs, envd.goals, config.cg_variant)
        feats = cg.node_features
        if config.history > 1:
            feats = _history_features(feats, envd.episodes, config.history)
        out.append(_pack_env_arrays(feats, envd.actions, cg, config))
    return out


def _pack_env_arrays(feats: np.ndarray, actions, cg: ControlGraph,
                     config: PolicyConfig) -> _EnvArrays:
    """Training arrays of node features (N, n, F) that share control graph
    cg's mask, actuator map and edges, paired with their expert actions
    (N, A), for the configured architecture."""
    N = len(feats)
    n_act = len(cg.actuator_map)
    index = action_index(config, cg)
    inputs = policy_inputs(feats, config)
    if config.arch == "mlp":
        vec_targets = np.zeros((N, config.max_action))
        vec_targets[index] = actions
        vec_mask = np.zeros(config.max_action)
        vec_mask[:n_act] = 1.0
        return _EnvArrays(inputs, vec_targets, vec_mask, n_act)
    target_grid = np.zeros((N,) + cg.action_mask.shape)
    target_grid[index] = actions
    adj = adjacency(cg.edges, cg.n_nodes) if config.arch == "gnn" else None
    token_targets = (tokenize_actions(target_grid, config.n_bins)
                     if config.discrete_head else None)
    return _EnvArrays(inputs, target_grid, cg.action_mask, n_act,
                      adjacency=adj, token_targets=token_targets)


# --- behavior-cloning loss -------------------------------------------------------

def _group_loss_sum(params: PolicyParams, arrays: _EnvArrays,
                    idx: np.ndarray) -> Tensor:
    """MLP/GNN: sum over the selected samples of per-sample mean error."""
    feats = arrays.feats[idx]
    mask_b = np.broadcast_to(arrays.mask, feats.shape[:1] + arrays.mask.shape)
    if params.config.arch == "mlp":
        pred = mlp_vector(params, feats)
    else:
        pred = gnn_grid(params, feats, mask_b, arrays.adjacency)
    diff = ad.sub(pred, arrays.target_grid[idx])
    per = ad.tsum(ad.mul(ad.mul(diff, diff), mask_b))
    return ad.mul(per, 1.0 / arrays.n_act)


def _transformer_loss_sum(params: PolicyParams,
                          groups: list[tuple[_EnvArrays, np.ndarray]]) -> Tensor:
    """Transformers: the same sum over all groups from one ragged pass.

    The loss is taken on the canonical rows, each row weighted by its
    action mask / n_act: squared error of the tanh grid, or the cross
    entropy of the expert action's bin for the discretized heads.
    """
    inputs = [(a.feats[idx], np.broadcast_to(a.mask, (len(idx),) + a.mask.shape))
              for a, idx in groups]
    head, batch = transformer_rows(params, inputs)
    weights = batch.rows([mask * (1.0 / a.n_act)
                          for (a, _), (_, mask) in zip(groups, inputs)])
    if groups[0][0].token_targets is None:
        diff = ad.sub(head, batch.rows([a.target_grid[idx] for a, idx in groups]))
        return ad.tsum(ad.mul(ad.mul(diff, diff), weights))
    bins = batch.rows([a.token_targets[idx] for a, idx in groups])
    picked = np.zeros(head.shape)
    np.put_along_axis(picked, bins[..., None], weights[..., None], axis=-1)
    return ad.mul(ad.tsum(ad.mul(ad.log_softmax(head), picked)), -1.0)


def loss_from_groups(params: PolicyParams,
                     groups: list[tuple[_EnvArrays, np.ndarray]]) -> Tensor:
    """Mean per-sample loss over (env arrays, row indices) groups.

    MLP and GNN run one forward pass per group; the transformers run one
    pass over all groups together.
    """
    groups = [(arrays, idx) for arrays, idx in groups if len(idx)]
    count = sum(len(idx) for _, idx in groups)
    if count == 0:
        raise ValueError("empty batch")
    if params.config.transformer:
        total = _transformer_loss_sum(params, groups)
    else:
        total = _group_loss_sum(params, *groups[0])
        for arrays, idx in groups[1:]:
            total = ad.add(total, _group_loss_sum(params, arrays, idx))
    return ad.mul(total, 1.0 / count)


def bc_loss(params: PolicyParams, batch) -> Tensor:
    """Mean per-sample behavior-cloning loss over (control graph, action) pairs.

    MSE over unmasked slots for continuous heads; cross-entropy over the
    expert action's bin for the discretized heads.
    """
    groups: dict = {}
    for cg, action in batch:
        key = (cg.node_features.shape, cg.edges)
        groups.setdefault(key, []).append((cg, np.asarray(action)))
    packed = []
    for _, items in sorted(groups.items(), key=lambda kv: str(kv[0])):
        feats = np.stack([cg.node_features for cg, _ in items])
        actions = np.stack([act for _, act in items])
        packed.append((_pack_env_arrays(feats, actions, items[0][0], params.config),
                       np.arange(len(items))))
    return loss_from_groups(params, packed)


# --- Adam with global-norm clipping ------------------------------------------------

@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0


def adam_init(params: PolicyParams) -> AdamState:
    return AdamState(m={k: np.zeros_like(p.data) for k, p in params.tensors.items()},
                     v={k: np.zeros_like(p.data) for k, p in params.tensors.items()})


def clip_global_norm(grads: dict[str, np.ndarray], clip: float) -> float:
    """Scale grads in place to global L2 norm at most clip; returns the norm
    before clipping.  A non-finite norm leaves grads as they are."""
    norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
    if clip < norm < np.inf and norm > 0.0:
        scale = clip / norm
        for g in grads.values():
            g *= scale
    return norm


def adam_step(params: PolicyParams, grads: dict[str, np.ndarray],
              state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One Adam update of the parameters, m and v in place.

    The arithmetic is p -= lr * (m / b1t) / (sqrt(v / b2t) + eps) with
    m = beta1 m + (1 - beta1) g and v = beta2 v + (1 - beta2) g^2, each
    operation in that order, in two scratch buffers per tensor.
    """
    state.t += 1
    b1t = 1.0 - beta1 ** state.t
    b2t = 1.0 - beta2 ** state.t
    for k, p in params.tensors.items():
        g, m, v = grads[k], state.m[k], state.v[k]
        step = np.multiply(g, 1.0 - beta1)
        m *= beta1
        m += step
        denom = np.multiply(g, g)
        denom *= 1.0 - beta2
        v *= beta2
        v += denom
        np.divide(m, b1t, out=step)
        step *= lr
        np.divide(v, b2t, out=denom)
        np.sqrt(denom, out=denom)
        denom += eps
        step /= denom
        p.data -= step


class _BatchSampler:
    """Seeded shuffle over the flat (env, transition) index space."""

    def __init__(self, sizes: list[int], batch_size: int, seed: int,
                 mix_morphologies: bool):
        self.sizes = sizes
        self.batch = batch_size
        self.mix = mix_morphologies
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self._pool: np.ndarray | None = None
        self._cursor = 0
        self._env_cursor = 0

    def next_batch(self) -> list[tuple[int, np.ndarray]]:
        if self.mix:
            total = sum(self.sizes)
            if self._pool is None or self._cursor + self.batch > total:
                flat = np.concatenate([
                    np.stack([np.full(n, e), np.arange(n)], axis=1)
                    for e, n in enumerate(self.sizes)])
                self._pool = flat[self.rng.permutation(total)]
                self._cursor = 0
            chunk = self._pool[self._cursor: self._cursor + self.batch]
            self._cursor += self.batch
            out = []
            for e in range(len(self.sizes)):
                rows = chunk[chunk[:, 0] == e][:, 1]
                if len(rows):
                    out.append((e, rows.astype(np.int64)))
            return out
        e = self._env_cursor % len(self.sizes)
        self._env_cursor += 1
        idx = self.rng.integers(0, self.sizes[e], size=self.batch)
        return [(e, np.sort(idx))]


def train(params: PolicyParams, dataset: TransitionDataset,
          config: TrainConfig) -> tuple[PolicyParams, list[tuple[int, float]]]:
    """Adam behavior cloning; loss recorded every 100 steps plus both ends.

    Raises NumericError naming the step whose loss or gradient norm is not
    finite, before that step updates any parameter.
    """
    arrays = prepare_training_data(dataset, params.config)
    sampler = _BatchSampler([a.feats.shape[0] for a in arrays],
                            config.batch_size, config.seed,
                            config.mix_morphologies)
    state = adam_init(params)
    curve: list[tuple[int, float]] = []

    def batch_loss() -> Tensor:
        groups = [(arrays[e], idx) for e, idx in sampler.next_batch()]
        return loss_from_groups(params, groups)

    for t in range(config.steps):
        params.zero_grad()
        loss = batch_loss()
        value = float(loss.data)
        if not np.isfinite(value):
            raise NumericError(f"training loss went non-finite at step {t}")
        if t % 100 == 0:
            curve.append((t, value))
        loss.backward()
        # Step t's graph goes as a whole, before step t+1's forward: kept
        # alive until the next rebinding of loss it doubles the peak, and
        # freed node by node inside backward it would let the allocator hand
        # pages back that the next forward then faults in again.
        del loss
        grads = {k: (p.grad if p.grad is not None else np.zeros_like(p.data))
                 for k, p in params.tensors.items()}
        if not np.isfinite(clip_global_norm(grads, config.grad_clip)):
            raise NumericError(f"gradient norm went non-finite at step {t}")
        adam_step(params, grads, state, config.learning_rate)
    with ad.no_grad():
        curve.append((config.steps, float(batch_loss().data)))
    return params, curve


# --- checkpoint format ----------------------------------------------------------------

def _checkpoint_table(params: PolicyParams):
    return (CHECKPOINT_MAGIC, params.arch, asdict(params.config),
            [(k, t.data) for k, t in params.tensors.items()])


def checkpoint_bytes(params: PolicyParams) -> bytes:
    return artifacts.to_bytes(*_checkpoint_table(params))


def save_checkpoint(params: PolicyParams, path) -> None:
    artifacts.save(path, *_checkpoint_table(params))


def load_checkpoint(path, expect_arch: str | None = None) -> PolicyParams:
    """Parameters of a checkpoint whose config and tensors are exactly those
    init_params would build, holding parse's arrays; else CorruptionError."""
    arch, values, tensors = artifacts.load(path, CHECKPOINT_MAGIC)
    if expect_arch is not None and arch != expect_arch:
        raise ConfigError(
            f"checkpoint holds a {arch!r} policy, expected {expect_arch!r}")
    try:
        if set(values) != {f.name for f in fields(PolicyConfig)}:
            raise CorruptionError("checkpoint config keys differ from PolicyConfig")
        config = PolicyConfig(**values)
        expect = [(name, shape, np.dtype(np.float64))
                  for name, (shape, _) in param_shapes(config).items()]
    except (TypeError, ValueError) as exc:
        raise CorruptionError(f"unreadable checkpoint config: {exc}") from exc
    if config.arch != arch or \
            expect != [(name, data.shape, data.dtype) for name, data in tensors.items()]:
        raise CorruptionError(
            "checkpoint tensors differ from what its config builds")
    return PolicyParams(arch=arch, config=config, tensors={
        name: Tensor(data, requires_grad=True) for name, data in tensors.items()})


def fnv1a64(data) -> int:
    """64-bit FNV-1a, the checksum that version-1 artifacts ended in.  No
    reader calls it since version 1 is rejected; it stays only because
    perfbench/spans.py traces distill.fnv1a64 by name."""
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h
