"""Expert dataset generation, behavior-cloning objective, training loop,
checkpointing, and fine-tuning warm starts.

Dataset files (magic ``CGDS``) store raw per-node observations plus expert
actions and goal values per transition, so the same file can be replayed
through any control-graph variant or architecture.  Checkpoints (``CGCK``)
carry the architecture tag, the full config, every parameter tensor, and a
trailing FNV-1a checksum.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, asdict, fields

import numpy as np

from . import env as menv
from .control_graph import (
    ObservationSpec,
    build_cg_v1,
    build_cg_v2,
    build_observation_spec,
    detokenize,
    spec_from_bitmask,
    stack_history,
    tokenize_cg,
)
from .env import EnvSpec, local_observations, reset, scripted_expert, step
from .nn import autodiff as ad
from .nn.autodiff import NumericError, Tensor
from .nn.policies import (
    ConfigError,
    PolicyConfig,
    PolicyParams,
    adjacency,
    flatten_cg,
    gnn_grid,
    mlp_vector,
    param_shapes,
    tokenize_actions,
    tokenized_logits,
    transformer_grid,
)

DATASET_MAGIC = b"CGDS"
CHECKPOINT_MAGIC = b"CGCK"
FORMAT_VERSION = 1
DEFAULT_TRANSITIONS = 12_000
HOLD_TAIL_STEPS = 25

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


class DataQualityError(RuntimeError):
    pass


class CorruptionError(RuntimeError):
    pass


@dataclass
class EnvDataset:
    env_id: str
    morphology_text: str
    task_text: str
    obs_spec: ObservationSpec
    features: list[np.ndarray] = field(default_factory=list)   # (n, W) f32
    actions: list[np.ndarray] = field(default_factory=list)    # (A,) f32
    goals: list[np.ndarray] = field(default_factory=list)      # (3G,) f32

    def env_spec(self) -> EnvSpec:
        return menv.env_from_texts(self.env_id, self.morphology_text,
                                   self.task_text)


@dataclass
class TransitionDataset:
    environments: list[EnvDataset]
    format_version: int = FORMAT_VERSION

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
        if min(self.learning_rate, self.batch_size, self.grad_clip) <= 0:
            raise ValueError("training hyperparameters must be positive")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")


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


def generate_dataset(env_specs, expert_gain: float = 1.0,
                     n_transitions: int = DEFAULT_TRANSITIONS,
                     seed: int = 0,
                     obs_spec: ObservationSpec | None = None,
                     ) -> tuple[TransitionDataset, list[GenReport]]:
    """Roll the scripted expert per environment until n_transitions accumulate.

    Episodes that never reach d <= d_min within the horizon are discarded
    (proficiency filter); kept episodes run until shortly after every goal is
    satisfied so the data includes hold-at-goal behavior.
    """
    obs_spec = obs_spec or build_observation_spec(
        ["p", "v", "q", "a", "ja", "jr", "m"])
    envs: list[EnvDataset] = []
    reports: list[GenReport] = []
    for env_index, spec in enumerate(env_specs):
        morph_text, task_text = menv.serialize_env(spec)
        record = EnvDataset(env_id=spec.env_id, morphology_text=morph_text,
                            task_text=task_text, obs_spec=obs_spec)
        task = spec.task
        attempts = 0
        kept = 0
        finals: list[float] = []
        max_attempts = 20 + 4 * (n_transitions // max(task.episode_length // 4, 1) + 1)
        while len(record.actions) < n_transitions:
            if attempts >= max_attempts:
                break
            state = reset(spec, _episode_seed(seed, env_index, attempts))
            attempts += 1
            rows: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
            satisfied_at = None
            goal_flat = np.concatenate(state.goals).astype(np.float32)
            for t in range(task.episode_length):
                obs = local_observations(state, obs_spec)
                action = scripted_expert(state, expert_gain)
                rows.append((obs.astype(np.float32),
                             action.astype(np.float32), goal_flat))
                state = step(state, action)
                done = all(menv.goal_distance(state, g) <= task.d_min[g]
                           for g in range(len(task.goals)))
                if done and satisfied_at is None:
                    satisfied_at = t
                if satisfied_at is not None and t >= satisfied_at + HOLD_TAIL_STEPS:
                    break
            if satisfied_at is None:
                continue
            kept += 1
            finals.append(sum(
                (menv.goal_distance(state, g) - task.d_min[g])
                / (task.d_max[g] - task.d_min[g])
                for g in range(len(task.goals))))
            room = n_transitions - len(record.actions)
            for obs, act, gl in rows[:room]:
                record.features.append(obs)
                record.actions.append(act)
                record.goals.append(gl)
        rate = kept / attempts if attempts else 0.0
        if rate < 0.5:
            raise DataQualityError(
                f"scripted expert proficient on only {kept}/{attempts} "
                f"episodes for env {spec.env_id!r}")
        if len(record.actions) < n_transitions:
            raise DataQualityError(
                f"could not accumulate {n_transitions} transitions for "
                f"env {spec.env_id!r}")
        envs.append(record)
        reports.append(GenReport(
            env_id=spec.env_id, attempts=attempts, episodes_kept=kept,
            transitions=len(record.actions), success_rate=rate,
            mean_normalized_final=float(np.mean(finals))))
    return TransitionDataset(environments=envs), reports


# --- binary dataset format ----------------------------------------------------

def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def _pack_f32(a: np.ndarray) -> bytes:
    flat = np.ascontiguousarray(a, dtype="<f4").reshape(-1)
    return struct.pack("<I", flat.size) + flat.tobytes()


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.off = 0

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.buf):
            raise CorruptionError("unexpected end of file")
        out = self.buf[self.off: self.off + n]
        self.off += n
        return out

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def string(self) -> str:
        return self.take(self.u32()).decode("utf-8")

    def f32(self) -> np.ndarray:
        n = self.u32()
        return np.frombuffer(self.take(4 * n), dtype="<f4").copy()


def dataset_bytes(ds: TransitionDataset) -> bytes:
    parts = [DATASET_MAGIC, struct.pack("<I", ds.format_version),
             struct.pack("<I", len(ds.environments))]
    for envd in ds.environments:
        parts.append(_pack_str(envd.morphology_text))
        parts.append(_pack_str(envd.task_text))
        parts.append(struct.pack("<H", envd.obs_spec.bitmask()))
        parts.append(struct.pack("<I", len(envd.actions)))
        parts.append(_pack_str(envd.env_id))
        for feats, acts, goals in zip(envd.features, envd.actions, envd.goals):
            parts.append(_pack_f32(feats))
            parts.append(_pack_f32(acts))
            parts.append(_pack_f32(goals))
    return b"".join(parts)


def write_dataset(ds: TransitionDataset, path) -> None:
    with open(path, "wb") as fh:
        fh.write(dataset_bytes(ds))


def read_dataset(path) -> TransitionDataset:
    with open(path, "rb") as fh:
        buf = fh.read()
    r = _Reader(buf)
    if r.take(4) != DATASET_MAGIC:
        raise CorruptionError("not a dataset file (bad magic)")
    version = r.u32()
    if version != FORMAT_VERSION:
        raise CorruptionError(f"unsupported dataset version {version}")
    n_envs = r.u32()
    envs = []
    for _ in range(n_envs):
        morph_text = r.string()
        task_text = r.string()
        obs_spec = spec_from_bitmask(r.u16())
        count = r.u32()
        env_id = r.string()
        envd = EnvDataset(env_id=env_id, morphology_text=morph_text,
                          task_text=task_text, obs_spec=obs_spec)
        width = obs_spec.width
        for _ in range(count):
            feats = r.f32()
            envd.features.append(feats.reshape(-1, width))
            envd.actions.append(r.f32())
            envd.goals.append(r.f32())
        envs.append(envd)
    if r.off != len(buf):
        raise CorruptionError("trailing bytes after dataset payload")
    return TransitionDataset(environments=envs, format_version=version)


# --- control-graph preparation -------------------------------------------------

def cg_feature_width(obs_spec: ObservationSpec, variant: str,
                     history: int = 1) -> int:
    base = obs_spec.width + (12 if variant == "v1" else 3)
    return base * history


def build_cg(envd_spec: EnvSpec, obs: np.ndarray, goals_flat: np.ndarray,
             obs_spec: ObservationSpec, variant: str):
    values = np.asarray(goals_flat, dtype=np.float64).reshape(-1, 3)
    bindings = [(menv.resolve_target(envd_spec.graph, tmpl.target_selector),
                 values[g])
                for g, tmpl in enumerate(envd_spec.task.goals)]
    if variant == "v1":
        return build_cg_v1(obs, bindings, envd_spec.graph)
    return build_cg_v2(obs, bindings, envd_spec.graph, obs_spec)


@dataclass
class _EnvArrays:
    feats: np.ndarray          # (N, n, F) or flat (N, W_in) for the MLP
    target_grid: np.ndarray    # (N, n, 3) masked targets, or (N, max_action)
    mask: np.ndarray           # (n, 3) or (max_action,)
    n_act: int
    adjacency: np.ndarray | None = None
    token_targets: np.ndarray | None = None   # (N, n, 3) bin indices


def _episode_starts(envd: EnvDataset) -> np.ndarray:
    """Episode boundaries inferred from goal-value changes between rows."""
    starts = np.zeros(len(envd.goals), dtype=bool)
    if len(envd.goals):
        starts[0] = True
        for i in range(1, len(envd.goals)):
            if not np.array_equal(envd.goals[i], envd.goals[i - 1]):
                starts[i] = True
    return starts


def prepare_training_data(ds: TransitionDataset,
                          config: PolicyConfig) -> list[_EnvArrays]:
    """Build per-environment tensors for the configured architecture."""
    out = []
    for envd in ds.environments:
        spec = envd.env_spec()
        variant = "v1" if config.arch == "gnn" else config.cg_variant
        if tuple(envd.obs_spec.flags) != tuple(config.obs_flags):
            raise ConfigError(
                f"dataset observation flags {envd.obs_spec.flags} do not match "
                f"policy config {config.obs_flags}")
        expect = cg_feature_width(envd.obs_spec, variant, config.history)
        if expect != config.feature_width:
            raise ConfigError(
                f"control-graph width {expect} does not match policy feature "
                f"width {config.feature_width}")
        cgs = [build_cg(spec, f.astype(np.float64), g, envd.obs_spec, variant)
               for f, g in zip(envd.features, envd.goals)]
        if config.history > 1:
            starts = _episode_starts(envd)
            stacked = []
            frames: list = []
            for i, cg in enumerate(cgs):
                if starts[i]:
                    frames = []
                frames.append(cg)
                frames = frames[-config.history:]
                stacked.append(stack_history(frames, config.history))
            cgs = stacked
        out.append(_pack_env_arrays(cgs, envd.actions, config))
    return out


def _pack_env_arrays(cgs, actions, config: PolicyConfig) -> _EnvArrays:
    """Training arrays of control graphs that share one shape and edge set,
    paired with their expert actions, for the configured architecture."""
    n_act = len(cgs[0].actuator_map)
    if config.arch == "mlp":
        flat = np.stack([flatten_cg(cg, config.max_nodes) for cg in cgs])
        vec_targets = np.zeros((len(cgs), config.max_action))
        vec_mask = np.zeros(config.max_action)
        vec_mask[:n_act] = 1.0
        for i, act in enumerate(actions):
            vec_targets[i, :n_act] = act
        return _EnvArrays(flat, vec_targets, vec_mask, n_act)
    target_grid = np.zeros((len(cgs),) + cgs[0].action_mask.shape)
    for i, (cg, act) in enumerate(zip(cgs, actions)):
        for dof, (node, slot) in enumerate(cg.actuator_map):
            target_grid[i, node, slot] = act[dof]
    feats = np.stack([cg.node_features for cg in cgs])
    adj = None
    token_targets = None
    if config.arch == "gnn":
        adj = adjacency(cgs[0].edges, cgs[0].n_nodes)
    if config.arch == "transformer_tokenized":
        tokens = np.stack([tokenize_cg(cg, config.n_bins) for cg in cgs])
        feats = detokenize(tokens, "center", config.n_bins)
        if config.token_variant in ("d", "da"):
            token_targets = tokenize_actions(target_grid, config.n_bins)
    return _EnvArrays(feats, target_grid, cgs[0].action_mask, n_act,
                      adjacency=adj, token_targets=token_targets)


# --- behavior-cloning loss -------------------------------------------------------

def _group_loss_sum(params: PolicyParams, arrays: _EnvArrays,
                    idx: np.ndarray) -> Tensor:
    """Sum over the selected samples of per-sample mean error."""
    cfg = params.config
    feats = arrays.feats[idx]
    mask_b = np.broadcast_to(arrays.mask, feats.shape[:1] + arrays.mask.shape)
    if cfg.arch == "mlp":
        pred = mlp_vector(params, feats)
    elif cfg.arch == "gnn":
        pred = gnn_grid(params, feats, mask_b, arrays.adjacency)
    elif cfg.arch == "transformer_tokenized" and cfg.token_variant in ("d", "da"):
        logits, _ = tokenized_logits(params, feats, mask_b)
        logp = ad.log_softmax(logits)
        onehot = np.zeros(logits.shape)
        np.put_along_axis(onehot, arrays.token_targets[idx][..., None], 1.0,
                          axis=-1)
        onehot *= arrays.mask[None, :, :, None]
        nll = ad.mul(ad.tsum(ad.mul(logp, onehot)), -1.0 / arrays.n_act)
        return nll
    else:
        pred, _ = transformer_grid(params, feats, mask_b)
    diff = ad.sub(pred, arrays.target_grid[idx])
    per = ad.tsum(ad.mul(ad.mul(diff, diff), mask_b))
    return ad.mul(per, 1.0 / arrays.n_act)


def loss_from_groups(params: PolicyParams,
                     groups: list[tuple[_EnvArrays, np.ndarray]]) -> Tensor:
    total = None
    count = 0
    for arrays, idx in groups:
        if len(idx) == 0:
            continue
        part = _group_loss_sum(params, arrays, idx)
        total = part if total is None else ad.add(total, part)
        count += len(idx)
    if total is None or count == 0:
        raise ValueError("empty batch")
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
        cgs = [cg for cg, _ in items]
        actions = [act for _, act in items]
        packed.append((_pack_env_arrays(cgs, actions, params.config),
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
    norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
    if norm > clip and norm > 0.0:
        scale = clip / norm
        for g in grads.values():
            g *= scale
    return norm


def adam_step(params: PolicyParams, grads: dict[str, np.ndarray],
              state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    state.t += 1
    b1t = 1.0 - beta1 ** state.t
    b2t = 1.0 - beta2 ** state.t
    for k, p in params.tensors.items():
        g = grads[k]
        state.m[k] = beta1 * state.m[k] + (1.0 - beta1) * g
        state.v[k] = beta2 * state.v[k] + (1.0 - beta2) * (g * g)
        m_hat = state.m[k] / b1t
        v_hat = state.v[k] / b2t
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + eps)


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
    """Adam behavior cloning; loss recorded every 100 steps plus both ends."""
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
        grads = {k: (p.grad if p.grad is not None else np.zeros_like(p.data))
                 for k, p in params.tensors.items()}
        clip_global_norm(grads, config.grad_clip)
        adam_step(params, grads, state, config.learning_rate)
    curve.append((config.steps, float(batch_loss().data)))
    return params, curve


def finetune(checkpoint: PolicyParams, dataset: TransitionDataset,
             config: TrainConfig) -> tuple[PolicyParams, list[tuple[int, float]]]:
    """Same loop as train, warm-started from a checkpoint's parameters."""
    return train(checkpoint.clone(), dataset, config)


# --- checkpoint format ----------------------------------------------------------------

def fnv1a64(data: bytes) -> int:
    h = FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def _tensor_table_bytes(arch: str, config: PolicyConfig, tensors) -> bytes:
    """The CGCK container: magic, version, arch tag, JSON config, the
    (name, array) tensors as float64, then the FNV-1a of all of that."""
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", FORMAT_VERSION),
             _pack_str(arch),
             _pack_str(json.dumps(asdict(config), sort_keys=True)),
             struct.pack("<I", len(tensors))]
    for name, data in tensors:
        data = np.ascontiguousarray(data, dtype="<f8")
        parts.append(_pack_str(name))
        parts.append(struct.pack("<I", data.ndim))
        for d in data.shape:
            parts.append(struct.pack("<I", d))
        parts.append(data.tobytes())
    payload = b"".join(parts)
    return payload + struct.pack("<Q", fnv1a64(payload))


def _read_tensor_table(buf: bytes) -> tuple[str, str, dict[str, np.ndarray]]:
    """(arch, config JSON, {name: array}) of a CGCK container.

    Raises CorruptionError on a bad magic, version or checksum, a truncated
    table, or bytes left over after the last tensor.
    """
    if len(buf) < 12 or buf[:4] != CHECKPOINT_MAGIC:
        raise CorruptionError("not a tensor-table file (bad magic)")
    payload, tail = buf[:-8], buf[-8:]
    if struct.unpack("<Q", tail)[0] != fnv1a64(payload):
        raise CorruptionError("tensor-table checksum mismatch")
    r = _Reader(payload)
    r.take(4)
    version = r.u32()
    if version != FORMAT_VERSION:
        raise CorruptionError(f"unsupported tensor-table version {version}")
    arch = r.string()
    config_json = r.string()
    tensors = {}
    for _ in range(r.u32()):
        name = r.string()
        shape = tuple(r.u32() for _ in range(r.u32()))
        size = int(np.prod(shape)) if shape else 1
        tensors[name] = np.frombuffer(r.take(8 * size), dtype="<f8").reshape(shape).copy()
    if r.off != len(payload):
        raise CorruptionError("trailing bytes after the tensor table")
    return arch, config_json, tensors


def checkpoint_bytes(params: PolicyParams) -> bytes:
    return _tensor_table_bytes(params.arch, params.config,
                               [(k, t.data) for k, t in params.tensors.items()])


def save_checkpoint(params: PolicyParams, path) -> None:
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(params))


def load_checkpoint(path, expect_arch: str | None = None) -> PolicyParams:
    """Parameters of a checkpoint whose config and tensors are exactly those
    init_params would build; anything else raises CorruptionError."""
    with open(path, "rb") as fh:
        arch, config_json, tensors = _read_tensor_table(fh.read())
    if expect_arch is not None and arch != expect_arch:
        raise ConfigError(
            f"checkpoint holds a {arch!r} policy, expected {expect_arch!r}")
    try:
        values = json.loads(config_json)
        if set(values) != {f.name for f in fields(PolicyConfig)}:
            raise CorruptionError("checkpoint config keys differ from PolicyConfig")
        config = PolicyConfig(**values)
        expect = [(name, shape) for name, (shape, _) in param_shapes(config).items()]
    except (TypeError, ValueError) as exc:
        raise CorruptionError(f"unreadable checkpoint config: {exc}") from exc
    if config.arch != arch or \
            expect != [(name, data.shape) for name, data in tensors.items()]:
        raise CorruptionError(
            "checkpoint tensors differ from what its config builds")
    return PolicyParams(arch=arch, config=config, tensors={
        name: ad.parameter(data) for name, data in tensors.items()})
