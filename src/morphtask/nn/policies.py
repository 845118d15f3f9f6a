"""Policy architectures over control graphs: MLP, GNN, Transformer, and the
tokenized Transformer variants, all built on the local autodiff engine.

The Transformer internally reorders nodes into a value-derived canonical
order before attention.  Every reduction then sees the same operand sequence
no matter how the caller ordered the nodes, which makes permutation
equivariance (PE off) hold bit-exactly instead of only up to float
round-off.  Position embeddings are gathered by original node index, so
enabling them restores position awareness unchanged.

A training batch holds one group of samples per environment, and groups
may differ in node count.  Their canonical rows are stacked and run through
one pass: each row-wise layer is one op over all rows and only attention
walks the per-group segments.  Training takes its loss on those rows
directly; inference (one group) scatters the outputs back to the caller's
order, and the attention maps too where a caller asks for them.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..control_graph import (CG_VARIANTS, DEFAULT_OBS_FLAGS, FLAG_ORDER, ControlGraph,
                             ShapeError, detokenize, mu_law, quantize, tokenize_features)
from . import autodiff as ad
from .autodiff import Tensor, check_finite

LN_EPS = 1e-5

ARCHS = ("mlp", "gnn", "transformer", "transformer_tokenized")
TOKEN_VARIANTS = ("d", "da", "c")


class ConfigError(ValueError):
    pass


class UnsupportedVariantError(ValueError):
    pass


def check_field(name: str, value, rule) -> None:
    """Raise ConfigError, its message led by the quoted name, unless value keeps
    rule: a tuple of choices, bool, float (finite and > 0) or an int's least value."""
    if isinstance(rule, tuple):
        bad = value not in rule and f"must be one of {', '.join(rule)}"
    elif rule is float:
        bad = not 0 < value < np.inf and "must be finite and > 0"
    elif type(value) is not (bool if rule is bool else int):
        bad = f"must be {'a bool' if rule is bool else 'an integer'}"
    else:
        bad = rule is not bool and value < rule and f"must be >= {rule}"
    if bad:
        raise ConfigError(f"{name!r} {bad}, got {value!r}")


# The rule of each PolicyConfig field but obs_flags.  feature_width may be 0:
# the CLI learns it only after the GNN rule has picked the graph layout.
_FIELD_RULES = {"arch": ARCHS, "token_variant": TOKEN_VARIANTS, "cg_variant": CG_VARIANTS,
                "use_pe": bool, "use_embed_ln": bool, "feature_width": 0, "n_bins": 2,
                **dict.fromkeys(("embed", "attn_hidden", "heads", "layers", "mlp_hidden",
                                 "mlp_layers", "gnn_hidden", "gnn_layers", "max_nodes",
                                 "max_action", "history"), 1)}


@dataclass(frozen=True)
class PolicyConfig:
    arch: str
    feature_width: int
    embed: int = 256
    attn_hidden: int = 512
    heads: int = 2
    layers: int = 3
    mlp_hidden: int = 1024
    mlp_layers: int = 2
    gnn_hidden: int = 256
    gnn_layers: int = 3
    use_pe: bool = True
    use_embed_ln: bool = False
    max_nodes: int = 48
    max_action: int = 48
    token_variant: str = "c"     # d | da | c (tokenized arch only)
    n_bins: int = 1024
    cg_variant: str = "v2"       # control-graph layout this policy consumes
    history: int = 1             # stacked frames per node
    obs_flags: tuple = DEFAULT_OBS_FLAGS

    def __post_init__(self):
        object.__setattr__(self, "obs_flags", tuple(self.obs_flags))
        for name, rule in _FIELD_RULES.items():
            check_field(name, getattr(self, name), rule)
        flags = self.obs_flags   # non-empty, in build_observation_spec's canonical form
        if not flags or flags != tuple(f for f in FLAG_ORDER if f in flags):
            raise ConfigError(f"'obs_flags' must be known flags in canonical order, "
                              f"got {flags!r}")
        if self.arch == "gnn":     # messages never reach v2's edgeless goal nodes
            object.__setattr__(self, "cg_variant", "v1")
        if self.transformer and self.embed % self.heads != 0:
            raise ConfigError(
                f"'embed' {self.embed} is not divisible by heads {self.heads}")

    @property
    def transformer(self) -> bool:
        return self.arch in ("transformer", "transformer_tokenized")

    @property
    def discrete_head(self) -> bool:
        """Bin logits per action slot (tokenized variants d, da), not a tanh grid."""
        return self.arch == "transformer_tokenized" and self.token_variant in ("d", "da")


@dataclass
class PolicyParams:
    arch: str
    config: PolicyConfig
    tensors: dict[str, Tensor] = field(default_factory=dict)

    def zero_grad(self):
        for t in self.tensors.values():
            t.zero_grad()


def parameter_count(params: PolicyParams) -> int:
    return sum(t.data.size for t in params.tensors.values())


def param_shapes(config: PolicyConfig) -> dict[str, tuple[tuple[int, ...], str]]:
    """Name -> (shape, init) of every parameter tensor, in creation order.

    init is "glorot" (shape is (fan_in, fan_out)), "zeros", "ones" or
    "normal"; init_params draws from its RNG in this order, and
    load_checkpoint checks a file's tensors against the same table.
    """
    shapes: dict[str, tuple[tuple[int, ...], str]] = {}

    def add(name, shape, init):
        shapes[name] = (shape, init)

    F = config.feature_width
    if config.arch == "mlp":
        add("fc0/W", (config.max_nodes * F, config.mlp_hidden), "glorot")
        add("fc0/b", (config.mlp_hidden,), "zeros")
        for i in range(1, config.mlp_layers):
            add(f"fc{i}/W", (config.mlp_hidden, config.mlp_hidden), "glorot")
            add(f"fc{i}/b", (config.mlp_hidden,), "zeros")
        add("out/W", (config.mlp_hidden, config.max_action), "glorot")
        add("out/b", (config.max_action,), "zeros")
        return shapes
    if config.arch == "gnn":
        width = F
        for i in range(config.gnn_layers):
            add(f"round{i}/self/W", (width, config.gnn_hidden), "glorot")
            add(f"round{i}/msg/W", (width, config.gnn_hidden), "glorot")
            add(f"round{i}/b", (config.gnn_hidden,), "zeros")
            width = config.gnn_hidden
        add("decode/W", (width, 3), "glorot")
        add("decode/b", (3,), "zeros")
        return shapes

    E = config.embed
    add("embed/W", (F, E), "glorot")
    add("embed/b", (E,), "zeros")
    if config.use_pe:
        add("pe", (config.max_nodes, E), "normal")
    if config.use_embed_ln:
        add("embed_ln/gamma", (E,), "ones")
        add("embed_ln/beta", (E,), "zeros")
    for layer in range(config.layers):
        p = f"layer{layer}"
        for w in ("Wq", "Wk", "Wv", "Wo"):
            add(f"{p}/attn/{w}", (E, E), "glorot")
        for b in ("bq", "bv", "bo"):      # no key bias: softmax cannot see it
            add(f"{p}/attn/{b}", (E,), "zeros")
        add(f"{p}/ln1/gamma", (E,), "ones")
        add(f"{p}/ln1/beta", (E,), "zeros")
        add(f"{p}/ffn/W1", (E, config.attn_hidden), "glorot")
        add(f"{p}/ffn/b1", (config.attn_hidden,), "zeros")
        add(f"{p}/ffn/W2", (config.attn_hidden, E), "glorot")
        add(f"{p}/ffn/b2", (E,), "zeros")
        add(f"{p}/ln2/gamma", (E,), "ones")
        add(f"{p}/ln2/beta", (E,), "zeros")
    add("decode/W", (E + F, 3), "glorot")
    add("decode/b", (3,), "zeros")
    if config.discrete_head:
        add("logits/W", (E + F, 3 * config.n_bins), "glorot")
        add("logits/b", (3 * config.n_bins,), "zeros")
    return shapes


def init_params(arch: str, config: PolicyConfig, seed: int) -> PolicyParams:
    """Glorot-uniform weights, zero biases, N(0, 0.02) position table."""
    if config.arch != arch:
        config = replace(config, arch=arch)
    rng = np.random.Generator(np.random.PCG64(seed))
    params = PolicyParams(arch=arch, config=config)
    for name, (shape, init) in param_shapes(config).items():
        if init == "glorot":
            bound = np.sqrt(6.0 / (shape[0] + shape[1]))
            data = rng.uniform(-bound, bound, size=shape)
        elif init == "normal":
            data = rng.normal(0.0, 0.02, size=shape)
        else:
            data = np.zeros(shape) if init == "zeros" else np.ones(shape)
        params.tensors[name] = ad.parameter(data)
    return params


# --- canonical node ordering -----------------------------------------------

def _canonical_perm(feats: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-sample node order keyed only by row bytes.

    Ties are bit-identical rows, whose contributions are interchangeable, so
    a stable sort keeps the canonical value sequence unique.
    """
    B, n, _ = feats.shape
    combined = np.ascontiguousarray(np.concatenate([feats, mask], axis=-1))
    rows = combined.view(np.dtype((np.void, combined.shape[-1] * 8)))
    return np.argsort(rows.reshape(B, n), axis=1, kind="stable")


def _stack(parts: list[np.ndarray]) -> np.ndarray:
    """One group's (B, n, ...) array as is; several stacked into (R, ...)."""
    if len(parts) == 1:
        return parts[0]
    return np.concatenate([x.reshape((-1,) + x.shape[2:]) for x in parts])


@dataclass
class CanonicalBatch:
    """Where the samples of one or more groups sit in the trunk's rows.

    Group g holds B samples of n nodes, each sample's nodes in canonical
    order: slot j of sample b is the caller's node ``perms[g][b, j]``.  A
    one-group batch keeps the shape (B, n, ...), so each sample gets its own
    GEMMs and its outputs do not depend on the rest of the batch; several
    groups are stacked into (R, ...) rows, group g in rows ``segments[g]``
    = (offset, B, n).  ``attn[layer][g]`` are the group's attention weights
    (B, H, n, n) in canonical order.
    """
    perms: list[np.ndarray]
    segments: list[tuple[int, int, int]]
    attn: list[list[np.ndarray]] = field(default_factory=list)

    def rows(self, per_node) -> np.ndarray:
        """Per-group (B, n, ...) arrays in the trunk's canonical layout."""
        return _stack([x[np.arange(perm.shape[0])[:, None], perm]
                       for x, perm in zip(per_node, self.perms)])

    def caller_order(self, x_c: Tensor) -> Tensor:
        """(B, n, ...) output of a one-group batch back in the caller's node
        order, keeping gradients."""
        (perm,) = self.perms
        B, n = perm.shape
        cpos = np.argsort(perm, axis=1)              # caller's node -> canonical slot
        flat_index = (np.arange(B)[:, None] * n + cpos).reshape(-1)
        flat = ad.reshape(x_c, (B * n,) + x_c.shape[2:])
        return ad.reshape(ad.gather_rows(flat, flat_index), x_c.shape)

    def caller_attn(self) -> np.ndarray:
        """Attention maps (B, L, H, n, n) of a one-group batch in the
        caller's node order."""
        (perm,) = self.perms
        attn = np.stack([layer[0] for layer in self.attn], axis=1)
        cpos = np.argsort(perm, axis=1)
        attn = np.take_along_axis(attn, cpos[:, None, None, :, None], axis=3)
        return np.take_along_axis(attn, cpos[:, None, None, None, :], axis=4)


# --- transformer -------------------------------------------------------------

def fused_qkv(params: PolicyParams) -> list[tuple[Tensor, Tensor]] | None:
    """Per layer the concatenated Wq|Wk|Wv and bq|0|bv of its one Q|K|V
    GEMM (None for the MLP and GNN); a rollout builds them once.  The key
    bias is a constant zero: q.bk shifts all of one query's scores alike."""
    if not params.config.transformer:
        return None
    t, bk = params.tensors, Tensor(np.zeros(params.config.embed))
    return [(ad.concat([t[f"layer{i}/attn/W{c}"] for c in "qkv"], axis=1),
             ad.concat([t[f"layer{i}/attn/bq"], bk, t[f"layer{i}/attn/bv"]]))
            for i in range(params.config.layers)]


# A block's tensors after its fused Q|K|V, in transformer_block's order.
_BLOCK_TENSORS = ("attn/Wo", "attn/bo", "ln1/gamma", "ln1/beta", "ffn/W1", "ffn/b1",
                  "ffn/W2", "ffn/b2", "ln2/gamma", "ln2/beta")


def _trunk(params: PolicyParams, feats_c: np.ndarray, batch: CanonicalBatch,
           qkv=None) -> Tensor:
    """Embed + L transformer blocks on canonically ordered features in the
    batch's layout, (B, n, F) or stacked rows (R, F).

    Each block is one ``transformer_block`` op, in training and in
    inference alike: its row-wise steps run once on all rows and only
    attention looks at the segments.  Its Q|K|V is one GEMM on fused_qkv's
    weights (built here unless passed); the attention maps go to
    ``batch.attn``.
    """
    cfg = params.config
    t = params.tensors
    z = ad.linear(Tensor(feats_c), t["embed/W"], t["embed/b"])
    if cfg.use_pe:
        z = ad.add(z, ad.gather_rows(t["pe"], _stack(batch.perms)))
    if cfg.use_embed_ln:
        z = ad.layer_norm(z, t["embed_ln/gamma"], t["embed_ln/beta"], LN_EPS)
    check_finite("embed", z)
    for layer, (w_qkv, b_qkv) in enumerate(qkv or fused_qkv(params)):
        weights = (w_qkv, b_qkv, *(t[f"layer{layer}/{name}"] for name in _BLOCK_TENSORS))
        z, attn = ad.transformer_block(z, weights, batch.segments, cfg.heads, LN_EPS)
        batch.attn.append(attn)
        check_finite(f"layer{layer}", z)
    return z


def _canonical_forward(params: PolicyParams, groups,
                       qkv=None) -> tuple[Tensor, CanonicalBatch]:
    """One ragged pass over every group of a batch.

    groups lists (feats (B, n, F), mask (B, n, 3)); n may differ between
    groups.  Each sample's nodes are put in canonical order and the rows of
    all groups run through the trunk together.  Returns the decoder input
    [z | feats], (B, n, E + F) for one group or (R, E + F) for several, and
    the batch layout.
    """
    cfg = params.config
    perms, segments, offset = [], [], 0
    for feats, mask in groups:
        B, n, F = feats.shape
        if F != cfg.feature_width:
            raise ShapeError(
                f"feature width {F} does not match config {cfg.feature_width}")
        if cfg.use_pe and n > cfg.max_nodes:
            raise ShapeError(f"{n} nodes exceed position table ({cfg.max_nodes})")
        perms.append(_canonical_perm(feats, mask))
        segments.append((offset, B, n))
        offset += B * n
    batch = CanonicalBatch(perms, segments)
    feats_c = batch.rows([feats for feats, _ in groups])
    z = _trunk(params, feats_c, batch, qkv)
    return ad.concat([z, Tensor(feats_c)], axis=-1), batch


def _tanh_head(params: PolicyParams, dec: Tensor) -> Tensor:
    t = params.tensors
    return ad.tanh(ad.linear(dec, t["decode/W"], t["decode/b"]))


def _logits_head(params: PolicyParams, dec: Tensor) -> Tensor:
    t = params.tensors
    logits = ad.linear(dec, t["logits/W"], t["logits/b"])
    return ad.reshape(logits, dec.shape[:-1] + (3, params.config.n_bins))


def transformer_rows(params: PolicyParams, groups,
                     qkv=None) -> tuple[Tensor, CanonicalBatch]:
    """The trained head over every group of a batch in one pass, in the
    batch's canonical layout: the unmasked tanh grid (..., 3), or per-slot
    bin logits (..., 3, n_bins) for the discretized tokenized heads
    (variants d, da)."""
    dec, batch = _canonical_forward(params, groups, qkv)
    head = _logits_head if params.config.discrete_head else _tanh_head
    return head(params, dec), batch


def transformer_grid(params: PolicyParams, feats: np.ndarray, mask: np.ndarray):
    """Batched forward: (B, n, F) -> masked tanh grid (B, n, 3) + attention
    (B, L, H, n, n), both in the caller's node order."""
    dec, batch = _canonical_forward(params, [(feats, mask)])
    grid = ad.mul(batch.caller_order(_tanh_head(params, dec)), mask)
    return grid, batch.caller_attn()


# --- gnn ------------------------------------------------------------------------

def adjacency(edges, n: int) -> np.ndarray:
    """Symmetric (n, n) 0/1 matrix of the undirected (parent, child) edges."""
    A = np.zeros((n, n))
    for p, c in edges:
        A[p, c] = 1.0
        A[c, p] = 1.0
    return A


def gnn_grid(params: PolicyParams, feats: np.ndarray, mask: np.ndarray,
             adjacency: np.ndarray) -> Tensor:
    cfg = params.config
    t = params.tensors
    h = Tensor(feats)
    A = Tensor(adjacency)
    for i in range(cfg.gnn_layers):
        msgs = ad.matmul(A, h)
        h = ad.relu(ad.add(ad.linear(h, t[f"round{i}/self/W"], t[f"round{i}/b"]),
                           ad.matmul(msgs, t[f"round{i}/msg/W"])))
        check_finite(f"round{i}", h)
    grid = ad.tanh(ad.linear(h, t["decode/W"], t["decode/b"]))
    return ad.mul(grid, Tensor(mask))


# --- mlp ------------------------------------------------------------------------

def flatten_features(feats: np.ndarray, max_nodes: int) -> np.ndarray:
    """Node features (..., n, F) flattened row-major and zero-padded to the
    configured node budget: (..., max_nodes * F)."""
    *lead, n, F = feats.shape
    if n > max_nodes:
        raise ShapeError(f"{n} nodes exceed MLP budget {max_nodes}")
    flat = np.zeros(tuple(lead) + (max_nodes * F,))
    flat[..., :n * F] = feats.reshape(tuple(lead) + (n * F,))
    return flat


def mlp_vector(params: PolicyParams, flat: np.ndarray) -> Tensor:
    cfg = params.config
    t = params.tensors
    if flat.shape[-1] != cfg.max_nodes * cfg.feature_width:
        raise ShapeError(
            f"flat width {flat.shape[-1]} does not match configured "
            f"{cfg.max_nodes * cfg.feature_width}")
    h = Tensor(flat)
    for i in range(cfg.mlp_layers):
        h = ad.relu(ad.linear(h, t[f"fc{i}/W"], t[f"fc{i}/b"]))
        check_finite(f"fc{i}", h)
    return ad.tanh(ad.linear(h, t["out/W"], t["out/b"]))


# --- tokenized variants ------------------------------------------------------------

def tokenize_actions(actions_grid: np.ndarray, n_bins: int = 1024) -> np.ndarray:
    """Expert action grid -> target bins for the discretized heads."""
    return quantize(mu_law(actions_grid), n_bins)


def batch_grids(params: PolicyParams, inputs: np.ndarray, mask: np.ndarray,
                adjacency: np.ndarray | None = None, qkv=None) -> np.ndarray:
    """Inference-only outputs on the arrays policy_inputs builds: action
    grids (B, n, 3), or the MLP's vectors (B, max_action).  A transformer's
    grid is the tanh head's, or for tokenized variants d and da the argmax
    bin's value (bin center for d, window average for da).  qkv is
    fused_qkv's, built here if not passed; no attention map is reordered."""
    cfg = params.config
    if cfg.arch == "mlp":
        return mlp_vector(params, inputs).data
    if cfg.arch == "gnn":
        return gnn_grid(params, inputs, mask, adjacency).data
    out, batch = transformer_rows(params, [(inputs, mask)], qkv)
    out = batch.caller_order(out).data
    if not cfg.discrete_head:
        return out * mask
    mode = "center" if cfg.token_variant == "d" else "average_window"
    return detokenize(np.argmax(out, axis=-1), mode, cfg.n_bins) * mask


# --- policy inputs and outputs ---------------------------------------------------

def policy_inputs(feats: np.ndarray, config: PolicyConfig) -> np.ndarray:
    """What the configured policy reads from node features (..., n, F): the
    MLP's flattened, zero-padded rows; for the tokenized transformer the
    features tokenized and mapped back to bin centers; else the features
    themselves.  Training data and rollouts both go through here."""
    if config.arch == "mlp":
        return flatten_features(feats, config.max_nodes)
    if config.arch == "transformer_tokenized":
        return detokenize(tokenize_features(feats, config.n_bins), "center",
                          config.n_bins)
    return feats


def action_index(config: PolicyConfig, cg: ControlGraph) -> tuple:
    """Where the actions of cg's env sit in a batch of policy outputs: the
    first action-dimension entries of the MLP's vectors, else the actuated
    (node, slot) cells of the grids.  Training scatters targets and
    rollouts gather actions with it."""
    n_act = len(cg.actuator_map)
    if config.arch != "mlp":
        return (slice(None),) + cg.actuator_index
    if n_act > config.max_action:
        raise ShapeError(f"action dimension {n_act} exceeds the MLP head "
                         f"width max_action={config.max_action}")
    return (slice(None), slice(0, n_act))
