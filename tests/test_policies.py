import math
from dataclasses import replace

import numpy as np
import pytest

from morphtask.control_graph import (
    build_cg_v1,
    build_cg_v2,
    build_observation_spec,
    detokenize,
    tokenize_features,
)
from morphtask.env import local_observations, make_env, reset
from morphtask.nn import autodiff as ad
from morphtask.nn.policies import (
    ConfigError,
    PolicyConfig,
    ShapeError,
    action_index,
    adjacency,
    batch_grids,
    flatten_features,
    gnn_grid,
    init_params,
    mlp_vector,
    param_shapes,
    parameter_count,
    policy_inputs,
    transformer_grid,
    transformer_rows,
)

from test_autodiff import assert_same_bits, block_reference
from test_control_graph import goal_bindings
from test_distill import tokenized_logits

OBS = build_observation_spec(["p", "v", "q", "a", "ja", "jr", "m"])  # width 30


def sample_cg(env_id="ant_reach_3", variant="v2", seed=0):
    spec = make_env(env_id)
    state = reset(spec, seed)
    obs = local_observations(state, OBS)
    build = build_cg_v2 if variant == "v2" else build_cg_v1
    return build(obs, goal_bindings(state), spec.graph)


def cg_actions(params, cg):
    """Action vector of one control graph the way rollouts take it:
    policy_inputs, the architecture's forward, then action_index."""
    x = policy_inputs(cg.node_features[None], params.config)
    out = batch_grids(params, x, cg.action_mask[None], adjacency(cg.edges, cg.n_nodes))
    return out[action_index(params.config, cg)][0]


def tf_config(cg, **kw):
    defaults = dict(arch="transformer", feature_width=cg.width, embed=16,
                    attn_hidden=32, heads=2, layers=2, max_nodes=24)
    defaults.update(kw)
    return PolicyConfig(**defaults)


# --- init ----------------------------------------------------------------

def test_init_deterministic_in_seed():
    cg = sample_cg()
    cfg = tf_config(cg)
    a = init_params("transformer", cfg, 7)
    b = init_params("transformer", cfg, 7)
    for k in a.tensors:
        np.testing.assert_array_equal(a.tensors[k].data, b.tensors[k].data)
    c = init_params("transformer", cfg, 8)
    assert any(not np.array_equal(a.tensors[k].data, c.tensors[k].data)
               for k in a.tensors)


def test_biases_zero_at_init():
    cg = sample_cg()
    params = init_params("transformer", tf_config(cg), 0)
    for name, t in params.tensors.items():
        if name.endswith("/b") or name.endswith("beta") \
                or name.split("/")[-1].startswith("b"):
            np.testing.assert_array_equal(t.data, 0.0)


@pytest.mark.parametrize("arch,extra", [
    ("mlp", dict(mlp_layers=3)),
    ("gnn", {}),
    ("transformer", dict(use_embed_ln=True)),
    ("transformer_tokenized", dict(token_variant="da", n_bins=16)),
    ("transformer_tokenized", dict(token_variant="c", use_pe=False)),
])
def test_param_shapes_describe_init_params(arch, extra):
    cfg = tf_config(sample_cg(), arch=arch, **extra)
    params = init_params(arch, cfg, 0)
    assert [(k, t.data.shape) for k, t in params.tensors.items()] == \
        [(k, shape) for k, (shape, _) in param_shapes(cfg).items()]


@pytest.mark.parametrize("arch", ["transformer", "transformer_tokenized"])
def test_no_key_bias(arch):
    names = param_shapes(tf_config(sample_cg(), arch=arch, layers=2))
    assert [n for n in names if n.endswith("/bk")] == []
    assert "layer1/attn/bq" in names and "layer1/attn/bv" in names


def test_embed_not_divisible_by_heads():
    with pytest.raises(ConfigError):
        PolicyConfig(arch="transformer", feature_width=30, embed=30, heads=4)


_COUNTS = ("embed", "attn_hidden", "heads", "layers", "mlp_hidden", "mlp_layers",
           "gnn_hidden", "gnn_layers", "max_nodes", "max_action", "history")


@pytest.mark.parametrize("kw, message", [
    *[({name: 0}, f"'{name}' must be >= 1, got 0") for name in _COUNTS],
    (dict(heads=2.0), "'heads' must be an integer, got 2.0"),
    (dict(embed=True), "'embed' must be an integer, got True"),
    (dict(n_bins=1), "'n_bins' must be >= 2, got 1"),
    (dict(n_bins=True), "'n_bins' must be an integer, got True"),
    (dict(feature_width=-1), "'feature_width' must be >= 0, got -1"),
    (dict(feature_width=30.0), "'feature_width' must be an integer, got 30.0"),
    (dict(use_pe=1), "'use_pe' must be a bool, got 1"),
    (dict(use_embed_ln="no"), "'use_embed_ln' must be a bool, got 'no'"),
    (dict(arch="perceiver"),
     "'arch' must be one of mlp, gnn, transformer, transformer_tokenized, got 'perceiver'"),
    (dict(token_variant="none"), "'token_variant' must be one of d, da, c, got 'none'"),
    (dict(cg_variant="v3"), "'cg_variant' must be one of v1, v2, got 'v3'"),
    (dict(embed=63), "'embed' 63 is not divisible by heads 2"),
])
def test_every_config_rule_raises_config_error_naming_its_field(kw, message):
    with pytest.raises(ConfigError) as info:
        PolicyConfig(**{"arch": "transformer", "feature_width": 30, **kw})
    assert str(info.value) == message


@pytest.mark.parametrize("arch,token,transformer,discrete_head", [
    ("mlp", "d", False, False),
    ("gnn", "da", False, False),
    ("transformer", "d", True, False),
    ("transformer", "c", True, False),
    ("transformer_tokenized", "d", True, True),
    ("transformer_tokenized", "da", True, True),
    ("transformer_tokenized", "c", True, False),
])
def test_architecture_rules(arch, token, transformer, discrete_head):
    cfg = PolicyConfig(arch=arch, feature_width=30, token_variant=token,
                       cg_variant="v2")
    assert (cfg.transformer, cfg.discrete_head) == (transformer, discrete_head)
    assert ("logits/W" in param_shapes(cfg)) == discrete_head
    # message passing reads control graph v1, whatever the config says
    assert cfg.cg_variant == replace(cfg, cg_variant="v2").cg_variant == \
        ("v1" if arch == "gnn" else "v2")


def test_parameter_count_closed_form():
    F, E, H, L, A, N = 30, 32, 2, 1, 64, 24
    cfg = PolicyConfig(arch="transformer", feature_width=F, embed=E, heads=H,
                       layers=L, attn_hidden=A, max_nodes=N)
    params = init_params("transformer", cfg, 0)
    expected = (
        F * E + E            # embed
        + N * E              # position table
        + L * (
            4 * E * E + 3 * E  # attention projections, no key bias
            + 2 * E          # ln1
            + E * A + A + A * E + E  # ffn
            + 2 * E          # ln2
        )
        + (E + F) * 3 + 3    # decode head
    )
    assert parameter_count(params) == expected


# --- mlp -------------------------------------------------------------------

def test_mlp_zero_weights_zero_output():
    cg = sample_cg(variant="v1")
    cfg = PolicyConfig(arch="mlp", feature_width=cg.width, mlp_hidden=8,
                       max_nodes=12, max_action=16)
    params = init_params("mlp", cfg, 0)
    for t in params.tensors.values():
        t.data[:] = 0.0
    np.testing.assert_array_equal(cg_actions(params, cg), 0.0)


def test_mlp_outputs_in_open_interval():
    cg = sample_cg(variant="v1")
    cfg = PolicyConfig(arch="mlp", feature_width=cg.width, mlp_hidden=8,
                       max_nodes=12, max_action=16)
    params = init_params("mlp", cfg, 1)
    out = cg_actions(params, cg)
    assert out.shape == (len(cg.actuator_map),)
    assert np.all(np.abs(out) < 1.0)


def test_mlp_hand_computed_two_layers():
    cfg = PolicyConfig(arch="mlp", feature_width=2, mlp_hidden=2,
                       mlp_layers=2, max_nodes=1, max_action=2)
    params = init_params("mlp", cfg, 0)
    params.tensors["fc0/W"].data[:] = [[1.0, 2.0], [3.0, -4.0]]
    params.tensors["fc0/b"].data[:] = [0.1, -0.2]
    params.tensors["fc1/W"].data[:] = [[0.5, -1.0], [2.0, 0.25]]
    params.tensors["fc1/b"].data[:] = [0.0, 0.3]
    params.tensors["out/W"].data[:] = [[1.0, -0.5], [0.2, 0.8]]
    params.tensors["out/b"].data[:] = [0.05, -0.05]
    x = np.array([[0.4, -0.3]])
    h0 = np.maximum(x @ params.tensors["fc0/W"].data + [0.1, -0.2], 0.0)
    h1 = np.maximum(h0 @ params.tensors["fc1/W"].data + [0.0, 0.3], 0.0)
    expected = np.tanh(h1 @ params.tensors["out/W"].data + [0.05, -0.05])
    got = mlp_vector(params, x)
    np.testing.assert_allclose(got.data, expected, atol=1e-12)


def test_mlp_rejects_wide_input():
    cg = sample_cg(variant="v1")
    cfg = PolicyConfig(arch="mlp", feature_width=cg.width, mlp_hidden=8,
                       max_nodes=3, max_action=16)
    with pytest.raises(ShapeError):
        policy_inputs(cg.node_features[None], cfg)


# --- gnn --------------------------------------------------------------------

def test_gnn_zero_weights_zero_output():
    cg = sample_cg(variant="v1")
    cfg = PolicyConfig(arch="gnn", feature_width=cg.width, gnn_hidden=8)
    params = init_params("gnn", cfg, 0)
    for t in params.tensors.values():
        t.data[:] = 0.0
    np.testing.assert_array_equal(cg_actions(params, cg), 0.0)


def test_gnn_round2_hand_computation():
    # 2-node chain, scalar features and hidden width 1
    cfg = PolicyConfig(arch="gnn", feature_width=1, gnn_hidden=1, gnn_layers=2)
    params = init_params("gnn", cfg, 0)
    ws0, wm0, b0 = 0.5, 0.25, 0.1
    ws1, wm1, b1 = -1.0, 2.0, 0.0
    params.tensors["round0/self/W"].data[:] = [[ws0]]
    params.tensors["round0/msg/W"].data[:] = [[wm0]]
    params.tensors["round0/b"].data[:] = [b0]
    params.tensors["round1/self/W"].data[:] = [[ws1]]
    params.tensors["round1/msg/W"].data[:] = [[wm1]]
    params.tensors["round1/b"].data[:] = [b1]
    x = np.array([[0.8], [-0.4]])
    adj = np.array([[0.0, 1.0], [1.0, 0.0]])
    h0 = np.maximum(x * ws0 + (adj @ x) * wm0 + b0, 0.0)
    h1 = np.maximum(h0 * ws1 + (adj @ h0) * wm1 + b1, 0.0)
    grid = gnn_grid(params, x[None], np.ones((1, 2, 3)), adj)
    wd = params.tensors["decode/W"].data
    bd = params.tensors["decode/b"].data
    np.testing.assert_allclose(grid.data[0], np.tanh(h1 @ wd + bd), atol=1e-12)


# --- transformer ---------------------------------------------------------------

def test_attention_rows_stochastic():
    cg = sample_cg()
    params = init_params("transformer", tf_config(cg), 3)
    _, attn = transformer_grid(params, cg.node_features[None], cg.action_mask[None])
    attn = attn[0]
    assert attn.shape == (2, 2, cg.n_nodes, cg.n_nodes)
    np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(attn >= 0.0)


def test_zero_decode_weights_zero_actions():
    cg = sample_cg()
    params = init_params("transformer", tf_config(cg), 3)
    params.tensors["decode/W"].data[:] = 0.0
    params.tensors["decode/b"].data[:] = 0.0
    np.testing.assert_array_equal(cg_actions(params, cg), 0.0)


def test_masked_positions_exactly_zero():
    cg = sample_cg()
    params = init_params("transformer", tf_config(cg), 3)
    grid, _ = transformer_grid(params, cg.node_features[None],
                               cg.action_mask[None])
    assert np.all(grid.data[0][cg.action_mask == 0.0] == 0.0)
    assert np.sum(cg.action_mask) == len(cg.actuator_map)


def test_permutation_equivariance_exact_without_pe():
    cg = sample_cg()
    params = init_params("transformer", tf_config(cg, use_pe=False), 5)
    feats = cg.node_features
    mask = cg.action_mask
    grid, attn = transformer_grid(params, feats[None], mask[None])
    rng = np.random.default_rng(0)
    for _ in range(5):
        sigma = rng.permutation(cg.n_nodes)
        grid_p, attn_p = transformer_grid(params, feats[sigma][None],
                                          mask[sigma][None])
        assert np.array_equal(grid_p.data[0], grid.data[0][sigma])
        assert np.array_equal(attn_p[0], attn[0][:, :, sigma][:, :, :, sigma])


def test_pe_breaks_equivariance():
    cg = sample_cg()
    params = init_params("transformer", tf_config(cg, use_pe=True), 5)
    feats, mask = cg.node_features, cg.action_mask
    grid, _ = transformer_grid(params, feats[None], mask[None])
    sigma = np.roll(np.arange(cg.n_nodes), 1)
    grid_p, _ = transformer_grid(params, feats[sigma][None], mask[sigma][None])
    assert not np.allclose(grid_p.data[0], grid.data[0][sigma])


def test_node_count_exceeding_pe_table():
    cg = sample_cg()
    params = init_params("transformer", tf_config(cg, max_nodes=4), 0)
    with pytest.raises(ShapeError):
        transformer_grid(params, cg.node_features[None], cg.action_mask[None])
    tok = init_params("transformer_tokenized",
                      tf_config(cg, max_nodes=4, token_variant="d", n_bins=16), 0)
    with pytest.raises(ShapeError):
        tokenized_logits(tok, cg.node_features[None], cg.action_mask[None])


def test_feature_width_mismatch_is_shape_error():
    cg = sample_cg()
    for arch, head in (("transformer", transformer_grid),
                       ("transformer_tokenized", tokenized_logits)):
        params = init_params(arch, tf_config(cg, feature_width=cg.width + 1,
                                             token_variant="d", n_bins=16), 0)
        with pytest.raises(ShapeError):
            head(params, cg.node_features[None], cg.action_mask[None])


def test_forward_independent_of_batch_composition():
    cg_a = sample_cg(seed=0)
    cg_b = sample_cg(seed=1)
    params = init_params("transformer", tf_config(cg_a), 9)
    solo, _ = transformer_grid(params, cg_a.node_features[None],
                               cg_a.action_mask[None])
    both, _ = transformer_grid(
        params,
        np.stack([cg_a.node_features, cg_b.node_features]),
        np.stack([cg_a.action_mask, cg_b.action_mask]))
    np.testing.assert_array_equal(solo.data[0], both.data[0])


@pytest.mark.parametrize("use_pe", [True, False])
@pytest.mark.parametrize("envs", [("ant_reach_3",), ("ant_reach_3", "ant_reach_5")])
def test_fused_blocks_equal_op_chain_bit_for_bit(monkeypatch, use_pe, envs):
    # one group keeps (B, n, E) with per-sample GEMMs, two are stacked rows
    groups = []
    for i, env_id in enumerate(envs):
        cgs = [sample_cg(env_id, seed=s) for s in range(3 + i)]
        groups.append((np.stack([cg.node_features for cg in cgs]),
                       np.stack([cg.action_mask for cg in cgs])))
    params = init_params("transformer", tf_config(cgs[0], use_pe=use_pe), 3)
    runs = []
    for block in (ad.transformer_block, block_reference):
        monkeypatch.setattr(ad, "transformer_block", block)
        params.zero_grad()
        head, batch = transformer_rows(params, groups)
        w = np.random.default_rng(1).normal(size=head.shape)
        ad.tsum(ad.mul(head, w)).backward()
        runs.append((head.data, batch.attn, [t.grad for t in params.tensors.values()]))
    (head, attn, grads), (head_r, attn_r, grads_r) = runs
    assert_same_bits(head, head_r)
    for layer, layer_r in zip(attn, attn_r):
        for a, a_r in zip(layer, layer_r):
            assert_same_bits(a, a_r)
    assert len(grads) == len(params.tensors) and all(g is not None for g in grads)
    for g, g_r in zip(grads, grads_r):
        assert_same_bits(g, g_r)


def _transformer_oracle(params, feats, mask):
    """Independent step-by-step reimplementation on plain numpy."""
    cfg = params.config
    t = {k: v.data for k, v in params.tensors.items()}
    eps = 1e-5

    def ln(x, gamma, beta):
        mu = x.mean(-1, keepdims=True)
        xc = x - mu
        var = (xc * xc).mean(-1, keepdims=True)
        return xc / np.sqrt(var + eps) * gamma + beta

    z = feats @ t["embed/W"] + t["embed/b"]
    if cfg.use_pe:
        z = z + t["pe"][:feats.shape[0]]
    n = feats.shape[0]
    H, E = cfg.heads, cfg.embed
    dk = E // H
    for layer in range(cfg.layers):
        p = f"layer{layer}"
        q = z @ t[f"{p}/attn/Wq"] + t[f"{p}/attn/bq"]
        k = z @ t[f"{p}/attn/Wk"]
        v = z @ t[f"{p}/attn/Wv"] + t[f"{p}/attn/bv"]
        mixed = np.zeros((n, E))
        for h in range(H):
            sl = slice(h * dk, (h + 1) * dk)
            scores = q[:, sl] @ k[:, sl].T / math.sqrt(dk)
            e = np.exp(scores - scores.max(-1, keepdims=True))
            att = e / e.sum(-1, keepdims=True)
            mixed[:, sl] = att @ v[:, sl]
        z = ln(mixed @ t[f"{p}/attn/Wo"] + t[f"{p}/attn/bo"] + z,
               t[f"{p}/ln1/gamma"], t[f"{p}/ln1/beta"])
        f = np.maximum(z @ t[f"{p}/ffn/W1"] + t[f"{p}/ffn/b1"], 0.0)
        f = f @ t[f"{p}/ffn/W2"] + t[f"{p}/ffn/b2"]
        z = ln(f + z, t[f"{p}/ln2/gamma"], t[f"{p}/ln2/beta"])
    dec = np.concatenate([z, feats], axis=-1)
    return np.tanh(dec @ t["decode/W"] + t["decode/b"]) * mask


def test_tiny_transformer_matches_oracle():
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(2, 3))
    mask = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    cfg = PolicyConfig(arch="transformer", feature_width=3, embed=2,
                       attn_hidden=2, heads=1, layers=1, max_nodes=4,
                       use_pe=True)
    params = init_params("transformer", cfg, 11)
    for t in params.tensors.values():
        t.data[:] = rng.normal(size=t.data.shape) * 0.7
    grid, _ = transformer_grid(params, feats[None], mask[None])
    np.testing.assert_allclose(grid.data[0],
                               _transformer_oracle(params, feats, mask),
                               atol=1e-10)


def test_bigger_transformer_matches_oracle():
    cg = sample_cg()
    cfg = tf_config(cg, use_pe=True)
    params = init_params("transformer", cfg, 13)
    grid, _ = transformer_grid(params, cg.node_features[None],
                               cg.action_mask[None])
    np.testing.assert_allclose(
        grid.data[0],
        _transformer_oracle(params, cg.node_features, cg.action_mask),
        atol=1e-10)


# --- gradients ----------------------------------------------------------------

def directional_grad_check(params, loss_fn, n_dirs=10, eps=1e-5, rtol=1e-4,
                           seed=0):
    """Analytic directional derivatives vs central finite differences."""
    params.zero_grad()
    loss = loss_fn(params)
    loss.backward()
    grads = {k: (t.grad if t.grad is not None else np.zeros_like(t.data))
             for k, t in params.tensors.items()}
    rng = np.random.default_rng(seed)
    base = {k: t.data.copy() for k, t in params.tensors.items()}
    for _ in range(n_dirs):
        direction = {k: rng.normal(size=v.shape) for k, v in base.items()}
        norm = math.sqrt(sum((d ** 2).sum() for d in direction.values()))
        direction = {k: d / norm for k, d in direction.items()}
        analytic = sum((grads[k] * direction[k]).sum() for k in base)
        for k, t in params.tensors.items():
            t.data = base[k] + eps * direction[k]
        up = loss_fn(params).data.item()
        for k, t in params.tensors.items():
            t.data = base[k] - eps * direction[k]
        down = loss_fn(params).data.item()
        for k, t in params.tensors.items():
            t.data = base[k]
        numeric = (up - down) / (2 * eps)
        scale = max(abs(numeric), abs(analytic), 1e-8)
        assert abs(numeric - analytic) / scale < rtol, (
            f"directional derivative mismatch: {analytic} vs {numeric}")


def test_transformer_gradcheck():
    cg = sample_cg()
    params = init_params("transformer", tf_config(cg, embed=8, attn_hidden=8,
                                                  layers=1), 2)
    target = np.random.default_rng(3).uniform(-1, 1, cg.action_mask.shape)

    def loss_fn(p):
        grid, _ = transformer_grid(p, cg.node_features[None], cg.action_mask[None])
        diff = ad.sub(grid, target[None] * cg.action_mask[None])
        return ad.mul(ad.tsum(ad.mul(ad.mul(diff, diff), cg.action_mask[None])),
                      1.0 / diff.data.size)

    directional_grad_check(params, loss_fn)


def test_gnn_gradcheck():
    cg = sample_cg(variant="v1")
    cfg = PolicyConfig(arch="gnn", feature_width=cg.width, gnn_hidden=6,
                       gnn_layers=2)
    params = init_params("gnn", cfg, 2)
    adj = adjacency(cg.edges, cg.n_nodes)
    target = np.random.default_rng(3).uniform(-1, 1, cg.action_mask.shape)

    def loss_fn(p):
        grid = gnn_grid(p, cg.node_features[None], cg.action_mask[None], adj)
        diff = ad.sub(grid, target[None] * cg.action_mask[None])
        return ad.mul(ad.tsum(ad.mul(ad.mul(diff, diff), cg.action_mask[None])),
                      1.0 / diff.data.size)

    directional_grad_check(params, loss_fn)


def test_mlp_gradcheck():
    cg = sample_cg(variant="v1")
    cfg = PolicyConfig(arch="mlp", feature_width=cg.width, mlp_hidden=6,
                       max_nodes=12, max_action=16)
    params = init_params("mlp", cfg, 2)
    flat = flatten_features(cg.node_features, cfg.max_nodes)[None]
    target = np.random.default_rng(3).uniform(-1, 1, (1, cfg.max_action))

    def loss_fn(p):
        vec = mlp_vector(p, flat)
        diff = ad.sub(vec, target)
        return ad.mul(ad.tsum(ad.mul(diff, diff)), 1.0 / diff.data.size)

    directional_grad_check(params, loss_fn)


def test_constant_loss_zero_grads():
    cg = sample_cg()
    params = init_params("transformer", tf_config(cg, embed=8, layers=1), 2)
    params.zero_grad()
    loss = ad.mul(ad.tsum(ad.Tensor(np.zeros(1))), 1.0)
    loss.backward()
    for t in params.tensors.values():
        assert t.grad is None


def test_masked_outputs_give_zero_head_gradient():
    cg = sample_cg()
    params = init_params("transformer", tf_config(cg, embed=8, layers=1), 2)
    params.zero_grad()
    inverse = 1.0 - cg.action_mask

    def loss_fn(p):
        grid, _ = transformer_grid(p, cg.node_features[None], cg.action_mask[None])
        return ad.tsum(ad.mul(grid, inverse[None]))

    loss_fn(params).backward()
    np.testing.assert_array_equal(params.tensors["decode/W"].grad, 0.0)
    np.testing.assert_array_equal(params.tensors["decode/b"].grad, 0.0)


# --- tokenized heads ---------------------------------------------------------------

def test_tokenized_c_equals_transformer_on_detokenized():
    cg = sample_cg()
    cfg = tf_config(cg)
    params = init_params("transformer", cfg, 6)
    tok_params = init_params(
        "transformer_tokenized",
        PolicyConfig(**{**cfg.__dict__, "arch": "transformer_tokenized",
                        "token_variant": "c"}), 6)
    for k in params.tensors:
        tok_params.tensors[k].data[:] = params.tensors[k].data
    actions_tok = cg_actions(tok_params, cg)
    detok = detokenize(tokenize_features(cg.node_features), "center")
    grid_ref, _ = transformer_grid(params, detok[None], cg.action_mask[None])
    actions_ref = grid_ref.data[0][cg.actuator_index]
    np.testing.assert_allclose(actions_tok, actions_ref, atol=1e-9)


def test_tokenized_d_outputs_bin_center_images():
    from morphtask.control_graph import mu_law_inverse, dequantize, quantize
    cg = sample_cg()
    cfg = PolicyConfig(**{**tf_config(cg).__dict__,
                          "arch": "transformer_tokenized", "token_variant": "d"})
    params = init_params("transformer_tokenized", cfg, 6)
    actions = cg_actions(params, cg)
    centers = mu_law_inverse(dequantize(np.arange(1024), "center"))
    for a in actions:
        assert np.min(np.abs(centers - a)) < 1e-12


def test_tokenized_da_interior_bins_match_centers():
    from morphtask.control_graph import dequantize
    interior = np.arange(1, 1023)
    np.testing.assert_allclose(dequantize(interior, "average_window"),
                               dequantize(interior, "center"), atol=1e-15)


def test_tokenized_rejects_out_of_range():
    cg = sample_cg()
    cfg = PolicyConfig(**{**tf_config(cg).__dict__,
                          "arch": "transformer_tokenized", "token_variant": "c"})
    params = init_params("transformer_tokenized", cfg, 6)
    bad = tokenize_features(cg.node_features)
    bad[0, 0] = 1024
    with pytest.raises(IndexError):
        batch_grids(params, detokenize(bad, "center")[None], cg.action_mask[None])


def test_tokenized_inputs_reject_non_finite_features():
    cg = sample_cg()
    cfg = PolicyConfig(**{**tf_config(cg).__dict__,
                          "arch": "transformer_tokenized", "token_variant": "d"})
    feats = cg.node_features.copy()
    feats[0, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        policy_inputs(feats[None], cfg)


# --- dispatch ---------------------------------------------------------------------

def test_policy_action_shapes():
    cg2 = sample_cg(variant="v2")
    cg1 = sample_cg(variant="v1")
    n_act = len(cg2.actuator_map)
    for arch, cg in [("transformer", cg2), ("gnn", cg1)]:
        cfg = PolicyConfig(arch=arch, feature_width=cg.width, embed=16,
                           attn_hidden=16, heads=2, layers=1, gnn_hidden=8,
                           max_nodes=24)
        params = init_params(arch, cfg, 0)
        out = cg_actions(params, cg)
        assert out.shape == (n_act,)
        assert np.all(np.abs(out) <= 1.0)


def test_no_grad_forward_equals_grad_mode_bit_for_bit():
    cg_a, cg_b = sample_cg(seed=0), sample_cg(seed=1)
    feats = np.stack([cg_a.node_features, cg_b.node_features])
    mask = np.stack([cg_a.action_mask, cg_b.action_mask])
    for arch, extra in (("transformer", {}),
                        ("transformer_tokenized", dict(token_variant="d", n_bins=16))):
        params = init_params(arch, tf_config(cg_a, **extra), 4)
        head = transformer_grid if arch == "transformer" else tokenized_logits
        out, attn = head(params, feats, mask)
        assert out._parents
        with ad.no_grad():
            out_ng, attn_ng = head(params, feats, mask)
        np.testing.assert_array_equal(out_ng.data, out.data)
        np.testing.assert_array_equal(attn_ng, attn)
        assert out_ng._parents == () and not out_ng.requires_grad
