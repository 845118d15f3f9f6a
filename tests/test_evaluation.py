import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morphtask.artifacts import seal
from morphtask.distill import CorruptionError, build_cg, cg_feature_width, goal_nodes
from morphtask.control_graph import (build_observation_spec, detokenize, graph_features,
                                     tokenize_features)
from morphtask.env import local_observations, make_env, reset, step
from morphtask import env as menv
from morphtask.evaluation import (
    MetricResult,
    OrderingError,
    SplitConfigError,
    Trajectory,
    attention_report,
    evaluate_policy,
    metric_report_csv,
    normalized_final_distance,
    percentage_improvement,
    read_tensor_table,
    rollout,
    rollout_batch,
    split_environments,
    subdomain_of,
    write_attention_export,
)
from morphtask.nn.policies import (
    PolicyConfig,
    ShapeError,
    UnsupportedVariantError,
    action_index,
    adjacency,
    batch_grids,
    init_params,
    policy_inputs,
    transformer_grid,
)
from morphtask.nn.autodiff import no_grad

from test_distill import stack_history, tokenized_logits

OBS = build_observation_spec(["p", "v", "q", "a", "ja", "jr", "m"])


def tf_params(seed=0, **kw):
    width = cg_feature_width(OBS, kw.get("cg_variant", "v2"),
                             kw.get("history", 1))
    defaults = dict(arch="transformer", feature_width=width, embed=16,
                    attn_hidden=16, heads=2, layers=1, max_nodes=24)
    defaults.update(kw)
    return init_params(defaults["arch"], PolicyConfig(**defaults), seed)


# --- rollouts ---------------------------------------------------------------

def test_zero_policy_constant_distances():
    spec = make_env("ant_reach_2")
    params = tf_params()
    params.tensors["decode/W"].data[:] = 0.0
    params.tensors["decode/b"].data[:] = 0.0
    traj = rollout(params, spec, seed=0, T=20)
    assert np.all(traj.actions == 0.0)
    assert np.allclose(traj.distances, traj.distances[0])
    n = spec.graph.n_nodes + 1
    assert traj.inputs.shape == (20, n, params.config.feature_width)
    assert traj.template.n_nodes == n


def test_rollout_deterministic():
    spec = make_env("ant_reach_2")
    params = tf_params(3)
    a = rollout(params, spec, seed=5, T=30)
    b = rollout(params, spec, seed=5, T=30)
    np.testing.assert_array_equal(a.actions, b.actions)
    np.testing.assert_array_equal(a.distances, b.distances)


def test_rollout_batch_matches_sequential():
    spec = make_env("ant_reach_2")
    params = tf_params(3)
    batch = rollout_batch(params, spec, [0, 1, 2], T=15)
    for i, seed in enumerate([0, 1, 2]):
        solo = rollout(params, spec, seed=seed, T=15)
        np.testing.assert_array_equal(batch[i].actions, solo.actions)


def test_rollout_respects_horizon():
    spec = make_env("ant_reach_2")
    params = tf_params(3)
    traj = rollout(params, spec, seed=0, T=7)
    assert traj.actions.shape == (7, spec.graph.action_dimension())
    long = rollout(params, spec, seed=0, T=10 ** 6)
    assert long.actions.shape[0] == spec.task.episode_length


def test_rollout_history_policy():
    spec = make_env("ant_reach_2")
    params = tf_params(3, history=3)
    traj = rollout(params, spec, seed=0, T=5)
    assert traj.actions.shape == (5, spec.graph.action_dimension())


def test_rollout_batch_history_equals_per_step_oracle():
    # one control graph per seed and step, history stacked frame by frame
    spec = make_env("ant_reach_3")
    params = tf_params(4, history=3)
    seeds = [0, 1, 2]
    trajs = rollout_batch(params, spec, seeds, T=6)
    for traj, seed in zip(trajs, seeds):
        state = reset(spec, seed)
        goals = np.concatenate(state.goals)
        frames = []
        for t in range(6):
            cg = build_cg(spec, local_observations(state, OBS), goals, "v2")
            frames = (frames + [cg])[-3:]
            cg = stack_history(frames, 3)
            grid, _ = transformer_grid(params, cg.node_features[None],
                                       cg.action_mask[None])
            action = np.array([grid.data[0, node, slot]
                               for node, slot in cg.actuator_map])
            np.testing.assert_array_equal(traj.actions[t], action)
            state = step(state, action)
            np.testing.assert_array_equal(traj.distances[t],
                                          [menv.goal_distance(state, 0)])


def _per_seed_rollouts(params, spec, seeds, T=None, keep_inputs=False):
    """The rollout loop before lockstep env steps, kept as rollout_batch's
    oracle: the policy runs batched, but every seed has its own EnvState,
    and reset, local_observations, step and goal_terms run per seed.
    Each seed's template is its own step-0 control graph."""
    horizon = spec.task.episode_length if T is None else min(T, spec.task.episode_length)
    cfg = params.config
    obs_spec = build_observation_spec(cfg.obs_flags)
    variant = "v1" if params.arch == "gnn" else cfg.cg_variant
    states = [reset(spec, s) for s in seeds]
    B = len(states)
    goals = np.stack([np.concatenate(st.goals) if st.goals else np.zeros(0)
                      for st in states])
    templates = [build_cg(spec, local_observations(st, obs_spec), g, variant)
                 for st, g in zip(states, goals)]
    template = templates[0]
    index = action_index(cfg, template)
    mask = np.broadcast_to(template.action_mask, (B,) + template.action_mask.shape)
    adj = adjacency(template.edges, template.n_nodes) if params.arch == "gnn" else None
    nodes = goal_nodes(spec)
    w = template.width
    window = np.zeros((B, template.n_nodes, w * cfg.history))
    actions, distances, inputs = [], [], []
    for _ in range(horizon):
        obs = np.stack([local_observations(st, obs_spec) for st in states])
        frame = graph_features(obs, goals.reshape(B, -1, 3), nodes, variant)
        window = np.concatenate([window[:, :, w:], frame], axis=-1)
        x = policy_inputs(window, cfg)
        if keep_inputs:
            inputs.append(x)
        with no_grad():
            acts = batch_grids(params, x, mask, adj)[index]
        states = [step(st, act) for st, act in zip(states, acts)]
        actions.append(acts)
        distances.append([[d for d, _, _ in menv.goal_terms(st)] for st in states])
    return [Trajectory(env_id=spec.env_id, seed=s,
                       actions=np.array([a[i] for a in actions]),
                       distances=np.array([d[i] for d in distances]),
                       inputs=np.array([x[i] for x in inputs]) if keep_inputs else None,
                       template=templates[i] if keep_inputs else None)
            for i, s in enumerate(seeds)]


@pytest.mark.parametrize("policy", [
    dict(),
    dict(arch="transformer_tokenized", token_variant="c", n_bins=64),
    dict(arch="transformer_tokenized", token_variant="d", n_bins=64),
    dict(arch="gnn", cg_variant="v1", gnn_hidden=8, gnn_layers=2),
    dict(arch="mlp", mlp_hidden=16, max_action=24),
    dict(history=3),
], ids=["transformer", "tokenized_c", "tokenized_d", "gnn", "mlp", "history_3"])
def test_rollout_batch_equals_per_seed_oracle(policy):
    params = tf_params(2, layers=2, **policy)
    seeds = [0, 1, 5, 2**40]
    for env_id in ("ant_push_3", "worm_touch_2", "ant_reach_handsup_3"):
        spec = make_env(env_id)
        got = rollout_batch(params, spec, seeds, T=30, keep_inputs=True)
        for traj, ref in zip(got, _per_seed_rollouts(params, spec, seeds, T=30,
                                                     keep_inputs=True)):
            assert traj.seed == ref.seed
            for name in ("actions", "distances", "inputs", "final_distances"):
                x, y = getattr(traj, name), getattr(ref, name)
                assert x.shape == y.shape and x.tobytes() == y.tobytes(), (env_id, name)
            for name, value in vars(ref.template).items():
                other = getattr(traj.template, name)
                assert np.array_equal(other, value) if isinstance(value, np.ndarray) \
                    else other == value, (env_id, name)


def test_rollout_observes_each_step_once_and_lays_out_once(monkeypatch):
    from morphtask import evaluation
    calls = []
    for name in ("local_observations", "control_graph"):
        real = getattr(evaluation, name)
        monkeypatch.setattr(evaluation, name, lambda *a, real=real, name=name:
                            calls.append(name) or real(*a))
    rollout_batch(tf_params(3), make_env("ant_reach_2"), [0, 1, 2], T=7)
    assert calls.count("local_observations") == 7
    assert calls.count("control_graph") == 1


def test_rollout_batch_without_seeds_or_steps_as_per_seed_oracle():
    params = tf_params(3)
    spec = make_env("ant_reach_2")
    for roll in (rollout_batch, _per_seed_rollouts):
        with pytest.raises(ValueError):
            roll(params, spec, [], T=5)
        for traj in roll(params, spec, [0, 1], T=0):
            assert traj.actions.shape == traj.distances.shape == (0,)
            assert traj.final_distances is None


def test_mlp_head_narrower_than_actions_is_shape_error_in_rollouts():
    spec = make_env("ant_reach_6")
    width = cg_feature_width(OBS, "v2")
    params = init_params("mlp", PolicyConfig(arch="mlp", feature_width=width,
                                             mlp_hidden=8, max_nodes=24,
                                             max_action=8), 0)
    with pytest.raises(ShapeError, match="action dimension 12 .*max_action=8"):
        rollout_batch(params, spec, [0, 1], T=3)


def test_expert_style_policy_reaches_goal():
    # scripted expert run through the trajectory plumbing
    from morphtask.env import goal_distance, reset, scripted_expert, step
    spec = make_env("ant_reach_3")
    state = reset(spec, 11)
    for _ in range(spec.task.episode_length):
        state = step(state, scripted_expert(state))
        if goal_distance(state, 0) <= spec.task.d_min[0]:
            break
    assert goal_distance(state, 0) <= spec.task.d_min[0]


# --- metric -----------------------------------------------------------------

def test_metric_endpoints():
    groups = [("ant_reach_2", np.full((4, 1), 0.1), (0.1,), (8.75,))]
    assert normalized_final_distance(groups).aggregate == 0.0
    groups = [("ant_reach_2", np.full((4, 1), 8.75), (0.1,), (8.75,))]
    assert normalized_final_distance(groups).aggregate == 1.0


def test_metric_reference_bounds_midpoint():
    # one env, one goal, d_T = 4.425 with the ant_reach bounds -> exactly 0.5
    groups = [("ant_reach_2", np.full((1, 1), 4.425), (0.1,), (8.75,))]
    assert normalized_final_distance(groups).aggregate == 0.5


def brute_force_metric(groups):
    total = 0.0
    for _, finals, d_min, d_max in groups:
        env_sum = 0.0
        for s in range(finals.shape[0]):
            for g in range(finals.shape[1]):
                env_sum += (finals[s, g] - d_min[g]) / (d_max[g] - d_min[g])
        total += env_sum / finals.shape[0]
    return total / len(groups)


def test_metric_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    groups = []
    for e in range(3):
        G = e + 1
        finals = rng.uniform(0.2, 3.0, size=(8, G))
        d_min = tuple(rng.uniform(0.01, 0.1, size=G))
        d_max = tuple(rng.uniform(2.0, 9.0, size=G))
        groups.append((f"ant_reach_{e + 2}", finals, d_min, d_max))
    result = normalized_final_distance(groups)
    assert abs(result.aggregate - brute_force_metric(groups)) <= 1e-12


def test_report_rows_are_plain_floats_of_the_metric():
    # bounds of the group's own, not those make_env gives the env id
    finals = np.array([[0.5, 0.3], [0.9, 0.25]])
    groups = [("ant_reach_3", finals, (0.2, 0.1), (0.9, 0.4)),
              ("ant_reach_5", np.array([[0.35], [0.4]]), (0.01,), (0.8,))]
    result = normalized_final_distance(groups)
    rows = [line.split(",") for line in metric_report_csv(result, [7, 8]).splitlines()
            if line and not line.startswith(("#", "env_id"))]
    assert len(rows) == 6
    for env_id, g, seed, final, norm in rows:
        si, g = [7, 8].index(int(seed)), int(g)
        assert float(final) == result.raw_finals[env_id][si, g]
        assert float(norm) == result.normalized[env_id][si, g]
    assert float(rows[0][4]) == (0.5 - 0.2) / (0.9 - 0.2)
    assert result.per_env["ant_reach_3"] == \
        float(result.normalized["ant_reach_3"].sum(axis=1).mean())


def test_metric_rejects_bad_bounds():
    with pytest.raises(SplitConfigError):
        normalized_final_distance([("e", np.ones((1, 1)), (1.0,), (0.5,))])


# --- percentage improvement ---------------------------------------------------

def test_reference_improvement_numbers():
    assert percentage_improvement(0.3128, 0.4069) == pytest.approx(23.13, abs=0.01)
    assert percentage_improvement(0.4066, 0.4940) == pytest.approx(17.69, abs=0.01)


def test_improvement_scale_invariant():
    base = percentage_improvement(0.3, 0.4)
    for c in (0.1, 2.0, 17.0):
        assert percentage_improvement(0.3 * c, 0.4 * c) == pytest.approx(base)


def test_improvement_ordering_error():
    with pytest.raises(OrderingError):
        percentage_improvement(0.4, 0.4)
    with pytest.raises(OrderingError):
        percentage_improvement(0.5, 0.4)


# --- splits -----------------------------------------------------------------------

ANT_REACH = tuple(f"ant_reach_{k}" for k in range(2, 7))


def test_split_holdout_morphology():
    plan = split_environments(ANT_REACH, "compositional_morphology", holdout=[4])
    assert plan.test == ("ant_reach_4",)
    assert plan.train == ("ant_reach_2", "ant_reach_3", "ant_reach_5", "ant_reach_6")
    default = split_environments(ANT_REACH, "compositional_morphology")
    assert default.test == ("ant_reach_4",)


def test_split_in_distribution():
    plan = split_environments(ANT_REACH, "in_distribution")
    assert plan.test == ANT_REACH
    assert plan.train == ANT_REACH


def test_split_task_and_ood():
    universe = ANT_REACH + ("ant_reach_hard_3", "ant_reach_hard_4",
                            "ant_reach_hard_4_mass_0.5_1.0_3.0")
    plan = split_environments(universe, "compositional_task", holdout="reach_hard")
    assert set(plan.test) == {"ant_reach_hard_3", "ant_reach_hard_4",
                              "ant_reach_hard_4_mass_0.5_1.0_3.0"}
    ood = split_environments(universe, "out_of_distribution", holdout="reach_hard")
    assert ood.test == ("ant_reach_hard_4_mass_0.5_1.0_3.0",)
    assert all(parse_task not in ood.train for parse_task in ood.test)


def test_split_everything_held_out_is_error():
    with pytest.raises(SplitConfigError):
        split_environments(ANT_REACH, "compositional_morphology",
                           holdout=[2, 3, 4, 5, 6])


def test_split_deterministic_and_disjoint():
    universe = ANT_REACH + ("claw_reach_3", "claw_reach_4")
    a = split_environments(universe, "compositional_morphology")
    b = split_environments(universe, "compositional_morphology")
    assert a == b
    assert not set(a.train) & set(a.test)


def test_subdomain_names():
    assert subdomain_of("ant_reach_4") == "ant_reach"
    assert subdomain_of("claw_reach_hard_5_mass_0.5_1.0_3.0") == "claw_reach_hard"


# --- attention ------------------------------------------------------------------------

def test_attention_report_shapes_and_mass(tmp_path):
    spec = make_env("ant_reach_2")
    params = tf_params(1, layers=2)
    traj = rollout(params, spec, seed=0, T=4)
    attn, mass = attention_report(params, traj)
    n = spec.graph.n_nodes + 1
    assert attn.shape == (4, 2, 2, n, n)
    np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-12)
    assert mass.shape == (4,)
    assert np.all((mass >= 0.0) & (mass <= 1.0))
    path = tmp_path / "attn.cgat"
    write_attention_export(path, params, attn, mass)
    table = read_tensor_table(path)
    assert len(table) == 4 * 2 * 2 + 1
    np.testing.assert_array_equal(table["attn/0/1/0"], attn[0, 1, 0])


def _attention_export(tmp_path) -> bytes:
    params = tf_params(1, embed=4, attn_hidden=4, layers=1)
    attn = np.random.default_rng(0).uniform(size=(2, 1, 2, 3, 3))
    path = tmp_path / "a.cgat"
    write_attention_export(path, params, attn, np.array([0.25, 0.5]))
    return path.read_bytes()


def test_attention_export_version_and_trailing_bytes_checked(tmp_path):
    raw = _attention_export(tmp_path)
    path = tmp_path / "bad.cgat"
    v99 = bytearray(raw[:-4])
    v99[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(seal(bytes(v99)))
    with pytest.raises(CorruptionError, match="version 99"):
        read_tensor_table(path)
    path.write_bytes(seal(raw[:-4] + b"\0"))
    with pytest.raises(CorruptionError, match="trailing"):
        read_tensor_table(path)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_damaged_attention_export_raises_only_corruption(tmp_path_factory, data):
    root = tmp_path_factory.mktemp("fuzz")
    raw = _attention_export(root)
    if data.draw(st.booleans()):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    else:
        bit = data.draw(st.integers(0, 8 * len(raw) - 1))
        raw = bytearray(raw)
        raw[bit // 8] ^= 1 << (bit % 8)
    path = root / "d.cgat"
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptionError):
        read_tensor_table(path)


@pytest.mark.parametrize("variant", ["c", "d", "da"])
def test_tokenized_attention_report_replays_the_policy_maps(variant):
    # the maps the policy used are those of the tokenized and detokenized
    # features it consumed, replayed here step by step from the env
    spec = make_env("ant_reach_2")
    params = tf_params(1, arch="transformer_tokenized", token_variant=variant,
                       n_bins=64, layers=2)
    traj = rollout(params, spec, seed=0, T=4)
    attn, _ = attention_report(params, traj)
    state = reset(spec, 0)
    for t in range(4):
        cg = build_cg(spec, local_observations(state, OBS),
                      np.concatenate(state.goals), "v2")
        feats = detokenize(tokenize_features(cg.node_features, 64), "center", 64)
        grid = batch_grids(params, feats[None], cg.action_mask[None])
        head = transformer_grid if variant == "c" else tokenized_logits
        _, expect = head(params, feats[None], cg.action_mask[None])
        action = np.array([grid[0, node, slot] for node, slot in cg.actuator_map])
        np.testing.assert_array_equal(traj.actions[t], action)
        np.testing.assert_array_equal(attn[t], expect[0])
        state = step(state, action)


def test_attention_v1_has_no_goal_mass():
    spec = make_env("ant_reach_2")
    params = tf_params(1, cg_variant="v1")
    traj = rollout(params, spec, seed=0, T=3)
    attn, mass = attention_report(params, traj)
    assert mass is None
    assert attn.shape[3] == spec.graph.n_nodes


def test_attention_rejects_mlp():
    params = init_params("mlp", PolicyConfig(arch="mlp", feature_width=10,
                                             mlp_hidden=4, max_nodes=4,
                                             max_action=4), 0)
    with pytest.raises(UnsupportedVariantError):
        attention_report(params, Trajectory("x", 0, np.zeros((1, 1)),
                                            np.zeros((1, 1))))


# --- end-to-end metric over policies -----------------------------------------------

def test_evaluate_policy_and_report():
    params = tf_params(2)
    result = evaluate_policy(params, ["ant_reach_2"], seeds=[0, 1, 2], T=10)
    assert "ant_reach_2" in result.per_env
    assert result.episodes == 3
    csv = metric_report_csv(result, [0, 1, 2])
    lines = csv.strip().splitlines()
    assert lines[0] == "env_id,goal_index,seed,final_distance,normalized"
    assert sum(1 for ln in lines if not ln.startswith("#")) == 1 + 3
    assert any("aggregate_env_mean" in ln for ln in lines)
    assert any("aggregate_subdomain_mean" in ln for ln in lines)


@pytest.mark.parametrize("T", [0, -3])
def test_evaluate_policy_without_steps_is_value_error_naming_horizon(T):
    with pytest.raises(ValueError, match=f"horizon T must be >= 1 step, got {T}"):
        evaluate_policy(tf_params(2), ["ant_reach_2"], seeds=[0], T=T)
