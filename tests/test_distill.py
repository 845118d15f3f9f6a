import dataclasses
import json
import re
import struct
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morphtask import artifacts, distill
from morphtask import env as menv
from morphtask.artifacts import seal
from morphtask.control_graph import (
    FLAG_ORDER,
    ControlGraph,
    build_observation_spec,
    detokenize,
    tokenize_features,
)
from morphtask.distill import (
    CorruptionError,
    DataQualityError,
    TrainConfig,
    TransitionDataset,
    adam_init,
    adam_step,
    bc_loss,
    checkpoint_bytes,
    clip_global_norm,
    dataset_bytes,
    loss_from_groups,
    generate_dataset,
    load_checkpoint,
    prepare_training_data,
    read_dataset,
    save_checkpoint,
    train,
    write_dataset,
)
from morphtask.env import make_env
from morphtask.nn import autodiff as ad
from morphtask.nn.policies import (
    ConfigError,
    PolicyConfig,
    ShapeError,
    adjacency,
    flatten_features,
    init_params,
    tokenize_actions,
    transformer_grid,
)
from morphtask.nn import policies

from test_env import reference_expert, slot
from test_morphology import with_node_field


def tokenized_logits(params, feats, mask):
    """Per-slot bin logits (B, n, 3, n_bins) of the discretized heads, plus
    attention, both in the caller's node order: transformer_grid with the
    logits head, the oracle of the tokenized training and rollout paths."""
    dec, batch = policies._canonical_forward(params, [(feats, mask)])
    return batch.caller_order(policies._logits_head(params, dec)), batch.caller_attn()


def stack_history(cg_sequence, history_depth: int | None = None) -> ControlGraph:
    """Concatenate the last H frames per node, newest rightmost: the
    frame-by-frame oracle of history stacking.

    Frames missing at episode start are zero-filled on the left.  Masks and
    indicators are taken from the newest frame.
    """
    frames = list(cg_sequence)
    if not frames:
        raise ValueError("need at least one frame")
    H = history_depth if history_depth is not None else len(frames)
    if H < 1 or len(frames) > H:
        raise ValueError(f"got {len(frames)} frames for history depth {H}")
    newest = frames[-1]
    for f in frames:
        if f.node_features.shape != newest.node_features.shape:
            raise ValueError("history frames disagree on feature shape")
    n, w = newest.node_features.shape
    feats = np.zeros((n, w * H), dtype=np.float64)
    pad = H - len(frames)
    for i, f in enumerate(frames):
        col = (pad + i) * w
        feats[:, col: col + w] = f.node_features
    return dataclasses.replace(newest, node_features=feats)


def clone(params):
    """A copy of params whose tensors train can update without touching the
    original's."""
    return policies.PolicyParams(params.arch, params.config, {
        k: ad.parameter(v.data.copy()) for k, v in params.tensors.items()})


def policy_grads(params, batch, loss_fn) -> dict[str, np.ndarray]:
    """Exact reverse-mode gradients of loss_fn(params, batch) per tensor."""
    params.zero_grad()
    loss_fn(params, batch).backward()
    return {name: (t.grad if t.grad is not None else np.zeros_like(t.data))
            for name, t in params.tensors.items()}


OBS = build_observation_spec(["p", "v", "q", "a", "ja", "jr", "m"])


def small_dataset(envs=("ant_reach_2",), n=60, seed=0):
    specs = [make_env(e) for e in envs]
    return generate_dataset(specs, expert_gain=1.0, n_transitions=n, seed=seed,
                            obs_spec=OBS)


def tf_params(width, seed=0, **kw):
    defaults = dict(arch="transformer", feature_width=width, embed=16,
                    attn_hidden=16, heads=2, layers=1, max_nodes=24)
    defaults.update(kw)
    return init_params(defaults["arch"], PolicyConfig(**defaults), seed)


# --- dataset generation -----------------------------------------------------

def test_exact_transition_count():
    ds, reports = small_dataset(n=100)
    assert ds.environments[0].env_id == "ant_reach_2"
    assert len(ds.environments[0].actions) == 100
    assert reports[0].transitions == 100
    assert reports[0].success_rate >= 0.5


def test_same_seed_identical_bytes():
    a, _ = small_dataset(n=80, seed=5)
    b, _ = small_dataset(n=80, seed=5)
    assert dataset_bytes(a) == dataset_bytes(b)
    c, _ = small_dataset(n=80, seed=6)
    assert dataset_bytes(a) != dataset_bytes(c)


def test_default_transitions_constant():
    assert distill.DEFAULT_TRANSITIONS == 12_000


def test_dataset_round_trip(tmp_path):
    ds, _ = small_dataset(n=50)
    path = tmp_path / "d.cgds"
    write_dataset(ds, path)
    back = read_dataset(path)
    assert dataset_bytes(back) == dataset_bytes(ds)
    write_dataset(back, tmp_path / "d2.cgds")
    assert (tmp_path / "d.cgds").read_bytes() == (tmp_path / "d2.cgds").read_bytes()
    env = back.environments[0]
    assert env.obs_spec == OBS
    assert env.features[0].shape[1] == OBS.width


def test_observations_built_once_where_features_are_read(tmp_path, monkeypatch):
    # neither the generator nor the reader builds observations; a dataset
    # builds them on its first .features, and training at other flags rebuilds
    calls = []
    build = distill._observations
    monkeypatch.setattr(distill, "_observations",
                        lambda *args: calls.append(args[-1]) or build(*args))
    ds, _ = small_dataset(envs=("ant_reach_2", "worm_touch_2"), n=30)
    write_dataset(ds, tmp_path / "d.cgds")
    back = read_dataset(tmp_path / "d.cgds")
    assert calls == []
    for made, read in zip(ds.environments, back.environments):
        first = read.features
        assert calls == [OBS]
        assert read.features is first and calls == [OBS]
        assert first.tobytes() == made.features.tobytes()
        calls.clear()
    prepare_training_data(back, PolicyConfig(
        arch="transformer", feature_width=distill.cg_feature_width(OBS, "v2"),
        obs_flags=OBS.flags))
    assert calls == []
    other = build_observation_spec(["p"])
    prepare_training_data(back, PolicyConfig(
        arch="transformer", feature_width=distill.cg_feature_width(other, "v2"),
        obs_flags=other.flags))
    assert calls == [other, other]


def _far_goal_spec():
    """ant_reach_2 with goals far outside the workspace: never satisfied."""
    spec = make_env("ant_reach_2")
    bad_goal = dataclasses.replace(spec.task.goals[0], r_lo=5.0, r_hi=6.0)
    return dataclasses.replace(spec, task=dataclasses.replace(spec.task, goals=(bad_goal,)))


def test_unreachable_task_raises_quality_error():
    with pytest.raises(DataQualityError, match="ant_reach_2"):
        generate_dataset([_far_goal_spec()], n_transitions=10, seed=0, obs_spec=OBS)


def test_dataset_quality_through_metric():
    _, reports = small_dataset(n=200)
    assert reports[0].mean_normalized_final <= 0.1


def _eager_generate(env_specs, n_transitions, seed, expert_gain=1.0, obs_spec=OBS):
    """Reference: the generator that rolls every attempt to its horizon (or
    hold tail) and builds observations (one local_observations call per
    state), expert actions and goal distances at every step, its actions
    from a fresh np.cross Jacobian per goal (test_env.reference_expert).  It stops an env's attempts once the keep
    rate cannot reach 50%, as the generator does, and raises its
    DataQualityError.  Returns the dataset, per env its observations, the
    reports, and per env whether its last stored episode was cut."""
    envs, observations, reports, cut = [], [], [], []
    for env_index, spec in enumerate(env_specs):
        task = spec.task
        attempts = kept = 0
        finals, rows = [], []
        max_attempts = 20 + 4 * (n_transitions // max(task.episode_length // 4, 1) + 1)
        while len(rows) < n_transitions and attempts < max_attempts:
            if 2 * (attempts - kept) > max_attempts:
                break
            state = menv.reset(spec, distill._episode_seed(seed, env_index, attempts))
            attempts += 1
            episode, satisfied_at = [], None
            goal_flat = np.concatenate(state.goals).astype(np.float32)
            for t in range(task.episode_length):
                obs = menv.local_observations(state, obs_spec)
                action = reference_expert(state, expert_gain)
                episode.append((state.joint_angles, obs.astype(np.float32),
                                action.astype(np.float32), goal_flat, kept))
                state = menv.step(state, action)
                done = all(menv.goal_distance(state, g) <= task.d_min[g]
                           for g in range(len(task.goals)))
                if done and satisfied_at is None:
                    satisfied_at = t
                if satisfied_at is not None and t >= satisfied_at + distill.HOLD_TAIL_STEPS:
                    break
            if satisfied_at is None:
                continue
            kept += 1
            finals.append(sum(
                (menv.goal_distance(state, g) - task.d_min[g])
                / (task.d_max[g] - task.d_min[g]) for g in range(len(task.goals))))
            room = n_transitions - len(rows)
            rows += episode[:room]
            last_cut = room < len(episode)
        rate = kept / attempts if attempts else 0.0
        if rate < 0.5:
            raise DataQualityError(f"scripted expert proficient on only {kept}/{attempts} "
                                   f"episodes for env {spec.env_id!r}")
        assert len(rows) == n_transitions
        cut.append(last_cut)
        morph_text, task_text = menv.serialize_env(spec)
        angles, feats, acts, goals, episodes = zip(*rows)
        envs.append(distill.EnvDataset(
            env_id=spec.env_id, morphology_text=morph_text, task_text=task_text,
            obs_spec=obs_spec, joint_angles=np.stack(angles),
            actions=np.stack(acts), goals=np.stack(goals),
            episodes=np.array(episodes, dtype=np.int32)))
        observations.append(np.stack(feats))
        reports.append(distill.GenReport(
            env_id=spec.env_id, attempts=attempts, episodes_kept=kept,
            transitions=len(rows), success_rate=rate,
            mean_normalized_final=float(np.mean(finals))))
    return TransitionDataset(environments=envs), observations, reports, cut


GENERATOR_ENVS = ("ant_reach_2", "worm_touch_2", "claw_touch_handsup_3",
                  "centipede_reach_handsup2_4", "ant_reach_4_missing_1", "claw_reach_4")


@pytest.mark.parametrize("env_ids, seed", [(GENERATOR_ENVS, 1), (GENERATOR_ENVS, 5),
                                           (("claw_touch_handsup_3",), 5)])
def test_generator_equals_eager_reference(env_ids, seed):
    specs = [make_env(e) for e in env_ids]
    ds, reports = generate_dataset(specs, n_transitions=250, seed=seed, obs_spec=OBS)
    ref_ds, ref_obs, ref_reports, cut = _eager_generate(specs, 250, seed)
    assert dataset_bytes(ds) == dataset_bytes(ref_ds)
    for got, want in zip(ds.environments, ref_obs):
        assert got.features.tobytes() == want.tobytes()
    assert reports == ref_reports
    assert any(cut)
    if len(specs) == 1:
        # partially proficient: rejected episodes sit between kept ones
        assert (reports[0].episodes_kept, reports[0].attempts) == (5, 8)


@pytest.mark.parametrize("flags", [OBS.flags, FLAG_ORDER], ids=["default", "all"])
def test_read_rebuilds_features_of_per_row_oracle(tmp_path, flags):
    # the file holds joint angles, not observations: the read dataset
    # derives every row, each episode's reset row included, equal to each
    # state's own call
    obs_spec = build_observation_spec(flags)
    specs = [make_env(e) for e in GENERATOR_ENVS]
    ds, _ = generate_dataset(specs, n_transitions=250, seed=5, obs_spec=obs_spec)
    write_dataset(ds, tmp_path / "d.cgds")
    back = read_dataset(tmp_path / "d.cgds")
    _, ref_obs, _, _ = _eager_generate(specs, 250, 5, obs_spec=obs_spec)
    for got, want in zip(back.environments, ref_obs):
        assert got.obs_spec == obs_spec and got.features.dtype == np.float32
        assert got.features.tobytes() == want.tobytes()


@pytest.mark.parametrize("flags", [("p",), ("p", "rp"), ("v", "a", "ja", "jv", "id", "rr")])
def test_training_data_at_other_flags_equals_sliced_columns(flags):
    # a dataset trains at any flags: the observations rebuilt from its joint
    # angles equal the columns of those flags in an all-flag rebuild of the
    # same rows, and train as a dataset of those flags does
    ds, _ = small_dataset(envs=("ant_reach_2", "worm_touch_2"), n=120, seed=2)
    want, full = build_observation_spec(flags), build_observation_spec(FLAG_ORDER)
    cols = np.concatenate([np.arange(slot(full, f).start, slot(full, f).stop)
                           for f in want.flags])
    for e in ds.environments:
        graph = e.env_spec().graph
        got = distill._observations(graph, e.joint_angles, e.episodes, want)
        every = distill._observations(graph, e.joint_angles, e.episodes, full)
        assert got.tobytes() == np.ascontiguousarray(every[:, :, cols]).tobytes()
    at_want = TransitionDataset([dataclasses.replace(e, obs_spec=want)
                                 for e in ds.environments])
    config = PolicyConfig(arch="transformer", feature_width=distill.cg_feature_width(want, "v2"),
                          obs_flags=want.flags)
    for got, expect in zip(prepare_training_data(ds, config),
                           prepare_training_data(at_want, config)):
        assert got.feats.tobytes() == expect.feats.tobytes()
        assert got.target_grid.tobytes() == expect.target_grid.tobytes()


@pytest.mark.parametrize("env_id, seed, counts", [
    ("ant_push_3", 1, "0/17"),                     # no episode kept
    ("worm_push_3", 5, "2/10"),                    # some push episodes kept
    ("worm_reach_3_size_0.8_1.0_1.2", 47, "3/7"),  # rejected reach episodes
])
def test_generator_fails_as_eager_reference(env_id, seed, counts):
    spec = make_env(env_id)
    with pytest.raises(DataQualityError) as got:
        generate_dataset([spec], n_transitions=250, seed=seed, obs_spec=OBS)
    with pytest.raises(DataQualityError) as want:
        _eager_generate([spec], 250, seed)
    assert str(got.value) == str(want.value)
    assert f"proficient on only {counts} episodes" in str(got.value)


def test_hopeless_env_stops_at_proficiency_bound(monkeypatch):
    resets = []
    monkeypatch.setattr(distill, "reset", lambda spec, seed: resets.append(seed)
                        or menv.reset(spec, seed))
    n = 10
    max_attempts = 20 + 4 * (n // (_far_goal_spec().task.episode_length // 4) + 1)
    with pytest.raises(DataQualityError) as info:
        generate_dataset([_far_goal_spec()], n_transitions=n, seed=0, obs_spec=OBS)
    assert len(resets) == max_attempts // 2 + 1
    kept, attempts = re.search(r"proficient on only (\d+)/(\d+) episodes",
                               str(info.value)).groups()
    assert (int(kept), int(attempts)) == (0, len(resets))


def _full_horizon_rollout(spec, seed):
    """Oracle: one expert episode rolled to its horizon.  Returns the step
    count up to its first state whose joint angles and box repeat an earlier
    state's bytes (the horizon if none does) and whether any step satisfied
    every goal."""
    state = menv.reset(spec, seed)
    seen = {state.joint_angles.tobytes() + state.box_pos.tobytes()}
    cut, satisfied = None, False
    for t in range(spec.task.episode_length):
        state = menv.step(state, menv.scripted_expert(state))
        satisfied |= all(d <= d_min for (d, _, _), d_min in
                         zip(menv.goal_terms(state), spec.task.d_min))
        key = state.joint_angles.tobytes() + state.box_pos.tobytes()
        if cut is None and key in seen:
            cut = t + 1
        seen.add(key)
    return cut or spec.task.episode_length, satisfied


@pytest.mark.parametrize("env_id, seed", [("ant_push_3", 1), ("ant_push_3", 5),
                                          ("worm_push_2", 1), ("worm_push_2", 5)])
def test_rejected_episode_ends_at_first_repeated_state(monkeypatch, env_id, seed):
    spec = make_env(env_id)
    steps = []                           # step calls per attempt
    monkeypatch.setattr(distill, "reset", lambda sp, s: steps.append(0)
                        or menv.reset(sp, s))

    def counting_step(state, action):
        steps[-1] += 1
        return menv.step(state, action)

    monkeypatch.setattr(distill, "step", counting_step)
    with pytest.raises(DataQualityError, match=r"proficient on only 0/17 episodes"):
        generate_dataset([spec], n_transitions=250, seed=seed, obs_spec=OBS)
    assert len(steps) == 17
    assert sum(steps) < len(steps) * spec.task.episode_length
    for attempt, n_steps in enumerate(steps):
        cut, satisfied = _full_horizon_rollout(
            spec, distill._episode_seed(seed, 0, attempt))
        assert not satisfied
        assert n_steps == cut


def test_episode_at_rest_from_reset_ends_after_one_step(monkeypatch):
    # an expert at rest: every action is zero, so the first step returns to
    # the reset state (generate_dataset refuses expert_gain 0, so patch it)
    steps = []
    monkeypatch.setattr(distill, "step", lambda state, action: steps.append(1)
                        or menv.step(state, action))
    monkeypatch.setattr(menv, "scripted_expert", lambda state, gain, terms:
                        np.zeros(len(state.joint_angles)))
    with pytest.raises(DataQualityError) as info:
        generate_dataset([_far_goal_spec()], n_transitions=10, seed=0, obs_spec=OBS)
    kept, attempts = re.search(r"proficient on only (\d+)/(\d+) episodes",
                               str(info.value)).groups()
    assert int(kept) == 0 and len(steps) == int(attempts) > 1


@pytest.mark.parametrize("env_id, seed", [("claw_touch_3", 3), ("ant_reach_handsup_3", 1),
                                          ("worm_push_2", 1)])
def test_goal_terms_computed_once_per_reached_state(monkeypatch, env_id, seed):
    # each state the generator reaches (every reset and every step's result)
    # has its goal_terms computed once, for the done test and the next expert
    # call together; the expert computes none of its own
    reached, terms_of = [], []
    monkeypatch.setattr(distill, "reset", lambda spec, s: reached.append(
        menv.reset(spec, s)) or reached[-1])
    monkeypatch.setattr(distill, "step", lambda state, action: reached.append(
        menv.step(state, action)) or reached[-1])
    goal_terms = menv.goal_terms
    monkeypatch.setattr(menv, "goal_terms", lambda state: terms_of.append(state)
                        or goal_terms(state))
    try:
        generate_dataset([make_env(env_id)], n_transitions=120, seed=seed, obs_spec=OBS)
    except DataQualityError:
        assert env_id == "worm_push_2"
    assert len(reached) > 120 and [id(s) for s in terms_of] == [id(s) for s in reached]


@pytest.mark.parametrize("env_id, seed", [("ant_reach_2", 0), ("claw_reach_4", 5)])
def test_observations_built_only_for_stored_rows(monkeypatch, env_id, seed):
    rows = []                  # observation rows per call: 1, or a lockstep state's
    monkeypatch.setattr(distill, "local_observations", lambda state, spec: rows.append(
        state.positions[..., 0, 0].size) or menv.local_observations(state, spec))
    ds, _ = generate_dataset([make_env(env_id)], n_transitions=250, seed=seed,
                             obs_spec=OBS)
    assert rows == []          # the generator builds none; the first read builds them
    assert ds.environments[0].features.shape[0] == sum(rows) == ds.n_transitions() == 250


# --- bc loss ----------------------------------------------------------------

def _cg_action_pairs(ds, spec, variant="v2", k=6):
    env = ds.environments[0]
    out = []
    for i in range(k):
        cg = distill.build_cg(spec, env.features[i].astype(np.float64),
                              env.goals[i], variant)
        out.append((cg, env.actions[i].astype(np.float64)))
    return out


def test_bc_loss_zero_when_predictions_match():
    ds, _ = small_dataset(n=30)
    spec = make_env("ant_reach_2")
    pairs = _cg_action_pairs(ds, spec)
    params = tf_params(pairs[0][0].width)
    # force the network output to match by zeroing targets instead
    zero_pairs = [(cg, np.zeros_like(a)) for cg, a in pairs]
    params.tensors["decode/W"].data[:] = 0.0
    params.tensors["decode/b"].data[:] = 0.0
    loss = bc_loss(params, zero_pairs)
    assert float(loss.data) == 0.0


def test_bc_loss_scalar_example():
    # single scalar action, prediction 0, target 1 -> 1.0
    ds, _ = small_dataset(envs=("worm_touch_2",), n=20)
    spec = make_env("worm_touch_2")
    assert spec.graph.action_dimension() == 1
    pairs = _cg_action_pairs(ds, spec, k=1)
    pairs = [(pairs[0][0], np.array([1.0]))]
    params = tf_params(pairs[0][0].width)
    params.tensors["decode/W"].data[:] = 0.0
    params.tensors["decode/b"].data[:] = 0.0
    loss = bc_loss(params, pairs)
    assert float(loss.data) == pytest.approx(1.0)


def test_bc_loss_batch_mean():
    ds, _ = small_dataset(envs=("worm_touch_2",), n=20)
    spec = make_env("worm_touch_2")
    pairs = _cg_action_pairs(ds, spec, k=2)
    params = tf_params(pairs[0][0].width)
    params.tensors["decode/W"].data[:] = 0.0
    params.tensors["decode/b"].data[:] = 0.0
    two = [(pairs[0][0], np.array([1.0])), (pairs[1][0], np.array([np.sqrt(3.0)]))]
    loss = bc_loss(params, two)
    assert float(loss.data) == pytest.approx(2.0)


def test_bc_loss_empty_batch():
    params = tf_params(33)
    with pytest.raises(ValueError):
        bc_loss(params, [])


@pytest.mark.parametrize("arch,variant,extra", [
    ("mlp", "v2", dict(mlp_hidden=8, max_action=24)),
    ("gnn", "v1", dict(gnn_hidden=8, gnn_layers=2, cg_variant="v1")),
    ("transformer", "v2", {}),
    ("transformer_tokenized", "v2", dict(token_variant="d", n_bins=64)),
])
def test_bc_loss_equals_training_loss_on_same_rows(arch, variant, extra):
    # bc_loss packs its pairs with the same code as prepare_training_data, so
    # on the same rows the two losses are the same float.
    ds, _ = small_dataset(n=30)
    spec = make_env("ant_reach_2")
    k = 6
    params = tf_params(distill.cg_feature_width(OBS, variant), seed=3,
                       arch=arch, **extra)
    env = ds.environments[0]
    pairs = [(distill.build_cg(spec, env.features[i].astype(np.float64),
                               env.goals[i], variant),
              env.actions[i]) for i in range(k)]
    arrays = prepare_training_data(ds, params.config)
    expect = loss_from_groups(params, [(arrays[0], np.arange(k))])
    assert float(bc_loss(params, pairs).data) == float(expect.data)


def _per_group_loss_oracle(params, groups):
    """The loss as it was computed before the one-pass transformer path: one
    forward pass per env group in the caller's node order, the per-group
    sums of per-sample errors added up, then divided by the sample count."""
    cfg = params.config
    total = None
    count = 0
    for arrays, idx in groups:
        feats = arrays.feats[idx]
        mask_b = np.broadcast_to(arrays.mask, feats.shape[:1] + arrays.mask.shape)
        if cfg.arch == "transformer_tokenized" and cfg.token_variant in ("d", "da"):
            logits, _ = tokenized_logits(params, feats, mask_b)
            logp = ad.log_softmax(logits)
            onehot = np.zeros(logits.shape)
            np.put_along_axis(onehot, arrays.token_targets[idx][..., None], 1.0,
                              axis=-1)
            onehot *= arrays.mask[None, :, :, None]
            part = ad.mul(ad.tsum(ad.mul(logp, onehot)), -1.0 / arrays.n_act)
        else:
            pred, _ = transformer_grid(params, feats, mask_b)
            diff = ad.sub(pred, arrays.target_grid[idx])
            per = ad.tsum(ad.mul(ad.mul(diff, diff), mask_b))
            part = ad.mul(per, 1.0 / arrays.n_act)
        total = part if total is None else ad.add(total, part)
        count += len(idx)
    return ad.mul(total, 1.0 / count)


@pytest.fixture(scope="module")
def two_body_dataset():
    # 3-, 5- and 9-row v2 graphs: groups of different node counts in one
    # batch; 250 rows span several episodes per env
    return small_dataset(envs=("ant_reach_2", "worm_touch_2", "ant_reach_handsup_3"),
                         n=250)[0]


@pytest.mark.parametrize("arch,extra", [
    ("transformer", {}),
    ("transformer", dict(use_pe=False, layers=2)),
    ("transformer", dict(history=3)),
    ("transformer_tokenized", dict(token_variant="c", n_bins=64)),
    ("transformer_tokenized", dict(token_variant="d", n_bins=64)),
    ("transformer_tokenized", dict(token_variant="da", n_bins=64)),
])
def test_one_pass_loss_matches_per_group_oracle(two_body_dataset, arch, extra):
    width = distill.cg_feature_width(OBS, "v2", extra.get("history", 1))
    params = tf_params(width, seed=5, arch=arch, **extra)
    arrays = prepare_training_data(two_body_dataset, params.config)
    sampler = distill._BatchSampler([len(a.feats) for a in arrays], 24, 0, True)
    for _ in range(3):
        groups = [(arrays[e], idx) for e, idx in sampler.next_batch()]
        assert len(groups) > 1
        one_pass = float(loss_from_groups(params, groups).data)
        oracle = float(_per_group_loss_oracle(params, groups).data)
        assert abs(one_pass - oracle) <= 1e-12 * abs(oracle)
        grads = policy_grads(params, groups, loss_from_groups)
        expect = policy_grads(params, groups, _per_group_loss_oracle)
        # round-off only: measured against the largest gradient entry, since
        # some entries (key biases) are zero up to round-off
        scale = max(np.abs(g).max() for g in expect.values())
        worst = max(np.abs(grads[k] - g).max() for k, g in expect.items())
        assert worst <= 1e-12 * scale, worst / scale


def _per_row_packing(ds, config):
    """prepare_training_data's arrays as built before it used array ops:
    one control graph per row, history stacked frame by frame."""
    out = []
    for envd in ds.environments:
        spec = envd.env_spec()
        variant = "v1" if config.arch == "gnn" else config.cg_variant
        cgs = [distill.build_cg(spec, f.astype(np.float64), g, variant)
               for f, g in zip(envd.features, envd.goals)]
        if config.history > 1:
            stacked, frames = [], []
            for i, cg in enumerate(cgs):
                if i == 0 or envd.episodes[i] != envd.episodes[i - 1]:
                    frames = []
                frames = (frames + [cg])[-config.history:]
                stacked.append(stack_history(frames, config.history))
            cgs = stacked
        n_act = len(cgs[0].actuator_map)
        if config.arch == "mlp":
            targets = np.zeros((len(cgs), config.max_action))
            for i, act in enumerate(envd.actions):
                targets[i, :n_act] = act
            out.append({"feats": np.stack([flatten_features(cg.node_features, config.max_nodes)
                                            for cg in cgs]),
                        "target_grid": targets})
            continue
        targets = np.zeros((len(cgs),) + cgs[0].action_mask.shape)
        for i, (cg, act) in enumerate(zip(cgs, envd.actions)):
            for dof, (node, slot) in enumerate(cg.actuator_map):
                targets[i, node, slot] = act[dof]
        feats = np.stack([cg.node_features for cg in cgs])
        row = {"target_grid": targets, "mask": cgs[0].action_mask}
        if config.arch == "gnn":
            row["adjacency"] = adjacency(cgs[0].edges, cgs[0].n_nodes)
        if config.arch == "transformer_tokenized":
            feats = detokenize(np.stack([tokenize_features(cg.node_features, config.n_bins)
                                          for cg in cgs]),
                               "center", config.n_bins)
            row["token_targets"] = tokenize_actions(targets, config.n_bins)
        out.append({**row, "feats": feats})
    return out


@pytest.mark.parametrize("arch,variant,extra", [
    ("transformer", "v2", {}),
    ("transformer", "v2", dict(history=3)),
    ("transformer", "v1", dict(cg_variant="v1")),
    ("transformer", "v1", dict(cg_variant="v1", history=3)),
    ("gnn", "v1", dict(gnn_hidden=8, cg_variant="v1")),
    ("mlp", "v2", dict(mlp_hidden=8, max_action=24)),
    ("transformer_tokenized", "v2", dict(token_variant="d", n_bins=64)),
])
def test_array_packing_equals_per_row_control_graphs(two_body_dataset, arch, variant,
                                                     extra):
    # episode ids restart the history inside one env's rows
    assert two_body_dataset.environments[0].episodes[-1] > 0
    width = distill.cg_feature_width(OBS, variant, extra.get("history", 1))
    config = PolicyConfig(arch=arch, feature_width=width, **extra)
    packed = prepare_training_data(two_body_dataset, config)
    for got, expect in zip(packed, _per_row_packing(two_body_dataset, config)):
        for key, value in expect.items():
            assert getattr(got, key).dtype == value.dtype
            np.testing.assert_array_equal(getattr(got, key), value, err_msg=key)


# --- adam -------------------------------------------------------------------

def test_adam_closed_form_first_step():
    cfg = PolicyConfig(arch="mlp", feature_width=1, mlp_hidden=1, mlp_layers=1,
                       max_nodes=1, max_action=1)
    params = init_params("mlp", cfg, 0)
    w = params.tensors["out/W"]
    w.data[:] = 0.5
    g = np.array([[0.3]])
    state = adam_init(params)
    grads = {k: np.zeros_like(p.data) for k, p in params.tensors.items()}
    grads["out/W"] = g.copy()
    adam_step(params, grads, state, lr=0.1)
    # t=1: m_hat = g, v_hat = g^2 -> update = lr * g / (|g| + eps)
    expected = 0.5 - 0.1 * 0.3 / (0.3 + 1e-8)
    assert w.data[0, 0] == pytest.approx(expected, rel=1e-12)


def test_zero_gradient_leaves_params_unchanged():
    cfg = PolicyConfig(arch="mlp", feature_width=1, mlp_hidden=1, mlp_layers=1,
                       max_nodes=1, max_action=1)
    params = init_params("mlp", cfg, 0)
    before = {k: p.data.copy() for k, p in params.tensors.items()}
    state = adam_init(params)
    for _ in range(5):
        grads = {k: np.zeros_like(p.data) for k, p in params.tensors.items()}
        adam_step(params, grads, state, lr=0.1)
    for k, p in params.tensors.items():
        np.testing.assert_array_equal(p.data, before[k])


def test_adam_in_place_equals_allocating_reference():
    # the arithmetic of the allocating update it replaced, bit for bit
    def reference_step(tensors, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        b1t, b2t = 1.0 - beta1 ** t, 1.0 - beta2 ** t
        for k in tensors:
            m[k] = beta1 * m[k] + (1.0 - beta1) * grads[k]
            v[k] = beta2 * v[k] + (1.0 - beta2) * (grads[k] * grads[k])
            tensors[k] = tensors[k] - lr * (m[k] / b1t) / (np.sqrt(v[k] / b2t) + eps)

    params = tf_params(33)
    state = adam_init(params)
    tensors = {k: p.data.copy() for k, p in params.tensors.items()}
    m = {k: np.zeros_like(x) for k, x in tensors.items()}
    v = {k: np.zeros_like(x) for k, x in tensors.items()}
    rng = np.random.default_rng(0)
    for t in range(1, 21):
        grads = {k: rng.normal(size=x.shape) * 10.0 ** rng.integers(-8, 2)
                 for k, x in tensors.items()}
        adam_step(params, {k: g.copy() for k, g in grads.items()}, state, lr=3e-4)
        reference_step(tensors, grads, m, v, t, lr=3e-4)
    for k, p in params.tensors.items():
        np.testing.assert_array_equal(p.data, tensors[k])
        np.testing.assert_array_equal(state.m[k], m[k])
        np.testing.assert_array_equal(state.v[k], v[k])


def test_global_norm_clip():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    norm = clip_global_norm(grads, 0.1)
    assert norm == pytest.approx(5.0)
    clipped = np.sqrt(grads["a"] ** 2 + grads["b"] ** 2)
    assert clipped[0] == pytest.approx(0.1, rel=1e-12)
    small = {"a": np.array([0.01])}
    clip_global_norm(small, 0.1)
    assert small["a"][0] == 0.01


# --- training loop -------------------------------------------------------------

def _width(variant="v2"):
    return distill.cg_feature_width(OBS, variant)


@pytest.mark.parametrize("kw, message", [
    *[({name: value}, f"'{name}' must be finite and > 0, got {value!r}")
      for name in ("learning_rate", "grad_clip")
      for value in (float("nan"), float("inf"), 0.0, -1.0)],
    (dict(batch_size=0), "'batch_size' must be >= 1, got 0"),
    (dict(steps=-1), "'steps' must be >= 0, got -1"),
])
def test_every_train_config_rule_raises_config_error_naming_its_field(kw, message):
    with pytest.raises(ConfigError) as info:
        TrainConfig(**kw)
    assert str(info.value) == message


def test_train_deterministic():
    ds, _ = small_dataset(n=60)
    cfg = TrainConfig(steps=30, batch_size=8, seed=3)
    a = train(tf_params(_width(), seed=1), ds, cfg)
    b = train(tf_params(_width(), seed=1), ds, cfg)
    assert a[1] == b[1]
    for k in a[0].tensors:
        np.testing.assert_array_equal(a[0].tensors[k].data, b[0].tensors[k].data)


def test_loss_curve_cadence():
    ds, _ = small_dataset(n=40)
    _, curve = train(tf_params(_width(), seed=1), ds,
                     TrainConfig(steps=250, batch_size=8, seed=0))
    assert len(curve) == 250 // 100 + 1 + 1  # 0,100,200 plus final(250)
    assert curve[0][0] == 0 and curve[-1][0] == 250


def test_training_reduces_loss():
    ds, _ = small_dataset(n=200)
    params, curve = train(tf_params(_width(), seed=1, embed=32, attn_hidden=32),
                          ds, TrainConfig(steps=400, batch_size=16, seed=0))
    assert curve[-1][1] < curve[0][1]


def test_loss_curve_smoothed_over_windows_non_increasing():
    # Smoothed over 500-step windows the curve trends down; near the noise
    # floor tiny wobbles happen, so each window may exceed its predecessor by
    # at most 2% of the initial loss.
    ds, _ = small_dataset(n=300)
    _, curve = train(tf_params(_width(), seed=1, embed=32, attn_hidden=32),
                     ds, TrainConfig(steps=1500, batch_size=16, seed=0))
    values = [v for _, v in curve[:-1]]  # entries every 100 steps
    windows = [np.mean(values[i: i + 5]) for i in range(0, len(values) - 4, 5)]
    tolerance = 0.02 * curve[0][1]
    for earlier, later in zip(windows, windows[1:]):
        assert later <= earlier + tolerance


def test_grad_clip_invariant_during_training(monkeypatch):
    ds, _ = small_dataset(n=60)
    seen = []
    original = distill.clip_global_norm

    def spy(grads, clip):
        norm = original(grads, clip)
        seen.append(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
        return norm

    monkeypatch.setattr(distill, "clip_global_norm", spy)
    train(tf_params(_width(), seed=1), ds, TrainConfig(steps=20, batch_size=8, seed=0))
    assert seen and all(n <= 0.1 + 1e-12 for n in seen)


def test_training_keeps_one_step_graph(monkeypatch):
    # step t's loss, and with it step t's graph, is gone before step t+1's
    # forward begins, and the last one before the final no-grad loss
    ds, _ = small_dataset(n=40)
    previous = []

    def watched(params, groups):
        assert all(ref() is None for ref in previous)
        loss = loss_from_groups(params, groups)
        previous.append(weakref.ref(loss))
        return loss

    monkeypatch.setattr(distill, "loss_from_groups", watched)
    train(tf_params(_width(), seed=1), ds, TrainConfig(steps=4, batch_size=8, seed=0))
    assert len(previous) == 5


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_gradient_stops_training_at_its_step(monkeypatch, bad):
    ds, _ = small_dataset(n=40)
    params = tf_params(_width(), seed=1)
    calls = []

    def spiked(params, groups):
        # a loss term of value 0 whose gradient puts `bad` into one entry
        loss = loss_from_groups(params, groups)
        calls.append(len(calls))
        if len(calls) == 3:
            b = params.tensors["embed/b"]

            def backward(g):
                grad = np.zeros(b.shape)
                grad[0] = bad
                b._accumulate(grad)
            loss = ad.add(loss, ad.Tensor(np.zeros(()), True, (b,), backward))
        return loss

    monkeypatch.setattr(distill, "loss_from_groups", spiked)
    with pytest.raises(ad.NumericError, match="gradient norm went non-finite at step 2$"):
        train(params, ds, TrainConfig(steps=5, batch_size=8, seed=0))
    assert len(calls) == 3
    assert all(np.isfinite(t.data).all() for t in params.tensors.values())


def test_mixed_and_per_env_batching():
    ds, _ = small_dataset(envs=("ant_reach_2", "worm_touch_2"), n=40)
    for mix in (True, False):
        params, curve = train(tf_params(_width(), seed=1), ds,
                              TrainConfig(steps=12, batch_size=8, seed=0,
                                          mix_morphologies=mix))
        assert np.isfinite(curve[-1][1])


def test_gnn_and_mlp_training_paths():
    ds, _ = small_dataset(n=40)
    w1 = distill.cg_feature_width(OBS, "v1")
    gnn = init_params("gnn", PolicyConfig(arch="gnn", feature_width=w1,
                                          gnn_hidden=8, gnn_layers=2,
                                          cg_variant="v1"), 0)
    _, curve = train(gnn, ds, TrainConfig(steps=10, batch_size=8, seed=0))
    assert np.isfinite(curve[-1][1])
    mlp = init_params("mlp", PolicyConfig(arch="mlp", feature_width=_width(),
                                          mlp_hidden=16, max_nodes=8,
                                          max_action=8), 0)
    _, curve = train(mlp, ds, TrainConfig(steps=10, batch_size=8, seed=0))
    assert np.isfinite(curve[-1][1])


def test_mlp_head_narrower_than_actions_is_shape_error_in_training():
    ds, _ = small_dataset(envs=("ant_reach_6",), n=10)
    mlp = init_params("mlp", PolicyConfig(arch="mlp", feature_width=_width(),
                                          mlp_hidden=8, max_nodes=24,
                                          max_action=8), 0)
    with pytest.raises(ShapeError, match="action dimension 12 exceeds the MLP "
                                         "head width max_action=8"):
        train(mlp, ds, TrainConfig(steps=1, batch_size=4, seed=0))


def test_tokenized_training_paths():
    ds, _ = small_dataset(n=40)
    for variant in ("c", "d"):
        params = init_params(
            "transformer_tokenized",
            PolicyConfig(arch="transformer_tokenized", feature_width=_width(),
                         embed=16, attn_hidden=16, heads=2, layers=1,
                         max_nodes=24, token_variant=variant, n_bins=64), 0)
        _, curve = train(params, ds, TrainConfig(steps=6, batch_size=4, seed=0))
        assert np.isfinite(curve[-1][1])


def test_history_training_path():
    ds, _ = small_dataset(n=40)
    width = distill.cg_feature_width(OBS, "v2", history=3)
    params = tf_params(width, history=3)
    _, curve = train(params, ds, TrainConfig(steps=6, batch_size=4, seed=0))
    assert np.isfinite(curve[-1][1])


def test_dataset_unknown_version_raises(tmp_path):
    ds, _ = small_dataset(n=10)
    raw = bytearray(dataset_bytes(ds))
    raw[4:8] = (99).to_bytes(4, "little")
    path = tmp_path / "v99.cgds"
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptionError, match="version 99"):
        read_dataset(path)


def test_episode_ids_mark_goal_changes():
    ds, _ = small_dataset(envs=("ant_reach_2", "worm_touch_2"), n=250)
    for env in ds.environments:
        ids = env.episodes
        assert ids.dtype == np.int32 and ids[0] == 0 and ids[-1] >= 1
        assert np.all(ids[1:] >= ids[:-1])
        # a new episode draws new goals: the rule the stored ids replace
        changed = np.concatenate([[True], np.any(env.goals[1:] != env.goals[:-1], axis=1)])
        np.testing.assert_array_equal(
            np.concatenate([[True], ids[1:] != ids[:-1]]), changed)


def test_history_restarts_at_stored_episode_ids():
    ds, _ = small_dataset(n=250)
    env = ds.environments[0]
    start = int(np.flatnonzero(env.episodes[1:] != env.episodes[:-1])[0]) + 1
    width = distill.cg_feature_width(OBS, "v2", history=2)
    config = PolicyConfig(arch="transformer", feature_width=width, history=2)
    split = prepare_training_data(ds, config)[0].feats
    merged = prepare_training_data(TransitionDataset([dataclasses.replace(
        env, episodes=np.zeros_like(env.episodes))]), config)[0].feats
    np.testing.assert_array_equal(split[:start], merged[:start])
    assert not np.array_equal(split[start], merged[start])


@pytest.fixture(scope="module")
def dataset_raw():
    ds, _ = small_dataset(n=12)
    return dataset_bytes(ds)


def _rewritten(raw: bytes, edit) -> bytes:
    """A sealed dataset file whose tag, header or tensors edit() changed."""
    tag, meta, tensors = edit(*artifacts.parse(raw, distill.DATASET_MAGIC))
    return artifacts.to_bytes(distill.DATASET_MAGIC, tag, meta, list(tensors.items()))


def _env0(meta, **fields):
    return {"environments": [{**meta["environments"][0], **fields}]}


def _body(field, value):
    """Edit: node 1 of the dataset's body gets ``field`` = ``value``."""
    def edit(tag, m, t):
        text = with_node_field(m["environments"][0]["morphology"], 1, field, value)
        return tag, _env0(m, morphology=text), t
    return edit


_MALFORMED = {
    "joint_angles width": lambda tag, m, t: (tag, m, {
        **t, "0/joint_angles": t["0/joint_angles"][:, :-1]}),
    "nan joint angle": lambda tag, m, t: (tag, m, {
        **t, "0/joint_angles": np.where(np.arange(len(t["0/episodes"]))[:, None] == 5,
                                        np.nan, t["0/joint_angles"])}),
    "joint angle out of range": lambda tag, m, t: (tag, m, {
        **t, "0/joint_angles": t["0/joint_angles"] + np.r_[0.0, 10.0, np.zeros(
            t["0/joint_angles"].shape[1] - 2)]}),
    "action width": lambda tag, m, t: (tag, m, {**t, "0/actions": t["0/actions"][:, :-1]}),
    "goal width": lambda tag, m, t: (tag, m, {**t, "0/goals": t["0/goals"][:, :-1]}),
    "row count": lambda tag, m, t: (tag, m, {**t, "0/actions": t["0/actions"][:-1]}),
    "decreasing ids": lambda tag, m, t: (tag, m, {
        **t, "0/episodes": np.r_[0, 1, 0, np.ones(len(t["0/episodes"]) - 3)].astype(np.int32)}),
    "ids from 1": lambda tag, m, t: (tag, m, {**t, "0/episodes": t["0/episodes"] + 1}),
    "no rows": lambda tag, m, t: (tag, m, {k: v[:0] for k, v in t.items()}),
    "f4 joint_angles": lambda tag, m, t: (tag, m, {
        **t, "0/joint_angles": t["0/joint_angles"].astype(np.float32)}),
    "missing tensor": lambda tag, m, t: (tag, m, {k: v for k, v in t.items() if k != "0/episodes"}),
    "reordered": lambda tag, m, t: (tag, m, dict(reversed(list(t.items())))),
    "tag": lambda tag, m, t: ("checkpoint", m, t),
    "header type": lambda tag, m, t: (tag, [m], t),
    "extra key": lambda tag, m, t: (tag, {**m, "spare": 1}, t),
    "env key": lambda tag, m, t: (tag, _env0(m, spare=1), t),
    "morphology": lambda tag, m, t: (tag, _env0(m, morphology="morphology x"), t),
    "task": lambda tag, m, t: (tag, _env0(m, task=7), t),
    "unknown flag": lambda tag, m, t: (tag, _env0(m, obs_flags=["p", "zz"]), t),
    "flag order": lambda tag, m, t: (tag, _env0(m, obs_flags=m["environments"][0]["obs_flags"][::-1]), t),
    "nan radius": _body("radius", "nan"),
    "inf mass": _body("mass", "inf"),
    "negative mass": _body("mass", "-2"),
    "missing end effector": lambda tag, m, t: (tag, _env0(
        m, task=m["environments"][0]["task"].replace(" ee0 ", " ee9 ")), t),
    "unknown selector": lambda tag, m, t: (tag, _env0(
        m, task=m["environments"][0]["task"].replace(" ee0 ", " hand ")), t),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_sealed_malformed_dataset_raises_corruption(tmp_path, dataset_raw, case):
    path = tmp_path / "m.cgds"
    path.write_bytes(_rewritten(dataset_raw, lambda tag, m, t: (tag, m, t)))
    assert read_dataset(path).n_transitions() == 12
    path.write_bytes(_rewritten(dataset_raw, _MALFORMED[case]))
    with pytest.raises(CorruptionError):
        read_dataset(path)


def _with_entry(key, value):
    """Edit: row 5, column 0 of tensor ``key`` becomes ``value``."""
    def edit(tag, m, t):
        data = t[key].copy()
        data[5, 0] = value
        return tag, m, {**t, key: data}
    return edit


@pytest.mark.parametrize("key, value, message", [
    ("0/actions", np.nan, "actions of env 'ant_reach_2' must lie in [-1, 1]"),
    ("0/actions", 5.0, "actions of env 'ant_reach_2' must lie in [-1, 1]"),
    ("0/goals", np.inf, "goals of env 'ant_reach_2' must be finite"),
], ids=["nan action", "action 5", "inf goal"])
def test_read_rejects_actions_outside_unit_box_and_non_finite_goals(
        tmp_path, dataset_raw, key, value, message):
    path = tmp_path / "m.cgds"
    for edge in (1.0, -1.0):      # the generator clips actions onto these bounds
        path.write_bytes(_rewritten(dataset_raw, _with_entry("0/actions", edge)))
        assert read_dataset(path).environments[0].actions[5, 0] == edge
    path.write_bytes(_rewritten(dataset_raw, _with_entry(key, value)))
    with pytest.raises(CorruptionError, match=re.escape(message)):
        read_dataset(path)


_UNWRITABLE = {
    "no rows": lambda e: dataclasses.replace(
        e, joint_angles=e.joint_angles[:0], actions=e.actions[:0], goals=e.goals[:0],
        episodes=e.episodes[:0]),
    "shape": lambda e: dataclasses.replace(e, actions=e.actions[:, :-1]),
    "decreasing ids": lambda e: dataclasses.replace(
        e, episodes=np.r_[0, 1, 0, np.ones(len(e.episodes) - 3)].astype(np.int32)),
    "action out of range": lambda e: dataclasses.replace(e, actions=e.actions * 5),
    "inf goal": lambda e: dataclasses.replace(e, goals=e.goals + np.inf),
}


@pytest.mark.parametrize("case", list(_UNWRITABLE))
def test_writer_rejects_what_reader_rejects(tmp_path, case):
    ds, _ = small_dataset(n=12)
    bad = TransitionDataset([_UNWRITABLE[case](ds.environments[0])])
    with pytest.raises(CorruptionError):
        dataset_bytes(bad)
    with pytest.raises(CorruptionError):
        write_dataset(bad, tmp_path / "d.cgds")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("edit", ["utf8", "dtype code", "retyped"])
def test_sealed_malformed_dataset_bytes_raise_corruption(tmp_path, dataset_raw, edit):
    raw = bytearray(dataset_raw[:-4])
    if edit == "utf8":
        raw[raw.index(b"ant_reach_2")] = 0xFF
    else:
        code = raw.index(b"0/joint_angles") + len(b"0/joint_angles")
        assert raw[code] == ord("d")
        raw[code] = ord("q") if edit == "dtype code" else ord("i")
    path = tmp_path / "m.cgds"
    path.write_bytes(seal(bytes(raw)))
    with pytest.raises(CorruptionError):
        read_dataset(path)


# --- checkpoints -----------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    params = tf_params(_width(), seed=4)
    path = tmp_path / "p.cgck"
    save_checkpoint(params, path)
    back = load_checkpoint(path)
    assert back.arch == params.arch
    assert back.config == params.config
    for k in params.tensors:
        np.testing.assert_array_equal(back.tensors[k].data, params.tensors[k].data)
    save_checkpoint(back, tmp_path / "p2.cgck")
    assert (tmp_path / "p.cgck").read_bytes() == (tmp_path / "p2.cgck").read_bytes()


def test_loaded_checkpoints_share_no_memory(tmp_path):
    params = tf_params(_width(), seed=4)
    save_checkpoint(params, tmp_path / "p.cgck")
    a, b = load_checkpoint(tmp_path / "p.cgck"), load_checkpoint(tmp_path / "p.cgck")
    for k, t in a.tensors.items():
        assert t.requires_grad and t.data.dtype == np.float64 and t.data.flags.writeable
        assert not np.shares_memory(t.data, b.tensors[k].data)
        assert not np.shares_memory(t.data, params.tensors[k].data)
    name = next(iter(a.tensors))
    a.tensors[name].data += 1.0
    np.testing.assert_array_equal(b.tensors[name].data, params.tensors[name].data)
    np.testing.assert_array_equal(a.tensors[name].data, params.tensors[name].data + 1.0)


def test_truncated_checkpoint_raises(tmp_path):
    params = tf_params(_width(), seed=4)
    raw = checkpoint_bytes(params)
    path = tmp_path / "t.cgck"
    path.write_bytes(raw[:-20])
    with pytest.raises(CorruptionError):
        load_checkpoint(path)


def test_corrupted_byte_raises(tmp_path):
    params = tf_params(_width(), seed=4)
    raw = bytearray(checkpoint_bytes(params))
    raw[100] ^= 0xFF
    path = tmp_path / "c.cgck"
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptionError):
        load_checkpoint(path)


def test_arch_mismatch_raises(tmp_path):
    params = tf_params(_width(), seed=4)
    path = tmp_path / "a.cgck"
    save_checkpoint(params, path)
    with pytest.raises(ConfigError):
        load_checkpoint(path, expect_arch="mlp")


def _tiny_checkpoint() -> bytes:
    return checkpoint_bytes(tf_params(_width(), seed=4, embed=4, attn_hidden=4,
                                      max_nodes=4))


def test_checkpoint_unknown_version_raises(tmp_path):
    raw = bytearray(_tiny_checkpoint()[:-4])
    raw[4:8] = (99).to_bytes(4, "little")
    path = tmp_path / "v99.cgck"
    path.write_bytes(seal(bytes(raw)))
    with pytest.raises(CorruptionError, match="version 99"):
        load_checkpoint(path)


def test_checkpoint_trailing_payload_bytes_raise(tmp_path):
    path = tmp_path / "tail.cgck"
    path.write_bytes(seal(_tiny_checkpoint()[:-4] + b"\0" * 8))
    with pytest.raises(CorruptionError, match="trailing"):
        load_checkpoint(path)


def test_checkpoint_tensors_must_match_config(tmp_path):
    params = tf_params(_width(), seed=4, embed=4, attn_hidden=4, max_nodes=4)
    path = tmp_path / "t.cgck"
    cases = {
        "missing": lambda t: t.pop("decode/W"),
        "extra": lambda t: t.__setitem__("spare", t["decode/b"]),
        "reshaped": lambda t: t.__setitem__(
            "decode/b", ad.parameter(np.zeros((1, 3)))),
    }
    for name, edit in cases.items():
        broken = clone(params)
        edit(broken.tensors)
        path.write_bytes(checkpoint_bytes(broken))
        with pytest.raises(CorruptionError, match="tensors differ"):
            load_checkpoint(path)
    # a float32 tensor where init_params builds float64
    retyped = [(k, t.data.astype(np.float32) if k == "decode/b" else t.data)
               for k, t in params.tensors.items()]
    path.write_bytes(artifacts.to_bytes(distill.CHECKPOINT_MAGIC, params.arch,
                                        dataclasses.asdict(params.config), retyped))
    with pytest.raises(CorruptionError, match="tensors differ"):
        load_checkpoint(path)


def _with_config(raw: bytes, edit) -> bytes:
    """Re-seal a checkpoint after editing its JSON config dict."""
    off = 8 + 4 + struct.unpack("<I", raw[8:12])[0]
    size = struct.unpack("<I", raw[off:off + 4])[0]
    config = edit(json.loads(raw[off + 4: off + 4 + size]))
    text = json.dumps(config, sort_keys=True).encode()
    return seal(raw[:off] + struct.pack("<I", len(text)) + text
                + raw[off + 4 + size:-4])


def test_checkpoint_config_keys_must_match(tmp_path):
    raw = _tiny_checkpoint()
    path = tmp_path / "c.cgck"
    path.write_bytes(_with_config(raw, lambda c: c))
    assert load_checkpoint(path).config.embed == 4
    edits = [lambda c: {**c, "dropout": 0.1},
             lambda c: {k: v for k, v in c.items() if k != "embed"},
             lambda c: {**c, "arch": "perceiver"},
             lambda c: {**c, "layers": "three"},
             lambda c: [1, 2]]
    for edit in edits:
        path.write_bytes(_with_config(raw, edit))
        with pytest.raises(CorruptionError):
            load_checkpoint(path)


def _damaged(raw: bytes, data) -> bytes:
    if data.draw(st.booleans()):
        return raw[:data.draw(st.integers(0, len(raw) - 1))]
    bit = data.draw(st.integers(0, 8 * len(raw) - 1))
    out = bytearray(raw)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_damaged_checkpoint_raises_only_corruption(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "d.cgck"
    path.write_bytes(_damaged(_tiny_checkpoint(), data))
    with pytest.raises(CorruptionError):
        load_checkpoint(path)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_damaged_dataset_raises_only_corruption(tmp_path_factory, dataset_raw, data):
    path = tmp_path_factory.mktemp("fuzz") / "d.cgds"
    path.write_bytes(_damaged(dataset_raw, data))
    with pytest.raises(CorruptionError):
        read_dataset(path)


# --- fine-tuning: train warm-started from a checkpoint's clone -------------------------

def test_finetune_zero_steps_returns_checkpoint():
    ds, _ = small_dataset(n=40)
    params = tf_params(_width(), seed=4)
    tuned, curve = train(clone(params), ds, TrainConfig(steps=0, batch_size=8, seed=0))
    for k in params.tensors:
        np.testing.assert_array_equal(tuned.tensors[k].data,
                                      params.tensors[k].data)
    assert len(curve) == 1


def test_finetune_same_seed_same_curves():
    ds, _ = small_dataset(n=40)
    params = tf_params(_width(), seed=4)
    cfg = TrainConfig(steps=20, batch_size=8, seed=9)
    a = train(clone(params), ds, cfg)
    b = train(clone(params), ds, cfg)
    assert a[1] == b[1]


def test_finetune_init_loss_beats_random_on_held_out_envs():
    # distill on 2- and 4-leg ants, then compare warm-start vs random-init
    # loss on a held-out 3-leg morphology
    train_ds, _ = small_dataset(envs=("ant_reach_2", "ant_reach_4"), n=150)
    held_out, _ = small_dataset(envs=("ant_reach_3",), n=100)
    trained, _ = train(tf_params(_width(), seed=1, embed=32, attn_hidden=32),
                       train_ds, TrainConfig(steps=400, batch_size=16, seed=0))
    _, tuned_curve = train(clone(trained), held_out,
                           TrainConfig(steps=0, batch_size=16, seed=1))
    _, rand_curve = train(tf_params(_width(), seed=2, embed=32, attn_hidden=32),
                          held_out, TrainConfig(steps=0, batch_size=16, seed=1))
    assert tuned_curve[0][1] <= rand_curve[0][1]
