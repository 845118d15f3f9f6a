import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morphtask import artifacts, distill, nn
from morphtask import env as menv
from morphtask.control_graph import FLAG_WIDTHS, build_observation_spec
from morphtask.distill import (
    DATASET_MAGIC,
    CorruptionError,
    dataset_bytes,
    generate_dataset,
    read_dataset,
)
from morphtask.env import (
    EnvSpec,
    EnvState,
    EpisodeOverError,
    GoalTemplate,
    ShapeError,
    TaskSpec,
    forward_kinematics,
    goal_distance,
    local_observations,
    make_env,
    parse_env_id,
    parse_task,
    position_jacobian,
    reset,
    resolve_box_push,
    scripted_expert,
    serialize_task,
    step,
)
from morphtask.morphology import (
    Actuator,
    JointEdge,
    ModuleNode,
    MorphologyGraph,
    MorphologyParseError,
    generate_morphology,
    parse_morphology,
    serialize_morphology,
)


def chain_graph(n_segments, axes=None, length=0.4, ranges=None):
    """Torso fixed at origin plus a serial chain, offsets zero."""
    axes = axes or [(0.0, 0.0, 1.0)] * n_segments
    ranges = ranges or [(-math.pi, math.pi)] * n_segments
    nodes = [ModuleNode(0, "torso", 0.25, 0.0, 1.0, 0.01, (0.0, 0.0, 0.0), -1)]
    edges = []
    for i in range(n_segments):
        nodes.append(ModuleNode(i + 1, "limb_segment", 0.08, length, 1.0, 0.01,
                                (0.0, 0.0, 0.0), i))
        edges.append(JointEdge(i, i + 1, (Actuator(axes[i], *ranges[i]),)))
    return MorphologyGraph(tuple(nodes), tuple(edges), f"chain_{n_segments}")


def reach_task(r_lo, r_hi, d_min=0.01, d_max=2.0, episode=500):
    return TaskSpec("reach", (GoalTemplate("xy_position", "ee0", r_lo, r_hi),),
                    (d_min,), (d_max,), episode)


# --- goal sampling -----------------------------------------------------------

def _goals(task, graph, seeds):
    """(B, G, 3) goal values of reset(seed) per seed."""
    return menv._reset_draws(menv._body_table(graph), graph, task, seeds)[0]


def test_degenerate_annulus_radius_exact():
    g = chain_graph(1)
    task = reach_task(1.0, 1.0)
    for goal in _goals(task, g, range(20))[:, 0]:
        assert abs(np.linalg.norm(goal[:2]) - 1.0) <= 1e-9
        assert goal[2] == 0.0


def test_sampling_deterministic_in_seed():
    g = generate_morphology("ant", 4)
    spec = make_env("ant_reach_4")
    a = _goals(spec.task, g, [123, 5, 123])
    b = _goals(spec.task, g, [123])
    assert a[0].tobytes() == a[2].tobytes() == b[0].tobytes()
    assert a[0].tobytes() != a[1].tobytes()


def test_mean_radius_law_of_large_numbers():
    g = chain_graph(1)
    task = reach_task(0.5, 1.5)
    radii = np.linalg.norm(_goals(task, g, range(100_000))[:, 0, :2], axis=1)
    assert np.mean(radii) == pytest.approx(1.0, abs=0.01)


def _oracle_draws(graph, task, seed):
    """Reference for env._reset_draws on one seed: a generator object per
    stream, Generator(Philox(key=seed)) for the goals and
    Philox(key=seed).jumped(1) for the angles and then the box, and scalar
    uniform draws.  Returns (goals (G, 3), theta, ball or None, box or None)."""
    table = menv._body_table(graph)
    rng = np.random.Generator(np.random.Philox(key=seed))
    goals = []
    for tmpl in task.goals:
        target = menv.resolve_target(graph, tmpl.target_selector)
        if tmpl.goal_kind == "z_height":
            goals.append(np.array([0.0, 0.0, rng.uniform(tmpl.z_lo, tmpl.z_hi)]))
            continue
        angle = rng.uniform(0.0, 2.0 * math.pi)
        radius = rng.uniform(tmpl.r_lo, tmpl.r_hi)
        goals.append(table.chain_anchor[target]
                     + radius * np.array([math.cos(angle), math.sin(angle), 0.0]))
    rng = np.random.Generator(np.random.Philox(key=seed).jumped(1))
    theta = table.reset_mid + table.reset_span * rng.uniform(-1.0, 1.0, size=table.A)
    ball = box = None
    for g, tmpl in enumerate(task.goals):
        if tmpl.goal_kind == "ball_contact":
            ball = goals[g].copy()
        elif tmpl.goal_kind == "box_to_target":
            target = menv.resolve_target(graph, tmpl.target_selector)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            radius = rng.uniform(1.3 * tmpl.r_lo, 1.3 * tmpl.r_hi)
            box = table.chain_anchor[target] \
                + radius * np.array([math.cos(angle), math.sin(angle), 0.0])
    return np.array(goals).reshape(-1, 3), theta, ball, box


# Every goal kind: xy (reach), z (handsup), ball (touch) and box (push).
PROBE_ENVS = (
    "ant_reach_3", "ant_reach_handsup_5", "claw_reach_4", "claw_touch_handsup_3",
    "centipede_touch_3", "centipede_reach_handsup2_4", "worm_touch_4", "worm_push_2",
    "ant_push_3", "ant_reach_4_missing_1", "ant_reach_hard_4_mass_0.5_1.0_3.0",
    "ant_reach_4_size_0.5_1.5_1.0")
PROBE_SEEDS = tuple(range(menv.D_MAX_PROBE_SEED,
                          menv.D_MAX_PROBE_SEED + menv.D_MAX_PROBE_RESETS))


@pytest.mark.parametrize("env_id", PROBE_ENVS)
def test_reset_draws_equal_generator_oracle(env_id):
    spec = make_env(env_id)
    seeds = (0, 1, 2**32, 2**63, 2**64 - 1, np.int64(7)) + PROBE_SEEDS
    goals, theta, ball, box = menv._reset_draws(
        menv._body_table(spec.graph), spec.graph, spec.task, seeds)
    assert goals.shape == (len(seeds), len(spec.task.goals), 3)
    for b, seed in enumerate(seeds):
        ref_goals, ref_theta, ref_ball, ref_box = _oracle_draws(spec.graph, spec.task, seed)
        assert goals[b].tobytes() == ref_goals.tobytes()
        assert theta[b].tobytes() == ref_theta.tobytes()
        for got, ref in ((ball, ref_ball), (box, ref_box)):
            assert (got is None) == (ref is None)
            assert got is None or got[b].tobytes() == ref.tobytes()


def test_reset_draws_reject_seeds_outside_philox_keys():
    spec = make_env("ant_reach_3")
    table = menv._body_table(spec.graph)
    for seed in (-1, 2**128):
        with pytest.raises((ValueError, OverflowError)):
            np.random.Philox(key=seed)
        with pytest.raises((ValueError, OverflowError)):
            menv._reset_draws(table, spec.graph, spec.task, [seed])
    with pytest.raises(TypeError):
        reset(spec, 1.5)


def test_make_env_and_reset_read_no_os_entropy(monkeypatch):
    """numpy seeds an unseeded bit generator from OS entropy through
    numpy.random.bit_generator.randbits; make_env's probe and reset must
    never need one."""
    from numpy.random import bit_generator
    draws = []
    real = bit_generator.randbits
    monkeypatch.setattr(bit_generator, "randbits",
                        lambda bits: draws.append(bits) or real(bits))
    np.random.Philox()                   # control: the spy sees an unseeded build
    assert len(draws) == 1
    draws.clear()
    for cache in (make_env, menv._body_table, menv.resolve_target):
        cache.cache_clear()
    spec = make_env("ant_push_3")
    reset(spec, 17)
    assert draws == []


# --- forward kinematics --------------------------------------------------------

def test_fk_single_segment_zero_angle():
    g = chain_graph(1)
    pos, _ = forward_kinematics(g, [0.0])
    np.testing.assert_allclose(pos[1], [0.4, 0.0, 0.0], atol=1e-12)


def test_fk_quarter_turn():
    g = chain_graph(1)
    pos, _ = forward_kinematics(g, [math.pi / 2])
    np.testing.assert_allclose(pos[1], [0.0, 0.4, 0.0], atol=1e-9)


def test_fk_two_link_closed_form():
    g = chain_graph(2)
    pos, _ = forward_kinematics(g, [math.pi / 4, math.pi / 4])
    expected = [0.4 * math.cos(math.pi / 4) + 0.4 * math.cos(math.pi / 2),
                0.4 * math.sin(math.pi / 4) + 0.4 * math.sin(math.pi / 2), 0.0]
    np.testing.assert_allclose(pos[2], expected, atol=1e-6)
    np.testing.assert_allclose(pos[2], [0.28284, 0.68284, 0.0], atol=1e-5)


def test_fk_dimension_mismatch():
    g = chain_graph(2)
    with pytest.raises(ShapeError):
        forward_kinematics(g, [0.0])


def _homogeneous_oracle(graph, theta):
    """Independent FK via 4x4 matrices."""
    def rot(axis, angle):
        axis = np.asarray(axis, dtype=float)
        c, s = math.cos(angle), math.sin(angle)
        x, y, z = axis
        K = np.array([[0, -z, y], [z, 0, -x], [-y, x, 0]])
        R = np.eye(3) * c + s * K + (1 - c) * np.outer(axis, axis)
        T = np.eye(4)
        T[:3, :3] = R
        return T

    def trans(v):
        T = np.eye(4)
        T[:3, 3] = v
        return T

    mats = {0: np.eye(4)}
    out = np.zeros((graph.n_nodes, 3))
    dof = 0
    for e in graph.edges:
        child = graph.nodes[e.child_id]
        T = mats[e.parent_id] @ trans(child.attach_offset)
        for act in e.actuators:
            T = T @ rot(act.axis, theta[dof])
            dof += 1
        T = T @ trans((child.length, 0.0, 0.0))
        mats[e.child_id] = T
        out[e.child_id] = T[:3, 3]
    return out


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_fk_matches_homogeneous_oracle(depth, seed):
    rng = np.random.default_rng(seed)
    axes = []
    for _ in range(depth):
        v = rng.normal(size=3)
        while np.linalg.norm(v) < 1e-3:
            v = rng.normal(size=3)
        axes.append(tuple(v / np.linalg.norm(v)))
    g = chain_graph(depth, axes=axes)
    theta = rng.uniform(-math.pi, math.pi, size=depth)
    pos, _ = forward_kinematics(g, theta)
    np.testing.assert_allclose(pos, _homogeneous_oracle(g, theta), atol=1e-9)


def test_fk_batched_matches_loop():
    g = generate_morphology("ant", 3)
    rng = np.random.default_rng(0)
    thetas = rng.uniform(-1, 1, size=(5, g.action_dimension()))
    batch_pos, batch_q = forward_kinematics(g, thetas)
    for i in range(5):
        p, q = forward_kinematics(g, thetas[i])
        np.testing.assert_array_equal(batch_pos[i], p)
        np.testing.assert_array_equal(batch_q[i], q)
    # Two leading batch dims, on bodies where a separate batched recursion
    # could round differently from the single-state FK.
    for env_id in ("ant_reach_3", "centipede_reach_3", "claw_reach_3", "worm_touch_4"):
        g = make_env(env_id).graph
        rng = np.random.default_rng(0)
        thetas = rng.uniform(-1, 1, size=(2, 3, g.action_dimension()))
        batch_pos, batch_q = forward_kinematics(g, thetas)
        assert batch_pos.shape == (2, 3, g.n_nodes, 3)
        for i in range(2):
            for j in range(3):
                p, q = forward_kinematics(g, thetas[i, j])
                np.testing.assert_array_equal(batch_pos[i, j], p)
                np.testing.assert_array_equal(batch_q[i, j], q)


ARRAY_FK_ENVS = ("ant_reach_3", "claw_reach_3", "centipede_touch_3", "worm_touch_4",
                 "ant_reach_4_missing_1", "ant_reach_hard_4_mass_0.5_1.0_3.0",
                 "ant_reach_4_size_0.5_1.5_1.0")


@pytest.mark.parametrize("env_id", ARRAY_FK_ENVS)
def test_array_fk_equals_fk_frames_bit_for_bit(env_id):
    g = make_env(env_id).graph
    A = g.action_dimension()
    rng = np.random.default_rng(7)
    thetas = rng.uniform(-2.0, 2.0, size=(1000, A))
    thetas[0] = 0.0
    thetas[1] = -0.0                     # sin(-0.0) keeps the zero's sign
    thetas[2, ::2] = -0.0
    for rows in (thetas[:1], thetas[:3], thetas):
        pos, quat = forward_kinematics(g, rows)
        assert pos.shape == (len(rows), g.n_nodes, 3)
        for b, theta in enumerate(rows):
            ref_pos, ref_quat, _, _ = menv.fk_frames(g, theta)
            assert pos[b].tobytes() == ref_pos.tobytes()
            assert quat[b].tobytes() == ref_quat.tobytes()


def _scalar_probed_d_max(graph, task):
    """Reference for the d_max probe: per probe seed the oracle's draws,
    scalar FK and goal_distances, summed in seed order.  Returns the
    unrounded means and the task with d_max set from them."""
    sums = np.zeros(len(task.goals))
    for seed in PROBE_SEEDS:
        goals, theta, ball, box = _oracle_draws(graph, task, seed)
        pos, quat, _, _ = menv.fk_frames(graph, theta)
        sums += menv.goal_distances(EnvState(
            graph=graph, task=task, joint_angles=theta, goals=tuple(goals),
            positions=pos, orientations=quat, ball_pos=ball, box_pos=box))
    means = sums / menv.D_MAX_PROBE_RESETS
    return means, dataclasses.replace(task, d_max=tuple(
        menv.q9(max(float(m), task.d_min[g] * 2.0)) for g, m in enumerate(means)))


@pytest.mark.parametrize("env_id", PROBE_ENVS)
def test_probed_task_text_equals_scalar_probe(env_id):
    spec = make_env(env_id)
    means, task = _scalar_probed_d_max(spec.graph, spec.task)
    assert menv._probed_mean_distances(spec.graph, spec.task).tobytes() == means.tobytes()
    assert serialize_task(spec.task) == serialize_task(task)


# Per task name: task kind and (goal kind, target selector) per goal on ant_5.
TASK_TABLE = {
    "reach": ("reach", [("xy_position", "ee0")]),
    "reach_hard": ("reach_hard", [("xy_position", "ee0")]),
    "touch": ("touch", [("ball_contact", "ee0")]),
    "push": ("push", [("box_to_target", "ee0")]),
    "reach_handsup": ("twister", [("xy_position", "ee0"), ("z_height", "ee1")]),
    "reach_hard_handsup": ("twister", [("xy_position", "ee0"), ("z_height", "ee1")]),
    "reach2_handsup": ("twister", [("xy_position", "ee0"), ("xy_position", "ee1"),
                                   ("z_height", "ee2")]),
    "reach_handsup2": ("twister", [("xy_position", "ee0"), ("z_height", "ee1"),
                                   ("z_height", "ee2")]),
    "touch_handsup": ("twister", [("ball_contact", "ee0"), ("z_height", "ee1")]),
}


@pytest.mark.parametrize("task_name", menv.TASK_NAMES)
def test_make_task_goal_kinds_and_targets(task_name):
    kind, goals = TASK_TABLE[task_name]
    task = menv.make_task(generate_morphology("ant", 5), task_name)
    assert task.task_kind == kind
    assert [(t.goal_kind, t.target_selector) for t in task.goals] == goals


@pytest.mark.parametrize("blueprint", ["worm", "centipede"])
def test_touch_on_a_spine_body_targets_the_torso(blueprint):
    task = menv.make_task(generate_morphology(blueprint, 3), "touch")
    assert [(t.goal_kind, t.target_selector) for t in task.goals] == \
        [("ball_contact", "torso")]


@pytest.mark.parametrize("blueprint,count,task_name", [
    ("worm", 3, "reach_handsup"), ("worm", 3, "touch_handsup"),
    ("ant", 2, "reach2_handsup"), ("claw", 2, "reach_handsup2")])
def test_twister_needing_more_limbs_than_the_body_has(blueprint, count, task_name):
    graph = generate_morphology(blueprint, count)
    with pytest.raises(ValueError, match=f"^{task_name} needs"):
        menv.make_task(graph, task_name)


# --- stepping -------------------------------------------------------------------

def _toy_state(n_segments=2, r_lo=0.45, r_hi=0.75, seed=0):
    g = chain_graph(n_segments)
    task = reach_task(r_lo, r_hi)
    return reset(EnvSpec("toy", g, task), seed)


def test_zero_action_keeps_angles():
    s0 = _toy_state()
    s1 = step(s0, np.zeros(2))
    np.testing.assert_array_equal(s1.joint_angles, s0.joint_angles)
    assert s1.step_count == 1


def test_action_clamped_at_range():
    g = chain_graph(1, axes=[(0, 0, 1)])
    act = g.edges[0].actuators[0]
    task = reach_task(0.3, 0.4)
    state = reset(EnvSpec("toy", g, task), 0)
    state = EnvState(**{**state.__dict__, "joint_angles": np.array([act.range_hi])})
    s1 = step(state, np.array([1.0]))
    assert s1.joint_angles[0] == act.range_hi


def test_episode_over_raises():
    s = _toy_state()
    s = EnvState(**{**s.__dict__, "step_count": s.task.episode_length})
    with pytest.raises(EpisodeOverError):
        step(s, np.zeros(2))


def test_box_push_overlap_arithmetic():
    # node sphere r=0.08 at distance 0.10 from box sphere r=0.05: overlap 0.03
    positions = np.array([[0.0, 0.0, 0.0]])
    radii = np.array([0.08])
    box = np.array([0.10, 0.0, 0.0])
    moved = resolve_box_push(positions, radii, box, box_radius=0.05)
    np.testing.assert_allclose(moved, [0.13, 0.0, 0.0], atol=1e-12)


def _reference_box_push(node_positions, node_radii, box_pos, box_radius=menv.BOX_RADIUS):
    """Reference: every node in id order against the box as earlier nodes
    left it."""
    box = np.asarray(box_pos, dtype=np.float64).copy()
    for i in range(node_positions.shape[0]):
        delta = box - node_positions[i]
        overlap = float(node_radii[i]) + box_radius - menv._norm(delta)
        if overlap > 0.0:
            normal = np.array([delta[0], delta[1], 0.0])
            norm = menv._norm(normal)
            if norm > 1e-12:
                box = box + (normal / norm) * overlap
    return box


_SIXTY_FOURTHS = st.integers(-64, 64).map(lambda k: k / 64)


@st.composite
def _box_layouts(draw):
    """Nodes around a box: anywhere close, within 1e-12 of touching it, just
    clear of it (so that an earlier node's push can bring it into contact),
    or touching it exactly.  With box radius 1/8 and coordinates in 1/64ths
    an axis-aligned touch has exactly zero overlap in floating point."""
    box_radius = draw(st.sampled_from([menv.BOX_RADIUS, 0.125]))
    box = np.array(draw(st.tuples(*[_SIXTY_FOURTHS] * 3)))
    radii, positions = [], []
    for _ in range(draw(st.integers(1, 8))):
        r = draw(st.integers(1, 16)) / 64
        kind = draw(st.sampled_from(["free", "near", "clear", "touch"]))
        if kind == "free":
            offset = np.array(draw(st.tuples(*[st.floats(-0.5, 0.5)] * 3)))
        elif kind in ("near", "clear"):
            a = draw(st.floats(0.0, 2.0 * math.pi))
            b = draw(st.floats(-0.5 * math.pi, 0.5 * math.pi))
            gap = draw(st.floats(1e-9, 0.05)) if kind == "clear" else draw(
                st.sampled_from([0.0, 1e-12, -1e-12]) | st.floats(-1e-12, 1e-12))
            offset = (r + box_radius + gap) * np.array(
                [math.cos(a) * math.cos(b), math.sin(a) * math.cos(b), math.sin(b)])
        else:
            offset = np.zeros(3)
            offset[draw(st.integers(0, 2))] = draw(st.sampled_from([-1.0, 1.0])) * (r + box_radius)
        radii.append(r)
        positions.append(box - offset)
    return np.array(positions), np.array(radii), box, box_radius


@settings(max_examples=300, deadline=None)
@given(_box_layouts())
def test_box_push_equals_per_node_loop(layout):
    positions, radii, box, box_radius = layout
    got = resolve_box_push(positions, radii, box, box_radius)
    assert got.tobytes() == _reference_box_push(positions, radii, box, box_radius).tobytes()


def test_box_push_exact_touch_leaves_box():
    box = np.array([0.25, -0.5, 0.0])
    positions = np.array([box - [0.125 + 0.0625, 0.0, 0.0], box + [0.0, 0.125 + 0.0625, 0.0]])
    assert resolve_box_push(positions, np.array([0.0625, 0.0625]), box, 0.125).tobytes() \
        == box.tobytes()


def _replace_step(state, actions, dt=menv.DT):
    """Reference: step as a dataclasses.replace of the previous state."""
    table = menv._body_table(state.graph)
    a = np.clip(np.asarray(actions, dtype=np.float64), -1.0, 1.0)
    theta = np.clip(state.joint_angles + table.gears * a * menv.OMEGA_MAX * dt,
                    table.lo, table.hi)
    pos, quat, axes, anchors = menv.fk_frames(state.graph, theta)
    box = state.box_pos
    if box is not None:
        box = resolve_box_push(pos, table.radii, box)
    return dataclasses.replace(
        state, joint_angles=theta, positions=pos, orientations=quat,
        dof_axes=axes, dof_anchors=anchors, step_count=state.step_count + 1,
        box_pos=box, prev_joint_angles=state.joint_angles,
        prev_positions=state.positions, prev_orientations=state.orientations)


@pytest.mark.parametrize("env_id", ["ant_reach_2", "worm_touch_2", "ant_push_3"])
def test_step_at_rest_reuses_frames_equal_to_fresh_fk(env_id):
    spec = make_env(env_id)
    A = spec.graph.action_dimension()
    s = reset(spec, 3)
    reused = 0
    for t in range(90):
        # every third action is zero, so the angles stay put byte for byte
        new = step(s, np.zeros(A) if t % 3 == 0 else scripted_expert(s))
        fresh = menv.fk_frames(spec.graph, new.joint_angles)
        for got, ref in zip((new.positions, new.orientations, new.dof_axes,
                             new.dof_anchors), fresh):
            assert got.tobytes() == ref.tobytes()
        reused += new.positions is s.positions
        s = new
    assert reused >= 30


def test_step_from_negative_zero_angle_runs_fk():
    g = chain_graph(2)
    theta = np.array([-0.0, 0.3])
    pos, quat, axes, anchors = menv.fk_frames(g, theta)
    s = EnvState(graph=g, task=reach_task(0.45, 0.75), joint_angles=theta,
                 goals=(np.zeros(3),), positions=pos, orientations=quat,
                 dof_axes=axes, dof_anchors=anchors)
    new = step(s, np.zeros(2))           # -0.0 + 0.0 is +0.0: other bytes
    assert new.joint_angles.tobytes() != theta.tobytes()
    assert new.positions is not s.positions
    for got, ref in zip((new.positions, new.orientations, new.dof_axes,
                         new.dof_anchors), menv.fk_frames(g, new.joint_angles)):
        assert got.tobytes() == ref.tobytes()


def test_one_shape_error_class():
    assert ShapeError is nn.ShapeError
    with pytest.raises(nn.ShapeError, match="expected 4 actions"):
        step(reset(make_env("ant_reach_2"), 0), np.zeros(3))


@pytest.mark.parametrize("env_id, scene", [("worm_touch_2", "ball_pos"),
                                           ("ant_push_3", "box_pos"),
                                           ("ant_reach_2", None)])
def test_step_state_equals_replace_reference(env_id, scene):
    spec = make_env(env_id)
    rng = np.random.default_rng(0)
    s = reset(spec, 3)
    for t in range(60):
        a = scripted_expert(s) if t % 2 else rng.uniform(-1, 1, spec.graph.action_dimension())
        new, ref = step(s, a), _replace_step(s, a)
        for f in dataclasses.fields(EnvState):
            x, y = getattr(new, f.name), getattr(ref, f.name)
            if isinstance(y, np.ndarray):
                assert x.shape == y.shape and x.tobytes() == y.tobytes(), f.name
            else:
                assert x is y or x == y, f.name
        s = new
    for name in ("ball_pos", "box_pos"):
        assert (getattr(s, name) is not None) == (name == scene)


def test_determinism_full_trajectory():
    spec = make_env("ant_reach_3")
    rng = np.random.default_rng(7)
    actions = rng.uniform(-1, 1, size=(20, spec.graph.action_dimension()))

    def run():
        s = reset(spec, 42)
        states = [s]
        for a in actions:
            s = step(s, a)
            states.append(s)
        return states

    sa, sb = run(), run()
    for x, y in zip(sa, sb):
        np.testing.assert_array_equal(x.joint_angles, y.joint_angles)
        np.testing.assert_array_equal(x.positions, y.positions)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 1000))
def test_angles_never_leave_range(seed):
    spec = make_env("ant_reach_2")
    rng = np.random.default_rng(seed)
    s = reset(spec, seed)
    acts = [act for e in spec.graph.edges for act in e.actuators]     # in dof order
    for _ in range(30):
        s = step(s, rng.uniform(-2, 2, size=spec.graph.action_dimension()))
        for dof, act in enumerate(acts):
            assert act.range_lo <= s.joint_angles[dof] <= act.range_hi


# --- goal distances --------------------------------------------------------------

def test_distance_zero_at_goal():
    s = _toy_state()
    target = s.graph.end_effectors()[0]
    goal = s.positions[target].copy()
    s = EnvState(**{**s.__dict__, "goals": (goal,)})
    assert goal_distance(s, 0) == 0.0


def test_distance_euclidean():
    s = _toy_state()
    s = EnvState(**{**s.__dict__, "goals": (np.zeros(3),)})
    target = s.graph.end_effectors()[0]
    p = s.positions[target]
    assert goal_distance(s, 0) == pytest.approx(math.hypot(p[0], p[1]))


def test_touch_surface_contact_zero():
    g = chain_graph(1)
    task = TaskSpec("touch", (GoalTemplate("ball_contact", "ee0", 0.5, 0.6),),
                    (0.01,), (2.0,), 500)
    s = reset(EnvSpec("toy", g, task), 0)
    target = g.end_effectors()[0]
    # place the ball exactly at surface contact
    contact = s.positions[target] + np.array(
        [g.nodes[target].radius + menv.BALL_RADIUS, 0.0, 0.0])
    s = EnvState(**{**s.__dict__, "ball_pos": contact})
    assert goal_distance(s, 0) == pytest.approx(0.0, abs=1e-12)


def test_distance_nonnegative_random():
    spec = make_env("ant_reach_handsup_4")
    s = reset(spec, 3)
    rng = np.random.default_rng(0)
    for _ in range(50):
        s = step(s, rng.uniform(-1, 1, size=spec.graph.action_dimension()))
        for gidx in range(len(spec.task.goals)):
            assert goal_distance(s, gidx) >= 0.0


# --- scripted expert ----------------------------------------------------------------

def test_expert_zero_at_optimum():
    s = _toy_state()
    target = s.graph.end_effectors()[0]
    s = EnvState(**{**s.__dict__, "goals": (s.positions[target].copy(),)})
    np.testing.assert_allclose(scripted_expert(s), np.zeros(2), atol=1e-9)


def test_expert_converges_two_link():
    # blueprint leg geometry: yaw hip steers the planar direction, pitch
    # elbow sets the radius, so the two gradient flows decouple
    g = chain_graph(2, axes=[(0, 0, 1), (0, 1, 0)],
                    ranges=[(-math.pi - 0.8, math.pi + 0.8),
                            (-math.pi / 2, math.pi / 2)])
    task = reach_task(0.45, 0.75)
    for seed in range(5):
        s = reset(EnvSpec("toy", g, task), seed)
        reached = False
        for _ in range(200):
            s = step(s, scripted_expert(s))
            if goal_distance(s, 0) <= task.d_min[0]:
                reached = True
                break
        assert reached, f"seed {seed}: final distance {goal_distance(s, 0)}"


def test_expert_single_step_descends():
    s = _toy_state(seed=11)
    before = goal_distance(s, 0)
    s1 = step(s, scripted_expert(s))
    assert goal_distance(s1, 0) < before


def test_expert_touches_only_target_path():
    spec = make_env("ant_reach_4")
    s = reset(spec, 5)
    a = scripted_expert(s)
    target = spec.graph.end_effectors()[0]
    path = list(_root_path_dofs(spec.graph, target))
    off_path = [i for i in range(spec.graph.action_dimension()) if i not in path]
    np.testing.assert_array_equal(a[off_path], 0.0)
    assert np.any(a[path] != 0.0)


def test_push_task_plumbing():
    spec = make_env("ant_push_3")
    assert spec.task.task_kind == "push"
    s = reset(spec, 0)
    assert s.box_pos is not None
    d0 = goal_distance(s, 0)
    assert d0 > 0.0
    box0 = s.box_pos.copy()
    for _ in range(200):
        s = step(s, scripted_expert(s))
    assert np.isfinite(goal_distance(s, 0))
    # the pusher makes contact: overlap resolution translates the box
    assert not np.allclose(s.box_pos, box0)


def test_twister_expert_step_decreases_total_distance():
    spec = make_env("ant_reach_handsup_4")
    for seed in range(5):
        s = reset(spec, seed)
        before = sum(goal_distance(s, g) for g in range(2))
        s1 = step(s, scripted_expert(s))
        assert sum(goal_distance(s1, g) for g in range(2)) < before


def test_jacobian_matches_finite_differences():
    g = generate_morphology("claw", 3)
    rng = np.random.default_rng(1)
    theta = rng.uniform(-0.8, 0.8, size=g.action_dimension())
    target = g.end_effectors()[1]
    J = position_jacobian(g, theta, target)
    eps = 1e-7
    for dof in range(g.action_dimension()):
        tp, tm = theta.copy(), theta.copy()
        tp[dof] += eps
        tm[dof] -= eps
        pp, _ = forward_kinematics(g, tp)
        pm, _ = forward_kinematics(g, tm)
        fd = (pp[target] - pm[target]) / (2 * eps)
        np.testing.assert_allclose(J[:, dof], fd, atol=1e-6)


# --- observations --------------------------------------------------------------------

def slot(spec, flag: str) -> slice:
    """Column range of a flag within spec's per-node feature row."""
    start = spec.flags.index(flag)
    return slice(sum(FLAG_WIDTHS[f] for f in spec.flags[:start]),
                 sum(FLAG_WIDTHS[f] for f in spec.flags[:start + 1]))


def test_base_set_width():
    spec = build_observation_spec(["p", "v", "q", "a", "ja", "jr"])
    assert spec.width == 22
    s = _toy_state()
    obs = local_observations(s, spec)
    assert obs.shape == (s.graph.n_nodes, 22)


def test_base_set_plus_m_width():
    spec = build_observation_spec(["p", "v", "q", "a", "ja", "jr", "m"])
    assert spec.width == 30


def test_reset_velocities_exactly_zero():
    spec = build_observation_spec(["p", "v", "q", "a", "ja", "jr", "jv", "m"])
    s = _toy_state()
    obs = local_observations(s, spec)
    assert np.all(obs[:, slot(spec, "v")] == 0.0)
    assert np.all(obs[:, slot(spec, "a")] == 0.0)
    assert np.all(obs[:, slot(spec, "jv")] == 0.0)
    s1 = step(s, np.full(2, 0.5))
    obs1 = local_observations(s1, spec)
    assert np.any(obs1[:, slot(spec, "jv")] != 0.0)


def test_root_joint_slots_zero():
    spec = build_observation_spec(["ja", "jr", "m"])
    s = _toy_state()
    obs = local_observations(s, spec)
    assert np.all(obs[0, slot(spec, "ja")] == 0.0)
    assert np.all(obs[0, slot(spec, "jr")] == 0.0)


# --- task text format ------------------------------------------------------------------

def test_task_round_trip():
    spec = make_env("ant_reach_handsup_3")
    text = serialize_task(spec.task)
    assert parse_task(text) == spec.task
    assert serialize_task(parse_task(text)) == text


def test_task_parse_error_line():
    with pytest.raises(menv.TaskParseError):
        parse_task("task reach goals=2 episode=500\ngoal xy_position ee0 0 1 0 0 0.01 2\n")


@pytest.mark.parametrize("goal_line,line_no,message", [
    ("goal xy_position ee0 0 1 0 0 nan 2", 1, "goal 0: need finite 0 <= d_min < d_max"),
    ("goal xy_position ee0 0 1 0 0 0.01 inf", 1, "goal 0: need finite 0 <= d_min < d_max"),
    ("goal xy_position ee0 0 1 0 0 5.0 1.0", 1, "goal 0: need finite 0 <= d_min < d_max"),
    ("goal xy_position ee0 0 one 0 0 0.01 2", 2, "could not convert string to float"),
    ("goal xy_position ee0 0 inf 0 0 0.01 2", 2, "bad annulus"),
    ("goal spiral ee0 0 1 0 0 0.01 2", 2, "unknown goal kind"),
])
def test_task_parse_rejects_bad_goal_line(goal_line, line_no, message):
    with pytest.raises(menv.TaskParseError) as exc:
        parse_task(f"task reach goals=1 episode=500\n{goal_line}\n")
    assert exc.value.line_no == line_no
    assert message in str(exc.value)


def test_task_parse_rejects_bad_header_values():
    goal = "goal xy_position ee0 0 1 0 0 0.01 2\n"
    for header, message in (("task reach goals=1 episode=0", "episode length 0"),
                            ("task dance goals=1 episode=500", "unknown task kind")):
        with pytest.raises(menv.TaskParseError, match=f"line 1: {message}"):
            parse_task(f"{header}\n{goal}")


def test_dataset_with_nan_task_bound_is_rejected(tmp_path):
    ds, _ = generate_dataset([make_env("ant_reach_2")], n_transitions=5, seed=0)
    tag, meta, tensors = artifacts.parse(dataset_bytes(ds), DATASET_MAGIC)
    env0 = meta["environments"][0]
    header, goal = env0["task"].splitlines()
    env0["task"] = f"{header}\n{' '.join(goal.split()[:7])} nan {goal.split()[8]}\n"
    path = tmp_path / "nan.cgds"
    path.write_bytes(artifacts.to_bytes(DATASET_MAGIC, tag, meta, list(tensors.items())))
    with pytest.raises(CorruptionError, match="d_min"):
        read_dataset(path)


# --- text parsers under mutation ------------------------------------------------------------

MUTATION_TOKENS = ("nan", "inf", "-inf", "1e999", "-1", "0", "-", "x", "#", "\n", "",
                   "node", "edge", "act", "goal", "torso")


def _mutated(data, text):
    """text after one to three random truncations, bit flips, token
    insertions or token replacements."""
    for _ in range(data.draw(st.integers(1, 3))):
        op = data.draw(st.sampled_from(("truncate", "flip", "insert", "replace")))
        if op == "truncate" or not text:
            text = text[:data.draw(st.integers(0, len(text)))]
        elif op == "flip":
            i = data.draw(st.integers(0, len(text) - 1))
            text = text[:i] + chr(ord(text[i]) ^ (1 << data.draw(st.integers(0, 6)))) \
                + text[i + 1:]
        elif op == "insert":
            i = data.draw(st.integers(0, len(text)))
            text = text[:i] + data.draw(st.sampled_from(MUTATION_TOKENS)) + text[i:]
        else:
            words = text.split(" ")
            words[data.draw(st.integers(0, len(words) - 1))] = \
                data.draw(st.sampled_from(MUTATION_TOKENS))
            text = " ".join(words)
    return text


@settings(settings.get_profile("ci"), max_examples=400, deadline=None)
@given(st.data())
def test_text_parsers_raise_only_their_own_error(data):
    env_id = data.draw(st.sampled_from(("ant_reach_3", "claw_reach_hard_2",
                                        "worm_push_2", "ant_reach_handsup2_4")))
    spec = make_env(env_id)
    for text, parse, error in ((serialize_morphology(spec.graph), parse_morphology,
                                MorphologyParseError),
                               (serialize_task(spec.task), parse_task,
                                menv.TaskParseError)):
        try:
            parse(_mutated(data, text))
        except error:
            pass


# --- env ids ------------------------------------------------------------------------------

def test_parse_env_ids():
    assert parse_env_id("ant_reach_4") == ("ant", "reach", 4, {})
    assert parse_env_id("ant_reach_hard_5") == ("ant", "reach_hard", 5, {})
    assert parse_env_id("centipede_touch_3") == ("centipede", "touch", 3, {})
    assert parse_env_id("ant_reach_handsup2_6") == ("ant", "reach_handsup2", 6, {})
    bp, task, count, var = parse_env_id("ant_reach_hard_4_mass_0.5_1.0_3.0")
    assert (bp, task, count) == ("ant", "reach_hard", 4)
    assert var == {"mass_scales": (0.5, 1.0, 3.0)}
    assert parse_env_id("ant_reach_4_missing_1")[3] == {"missing": 1}


@pytest.mark.parametrize("env_id, reason", [
    ("ant_reach_3_missing", "variant 'missing' needs 1 value"),
    ("ant_reach_3_mass_1.0", "variant 'mass' needs 3 value"),
    ("ant_reach_3_size_1.0_2.0", "variant 'size' needs 3 value"),
    ("ant_reach_3_missing_x", "invalid literal for int"),
    ("ant_reach_3_mass_1.0_x_2.0", "could not convert string to float"),
    ("ant_reach_x", "invalid literal for int"),
    ("ant_reach_3_mass_1_1_1_1", "unknown variant tokens"),
    ("ant_reach", "cannot parse"),
    ("ant_fly_3", "cannot parse"),
])
def test_malformed_env_id_is_value_error_naming_it(env_id, reason):
    with pytest.raises(ValueError) as info:
        parse_env_id(env_id)
    assert repr(env_id) in str(info.value) and reason in str(info.value)


@pytest.mark.parametrize("env_id", ["ant_reach_3_size_inf_1_1", "ant_reach_3_mass_nan_1_1"])
def test_non_finite_scale_is_value_error(env_id):
    with pytest.raises(ValueError, match="invalid body"):
        make_env(env_id)


ENV_ID_TOKENS = ("missing", "mass", "size", "reach", "hard", "handsup", "handsup2",
                 "touch", "push", "ant", "worm", "0", "1", "3", "9", "-1", "1.0",
                 "0.5", "nan", "inf", "1e999", "x", "")


@settings(settings.get_profile("ci"), max_examples=300, deadline=None)
@given(st.data())
def test_mutated_env_ids_raise_only_value_error(data):
    tokens = data.draw(st.sampled_from((
        "ant_reach_3", "claw_reach_hard_2", "worm_push_2", "ant_reach_handsup2_4",
        "centipede_touch_handsup_4_missing_1", "ant_reach_4_mass_0.5_1.0_3.0",
        "claw_reach_3_size_0.5_1.5_1.0"))).split("_")
    for _ in range(data.draw(st.integers(1, 3))):
        op = data.draw(st.sampled_from(("drop", "insert", "replace", "flip")))
        i = data.draw(st.integers(0, len(tokens) - 1)) if tokens else 0
        if op == "drop" and tokens:
            del tokens[i]
        elif op == "insert" or not tokens:
            tokens.insert(i, data.draw(st.sampled_from(ENV_ID_TOKENS)))
        elif op == "replace":
            tokens[i] = data.draw(st.sampled_from(ENV_ID_TOKENS))
        elif tokens[i]:
            j = data.draw(st.integers(0, len(tokens[i]) - 1))
            tokens[i] = tokens[i][:j] + chr(ord(tokens[i][j]) ^ 1) + tokens[i][j + 1:]
    env_id = "_".join(tokens)
    for build in (parse_env_id, make_env):
        try:
            build(env_id)
        except ValueError:
            pass


def test_make_env_deterministic_and_valid():
    a = make_env("ant_reach_handsup_3")
    b = make_env("ant_reach_handsup_3")
    assert a is b  # cached
    assert serialize_task(a.task) == serialize_task(b.task)
    assert a.task.d_max[0] > a.task.d_min[0]


def test_twister_goals_on_distinct_effectors():
    spec = make_env("ant_reach2_handsup_4")
    sels = [g.target_selector for g in spec.task.goals]
    assert sels == ["ee0", "ee1", "ee2"]
    assert spec.task.task_kind == "twister"


# --- array-op observations and stored Jacobian frames ----------------------------

ALL_FLAGS = build_observation_spec(["p", "v", "q", "a", "ja", "jr", "jv", "id",
                                    "rp", "rr", "m"])
EQUIVALENCE_ENVS = ("ant_reach_3", "claw_reach_3", "centipede_touch_3",
                    "worm_touch_4", "ant_reach_4_missing_1",
                    "ant_reach_hard_4_mass_0.5_1.0_3.0")


def reference_local_observations(state, spec, dt=menv.DT):
    """Per-node, per-flag loop: the arithmetic local_observations must match."""
    graph = state.graph
    n = graph.n_nodes
    A = graph.action_dimension()
    at_reset = state.prev_joint_angles is None
    rows = np.zeros((n, spec.width), dtype=np.float64)
    parent = {e.child_id: e for e in graph.edges}
    for node in graph.nodes:
        i = node.node_id
        cols = []
        edge = parent.get(i)
        for flag in spec.flags:
            if flag == "p":
                cols.append(state.positions[i])
            elif flag == "v":
                cols.append(np.zeros(3) if at_reset else
                            (state.positions[i] - state.prev_positions[i]) / dt)
            elif flag == "q":
                cols.append(state.orientations[i])
            elif flag == "a":
                if at_reset:
                    cols.append(np.zeros(3))
                else:
                    dq = menv.quat_mul(state.orientations[i],
                                       menv.quat_conj(state.prev_orientations[i]))
                    cols.append(menv.quat_to_rotvec(dq) / dt)
            elif flag == "ja":
                slot = np.zeros(3)
                if edge is not None:
                    k = len(edge.actuators)
                    slot[:k] = state.joint_angles[node.dof_index: node.dof_index + k]
                cols.append(slot)
            elif flag == "jr":
                slot = np.zeros(6)
                if edge is not None:
                    for j, act in enumerate(edge.actuators):
                        slot[2 * j] = act.range_lo
                        slot[2 * j + 1] = act.range_hi
                cols.append(slot)
            elif flag == "jv":
                slot = np.zeros(3)
                if edge is not None and not at_reset:
                    k = len(edge.actuators)
                    sl = slice(node.dof_index, node.dof_index + k)
                    slot[:k] = (state.joint_angles[sl]
                                - state.prev_joint_angles[sl]) / dt
                cols.append(slot)
            elif flag == "id":
                cols.append(np.array([i / n]))
            elif flag == "rp":
                cols.append(np.zeros(3) if edge is None else
                            state.positions[i] - state.positions[edge.parent_id])
            elif flag == "rr":
                cols.append(np.zeros(4) if edge is None else
                            menv.quat_mul(menv.quat_conj(state.orientations[edge.parent_id]),
                                          state.orientations[i]))
            elif flag == "m":
                gear = edge.actuators[0].gear if edge is not None else 0.0
                dof = node.dof_index / A if edge is not None else 0.0
                k1, k2 = menv._KIND_SLOTS[node.kind]
                cols.append(np.array([node.radius, node.length, node.mass,
                                      node.inertia, gear, dof, k1, k2]))
        rows[i] = np.concatenate(cols)
    return rows


def cross_jacobian(graph, joint_angles, node_id):
    """Oracle of position_jacobian: a fresh FK, then np.cross per root-path
    dof into a numpy array."""
    pos, _, axes, anchors = menv.fk_frames(graph, joint_angles)
    J = np.zeros((3, graph.action_dimension()))
    for dof in _root_path_dofs(graph, node_id):
        J[:, dof] = np.cross(axes[dof], pos[node_id] - anchors[dof])
    return J


def reference_expert(state, gain=1.0):
    """Jacobian-transpose expert with a fresh np.cross Jacobian per goal."""
    tau = np.zeros(state.graph.action_dimension())
    for g in range(len(state.task.goals)):
        if goal_distance(state, g) <= state.task.d_min[g]:
            continue
        target, err = menv._goal_error_vector(state, g, state.positions)
        J = cross_jacobian(state.graph, state.joint_angles, target)
        tau += menv._body_table(state.graph).stable_gain[target] * (J.T @ err)
    return np.clip(-gain * tau, -1.0, 1.0)


def _root_path_dofs(graph, node_id):
    """Oracle: global dof indices on the root -> node path, with the dof
    starts counted from edge order rather than read from dof_index."""
    parent = graph.parent_map
    dof_start = {}
    dof = 0
    for e in graph.edges:
        dof_start[e.child_id] = dof
        dof += len(e.actuators)
    out = []
    cur = node_id
    while cur in parent:
        e = parent[cur]
        out.extend(range(dof_start[cur], dof_start[cur] + len(e.actuators)))
        cur = e.parent_id
    return tuple(sorted(out))


@pytest.mark.parametrize("env_id", EQUIVALENCE_ENVS + ("claw_reach_handsup_3_missing_0",))
def test_body_table_root_paths_equal_edge_order_walk(env_id):
    g = make_env(env_id).graph
    table = menv._body_table(g)
    _, _, _, zero_anchors = menv.fk_frames(g, np.zeros(g.action_dimension()))
    for node in range(g.n_nodes):
        dofs = _root_path_dofs(g, node)
        assert table.path_dofs[node] == dofs
        expect = zero_anchors[dofs[0]] if dofs else np.zeros(3)
        assert table.chain_anchor[node].tobytes() == expect.tobytes()


def _expert_states(env_id, seed, n_steps=5):
    spec = make_env(env_id)
    s = reset(spec, seed)
    states = [s]
    for _ in range(n_steps):
        s = step(s, scripted_expert(s))
        states.append(s)
    return states


@pytest.mark.parametrize("env_id", EQUIVALENCE_ENVS)
def test_observations_equal_per_node_reference(env_id):
    for seed in (0, 3):
        states = _expert_states(env_id, seed)
        for s in (states[0], states[-1]):
            assert np.array_equal(local_observations(s, ALL_FLAGS),
                                  reference_local_observations(s, ALL_FLAGS))
        for flags in (["p", "v", "q", "a", "ja", "jr", "m"], ["jv", "rr"], ["id"]):
            spec = build_observation_spec(flags)
            assert np.array_equal(local_observations(states[-1], spec),
                                  reference_local_observations(states[-1], spec))


@pytest.mark.parametrize("env_id", EQUIVALENCE_ENVS + ("ant_push_3",))
def test_episode_observations_equal_per_state_rows(env_id, monkeypatch):
    # rows rebuilt from stored joint angles (one array FK, calls on blocks of
    # episode starts and of the other rows) equal each state's own call cast
    # to float32, bit for bit and -0.0/+0.0 included, whatever the block
    # size; the reset rows' v, a and jv are +0.0
    graph = make_env(env_id).graph
    episodes = [_expert_states(env_id, seed, n_steps=12) for seed in (0, 3)]
    for n, block in ((1, 2048), (2, 2048), (13, 2048), (13, 1), (13, 5)):
        monkeypatch.setattr(distill, "OBSERVATION_BLOCK", block)
        states = [s for episode in episodes for s in episode[:n]]
        ids = np.repeat(np.arange(2, dtype=np.int32), n)
        theta = np.stack([s.joint_angles for s in states])
        rows = distill._observations(graph, theta, ids, ALL_FLAGS)
        assert rows.tobytes() == np.stack(
            [local_observations(s, ALL_FLAGS) for s in states]).astype(np.float32).tobytes()
    rows = distill._observations(graph, theta, ids, build_observation_spec(["v", "a", "jv"]))
    assert rows[[0, 13]].tobytes() == np.zeros_like(rows[[0, 13]]).tobytes()


@pytest.mark.parametrize("env_id", EQUIVALENCE_ENVS + ("ant_push_3",
                                                       "ant_reach_handsup_4"))
def test_jacobian_from_stored_frames_equals_position_jacobian(env_id):
    for s in _expert_states(env_id, 1):
        g = s.graph
        A = g.action_dimension()
        pos, quat, axes, anchors = menv.fk_frames(g, s.joint_angles)
        assert np.array_equal(s.positions, pos)
        assert np.array_equal(s.orientations, quat)
        assert np.array_equal(s.dof_axes, axes)
        assert np.array_equal(s.dof_anchors, anchors)
        for node in range(g.n_nodes):
            path = menv._body_table(g).path_dofs[node]
            J = menv._jacobian(s.positions[node], s.dof_axes, s.dof_anchors, path, A)
            ref = position_jacobian(g, s.joint_angles, node)
            assert np.array_equal(J, ref) and J.flags.c_contiguous
            assert J.tobytes() == cross_jacobian(g, s.joint_angles, node).tobytes()
            for dof in path:
                assert np.array_equal(ref[:, dof], np.cross(
                    axes[dof], pos[node] - anchors[dof]))
        assert np.array_equal(scripted_expert(s), reference_expert(s))
        bare = EnvState(**{**s.__dict__, "dof_axes": None, "dof_anchors": None})
        assert np.array_equal(scripted_expert(bare), scripted_expert(s))


def test_cached_graph_tables_are_read_only():
    g = make_env("ant_reach_3").graph
    arrays = {k: v for k, v in vars(menv._body_table(g)).items() if isinstance(v, np.ndarray)}
    # FK and reset constants beside the observation tables
    assert {"gears", "reset_mid", "chain_anchor", "joint_index", "jr", "m"} <= set(arrays)
    for a in arrays.values():
        with pytest.raises(ValueError):
            a[...] = 0
    with pytest.raises(TypeError):
        g.parent_map[0] = None


# --- the lockstep step against one-episode steps ---------------------------------

def _oracle_actions(rng, t, states):
    """Step t's actions (B, A): 1.5x the scripted expert's plus noise, so
    many saturate (|a| > 1); all zero every 9th step (the angles stay put);
    +3 over steps 120-199 and -3 over 200-279, which drive every joint into
    its limits and hold it there."""
    A = states[0].joint_angles.shape[0]
    if t % 9 == 0:
        return np.zeros((len(states), A))
    if 120 <= t < 280:
        return np.full((len(states), A), 3.0 if t < 200 else -3.0)
    return 1.5 * np.stack([scripted_expert(s) for s in states]) + \
        rng.normal(0.0, 0.5, (len(states), A))


@pytest.mark.parametrize("env_id", ["ant_reach_3", "worm_touch_3",
                                    "ant_reach_handsup2_4", "ant_push_3"])
def test_lockstep_step_equals_one_episode_steps_over_full_horizon(env_id):
    # reach (xy), touch (ball), twister (xy + two z goals) and push (box)
    spec = make_env(env_id)
    table = menv._body_table(spec.graph)
    seeds = range(16)
    rng = np.random.default_rng(5)
    states = [reset(spec, s) for s in seeds]
    batch = menv.reset_batch(spec, seeds)
    for g, values in enumerate(batch.goals):
        assert values.tobytes() == np.stack([s.goals[g] for s in states]).tobytes()
    at_rest = at_limit = 0
    for t in range(spec.task.episode_length + 1):
        assert batch.step_count == t and batch.dof_axes is None
        for name in ("joint_angles", "positions", "orientations", "ball_pos",
                     "box_pos", "prev_joint_angles", "prev_positions",
                     "prev_orientations"):
            rows = getattr(batch, name)
            scalar = [getattr(s, name) for s in states]
            assert (rows is None) == (scalar[0] is None), name
            if rows is not None:
                assert rows.tobytes() == np.stack(scalar).tobytes(), (t, name)
        assert menv.batch_goal_distances(batch).tobytes() == \
            np.array([menv.goal_distances(s) for s in states]).tobytes(), t
        if t % 4 == 0:                   # the per-seed calls dominate the cost
            assert local_observations(batch, ALL_FLAGS).tobytes() == \
                np.stack([local_observations(s, ALL_FLAGS) for s in states]).tobytes(), t
        if t == spec.task.episode_length:
            break
        actions = _oracle_actions(rng, t, states)
        new = [step(s, a) for s, a in zip(states, actions)]
        at_rest += sum(n.positions is s.positions for n, s in zip(new, states))
        batch, states = step(batch, actions), new
        at_limit += np.sum((batch.joint_angles == table.lo) |
                           (batch.joint_angles == table.hi))
    with pytest.raises(EpisodeOverError):
        step(batch, actions)
    # the scalar path reused its frames at rest, and joints sat on limits
    assert at_rest > 0 and at_limit > 0
    if batch.box_pos is not None:        # the expert pushed some box
        start = menv.reset_batch(spec, seeds).box_pos
        assert np.any(batch.box_pos != start)


def test_lockstep_step_rejects_wrong_action_shape():
    batch = menv.reset_batch(make_env("ant_reach_2"), [0, 1])
    for actions in (np.zeros((2, 3)), np.zeros((3, 4)), np.zeros(4)):
        with pytest.raises(ShapeError, match="expected 4 actions"):
            step(batch, actions)


def test_huge_variation_scale_is_value_error_naming_env_id():
    env_id = "ant_reach_3_size_1e200_1e200_1e200"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"env id '{env_id}'.*overflow"):
            make_env(env_id)
