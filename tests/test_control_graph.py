from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morphtask import env as menv
from morphtask.control_graph import (
    FLAG_ORDER,
    G_MAX,
    build_cg_v1,
    build_cg_v2,
    build_observation_spec,
    cg_feature_width,
    dequantize,
    detokenize,
    mu_law,
    mu_law_inverse,
    quantize,
    tokenize_features,
)
from morphtask.distill import _history_features, build_cg
from morphtask.env import local_observations, make_env, reset, resolve_target
from morphtask.morphology import generate_morphology, parse_morphology

from test_distill import stack_history

BASE = ["p", "v", "q", "a", "ja", "jr"]


def goal_bindings(state):
    """(target node id, goal value) pairs of a state, as the control-graph
    builders take them."""
    return [(resolve_target(state.graph, tmpl.target_selector), state.goals[g])
            for g, tmpl in enumerate(state.task.goals)]


def obs_and_graph(env_id="ant_reach_4", flags=BASE + ["m"], seed=0):
    spec = make_env(env_id)
    state = reset(spec, seed)
    ospec = build_observation_spec(flags)
    return local_observations(state, ospec), goal_bindings(state), spec.graph, ospec


# --- observation spec ---------------------------------------------------------

def test_base_set_width_22():
    assert build_observation_spec(BASE).width == 22


def test_base_set_plus_m_width_30():
    assert build_observation_spec(BASE + ["m"]).width == 30


def test_full_set_width_41():
    assert build_observation_spec(FLAG_ORDER).width == 41


def test_canonical_order():
    spec = build_observation_spec(["m", "p", "ja"])
    assert spec.flags == ("p", "ja", "m")


def test_empty_flags_rejected():
    with pytest.raises(ValueError):
        build_observation_spec([])


# --- v1 -------------------------------------------------------------------------

def test_v1_zero_goals_plain_features():
    obs, _, graph, _ = obs_and_graph()
    cg = build_cg_v1(obs, [], graph)
    assert cg.width == obs.shape[1] + 3 * G_MAX + G_MAX
    np.testing.assert_array_equal(cg.node_features[:, obs.shape[1]:], 0.0)
    assert cg.n_goal_nodes == 0
    assert cg.n_nodes == graph.n_nodes


def test_v1_single_goal_layout():
    obs, _, graph, _ = obs_and_graph()
    w = obs.shape[1]
    cg = build_cg_v1(obs, [(3, (1.0, 0.5, 0.0))], graph)
    row = cg.node_features[3]
    np.testing.assert_array_equal(row[w: w + 3], [1.0, 0.5, 0.0])
    np.testing.assert_array_equal(row[w + 3: w + 9], 0.0)
    np.testing.assert_array_equal(row[w + 9: w + 12], [1.0, 0.0, 0.0])
    others = np.delete(np.arange(graph.n_nodes), 3)
    np.testing.assert_array_equal(cg.node_features[others][:, w:], 0.0)


def test_v1_two_goals_two_marked_rows():
    obs, _, graph, _ = obs_and_graph()
    w = obs.shape[1]
    cg = build_cg_v1(obs, [(3, (1, 0, 0)), (5, (0, 1, 0))], graph)
    marked = np.where(cg.node_features[:, w + 9:].any(axis=1))[0]
    np.testing.assert_array_equal(marked, [3, 5])


def test_goal_count_and_target_validation():
    obs, _, graph, _ = obs_and_graph()
    with pytest.raises(ValueError):
        build_cg_v1(obs, [(0, np.zeros(3))] * 4, graph)
    with pytest.raises(IndexError):
        build_cg_v1(obs, [(99, np.zeros(3))], graph)


# --- v2 ----------------------------------------------------------------------------

def test_v2_shapes_and_mask_sum():
    obs, bindings, graph, ospec = obs_and_graph()
    cg = build_cg_v2(obs, bindings, graph)
    assert cg.n_nodes == graph.n_nodes + len(bindings)
    assert cg.n_nodes == 10  # ant_4 + 1 reach goal
    assert cg.action_mask.sum() == graph.action_dimension() == 8
    np.testing.assert_array_equal(cg.action_mask[graph.n_nodes:], 0.0)


def test_v2_goal_row_carries_value_in_p_slots():
    obs, bindings, graph, ospec = obs_and_graph()
    cg = build_cg_v2(obs, bindings, graph)
    target, value = bindings[0]
    row = cg.node_features[graph.n_nodes]
    np.testing.assert_array_equal(row[ospec.slot("p")], value)
    rest = row.copy()
    rest[ospec.slot("p")] = 0.0
    rest[obs.shape[1]] = 0.0  # its indicator column
    np.testing.assert_array_equal(rest, 0.0)


def test_v2_three_goals_indicator_pairs():
    obs, _, graph, ospec = obs_and_graph("ant_reach_handsup2_4")
    spec = make_env("ant_reach_handsup2_4")
    state = reset(spec, 0)
    obs = local_observations(state, ospec)
    bindings = goal_bindings(state)
    cg = build_cg_v2(obs, bindings, spec.graph)
    n, w = spec.graph.n_nodes, obs.shape[1]
    assert cg.n_goal_nodes == 3
    assert cg.n_nodes == n + 3
    for g, (target, _) in enumerate(bindings):
        # indicator column g is set in the goal's target row and its own row
        column = cg.node_features[:, w + g]
        assert column.sum() == 2.0
        assert set(np.flatnonzero(column)) == {target, n + g}


def test_v1_v2_body_feature_correspondence():
    obs, bindings, graph, ospec = obs_and_graph()
    w = obs.shape[1]
    v1 = build_cg_v1(obs, bindings, graph)
    v2 = build_cg_v2(obs, bindings, graph)
    v1_stripped = np.concatenate([v1.node_features[:, :w],
                                  v1.node_features[:, w + 9:]], axis=1)
    np.testing.assert_array_equal(v1_stripped,
                                  v2.node_features[:graph.n_nodes, :w + 3])


def test_v2_goal_value_in_columns_0_to_2_without_positions():
    obs, bindings, graph, _ = obs_and_graph("ant_reach_handsup2_4", ["m", "ja"])
    cg = build_cg_v2(obs, bindings, graph)
    w = obs.shape[1]
    for g, (_, value) in enumerate(bindings):
        expect = np.zeros(cg.width)
        expect[:3] = value
        expect[w + g] = 1.0
        np.testing.assert_array_equal(cg.node_features[graph.n_nodes + g], expect)


@pytest.mark.parametrize("flags", [BASE + ["m"], ["m", "ja"]], ids=["with_p", "without_p"])
@pytest.mark.parametrize("variant", ["v1", "v2"])
def test_cg_feature_width_is_the_width_of_every_built_graph(variant, flags):
    spec = make_env("ant_reach_handsup_3")
    ospec = build_observation_spec(flags)
    states = [reset(spec, seed) for seed in range(3)]
    build = build_cg_v1 if variant == "v1" else build_cg_v2
    frames = [build(local_observations(s, ospec), goal_bindings(s), spec.graph)
              for s in states]
    batch = build_cg(spec, np.stack([local_observations(s, ospec) for s in states]),
                     np.stack([np.concatenate(s.goals) for s in states]), variant)
    for history in (1, 3):
        width = cg_feature_width(ospec, variant, history)
        assert stack_history(frames[-history:], history).width == width
        episodes = np.zeros(len(states), dtype=np.int32)
        assert _history_features(batch.node_features, episodes, history).shape[-1] == width


def test_padding_positions_exactly_zero():
    obs, bindings, graph, ospec = obs_and_graph()
    cg = build_cg_v2(obs, bindings, graph)
    goal_row = cg.node_features[graph.n_nodes]
    zero_cols = np.ones(cg.width, dtype=bool)
    zero_cols[ospec.slot("p")] = False
    zero_cols[obs.shape[1]] = False
    assert np.all(goal_row[zero_cols] == 0.0)


# --- history stacking ------------------------------------------------------------------

def test_history_identity():
    obs, bindings, graph, ospec = obs_and_graph()
    cg = build_cg_v2(obs, bindings, graph)
    out = stack_history([cg], 1)
    np.testing.assert_array_equal(out.node_features, cg.node_features)


def test_history_zero_fill_at_start():
    obs, bindings, graph, ospec = obs_and_graph()
    cg = build_cg_v2(obs, bindings, graph)
    out = stack_history([cg], 3)
    F = cg.width
    np.testing.assert_array_equal(out.node_features[:, :2 * F], 0.0)
    np.testing.assert_array_equal(out.node_features[:, 2 * F:], cg.node_features)


def test_history_width_arithmetic():
    obs, bindings, graph, ospec = obs_and_graph()
    cg = build_cg_v2(obs, bindings, graph)
    cgs = [cg, cg, cg]
    out = stack_history(cgs, 3)
    assert out.width == 3 * cg.width


def test_history_shape_mismatch():
    obs, bindings, graph, ospec = obs_and_graph()
    cg4 = build_cg_v2(obs, bindings, graph)
    spec5 = make_env("ant_reach_5")
    st5 = reset(spec5, 0)
    cg5 = build_cg_v2(local_observations(st5, ospec), goal_bindings(st5), spec5.graph)
    with pytest.raises(ValueError):
        stack_history([cg5, cg4], 2)


# --- mu-law ------------------------------------------------------------------------------

def test_mu_law_zero_and_saturation():
    assert mu_law(0.0) == 0.0
    assert mu_law(256.0) == 1.0
    assert mu_law(-256.0) == -1.0
    assert mu_law(300.0) == 1.0  # clamped to M first


def test_mu_law_of_one_extended_precision():
    getcontext().prec = 60
    oracle = (Decimal(101).ln() / Decimal(25601).ln())
    assert abs(float(mu_law(1.0)) - float(oracle)) <= 1e-12
    assert float(oracle) == pytest.approx(0.454672, abs=1e-5)


def test_mu_law_round_trip():
    xs = np.linspace(-256, 256, 2001)
    np.testing.assert_allclose(mu_law_inverse(mu_law(xs)), xs, atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.floats(-256.0, 256.0), st.floats(-256.0, 256.0))
def test_mu_law_odd_and_monotone(a, b):
    assert mu_law(-a) == pytest.approx(-float(mu_law(a)), abs=1e-15)
    if a < b:
        assert mu_law(a) <= mu_law(b)
    assert -1.0 <= float(mu_law(a)) <= 1.0


# --- quantization -------------------------------------------------------------------------

def test_quantize_boundaries():
    assert quantize(-1.0) == 0
    assert quantize(1.0) == 1023
    assert quantize(0.0) == 512


def test_dequantize_center_value():
    assert dequantize(512, "center") == pytest.approx(0.0009765625, abs=0)


def test_round_trip_error_bound():
    ys = np.linspace(-1.0, 1.0, 10_000)
    err = np.abs(dequantize(quantize(ys), "center") - ys)
    assert err.max() <= 1.0 / 1024


def test_dequantize_window_edges():
    # edge bins clip their 3-bin window into range
    c = lambda k: -1.0 + (2 * k + 1) / 1024
    assert dequantize(0, "average_window") == pytest.approx((2 * c(0) + c(1)) / 3)
    assert dequantize(1023, "average_window") == pytest.approx(
        (c(1022) + 2 * c(1023)) / 3)


def test_dequantize_rejects_out_of_range():
    with pytest.raises(IndexError):
        dequantize(1024)
    with pytest.raises(IndexError):
        dequantize(-1)


@settings(max_examples=100, deadline=None)
@given(st.floats(-1.0, 1.0))
def test_quantize_half_bin_bound(y):
    # epsilon slack: values within one ulp of a bin edge may round across it
    assert abs(float(dequantize(quantize(y), "center")) - y) <= 1.0 / 1024 + 1e-15


# --- tokenize ---------------------------------------------------------------------------------

def test_tokenize_all_zero_features():
    obs, bindings, graph, ospec = obs_and_graph()
    cg = build_cg_v2(np.zeros_like(obs), [], graph)
    tokens = tokenize_features(cg.node_features)
    np.testing.assert_array_equal(tokens, 512)


def test_tokenize_shape_preserved_and_round_trip():
    obs, bindings, graph, ospec = obs_and_graph()
    cg = build_cg_v2(obs, bindings, graph)
    tokens = tokenize_features(cg.node_features)
    assert tokens.shape == cg.node_features.shape
    back = detokenize(tokens, "center")
    # error bounded by the inverse image of a half bin around each value
    forward = mu_law(cg.node_features)
    assert np.max(np.abs(mu_law(back) - forward)) <= 1.0 / 1024


def test_tokenize_rejects_non_finite():
    obs, bindings, graph, ospec = obs_and_graph()
    bad = obs.copy()
    bad[0, 0] = np.nan
    cg = build_cg_v2(bad, bindings, graph)
    with pytest.raises(ValueError):
        tokenize_features(cg.node_features)


# --- action mask invariants --------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["ant", "claw", "centipede", "worm"]), st.integers(2, 5))
def test_mask_sum_equals_action_dimension(blueprint, count):
    graph = generate_morphology(blueprint, count)
    obs = np.zeros((graph.n_nodes, 22))
    ospec = build_observation_spec(BASE)
    for cg in (build_cg_v1(obs, [], graph), build_cg_v2(obs, [], graph)):
        assert cg.action_mask.sum() == graph.action_dimension()
        assert len(cg.actuator_map) == graph.action_dimension()


JOINTLESS = "morphology solo nodes=1 edges=0\nnode 0 torso 0.25 0 1 1 0 0 0\n"


# the desk bodies, the benchmark's expert-data bodies, and a body with no joints
@pytest.mark.parametrize("env_id", [
    "ant_reach_3", "ant_reach_5", "ant_reach_handsup_3", "ant_reach_handsup_5",
    "claw_reach_4", "centipede_touch_3", "worm_touch_4", "ant_reach_4_missing_1",
    "ant_reach_hard_4_mass_0.5_1.0_3.0", "centipede_reach_handsup2_4", "ant_push_3",
    None])
def test_dof_cells_are_the_one_actuator_layout(env_id):
    graph = make_env(env_id).graph if env_id else parse_morphology(JOINTLESS)
    cells = graph.dof_cells
    # oracle from the dof numbering: a parent edge's actuators are the
    # child's slots, from the child's dof_index on
    expect = {}
    for e in graph.edges:
        for slot in range(len(e.actuators)):
            expect[graph.nodes[e.child_id].dof_index + slot] = (e.child_id, slot)
    assert cells == tuple(expect[d] for d in range(graph.action_dimension()))
    joint_index = np.zeros((graph.n_nodes, 3), dtype=np.intp)
    mask = np.zeros((graph.n_nodes, 3))
    for dof, cell in enumerate(cells):
        joint_index[cell] = dof
        mask[cell] = 1.0
    table = menv._body_table(graph)
    np.testing.assert_array_equal(table.joint_index, joint_index)
    np.testing.assert_array_equal(table.jointed, mask == 1.0)
    obs = np.zeros((graph.n_nodes, 22))
    for cg in (build_cg_v1(obs, [], graph), build_cg_v2(obs, [(0, np.zeros(3))], graph)):
        assert cg.actuator_map == cells
        np.testing.assert_array_equal(cg.action_mask[:graph.n_nodes], mask)
        np.testing.assert_array_equal(cg.action_mask[graph.n_nodes:], 0.0)
