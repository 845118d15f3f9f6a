import dataclasses
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from morphtask.morphology import (
    BLUEPRINT_COUNT_RANGE,
    Actuator,
    JointEdge,
    ModuleNode,
    MorphologyError,
    MorphologyGraph,
    MorphologyParseError,
    apply_mass_scaling,
    apply_missing,
    apply_size_scaling,
    generate_morphology,
    parse_morphology,
    serialize_morphology,
    validate,
)


# --- blueprint arithmetic -------------------------------------------------

def test_ant_4_counts():
    g = generate_morphology("ant", 4)
    assert g.n_nodes == 9
    assert len(g.edges) == 8
    assert g.action_dimension() == 8


def test_worm_5_counts():
    g = generate_morphology("worm", 5)
    assert g.n_nodes == 5
    assert len(g.edges) == 4
    assert g.action_dimension() == 4


def test_centipede_3_counts():
    # 3 bodies + 6 legs x 2 segments; 12 leg actuators + 2 spine actuators.
    g = generate_morphology("centipede", 3)
    assert g.n_nodes == 15
    assert len(g.edges) == 14
    assert g.action_dimension() == 14


def test_claw_2_counts():
    # Per leg: 2-actuator hip edge + two 1-actuator edges = 4 actuators.
    g = generate_morphology("claw", 2)
    assert g.n_nodes == 7
    assert len(g.edges) == 6
    assert g.action_dimension() == 8


def test_count_out_of_range():
    with pytest.raises(MorphologyError):
        generate_morphology("ant", 7)
    with pytest.raises(MorphologyError):
        generate_morphology("centipede", 1)


def test_dof_indices_dense_in_edge_order():
    g = generate_morphology("claw", 3)
    dof = 0
    for e in g.edges:
        assert g.nodes[e.child_id].dof_index == dof
        dof += len(e.actuators)
    assert dof == g.action_dimension()
    assert g.nodes[0].dof_index == -1


# --- missing variation ----------------------------------------------------

def test_missing_removes_distal_segment():
    g = generate_morphology("ant", 4)
    m = apply_missing(g, 0)
    assert m.n_nodes == 8
    assert m.action_dimension() == 7
    assert not validate(m)


def test_missing_out_of_range():
    g = generate_morphology("ant", 4)
    with pytest.raises(MorphologyError):
        apply_missing(g, 4)


def test_missing_on_worm_unsupported():
    g = generate_morphology("worm", 3)
    with pytest.raises(MorphologyError):
        apply_missing(g, 0)


def test_missing_claw_removes_single_actuator_edge():
    g = generate_morphology("claw", 2)
    m = apply_missing(g, 1)
    assert m.n_nodes == 6
    assert m.action_dimension() == 7
    assert not validate(m)


def test_missing_decrements_by_removed_edge_actuators():
    for bp, cnt in [("ant", 3), ("claw", 4), ("centipede", 2)]:
        g = generate_morphology(bp, cnt)
        removed = g.legs[1][-1]
        edge = g.parent_map[removed]
        m = apply_missing(g, 1)
        assert g.action_dimension() - m.action_dimension() == len(edge.actuators)


# --- mass / size scaling --------------------------------------------------

def test_identity_scaling_is_noop():
    g = generate_morphology("ant", 4)
    assert apply_mass_scaling(g, (1, 1, 1)).nodes == g.nodes
    assert apply_size_scaling(g, (1, 1, 1)).nodes == g.nodes


def test_mass_scaling_tiers():
    g = generate_morphology("ant", 4)
    s = apply_mass_scaling(g, (0.5, 1.0, 3.0))
    assert s.nodes[0].mass == pytest.approx(0.5 * g.nodes[0].mass)
    assert s.nodes[0].inertia == pytest.approx(0.5 * g.nodes[0].inertia)
    for leg in g.legs:
        prox, dist = leg
        assert s.nodes[prox].mass == pytest.approx(g.nodes[prox].mass)
        assert s.nodes[dist].mass == pytest.approx(3.0 * g.nodes[dist].mass)
    assert s.action_dimension() == g.action_dimension()


def test_size_scaling_tiers():
    g = generate_morphology("ant", 5)
    s = apply_size_scaling(g, (0.9, 1.0, 1.1))
    for leg in g.legs:
        prox, dist = leg
        assert s.nodes[prox].length == pytest.approx(g.nodes[prox].length)
        assert s.nodes[dist].length == pytest.approx(1.1 * g.nodes[dist].length)
    assert s.nodes[0].radius == pytest.approx(0.9 * g.nodes[0].radius)


def test_nonpositive_scale_rejected():
    g = generate_morphology("ant", 4)
    with pytest.raises(ValueError):
        apply_mass_scaling(g, (0.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        apply_size_scaling(g, (1.0, -1.0, 1.0))


# --- validate ---------------------------------------------------------------

def test_validate_clean_blueprint():
    assert validate(generate_morphology("ant", 3)) == []


def test_validate_duplicate_edge():
    g = generate_morphology("ant", 3)
    bad = dataclasses.replace(g, edges=g.edges + (g.edges[0],))
    msgs = validate(bad)
    assert any("not a tree" in m for m in msgs)


def test_validate_empty_joint_range():
    g = generate_morphology("ant", 3)
    e0 = g.edges[0]
    act = dataclasses.replace(e0.actuators[0], range_lo=1.0, range_hi=1.0)
    bad_edge = JointEdge(e0.parent_id, e0.child_id, (act,))
    bad = dataclasses.replace(g, edges=(bad_edge,) + g.edges[1:])
    msgs = validate(bad)
    assert any("empty joint range" in m for m in msgs)


# --- serialization ----------------------------------------------------------

def test_round_trip_ant4():
    g = generate_morphology("ant", 4)
    assert parse_morphology(serialize_morphology(g)) == g


def test_serialize_deterministic():
    g = generate_morphology("centipede", 4)
    assert serialize_morphology(g) == serialize_morphology(g)


def test_parse_truncated_names_missing_section():
    g = generate_morphology("ant", 3)
    text = serialize_morphology(g)
    truncated = "\n".join(text.splitlines()[:4])
    with pytest.raises(MorphologyParseError) as exc:
        parse_morphology(truncated)
    assert "missing" in str(exc.value)


def test_parse_error_carries_line_number():
    with pytest.raises(MorphologyParseError) as exc:
        parse_morphology("morphology x nodes=1 edges=0\nnode 0 torso 0.2\n")
    assert exc.value.line_no == 2


NODE_FIELDS = {"radius": 3, "length": 4, "mass": 5, "inertia": 6}


def with_node_field(text: str, node_id: int, field: str, value: str) -> str:
    """Morphology text with one numeric field of one node line replaced."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        parts = line.split()
        if parts[:2] == ["node", str(node_id)]:
            parts[NODE_FIELDS[field]] = value
            lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("field,value", [
    ("radius", "nan"), ("mass", "inf"), ("mass", "-1.5"), ("inertia", "nan"),
    ("length", "-inf"),
])
def test_parse_rejects_non_finite_or_out_of_range_values(field, value):
    text = serialize_morphology(generate_morphology("ant", 3))
    assert parse_morphology(with_node_field(text, 2, field, "0.25"))
    with pytest.raises(MorphologyParseError) as exc:
        parse_morphology(with_node_field(text, 2, field, value))
    assert f"node 2: {field} must be finite" in str(exc.value)


@pytest.mark.parametrize("directive,field", [("node", 1), ("edge", 2)])
def test_parse_rejects_non_integer_fields(directive, field):
    lines = serialize_morphology(generate_morphology("ant", 3)).splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(directive))
    parts = lines[i].split()
    parts[field] = "x"
    lines[i] = " ".join(parts)
    with pytest.raises(MorphologyParseError, match=f"line {i + 1}: expected int fields"):
        parse_morphology("\n".join(lines) + "\n")


@pytest.mark.parametrize("n_nodes,edges", [
    (2, [(0, 1), (1, 7)]),           # an edge to a node that does not exist
    (3, [(2, 1), (1, 2), (0, 1)]),   # a limb cycle hanging off the torso
])
def test_parse_rejects_non_tree_before_deriving_legs(n_nodes, edges):
    lines = [f"morphology x nodes={n_nodes} edges={len(edges)}",
             "node 0 torso 0.25 0 1 0.01 0 0 0"]
    lines += [f"node {i} limb_segment 0.08 0.4 1 0.01 0 0 0" for i in range(1, n_nodes)]
    for parent, child in edges:
        lines += [f"edge {parent} {child} 1", "act 0 0 1 -1 1 1"]
    with pytest.raises(MorphologyParseError, match="not a tree"):
        parse_morphology("\n".join(lines) + "\n")


def test_parse_rejects_non_numeric_radius():
    text = serialize_morphology(generate_morphology("ant", 3))
    with pytest.raises(MorphologyParseError, match="expected float fields"):
        parse_morphology(with_node_field(text, 2, "radius", "wide"))


def test_validate_rejects_nan_joint_range():
    g = generate_morphology("ant", 3)
    e0 = g.edges[0]
    act = dataclasses.replace(e0.actuators[0], range_hi=float("nan"))
    bad = dataclasses.replace(
        g, edges=(JointEdge(e0.parent_id, e0.child_id, (act,) + e0.actuators[1:]),)
        + g.edges[1:])
    assert any("must be finite" in m for m in validate(bad))


def test_comments_ignored():
    g = generate_morphology("worm", 3)
    text = "# header comment\n" + serialize_morphology(g).replace(
        "\n", "\n# interleaved\n", 1)
    assert parse_morphology(text) == g


# --- properties -------------------------------------------------------------

@st.composite
def blueprint_and_count(draw):
    bp = draw(st.sampled_from(sorted(BLUEPRINT_COUNT_RANGE)))
    lo, hi = BLUEPRINT_COUNT_RANGE[bp]
    return bp, draw(st.integers(lo, hi))


@settings(max_examples=60, deadline=None)
@given(blueprint_and_count())
def test_generated_graphs_always_valid(bc):
    bp, count = bc
    assert validate(generate_morphology(bp, count)) == []


@settings(max_examples=40, deadline=None)
@given(blueprint_and_count(), st.integers(0, 10))
def test_missing_keeps_graphs_valid(bc, leg):
    bp, count = bc
    g = generate_morphology(bp, count)
    if not g.legs:
        return
    m = apply_missing(g, leg % len(g.legs))
    assert validate(m) == []


@settings(max_examples=30, deadline=None)
@given(blueprint_and_count())
def test_generation_is_pure(bc):
    bp, count = bc
    a = serialize_morphology(generate_morphology(bp, count))
    b = serialize_morphology(generate_morphology(bp, count))
    assert a == b


@settings(max_examples=20, deadline=None)
@given(blueprint_and_count(),
       st.tuples(*[st.floats(0.5, 2.0) for _ in range(3)]))
def test_scaling_commutes_with_round_trip(bc, scales):
    bp, count = bc
    g = generate_morphology(bp, count)
    direct = serialize_morphology(apply_size_scaling(g, scales))
    via_text = serialize_morphology(
        apply_size_scaling(parse_morphology(serialize_morphology(g)), scales))
    assert direct == via_text


@settings(max_examples=30, deadline=None)
@given(blueprint_and_count())
def test_round_trip_structural_equality(bc):
    bp, count = bc
    g = generate_morphology(bp, count)
    p = parse_morphology(serialize_morphology(g))
    assert p.nodes == g.nodes
    assert p.edges == g.edges
    assert p.legs == g.legs
    assert p.blueprint_tag == g.blueprint_tag


@pytest.mark.parametrize("blueprint,variation", [
    ("ant", None), ("ant", {"missing": 1}), ("claw", None), ("claw", {"missing": 1}),
    ("centipede", None), ("centipede", {"missing": 1}), ("worm", None)])
def test_direct_graph_equals_generated(blueprint, variation):
    g = generate_morphology(blueprint, 3, variation)
    direct = MorphologyGraph(g.nodes, g.edges, g.blueprint_tag, g.variation)
    assert direct == g and hash(direct) == hash(g)
    assert direct.legs == g.legs
    assert direct.end_effectors() == g.end_effectors()


def test_limb_cycle_legs_end_and_validate_reports_it():
    nodes = (ModuleNode(0, "torso", 0.25, 0.0, 1.0, 0.01, (0.0, 0.0, 0.0), -1),
             ModuleNode(1, "limb_segment", 0.08, 0.4, 1.0, 0.01, (0.0, 0.0, 0.0), 0),
             ModuleNode(2, "limb_segment", 0.08, 0.4, 1.0, 0.01, (0.0, 0.0, 0.0), 1))
    act = (Actuator((0.0, 0.0, 1.0), -1.0, 1.0),)
    g = MorphologyGraph(nodes, (JointEdge(2, 1, act), JointEdge(1, 2, act),
                                JointEdge(0, 1, act)), "cycle")
    assert g.legs == ((1, 2),)
    assert any("not a tree" in problem for problem in validate(g))


# --- cached graph hash ------------------------------------------------------------

def _field_hash(g):
    return hash(tuple(getattr(g, f.name) for f in dataclasses.fields(g)))


def test_equal_graphs_hash_equal():
    for blueprint, count in (("ant", 4), ("claw", 3), ("centipede", 3), ("worm", 5)):
        g = generate_morphology(blueprint, count)
        hash(g)
        back = parse_morphology(serialize_morphology(g))
        assert back == g
        assert hash(back) == hash(g) == _field_hash(g)


def test_replace_carries_no_stale_hash():
    g = generate_morphology("ant", 3)
    h = hash(g)
    g.action_dimension()
    g.parent_map
    same = dataclasses.replace(g)
    assert same == g and hash(same) == h
    other = dataclasses.replace(g, blueprint_tag="ant_3_renamed")
    assert hash(other) == _field_hash(other) != h
    trimmed = apply_missing(g, 0)
    assert hash(trimmed) == _field_hash(trimmed)
    assert trimmed.action_dimension() == g.action_dimension() - 1


def test_pickle_drops_cached_values(tmp_path):
    g = apply_mass_scaling(generate_morphology("claw", 3), (0.5, 1.0, 2.0))
    hash(g)
    g.action_dimension()
    g.parent_map
    back = pickle.loads(pickle.dumps(g))
    assert set(back.__dict__) == {f.name for f in dataclasses.fields(g)}
    assert back == g and hash(back) == hash(g)
    # String hashes are salted per process: a graph pickled here must hash
    # from its fields in a process with another salt.
    path = tmp_path / "g.pkl"
    path.write_bytes(pickle.dumps(g))
    code = ("import dataclasses, pickle, sys\n"
            "g = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            "carried = '_hash' in g.__dict__\n"
            "fields = tuple(getattr(g, f.name) for f in dataclasses.fields(g))\n"
            "print(carried, hash(g) == hash(fields))\n")
    env = dict(os.environ, PYTHONHASHSEED="12345",
               PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "True"]
