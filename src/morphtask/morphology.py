"""Procedural construction, variation, validation, and serialization of agent bodies.

A body is an acyclic tree of rigid modules connected by actuated joints.
Four blueprint families are supported (ant, claw, centipede, worm); each can
be spawned at a range of leg/body counts and diversified with missing-limb,
mass, and size randomization.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

# Default module geometry. The numbers are chosen so that limb workspaces are
# O(1) m; they are shared by every blueprint.
TORSO_RADIUS = 0.25
SEGMENT_LENGTH = 0.4
SEGMENT_RADIUS = 0.08
MODULE_MASS = 1.0
MODULE_INERTIA = 0.01
DEFAULT_GEAR = 1.0

def q9(x: float) -> float:
    """Quantize to 9 significant digits, the text format's precision.

    Blueprint constants pass through this so generated graphs serialize
    losslessly (parse(serialize(g)) == g bit for bit).
    """
    return float(f"{x:.9g}")


# Yaw ranges run 0.8 rad past a half turn so the shortest arc to any goal
# angle stays clear of the limits even after reset randomization.
HIP_RANGE = (q9(-math.pi - 0.8), q9(math.pi + 0.8))
KNEE_RANGE = (q9(-math.pi / 2), q9(math.pi / 2))
SPINE_RANGE = (q9(-math.pi / 2), q9(math.pi / 2))

BLUEPRINT_COUNT_RANGE = {
    "ant": (2, 6),
    "claw": (2, 6),
    "centipede": (2, 7),
    "worm": (2, 7),
}

KINDS = ("torso", "body", "limb_segment")


class MorphologyError(ValueError):
    """Raised for out-of-range blueprint counts or invalid variations."""


@dataclass(frozen=True)
class Actuator:
    axis: tuple[float, float, float]
    range_lo: float
    range_hi: float
    gear: float = DEFAULT_GEAR


@dataclass(frozen=True)
class ModuleNode:
    node_id: int
    kind: str
    radius: float
    length: float
    mass: float
    inertia: float
    attach_offset: tuple[float, float, float]
    dof_index: int  # first actuator of the parent edge; -1 for the root


@dataclass(frozen=True)
class JointEdge:
    parent_id: int
    child_id: int
    actuators: tuple[Actuator, ...]


@dataclass(frozen=True)
class MorphologyGraph:
    nodes: tuple[ModuleNode, ...]
    edges: tuple[JointEdge, ...]
    blueprint_tag: str
    # Variation provenance as sorted (key, value) pairs; kept hashable so
    # graphs can key caches.
    variation: tuple | None = None

    def __hash__(self) -> int:
        # Graphs key the per-graph caches of the environment, and hashing
        # recurses through every node and edge, so the hash is kept once
        # computed.  Derived values live in __dict__ beside the fields.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.nodes, self.edges, self.blueprint_tag, self.variation))
            self.__dict__["_hash"] = h
        return h

    def __getstate__(self) -> dict:
        # Pickle the fields only: string hashes are salted per process, so a
        # kept hash would be stale in the process that loads the graph.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def action_dimension(self) -> int:
        return len(self.dof_cells)

    @cached_property
    def legs(self) -> tuple[tuple[int, ...], ...]:
        """Leg chains as tuples of node ids, proximal to distal (derive_legs)."""
        return derive_legs(self.nodes, self.edges)

    @cached_property
    def parent_map(self) -> Mapping[int, JointEdge]:
        """Parent edge of every non-root node, keyed by child id (read-only,
        computed once per graph)."""
        return MappingProxyType({e.child_id: e for e in self.edges})

    def end_effectors(self) -> tuple[int, ...]:
        """Distal-most node of each leg, or the last body for legless chains."""
        if self.legs:
            return tuple(leg[-1] for leg in self.legs)
        return (self.n_nodes - 1,)

    @cached_property
    def dof_cells(self) -> tuple[tuple[int, int], ...]:
        """(node, slot) of every dof in global dof order: the actuators of a
        node's parent edge are its slots 0, 1, 2 (see _numbered_dofs)."""
        return tuple((e.child_id, slot) for e in self.edges
                     for slot in range(len(e.actuators)))


_Z = (0.0, 0.0, 1.0)
_Y = (0.0, 1.0, 0.0)


class _Builder:
    def __init__(self, tag: str):
        self.tag = tag
        self.nodes: list[ModuleNode] = []
        self.edges: list[JointEdge] = []

    def add_node(self, kind: str, offset: tuple[float, float, float],
                 radius: float = SEGMENT_RADIUS, length: float = SEGMENT_LENGTH,
                 parent: int | None = None,
                 actuators: tuple[Actuator, ...] = ()) -> int:
        nid = len(self.nodes)
        self.nodes.append(ModuleNode(
            node_id=nid, kind=kind, radius=radius, length=length,
            mass=MODULE_MASS, inertia=MODULE_INERTIA,
            attach_offset=tuple(q9(v) for v in offset), dof_index=-1))
        if parent is not None:
            self.edges.append(JointEdge(parent, nid, actuators))
        return nid

    def build(self) -> MorphologyGraph:
        return MorphologyGraph(
            nodes=_numbered_dofs(self.nodes, self.edges), edges=tuple(self.edges),
            blueprint_tag=self.tag)


def _var_set(variation: tuple | None, key: str, value) -> tuple:
    if isinstance(value, (list, tuple)):
        value = tuple(value)
    items = dict(variation or ())
    items[key] = value
    return tuple(sorted(items.items()))


def generate_morphology(blueprint: str, count: int,
                        variation: dict | None = None) -> MorphologyGraph:
    """Construct a blueprint instance, optionally applying a variation record.

    variation keys (all optional): ``missing`` (leg index), ``mass_scales``
    and ``size_scales`` (3 positive factors each, ordered torso / proximal /
    distal).
    """
    if blueprint not in BLUEPRINT_COUNT_RANGE:
        raise MorphologyError(f"unknown blueprint {blueprint!r}")
    lo, hi = BLUEPRINT_COUNT_RANGE[blueprint]
    if not (lo <= count <= hi):
        raise MorphologyError(
            f"{blueprint} count {count} outside legal range [{lo}, {hi}]")

    b = _Builder(f"{blueprint}_{count}")
    hip = (Actuator(_Z, *HIP_RANGE),)
    knee = Actuator(_Y, *KNEE_RANGE)
    segments = 2
    if blueprint in ("ant", "claw"):
        torso = b.add_node("torso", (0.0, 0.0, 0.0),
                           radius=TORSO_RADIUS, length=0.0)
        mounts = []
        for k in range(count):
            phi = 2.0 * math.pi * k / count
            mounts.append((torso, (TORSO_RADIUS * math.cos(phi),
                                   TORSO_RADIUS * math.sin(phi), 0.0)))
        if blueprint == "claw":
            # Two-dof hip plus two single-dof segments: 4 actuators per leg.
            segments, hip = 3, hip + (knee,)
    else:
        prev = b.add_node("torso", (0.0, 0.0, 0.0),
                          radius=TORSO_RADIUS, length=SEGMENT_LENGTH)
        bodies = [prev]
        for i in range(count - 1):
            # The first spine joint swivels the whole chain, so downstream
            # bodies can face any goal angle; later joints articulate.
            rng = HIP_RANGE if i == 0 else SPINE_RANGE
            prev = b.add_node("body", (0.0, 0.0, 0.0),
                              radius=TORSO_RADIUS, length=SEGMENT_LENGTH,
                              parent=prev,
                              actuators=(Actuator(_Z, *rng),))
            bodies.append(prev)
        # A centipede carries two legs per body, a worm none.
        sides = (1.0, -1.0) if blueprint == "centipede" else ()
        mounts = [(body, (-SEGMENT_LENGTH / 2, side * TORSO_RADIUS, 0.0))
                  for body in bodies for side in sides]
    for parent, mount in mounts:
        seg = b.add_node("limb_segment", mount, parent=parent, actuators=hip)
        for _ in range(segments - 1):
            seg = b.add_node("limb_segment", (0.0, 0.0, 0.0), parent=seg,
                             actuators=(knee,))

    graph = b.build()
    if variation:
        if "missing" in variation:
            graph = apply_missing(graph, variation["missing"])
        if "mass_scales" in variation:
            graph = apply_mass_scaling(graph, variation["mass_scales"])
        if "size_scales" in variation:
            graph = apply_size_scaling(graph, variation["size_scales"])
        # A nan or inf scale passes the scalings; refuse the body it makes.
        problems = validate(graph)
        if problems:
            raise MorphologyError(f"variation {variation} gives an invalid body: "
                                  + "; ".join(problems))
    return graph


def _numbered_dofs(nodes, edges) -> tuple[ModuleNode, ...]:
    """nodes with their dof_index set.  This is where dofs are numbered:
    each edge's actuators take the next indices in edge order, and a node's
    dof_index is the first of its parent edge's, -1 for the root."""
    first: dict[int, int] = {}
    dof = 0
    for e in edges:
        first[e.child_id] = dof
        dof += len(e.actuators)
    return tuple(replace(n, dof_index=first.get(n.node_id, -1)) for n in nodes)


def apply_missing(graph: MorphologyGraph, leg_index: int) -> MorphologyGraph:
    """Remove the distal-most segment (and its edge) of one leg."""
    legs = graph.legs
    if not legs:
        raise MorphologyError(
            f"blueprint {graph.blueprint_tag!r} has no legs to remove from")
    if not (0 <= leg_index < len(legs)):
        raise MorphologyError(
            f"missing-leg index {leg_index} out of range "
            f"(have {len(legs)} legs)")
    leg = legs[leg_index]
    if len(leg) < 2:
        raise MorphologyError(
            f"leg {leg_index} has fewer than 2 segments; nothing to remove")
    removed = leg[-1]

    def renumber(i: int) -> int:                 # ids stay dense
        return i - (i > removed)

    edges = tuple(JointEdge(renumber(e.parent_id), renumber(e.child_id), e.actuators)
                  for e in graph.edges if e.child_id != removed)
    nodes = [replace(n, node_id=renumber(n.node_id))
             for n in graph.nodes if n.node_id != removed]
    return MorphologyGraph(
        nodes=_numbered_dofs(nodes, edges), edges=edges,
        blueprint_tag=graph.blueprint_tag,
        variation=_var_set(graph.variation, "missing", leg_index))


def _tier(graph: MorphologyGraph, node: ModuleNode) -> int:
    """0 = torso/body, 1 = proximal leg segment, 2 = deeper segments."""
    if node.kind in ("torso", "body"):
        return 0
    for leg in graph.legs:
        if node.node_id in leg:
            return 1 if leg.index(node.node_id) == 0 else 2
    return 2


def _check_scales(scales) -> tuple[float, float, float]:
    scales = tuple(float(s) for s in scales)
    if len(scales) != 3:
        raise ValueError(f"expected 3 scale factors, got {len(scales)}")
    if any(s <= 0 for s in scales):
        raise ValueError(f"scale factors must be positive, got {scales}")
    return scales


def _scale_tiers(graph: MorphologyGraph, key: str, scales,
                 names: tuple[str, str]) -> MorphologyGraph:
    """graph with the two node fields ``names`` scaled per tier (torso,
    proximal, distal), and the scales recorded under variation ``key``."""
    scales = _check_scales(scales)
    nodes = []
    for n in graph.nodes:
        s = scales[_tier(graph, n)]
        nodes.append(replace(n, **{name: getattr(n, name) * s for name in names}))
    return replace(graph, nodes=tuple(nodes),
                   variation=_var_set(graph.variation, key, scales))


def apply_mass_scaling(graph: MorphologyGraph, scales) -> MorphologyGraph:
    """Scale mass and inertia per tier (torso, proximal, distal)."""
    return _scale_tiers(graph, "mass_scales", scales, ("mass", "inertia"))


def apply_size_scaling(graph: MorphologyGraph, scales) -> MorphologyGraph:
    """Scale length and radius per tier (torso, proximal, distal)."""
    return _scale_tiers(graph, "size_scales", scales, ("length", "radius"))


def validate(graph: MorphologyGraph) -> list[str]:
    """Check every structural invariant; returns human-readable violations."""
    out: list[str] = []
    n = graph.n_nodes
    ids = [node.node_id for node in graph.nodes]
    if ids != list(range(n)):
        out.append(f"node ids not dense 0..{n - 1}: {ids}")
    if n and graph.nodes[0].kind != "torso":
        out.append("node 0 is not a torso")
    for node in graph.nodes:
        if node.kind not in KINDS:
            out.append(f"node {node.node_id}: unknown kind {node.kind!r}")
        # Written as "not (finite and in range)" so nan and inf fail too.
        for name in ("radius", "mass", "inertia"):
            value = getattr(node, name)
            if not (math.isfinite(value) and value > 0):
                out.append(f"node {node.node_id}: {name} must be finite and > 0")
        if not (math.isfinite(node.length) and node.length >= 0):
            out.append(f"node {node.node_id}: length must be finite and >= 0")
        if not all(math.isfinite(c) for c in node.attach_offset):
            out.append(f"node {node.node_id}: attach offset must be finite")
    if len(graph.edges) != max(n - 1, 0):
        out.append(f"not a tree: {len(graph.edges)} edges for {n} nodes")
    seen_children = set()
    for e in graph.edges:
        if not (0 <= e.parent_id < n and 0 <= e.child_id < n):
            out.append(f"edge ({e.parent_id}->{e.child_id}): id out of range")
            continue
        if e.child_id in seen_children:
            out.append(f"not a tree: node {e.child_id} has two parents")
        seen_children.add(e.child_id)
        if not (1 <= len(e.actuators) <= 3):
            out.append(f"edge ({e.parent_id}->{e.child_id}): "
                       f"{len(e.actuators)} actuators outside 1..3")
        for act in e.actuators:
            if not all(math.isfinite(x) for x in (act.range_lo, act.range_hi, act.gear)):
                out.append(f"edge ({e.parent_id}->{e.child_id}): "
                           "joint range and gear must be finite")
            elif not act.range_lo < act.range_hi:
                out.append(f"edge ({e.parent_id}->{e.child_id}): "
                           "empty joint range")
            norm = math.sqrt(sum(a * a for a in act.axis))
            if not abs(norm - 1.0) <= 1e-9:
                out.append(f"edge ({e.parent_id}->{e.child_id}): "
                           f"axis norm {norm} != 1")
    # Connectivity from the root.
    reach = {0}
    frontier = [0]
    children = {}
    for e in graph.edges:
        children.setdefault(e.parent_id, []).append(e.child_id)
    while frontier:
        nid = frontier.pop()
        for c in children.get(nid, []):
            if c not in reach:
                reach.add(c)
                frontier.append(c)
    if n and len(reach) != n:
        out.append(f"not a tree: only {len(reach)}/{n} nodes reachable from root")
    # Dense dof assignment in edge order.
    dof = 0
    for e in graph.edges:
        child = graph.nodes[e.child_id] if 0 <= e.child_id < n else None
        if child is not None and child.dof_index != dof:
            out.append(f"node {e.child_id}: dof_index {child.dof_index} != {dof}")
        dof += len(e.actuators)
    if n and graph.nodes[0].dof_index != -1:
        out.append("root dof_index must be -1")
    return out


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def derive_legs(nodes: tuple[ModuleNode, ...],
                edges: tuple[JointEdge, ...]) -> tuple[tuple[int, ...], ...]:
    """Leg chains, the one rule for built and parsed bodies: maximal
    single-child runs of limb_segment nodes hanging off a torso/body node,
    ordered by first node id.  A walk that comes back to its own chain (a
    cycle, which validate reports) stops there.
    """
    kind = {n.node_id: n.kind for n in nodes}
    parent = {e.child_id: e.parent_id for e in edges}
    children: dict[int, list[int]] = {}
    for e in edges:
        children.setdefault(e.parent_id, []).append(e.child_id)
    starts = sorted(
        nid for nid, k in kind.items()
        if k == "limb_segment" and kind.get(parent.get(nid, -1)) in ("torso", "body"))
    legs = []
    for s in starts:
        chain = [s]
        cur = s
        while True:
            nxt = [c for c in children.get(cur, []) if kind.get(c) == "limb_segment"]
            if len(nxt) != 1 or nxt[0] in chain:
                break
            cur = nxt[0]
            chain.append(cur)
        legs.append(tuple(chain))
    return tuple(legs)


def serialize_morphology(graph: MorphologyGraph) -> str:
    """Render the line-oriented text form (9 significant digits)."""
    lines = [f"morphology {graph.blueprint_tag} "
             f"nodes={graph.n_nodes} edges={len(graph.edges)}"]
    for n in graph.nodes:
        ox, oy, oz = n.attach_offset
        lines.append(f"node {n.node_id} {n.kind} {_fmt(n.radius)} "
                     f"{_fmt(n.length)} {_fmt(n.mass)} {_fmt(n.inertia)} "
                     f"{_fmt(ox)} {_fmt(oy)} {_fmt(oz)}")
    for e in graph.edges:
        lines.append(f"edge {e.parent_id} {e.child_id} {len(e.actuators)}")
        for a in e.actuators:
            ax, ay, az = a.axis
            lines.append(f"act {_fmt(ax)} {_fmt(ay)} {_fmt(az)} "
                         f"{_fmt(a.range_lo)} {_fmt(a.range_hi)} {_fmt(a.gear)}")
    return "\n".join(lines) + "\n"


class MorphologyParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _numbers(line_no: int, fields: list[str], kind) -> list:
    try:
        return [kind(f) for f in fields]
    except ValueError:
        raise MorphologyParseError(
            line_no, f"expected {kind.__name__} fields, got {' '.join(fields)!r}") from None


def text_lines(text: str) -> list[tuple[int, str]]:
    """(line number, content) of each non-blank line, '#' comments cut off."""
    return [(no, line) for no, raw in enumerate(text.splitlines(), start=1)
            if (line := raw.split("#", 1)[0].strip())]


def parse_morphology(text: str) -> MorphologyGraph:
    """Inverse of serialize_morphology; rejects malformed input with a line number."""
    rows = [(ln, line.split()) for ln, line in text_lines(text)]
    if not rows:
        raise MorphologyParseError(0, "empty morphology text (missing header)")
    ln, head = rows[0]
    if len(head) != 4 or head[0] != "morphology":
        raise MorphologyParseError(ln, "expected 'morphology <tag> nodes=N edges=M'")
    tag = head[1]
    try:
        n_nodes = int(head[2].removeprefix("nodes="))
        n_edges = int(head[3].removeprefix("edges="))
    except ValueError:
        raise MorphologyParseError(ln, "bad nodes=/edges= counts") from None

    nodes: list[ModuleNode] = []
    edges: list[JointEdge] = []
    pending_acts = 0
    acts: list[Actuator] = []
    edge_head: tuple[int, int] | None = None
    edge_line = ln
    for ln, parts in rows[1:]:
        if parts[0] == "node":
            if len(parts) != 10:
                raise MorphologyParseError(ln, "node line needs 9 fields")
            (nid,) = _numbers(ln, parts[1:2], int)
            radius, length, mass, inertia, *offset = _numbers(ln, parts[3:], float)
            nodes.append(ModuleNode(
                node_id=nid, kind=parts[2], radius=radius, length=length,
                mass=mass, inertia=inertia, attach_offset=tuple(offset),
                dof_index=-1))
            continue
        if parts[0] == "edge":
            if pending_acts:
                raise MorphologyParseError(
                    edge_line, f"edge missing {pending_acts} act line(s)")
            if len(parts) != 4:
                raise MorphologyParseError(ln, "edge line needs 3 fields")
            parent, child, pending_acts = _numbers(ln, parts[1:], int)
            edge_head = (parent, child)
            edge_line = ln
            acts = []
            continue
        if parts[0] == "act":
            if edge_head is None or pending_acts == 0:
                raise MorphologyParseError(ln, "act line outside an edge block")
            if len(parts) != 7:
                raise MorphologyParseError(ln, "act line needs 6 fields")
            *axis, lo, hi, gear = _numbers(ln, parts[1:], float)
            acts.append(Actuator(axis=tuple(axis), range_lo=lo, range_hi=hi,
                                 gear=gear))
            pending_acts -= 1
            if pending_acts == 0:
                edges.append(JointEdge(edge_head[0], edge_head[1], tuple(acts)))
                edge_head = None
            continue
        raise MorphologyParseError(ln, f"unknown directive {parts[0]!r}")
    if pending_acts:
        raise MorphologyParseError(edge_line,
                                   f"edge missing {pending_acts} act line(s)")
    if len(nodes) != n_nodes:
        raise MorphologyParseError(
            ln, f"missing node section: header says {n_nodes} nodes, got {len(nodes)}")
    if len(edges) != n_edges:
        raise MorphologyParseError(
            ln, f"missing edge section: header says {n_edges} edges, got {len(edges)}")

    graph = MorphologyGraph(nodes=_numbered_dofs(nodes, edges), edges=tuple(edges),
                            blueprint_tag=tag, variation=None)
    problems = validate(graph)
    if problems:
        raise MorphologyParseError(ln, "; ".join(problems))
    return graph
