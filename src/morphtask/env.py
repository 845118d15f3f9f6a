"""Deterministic 3D kinematic-tree environment.

The scene holds one agent whose root is fixed at the origin.  Tasks place
positional goals (reach), height goals (handsup), a static ball (touch), or a
pushable box (push) inside the workspace of the limb that must satisfy them.
A Jacobian-transpose controller serves as the scripted expert.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .control_graph import FLAG_WIDTHS, ObservationSpec, ShapeError
from .morphology import (
    MorphologyGraph,
    _fmt,
    generate_morphology,
    parse_morphology,
    q9,
    serialize_morphology,
    text_lines,
)

OMEGA_MAX = 2.0          # rad/s per unit action
DT = 0.01                # s
EPISODE_LENGTH = 500
BALL_RADIUS = 0.15
BOX_RADIUS = 0.15
_CONTACT_MARGIN = 1e-9   # m: resolve_box_push's no-contact test
D_MIN_DEFAULT = 0.01
RESET_ANGLE_FRACTION = 0.15  # initial angles within this fraction of range
D_MAX_PROBE_SEED = 1000003
D_MAX_PROBE_RESETS = 1000

TASK_KINDS = ("reach", "reach_hard", "touch", "twister", "push")
GOAL_KINDS = ("xy_position", "z_height", "ball_contact", "box_to_target")


class EpisodeOverError(RuntimeError):
    pass


class TaskParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class GoalTemplate:
    goal_kind: str
    target_selector: str     # "ee<k>" or "torso"
    r_lo: float = 0.0
    r_hi: float = 0.0
    z_lo: float = 0.0
    z_hi: float = 0.0

    def __post_init__(self):
        if self.goal_kind not in GOAL_KINDS:
            raise ValueError(f"unknown goal kind {self.goal_kind!r}")
        # Written as "not (in range)" so nan fails too; the ranges are finite.
        if not (0.0 <= self.r_lo <= self.r_hi < math.inf):
            raise ValueError(f"bad annulus [{self.r_lo}, {self.r_hi}]")
        if not (0.0 <= self.z_lo <= self.z_hi < math.inf):
            raise ValueError(f"bad height range [{self.z_lo}, {self.z_hi}]")


@dataclass(frozen=True)
class TaskSpec:
    task_kind: str
    goals: tuple[GoalTemplate, ...]
    d_min: tuple[float, ...]
    d_max: tuple[float, ...]
    episode_length: int = EPISODE_LENGTH

    def __post_init__(self):
        if self.task_kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind {self.task_kind!r}")
        if not (len(self.goals) == len(self.d_min) == len(self.d_max)):
            raise ValueError("goals, d_min, d_max must have equal length")
        if self.task_kind == "twister" and not (1 <= len(self.goals) <= 3):
            raise ValueError("twister tasks carry 1..3 goals")
        if self.episode_length < 1:
            raise ValueError(f"episode length {self.episode_length} must be >= 1")
        for g, (lo, hi) in enumerate(zip(self.d_min, self.d_max)):
            if not (0.0 <= lo < hi < math.inf):
                raise ValueError(f"goal {g}: need finite 0 <= d_min < d_max, "
                                 f"got {lo}, {hi}")


@dataclass(frozen=True)
class EnvSpec:
    env_id: str
    graph: MorphologyGraph
    task: TaskSpec


@dataclass(frozen=True)
class EnvState:
    """One episode's state, or B episodes of one env in lockstep
    (reset_batch): then every array has a leading seed axis, (B, A) angles,
    (B, 3) goal values, ball and box, and there are no dof axes."""
    graph: MorphologyGraph
    task: TaskSpec
    joint_angles: np.ndarray             # (A,)
    goals: tuple[np.ndarray, ...]        # sampled values per goal, 3-vectors
    positions: np.ndarray                # (n, 3) node tips
    orientations: np.ndarray             # (n, 4) unit quaternions (w, x, y, z)
    step_count: int = 0
    ball_pos: np.ndarray | None = None
    box_pos: np.ndarray | None = None
    prev_joint_angles: np.ndarray | None = None
    prev_positions: np.ndarray | None = None
    prev_orientations: np.ndarray | None = None
    # Per-dof world rotation axes and anchors (A, 3) from the FK pass that
    # produced ``positions``; the expert builds its Jacobians from them.
    dof_axes: np.ndarray | None = None
    dof_anchors: np.ndarray | None = None


# --- quaternions (w, x, y, z), vectorized over leading dims ------------------

def _qmul_s(a, b):
    """Hamilton product of (w, x, y, z) quaternions given as 4-sequences of
    floats or of equally broadcastable arrays."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2)


def _qrot_s(q, v):
    """Rotate the 3-sequence v by the 4-sequence quaternion q."""
    w, x, y, z = q
    vx, vy, vz = v
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    return (vx + w * tx + y * tz - z * ty,
            vy + w * ty + z * tx - x * tz,
            vz + w * tz + x * ty - y * tx)


def quat_mul(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    return np.stack(_qmul_s([q1[..., i] for i in range(4)],
                            [q2[..., i] for i in range(4)]), axis=-1)


def quat_conj(q: np.ndarray) -> np.ndarray:
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def quat_to_rotvec(q: np.ndarray) -> np.ndarray:
    """Rotation vector (axis * angle) of a unit quaternion."""
    q = np.where(q[..., :1] < 0, -q, q)
    w = np.clip(q[..., 0], -1.0, 1.0)
    angle = 2.0 * np.arccos(w)
    s = np.sqrt(np.maximum(1.0 - w * w, 0.0))
    scale = np.where(s > 1e-12, angle / np.maximum(s, 1e-300), 2.0)
    return q[..., 1:] * scale[..., None]


# --- the per-body table --------------------------------------------------------

_KIND_SLOTS = {"torso": (1.0, 0.0), "body": (0.0, 1.0), "limb_segment": (0.0, 0.0)}


class _BodyTable:
    """Every per-graph constant the environment uses, computed once per graph
    and shared read-only: the FK recipe, actuator limits, reset ranges,
    observation tables and, per node, what its root path gives.  Dof indices
    are read from ModuleNode.dof_index, which morphology assigns."""

    def __init__(self, graph: MorphologyGraph):
        n = self.n = graph.n_nodes
        A = self.A = graph.action_dimension()
        parent = graph.parent_map
        # FK recipe per edge: parent, child, attach offset, (dof, axis) per
        # actuator, length.
        edges = []
        for e in graph.edges:
            child = graph.nodes[e.child_id]
            turns = tuple((child.dof_index + k, act.axis) for k, act in enumerate(e.actuators))
            edges.append((e.parent_id, e.child_id, child.attach_offset, turns, child.length))
        self.edges = tuple(edges)
        acts = [graph.parent_map[node].actuators[slot] for node, slot in graph.dof_cells]
        self.gears = np.array([a.gear for a in acts])
        self.lo = np.array([a.range_lo for a in acts])
        self.hi = np.array([a.range_hi for a in acts])
        # Reset draws theta = mid + RESET_ANGLE_FRACTION * half * U(-1, 1).
        self.reset_mid = 0.5 * (self.lo + self.hi)
        self.reset_span = RESET_ANGLE_FRACTION * (0.5 * (self.hi - self.lo))
        self.radii = np.array([node.radius for node in graph.nodes])
        # The same recipe for the array FK: edges grouped by (depth, actuator
        # count), so a group's parents are placed and its rotations align.
        groups: dict[tuple[int, int], list] = {}
        depth = {}
        for edge in self.edges:
            parent_id, child_id, _, turns, _ = edge
            depth[child_id] = depth.get(parent_id, 0) + 1
            groups.setdefault((depth[child_id], len(turns)), []).append(edge)
        self.levels = tuple(_fk_level(group) for _, group in sorted(groups.items()))

        # Per node, from one walk of its root path: the path's dofs, the
        # expert's stable gain, the chain length and pitch reach the task
        # builders scale goals by, and the zero-pose anchor of its first joint.
        _, _, _, zero_anchors = self.frames([0.0] * A)
        self.chain_anchor = np.zeros((n, 3))
        path_dofs, stable_gain, chain_length, pitch_reach = [], [], [], []
        for node in graph.nodes:
            chain = []                       # parent edges, node inward
            cur = node.node_id
            while cur in parent:
                chain.append(parent[cur])
                cur = parent[cur].parent_id
            dofs = sorted(graph.nodes[e.child_id].dof_index + k
                          for e in chain for k in range(len(e.actuators)))
            # A revolute joint at distance r from the node moves it by at most
            # r * d(theta), so the expert's descent map contracts whenever
            # gain * omega * dt * sum(r_j^2) <= 1.
            length = reach_sq = 0.0
            for e in chain:
                length += graph.nodes[e.child_id].length
                reach_sq += len(e.actuators) * length * length
            # Max tip height: lengths from the first pitch-capable joint outward.
            reach = 0.0
            for e in reversed(chain):
                if reach > 0.0 or any(abs(a.axis[2]) < 0.5 for a in e.actuators):
                    reach += graph.nodes[e.child_id].length
            path_dofs.append(tuple(dofs))
            stable_gain.append(0.0 if reach_sq < 1e-9 else 1.0 / (OMEGA_MAX * DT * reach_sq))
            chain_length.append(length)
            pitch_reach.append(reach)
            if dofs:
                self.chain_anchor[node.node_id] = zero_anchors[dofs[0]]
        self.path_dofs = tuple(path_dofs)
        self.stable_gain = tuple(stable_gain)
        self.chain_length = tuple(chain_length)
        self.pitch_reach = tuple(pitch_reach)

        # local_observations: rows of jointed (non-root) nodes and of their
        # parents, whose relative slots are set; the root's stay zero.
        self.child = np.array([node.node_id for node in graph.nodes
                               if node.node_id in parent], dtype=np.intp)
        self.parent = np.array([parent[i].parent_id for i in self.child.tolist()],
                               dtype=np.intp)
        # Gather index of the 3 joint slots into theta, and which slots have
        # an actuator: the others, and the root's, read zero.
        self.joint_index = np.zeros((n, 3), dtype=np.intp)
        self.jointed = np.zeros((n, 3), dtype=bool)
        for dof, cell in enumerate(graph.dof_cells):
            self.joint_index[cell] = dof
            self.jointed[cell] = True
        self.jr = np.zeros((n, 6))
        self.m = np.zeros((n, 8))
        self.id = np.zeros((n, 1))
        for node in graph.nodes:
            i = node.node_id
            self.id[i] = i / n
            edge = parent.get(i)
            gear = dof = 0.0
            if edge is not None:
                for j, act in enumerate(edge.actuators):
                    self.jr[i, 2 * j] = act.range_lo
                    self.jr[i, 2 * j + 1] = act.range_hi
                gear = edge.actuators[0].gear
                dof = node.dof_index / A
            self.m[i] = (node.radius, node.length, node.mass, node.inertia,
                         gear, dof, *_KIND_SLOTS[node.kind])
        for value in vars(self).values():        # every caller shares them
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def frames(self, angles: list[float]):
        """fk_frames of A plain floats, without the shape check."""
        pos = [(0.0, 0.0, 0.0)] * self.n
        quat = [(1.0, 0.0, 0.0, 0.0)] * self.n
        axes = [None] * self.A
        anchors = [None] * self.A
        for parent, child, offset, turns, length in self.edges:
            px, py, pz = pos[parent]
            q = quat[parent]
            ox, oy, oz = _qrot_s(q, offset)
            anchor = (px + ox, py + oy, pz + oz)
            for dof, axis in turns:
                axes[dof] = _qrot_s(q, axis)
                anchors[dof] = anchor
                half = 0.5 * angles[dof]
                s = math.sin(half)
                ux, uy, uz = axis
                q = _qmul_s(q, (math.cos(half), s * ux, s * uy, s * uz))
            tx, ty, tz = _qrot_s(q, (length, 0.0, 0.0))
            pos[child] = (anchor[0] + tx, anchor[1] + ty, anchor[2] + tz)
            quat[child] = q
        return (np.array(pos), np.array(quat),
                np.array(axes).reshape(-1, 3), np.array(anchors).reshape(-1, 3))


def _fk_level(edges):
    """One group of FK recipe edges as arrays: (parents, children, attach
    offset components, per actuator (dof indices, axis components), lengths)."""
    parents, children, offsets, turns, lengths = zip(*edges)

    def components(vectors):
        return tuple(np.array(c) for c in zip(*vectors))

    slots = (zip(*slot) for slot in zip(*turns))
    return (np.array(parents), np.array(children), components(offsets),
            tuple((np.array(d), components(a)) for d, a in slots), np.array(lengths))


@lru_cache(maxsize=1024)
def _body_table(graph: MorphologyGraph) -> _BodyTable:
    return _BodyTable(graph)


def joint_ranges(graph: MorphologyGraph) -> tuple[np.ndarray, np.ndarray]:
    """Per dof, the lowest and highest angle its joint takes (read-only)."""
    return _body_table(graph).lo, _body_table(graph).hi


# --- forward kinematics -------------------------------------------------------

def forward_kinematics(graph: MorphologyGraph, joint_angles) -> tuple[np.ndarray, np.ndarray]:
    """Node tip positions and orientations for the given joint angles.

    joint_angles may carry leading batch dimensions: (..., A) -> positions
    (..., n, 3) and orientations (..., n, 4).  The root stays at the origin
    with identity orientation; each child frame is the parent frame composed
    with the attach offset, the per-actuator rotations, then a translation by
    (length, 0, 0).  One array pass per (depth, actuator count) group of
    edges, with fk_frames' per-component formulas, so every row equals
    fk_frames bit for bit.  Per single state fk_frames is faster; this pass
    pays from a batch of about 8.
    """
    theta = np.asarray(joint_angles, dtype=np.float64)
    table = _body_table(graph)
    if theta.shape[-1:] != (table.A,):
        raise ShapeError(f"expected {table.A} joint angles, got shape {theta.shape}")
    half = 0.5 * theta.reshape(-1, table.A)
    sin, cos = np.sin(half), np.cos(half)
    pos = np.zeros((3, len(half), table.n))        # component-major: x, y, z rows
    quat = np.zeros((4, len(half), table.n))
    quat[0] = 1.0
    for parents, children, offset, turns, length in table.levels:
        q = tuple(quat[:, :, parents])
        px, py, pz = pos[:, :, parents]
        ox, oy, oz = _qrot_s(q, offset)
        ax, ay, az = px + ox, py + oy, pz + oz
        for dofs, (ux, uy, uz) in turns:
            s = sin[:, dofs]
            q = _qmul_s(q, (cos[:, dofs], s * ux, s * uy, s * uz))
        tx, ty, tz = _qrot_s(q, (length, 0.0, 0.0))
        pos[:, :, children] = (ax + tx, ay + ty, az + tz)
        quat[:, :, children] = q
    batch = theta.shape[:-1] + (table.n,)
    return (np.moveaxis(pos, 0, -1).reshape(batch + (3,)),
            np.moveaxis(quat, 0, -1).reshape(batch + (4,)))


def fk_frames(graph: MorphologyGraph, joint_angles):
    """Single-state FK on plain floats, plus per dof the world-frame rotation
    axis and anchor point that the analytic Jacobian needs.

    Returns positions (n, 3), orientations (n, 4), axes (A, 3), anchors (A, 3).
    """
    theta = np.asarray(joint_angles, dtype=np.float64)
    table = _body_table(graph)
    if theta.shape != (table.A,):
        raise ShapeError(f"expected shape ({table.A},), got {theta.shape}")
    return table.frames(theta.tolist())


def _jacobian(p: np.ndarray, axes: np.ndarray, anchors: np.ndarray,
              dofs: tuple[int, ...], A: int) -> np.ndarray:
    """(3, A) position Jacobian of point p: axis x (p - anchor) per path dof.

    Columns are computed on plain floats in np.cross's order, so they match
    it bit for bit at a third of the call overhead.  J stays a C-ordered
    array and the expert's J.T @ err stays numpy: BLAS may fuse
    multiply-adds that Python arithmetic rounds apart (see _norms).
    """
    rows = [0.0] * A, [0.0] * A, [0.0] * A
    px, py, pz = p.tolist()
    axes, anchors = axes.tolist(), anchors.tolist()
    for d in dofs:
        ux, uy, uz = axes[d]
        ax, ay, az = anchors[d]
        rx, ry, rz = px - ax, py - ay, pz - az
        rows[0][d] = uy * rz - uz * ry
        rows[1][d] = uz * rx - ux * rz
        rows[2][d] = ux * ry - uy * rx
    return np.array(rows)


def position_jacobian(graph: MorphologyGraph, joint_angles, node_id: int) -> np.ndarray:
    """Analytic d(position of node)/d(theta), zero outside the root path."""
    pos, _, axes, anchors = fk_frames(graph, joint_angles)
    return _jacobian(pos[node_id], axes, anchors, _body_table(graph).path_dofs[node_id],
                     graph.action_dimension())


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a short vector; same arithmetic as np.linalg.norm."""
    return math.sqrt(float(v @ v))


# --- target resolution and task construction ---------------------------------

@lru_cache(maxsize=4096)
def resolve_target(graph: MorphologyGraph, selector: str) -> int:
    if selector == "torso":
        trunk = [n.node_id for n in graph.nodes if n.kind in ("torso", "body")]
        return max(trunk)
    if selector.startswith("ee"):
        k = int(selector[2:])
        ees = graph.end_effectors()
        if k >= len(ees):
            raise IndexError(f"end effector {k} out of range ({len(ees)} available)")
        return ees[k]
    raise ValueError(f"unknown target selector {selector!r}")


# Philox counters of the two streams a reset seed keys: the goal stream of
# Generator(Philox(key=seed)) and the angle-and-box stream of
# Philox(key=seed).jumped(1), a jump of 2**128 draws.
_GOAL_STREAM = (0, 0, 0, 0)
_SCENE_STREAM = (0, 0, 1, 0)
_WORD = (1 << 64) - 1


def _uniform(u: np.ndarray, low: float, high: float) -> np.ndarray:
    """numpy's uniform(low, high) of the raw doubles u."""
    return low + (high - low) * u


def _on_circle(center: np.ndarray, angle: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """(B, 3) points center + radius * (cos, sin, 0) of each angle.  cos and
    sin are math's per value: np.cos may use SIMD kernels whose last bit
    differs by platform, and reset's bytes must not."""
    cos = np.array([math.cos(a) for a in angle.tolist()])
    sin = np.array([math.sin(a) for a in angle.tolist()])
    return center + radius[:, None] * np.stack([cos, sin, np.zeros_like(cos)], axis=1)


def _reset_draws(table: _BodyTable, graph: MorphologyGraph, task: TaskSpec, seeds):
    """Goals (B, G, 3), initial joint angles (B, A), ball and box (B, 3) or
    None of the episodes reset(seed) starts on graph, one row per seed.

    Per seed the goals draw from Generator(Philox(key=seed)) and the angles,
    then the box, from Philox(key=seed).jumped(1), every value numpy's
    uniform of the next double.  One Philox, seeded from a constant so it
    reads no OS entropy, is re-keyed to each stream through its state.

    XY-plane goals use a donut: angle ~ U[0, 2pi), radius ~ U[r_lo, r_hi],
    centered on the target chain's anchor.  Height goals use z ~ U[z_lo, z_hi].
    Initial angles are mid + RESET_ANGLE_FRACTION * half-range * U(-1, 1).
    """
    seeds = [operator.index(s) for s in seeds]
    boxes = sum(t.goal_kind == "box_to_target" for t in task.goals)
    u_goal = np.empty((len(seeds), sum(1 if t.goal_kind == "z_height" else 2
                                       for t in task.goals)))
    u_scene = np.empty((len(seeds), table.A + 2 * boxes))
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    for row, seed in enumerate(seeds):
        key = (seed & _WORD, seed >> 64)
        for counter, u in ((_GOAL_STREAM, u_goal), (_SCENE_STREAM, u_scene)):
            state["state"] = {"counter": counter, "key": key}
            bitgen.state = state
            rng.random(out=u[row])

    goals = np.zeros((len(seeds), len(task.goals), 3))
    theta = table.reset_mid + table.reset_span * _uniform(u_scene[:, :table.A], -1.0, 1.0)
    ball = box = None
    col, box_col = 0, table.A
    for g, tmpl in enumerate(task.goals):
        center = table.chain_anchor[resolve_target(graph, tmpl.target_selector)]
        if tmpl.goal_kind == "z_height":
            goals[:, g, 2] = _uniform(u_goal[:, col], tmpl.z_lo, tmpl.z_hi)
            col += 1
            continue
        goals[:, g] = _on_circle(center, _uniform(u_goal[:, col], 0.0, 2.0 * math.pi),
                                 _uniform(u_goal[:, col + 1], tmpl.r_lo, tmpl.r_hi))
        col += 2
        if tmpl.goal_kind == "ball_contact":
            ball = goals[:, g].copy()
        elif tmpl.goal_kind == "box_to_target":
            box = _on_circle(center, _uniform(u_scene[:, box_col], 0.0, 2.0 * math.pi),
                             _uniform(u_scene[:, box_col + 1],
                                      1.3 * tmpl.r_lo, 1.3 * tmpl.r_hi))
            box_col += 2
    return goals, theta, ball, box


def reset(spec: EnvSpec, seed: int) -> EnvState:
    """Sample goals, scene objects, and initial joint angles for one episode."""
    table = _body_table(spec.graph)
    goals, theta, ball, box = _reset_draws(table, spec.graph, spec.task, [seed])
    pos, quat, axes, anchors = table.frames(theta[0].tolist())
    return EnvState(graph=spec.graph, task=spec.task, joint_angles=theta[0],
                    goals=tuple(goals[0]), positions=pos, orientations=quat,
                    ball_pos=None if ball is None else ball[0],
                    box_pos=None if box is None else box[0],
                    dof_axes=axes, dof_anchors=anchors)


def reset_batch(spec: EnvSpec, seeds) -> EnvState:
    """reset of every seed as one lockstep state: one draw call, one array FK."""
    goals, theta, ball, box = _reset_draws(_body_table(spec.graph), spec.graph,
                                           spec.task, seeds)
    pos, quat = forward_kinematics(spec.graph, theta)
    return EnvState(graph=spec.graph, task=spec.task, joint_angles=theta,
                    goals=tuple(goals.transpose(1, 0, 2)), positions=pos,
                    orientations=quat, ball_pos=ball, box_pos=box)


def step(state: EnvState, actions) -> EnvState:
    """Integrate clamped joint velocities for one tick; quasi-static box push.

    A lockstep state (reset_batch) steps all its rows with one array FK, each
    row equal to its own episode's step bit for bit."""
    if state.step_count >= state.task.episode_length:
        raise EpisodeOverError(
            f"episode already finished after {state.step_count} steps")
    a = np.asarray(actions, dtype=np.float64)
    table = _body_table(state.graph)
    if a.shape != state.joint_angles.shape:
        raise ShapeError(f"expected {table.A} actions, got shape {a.shape}")
    # minimum(maximum()): np.clip's value on non-NaN input, half its overhead
    a = np.minimum(np.maximum(a, -1.0), 1.0)
    theta = np.minimum(np.maximum(state.joint_angles + table.gears * a * OMEGA_MAX * DT,
                                  table.lo), table.hi)
    box = state.box_pos
    if theta.ndim > 1:
        (pos, quat), axes, anchors = forward_kinematics(state.graph, theta), None, None
        if box is not None:
            box = np.array([resolve_box_push(p, table.radii, b) for p, b in zip(pos, box)])
    else:
        # At rest the frames are those of the same angles: reuse them.  Bytes,
        # not ==: -0.0 == 0.0, but sin(-0.0) is -0.0, so their frames may
        # differ in a zero's sign.
        if state.dof_axes is not None and theta.tobytes() == state.joint_angles.tobytes():
            pos, quat, axes, anchors = (state.positions, state.orientations,
                                        state.dof_axes, state.dof_anchors)
        else:
            pos, quat, axes, anchors = table.frames(theta.tolist())
        if box is not None:
            box = resolve_box_push(pos, table.radii, box)
    # Built field by field, which is cheaper than dataclasses.replace; a new
    # EnvState field must be added here too.
    return EnvState(graph=state.graph, task=state.task, joint_angles=theta,
                    goals=state.goals, positions=pos, orientations=quat,
                    step_count=state.step_count + 1, ball_pos=state.ball_pos,
                    box_pos=box, prev_joint_angles=state.joint_angles,
                    prev_positions=state.positions,
                    prev_orientations=state.orientations,
                    dof_axes=axes, dof_anchors=anchors)


def resolve_box_push(node_positions: np.ndarray, node_radii: np.ndarray,
                     box_pos: np.ndarray, box_radius: float = BOX_RADIUS) -> np.ndarray:
    """Quasi-static sphere push: any overlapping node translates the box along
    the horizontal contact normal by the overlap depth.  Nodes are processed
    in id order so the result is deterministic."""
    box = np.asarray(box_pos, dtype=np.float64).copy()
    # Clearances from the unmoved box in one array op.  Each push moves the
    # box by its overlap, so a node whose clearance exceeds the pushes so far
    # plus a margin (far above the rounding gap between this norm and _norm)
    # cannot overlap the box and is skipped: it would not move it.
    delta = box - node_positions
    gaps = np.sqrt(np.einsum("ij,ij->i", delta, delta)) - node_radii - box_radius
    moved = 0.0
    for i, gap in enumerate(gaps.tolist()):
        if gap > moved + _CONTACT_MARGIN:
            continue
        delta = box - node_positions[i]
        dist = _norm(delta)
        overlap = float(node_radii[i]) + box_radius - dist
        if overlap > 0.0:
            normal = np.array([delta[0], delta[1], 0.0])
            norm = _norm(normal)
            if norm > 1e-12:
                box = box + (normal / norm) * overlap
                moved += overlap
    return box


def goal_distance(state: EnvState, goal_index: int) -> float:
    """Task-dependent distance from the current state to one goal."""
    tmpl = state.task.goals[goal_index]
    value = state.goals[goal_index]
    target = resolve_target(state.graph, tmpl.target_selector)
    p = state.positions[target]
    if tmpl.goal_kind == "xy_position":
        return _norm(p[:2] - value[:2])
    if tmpl.goal_kind == "z_height":
        return float(abs(p[2] - value[2]))
    if tmpl.goal_kind == "ball_contact":
        gap = _norm(p - state.ball_pos)
        return max(0.0, gap - state.graph.nodes[target].radius - BALL_RADIUS)
    if tmpl.goal_kind == "box_to_target":
        return _norm(state.box_pos[:2] - value[:2])
    raise ValueError(f"unknown goal kind {tmpl.goal_kind!r}")


def goal_distances(state: EnvState) -> list[float]:
    """goal_distance of every goal, in goal order."""
    return [goal_distance(state, g) for g in range(len(state.task.goals))]


def _norms(v: np.ndarray) -> np.ndarray:
    """_norm of each row of v.  A stacked matmul takes each row's dot product
    as v @ v does, which x*x + y*y does not always equal."""
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])


def batch_goal_distances(state: EnvState) -> np.ndarray:
    """goal_distances of every episode of a lockstep state, (B, G), with
    goal_distance's arithmetic over arrays: each value equals it bit for bit."""
    graph = state.graph
    distances = np.empty((len(state.joint_angles), len(state.goals)))
    for g, (tmpl, value) in enumerate(zip(state.task.goals, state.goals)):
        target = resolve_target(graph, tmpl.target_selector)
        p = state.positions[:, target]
        if tmpl.goal_kind == "xy_position":
            distances[:, g] = _norms(p[:, :2] - value[:, :2])
        elif tmpl.goal_kind == "z_height":
            distances[:, g] = np.abs(p[:, 2] - value[:, 2])
        elif tmpl.goal_kind == "ball_contact":
            gap = _norms(p - state.ball_pos) - graph.nodes[target].radius - BALL_RADIUS
            distances[:, g] = np.where(gap > 0.0, gap, 0.0)
        else:
            distances[:, g] = _norms(state.box_pos[:, :2] - value[:, :2])
    return distances


def _goal_error_vector(state: EnvState, goal_index: int,
                       positions: np.ndarray) -> tuple[int, np.ndarray]:
    """Target node and the gradient of the squared-distance surrogate."""
    tmpl = state.task.goals[goal_index]
    value = state.goals[goal_index]
    target = resolve_target(state.graph, tmpl.target_selector)
    p = positions[target]
    if tmpl.goal_kind == "xy_position":
        return target, np.array([p[0] - value[0], p[1] - value[1], 0.0])
    if tmpl.goal_kind == "z_height":
        return target, np.array([0.0, 0.0, p[2] - value[2]])
    if tmpl.goal_kind == "ball_contact":
        delta = p - state.ball_pos
        gap = _norm(delta)
        if gap < 1e-12:
            return target, np.zeros(3)
        d = max(0.0, gap - state.graph.nodes[target].radius - BALL_RADIUS)
        return target, delta / gap * d
    if tmpl.goal_kind == "box_to_target":
        # Two-phase push: swing to a staging point behind the box first so
        # transit cannot shove it off line, then drive through its center and
        # let overlap resolution translate it toward the goal.
        to_goal = value[:2] - state.box_pos[:2]
        dist = _norm(to_goal)
        if dist < 1e-12:
            return target, np.zeros(3)
        u = to_goal / dist
        slack = state.graph.nodes[target].radius + BOX_RADIUS
        rel = p[:2] - state.box_pos[:2]
        behind_enough = float(rel @ u) < -0.5 * slack
        if behind_enough:
            aim = state.box_pos[:2]
        else:
            aim = state.box_pos[:2] - u * 2.0 * slack
        return target, np.array([p[0] - aim[0], p[1] - aim[1], 0.0])
    raise ValueError(f"unknown goal kind {tmpl.goal_kind!r}")


def scripted_expert(state: EnvState, gain: float = 1.0,
                    distances: list[float] | None = None) -> np.ndarray:
    """Jacobian-transpose controller over all unsatisfied goals.

    Per goal the error vector is the gradient of the squared goal distance at
    the target node, scaled by the chain's largest non-overshooting gain;
    ``gain`` multiplies that base.  Goals already within d_min contribute
    nothing, so the action is exactly zero once every goal is satisfied.
    ``distances`` are the state's goal_distances, which a caller that has just
    checked them for its done test passes on instead of recomputing.
    """
    if distances is None:
        distances = goal_distances(state)
    table = _body_table(state.graph)
    axes, anchors = state.dof_axes, state.dof_anchors
    if axes is None:
        _, _, axes, anchors = table.frames(state.joint_angles.tolist())
    tau = np.zeros(table.A)
    for g, d in enumerate(distances):
        if d <= state.task.d_min[g]:
            continue
        target, err = _goal_error_vector(state, g, state.positions)
        J = _jacobian(state.positions[target], axes, anchors,
                      table.path_dofs[target], table.A)
        tau += table.stable_gain[target] * (J.T @ err)
    return np.minimum(np.maximum(-gain * tau, -1.0), 1.0)


# --- local observations --------------------------------------------------------

def local_observations(state: EnvState, spec: ObservationSpec) -> np.ndarray:
    """Per-node feature rows in canonical flag order, (n, F), or (B, n, F)
    for a lockstep state.

    Velocity-like slots (v, a, jv) are one-step finite differences and are
    exactly zero at reset; joint-derived slots are zero for the root.  Each
    flag is one array operation over all nodes (and episodes).
    """
    table = _body_table(state.graph)
    moving = state.prev_joint_angles is not None
    pos, quat = state.positions, state.orientations
    child, parent = table.child, table.parent
    rows = np.zeros(pos.shape[:-1] + (spec.width,), dtype=np.float64)
    col = 0
    for flag in spec.flags:
        out = rows[..., col: col + FLAG_WIDTHS[flag]]
        col += FLAG_WIDTHS[flag]
        if flag == "p":
            out[...] = pos
        elif flag == "q":
            out[...] = quat
        elif flag == "ja":
            out[...] = np.where(table.jointed, state.joint_angles[..., table.joint_index], 0.0)
        elif flag == "jr":
            out[...] = table.jr
        elif flag == "id":
            out[...] = table.id
        elif flag == "rp":
            out[..., child, :] = pos[..., child, :] - pos[..., parent, :]
        elif flag == "rr":
            out[..., child, :] = quat_mul(quat_conj(quat[..., parent, :]),
                                          quat[..., child, :])
        elif flag == "m":
            out[...] = table.m
        elif not moving:
            continue                     # v, a, jv stay zero at reset
        elif flag == "v":
            out[...] = (pos - state.prev_positions) / DT
        elif flag == "a":
            dq = quat_mul(quat, quat_conj(state.prev_orientations))
            out[...] = quat_to_rotvec(dq) / DT
        elif flag == "jv":
            rate = (state.joint_angles - state.prev_joint_angles) / DT
            out[...] = np.where(table.jointed, rate[..., table.joint_index], 0.0)
    return rows


# --- standard tasks and environment ids ----------------------------------------

def _probed_mean_distances(graph: MorphologyGraph, task: TaskSpec) -> np.ndarray:
    """Mean initial goal_distance per goal over the seeded probe resets: one
    reset_batch of every probe, each goal's distances summed in seed order."""
    seeds = range(D_MAX_PROBE_SEED, D_MAX_PROBE_SEED + D_MAX_PROBE_RESETS)
    distances = batch_goal_distances(reset_batch(EnvSpec("probe", graph, task), seeds))
    return np.cumsum(distances, axis=0)[-1] / D_MAX_PROBE_RESETS


# Task name -> (task kind, one goal spec per limb in leg order).  Specs: xy
# and xy_hard an annulus around the limb's anchor, z a tip height, ball a
# static ball to touch, box a box to push onto a goal.
_TASKS = {
    "reach": ("reach", ("xy",)),
    "reach_hard": ("reach_hard", ("xy_hard",)),
    "touch": ("touch", ("ball",)),
    "push": ("push", ("box",)),
    "reach_handsup": ("twister", ("xy", "z")),
    "reach_hard_handsup": ("twister", ("xy_hard", "z")),
    "reach2_handsup": ("twister", ("xy", "xy", "z")),
    "reach_handsup2": ("twister", ("xy", "z", "z")),
    "touch_handsup": ("twister", ("ball", "z")),
}
TASK_NAMES = tuple(_TASKS)


def make_task(graph: MorphologyGraph, task_name: str,
              episode_length: int = EPISODE_LENGTH) -> TaskSpec:
    """Build a workspace-scaled task for this body; d_max per goal is the
    mean initial distance over seeded probe resets."""
    kind, specs = _TASKS[task_name]
    n_limbs = len(graph.end_effectors())
    if len(specs) > n_limbs:
        raise ValueError(f"{task_name} needs {len(specs)} limbs, "
                         f"{graph.blueprint_tag} has {n_limbs}")
    table = _body_table(graph)
    # A spine body touches with its last body, not a leg.
    spine = graph.blueprint_tag.split("_")[0] in ("centipede", "worm")
    goals = []
    for k, spec in enumerate(specs):
        sel = "torso" if kind == "touch" and spine else f"ee{k}"
        target = resolve_target(graph, sel)
        L = table.chain_length[target]
        if spec in ("xy", "xy_hard"):
            lo, hi = (0.7, 0.97) if spec == "xy_hard" else (0.55, 0.9)
            goals.append(GoalTemplate("xy_position", sel, r_lo=q9(lo * L), r_hi=q9(hi * L)))
        elif spec == "z":
            zmax = table.pitch_reach[target]
            goals.append(GoalTemplate("z_height", sel,
                                      z_lo=q9(0.3 * zmax), z_hi=q9(0.7 * zmax)))
        elif spec == "ball":
            slack = graph.nodes[target].radius + BALL_RADIUS
            goals.append(GoalTemplate("ball_contact", sel, r_lo=q9(L + 0.2 * slack),
                                      r_hi=q9(L + 0.8 * slack)))
        else:
            goals.append(GoalTemplate("box_to_target", sel,
                                      r_lo=q9(0.35 * L), r_hi=q9(0.5 * L)))
    task = TaskSpec(task_kind=kind, goals=tuple(goals),
                    d_min=(D_MIN_DEFAULT,) * len(goals),
                    d_max=(2.0 * D_MIN_DEFAULT,) * len(goals),
                    episode_length=episode_length)
    means = _probed_mean_distances(graph, task)
    return replace(task, d_max=tuple(q9(max(float(m), 2.0 * D_MIN_DEFAULT)) for m in means))


# Env-id variant suffixes: token -> (variation key, value count, value type).
_VARIANTS = {"missing": ("missing", 1, int), "mass": ("mass_scales", 3, float),
             "size": ("size_scales", 3, float)}


def parse_env_id(env_id: str) -> tuple[str, str, int, dict]:
    """'<blueprint>_<task>_<count>[_missing_k|_mass_a_b_c|_size_a_b_c]'.

    A malformed id (unknown task or suffix, a suffix with too few values, a
    value that is not a number) raises ValueError naming the id."""
    parts = env_id.split("_")
    blueprint = parts[0]
    rest = parts[1:]
    task_name = None
    for name in sorted(TASK_NAMES, key=len, reverse=True):
        toks = name.split("_")
        if rest[:len(toks)] == toks:
            task_name = name
            rest = rest[len(toks):]
            break
    if task_name is None or not rest:
        raise ValueError(f"cannot parse env id {env_id!r}")
    try:
        count = int(rest[0])
        rest = rest[1:]
        variation: dict = {}
        while rest:
            if rest[0] not in _VARIANTS:
                raise ValueError(f"unknown variant tokens {rest}")
            key, arity, kind = _VARIANTS[rest[0]]
            if len(rest) <= arity:
                raise ValueError(f"variant {rest[0]!r} needs {arity} value(s)")
            values = tuple(kind(x) for x in rest[1:1 + arity])
            variation[key] = values[0] if arity == 1 else values
            rest = rest[1 + arity:]
    except ValueError as exc:
        raise ValueError(f"cannot parse env id {env_id!r}: {exc}") from None
    return blueprint, task_name, count, variation


@lru_cache(maxsize=256)
def make_env(env_id: str) -> EnvSpec:
    """Build the (morphology, task) pair named by an environment id."""
    blueprint, task_name, count, variation = parse_env_id(env_id)
    graph = generate_morphology(blueprint, count, variation or None)
    try:
        with np.errstate(over="raise", invalid="raise"):
            task = make_task(graph, task_name)
    except FloatingPointError as exc:    # a finite but huge variation scale
        raise ValueError(f"env id {env_id!r}: its task overflows ({exc})") from None
    return EnvSpec(env_id=env_id, graph=graph, task=task)


# --- task spec text format ------------------------------------------------------

def serialize_task(task: TaskSpec) -> str:
    lines = [f"task {task.task_kind} goals={len(task.goals)} "
             f"episode={task.episode_length}"]
    for g, tmpl in enumerate(task.goals):
        lines.append(
            f"goal {tmpl.goal_kind} {tmpl.target_selector} "
            f"{_fmt(tmpl.r_lo)} {_fmt(tmpl.r_hi)} {_fmt(tmpl.z_lo)} "
            f"{_fmt(tmpl.z_hi)} {_fmt(task.d_min[g])} {_fmt(task.d_max[g])}")
    return "\n".join(lines) + "\n"


def parse_task(text: str) -> TaskSpec:
    """Inverse of serialize_task.  Malformed text and any number that is
    not finite or out of range raise TaskParseError with a line number."""
    rows = [(ln, line.split()) for ln, line in text_lines(text)]
    if not rows:
        raise TaskParseError(0, "empty task text (missing header)")
    head_ln, head = rows[0]
    if len(head) != 4 or head[0] != "task":
        raise TaskParseError(head_ln, "expected 'task <kind> goals=<k> episode=<T>'")
    kind = head[1]
    try:
        n_goals = int(head[2].removeprefix("goals="))
        episode = int(head[3].removeprefix("episode="))
    except ValueError:
        raise TaskParseError(head_ln, "bad goals=/episode= fields") from None
    goals, d_min, d_max = [], [], []
    for ln, parts in rows[1:]:
        if parts[0] != "goal":
            raise TaskParseError(ln, f"unknown directive {parts[0]!r}")
        if len(parts) != 9:
            raise TaskParseError(ln, "goal line needs 8 fields")
        try:
            r_lo, r_hi, z_lo, z_hi, lo, hi = map(float, parts[3:])
            goals.append(GoalTemplate(parts[1], parts[2], r_lo, r_hi, z_lo, z_hi))
        except ValueError as exc:
            raise TaskParseError(ln, str(exc)) from None
        d_min.append(lo)
        d_max.append(hi)
    if len(goals) != n_goals:
        raise TaskParseError(ln if rows[1:] else 1,
                             f"missing goal section: header says {n_goals}, "
                             f"got {len(goals)}")
    try:
        return TaskSpec(task_kind=kind, goals=tuple(goals), d_min=tuple(d_min),
                        d_max=tuple(d_max), episode_length=episode)
    except ValueError as exc:
        raise TaskParseError(head_ln, str(exc)) from None


def serialize_env(spec: EnvSpec) -> tuple[str, str]:
    return serialize_morphology(spec.graph), serialize_task(spec.task)


def env_from_texts(env_id: str, morphology_text: str, task_text: str) -> EnvSpec:
    return EnvSpec(env_id=env_id, graph=parse_morphology(morphology_text),
                   task=parse_task(task_text))
