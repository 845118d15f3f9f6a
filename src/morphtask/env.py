"""Deterministic 3D kinematic-tree environment.

The scene holds one agent whose root is fixed at the origin.  Tasks place
positional goals (reach), height goals (handsup), a static ball (touch), or a
pushable box (push) inside the workspace of the limb that must satisfy them.
A Jacobian-transpose controller serves as the scripted expert.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .control_graph import FLAG_WIDTHS, ObservationSpec, ShapeError
from .morphology import (
    MorphologyGraph,
    generate_morphology,
    parse_morphology,
    q9,
    serialize_morphology,
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
    graph: MorphologyGraph
    task: TaskSpec
    joint_angles: np.ndarray             # (A,)
    goals: tuple[np.ndarray, ...]        # sampled values, 3-vectors
    positions: np.ndarray                # (n, 3) node tips
    orientations: np.ndarray             # (n, 4) unit quaternions (w, x, y, z)
    step_count: int = 0
    ball_pos: np.ndarray | None = None
    box_pos: np.ndarray | None = None
    prev_joint_angles: np.ndarray | None = None
    prev_positions: np.ndarray | None = None
    prev_orientations: np.ndarray | None = None
    rng_stream: int = 0                  # reset seed; kinematics has no noise
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


# --- forward kinematics -------------------------------------------------------

class _Kinematics:
    """Per-graph constants of the single-state hot path, computed once."""

    def __init__(self, graph: MorphologyGraph):
        self.n = graph.n_nodes
        self.A = graph.action_dimension()
        # FK recipe per edge: parent, child, attach offset, actuator axes, length.
        self.edges = tuple(
            (e.parent_id, e.child_id, graph.nodes[e.child_id].attach_offset,
             tuple(act.axis for act in e.actuators), graph.nodes[e.child_id].length)
            for e in graph.edges)
        acts = [act for _, act in graph.dof_actuators()]
        self.gears = np.array([a.gear for a in acts])
        self.lo = np.array([a.range_lo for a in acts])
        self.hi = np.array([a.range_hi for a in acts])
        # Reset draws theta = mid + RESET_ANGLE_FRACTION * half * U(-1, 1).
        self.reset_mid = 0.5 * (self.lo + self.hi)
        self.reset_span = RESET_ANGLE_FRACTION * (0.5 * (self.hi - self.lo))
        self.radii = np.array([n.radius for n in graph.nodes])
        # The same recipe for the array FK: edges grouped by (depth, actuator
        # count), so a group's parents are placed and its rotations align.
        groups: dict[tuple[int, int], list] = {}
        depth = {}
        dof = 0
        for parent, child, offset, act_axes, length in self.edges:
            depth[child] = depth.get(parent, 0) + 1
            groups.setdefault((depth[child], len(act_axes)), []).append(
                (parent, child, offset, act_axes, range(dof, dof + len(act_axes)),
                 length))
            dof += len(act_axes)
        self.levels = tuple(_fk_level(group) for _, group in sorted(groups.items()))
        _freeze_arrays(self)


def _fk_level(edges):
    """One group of edges as arrays: (parents, children, attach offset
    components, per actuator (dof indices, axis components), lengths)."""
    parents, children, offsets, axes, dofs, lengths = zip(*edges)

    def components(vectors):
        return tuple(np.array(c) for c in zip(*vectors))

    turns = tuple((np.array(d), components(a)) for d, a in zip(zip(*dofs), zip(*axes)))
    return (np.array(parents), np.array(children), components(offsets), turns,
            np.array(lengths))


def _freeze_arrays(tables) -> None:
    """Make a cached table's arrays read-only: every caller shares them."""
    for value in vars(tables).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False


@lru_cache(maxsize=1024)
def _kinematics(graph: MorphologyGraph) -> _Kinematics:
    return _Kinematics(graph)


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
    kin = _kinematics(graph)
    if theta.shape[-1:] != (kin.A,):
        raise ShapeError(f"expected {kin.A} joint angles, got shape {theta.shape}")
    half = 0.5 * theta.reshape(-1, kin.A)
    sin, cos = np.sin(half), np.cos(half)
    pos = np.zeros((3, len(half), kin.n))        # component-major: x, y, z rows
    quat = np.zeros((4, len(half), kin.n))
    quat[0] = 1.0
    for parents, children, offset, turns, length in kin.levels:
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
    batch = theta.shape[:-1] + (kin.n,)
    return (np.moveaxis(pos, 0, -1).reshape(batch + (3,)),
            np.moveaxis(quat, 0, -1).reshape(batch + (4,)))


def fk_frames(graph: MorphologyGraph, joint_angles):
    """Single-state FK on plain floats, plus per dof the world-frame rotation
    axis and anchor point that the analytic Jacobian needs.

    Returns positions (n, 3), orientations (n, 4), axes (A, 3), anchors (A, 3).
    """
    theta = np.asarray(joint_angles, dtype=np.float64)
    kin = _kinematics(graph)
    if theta.shape != (kin.A,):
        raise ShapeError(f"expected shape ({kin.A},), got {theta.shape}")
    angles = theta.tolist()
    pos = [(0.0, 0.0, 0.0)] * kin.n
    quat = [(1.0, 0.0, 0.0, 0.0)] * kin.n
    axes = []
    anchors = []
    dof = 0
    for parent, child, offset, act_axes, length in kin.edges:
        px, py, pz = pos[parent]
        q = quat[parent]
        ox, oy, oz = _qrot_s(q, offset)
        anchor = (px + ox, py + oy, pz + oz)
        for axis in act_axes:
            axes.append(_qrot_s(q, axis))
            anchors.append(anchor)
            half = 0.5 * angles[dof]
            s = math.sin(half)
            ux, uy, uz = axis
            q = _qmul_s(q, (math.cos(half), s * ux, s * uy, s * uz))
            dof += 1
        tx, ty, tz = _qrot_s(q, (length, 0.0, 0.0))
        pos[child] = (anchor[0] + tx, anchor[1] + ty, anchor[2] + tz)
        quat[child] = q
    return (np.array(pos), np.array(quat),
            np.array(axes).reshape(-1, 3), np.array(anchors).reshape(-1, 3))


@lru_cache(maxsize=4096)
def _root_path_dofs(graph: MorphologyGraph, node_id: int) -> tuple[int, ...]:
    """Global dof indices of every actuator on the root -> node path."""
    parent = graph.parent_map
    dof_start = {}
    dof = 0
    for e in graph.edges:
        dof_start[e.child_id] = dof
        dof += len(e.actuators)
    out: list[int] = []
    cur = node_id
    while cur in parent:
        e = parent[cur]
        out.extend(range(dof_start[cur], dof_start[cur] + len(e.actuators)))
        cur = e.parent_id
    return tuple(sorted(out))


def _jacobian(p: np.ndarray, axes: np.ndarray, anchors: np.ndarray,
              dofs: tuple[int, ...], A: int) -> np.ndarray:
    """(3, A) position Jacobian of point p: axis x (p - anchor) per path dof.

    The cross product is spelled out per component in np.cross's order, so
    the columns match it bit for bit.
    """
    J = np.zeros((3, A))
    if dofs:
        idx = list(dofs)
        u = axes[idx].T
        r = (p - anchors[idx]).T
        J[:, idx] = (u[1] * r[2] - u[2] * r[1],
                     u[2] * r[0] - u[0] * r[2],
                     u[0] * r[1] - u[1] * r[0])
    return J


def position_jacobian(graph: MorphologyGraph, joint_angles, node_id: int) -> np.ndarray:
    """Analytic d(position of node)/d(theta), zero outside the root path."""
    pos, _, axes, anchors = fk_frames(graph, joint_angles)
    return _jacobian(pos[node_id], axes, anchors, _root_path_dofs(graph, node_id),
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


@lru_cache(maxsize=4096)
def _chain_anchor_cached(graph: MorphologyGraph, node_id: int) -> tuple[float, ...]:
    dofs = _root_path_dofs(graph, node_id)
    if not dofs:
        return (0.0, 0.0, 0.0)
    _, _, _, anchors = fk_frames(graph, np.zeros(graph.action_dimension()))
    return tuple(anchors[dofs[0]])


def chain_anchor(graph: MorphologyGraph, node_id: int) -> np.ndarray:
    """World anchor of the first actuated joint on the root path (zero pose)."""
    return np.array(_chain_anchor_cached(graph, node_id))


def chain_length(graph: MorphologyGraph, node_id: int) -> float:
    """Summed module lengths from the chain anchor out to the node."""
    parent = graph.parent_map
    total = 0.0
    cur = node_id
    while cur in parent:
        total += graph.nodes[cur].length
        cur = parent[cur].parent_id
    return total


def pitch_reach(graph: MorphologyGraph, node_id: int) -> float:
    """Summed lengths from the first pitch-capable joint outward: max tip height."""
    parent = graph.parent_map
    chain = []
    cur = node_id
    while cur in parent:
        chain.append(parent[cur])
        cur = parent[cur].parent_id
    total = 0.0
    for e in reversed(chain):
        has_pitch = any(abs(a.axis[2]) < 0.5 for a in e.actuators)
        if total > 0.0 or has_pitch:
            total += graph.nodes[e.child_id].length
    return total


def sample_goals(task: TaskSpec, graph: MorphologyGraph, seed: int) -> list[np.ndarray]:
    """Draw one value per goal template; deterministic in the seed.

    XY-plane goals use a donut: angle ~ U[0, 2pi), radius ~ U[r_lo, r_hi],
    centered on the target chain's anchor.  Height goals use z ~ U[z_lo, z_hi].
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    out = []
    for tmpl in task.goals:
        target = resolve_target(graph, tmpl.target_selector)
        if tmpl.goal_kind == "z_height":
            z = rng.uniform(tmpl.z_lo, tmpl.z_hi)
            out.append(np.array([0.0, 0.0, z]))
            continue
        center = chain_anchor(graph, target)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        radius = rng.uniform(tmpl.r_lo, tmpl.r_hi)
        out.append(center + radius * np.array([math.cos(angle), math.sin(angle), 0.0]))
    return out


def _reset_draws(graph: MorphologyGraph, task: TaskSpec, seed: int):
    """Goals, initial joint angles, ball and box of the episode reset(seed)
    starts: (goals, theta, ball or None, box or None)."""
    goals = sample_goals(task, graph, seed)
    rng = np.random.Generator(np.random.Philox(key=seed).jumped(1))
    kin = _kinematics(graph)
    theta = kin.reset_mid + kin.reset_span * rng.uniform(-1.0, 1.0, size=kin.A)
    ball = None
    box = None
    for g, tmpl in enumerate(task.goals):
        if tmpl.goal_kind == "ball_contact":
            ball = goals[g].copy()
        elif tmpl.goal_kind == "box_to_target":
            target = resolve_target(graph, tmpl.target_selector)
            center = chain_anchor(graph, target)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            radius = rng.uniform(1.3 * tmpl.r_lo, 1.3 * tmpl.r_hi)
            box = center + radius * np.array([math.cos(angle), math.sin(angle), 0.0])
    return goals, theta, ball, box


def reset(spec: EnvSpec, seed: int) -> EnvState:
    """Sample goals, scene objects, and initial joint angles for one episode."""
    goals, theta, ball, box = _reset_draws(spec.graph, spec.task, seed)
    pos, quat, axes, anchors = fk_frames(spec.graph, theta)
    return EnvState(graph=spec.graph, task=spec.task, joint_angles=theta,
                    goals=tuple(goals), positions=pos, orientations=quat,
                    ball_pos=ball, box_pos=box, rng_stream=seed,
                    dof_axes=axes, dof_anchors=anchors)


def step(state: EnvState, actions, dt: float = DT) -> EnvState:
    """Integrate clamped joint velocities for one tick; quasi-static box push."""
    if state.step_count >= state.task.episode_length:
        raise EpisodeOverError(
            f"episode already finished after {state.step_count} steps")
    a = np.asarray(actions, dtype=np.float64)
    kin = _kinematics(state.graph)
    if a.shape != (kin.A,):
        raise ShapeError(f"expected {kin.A} actions, got shape {a.shape}")
    a = np.clip(a, -1.0, 1.0)
    theta = np.clip(state.joint_angles + kin.gears * a * OMEGA_MAX * dt,
                    kin.lo, kin.hi)
    # At rest the frames are those of the same angles: reuse them.  Bytes,
    # not ==: -0.0 == 0.0, but sin(-0.0) is -0.0, so their frames may differ
    # in a zero's sign.
    if state.dof_axes is not None and theta.tobytes() == state.joint_angles.tobytes():
        pos, quat, axes, anchors = (state.positions, state.orientations,
                                    state.dof_axes, state.dof_anchors)
    else:
        pos, quat, axes, anchors = fk_frames(state.graph, theta)
    box = state.box_pos
    if box is not None:
        box = resolve_box_push(pos, kin.radii, box)
    # Built field by field, which is cheaper than dataclasses.replace; a new
    # EnvState field must be added here too.
    return EnvState(graph=state.graph, task=state.task, joint_angles=theta,
                    goals=state.goals, positions=pos, orientations=quat,
                    step_count=state.step_count + 1, ball_pos=state.ball_pos,
                    box_pos=box, prev_joint_angles=state.joint_angles,
                    prev_positions=state.positions,
                    prev_orientations=state.orientations,
                    rng_stream=state.rng_stream, dof_axes=axes, dof_anchors=anchors)


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


@lru_cache(maxsize=4096)
def _stable_gain(graph: MorphologyGraph, node_id: int) -> float:
    """Largest Jacobian-transpose gain that cannot overshoot for this chain.

    A revolute joint at distance r from the target moves it by at most
    r * d(theta), so the descent map contracts whenever
    gain * omega * dt * sum(r_j^2) <= 1.
    """
    parent = graph.parent_map
    reach_sq = 0.0
    acc = 0.0
    cur = node_id
    while cur in parent:
        acc += graph.nodes[cur].length
        reach_sq += len(parent[cur].actuators) * acc * acc
        cur = parent[cur].parent_id
    if reach_sq < 1e-9:
        return 0.0
    return 1.0 / (OMEGA_MAX * DT * reach_sq)


def scripted_expert(state: EnvState, gain: float = 1.0) -> np.ndarray:
    """Jacobian-transpose controller over all unsatisfied goals.

    Per goal the error vector is the gradient of the squared goal distance at
    the target node, scaled by the chain's largest non-overshooting gain;
    ``gain`` multiplies that base.  Goals already within d_min contribute
    nothing, so the action is exactly zero once every goal is satisfied.
    """
    return _expert_action(state, gain, goal_distances(state))


def _expert_action(state: EnvState, gain: float,
                   distances: list[float]) -> np.ndarray:
    """scripted_expert given the state's goal_distances, which a caller that
    has just checked them for its done test passes on instead of
    recomputing."""
    graph = state.graph
    A = graph.action_dimension()
    axes, anchors = state.dof_axes, state.dof_anchors
    if axes is None:
        _, _, axes, anchors = fk_frames(graph, state.joint_angles)
    tau = np.zeros(A)
    for g, d in enumerate(distances):
        if d <= state.task.d_min[g]:
            continue
        target, err = _goal_error_vector(state, g, state.positions)
        J = _jacobian(state.positions[target], axes, anchors,
                      _root_path_dofs(graph, target), A)
        tau += _stable_gain(graph, target) * (J.T @ err)
    return np.clip(-gain * tau, -1.0, 1.0)


# --- local observations --------------------------------------------------------

_KIND_SLOTS = {"torso": (1.0, 0.0), "body": (0.0, 1.0), "limb_segment": (0.0, 0.0)}


class _ObservationTables:
    """Static per-graph inputs of local_observations, computed once."""

    def __init__(self, graph: MorphologyGraph):
        n = graph.n_nodes
        A = graph.action_dimension()
        parent = graph.parent_map
        self.n = n
        # Rows of jointed (non-root) nodes and of their parents; the root's
        # relative slots stay zero.
        self.child = np.array([node.node_id for node in graph.nodes
                               if node.node_id in parent], dtype=np.intp)
        self.parent = np.array([parent[i].parent_id for i in self.child.tolist()],
                               dtype=np.intp)
        # Gather index of the 3 joint slots into theta padded with one zero
        # (index A) for missing actuators and the root.
        self.joint_index = np.full((n, 3), A, dtype=np.intp)
        self.jr = np.zeros((n, 6))
        self.m = np.zeros((n, 8))
        self.id = np.zeros((n, 1))
        for node in graph.nodes:
            i = node.node_id
            self.id[i] = i / n
            edge = parent.get(i)
            gear = dof = 0.0
            if edge is not None:
                k = len(edge.actuators)
                self.joint_index[i, :k] = range(node.dof_index, node.dof_index + k)
                for j, act in enumerate(edge.actuators):
                    self.jr[i, 2 * j] = act.range_lo
                    self.jr[i, 2 * j + 1] = act.range_hi
                gear = edge.actuators[0].gear
                dof = node.dof_index / A
            self.m[i] = (node.radius, node.length, node.mass, node.inertia,
                         gear, dof, *_KIND_SLOTS[node.kind])
        _freeze_arrays(self)


@lru_cache(maxsize=1024)
def _observation_tables(graph: MorphologyGraph) -> _ObservationTables:
    return _ObservationTables(graph)


def local_observations(state: EnvState, spec: ObservationSpec,
                       dt: float = DT) -> np.ndarray:
    """Per-node feature rows in canonical flag order.

    Velocity-like slots (v, a, jv) are one-step finite differences and are
    exactly zero at reset; joint-derived slots are zero for the root.  Each
    flag is one array operation over all nodes.
    """
    tables = _observation_tables(state.graph)
    moving = state.prev_joint_angles is not None
    rows = np.zeros((tables.n, spec.width), dtype=np.float64)
    col = 0
    for flag in spec.flags:
        out = rows[:, col: col + FLAG_WIDTHS[flag]]
        col += FLAG_WIDTHS[flag]
        if flag == "p":
            out[...] = state.positions
        elif flag == "q":
            out[...] = state.orientations
        elif flag == "ja":
            out[...] = np.append(state.joint_angles, 0.0)[tables.joint_index]
        elif flag == "jr":
            out[...] = tables.jr
        elif flag == "id":
            out[...] = tables.id
        elif flag == "rp":
            pos = state.positions
            out[tables.child] = pos[tables.child] - pos[tables.parent]
        elif flag == "rr":
            quat = state.orientations
            out[tables.child] = quat_mul(quat_conj(quat[tables.parent]),
                                         quat[tables.child])
        elif flag == "m":
            out[...] = tables.m
        elif not moving:
            continue                     # v, a, jv stay zero at reset
        elif flag == "v":
            out[...] = (state.positions - state.prev_positions) / dt
        elif flag == "a":
            dq = quat_mul(state.orientations, quat_conj(state.prev_orientations))
            out[...] = quat_to_rotvec(dq) / dt
        elif flag == "jv":
            rate = (state.joint_angles - state.prev_joint_angles) / dt
            out[...] = np.append(rate, 0.0)[tables.joint_index]
    return rows


# --- standard tasks and environment ids ----------------------------------------

def _with_probed_d_max(graph: MorphologyGraph, task: TaskSpec) -> TaskSpec:
    """d_max per goal = mean initial distance over seeded probe resets.

    Each probe draws what reset draws; one array FK places every probe's
    body, and the distances are summed in seed order.
    """
    draws = [_reset_draws(graph, task, D_MAX_PROBE_SEED + j)
             for j in range(D_MAX_PROBE_RESETS)]
    positions, orientations = forward_kinematics(graph, [d[1] for d in draws])
    sums = np.zeros(len(task.goals))
    for (goals, theta, ball, box), pos, quat in zip(draws, positions, orientations):
        sums += goal_distances(EnvState(
            graph=graph, task=task, joint_angles=theta, goals=tuple(goals),
            positions=pos, orientations=quat, ball_pos=ball, box_pos=box))
    means = sums / D_MAX_PROBE_RESETS
    d_max = tuple(q9(max(float(m), task.d_min[g] * 2.0))
                  for g, m in enumerate(means))
    return replace(task, d_max=d_max)


def _twister_templates(graph: MorphologyGraph, name: str) -> list[GoalTemplate]:
    """Goals assigned to distinct end effectors in leg order."""
    ees = graph.end_effectors()
    specs = {
        "reach_handsup": ("xy", "z"),
        "reach_hard_handsup": ("xy_hard", "z"),
        "reach2_handsup": ("xy", "xy", "z"),
        "reach_handsup2": ("xy", "z", "z"),
        "touch_handsup": ("ball", "z"),
    }[name]
    if len(specs) > len(ees):
        raise ValueError(f"{name} needs {len(specs)} limbs, "
                         f"{graph.blueprint_tag} has {len(ees)}")
    out = []
    for k, kind in enumerate(specs):
        sel = f"ee{k}"
        target = resolve_target(graph, sel)
        L = chain_length(graph, target)
        if kind in ("xy", "xy_hard"):
            lo, hi = (0.7, 0.97) if kind == "xy_hard" else (0.55, 0.9)
            out.append(GoalTemplate("xy_position", sel,
                                    r_lo=q9(lo * L), r_hi=q9(hi * L)))
        elif kind == "z":
            zmax = pitch_reach(graph, target)
            out.append(GoalTemplate("z_height", sel,
                                    z_lo=q9(0.3 * zmax), z_hi=q9(0.7 * zmax)))
        elif kind == "ball":
            slack = graph.nodes[target].radius + BALL_RADIUS
            out.append(GoalTemplate("ball_contact", sel,
                                    r_lo=q9(L + 0.2 * slack),
                                    r_hi=q9(L + 0.8 * slack)))
    return out


def make_task(graph: MorphologyGraph, task_name: str,
              episode_length: int = EPISODE_LENGTH) -> TaskSpec:
    """Build a workspace-scaled task for this body; d_max from probe resets."""
    if task_name in ("reach", "reach_hard"):
        target = resolve_target(graph, "ee0")
        L = chain_length(graph, target)
        lo, hi = (0.7, 0.97) if task_name == "reach_hard" else (0.55, 0.9)
        goals = [GoalTemplate("xy_position", "ee0", r_lo=q9(lo * L), r_hi=q9(hi * L))]
        kind = task_name
    elif task_name == "touch":
        sel = "torso" if graph.blueprint_tag.split("_")[0] in ("centipede", "worm") \
            else "ee0"
        target = resolve_target(graph, sel)
        L = chain_length(graph, target)
        slack = graph.nodes[target].radius + BALL_RADIUS
        goals = [GoalTemplate("ball_contact", sel,
                              r_lo=q9(L + 0.2 * slack), r_hi=q9(L + 0.8 * slack))]
        kind = "touch"
    elif task_name == "push":
        target = resolve_target(graph, "ee0")
        L = chain_length(graph, target)
        goals = [GoalTemplate("box_to_target", "ee0",
                              r_lo=q9(0.35 * L), r_hi=q9(0.5 * L))]
        kind = "push"
    else:
        goals = _twister_templates(graph, task_name)
        kind = "twister"
    task = TaskSpec(task_kind=kind, goals=tuple(goals),
                    d_min=tuple(D_MIN_DEFAULT for _ in goals),
                    d_max=tuple(2.0 * D_MIN_DEFAULT for _ in goals),
                    episode_length=episode_length)
    return _with_probed_d_max(graph, task)


TASK_NAMES = ("reach", "reach_hard", "touch", "push", "reach_handsup",
              "reach_hard_handsup", "reach2_handsup", "reach_handsup2",
              "touch_handsup")


def parse_env_id(env_id: str) -> tuple[str, str, int, dict]:
    """'<blueprint>_<task>_<count>[_missing_k|_mass_a_b_c|_size_a_b_c]'."""
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
    count = int(rest[0])
    rest = rest[1:]
    variation: dict = {}
    while rest:
        if rest[0] == "missing":
            variation["missing"] = int(rest[1])
            rest = rest[2:]
        elif rest[0] in ("mass", "size"):
            key = f"{rest[0]}_scales"
            variation[key] = tuple(float(x) for x in rest[1:4])
            rest = rest[4:]
        else:
            raise ValueError(f"unknown variant tokens {rest} in {env_id!r}")
    return blueprint, task_name, count, variation


@lru_cache(maxsize=256)
def make_env(env_id: str) -> EnvSpec:
    """Build the (morphology, task) pair named by an environment id."""
    blueprint, task_name, count, variation = parse_env_id(env_id)
    graph = generate_morphology(blueprint, count, variation or None)
    task = make_task(graph, task_name)
    return EnvSpec(env_id=env_id, graph=graph, task=task)


# --- task spec text format ------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.9g}"


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
    rows = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((i, line.split()))
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
