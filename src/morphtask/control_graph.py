"""Unified per-node IO built from observations, goals, and the body tree.

Two layouts are produced.  Variant v1 folds goal values and target indicators
into the feature rows of the nodes they name; variant v2 appends each goal as
an extra masked node whose row carries the goal value.  A mu-law tokenizer
turns either layout into an integer grid for the discretized policy variants.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .morphology import MorphologyGraph

# Canonical flag order; slot widths per flag.
FLAG_ORDER = ("p", "v", "q", "a", "ja", "jr", "jv", "id", "rp", "rr", "m")
FLAG_WIDTHS = {"p": 3, "v": 3, "q": 4, "a": 3, "ja": 3, "jr": 6,
               "jv": 3, "id": 1, "rp": 3, "rr": 4, "m": 8}
BASE_SET = ("p", "v", "q", "a", "ja", "jr")
CG_VARIANTS = ("v1", "v2")   # goals folded into node rows (v1) or as extra nodes (v2)

# Fixed goal-slot width for v1: up to 3 goals, 3 values each, plus indicators.
G_MAX = 3

MU = 100.0
MU_M = 256.0
N_BINS = 1024


class ShapeError(ValueError):
    """An array's shape does not fit the body or policy it is given to.
    The one class behind ``env.ShapeError`` and ``nn.ShapeError``."""


@dataclass(frozen=True)
class ObservationSpec:
    flags: tuple[str, ...]

    @property
    def width(self) -> int:
        return sum(FLAG_WIDTHS[f] for f in self.flags)

    def slot(self, flag: str) -> slice:
        """Column range of a flag within the per-node feature row."""
        start = 0
        for f in self.flags:
            if f == flag:
                return slice(start, start + FLAG_WIDTHS[f])
            start += FLAG_WIDTHS[f]
        raise KeyError(flag)


def build_observation_spec(flags) -> ObservationSpec:
    """Normalize a flag collection into canonical order."""
    flags = set(flags)
    unknown = flags - set(FLAG_ORDER)
    if unknown:
        raise ValueError(f"unknown observation flags: {sorted(unknown)}")
    if not flags:
        raise ValueError("observation flag set must be non-empty")
    return ObservationSpec(tuple(f for f in FLAG_ORDER if f in flags))


@dataclass(frozen=True)
class ControlGraph:
    node_features: np.ndarray          # (n_nodes, F)
    n_body_nodes: int
    n_goal_nodes: int                  # 0 for v1
    action_mask: np.ndarray            # (n_nodes, 3) of {0, 1}
    actuator_map: tuple[tuple[int, int], ...]  # dof -> (node, slot)
    # Tree edges of the body (goal rows are disjoint); message passing needs them.
    edges: tuple[tuple[int, int], ...] = ()

    @property
    def n_nodes(self) -> int:
        return self.node_features.shape[0]

    @property
    def width(self) -> int:
        return self.node_features.shape[1]

    @property
    def actuator_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(nodes, slots) of every dof in dof order, for one array op over
        (..., n, 3) action grids."""
        return tuple(np.array(self.actuator_map, dtype=np.int64).reshape(-1, 2).T)


def action_structure(morphology: MorphologyGraph) -> tuple[np.ndarray, tuple]:
    """Per-node 3-slot actuator mask and the dof -> (node, slot) map."""
    mask = np.zeros((morphology.n_nodes, 3), dtype=np.float64)
    amap = [None] * morphology.action_dimension()
    for e in morphology.edges:
        first = morphology.nodes[e.child_id].dof_index
        for slot, _ in enumerate(e.actuators):
            mask[e.child_id, slot] = 1.0
            amap[first + slot] = (e.child_id, slot)
    return mask, tuple(amap)


def _check_goals(goals, morphology: MorphologyGraph):
    goals = [(int(node), np.asarray(value, dtype=np.float64).reshape(3))
             for node, value in goals]
    if len(goals) > G_MAX:
        raise ValueError(f"at most {G_MAX} goals supported, got {len(goals)}")
    for node, _ in goals:
        if not (0 <= node < morphology.n_nodes):
            raise IndexError(f"goal targets nonexistent node {node}")
    return goals


def graph_features(observations: np.ndarray, goal_values: np.ndarray,
                   goal_nodes, variant: str,
                   spec: ObservationSpec | None = None) -> np.ndarray:
    """Node-feature rows of N control graphs that share one body and one
    goal-to-node binding.

    observations is (N, n, w), goal_values (N, G, 3) and goal_nodes the G
    target nodes.  v1 gives (N, n, w + 3 G_MAX + G_MAX): [obs | 3x3 goal
    slots | 3 indicators], goal g's value and indicator in its target row.
    v2 gives (N, n + G, w + G_MAX): [obs | G_MAX indicators] with goal g as
    row n + g, its value in the p-slots when positions are observed (else in
    the leading columns) and indicator g set in both that row and the
    target's.
    """
    N, n, w = observations.shape
    G = len(goal_nodes)
    if variant == "v1":
        feats = np.zeros((N, n, w + 3 * G_MAX + G_MAX), dtype=np.float64)
        feats[:, :, :w] = observations
        for g, node in enumerate(goal_nodes):
            feats[:, node, w + 3 * g: w + 3 * g + 3] = goal_values[:, g]
            feats[:, node, w + 3 * G_MAX + g] = 1.0
        return feats
    feats = np.zeros((N, n + G, w + G_MAX), dtype=np.float64)
    feats[:, :n, :w] = observations
    p_slot = spec.slot("p") if spec is not None and "p" in spec.flags else slice(0, 3)
    for g, node in enumerate(goal_nodes):
        feats[:, n + g, p_slot] = goal_values[:, g]
        feats[:, n + g, w + g] = 1.0
        feats[:, node, w + g] = 1.0
    return feats


def _control_graph(observations: np.ndarray, goals, morphology: MorphologyGraph,
                   variant: str, spec: ObservationSpec | None = None) -> ControlGraph:
    obs = np.asarray(observations, dtype=np.float64)
    goals = _check_goals(goals, morphology)
    n = obs.shape[0]
    G = len(goals) if variant == "v2" else 0      # appended goal rows
    values = np.array([value for _, value in goals]).reshape(1, -1, 3)
    feats = graph_features(obs[None], values, [node for node, _ in goals],
                           variant, spec)[0]
    body_mask, amap = action_structure(morphology)
    mask = np.concatenate([body_mask, np.zeros((G, 3))])
    edges = tuple((e.parent_id, e.child_id) for e in morphology.edges)
    return ControlGraph(node_features=feats, n_body_nodes=n, n_goal_nodes=G,
                        action_mask=mask, actuator_map=amap, edges=edges)


def build_cg_v1(observations: np.ndarray, goals,
                morphology: MorphologyGraph) -> ControlGraph:
    """Goals folded into target-node rows: [obs | 3x3 goal slots | 3 indicators]."""
    return _control_graph(observations, goals, morphology, "v1")


def build_cg_v2(observations: np.ndarray, goals,
                morphology: MorphologyGraph,
                spec: ObservationSpec | None = None) -> ControlGraph:
    """Goals appended as disjoint masked rows: [obs | G_MAX indicators]."""
    return _control_graph(observations, goals, morphology, "v2", spec)


# --- mu-law companding and discretization -----------------------------------

def mu_law(x, mu: float = MU, m: float = MU_M):
    """sgn(x) * log(|x| mu + 1) / log(M mu + 1); inputs clamped to |x| <= M."""
    x = np.clip(np.asarray(x, dtype=np.float64), -m, m)
    return np.sign(x) * np.log(np.abs(x) * mu + 1.0) / math.log(m * mu + 1.0)


def mu_law_inverse(y, mu: float = MU, m: float = MU_M):
    y = np.asarray(y, dtype=np.float64)
    return np.sign(y) * (np.power(m * mu + 1.0, np.abs(y)) - 1.0) / mu


def quantize(y, n_bins: int = N_BINS):
    """Bin k covers [-1 + 2k/n, -1 + 2(k+1)/n); y = 1 maps to bin n-1.

    For even bin counts the floor runs before the half-range shift, so tiny
    values straddling zero cannot be absorbed into the wrong bin.
    """
    if n_bins < 2:
        raise ValueError("need at least 2 bins")
    y = np.asarray(y, dtype=np.float64)
    if n_bins % 2 == 0:
        k = np.floor(y * (n_bins / 2.0)).astype(np.int64) + n_bins // 2
    else:
        k = np.floor((y + 1.0) * (n_bins / 2.0)).astype(np.int64)
    return np.clip(k, 0, n_bins - 1)


def dequantize(bins, mode: str = "center", n_bins: int = N_BINS):
    bins = np.asarray(bins, dtype=np.int64)
    if np.any(bins < 0) or np.any(bins >= n_bins):
        raise IndexError(f"bin index outside [0, {n_bins})")
    centers = -1.0 + (2.0 * bins + 1.0) / n_bins
    if mode == "center":
        return centers
    if mode == "average_window":
        # 3-bin window; indices clipped into range at the edges.
        lo = np.clip(bins - 1, 0, n_bins - 1)
        hi = np.clip(bins + 1, 0, n_bins - 1)
        c = lambda b: -1.0 + (2.0 * b + 1.0) / n_bins
        return (c(lo) + centers + c(hi)) / 3.0
    raise ValueError(f"unknown dequantize mode {mode!r}")


def tokenize_features(feats: np.ndarray, n_bins: int = N_BINS) -> np.ndarray:
    """Element-wise mu-law then quantize; shape preserved."""
    if not np.all(np.isfinite(feats)):
        raise ValueError("control graph features contain non-finite values")
    return quantize(mu_law(feats), n_bins)


def detokenize(tokens, mode: str = "center", n_bins: int = N_BINS) -> np.ndarray:
    """Inverse of tokenize_features up to quantization error."""
    return mu_law_inverse(dequantize(tokens, mode, n_bins))
