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
DEFAULT_OBS_FLAGS = BASE_SET + ("m",)
CG_VARIANTS = ("v1", "v2")   # goals folded into node rows (v1) or as extra nodes (v2)

# Up to G_MAX goals per task.  Columns each layout appends to every node row:
# v1 a 3-value slot per goal then G_MAX indicators, v2 the indicators only.
G_MAX = 3
GOAL_COLUMNS = {"v1": 3 * G_MAX + G_MAX, "v2": G_MAX}

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
    node_features: np.ndarray          # (..., n_nodes, F): rows sharing the layout below
    n_body_nodes: int
    n_goal_nodes: int                  # 0 for v1
    action_mask: np.ndarray            # (n_nodes, 3) of {0, 1}
    actuator_map: tuple[tuple[int, int], ...]  # dof -> (node, slot)
    # Tree edges of the body (goal rows are disjoint); message passing needs them.
    edges: tuple[tuple[int, int], ...] = ()

    @property
    def n_nodes(self) -> int:
        return self.node_features.shape[-2]

    @property
    def width(self) -> int:
        return self.node_features.shape[-1]

    @property
    def actuator_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(nodes, slots) of every dof in dof order, for one array op over
        (..., n, 3) action grids."""
        return tuple(np.array(self.actuator_map, dtype=np.int64).reshape(-1, 2).T)


def cg_feature_width(obs_spec: ObservationSpec, variant: str,
                     history: int = 1) -> int:
    """Width of a node-feature row: observations and goal columns, per frame."""
    return (obs_spec.width + GOAL_COLUMNS[variant]) * history


def graph_features(observations: np.ndarray, goal_values: np.ndarray,
                   goal_nodes, variant: str) -> np.ndarray:
    """Node-feature rows of control graphs that share one body and one
    goal-to-node binding.

    observations is (..., n, w), goal_values (..., G, 3) and goal_nodes the G
    target nodes.  Each row gets GOAL_COLUMNS[variant] columns after its
    observations, the last G_MAX of them goal indicators.  v1 puts goal g's
    value and indicator in its target row.  v2 appends goal g as row n + g,
    its value in columns 0-2 (the p slot whenever positions are observed,
    since p leads FLAG_ORDER) and indicator g set in that row and the target's.
    """
    *lead, n, w = observations.shape
    G = len(goal_nodes)
    rows = n + G if variant == "v2" else n
    feats = np.zeros((*lead, rows, w + GOAL_COLUMNS[variant]), dtype=np.float64)
    feats[..., :n, :w] = observations
    marks = w + GOAL_COLUMNS[variant] - G_MAX      # first indicator column
    for g, node in enumerate(goal_nodes):
        feats[..., node, marks + g] = 1.0
        if variant == "v1":
            feats[..., node, w + 3 * g: w + 3 * g + 3] = goal_values[..., g, :]
        else:
            feats[..., n + g, :3] = goal_values[..., g, :]
            feats[..., n + g, marks + g] = 1.0
    return feats


def control_graph(observations: np.ndarray, goal_values: np.ndarray, goal_nodes,
                  morphology: MorphologyGraph, variant: str) -> ControlGraph:
    """The control graph of rows that share one body and one goal-to-node
    binding: graph_features' rows, any leading axes kept, and their layout.
    At most G_MAX goals, each naming a node of the body."""
    if len(goal_nodes) > G_MAX:
        raise ValueError(f"at most {G_MAX} goals supported, got {len(goal_nodes)}")
    n = morphology.n_nodes
    for node in goal_nodes:
        if not (0 <= node < n):
            raise IndexError(f"goal targets nonexistent node {node}")
    G = len(goal_nodes) if variant == "v2" else 0      # appended goal rows
    cg = ControlGraph(
        node_features=graph_features(observations, goal_values, goal_nodes, variant),
        n_body_nodes=n, n_goal_nodes=G, action_mask=np.zeros((n + G, 3)),
        actuator_map=morphology.dof_cells,
        edges=tuple((e.parent_id, e.child_id) for e in morphology.edges))
    cg.action_mask[cg.actuator_index] = 1.0
    return cg


def _bound_graph(observations: np.ndarray, goals, morphology: MorphologyGraph,
                 variant: str) -> ControlGraph:
    """control_graph of one sample's (node, goal value) bindings."""
    values = [np.asarray(value, dtype=np.float64).reshape(3) for _, value in goals]
    return control_graph(observations, np.array(values).reshape(-1, 3),
                         [int(node) for node, _ in goals], morphology, variant)


def build_cg_v1(observations: np.ndarray, goals,
                morphology: MorphologyGraph) -> ControlGraph:
    """Goals folded into target-node rows: [obs | 3x3 goal slots | 3 indicators]."""
    return _bound_graph(observations, goals, morphology, "v1")


def build_cg_v2(observations: np.ndarray, goals,
                morphology: MorphologyGraph) -> ControlGraph:
    """Goals appended as disjoint masked rows: [obs | G_MAX indicators]."""
    return _bound_graph(observations, goals, morphology, "v2")


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
