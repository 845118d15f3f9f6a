"""Morphology/task suite: procedural agents, control-graph policies,
behavior distillation, and goal-distance evaluation."""

from . import artifacts, control_graph, distill, env, evaluation, morphology, nn

__version__ = "0.1.0"

__all__ = ["artifacts", "control_graph", "distill", "env", "evaluation", "morphology", "nn"]
