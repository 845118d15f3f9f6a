"""Outside-in span tracing of the morphtask package.

The tracer replaces each traced public function with a wrapper at every name
the package binds it to (``morphtask.env.local_observations``,
``morphtask.distill.local_observations``, ``morphtask.evaluation.
local_observations`` ...), so a call is caught whichever module makes it.
Nothing inside the package changes; ``uninstall`` puts the originals back.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span (-1 at the top) and ``op`` the id of the benchmark operation
that caused it.  Spans stay in memory until the run ends.  A layer's self
time is its spans' durations minus the time their direct child spans cover.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

# (span name, module, attribute).  Span names are the module path inside the
# package plus the function name; they double as per-layer metric prefixes.
TRACED = (
    ("morphology.generate_morphology", "morphtask.morphology", "generate_morphology"),
    ("morphology.parse_morphology", "morphtask.morphology", "parse_morphology"),
    ("env.make_env", "morphtask.env", "make_env"),
    ("env.reset", "morphtask.env", "reset"),
    ("env.step", "morphtask.env", "step"),
    ("env.local_observations", "morphtask.env", "local_observations"),
    ("env.forward_kinematics", "morphtask.env", "forward_kinematics"),
    ("env.goal_distance", "morphtask.env", "goal_distance"),
    ("env.scripted_expert", "morphtask.env", "scripted_expert"),
    ("env.position_jacobian", "morphtask.env", "position_jacobian"),
    ("control_graph.build_cg_v1", "morphtask.control_graph", "build_cg_v1"),
    ("control_graph.build_cg_v2", "morphtask.control_graph", "build_cg_v2"),
    ("distill.generate_dataset", "morphtask.distill", "generate_dataset"),
    ("distill.build_cg", "morphtask.distill", "build_cg"),
    ("distill.prepare_training_data", "morphtask.distill", "prepare_training_data"),
    ("distill.train", "morphtask.distill", "train"),
    ("distill.loss_from_groups", "morphtask.distill", "loss_from_groups"),
    ("distill.clip_global_norm", "morphtask.distill", "clip_global_norm"),
    ("distill.adam_step", "morphtask.distill", "adam_step"),
    ("distill.fnv1a64", "morphtask.distill", "fnv1a64"),
    ("distill.dataset_bytes", "morphtask.distill", "dataset_bytes"),
    ("distill.write_dataset", "morphtask.distill", "write_dataset"),
    ("distill.read_dataset", "morphtask.distill", "read_dataset"),
    ("distill.checkpoint_bytes", "morphtask.distill", "checkpoint_bytes"),
    ("distill.save_checkpoint", "morphtask.distill", "save_checkpoint"),
    ("distill.load_checkpoint", "morphtask.distill", "load_checkpoint"),
    ("nn.autodiff.linear", "morphtask.nn.autodiff", "linear"),
    ("nn.autodiff.layer_norm", "morphtask.nn.autodiff", "layer_norm"),
    ("nn.autodiff.matmul", "morphtask.nn.autodiff", "matmul"),
    ("nn.autodiff.softmax", "morphtask.nn.autodiff", "softmax"),
    ("nn.autodiff.backward", "morphtask.nn.autodiff", "Tensor.backward"),
    ("nn.policies.transformer_grid", "morphtask.nn.policies", "transformer_grid"),
    ("nn.policies.batch_grids", "morphtask.nn.policies", "batch_grids"),
    ("evaluation.evaluate_policy", "morphtask.evaluation", "evaluate_policy"),
    ("evaluation.rollout_batch", "morphtask.evaluation", "rollout_batch"),
    ("evaluation.write_attention_export", "morphtask.evaluation", "write_attention_export"),
    ("evaluation.read_tensor_table", "morphtask.evaluation", "read_tensor_table"),
    ("cli.main", "morphtask.cli", "main"),
)
SPAN_NAMES = tuple(name for name, _, _ in TRACED)


class Tracer:
    """Records spans while ``active``; installed wrappers cost one flag
    test per call while inactive, so checks between operations go untraced."""

    def __init__(self):
        self.spans: list = []
        self.op = 0                # id of the benchmark operation now running
        self.labels: dict[int, str] = {}
        self.active = False
        # per operation id: Tensor constructions and bytes hashed by fnv1a64
        self.counts = defaultdict(lambda: {"tensors": 0, "fnv_bytes": 0})
        self._stack: list[int] = []
        self._undo: list = []

    # --- install / uninstall -------------------------------------------------

    def install(self) -> None:
        for name, modname, attr in TRACED:
            module = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._undo.append((cls, meth, cls.__dict__[meth]))
                setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
            else:
                self._rebind(getattr(module, attr), self._wrap(name, getattr(module, attr)))
        from morphtask.nn.autodiff import Tensor
        init = Tensor.__init__

        def counted_init(obj, *args, **kwargs):
            if self.active:
                self.counts[self.op]["tensors"] += 1
            init(obj, *args, **kwargs)

        self._undo.append((Tensor, "__init__", init))
        Tensor.__init__ = counted_init

    def _rebind(self, original, wrapper) -> None:
        """Replace ``original`` at every module-level name in the package."""
        for modname, module in list(sys.modules.items()):
            if modname != "morphtask" and not modname.startswith("morphtask."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        count_bytes = name == "distill.fnv1a64"

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if count_bytes:
                self.counts[self.op]["fnv_bytes"] += len(args[0])
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)

        return traced

    # --- analysis --------------------------------------------------------------

    def count_under(self, name: str, ancestor: str) -> dict[int, int]:
        """Per operation id: spans called ``name`` with a span called ``ancestor`` above them."""
        under = [False] * len(self.spans)
        counts: dict[int, int] = {}
        for i, (span_name, _, _, parent, op) in enumerate(self.spans):
            under[i] = parent >= 0 and (under[parent] or self.spans[parent][0] == ancestor)
            if under[i] and span_name == name:
                counts[op] = counts.get(op, 0) + 1
        return counts

    def per_op(self) -> dict[int, dict[str, list]]:
        """Per operation id and span name: [calls, self_s, total_s]."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[int, dict[str, list]] = {}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            row = out.setdefault(op, {}).setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start - child_time[i]
            row[2] += end - start
        return out
