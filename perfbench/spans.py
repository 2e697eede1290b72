"""Call spans for the traced benchmark run.

``Tracer.install`` swaps selected public bevbox functions for wrappers that
record one span per call. A module-level function is wrapped where the
calling module looks its name up (``bevbox.harness.selection_cost`` and
``bevbox.assignment.selection_cost`` are separate edges); a method is wrapped
on its class and shared by every caller. Spans carry (name, start, end,
parent span, operation id), stay in compact in-memory columns while the run
goes, and are written out once at the end. The library itself is untouched:
``uninstall`` puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

# (calling module, name): the function as that module's own code sees it.
# Names a later version of the library no longer binds are skipped, so their
# metrics read 0 instead of breaking the run.
BOUND = (
    ("harness", "generate_scene"),
    ("harness", "fit_scene"),
    ("harness", "init_state"),
    ("harness", "assign_dcla"),
    ("harness", "assign_center"),
    ("harness", "selection_cost"),
    ("harness", "rotated_iou_exact"),
    ("harness", "cross_region"),
    ("harness", "world_to_cell"),
    ("harness", "classification_loss"),
    ("harness", "regression_loss_scene"),
    ("harness", "iou_prediction_loss"),
    ("harness", "smooth_l1_with_grad"),
    ("harness", "total_loss"),
    ("assignment", "assign_dcla"),
    ("assignment", "selection_cost"),
    ("assignment", "rotated_iou_exact"),
    ("assignment", "regression_sample_loss"),
    ("losses", "regression_sample_grad"),
    ("losses", "rotated_iou_exact"),
    ("losses", "smooth_l1_with_grad"),
    ("cli", "gradient_check"),
    ("cli", "gradient_bound_audit"),
)

# (defining module, class, method): shared by every caller, named "any:".
METHODS = (
    ("harness", "TrainState", "prediction_map"),
    ("geometry", "BoxParams8", "from_array"),
    ("geometry", "BoxParams8", "from_box"),
)


def _callee_label(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    """Span recorder with install/uninstall of the call wrappers."""

    def __init__(self, api) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.self_ns = array("q")
        self._stack: list[list[int]] = []
        self.op_id = -1
        self.counters: Counter = Counter()
        self._patches = self._build_patches(api)

    # -- recording -----------------------------------------------------

    def begin_op(self) -> None:
        """Start a new operation id (one fit, or one oracle call)."""
        self.op_id += 1

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _exclude(self, ns: int) -> None:
        # Time the tracer spends outside any span (result counting) is booked
        # as covered, so it does not inflate the enclosing span's self time.
        if self._stack:
            self._stack[-1][1] += ns

    def _wrap(self, name: str, fn, on_enter=None, on_result=None):
        name_id = self._id(name)
        # Bound once here: the wrapper runs hundreds of thousands of times per fit.
        stack, clock = self._stack, perf_counter_ns
        names, parents, ops = self.name.append, self.parent.append, self.op.append
        starts, ends, selfs = self.start, self.end, self.self_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter()
            idx = len(starts)
            names(name_id)
            parents(stack[-1][0] if stack else -1)
            ops(self.op_id)
            ends.append(0)
            selfs.append(0)
            frame = [idx, 0]
            stack.append(frame)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t = clock()
                stack.pop()
                dur = t - starts[idx]
                ends[idx] = t
                selfs[idx] = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if on_result is not None:
                t0 = clock()
                on_result(result)
                self._exclude(clock() - t0)
            return result

        return traced

    def _count_assignment(self, result) -> None:
        self.counters["positives"] += result.n_positives
        self.counters["requested_k"] += sum(result.requested_k)
        self.counters["unassigned"] += len(result.unassigned)

    # -- patching ------------------------------------------------------

    def _build_patches(self, api) -> list[tuple[object, str, object, object]]:
        patches = []
        for module_name, attr in BOUND:
            module = importlib.import_module(f"bevbox.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            hooks = {}
            if module_name == "harness" and attr == "generate_scene":
                hooks["on_enter"] = self.begin_op
            if module_name == "harness" and attr in ("assign_dcla", "assign_center"):
                hooks["on_result"] = self._count_assignment
            name = f"{module_name}:{_callee_label(fn)}"
            patches.append((module, attr, fn, self._wrap(name, fn, **hooks)))
        for module_name, cls_name, attr in METHODS:
            module = importlib.import_module(f"bevbox.{module_name}")
            cls = getattr(module, cls_name, None)
            raw = None if cls is None else cls.__dict__.get(attr)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(f"any:{_callee_label(raw.__func__)}", raw.__func__))
            else:
                wrapped = self._wrap(f"any:{_callee_label(raw)}", raw)
            patches.append((cls, attr, raw, wrapped))
        # The benchmark's own entry calls: the caller is the benchmark.
        for attr, fn in vars(api).items():
            patches.append((api, attr, fn, self._wrap(f"perfbench:{_callee_label(fn)}", fn)))
        return patches

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.name)

    def columns(self) -> dict[str, np.ndarray]:
        if not len(self):
            empty_i, empty_q = np.zeros(0, np.int32), np.zeros(0, np.int64)
            return {"name": empty_i, "parent": empty_i, "op": empty_i,
                    "start_ns": empty_q, "end_ns": empty_q, "self_ns": empty_q}
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "self_ns": np.frombuffer(self.self_ns, dtype=np.int64),
        }

    def write(self, path) -> None:
        """Write every span as columns plus the name table (``.npz``)."""
        np.savez_compressed(path, names=np.array(self.names, dtype=str), **self.columns())

    def edges(self) -> dict[tuple[str, str], tuple[int, float, float]]:
        """(parent name, name) -> (calls, total ns, self ns)."""
        cols = self.columns()
        if not len(self):
            return {}
        name, parent = cols["name"].astype(np.int64), cols["parent"]
        parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
        width = len(self.names) + 1
        keys, inverse = np.unique((parent_name + 1) * width + name, return_inverse=True)
        calls = np.bincount(inverse)
        total = np.bincount(inverse, weights=cols["end_ns"] - cols["start_ns"])
        own = np.bincount(inverse, weights=cols["self_ns"])
        out = {}
        for key, c, t, s in zip(keys.tolist(), calls.tolist(), total.tolist(), own.tolist()):
            p, n = divmod(key, width)
            out[(self.names[p - 1] if p else "", self.names[n])] = (c, t, s)
        return out


class EdgeView:
    """Sums over the edge table by callee name, optionally by parent name."""

    def __init__(self, edges: dict[tuple[str, str], tuple[int, float, float]]) -> None:
        self.edges = edges

    def _sum(self, names, parent, field: int) -> float:
        if isinstance(names, str):
            names = (names,)
        return sum(v[field] for (p, n), v in self.edges.items()
                   if n in names and (parent is None or p == parent))

    def calls(self, names, parent=None) -> int:
        return int(self._sum(names, parent, 0))

    def total_ms(self, names, parent=None) -> float:
        return self._sum(names, parent, 1) / 1e6

    def self_ms(self, names, parent=None) -> float:
        return self._sum(names, parent, 2) / 1e6

    def us_per_call(self, names, parent=None) -> float:
        calls = self.calls(names, parent)
        return 1e3 * self.total_ms(names, parent) / calls if calls else 0.0


FIT = "harness:harness.fit_scene"
READOUT = ("harness:assignment.selection_cost", "harness:geometry.rotated_iou_exact",
           "harness:assignment.cross_region", "harness:assignment.world_to_cell")
ASSIGN = ("harness:assignment.assign_dcla", "harness:assignment.assign_center")
SELECTION = ("assignment:assignment.selection_cost", "harness:assignment.selection_cost")
IOU = {m: f"{m}:geometry.rotated_iou_exact" for m in ("assignment", "losses", "harness")}
BUILDS = ("any:geometry.BoxParams8.from_array", "any:geometry.BoxParams8.from_box")
SAMPLE_LOSS = "assignment:gradients.regression_sample_loss"
SAMPLE_GRAD = "losses:gradients.regression_sample_grad"
SMOOTH_L1 = ("harness:losses.smooth_l1_with_grad", "losses:losses.smooth_l1_with_grad")


def fit_layer_metrics(view: EdgeView, counters: Counter, steps_per_fit: int) -> dict[str, float]:
    """Per-step and per-fit layer metrics from the traced fits (0 without fits)."""
    fits = view.calls(FIT)
    steps = fits * steps_per_fit

    def per_step(value: float) -> float:
        return value / steps if steps else 0.0

    def per_fit(value: float) -> float:
        return value / fits if fits else 0.0

    candidates = view.calls("assignment:assignment.selection_cost")
    positives = counters["positives"]
    return {
        "harness.fit_scene.self_ms_per_step": per_step(view.self_ms(FIT)),
        "harness.prediction_map.ms_per_step": per_step(view.total_ms("any:harness.TrainState.prediction_map")),
        "harness.readout.ms_per_step": per_step(view.total_ms(READOUT, parent=FIT)),
        "harness.readout.selection_cost_calls_per_step": per_step(view.calls(READOUT[0], parent=FIT)),
        "harness.readout.rotated_iou_calls_per_step": per_step(view.calls(READOUT[1], parent=FIT)),
        "harness.generate_scene.ms_per_fit": per_fit(view.total_ms("harness:harness.generate_scene")),
        "harness.init_state.ms_per_fit": per_fit(view.total_ms("harness:harness.init_state")),
        "harness.run_fit_config.self_ms": per_fit(view.self_ms("perfbench:harness.run_fit_config")),
        "assignment.assign.ms_per_step": per_step(view.total_ms(ASSIGN)),
        "assignment.assign.self_ms_per_step": per_step(
            view.self_ms(ASSIGN) + view.self_ms("assignment:assignment.assign_dcla")),
        "assignment.candidates_per_step": per_step(candidates),
        "assignment.selection_cost.us_per_call": view.us_per_call(SELECTION) if steps else 0.0,
        "assignment.positives_per_step": per_step(positives),
        "assignment.positive_yield": positives / candidates if candidates else 0.0,
        "assignment.conflict_losses_per_step": per_step(counters["requested_k"] - positives),
        "assignment.unassigned_per_step": per_step(counters["unassigned"]),
        **{f"geometry.rotated_iou_exact.calls_per_step.{m}": per_step(view.calls(n))
           for m, n in IOU.items()},
        "geometry.rotated_iou_exact.us_per_call": view.us_per_call(tuple(IOU.values())) if steps else 0.0,
        "geometry.boxparams8.builds_per_step": per_step(view.calls(BUILDS)),
        "geometry.boxparams8.us_per_build": view.us_per_call(BUILDS) if steps else 0.0,
        "gradients.regression_sample_loss.calls_per_step": per_step(view.calls(SAMPLE_LOSS)),
        "gradients.regression_sample_loss.us_per_call": view.us_per_call(SAMPLE_LOSS) if steps else 0.0,
        "gradients.regression_sample_grad.calls_per_step": per_step(view.calls(SAMPLE_GRAD)),
        "gradients.regression_sample_grad.us_per_call": view.us_per_call(SAMPLE_GRAD) if steps else 0.0,
        "losses.classification_loss.ms_per_step": per_step(view.total_ms("harness:losses.classification_loss")),
        "losses.regression_loss_scene.ms_per_step": per_step(view.total_ms("harness:losses.regression_loss_scene")),
        "losses.smooth_l1_with_grad.calls_per_step": per_step(view.calls(SMOOTH_L1)),
        "losses.iou_prediction_loss.ms_per_step": per_step(view.total_ms("harness:losses.iou_prediction_loss")),
    }


def oracle_layer_metrics(view: EdgeView) -> dict[str, float]:
    """Per-call layer metrics of the oracle pass (0 where not exercised)."""
    main_calls = view.calls("perfbench:cli.main")
    return {
        "cli.main.self_ms": view.self_ms("perfbench:cli.main") / main_calls if main_calls else 0.0,
        "gradients.gradient_check.s": view.us_per_call("cli:gradients.gradient_check") / 1e6,
        "gradients.gradient_bound_audit.s": view.us_per_call("cli:gradients.gradient_bound_audit") / 1e6,
        "geometry.mc_iou_oracle.ms_per_call": view.us_per_call("perfbench:geometry.mc_iou_oracle") / 1e3,
    }


def layer_table(edges: dict[tuple[str, str], tuple[int, float, float]], steps: int) -> str:
    """Text tables: self time per layer, then every caller -> callee edge."""
    by_layer: Counter = Counter()
    for (_, name), (_, _, own) in edges.items():
        by_layer[name.split(":", 1)[1].split(".", 1)[0]] += own
    lines = [f"{'layer':<12} {'self ms':>12} {'self ms/step':>13}"]
    for layer, own in by_layer.most_common():
        per = f"{own / 1e6 / steps:13.4f}" if steps else f"{'-':>13}"
        lines.append(f"{layer:<12} {own / 1e6:12.2f} {per}")
    lines.append("")
    lines.append(f"{'caller span -> callee span':<84} {'calls':>9} {'total ms':>11} {'self ms':>11}")
    for (parent, name), (calls, total, own) in sorted(edges.items(), key=lambda e: -e[1][2]):
        edge = f"{parent or '(root)'} -> {name}"
        lines.append(f"{edge:<84} {calls:9d} {total / 1e6:11.2f} {own / 1e6:11.2f}")
    return "\n".join(lines)
