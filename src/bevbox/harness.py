"""Network-free fitting harness for the assignment and loss stack.

The harness treats the per-cell prediction map itself as the trainable object:
every grid cell owns an 8-parameter box (location, log-sizes, yaw sine/cosine),
per-class score logits, and a raw overlap-confidence channel. Plain gradient
descent on those raw parameters, with the assignment recomputed every step,
exercises the full pipeline end to end without any network in the way.

Scene generation snaps sampled sizes and yaws to fixed points of their
parameterization roundtrips (``exp(log(.))`` and ``atan2(sin(.), cos(.))``), so
an exact-parameter initialization reproduces the ground truth bitwise through
the read path and sits at a true fixed point of the descent.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from ._config import _from_dict, _require_keys, _require_list, _scalar
from .assignment import (
    AssignmentResult,
    CellIndex,
    GridSpec,
    GroundTruth,
    PredictionMap,
    _check_cell_values,
    _check_iou_conf,
    _SceneFault,
    _ScenePlan,
    _validate_scene,
    cross_region,
    world_to_cell,
)
from .geometry import Box3D, convex_intersection_area
from .losses import (
    FOCAL_BLOCK,
    LossReport,
    LossWeights,
    _classification_groups,
    _iou_prediction_losses,
    _regression_losses,
    smooth_l1_with_grad,
    total_loss,
)

DIVERGENCE_THRESHOLD = 1e3
INIT_SEED_OFFSET = 1_000_003

# Saturating raw values: sigmoid(+-800) evaluates to exactly 1.0 / 0.0 and
# tanh(32) to exactly 1.0 in float64, so an exact initialization produces
# scores that match binary heatmap targets bitwise.
SATURATED_LOGIT = 800.0
SATURATED_CONFIDENCE_RAW = 32.0
LOW_CONFIDENCE_LOGIT = -2.0


class PlacementError(RuntimeError):
    """Raised when rejection sampling cannot place all requested objects."""


class DivergenceError(RuntimeError):
    """Raised when a fit blows up.

    Either the total loss exceeds the divergence threshold or is NaN, or an
    update leaves a state whose predictions or assignment cannot be
    evaluated (non-finite values, a degenerate overlap); ``reason`` then says
    which.  Carries the step index and the loss report of the last evaluated
    step (for an unusable update, the step before ``step``) so callers can
    see where the run blew up.
    """

    def __init__(self, step: int, report: LossReport, reason: str | None = None):
        if reason is None:
            reason = (f"total loss {report.total:.6g} exceeded "
                      f"{DIVERGENCE_THRESHOLD:g} or is NaN")
        super().__init__(f"{reason} at step {step}")
        self.step = step
        self.report = report


@dataclass(frozen=True)
class SizeClass:
    """A nameable object category with mean dimensions and a relative spread."""

    name: str
    length: float
    width: float
    height: float
    spread: float = 0.1

    def __post_init__(self) -> None:
        for label in ("length", "width", "height"):
            if not getattr(self, label) > 0.0:
                raise ValueError(f"{label} must be positive")
        if not 0.0 <= self.spread < 1.0:
            raise ValueError("spread must be in [0, 1)")


DEFAULT_SIZE_CLASSES = (
    SizeClass("vehicle", 4.7, 2.1, 1.7),
    SizeClass("pedestrian", 0.9, 0.85, 1.7),
    SizeClass("cyclist", 1.8, 0.8, 1.7),
)


@dataclass(frozen=True)
class SceneConfig:
    """Parameters for synthetic scene generation."""

    grid: GridSpec
    n_objects: int
    seed: int
    size_classes: tuple[SizeClass, ...] = DEFAULT_SIZE_CLASSES
    min_clearance: float = 0.5
    max_attempts: int = 10_000

    def __post_init__(self) -> None:
        if self.n_objects < 0:
            raise ValueError("n_objects must be >= 0")
        if not self.size_classes:
            raise ValueError("at least one size class is required")
        if self.min_clearance < 0.0:
            raise ValueError("min_clearance must be >= 0")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    @property
    def n_classes(self) -> int:
        return len(self.size_classes)


@dataclass(frozen=True)
class AssignerConfig:
    """Which assignment scheme the fit uses."""

    kind: str = "dcla"
    r: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("dcla", "center"):
            raise ValueError("assigner kind must be 'dcla' or 'center'")
        if self.r < 0:
            raise ValueError("r must be >= 0")

    @property
    def effective_r(self) -> int:
        return self.r if self.kind == "dcla" else 0


@dataclass(frozen=True)
class OptimizerConfig:
    step_size: float = 0.05
    n_steps: int = 500

    def __post_init__(self) -> None:
        if not self.step_size > 0.0:
            raise ValueError("step_size must be positive")
        if self.n_steps < 0:
            raise ValueError("n_steps must be >= 0")


@dataclass(frozen=True)
class InitConfig:
    """How the trainable state is initialized relative to the ground truth."""

    kind: str = "noisy"
    sigma_loc: float = 0.3
    sigma_yaw: float = 0.2
    sigma_log_size: float = 0.1

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "noisy", "random"):
            raise ValueError("init kind must be 'exact', 'noisy', or 'random'")
        for label in ("sigma_loc", "sigma_yaw", "sigma_log_size"):
            if getattr(self, label) < 0.0:
                raise ValueError(f"{label} must be >= 0")


@dataclass
class TrainState:
    """Raw trainable parameters for every grid cell.

    Sizes are stored as logs and exponentiated on read; yaw is stored as an
    unconstrained sine/cosine pair; scores pass through a sigmoid and the
    overlap confidence through a tanh.
    """

    loc: np.ndarray  # (rows, cols, 3) box centers
    log_size: np.ndarray  # (rows, cols, 3)
    sin_cos: np.ndarray  # (rows, cols, 2)
    score_logits: np.ndarray  # (rows, cols, n_classes)
    iou_conf_raw: np.ndarray  # (rows, cols)

    def copy(self) -> "TrainState":
        return TrainState(
            loc=self.loc.copy(),
            log_size=self.log_size.copy(),
            sin_cos=self.sin_cos.copy(),
            score_logits=self.score_logits.copy(),
            iou_conf_raw=self.iou_conf_raw.copy(),
        )

    def prediction_map(self) -> PredictionMap:
        return PredictionMap(
            boxes=self._boxes_at(...),
            scores=_sigmoid(self.score_logits),
            iou_conf=np.tanh(self.iou_conf_raw),
        )

    def _boxes_at(self, index) -> np.ndarray:
        # A blown-up log size overflows to inf, which the finiteness check
        # reports; numpy's overflow warning would only repeat it.
        with np.errstate(over="ignore"):
            sizes = np.exp(self.log_size[index])
        return np.concatenate([self.loc[index], sizes, self.sin_cos[index]], axis=-1)

    def _decode(self, box_cells, conf_cells, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Decode this state into a fit's view of its predictions: the whole
        score map, written into ``scores``, and the boxes at ``box_cells``
        and the confidences at ``conf_cells`` (index tuples into the maps),
        returned.

        They then go through :class:`PredictionMap`'s checks, in its order
        and with its messages.  A fit decodes only the box and confidence
        cells it reads, and every other cell passed the checks when it was
        last written, so a full decode would raise the same ``ValueError``.
        """
        boxes = self._boxes_at(box_cells)
        _sigmoid_into(self.score_logits, scores)
        conf = np.tanh(self.iou_conf_raw[conf_cells])
        _check_cell_values(boxes, scores)
        _check_iou_conf(conf)
        return boxes, conf

    def _slab(self, index) -> "TrainState":
        """Scene ``index`` (an int, or a slice of scenes) of a stacked
        state, as views."""
        return TrainState(*(getattr(self, f.name)[index] for f in fields(self)))


@dataclass(frozen=True)
class StepRecord:
    step: int
    l_cls: float
    l_reg: float
    l_iou: float
    total: float
    mean_true_iou: float


@dataclass(frozen=True)
class ExperimentReport:
    """Outcome of one fit run.

    ``wall_clock_s`` is informational only; every other field is a
    deterministic function of the configuration.
    """

    seed: int
    regression: str
    assigner: AssignerConfig
    steps: list[StepRecord]
    final_iou_per_gt: list[float]
    mean_final_iou: float
    min_final_iou: float
    k_by_class: dict[str, float]
    wall_clock_s: float
    final_state: TrainState | None = None

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "regression": self.regression,
            "assigner": {"kind": self.assigner.kind, "r": self.assigner.r},
            "n_steps": len(self.steps),
            "final_iou_per_gt": list(self.final_iou_per_gt),
            "mean_final_iou": self.mean_final_iou,
            "min_final_iou": self.min_final_iou,
            "k_by_class": dict(self.k_by_class),
            "final_total": self.steps[-1].total if self.steps else 0.0,
            "wall_clock_s": self.wall_clock_s,
        }

    def trajectory_csv(self) -> str:
        lines = ["step,l_cls,l_reg,l_iou,total,mean_true_iou"]
        for rec in self.steps:
            lines.append(
                f"{rec.step},{rec.l_cls!r},{rec.l_reg!r},{rec.l_iou!r},"
                f"{rec.total!r},{rec.mean_true_iou!r}"
            )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class BalanceReport:
    """Mean realized positive counts per size class after warm-up fits."""

    mean_k_by_class: dict[str, float]
    n_scenes: int
    max_min_ratio: float

    def to_json_dict(self) -> dict:
        return {
            "mean_k_by_class": dict(self.mean_k_by_class),
            "n_scenes": self.n_scenes,
            "max_min_ratio": self.max_min_ratio,
        }


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows: 1 / (1 + exp(-x)) for x >= 0 and
    # exp(x) / (1 + exp(x)) below, each term as in the two-branch form.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, e) / (1.0 + e)


def _sigmoid_into(x: np.ndarray, out: np.ndarray) -> None:
    """``out[...] = _sigmoid(x)`` for C-contiguous arrays, block by block so
    that the temporaries stay in cache."""
    x, out = x.reshape(-1), out.reshape(-1)
    for start in range(0, x.size, FOCAL_BLOCK):
        block = slice(start, start + FOCAL_BLOCK)
        out[block] = _sigmoid(x[block])


def _roundtrip_fixed_point(value: float, roundtrip) -> float:
    # Snap to a fixed point of the parameterization roundtrip so storing and
    # reading the value back is a bitwise identity. The adjustment is at most
    # a few ulp.
    current = value
    for _ in range(8):
        mapped = roundtrip(current)
        if mapped == current:
            return current
        current = mapped
    for direction in (math.inf, -math.inf):
        candidate = current
        for _ in range(4):
            candidate = math.nextafter(candidate, direction)
            if roundtrip(candidate) == candidate:
                return candidate
    return current


def _snap_size(value: float) -> float:
    # The store path takes math.log, the decode path applies numpy's exp,
    # whose SIMD implementation can land 1 ulp away from libm's. Snap to a
    # fixed point of exactly that composition.
    return _roundtrip_fixed_point(value, lambda v: float(np.exp(math.log(v))))


def _snap_yaw(theta: float) -> float:
    return _roundtrip_fixed_point(
        theta, lambda t: math.atan2(math.sin(t), math.cos(t))
    )


def _dilated_corners(box: Box3D, clearance: float) -> list[tuple[float, float]]:
    grown = Box3D(
        x=box.x,
        y=box.y,
        z=box.z,
        l=box.l + clearance,
        w=box.w + clearance,
        h=box.h,
        theta=box.theta,
    )
    return grown.bev_corners()


def generate_scene(config: SceneConfig) -> list[GroundTruth]:
    """Sample non-overlapping oriented boxes on the configured grid.

    Classes cycle through ``config.size_classes`` in object order. Placement
    uses rejection sampling: a candidate is accepted only if its footprint,
    dilated by half the clearance per side, stays disjoint from every accepted
    box's dilated footprint and its center falls in a previously unused cell.
    """
    grid = config.grid
    rng = np.random.default_rng(config.seed)
    placed: list[GroundTruth] = []
    placed_corners: list[list[tuple[float, float]]] = []
    used_cells: set[CellIndex] = set()

    for index in range(config.n_objects):
        size_class = config.size_classes[index % config.n_classes]
        accepted = False
        for _ in range(config.max_attempts):
            scale = rng.uniform(
                1.0 - size_class.spread, 1.0 + size_class.spread, size=3
            )
            l = _snap_size(size_class.length * scale[0])
            w = _snap_size(size_class.width * scale[1])
            h = _snap_size(size_class.height * scale[2])
            theta = _snap_yaw(rng.uniform(0.0, 2.0 * math.pi))
            margin = 0.5 * math.hypot(l, w)
            x_lo, x_hi = grid.x_min + margin, grid.x_max - margin
            y_lo, y_hi = grid.y_min + margin, grid.y_max - margin
            if x_lo >= x_hi or y_lo >= y_hi:
                continue
            x = rng.uniform(x_lo, x_hi)
            y = rng.uniform(y_lo, y_hi)
            box = Box3D(x=x, y=y, z=0.5 * h, l=l, w=w, h=h, theta=theta)

            cell = world_to_cell(grid, x, y)
            if cell in used_cells:
                continue
            corners = _dilated_corners(box, config.min_clearance)
            if any(
                convex_intersection_area(corners, other) > 0.0
                for other in placed_corners
            ):
                continue

            placed.append(GroundTruth(box=box, class_id=index % config.n_classes))
            placed_corners.append(corners)
            used_cells.add(cell)
            accepted = True
            break
        if not accepted:
            raise PlacementError(
                f"could not place object {index} after {config.max_attempts} "
                f"attempts (grid {grid.n_rows}x{grid.n_cols}, "
                f"clearance {config.min_clearance})"
            )
    return placed


def _gt_param_rows(gts: list[GroundTruth]) -> np.ndarray:
    return np.array(
        [
            [
                gt.box.x,
                gt.box.y,
                gt.box.z,
                math.log(gt.box.l),
                math.log(gt.box.w),
                math.log(gt.box.h),
                math.sin(gt.box.theta),
                math.cos(gt.box.theta),
            ]
            for gt in gts
        ]
    ).reshape(-1, 8)


def _nearest_gt_indices(grid: GridSpec, gts: list[GroundTruth]) -> np.ndarray:
    centers_x = grid.x_min + (np.arange(grid.n_cols) + 0.5) * grid.cell_size
    centers_y = grid.y_min + (np.arange(grid.n_rows) + 0.5) * grid.cell_size
    cx = centers_x[None, :, None]
    cy = centers_y[:, None, None]
    gx = np.array([gt.box.x for gt in gts])[None, None, :]
    gy = np.array([gt.box.y for gt in gts])[None, None, :]
    # On a grid too large to square its distances, inf ties go to the first.
    with np.errstate(over="ignore"):
        d2 = (cx - gx) ** 2 + (cy - gy) ** 2
    return np.argmin(d2, axis=-1)


def init_state(
    grid: GridSpec,
    gts: list[GroundTruth],
    n_classes: int,
    init: InitConfig,
    assigner: AssignerConfig,
    seed: int,
) -> TrainState:
    """Build the initial trainable state for a scene.

    Every cell starts from its nearest ground truth's parameters (location,
    log-sizes, yaw sine/cosine). ``noisy`` adds Gaussian noise to those,
    ``random`` ignores them entirely, and ``exact`` copies them and saturates
    the score logits to reproduce the assignment's heatmap exactly.
    """
    if n_classes < 1:
        raise ValueError("n_classes must be >= 1")
    rows, cols = grid.n_rows, grid.n_cols
    rng = np.random.default_rng(seed)

    if gts:
        nearest = _nearest_gt_indices(grid, gts)
        gathered = _gt_param_rows(gts)[nearest]
        loc = gathered[..., 0:3].copy()
        log_size = gathered[..., 3:6].copy()
        sin_cos = gathered[..., 6:8].copy()
    else:
        nearest = np.zeros((rows, cols), dtype=int)
        loc = np.zeros((rows, cols, 3))
        centers_x = grid.x_min + (np.arange(cols) + 0.5) * grid.cell_size
        centers_y = grid.y_min + (np.arange(rows) + 0.5) * grid.cell_size
        loc[..., 0] = centers_x[None, :]
        loc[..., 1] = centers_y[:, None]
        loc[..., 2] = 0.85
        log_size = np.full((rows, cols, 3), math.log(1.5))
        sin_cos = np.zeros((rows, cols, 2))
        sin_cos[..., 1] = 1.0

    score_logits = np.full((rows, cols, n_classes), LOW_CONFIDENCE_LOGIT)
    iou_conf_raw = np.zeros((rows, cols))

    if init.kind == "random":
        loc = np.stack(
            [
                rng.uniform(grid.x_min, grid.x_max, size=(rows, cols)),
                rng.uniform(grid.y_min, grid.y_max, size=(rows, cols)),
                rng.uniform(0.0, 2.0, size=(rows, cols)),
            ],
            axis=-1,
        )
        log_size = rng.uniform(math.log(0.5), math.log(5.0), size=(rows, cols, 3))
        yaw = rng.uniform(0.0, 2.0 * math.pi, size=(rows, cols))
        sin_cos = np.stack([np.sin(yaw), np.cos(yaw)], axis=-1)
    elif init.kind == "noisy":
        loc = loc + rng.normal(0.0, init.sigma_loc, size=loc.shape)
        log_size = log_size + rng.normal(
            0.0, init.sigma_log_size, size=log_size.shape
        )
        yaw = np.arctan2(sin_cos[..., 0], sin_cos[..., 1])
        yaw = yaw + rng.normal(0.0, init.sigma_yaw, size=yaw.shape)
        # A huge sigma draws an infinite yaw, whose NaN sine the prediction
        # map's checks reject; numpy's warning would only repeat it.
        with np.errstate(invalid="ignore"):
            sin_cos = np.stack([np.sin(yaw), np.cos(yaw)], axis=-1)
    elif init.kind == "exact":
        # Saturate logits so the scores reproduce the heatmap the assignment
        # derives from these exact boxes: 1 on region cells carrying the
        # owning ground truth's parameters, 0 elsewhere.
        score_logits = np.full((rows, cols, n_classes), -SATURATED_LOGIT)
        iou_conf_raw = np.full((rows, cols), SATURATED_CONFIDENCE_RAW)
        r = assigner.effective_r
        for gt_index, gt in enumerate(gts):
            center = world_to_cell(grid, gt.box.x, gt.box.y)
            for cell in cross_region(grid, center, r):
                if nearest[cell.row, cell.col] == gt_index:
                    score_logits[cell.row, cell.col, gt.class_id] = SATURATED_LOGIT

    return TrainState(
        loc=loc,
        log_size=log_size,
        sin_cos=sin_cos,
        score_logits=score_logits,
        iou_conf_raw=iou_conf_raw,
    )


def _smooth_l1_scenes(
    assignment: AssignmentResult,
    boxes: np.ndarray,
    gt_params: np.ndarray,
) -> tuple[list[float], np.ndarray]:
    """Per-channel smooth-L1 regression baseline on raw residuals.

    Residuals per positive cell against its ground truth's ``gt_params`` row
    (:func:`_gt_param_rows`): center offsets, log-size ratios, and yaw
    sine/cosine differences, from the box rows ``boxes`` of the
    assignment's slots.  Channel losses are summed per cell and averaged
    over the scene's positive count, the usual box-regression
    normalization.  Returns one loss per scene and the gradients in
    box-parameter space (per-size, not per-log-size), as ``(N, 8)`` rows in
    positive order like the main regression loss.
    """
    n_pos = assignment.positives_per_scene()
    n = np.maximum(n_pos, 1)
    slots = assignment.positive_slots
    raw = boxes[slots]
    pred = raw.copy()
    # math.log, not np.log: the two differ in the last bit on some sizes.
    pred[:, 3:6] = np.array(
        [math.log(v) for v in raw[:, 3:6].ravel().tolist()]
    ).reshape(-1, 3)
    values, d_res = smooth_l1_with_grad(pred - gt_params[assignment.cand_gt[slots]])
    cell_sums = np.sum(values, axis=1).tolist()
    totals, start = [], 0
    for count, scene_n in zip(n_pos.tolist(), n.tolist()):
        total = 0.0
        for cell_sum in cell_sums[start:start + count]:
            total += cell_sum / scene_n
        totals.append(total)
        start += count
    d = d_res / np.repeat(n, n_pos)[:, None]
    # The log-size residual differentiates through 1/size.
    d[:, 3:6] /= raw[:, 3:6]
    return totals, d


def _true_iou_per_gt(assignment: AssignmentResult) -> list[float]:
    """IoU between each ground truth and its best-matching region cell.

    The readout cell is the lowest selection cost over the cross region
    (ties broken row-major), the assignment's own ranking, so the IoU is
    read off the assignment's table at ``best_slots``.
    """
    return assignment.ious[assignment.best_slots].tolist()


def fit_scene(
    grid: GridSpec,
    gts: list[GroundTruth],
    assigner: AssignerConfig = AssignerConfig(),
    optimizer: OptimizerConfig = OptimizerConfig(),
    init: InitConfig = InitConfig(),
    weights: LossWeights = LossWeights(),
    regression: str = "rwiou",
    init_seed: int = 0,
    n_classes: int | None = None,
    state: TrainState | None = None,
) -> ExperimentReport:
    """Gradient-descent fit of the cell map to a fixed scene.

    Each step recomputes the assignment from the current predictions, then
    applies one plain gradient-descent update to the raw parameters. The
    recorded losses describe the state *before* that step's update, so step 0
    is the initialization. Raises :class:`DivergenceError` if the total loss
    exceeds ``DIVERGENCE_THRESHOLD`` or is NaN, or if an update leaves a
    state whose predictions or assignment cannot be built (``ValueError`` or
    ``ArithmeticError`` from either); an unusable initial state, or a step
    size whose product with ``weights.lambda_iou`` is not finite, raises
    ``ValueError``.  This is the one-scene case of :func:`_fit_scenes`.
    """
    if n_classes is None:
        n_classes = max((gt.class_id for gt in gts), default=0) + 1
    reports, failure = _fit_scenes(grid, [gts], [init_seed], assigner, optimizer, init,
                                   weights, regression, n_classes,
                                   states=None if state is None else [state])
    if failure is not None:
        raise failure
    return reports[0]


class _Stack:
    """The live scenes of a stacked fit: a prefix of the scenes it started
    with, their stacked state and score map, and the plan of their slots.
    A failing scene ends the prefix, since fitting the scenes one by one
    would not have reached the scenes after it."""

    def __init__(self, state: TrainState, scores: np.ndarray, plan: _ScenePlan) -> None:
        self.state, self.scores, self.plan = state, scores, plan
        self.failure: Exception | None = None

    @property
    def size(self) -> int:
        return self.plan.n_scenes

    def drop(self, scene: int, failure: Exception) -> None:
        """End the stack before ``scene``, which failed with ``failure``."""
        self.failure = failure
        self.state = self.state._slab(slice(scene))
        self.scores = self.scores[:scene]
        self.plan.truncate(scene)

    def decode(self, conf_cells) -> np.ndarray:
        """:meth:`TrainState._decode` of the stack into its score map;
        returns the boxes at the plan's slots.  A failure is raised as the
        :class:`_SceneFault` of the first scene whose own decode fails."""
        plan = self.plan
        try:
            return self.state._decode(plan.cells, conf_cells, self.scores)[0]
        except ValueError:
            for scene in range(self.size):
                slots = plan.scenes == scene
                conf = conf_cells[0] == scene
                try:
                    self.state._slab(scene)._decode((plan.rows[slots], plan.cols[slots]),
                                                    (conf_cells[1][conf], conf_cells[2][conf]),
                                                    self.scores[scene])
                except ValueError as exc:
                    raise _SceneFault(scene, exc) from exc
            raise

    def score(self, boxes: np.ndarray, weights: LossWeights, alpha: float) -> AssignmentResult:
        plan = self.plan
        return plan.score_rows(boxes, self.scores[(*plan.cells, plan.class_ids)],
                               self.scores.shape[-1], weights.lambda_reg, alpha)


def _descend_logits(logits: np.ndarray, grads: np.ndarray, scores: np.ndarray,
                    step: float) -> None:
    """``logits -= step * grads * scores * (1 - scores)`` in place, block by
    block: the classification update through the sigmoid derivative."""
    logits, grads, scores = logits.reshape(-1), grads.reshape(-1), scores.reshape(-1)
    for start in range(0, logits.size, FOCAL_BLOCK):
        block = slice(start, start + FOCAL_BLOCK)
        p = scores[block]
        logits[block] -= step * grads[block] * p * (1.0 - p)


def _fit_scenes(
    grid: GridSpec,
    scenes: list[list[GroundTruth]],
    init_seeds: list[int],
    assigner: AssignerConfig,
    optimizer: OptimizerConfig,
    init: InitConfig,
    weights: LossWeights,
    regression: str,
    n_classes: int,
    states: list[TrainState] | None = None,
) -> tuple[list[ExperimentReport], Exception | None]:
    """:func:`fit_scene` of every scene of ``scenes`` on one grid, in one pass.

    The states and the score map carry a leading scene axis, one plan holds
    every scene's slots, and each step runs the kernel, the focal pass, the
    decode, the checks and the update once over all live scenes; each
    scene's losses are reduced over its own slab, so every report and final
    state is bitwise the scene's own fit.  ``wall_clock_s`` is the pass's
    wall time divided evenly over the reports.

    Returns the reports of the scenes before the first one that fails, and
    that failure (``None`` when every fit finishes): the exception fitting
    the scenes one at a time, in order, would have raised.
    """
    if regression not in ("rwiou", "smooth_l1"):
        raise ValueError("regression must be 'rwiou' or 'smooth_l1'")
    # Off the positives the confidence step is step_iou * 0.0, which the
    # update skips; that is exact only while step_iou is finite.
    step_iou = optimizer.step_size * weights.lambda_iou
    if not math.isfinite(step_iou):
        raise ValueError("step_size * lambda_iou must be finite")
    started = time.perf_counter()

    # Each scene's initial state is user input: it is checked on its own, and
    # a scene that fails these checks keeps its ValueError.
    failure = None
    stacked: list[np.ndarray] = []
    alpha = weights.alpha
    for i, gts in enumerate(scenes):
        try:
            state = (init_state(grid, gts, n_classes, init, assigner, init_seeds[i])
                     if states is None else states[i])
            alpha = _validate_scene(grid, gts, state.prediction_map(),
                                    weights.lambda_reg, weights.alpha)
            if not stacked:
                stacked = [np.empty((len(scenes), *getattr(state, f.name).shape))
                           for f in fields(TrainState)]
            for array, f in zip(stacked, fields(TrainState)):
                array[i] = getattr(state, f.name)
        except ValueError as exc:
            failure = exc
            scenes = scenes[:i]
            break
        del state
    if not scenes:
        return [], failure
    all_gts = [gt for gts in scenes for gt in gts]
    state = TrainState(*stacked)._slab(slice(len(scenes)))
    del stacked
    scores = np.empty(state.score_logits.shape)
    _sigmoid_into(state.score_logits, scores)
    stack = _Stack(state, scores,
                   _ScenePlan(grid, all_gts, assigner.effective_r, [len(g) for g in scenes]))
    stack.failure = failure
    plan = stack.plan
    gt_params = _gt_param_rows(all_gts)

    def score_or_drop(boxes, fault_error):
        # Score the live scenes; a failing scene ends the stack, the rest rescore.
        while stack.size:
            try:
                return stack.score(boxes[:len(plan.rows)], weights, alpha)
            except _SceneFault as fault:
                stack.drop(fault.scene, fault_error(fault))
        return None

    boxes = stack.state._boxes_at(plan.cells)
    assignment = score_or_drop(boxes, lambda fault: fault.error)
    steps: list[list[StepRecord]] = [[] for _ in scenes]
    last: list[LossReport | None] = [None] * len(scenes)
    lr = optimizer.step_size
    for step in range(optimizer.n_steps + 1):
        if not stack.size:
            break
        state, scores = stack.state, stack.scores
        n_pos = assignment.positives_per_scene()
        pos = assignment.positive_cells()
        if regression == "rwiou":
            l_reg, reg_rows, per_gt = _regression_losses(assignment)
        else:
            l_reg, reg_rows = _smooth_l1_scenes(assignment, boxes, gt_params)
            per_gt = [()] * stack.size
        u = np.tanh(state.iou_conf_raw[pos])
        l_iou, iou_rows = _iou_prediction_losses(assignment, u)
        readout = _true_iou_per_gt(assignment)
        gt_starts = plan.gt_starts.tolist()
        for first, l_cls, cls_grads in _classification_groups(assignment, scores):
            group = range(first, first + len(l_cls))
            for scene in group:
                report = total_loss(l_cls[scene - first], l_reg[scene], l_iou[scene],
                                    weights=weights, n_positives=int(n_pos[scene]),
                                    per_gt=per_gt[scene])
                ious = readout[gt_starts[scene]:gt_starts[scene + 1]]
                steps[scene].append(StepRecord(
                    step=step, l_cls=l_cls[scene - first], l_reg=l_reg[scene],
                    l_iou=l_iou[scene], total=report.total,
                    mean_true_iou=float(np.mean(ious)) if ious else 0.0))
                last[scene] = report
                # Written so that a NaN total also counts as divergence.
                if not report.total <= DIVERGENCE_THRESHOLD:
                    stack.drop(scene, DivergenceError(step, report))
                    break
            if step < optimizer.n_steps:
                # Classification: logits move through the sigmoid derivative.
                live = slice(first, min(group.stop, stack.size))
                with np.errstate(all="ignore"):
                    _descend_logits(state.score_logits[live], cls_grads[:live.stop - first],
                                    scores[live], lr * weights.lambda_cls)
            if stack.size < group.stop:
                break
        if not stack.size or step == optimizer.n_steps:
            break

        # The rest of the update, for the live scenes: their positives lead
        # the table.
        state = stack.state
        live = int(n_pos[:stack.size].sum())
        pos = tuple(index[:live] for index in pos)
        slots = assignment.positive_slots[:live]

        # A blown-up update leaves inf or NaN, which the decode checks report
        # as divergence; numpy's warnings would only repeat it.
        with np.errstate(all="ignore"):
            # Regression: per-positive box gradient rows chained onto the raw
            # parameterization. A cell whose eight box channels already match the
            # target bitwise is frozen outright: the loss there sits at a kinked
            # minimum where the one-sided conventions leave a nonzero yaw
            # subgradient and roundoff can leave ulp-scale residue in the size
            # channels, and nudging a converged cell by either would only knock it
            # off the optimum. Short of full equality, only the yaw channels get
            # the same treatment per channel.
            target8 = plan.targets[slots]
            moving = ~np.all(boxes[slots] == target8, axis=1)
            cells = tuple(index[moving] for index in pos)
            g = reg_rows[:live][moving]
            step_reg = lr * weights.lambda_reg
            state.loc[cells] -= step_reg * g[:, 0:3]
            state.log_size[cells] -= step_reg * g[:, 3:6] * np.exp(state.log_size[cells])
            yaw = np.any(state.sin_cos[cells] != target8[moving, 6:8], axis=1)
            state.sin_cos[tuple(index[yaw] for index in cells)] -= step_reg * g[yaw, 6:8]

            # Overlap confidence: raw channel moves through the tanh derivative.
            # Its gradient is 0.0 off the positives, and x - 0.0 == x there.
            u = u[:live]
            state.iou_conf_raw[pos] -= step_iou * iou_rows[:live] * (1.0 - u * u)

        # An updated state that cannot be evaluated is a blow-up.
        assignment = None
        while stack.size:
            try:
                boxes = stack.decode(pos)
                break
            except _SceneFault as fault:
                stack.drop(fault.scene, _unusable(step + 1, last[fault.scene], fault))
                pos = tuple(index[:int(n_pos[:stack.size].sum())] for index in pos)
        assignment = score_or_drop(
            boxes, lambda fault, step=step: _unusable(step + 1, last[fault.scene], fault))

    elapsed = time.perf_counter() - started
    reports = []
    if stack.size:
        readout = _true_iou_per_gt(assignment)
        k_per_gt = assignment.k_per_gt
    gt_starts = plan.gt_starts.tolist()
    for scene in range(stack.size):
        gts = slice(gt_starts[scene], gt_starts[scene + 1])
        final_ious = readout[gts]
        reports.append(ExperimentReport(
            seed=init_seeds[scene],
            regression=regression,
            assigner=assigner,
            steps=steps[scene],
            final_iou_per_gt=final_ious,
            mean_final_iou=float(np.mean(final_ious)) if final_ious else 0.0,
            min_final_iou=float(np.min(final_ious)) if final_ious else 0.0,
            k_by_class=_mean_k_by_class(k_per_gt[gts], scenes[scene]),
            wall_clock_s=elapsed / stack.size,
            final_state=stack.state._slab(scene),
        ))
    return reports, stack.failure


def _unusable(step: int, report: LossReport, fault: _SceneFault) -> DivergenceError:
    error = DivergenceError(step, report, reason=(
        f"update left an unusable state ({type(fault.error).__name__}: {fault.error})"))
    error.__cause__ = fault.error
    return error


def _mean_k_by_class(k_per_gt: list[int], gts: list[GroundTruth]) -> dict[str, float]:
    counts: dict[int, list[int]] = {}
    for gt, k in zip(gts, k_per_gt):
        counts.setdefault(gt.class_id, []).append(k)
    return {
        f"class_{c}": float(np.mean(ks)) for c, ks in sorted(counts.items())
    }


def _generate_scenes(scene: SceneConfig, seeds: list[int]) -> tuple[
        list[list[GroundTruth]], PlacementError | None]:
    """The scene of each seed in turn, up to the first that cannot be
    placed, and that seed's :class:`PlacementError` (``None`` if all are)."""
    scenes = []
    for seed in seeds:
        try:
            scenes.append(generate_scene(replace(scene, seed=seed)))
        except PlacementError as exc:
            return scenes, exc
    return scenes, None


def balance_experiment(
    scene: SceneConfig,
    assigner: AssignerConfig,
    n_scenes: int = 20,
    warmup_steps: int = 150,
    init: InitConfig = InitConfig(),
    weights: LossWeights = LossWeights(),
    base_seed: int = 0,
) -> BalanceReport:
    """Mean realized positives per size class, averaged over fitted scenes.

    Each scene is warmed up with a short fit so the scores are informative,
    then the final assignment's per-ground-truth positive counts are grouped
    by size class.  All scenes are fitted in one stacked pass.
    """
    seeds = [base_seed + i for i in range(n_scenes)]
    scenes, failure = _generate_scenes(scene, seeds)
    reports, fit_failure = _fit_scenes(
        scene.grid, scenes, [seed + INIT_SEED_OFFSET for seed in seeds[:len(scenes)]],
        assigner, OptimizerConfig(step_size=0.05, n_steps=warmup_steps), init, weights,
        "rwiou", scene.n_classes)
    failure = fit_failure or failure
    if failure is not None:
        raise failure
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for gts, report in zip(scenes, reports):
        for key, mean_k in report.k_by_class.items():
            class_id = int(key.removeprefix("class_"))
            name = scene.size_classes[class_id].name
            n_gt = sum(1 for gt in gts if gt.class_id == class_id)
            sums[name] = sums.get(name, 0.0) + mean_k * n_gt
            counts[name] = counts.get(name, 0) + n_gt
    means = {name: sums[name] / counts[name] for name in sorted(sums)}
    values = list(means.values())
    ratio = max(values) / min(values) if values and min(values) > 0 else math.inf
    return BalanceReport(
        mean_k_by_class=means, n_scenes=n_scenes, max_min_ratio=ratio
    )


def _scene_config_from_dict(d: dict) -> SceneConfig:
    return _from_dict(SceneConfig, d, "scene", contexts={"size_classes": "size class"})


def run_fit_config(config: dict, out_dir: Path | str | None = None) -> dict:
    """Run the fits described by a configuration mapping.

    The configuration must contain a ``scene`` section and may override the
    assigner, optimizer, init, loss weights, regression kind, and seed list.
    Per-seed trajectories are written as CSV and the aggregate as JSON when an
    output directory is available (either from the ``output`` section or the
    ``out_dir`` argument, with the argument taking precedence).
    """
    _require_keys(
        config,
        {"scene"},
        {"assigner", "optimizer", "init", "weights", "regression", "seeds", "output"},
        "config",
    )
    scene = _scene_config_from_dict(config["scene"])
    assigner, optimizer, init, weights = (
        _from_dict(cls, config[key], key, required) if key in config else cls()
        for key, cls, required in (
            ("assigner", AssignerConfig, {"kind"}),
            ("optimizer", OptimizerConfig, ()),
            ("init", InitConfig, {"kind"}),
            ("weights", LossWeights, ()),
        )
    )
    regression = str(config.get("regression", "rwiou"))
    if regression not in ("rwiou", "smooth_l1"):
        raise ValueError("regression must be 'rwiou' or 'smooth_l1'")
    seeds = [_scalar(int, s, "config: seeds")
             for s in _require_list(config.get("seeds", [scene.seed]), "config: seeds")]
    if not seeds:
        raise ValueError("config: seeds must be non-empty")

    output = config.get("output", {})
    _require_keys(output, set(), {"dir", "prefix"}, "output")
    prefix = str(output.get("prefix", "fit"))
    directory: Path | None = None
    if out_dir is not None:
        directory = Path(out_dir)
    elif "dir" in output:
        if not isinstance(output["dir"], str):
            raise ValueError(f"output: dir: expected str, got {type(output['dir']).__name__}")
        directory = Path(output["dir"])
    if directory is not None:
        directory.mkdir(parents=True, exist_ok=True)

    # Seeds after a failing one are never fitted; the trajectories of the
    # seeds before it are written before the failure is raised.
    scenes, failure = _generate_scenes(scene, seeds)
    reports, fit_failure = _fit_scenes(
        scene.grid, scenes, [seed + INIT_SEED_OFFSET for seed in seeds[:len(scenes)]],
        assigner, optimizer, init, weights, regression, scene.n_classes)
    failure = fit_failure or failure
    per_seed = []
    for seed, report in zip(seeds, reports):
        per_seed.append(
            {
                "seed": seed,
                "mean_final_iou": report.mean_final_iou,
                "min_final_iou": report.min_final_iou,
                "final_total": report.steps[-1].total if report.steps else 0.0,
                "wall_clock_s": report.wall_clock_s,
            }
        )
        if directory is not None:
            csv_path = directory / f"{prefix}_seed{seed}.csv"
            csv_path.write_text(report.trajectory_csv())
    if failure is not None:
        raise failure

    aggregate = {
        "regression": regression,
        "assigner": {"kind": assigner.kind, "r": assigner.r},
        "seeds": seeds,
        "per_seed": per_seed,
        "mean_final_iou": float(np.mean([r.mean_final_iou for r in reports])),
        "min_seed_mean": float(np.min([r.mean_final_iou for r in reports])),
    }
    if directory is not None:
        report_path = directory / f"{prefix}_report.json"
        report_path.write_text(
            json.dumps(aggregate, indent=2, sort_keys=True) + "\n"
        )
    return aggregate


def load_scene(
    scene: dict, r: int = 1
) -> tuple[GridSpec, list[GroundTruth], PredictionMap]:
    """Build a grid, ground truths, and predictions from a scene mapping.

    The ``predictions`` section selects one of three kinds: ``exact`` and
    ``noisy`` derive the map from the ground truths via the initializer
    (``noisy`` accepts the sigma overrides), while ``explicit`` supplies the
    boxes, scores, and overlap confidences as nested arrays.
    """
    _require_keys(
        scene, {"grid", "ground_truths"}, {"predictions", "n_classes"}, "scene file"
    )
    grid = GridSpec.from_json_dict(scene["grid"])
    gts = []
    for entry in _require_list(scene["ground_truths"], "scene file: ground_truths"):
        _require_keys(entry, {"box", "class_id"}, set(), "ground truth")
        values = [_scalar(float, v, "ground truth: box")
                  for v in _require_list(entry["box"], "ground truth: box")]
        if len(values) != 7:
            raise ValueError("ground truth box must have 7 values: x,y,z,l,w,h,yaw")
        class_id = _scalar(int, entry["class_id"], "ground truth: class_id")
        gts.append(GroundTruth(box=Box3D(*values), class_id=class_id))
        if not grid.contains(values[0], values[1]):
            raise ValueError(f"gt {len(gts) - 1} center ({values[0]}, {values[1]}) is off-grid")
    n_classes = _scalar(
        int, scene.get("n_classes", max((gt.class_id for gt in gts), default=0) + 1),
        "scene file: n_classes",
    )

    pred_spec = scene.get("predictions", {"kind": "exact"})
    # The seed and an explicit map's arrays sit beside InitConfig's fields.
    init_keys = {f.name for f in fields(InitConfig)}
    _require_keys(pred_spec, {"kind"},
                  init_keys | {"seed", "boxes", "scores", "iou_conf"}, "predictions")
    kind = str(pred_spec["kind"])
    if kind == "explicit":
        _require_keys(pred_spec, {"boxes", "scores"}, set(pred_spec), "predictions")
        arrays = {}
        for key in ("boxes", "scores", "iou_conf"):
            if key in pred_spec:
                try:
                    arrays[key] = np.asarray(pred_spec[key], dtype=float)
                except (TypeError, ValueError) as exc:
                    raise ValueError(
                        f"predictions: {key}: expected nested lists of numbers") from exc
        return grid, gts, PredictionMap(**arrays)
    if kind not in ("exact", "noisy"):
        raise ValueError("predictions kind must be 'exact', 'noisy', or 'explicit'")
    init = _from_dict(
        InitConfig, {k: v for k, v in pred_spec.items() if k in init_keys}, "predictions"
    )
    state = init_state(
        grid,
        gts,
        n_classes,
        init,
        AssignerConfig(kind="dcla", r=r),
        _scalar(int, pred_spec.get("seed", 0), "predictions: seed"),
    )
    return grid, gts, state.prediction_map()
