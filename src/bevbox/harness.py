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
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from ._config import _from_dict, _number_array, _require_keys, _require_list, _scalar, _seed
from .assignment import (
    AssignmentResult,
    CellIndex,
    GridSpec,
    GroundTruth,
    PredictionMap,
    _check_cell_values,
    _check_class_id,
    _check_iou_conf,
    _ScenePlan,
    _validate_scene,
    world_to_cell,
)
from .geometry import (
    Box3D,
    _bev_corners,
    _check_volume,
    _log_sizes,
    _target_rows,
    convex_intersection_area,
)
from .losses import (
    LossReport,
    LossWeights,
    _focal,
    _iou_prediction_losses,
    _norms,
    _per_gt,
    _regression_losses,
    _smooth_l1_losses,
    total_loss,
)

__all__ = [
    "PlacementError",
    "DivergenceError",
    "SizeClass",
    "SceneConfig",
    "AssignerConfig",
    "OptimizerConfig",
    "InitConfig",
    "TrainState",
    "StepRecord",
    "ExperimentReport",
    "BalanceReport",
    "generate_scene",
    "init_state",
    "fit_scene",
    "balance_experiment",
    "run_fit_config",
    "load_scene",
]

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
            if not 0.0 < getattr(self, label) < math.inf:
                raise ValueError(f"{label} must be finite and positive")
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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not self.size_classes:
            raise ValueError("at least one size class is required")
        if self.min_clearance < 0.0:
            raise ValueError("min_clearance must be >= 0")
        if not math.isfinite(self.min_clearance):
            raise ValueError("min_clearance must be finite")
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
        if not 0.0 < self.step_size < math.inf:
            raise ValueError("step_size must be finite and positive")
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
            if not math.isfinite(getattr(self, label)):
                raise ValueError(f"{label} must be finite")


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
        return TrainState(*(getattr(self, f.name).copy() for f in fields(TrainState)))

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

    def _decode(self, box_cells, conf_cells,
                logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode the predictions a fit reads: the boxes at ``box_cells``,
        the scores of ``logits`` (a fit's distinct score logits, which stand
        for its whole score map) and the confidences at ``conf_cells``
        (index tuples into the maps).

        They then go through :class:`PredictionMap`'s checks, in its order
        and with its messages.  A fit decodes only the box and confidence
        cells it reads, every other cell passed the checks when it was last
        written, and every score entry's logit is one of ``logits``, so a
        full decode would raise the same ``ValueError``.
        """
        boxes = self._boxes_at(box_cells)
        scores = _sigmoid(logits)
        conf = np.tanh(self.iou_conf_raw[conf_cells])
        _check_cell_values(boxes, scores)
        _check_iou_conf(conf)
        return boxes, scores, conf


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
            "assigner": asdict(self.assigner),
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
        return asdict(self)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows: 1 / (1 + exp(-x)) for x >= 0 and
    # exp(x) / (1 + exp(x)) below, each term as in the two-branch form.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, e) / (1.0 + e)


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
    return float(_roundtrip_fixed_point(value, lambda v: float(np.exp(math.log(v)))))


def _snap_yaw(theta: float) -> float:
    return _roundtrip_fixed_point(
        theta, lambda t: math.atan2(math.sin(t), math.cos(t))
    )


def generate_scene(config: SceneConfig) -> list[GroundTruth]:
    """Sample non-overlapping oriented boxes on the configured grid.

    Classes cycle through ``config.size_classes`` in object order. Placement
    uses rejection sampling: a candidate is accepted only if its footprint,
    dilated by half the clearance per side, stays disjoint from every accepted
    box's dilated footprint and its center falls in a previously unused cell.
    """
    grid, clearance = config.grid, config.min_clearance
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

            cell = world_to_cell(grid, x, y)
            if cell in used_cells:
                continue
            corners = _bev_corners(x, y, l + clearance, w + clearance, theta)
            if any(
                convex_intersection_area(corners, other) > 0.0
                for other in placed_corners
            ):
                continue

            box = Box3D(x=x, y=y, z=0.5 * h, l=l, w=w, h=h, theta=theta)
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
    _seed(seed, "seed")
    rows, cols = grid.n_rows, grid.n_cols
    rng = np.random.default_rng(seed)

    if gts:
        nearest = _nearest_gt_indices(grid, gts)
        targets = _target_rows([gt.box for gt in gts])
        gathered = targets[nearest]
        loc = gathered[..., 0:3].copy()
        log_size = _log_sizes(targets[:, 3:6])[nearest]
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
        # derives from these exact boxes: 1 at the plan's slots whose cell
        # carries the slot's own ground truth's parameters, 0 elsewhere.
        for i, gt in enumerate(gts):
            _check_class_id(i, gt, n_classes)
        score_logits = np.full((rows, cols, n_classes), -SATURATED_LOGIT)
        iou_conf_raw = np.full((rows, cols), SATURATED_CONFIDENCE_RAW)
        plan = _ScenePlan(grid, gts, assigner.effective_r, n_classes)
        own = nearest[plan.cells] == plan.gt_of
        score_logits[plan.rows[own], plan.cols[own], plan.class_ids[own]] = SATURATED_LOGIT

    return TrainState(
        loc=loc,
        log_size=log_size,
        sin_cos=sin_cos,
        score_logits=score_logits,
        iou_conf_raw=iou_conf_raw,
    )


def _true_iou_per_gt(assignment: AssignmentResult) -> np.ndarray:
    """IoU between each ground truth and its best-matching region cell.

    The readout cell is the lowest selection cost over the cross region
    (ties broken row-major), the assignment's own ranking, so the IoU is
    read off the assignment's table at ``best_slots``.
    """
    return assignment.ious[assignment.best_slots]


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
    _seed(init_seed, "init_seed")
    if n_classes is None:
        n_classes = max((gt.class_id for gt in gts), default=0) + 1
    reports, failure = _fit_scenes(grid, [gts], [init_seed], assigner, optimizer, init,
                                   weights, regression, n_classes,
                                   states=None if state is None else [state])
    if failure is not None:
        raise failure
    return reports[0]


class _Stack:
    """The scenes of a fit as one stack: their state, with the scenes along
    its rows as in :class:`AssignmentResult`, the plan of their slots and
    their score logits.

    Score logits are held per unit (``scenes`` is each unit's scene).
    Unit ``j < len(plan.entries)`` is the entry ``plan.entries[j]`` (the
    only entries whose classification target can be nonzero); each
    scene's other entries follow, scene after scene, grouped by logit bits,
    so ``-0.0`` and ``0.0`` stay apart.  A group's entries have target 0 and
    one logit, so the descent moves them as one value.  A scene's map holds
    its ``base`` unit everywhere but at the flat indices ``spread[s]``,
    which hold the units ``unit_of[s]``.  ``state.score_logits`` is
    written back only by :meth:`scene_state`.

    A step runs :meth:`decode` (not at step 0), :meth:`score`,
    :meth:`losses` and :meth:`update`.  ``scores`` are the units' scores
    of the last decode; ``pos`` and ``conf`` the positives' cells and
    confidences of the last :meth:`losses`, for :meth:`update`.
    """

    def __init__(self, state: TrainState, plan: _ScenePlan) -> None:
        self.state, self.plan = state, plan
        maps = state.score_logits.reshape(plan.n_scenes, -1)
        size = maps.shape[1]
        entries = plan.entries
        bounds = np.searchsorted(entries, np.arange(plan.n_scenes + 1) * size)
        logits, scenes = [maps.reshape(-1)[entries]], [entries // size]
        self.base, self.spread, self.unit_of = [], [], []
        first = len(entries)
        for scene, flat in enumerate(maps):
            own = np.arange(bounds[scene], bounds[scene + 1])
            cells = entries[own] - scene * size
            background = np.ones(size, dtype=bool)
            background[cells] = False
            background = np.flatnonzero(background)
            bits, group_of, counts = np.unique(flat.view(np.uint64)[background],
                                               return_inverse=True, return_counts=True)
            # The largest group is the base.  With no background every cell
            # is spread, and the unit before the scene's groups stands in.
            base = int(np.argmax(counts)) if len(counts) else -1
            other = group_of != base
            self.base.append(first + base)
            self.spread.append(np.concatenate([cells, background[other]]))
            self.unit_of.append(np.concatenate([own, first + group_of[other]]))
            logits.append(bits.view(np.float64))
            scenes.append(np.full(len(bits), scene))
            first += len(bits)
        self.logits = np.concatenate(logits)
        self.scores = _sigmoid(self.logits)
        self.scenes = np.concatenate(scenes)
        self._map = np.empty(size)

    def _scene_map(self, values: np.ndarray, scene: int, out: np.ndarray) -> np.ndarray:
        """The flat map of scene ``scene`` with per-unit ``values``, written
        into ``out``."""
        out.fill(values[self.base[scene]])
        out[self.spread[scene]] = values[self.unit_of[scene]]
        return out

    def scene_state(self, scene: int) -> TrainState:
        """Scene ``scene``'s state, as views of its rows, with its score
        logits written back."""
        rows = slice(scene * self.plan.grid.n_rows, (scene + 1) * self.plan.grid.n_rows)
        state = TrainState(*(getattr(self.state, f.name)[rows] for f in fields(TrainState)))
        self._scene_map(self.logits, scene, state.score_logits.reshape(-1))
        return state

    def decode(self, conf_cells) -> np.ndarray:
        """:meth:`TrainState._decode` of the stack, keeping the scores;
        returns the boxes at the plan's slots."""
        boxes, self.scores, _ = self.state._decode(self.plan.cells, conf_cells, self.logits)
        return boxes

    def score(self, boxes: np.ndarray, weights: LossWeights, alpha: float) -> AssignmentResult:
        return self.plan.score_rows(boxes, self.scores[self.plan.slot_entry],
                                    weights.lambda_reg, alpha)

    def losses(self, assignment: AssignmentResult, boxes: np.ndarray,
               regression: str) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """Every scene's ``(l_cls, l_reg, l_iou)`` for ``assignment`` (scored
        from the box rows ``boxes``), as an ``(n_scenes, 3)`` array, and the
        ``(cls, reg, iou)`` gradients of the units, the positives' box rows
        and their confidences.  Each ``l_cls`` is ``np.sum`` over the
        scene's map of the units' focal terms, so it equals the dense loss."""
        n_pos = assignment.positives_per_scene()
        losses = np.empty((self.plan.n_scenes, 3))
        if regression == "rwiou":
            losses[:, 1], reg = _regression_losses(assignment, n_pos)
        else:
            losses[:, 1], reg = _smooth_l1_losses(assignment, boxes, self.plan.log_targets, n_pos)
        self.pos = assignment.positive_cells()
        self.conf = np.tanh(self.state.iou_conf_raw[self.pos])
        losses[:, 2], iou = _iou_prediction_losses(assignment, self.conf, n_pos)
        q = np.zeros(len(self.scores))
        q[:len(assignment.heat)] = assignment.heat
        values, cls = _focal(self.scores, q, 2.0, with_grad=True)
        norms = _norms(n_pos)
        for scene, norm in enumerate(norms.tolist()):
            losses[scene, 0] = np.sum(self._scene_map(values, scene, self._map)) * norm
        return losses, (cls * norms[self.scenes], reg, iou)

    def update(self, assignment: AssignmentResult, boxes: np.ndarray,
               grads: tuple[np.ndarray, ...], rates: tuple[float, float, float]) -> None:
        """One descent step on the gradients of :meth:`losses`, at the
        ``(cls, reg, iou)`` step sizes ``rates``."""
        cls_grads, reg_rows, iou_rows = grads
        step_cls, step_reg, step_iou = rates
        state, pos, u = self.state, self.pos, self.conf
        slots = assignment.positive_slots
        # A blown-up update leaves inf or NaN, which the decode checks report
        # as divergence; numpy's warnings would only repeat it.
        with np.errstate(all="ignore"):
            # Classification: logits move through the sigmoid derivative.
            _descend_logits(self.logits, cls_grads, self.scores, step_cls)

            # Regression: per-positive box gradient rows chained onto the raw
            # parameterization. A cell whose eight box channels already match the
            # target bitwise is frozen outright: the loss there sits at a kinked
            # minimum where the one-sided conventions leave a nonzero yaw
            # subgradient and roundoff can leave ulp-scale residue in the size
            # channels, and nudging a converged cell by either would only knock it
            # off the optimum. Short of full equality, only the yaw channels get
            # the same treatment per channel.
            target8 = self.plan.targets[slots]
            moving = ~np.all(boxes[slots] == target8, axis=1)
            cells = tuple(index[moving] for index in pos)
            g = reg_rows[moving]
            state.loc[cells] -= step_reg * g[:, 0:3]
            state.log_size[cells] -= step_reg * g[:, 3:6] * np.exp(state.log_size[cells])
            yaw = np.any(state.sin_cos[cells] != target8[moving, 6:8], axis=1)
            state.sin_cos[tuple(index[yaw] for index in cells)] -= step_reg * g[yaw, 6:8]

            # Overlap confidence: raw channel moves through the tanh derivative.
            # Its gradient is 0.0 off the positives, and x - 0.0 == x there.
            state.iou_conf_raw[pos] -= step_iou * iou_rows * (1.0 - u * u)


def _descend_logits(logits: np.ndarray, grads: np.ndarray, scores: np.ndarray,
                    step: float) -> None:
    """``logits -= step * grads * scores * (1 - scores)`` in place: the
    classification update through the sigmoid derivative."""
    logits -= step * grads * scores * (1.0 - scores)


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

    The scenes hold equally many ground truths.  Their states lie along the
    rows of one state (scene ``s`` takes rows ``s * n_rows`` to
    ``(s + 1) * n_rows - 1``), one plan holds every scene's slots, the
    score logits are held per distinct unit, and each step runs the phases
    of :class:`_Stack` once over all scenes into one row of a table; each
    scene's losses are reduced over its own rows, so every report and final
    state is bitwise the scene's own fit.  The :class:`StepRecord` lists
    are built from the table after the loop.  ``wall_clock_s`` is the
    pass's wall time divided evenly over the reports.

    Returns the reports of the scenes before the first one that fails, and
    that failure (``None`` when every fit finishes): what fitting the scenes
    one at a time, in order, gives.  A stack of several scenes that meets a
    failure does just that (:func:`_fit_one_by_one`).
    """
    if regression not in ("rwiou", "smooth_l1"):
        raise ValueError("regression must be 'rwiou' or 'smooth_l1'")
    if len({len(gts) for gts in scenes}) > 1:
        raise ValueError("a stack's scenes must hold equally many ground truths")
    # The step sizes of the three terms.  Off the positives the confidence
    # step is step_iou * 0.0, which the update skips; that is exact only
    # while step_iou is finite.
    lr = optimizer.step_size
    rates = (lr * weights.lambda_cls, lr * weights.lambda_reg, lr * weights.lambda_iou)
    if not math.isfinite(rates[2]):
        raise ValueError("step_size * lambda_iou must be finite")
    started = time.perf_counter()
    settings = (assigner, optimizer, init, weights, regression, n_classes)

    # Each scene's initial state is user input, checked on its own.
    arrays: list[np.ndarray] = []
    alpha = weights.alpha
    for i, gts in enumerate(scenes):
        try:
            state = (init_state(grid, gts, n_classes, init, assigner, init_seeds[i])
                     if states is None else states[i])
            alpha = _validate_scene(grid, gts, state.prediction_map(),
                                    weights.lambda_reg, weights.alpha)
        except ValueError as exc:
            return _fit_one_by_one(grid, scenes, init_seeds, states, exc, settings)
        if not arrays:
            arrays = [np.empty((len(scenes), *getattr(state, f.name).shape))
                      for f in fields(TrainState)]
        for array, f in zip(arrays, fields(TrainState)):
            array[i] = getattr(state, f.name)
    if not scenes:
        return [], None
    n_scenes, n_gts = len(scenes), len(scenes[0])
    # The scenes along the rows: a view of the same memory.
    state = TrainState(*(array.reshape(-1, *array.shape[2:]) for array in arrays))
    stack = _Stack(state, _ScenePlan(grid, [gt for gts in scenes for gt in gts],
                                     assigner.effective_r, state.score_logits.shape[-1],
                                     n_scenes))

    # Per step and scene: l_cls, l_reg, l_iou, total, mean_true_iou.
    table = np.empty((optimizer.n_steps + 1, n_scenes, 5))
    failure = None
    for step in range(optimizer.n_steps + 1):
        # The initial state passed its checks above.  An updated state that
        # cannot be evaluated is a blow-up; for a one-scene stack, its
        # report is the step before's.
        try:
            boxes = stack.decode(stack.pos) if step else state._boxes_at(stack.plan.cells)
            assignment = stack.score(boxes, weights, alpha)
        except (ValueError, ArithmeticError) as exc:
            failure = (_divergence(step, table[step - 1], 0, assignment, regression, weights, exc)
                       if step else exc)
            break
        row = table[step]
        row[:, :3], grads = stack.losses(assignment, boxes, regression)
        # An overflowing total diverges below; numpy's warning would repeat it.
        with np.errstate(all="ignore"):
            row[:, 3] = (weights.lambda_cls * row[:, 0] + weights.lambda_reg * row[:, 1]
                         + weights.lambda_iou * row[:, 2])
        readout = _true_iou_per_gt(assignment).reshape(n_scenes, n_gts)
        row[:, 4] = readout.mean(axis=1) if n_gts else 0.0
        # Written so that a NaN total also counts as divergence.
        diverged = np.flatnonzero(~(row[:, 3] <= DIVERGENCE_THRESHOLD))
        if len(diverged):
            failure = _divergence(step, row, diverged[0], assignment, regression, weights)
            break
        if step < optimizer.n_steps:
            stack.update(assignment, boxes, grads, rates)
    if failure is not None:
        return _fit_one_by_one(grid, scenes, init_seeds, states, failure, settings)

    elapsed = time.perf_counter() - started
    k_per_gt = assignment.k_per_gt
    records = table.transpose(1, 0, 2).tolist()
    reports = []
    for scene, (gts, final_ious) in enumerate(zip(scenes, readout.tolist())):
        reports.append(ExperimentReport(
            seed=init_seeds[scene],
            regression=regression,
            assigner=assigner,
            steps=[StepRecord(step, *values) for step, values in enumerate(records[scene])],
            final_iou_per_gt=final_ious,
            mean_final_iou=records[scene][-1][4],
            min_final_iou=float(np.min(final_ious)) if final_ious else 0.0,
            k_by_class=_mean_k_by_class(k_per_gt[scene * n_gts:(scene + 1) * n_gts], gts),
            wall_clock_s=elapsed / n_scenes,
            final_state=stack.scene_state(scene),
        ))
    return reports, None


def _fit_one_by_one(grid: GridSpec, scenes: list[list[GroundTruth]], init_seeds: list[int],
                    states: list[TrainState] | None, failure: Exception,
                    settings: tuple) -> tuple[list[ExperimentReport], Exception | None]:
    """What :func:`_fit_scenes` returns for a stack that met ``failure``:
    a one-scene stack's failure is its own; a longer stack fits its scenes
    alone, in order, up to the first that fails, which defines its failure."""
    if len(scenes) == 1:
        return [], failure
    reports = []
    for i, gts in enumerate(scenes):
        done, failure = _fit_scenes(grid, [gts], init_seeds[i:i + 1], *settings,
                                    states=None if states is None else states[i:i + 1])
        reports += done
        if failure is not None:
            break
    return reports, failure


def _divergence(step: int, losses: np.ndarray, scene: int, assignment: AssignmentResult,
                regression: str, weights: LossWeights,
                error: Exception | None = None) -> DivergenceError:
    """Scene ``scene``'s :class:`DivergenceError` at ``step`` (``error``: an
    unusable update's cause), reporting ``total_loss`` of its row of the
    step's table ``losses`` (``l_cls, l_reg, l_iou`` first) and ``assignment``."""
    l_cls, l_reg, l_iou = losses[scene, :3].tolist()
    report = total_loss(l_cls, l_reg, l_iou, weights,
                        n_positives=assignment.positives_per_scene()[scene],
                        per_gt=_per_gt(assignment, scene) if regression == "rwiou" else ())
    failure = DivergenceError(step, report, reason=None if error is None else (
        f"update left an unusable state ({type(error).__name__}: {error})"))
    failure.__cause__ = error
    return failure


def _mean_k_by_class(k_per_gt: list[int], gts: list[GroundTruth]) -> dict[str, float]:
    counts: dict[int, list[int]] = {}
    for gt, k in zip(gts, k_per_gt):
        counts.setdefault(gt.class_id, []).append(k)
    return {
        f"class_{c}": float(np.mean(ks)) for c, ks in sorted(counts.items())
    }


def _fit_seeds(scene: SceneConfig, seeds: list[int], assigner: AssignerConfig,
               optimizer: OptimizerConfig, init: InitConfig, weights: LossWeights,
               regression: str) -> tuple[list, list[ExperimentReport], Exception | None]:
    """The scene of each seed in turn, up to the first that cannot be
    placed, fitted in one stack: the scenes, the reports of the seeds
    before the first failure, and that failure (``None`` if none)."""
    scenes, failure = [], None
    for seed in seeds:
        try:
            scenes.append(generate_scene(replace(scene, seed=seed)))
        except PlacementError as exc:
            failure = exc
            break
    reports, fit_failure = _fit_scenes(
        scene.grid, scenes, [seed + INIT_SEED_OFFSET for seed in seeds[:len(scenes)]],
        assigner, optimizer, init, weights, regression, scene.n_classes)
    return scenes, reports, fit_failure or failure


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
    by size class.  All scenes are fitted in one pass, as one stack.
    """
    scenes, reports, failure = _fit_seeds(
        scene, [base_seed + i for i in range(n_scenes)], assigner,
        OptimizerConfig(step_size=0.05, n_steps=warmup_steps), init, weights, "rwiou")
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
    regression = _scalar(str, config.get("regression", "rwiou"), "config: regression")
    if regression not in ("rwiou", "smooth_l1"):
        raise ValueError("regression must be 'rwiou' or 'smooth_l1'")
    seeds = [_seed(s, "config: seeds")
             for s in _require_list(config.get("seeds", [scene.seed]), "config: seeds")]
    if not seeds:
        raise ValueError("config: seeds must be non-empty")

    output = config.get("output", {})
    _require_keys(output, set(), {"dir", "prefix"}, "output")
    prefix = _scalar(str, output.get("prefix", "fit"), "output: prefix")
    directory: Path | None = None
    if out_dir is not None:
        directory = Path(out_dir)
    elif "dir" in output:
        directory = Path(_scalar(str, output["dir"], "output: dir"))
    if directory is not None:
        directory.mkdir(parents=True, exist_ok=True)

    # Seeds after a failing one are never fitted; the trajectories of the
    # seeds before it are written before the failure is raised.
    _, reports, failure = _fit_seeds(scene, seeds, assigner, optimizer, init, weights,
                                     regression)
    per_seed = []
    for seed, report in zip(seeds, reports):
        summary = report.to_json_dict()
        per_seed.append({"seed": seed, **{key: summary[key] for key in (
            "mean_final_iou", "min_final_iou", "final_total", "wall_clock_s")}})
        if directory is not None:
            csv_path = directory / f"{prefix}_seed{seed}.csv"
            csv_path.write_text(report.trajectory_csv())
    if failure is not None:
        raise failure

    aggregate = {
        "regression": regression,
        "assigner": asdict(assigner),
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
        box = Box3D(*values)
        _check_volume(box, f"gt {len(gts)}")
        gts.append(GroundTruth(box=box, class_id=class_id))
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
    kind = _scalar(str, pred_spec["kind"], "predictions: kind")
    if kind == "explicit":
        _require_keys(pred_spec, {"boxes", "scores"}, set(pred_spec), "predictions")
        arrays = {key: _number_array(pred_spec[key], f"predictions: {key}")
                  for key in ("boxes", "scores", "iou_conf") if key in pred_spec}
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
        _seed(pred_spec.get("seed", 0), "predictions: seed"),
    )
    return grid, gts, state.prediction_map()
