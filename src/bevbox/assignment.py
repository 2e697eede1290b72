"""Dynamic cross label assignment for oriented boxes on a BEV grid.

Each ground truth claims a cross-shaped region of cells around its center
cell (Manhattan radius ``r``), ranks the region's predictions by a selection
cost (classification + weighted regression), and keeps the ``k`` cheapest as
positives, where ``k`` follows the summed true IoU of the candidates.  With
``r = 0`` the scheme degenerates to plain center-cell assignment.

Conflict rule, applied after every ground truth has shortlisted: a cell
shortlisted by several ground truths belongs to the one with the lower
selection cost at that cell (ties: lower ground-truth index); the losers do
not backfill with replacement cells, so a ground truth that lost every
shortlisted cell ends up with zero positives and is flagged in
``AssignmentResult.unassigned``.

All ordering is deterministic: candidates are in slot order (ground truth
by ground truth, each region row-major), cost ties break row-major, and
identical inputs reproduce bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ._config import _from_dict
from .geometry import (
    Box3D,
    BoxParams8,
    _check_alpha,
    _footprint,
    _iou_footprints,
    _target_rows,
    rotated_iou_exact,
)
from .gradients import regression_sample_grad_batch, regression_sample_loss
from .losses import quality_focal

__all__ = [
    "CellIndex",
    "GridSpec",
    "GroundTruth",
    "PredictionMap",
    "AssignmentResult",
    "world_to_cell",
    "cross_region",
    "selection_cost",
    "dynamic_k",
    "dynamic_k_from_ious",
    "assign_dcla",
    "assign_center",
]


class CellIndex(NamedTuple):
    """Grid cell as (row, col); tuple ordering is the row-major order."""

    row: int
    col: int


@dataclass(frozen=True)
class GridSpec:
    """Uniform BEV grid: world origin, square cell size, and shape."""

    x_min: float
    y_min: float
    cell_size: float
    n_rows: int
    n_cols: int

    def __post_init__(self) -> None:
        if self.cell_size <= 0.0:
            raise ValueError(f"cell_size must be positive, got {self.cell_size!r}")
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError(f"grid must have at least one cell, got {self.n_rows}x{self.n_cols}")
        if not all(map(math.isfinite, (self.x_min, self.y_min, self.x_max, self.y_max))):
            raise ValueError("grid extent must be finite")

    @property
    def x_max(self) -> float:
        return self.x_min + self.n_cols * self.cell_size

    @property
    def y_max(self) -> float:
        return self.y_min + self.n_rows * self.cell_size

    def contains(self, x: float, y: float) -> bool:
        """True when the world point lies inside the grid extent."""
        return self.x_min <= x < self.x_max and self.y_min <= y < self.y_max

    def cell_center(self, cell: CellIndex) -> tuple[float, float]:
        return (
            self.x_min + (cell.col + 0.5) * self.cell_size,
            self.y_min + (cell.row + 0.5) * self.cell_size,
        )

    def to_json_dict(self) -> dict:
        return {
            "x_min": self.x_min, "y_min": self.y_min, "cell_size": self.cell_size,
            "n_rows": self.n_rows, "n_cols": self.n_cols,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "GridSpec":
        return _from_dict(cls, d, "grid")


@dataclass(frozen=True)
class GroundTruth:
    """A labeled box with its class id; the center must lie on-grid."""

    box: Box3D
    class_id: int

    def __post_init__(self) -> None:
        if self.class_id < 0:
            raise ValueError(f"class_id must be non-negative, got {self.class_id!r}")


def world_to_cell(grid: GridSpec, x: float, y: float) -> CellIndex:
    """Cell containing a world point, floor convention on both axes.

    Points up to one cell outside the extent are clamped to the border cell;
    anything farther out is rejected (a sign the caller forgot to filter).
    """
    col = math.floor((x - grid.x_min) / grid.cell_size)
    row = math.floor((y - grid.y_min) / grid.cell_size)
    if col < -1 or col > grid.n_cols or row < -1 or row > grid.n_rows:
        raise ValueError(
            f"point ({x}, {y}) lies outside the grid extent by more than one cell"
        )
    return CellIndex(min(max(row, 0), grid.n_rows - 1), min(max(col, 0), grid.n_cols - 1))


def cross_region(grid: GridSpec, center: CellIndex, r: int) -> list[CellIndex]:
    """In-bounds cells within Manhattan distance ``r`` of ``center``, row-major.

    The full cross holds ``2*r*r + 2*r + 1`` cells; near the border the
    out-of-bounds part is dropped.  Only in-bounds rows and columns are
    visited, so the cost does not grow with ``r`` past the grid's size.
    """
    if r < 0:
        raise ValueError(f"cross radius must be non-negative, got {r!r}")
    if not (0 <= center.row < grid.n_rows and 0 <= center.col < grid.n_cols):
        raise ValueError(f"center cell {center} is outside the {grid.n_rows}x{grid.n_cols} grid")
    cells = []
    for row in range(max(center.row - r, 0), min(center.row + r, grid.n_rows - 1) + 1):
        span = r - abs(row - center.row)
        for col in range(max(center.col - span, 0), min(center.col + span, grid.n_cols - 1) + 1):
            cells.append(CellIndex(row, col))
    return cells


def _check_cell_values(boxes: np.ndarray, scores: np.ndarray) -> None:
    """The value checks of :class:`PredictionMap`, in its order, on box rows
    (last axis of 8) and scores of any leading shape."""
    if not np.all(np.isfinite(boxes)):
        raise ValueError("boxes must be finite")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    if np.any(scores < 0.0) or np.any(scores > 1.0):
        raise ValueError("scores must lie in [0, 1]")
    if np.any(boxes[..., 3:6] <= 0.0):
        raise ValueError("box sizes must be strictly positive")


def _check_iou_conf(iou_conf: np.ndarray) -> None:
    if not np.all(np.isfinite(iou_conf)):
        raise ValueError("iou_conf must be finite")


@dataclass
class PredictionMap:
    """Dense per-cell predictions: 8-channel boxes, class scores, confidence.

    ``boxes`` is ``(rows, cols, 8)``; ``scores`` is ``(rows, cols, n_classes)``
    with values in ``[0, 1]``; ``iou_conf`` is ``(rows, cols)`` in ``[-1, 1]``
    (zeros when omitted).  Box sizes must be strictly positive and every
    value finite; construction is where cell values are validated.  A fit
    decodes from its state only the values it reads after each update and
    runs the same checks on them.
    """

    boxes: np.ndarray
    scores: np.ndarray
    iou_conf: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.boxes = np.asarray(self.boxes, dtype=float)
        self.scores = np.asarray(self.scores, dtype=float)
        if self.boxes.ndim != 3 or self.boxes.shape[2] != 8:
            raise ValueError(f"boxes must be (rows, cols, 8), got {self.boxes.shape}")
        if self.scores.ndim != 3 or self.scores.shape[:2] != self.boxes.shape[:2]:
            raise ValueError(
                f"scores must be (rows, cols, n_classes) matching boxes, got {self.scores.shape}"
            )
        _check_cell_values(self.boxes, self.scores)
        if self.iou_conf is None:
            self.iou_conf = np.zeros(self.boxes.shape[:2])
        else:
            self.iou_conf = np.asarray(self.iou_conf, dtype=float)
            if self.iou_conf.shape != self.boxes.shape[:2]:
                raise ValueError(
                    f"iou_conf must be (rows, cols) matching boxes, got {self.iou_conf.shape}"
                )
            _check_iou_conf(self.iou_conf)

    @property
    def n_classes(self) -> int:
        return self.scores.shape[2]

    def matches_grid(self, grid: GridSpec) -> bool:
        return self.boxes.shape[:2] == (grid.n_rows, grid.n_cols)

    def params_at(self, cell: CellIndex) -> BoxParams8:
        return BoxParams8.from_array(self.boxes[cell.row, cell.col])

    def box_at(self, cell: CellIndex) -> Box3D:
        return self.params_at(cell).to_box()


@dataclass
class AssignmentResult:
    """One scene's assignment, or a stack of scenes', as a flat candidate table.

    Every cell of every ground truth's cross region is a candidate; ground
    truth by ground truth, each region row-major, their positions are the
    slots.  Per slot: ``cand_rows``, ``cand_cols`` and ``cand_gt`` (its
    cell and ground truth), ``costs`` (selection cost), ``ious`` (exact IoU
    ``rotated_iou_exact(gt.box, pred)``), ``regression_values`` and
    ``(n, 8)`` ``regression_grads`` (regression sample loss and its
    gradient w.r.t. the prediction channels).  ``positive_slots`` holds
    the positives' slots in increasing order (post conflict resolution),
    so ground truth by ground truth and each row-major; every per-ground-
    truth view of the positives derives from it.  ``best_slots[i]`` is
    ground truth ``i``'s cheapest slot (cost ties row-major).
    ``requested_k[i]`` is the dynamic k before conflicts.  ``heatmap``
    is ``(rows, cols, n_classes)``: exactly 1.0 on a positive's owner
    channel, the true-IoU weight on cross-region negatives, 0 elsewhere.

    A stack of scenes numbers its ground truths scene after scene, so the
    slots are in scene order too; ``cand_scene`` is each slot's scene and
    the heatmap gains a leading scene axis.  A single scene has
    ``cand_scene=None``.
    """

    requested_k: list[int]
    heatmap: np.ndarray
    cand_rows: np.ndarray
    cand_cols: np.ndarray
    cand_gt: np.ndarray
    costs: np.ndarray
    ious: np.ndarray
    regression_values: np.ndarray
    regression_grads: np.ndarray
    positive_slots: np.ndarray
    best_slots: np.ndarray
    cand_scene: np.ndarray | None = None

    @property
    def n_positives(self) -> int:
        return len(self.positive_slots)

    @property
    def n_scenes(self) -> int:
        return 1 if self.cand_scene is None else self.heatmap.shape[0]

    @property
    def k_per_gt(self) -> list[int]:
        return np.bincount(self.cand_gt[self.positive_slots],
                           minlength=len(self.requested_k)).tolist()

    @property
    def unassigned(self) -> list[int]:
        """Ground truths that ended with no positives."""
        return [i for i, k in enumerate(self.k_per_gt) if k == 0]

    @property
    def positives(self) -> list[list[CellIndex]]:
        """Each ground truth's positive cells, row-major."""
        cells: list[list[CellIndex]] = [[] for _ in self.requested_k]
        for row, col, i in zip(*(index.tolist() for index in self.positive_index())):
            cells[i].append(CellIndex(row, col))
        return cells

    @property
    def owner(self) -> np.ndarray:
        """The heatmap's cells (with its scene axis, if any) holding the
        owning ground-truth index, or -1."""
        owner = np.full(self.heatmap.shape[:-1], -1, dtype=int)
        owner[self.positive_cells()] = self.cand_gt[self.positive_slots]
        return owner

    def positive_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat ``(rows, cols, gt)`` index arrays of every positive, in
        ``positive_slots`` order: the gather and scatter index of the
        per-positive array computations."""
        slots = self.positive_slots
        return self.cand_rows[slots], self.cand_cols[slots], self.cand_gt[slots]

    def positive_cells(self) -> tuple[np.ndarray, ...]:
        """Every positive's index into the maps, in ``positive_slots``
        order: ``(rows, cols)``, led by the scenes for a stack."""
        rows, cols, _ = self.positive_index()
        if self.cand_scene is None:
            return rows, cols
        return self.cand_scene[self.positive_slots], rows, cols

    def _per_scene(self, slots: np.ndarray) -> np.ndarray:
        scenes = np.zeros(len(slots), dtype=np.intp) if self.cand_scene is None \
            else self.cand_scene[slots]
        return np.bincount(scenes, minlength=self.n_scenes)

    def positives_per_scene(self) -> np.ndarray:
        return self._per_scene(self.positive_slots)

    def gts_per_scene(self) -> np.ndarray:
        # Every region holds its center cell, so each ground truth has a best slot.
        return self._per_scene(self.best_slots)

    def to_json_dict(self) -> dict:
        owner = self.owner
        rows, cols = owner.shape
        owner_entries = [
            [r, c, int(owner[r, c])]
            for r in range(rows) for c in range(cols)
            if owner[r, c] >= 0
        ]
        heat_entries = [
            [r, c, k, float(self.heatmap[r, c, k])]
            for r in range(rows) for c in range(cols)
            for k in range(self.heatmap.shape[2])
            if self.heatmap[r, c, k] != 0.0
        ]
        return {
            "n_positives": self.n_positives,
            "per_gt": [
                {
                    "gt": i,
                    "k": len(cells),
                    "requested_k": self.requested_k[i],
                    "positives": [[c.row, c.col] for c in cells],
                }
                for i, cells in enumerate(self.positives)
            ],
            "unassigned": list(self.unassigned),
            "owner": owner_entries,
            "heatmap": heat_entries,
        }


def selection_cost(gt: GroundTruth, pred_box: BoxParams8, pred_score: float,
                   lambda_reg: float = 3.0, alpha: float = 0.5,
                   gamma: float = 2.0) -> float:
    """Candidate cost: classification term plus weighted regression term.

    The classification term is the quality focal value of the cell's score
    on the ground truth's class channel against a unit target, so the cost
    strictly prefers confident cells; the regression term is the RWIoU +
    center-distance sample loss.  A perfect prediction costs exactly 0.
    """
    if lambda_reg <= 0.0:
        raise ValueError(f"lambda_reg must be positive, got {lambda_reg!r}")
    alpha = _check_alpha(alpha)
    l_cls = quality_focal(float(pred_score), 1.0, gamma)
    l_reg = regression_sample_loss(pred_box, BoxParams8.from_box(gt.box), alpha)
    return l_cls + lambda_reg * l_reg


def dynamic_k_from_ious(ious: Sequence[float], n_candidates: int | None = None) -> int:
    """Dynamic positive count: ``max(floor(sum(ious)), 1)`` capped at the count.

    ``n_candidates`` defaults to ``len(ious)``.  An empty candidate list
    returns 1 by convention (the value is irrelevant: there is nothing to
    select).
    """
    if n_candidates is None:
        n_candidates = len(ious)
    # Added in order: from Python 3.12 the builtin sum compensates, and ten
    # 0.2s would give 2.0 (k = 2) instead of 1.9999999999999998 (k = 1).
    total = 0.0
    for iou in ious:
        total += iou
    k = max(math.floor(total), 1)
    if n_candidates > 0:
        k = min(k, n_candidates)
    return k


def dynamic_k(gt: GroundTruth, candidate_boxes: Sequence[Box3D | BoxParams8]) -> int:
    """Dynamic k from candidate boxes via their exact rotated IoU to ``gt``.

    Depends only on the per-candidate IoU list, so uniformly rescaling the
    ground truth and its candidates leaves k unchanged.
    """
    ious = []
    for cand in candidate_boxes:
        box = cand.to_box() if isinstance(cand, BoxParams8) else cand
        ious.append(rotated_iou_exact(gt.box, box))
    return dynamic_k_from_ious(ious)


def _validate_scene(grid: GridSpec, gts: Sequence[GroundTruth], preds: PredictionMap,
                    lambda_reg: float, alpha: float) -> float:
    """:func:`assign_dcla`'s input checks; returns the checked ``alpha``.

    Nothing checked here changes while a fit updates its state, so a fit
    runs them once per scene.
    """
    if not preds.matches_grid(grid):
        raise ValueError(
            f"prediction map shape {preds.boxes.shape[:2]} does not match "
            f"grid {grid.n_rows}x{grid.n_cols}"
        )
    for i, gt in enumerate(gts):
        if gt.class_id >= preds.n_classes:
            raise ValueError(
                f"gt {i} has class_id {gt.class_id} but predictions carry "
                f"{preds.n_classes} class channels"
            )
        if not grid.contains(gt.box.x, gt.box.y):
            raise ValueError(f"gt {i} center ({gt.box.x}, {gt.box.y}) is off-grid")
    if lambda_reg <= 0.0:
        raise ValueError(f"lambda_reg must be positive, got {lambda_reg!r}")
    return _check_alpha(alpha)


class _SceneFault(Exception):
    """A scored stack whose scene ``scene`` fails; ``error`` is what scoring
    that scene alone raises.  Every earlier scene scored cleanly."""

    def __init__(self, scene: int, error: Exception) -> None:
        super().__init__(scene, error)
        self.scene = scene
        self.error = error


class _ScenePlan:
    """The part of an assignment that the predictions do not change.

    Built from ``(grid, gts, r)``: every ground truth's cross region as the
    flat slot order with its gather indices (region ``i`` holds slots
    ``starts[i]:starts[i + 1]``, and ``offsets`` is each slot's position in
    its region), the regression target rows and the ground-truth
    footprints.  It also keeps, per slot, the bits of the box row it last
    scored and that row's exact IoU: :meth:`score` re-runs the clipper only
    for slots whose box bits changed.  Bits, not floats, because
    ``-0.0 == 0.0`` yet ``atan2`` tells them apart.  A plan serves one fit;
    ``iou_runs`` counts the IoUs it has computed.

    With ``scene_sizes`` the plan serves a stack of scenes: ``gts`` lists
    each scene's ground truths in turn (``scene_sizes`` of them), ``scenes``
    is each slot's scene, and :attr:`cells` indexes maps with a leading
    scene axis.  Without it, ``gts`` is one scene and maps have no scene
    axis.
    """

    def __init__(self, grid: GridSpec, gts: Sequence[GroundTruth], r: int,
                 scene_sizes: Sequence[int] | None = None) -> None:
        self.grid = grid
        self.gts = list(gts)
        self.stacked = scene_sizes is not None
        if scene_sizes is None:
            scene_sizes = [len(self.gts)]
        self.gt_starts = np.cumsum([0, *scene_sizes])
        regions = [cross_region(grid, world_to_cell(grid, gt.box.x, gt.box.y), r)
                   for gt in self.gts]
        sizes = [len(region) for region in regions]
        self.starts = np.cumsum([0, *sizes])
        self.gt_of = np.repeat(np.arange(len(sizes)), np.array(sizes, dtype=np.intp))
        self.offsets = np.arange(len(self.gt_of)) - self.starts[self.gt_of]
        gt_scene = np.repeat(np.arange(len(scene_sizes)), np.array(scene_sizes, dtype=np.intp))
        self.scenes = gt_scene[self.gt_of]
        self.rows = np.array([cell.row for region in regions for cell in region], dtype=np.intp)
        self.cols = np.array([cell.col for region in regions for cell in region], dtype=np.intp)
        self.class_ids = np.array([gt.class_id for gt in self.gts], dtype=np.intp)[self.gt_of]
        self.targets = _target_rows([gt.box for gt in self.gts])[self.gt_of]
        self.gt_feet = [_footprint(*gt.box.as_tuple()) for gt in self.gts]
        self._bits: np.ndarray | None = None
        self._ious = [0.0] * len(self.gt_of)
        self.iou_runs = 0

    @property
    def n_scenes(self) -> int:
        return len(self.gt_starts) - 1

    @property
    def cells(self) -> tuple[np.ndarray, ...]:
        """Each slot's index into the maps: ``(rows, cols)``, led by the
        scenes for a stack."""
        return (self.scenes, self.rows, self.cols) if self.stacked else (self.rows, self.cols)

    def truncate(self, n_scenes: int) -> None:
        """Keep the first ``n_scenes`` scenes of the stack, memo included."""
        n_gts = int(self.gt_starts[n_scenes])
        n = int(self.starts[n_gts])
        self.gt_starts = self.gt_starts[:n_scenes + 1]
        self.gts, self.gt_feet = self.gts[:n_gts], self.gt_feet[:n_gts]
        self.starts = self.starts[:n_gts + 1]
        for name in ("gt_of", "offsets", "scenes", "rows", "cols", "class_ids", "targets"):
            setattr(self, name, getattr(self, name)[:n])
        if self._bits is not None:
            self._bits = self._bits[:n]
        self._ious = self._ious[:n]

    def _exact_ious(self, boxes: np.ndarray) -> list[float]:
        """``rotated_iou_exact(gt.box, pred)`` per slot, from footprints of
        the validated row floats; only rows whose bits changed are clipped.
        A clipper error is raised as the :class:`_SceneFault` of its slot's
        scene."""
        bits = boxes.view(np.uint64)
        if self._bits is None:
            changed = np.arange(len(boxes))
        else:
            changed = np.flatnonzero(np.any(bits != self._bits, axis=1))
        slot = 0
        try:
            for slot, i, (x, y, z, l, w, h, s, c) in zip(
                    changed.tolist(), self.gt_of[changed].tolist(), boxes[changed].tolist()):
                self._ious[slot] = _iou_footprints(
                    self.gt_feet[i], _footprint(x, y, z, l, w, h, math.atan2(s, c)))
        except (ValueError, ArithmeticError) as exc:
            raise _SceneFault(int(self.scenes[slot]), exc) from exc
        self._bits = bits
        self.iou_runs += len(changed)
        return self._ious

    def score(self, preds: PredictionMap, lambda_reg: float, alpha: float) -> AssignmentResult:
        """The assignment of :func:`assign_dcla` for ``preds``, whose inputs
        :func:`_validate_scene` has checked (``alpha`` is its return)."""
        cells = self.cells
        try:
            return self.score_rows(preds.boxes[cells], preds.scores[(*cells, self.class_ids)],
                                   preds.n_classes, lambda_reg, alpha)
        except _SceneFault as fault:
            raise fault.error from None

    def score_rows(self, boxes: np.ndarray, scores: np.ndarray, n_classes: int,
                   lambda_reg: float, alpha: float) -> AssignmentResult:
        """:meth:`score` from each slot's box row and score on its ground
        truth's class channel, gathered at :attr:`cells`.

        Raises the :class:`_SceneFault` of the first scene whose own
        scoring fails: a clipper error, or ``ValueError("candidate costs
        must be finite")``, checked in that order within a scene.
        """
        gt_of, starts, rows, cols = self.gt_of, self.starts, self.rows, self.cols
        # selection_cost row by row, bitwise: the kernel's values are the
        # regression sample loss.  An overflow inside it shows as a
        # non-finite cost, rejected below.
        with np.errstate(all="ignore"):
            reg_values, reg_grads = regression_sample_grad_batch(boxes, self.targets, alpha)
            costs = quality_focal(scores, 1.0, 2.0) + lambda_reg * reg_values
        finite = np.isfinite(costs)
        # Sorts order NaN keys unlike comparisons; no cost reaches them.
        bad_cost = None if finite.all() else int(self.scenes[np.argmin(finite)])
        try:
            iou_list = self._exact_ious(boxes)
        except _SceneFault as fault:
            if bad_cost is None or fault.scene <= bad_cost:
                raise
        if bad_cost is not None:
            raise _SceneFault(bad_cost, ValueError("candidate costs must be finite"))
        requested_k = [dynamic_k_from_ious(iou_list[a:b])
                       for a, b in zip(starts[:-1].tolist(), starts[1:].tolist())]

        # Rank within each region by cost; the stable sort breaks cost ties
        # in slot order, row-major.  The k cheapest are shortlisted.
        order = np.lexsort((costs, gt_of))
        rank = np.empty_like(order)
        rank[order] = self.offsets
        shortlist = np.flatnonzero(rank < np.array(requested_k, dtype=np.intp)[gt_of])

        # Conflict resolution: per cell of a scene, the first claimant by
        # (cost, gt) wins.
        n_rows, n_cols = self.grid.n_rows, self.grid.n_cols
        keys = (self.scenes[shortlist] * n_rows + rows[shortlist]) * n_cols + cols[shortlist]
        by_cell = np.lexsort((gt_of[shortlist], costs[shortlist], keys))
        _, first = np.unique(keys[by_cell], return_index=True)
        positive_slots = np.sort(shortlist[by_cell[first]])

        shape = (n_rows, n_cols, n_classes)
        heatmap = np.zeros((self.n_scenes, *shape) if self.stacked else shape)
        ious = np.array(iou_list)
        index = (*self.cells, self.class_ids)
        np.maximum.at(heatmap, index, ious)
        heatmap[tuple(i[positive_slots] for i in index)] = 1.0

        return AssignmentResult(requested_k=requested_k, heatmap=heatmap,
                                cand_rows=rows, cand_cols=cols, cand_gt=gt_of,
                                costs=costs, ious=ious,
                                regression_values=reg_values, regression_grads=reg_grads,
                                positive_slots=positive_slots, best_slots=order[starts[:-1]],
                                cand_scene=self.scenes if self.stacked else None)


def assign_dcla(grid: GridSpec, gts: Sequence[GroundTruth], preds: PredictionMap,
                r: int = 1, lambda_reg: float = 3.0, alpha: float = 0.5) -> AssignmentResult:
    """Dynamic cross label assignment over one scene.

    For each ground truth: build the cross region of radius ``r`` around its
    center cell, compute every candidate's selection cost and exact rotated
    IoU, pick ``k`` from the summed IoUs, and shortlist the ``k`` cheapest
    candidates (cost ties row-major).  Cross-ground-truth conflicts then
    resolve by lower cost (ties by lower index) with no backfill; see the
    module docstring.  The result is the table of scored candidates, with
    the regression rows of the one kernel call that scored them, so later
    consumers read costs, IoUs, loss values and gradients instead of
    recomputing them.  A candidate cost that is not finite raises
    ``ValueError``.

    The heatmap gives cross-region negatives their IoU weight on the ground
    truth's class channel (max over same-class overlapping regions) and
    forces exactly 1.0 on each positive's owner channel.
    """
    alpha = _validate_scene(grid, gts, preds, lambda_reg, alpha)
    return _ScenePlan(grid, gts, r).score(preds, lambda_reg, alpha)


def assign_center(grid: GridSpec, gts: Sequence[GroundTruth], preds: PredictionMap,
                  lambda_reg: float = 3.0, alpha: float = 0.5) -> AssignmentResult:
    """Center-cell assignment: the cross scheme with radius 0.

    Exactly one candidate per ground truth (its center cell), so every
    requested k is 1; two ground truths sharing a center cell contest it and
    the loser is flagged unassigned.
    """
    return assign_dcla(grid, gts, preds, r=0, lambda_reg=lambda_reg, alpha=alpha)
