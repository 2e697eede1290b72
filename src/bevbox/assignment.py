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
from dataclasses import asdict, dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ._config import _from_dict
from .geometry import (
    Box3D,
    BoxParams8,
    _check_alpha,
    _check_volume,
    _iou_quads,
    _log_sizes,
    _Quads,
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
        return asdict(self)

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
    ``requested_k[i]`` is the dynamic k before conflicts.

    The classification targets are held per entry: ``heat[j]`` is the
    target of the score entry ``heat_entries[j]`` (a flat index into a map
    of shape ``map_shape``, ``(rows, cols, n_classes)``), and every other
    entry's target is 0.  :attr:`heatmap` is the dense map they make:
    exactly 1.0 on a positive's owner channel, the true-IoU weight on
    cross-region negatives, 0 elsewhere.

    A stack of ``n_scenes`` scenes of equally many ground truths lays them
    along the rows: scene ``s`` takes rows ``s * n_rows`` to
    ``(s + 1) * n_rows - 1`` of every map, so ``map_shape`` is
    ``(n_scenes * n_rows, cols, n_classes)`` and ``cand_rows`` count the
    rows of the whole stack.  Its ground truths are numbered scene after
    scene, so the slots are in scene order too.  A scene is a stack of one.
    """

    requested_k: list[int]
    map_shape: tuple[int, ...]
    heat_entries: np.ndarray
    heat: np.ndarray
    cand_rows: np.ndarray
    cand_cols: np.ndarray
    cand_gt: np.ndarray
    costs: np.ndarray
    ious: np.ndarray
    regression_values: np.ndarray
    regression_grads: np.ndarray
    positive_slots: np.ndarray
    best_slots: np.ndarray
    n_scenes: int = 1

    @property
    def n_positives(self) -> int:
        return len(self.positive_slots)

    @property
    def heatmap(self) -> np.ndarray:
        """The dense classification targets, of shape ``map_shape``."""
        heatmap = np.zeros(self.map_shape)
        heatmap.reshape(-1)[self.heat_entries] = self.heat
        return heatmap

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
        """The heatmap's cells holding the owning ground-truth index, or -1."""
        owner = np.full(self.map_shape[:-1], -1, dtype=int)
        owner[self.positive_cells()] = self.cand_gt[self.positive_slots]
        return owner

    def positive_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat ``(rows, cols, gt)`` index arrays of every positive, in
        ``positive_slots`` order: the gather and scatter index of the
        per-positive array computations."""
        slots = self.positive_slots
        return self.cand_rows[slots], self.cand_cols[slots], self.cand_gt[slots]

    def positive_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """Every positive's ``(rows, cols)`` index into the maps, in
        ``positive_slots`` order."""
        return self.positive_index()[:2]

    def positives_per_scene(self) -> np.ndarray:
        scene_rows = self.map_shape[0] // self.n_scenes
        return np.bincount(self.cand_rows[self.positive_slots] // scene_rows,
                           minlength=self.n_scenes)

    def to_json_dict(self) -> dict:
        # A cell has at most one owner, so sorting orders the owners row-major,
        # and the increasing heat entries are the heatmap's row-major order.
        owner = sorted(map(list, zip(*(index.tolist() for index in self.positive_index()))))
        nonzero = self.heat != 0.0
        heat_index = np.unravel_index(self.heat_entries[nonzero], self.map_shape)
        heat_cells = [list(entry) for entry in zip(*(index.tolist() for index in heat_index),
                                                   self.heat[nonzero].tolist())]
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
            "owner": owner,
            "heatmap": heat_cells,
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


def _check_class_id(i: int, gt: GroundTruth, n_classes: int) -> None:
    """Reject ground truth ``i`` when maps of ``n_classes`` channels have no
    channel for its class."""
    if gt.class_id >= n_classes:
        raise ValueError(
            f"gt {i} has class_id {gt.class_id} but predictions carry "
            f"{n_classes} class channels"
        )


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
        _check_class_id(i, gt, preds.n_classes)
        if not grid.contains(gt.box.x, gt.box.y):
            raise ValueError(f"gt {i} center ({gt.box.x}, {gt.box.y}) is off-grid")
        _check_volume(gt.box, f"gt {i}")
    if lambda_reg <= 0.0:
        raise ValueError(f"lambda_reg must be positive, got {lambda_reg!r}")
    return _check_alpha(alpha)


class _ScenePlan:
    """The part of an assignment that the predictions do not change.

    Built from ``(grid, gts, r, n_classes)``: every ground truth's cross
    region as the flat slot order with its gather indices (region ``i``
    holds slots ``starts[i]:starts[i + 1]``, and ``offsets`` is each slot's
    position in its region), the regression target rows and the
    ground-truth footprints.  ``entries`` are the score entries the slots
    read (each slot's cell on its ground truth's class channel), as
    increasing flat indices into maps of shape ``map_shape``, and
    ``slot_entry`` is each slot's position in them; no other entry's
    classification target can be nonzero.  It also keeps, per slot, the
    bits of the box row it last scored and that row's exact IoU:
    :meth:`score` re-runs the clipper only for slots whose box bits
    changed.  Bits, not floats, because ``-0.0 == 0.0`` yet ``atan2``
    tells them apart.  A plan serves one fit; ``iou_runs`` counts the IoUs
    it has computed.

    With ``n_scenes`` the plan serves a stack of scenes with equally many
    ground truths: ``gts`` lists each scene's ground truths in turn, and
    the scenes lie along the rows of the maps, as in
    :class:`AssignmentResult`.  Each cross region is cut on its scene's own
    grid and then moved down to the scene's rows, so it never reaches into
    another scene.  ``cells`` is every slot's ``(rows, cols)`` index into
    the maps.
    """

    def __init__(self, grid: GridSpec, gts: Sequence[GroundTruth], r: int, n_classes: int,
                 n_scenes: int = 1) -> None:
        self.grid = grid
        self.gts = list(gts)
        self.n_scenes = n_scenes
        regions = [cross_region(grid, world_to_cell(grid, gt.box.x, gt.box.y), r)
                   for gt in self.gts]
        sizes = [len(region) for region in regions]
        self.starts = np.cumsum([0, *sizes])
        self.gt_of = np.repeat(np.arange(len(sizes)), np.array(sizes, dtype=np.intp))
        self.offsets = np.arange(len(self.gt_of)) - self.starts[self.gt_of]
        # Each ground truth's scene starts at row scene * n_rows.
        gt_rows = grid.n_rows * np.repeat(np.arange(n_scenes), len(self.gts) // n_scenes)
        self.rows = gt_rows[self.gt_of] + np.array(
            [cell.row for region in regions for cell in region], dtype=np.intp)
        self.cols = np.array([cell.col for region in regions for cell in region], dtype=np.intp)
        self.cells = (self.rows, self.cols)
        self.class_ids = np.array([gt.class_id for gt in self.gts], dtype=np.intp)[self.gt_of]
        self.map_shape = (n_scenes * grid.n_rows, grid.n_cols, n_classes)
        keys = (self.rows * grid.n_cols + self.cols) * n_classes + self.class_ids
        self.entries, self.slot_entry = np.unique(keys, return_inverse=True)
        targets = _target_rows([gt.box for gt in self.gts])
        self.targets = targets[self.gt_of]
        targets[:, 3:6] = _log_sizes(targets[:, 3:6])
        self.log_targets = targets[self.gt_of]
        self.quads = _Quads.of([gt.box for gt in self.gts])
        self._bits: np.ndarray | None = None
        # Each slot's last IoU, then a 0.0 that pads the regions' table
        # (region i's slots down column i, then the pad) to one width.
        self._ious = np.zeros(len(self.gt_of) + 1)
        self._regions = np.full((max([1, *sizes]), len(sizes)), len(self.gt_of))
        self._regions[self.offsets, self.gt_of] = np.arange(len(self.gt_of))
        self._sizes = np.array(sizes, dtype=float)
        self.iou_runs = 0

    def _exact_ious(self, boxes: np.ndarray) -> np.ndarray:
        """``rotated_iou_exact(gt.box, pred)`` per slot, from the validated
        box rows; only rows whose bits changed are clipped, in one batch."""
        bits = boxes.view(np.uint64)
        if self._bits is None:
            changed = np.arange(len(boxes))
        else:
            changed = np.flatnonzero(np.any(bits != self._bits, axis=1))
        if len(changed):
            self._ious[changed] = _iou_quads(self.quads, self.gt_of[changed], boxes[changed])
        self._bits = bits
        self.iou_runs += len(changed)
        return self._ious[:-1]

    def _requested_k(self) -> np.ndarray:
        """:func:`dynamic_k_from_ious` of each region's last IoUs, bitwise:
        each column of the regions' table summed in slot order, the pad
        adding 0.0.  A sum that is not finite makes ``math.floor`` raise,
        region by region, as the scalar form does."""
        totals = self._ious.take(self._regions).cumsum(axis=0)[-1]
        if not np.isfinite(totals).all():
            starts = self.starts.tolist()
            for a, b in zip(starts, starts[1:]):
                dynamic_k_from_ious(self._ious[a:b].tolist())
        return np.minimum(np.maximum(np.floor(totals), 1.0), self._sizes).astype(np.intp)

    def score(self, preds: PredictionMap, lambda_reg: float, alpha: float) -> AssignmentResult:
        """The assignment of :func:`assign_dcla` for ``preds``, whose inputs
        :func:`_validate_scene` has checked (``alpha`` is its return)."""
        cells = self.cells
        return self.score_rows(preds.boxes[cells], preds.scores[(*cells, self.class_ids)],
                               lambda_reg, alpha)

    def score_rows(self, boxes: np.ndarray, scores: np.ndarray,
                   lambda_reg: float, alpha: float) -> AssignmentResult:
        """:meth:`score` from each slot's box row and score on its ground
        truth's class channel, gathered at :attr:`cells`.

        A clipper error is raised before ``ValueError("candidate costs must
        be finite")``.
        """
        gt_of, starts, rows, cols = self.gt_of, self.starts, self.rows, self.cols
        # selection_cost row by row, bitwise: the kernel's values are the
        # regression sample loss.  An overflow inside it shows as a
        # non-finite cost, rejected below.
        with np.errstate(all="ignore"):
            reg_values, reg_grads = regression_sample_grad_batch(boxes, self.targets, alpha)
            costs = quality_focal(scores, 1.0, 2.0) + lambda_reg * reg_values
        ious = self._exact_ious(boxes).copy()
        # Sorts order NaN keys unlike comparisons; no cost reaches them.
        if not np.all(np.isfinite(costs)):
            raise ValueError("candidate costs must be finite")
        requested_k = self._requested_k()

        # Rank within each region by cost; the stable sort breaks cost ties
        # in slot order, row-major.  The k cheapest are shortlisted.
        order = np.lexsort((costs, gt_of))
        rank = np.empty_like(order)
        rank[order] = self.offsets
        shortlist = np.flatnonzero(rank < requested_k[gt_of])

        # Conflict resolution: per cell, the first claimant by (cost, gt)
        # wins.
        keys = rows[shortlist] * self.grid.n_cols + cols[shortlist]
        by_cell = np.lexsort((gt_of[shortlist], costs[shortlist], keys))
        _, first = np.unique(keys[by_cell], return_index=True)
        positive_slots = np.sort(shortlist[by_cell[first]])

        # Targets: the IoU (max over same-class regions), then 1.0 at the
        # positives.
        heat = np.zeros(len(self.entries))
        np.maximum.at(heat, self.slot_entry, ious)
        heat[self.slot_entry[positive_slots]] = 1.0

        return AssignmentResult(requested_k=requested_k.tolist(), map_shape=self.map_shape,
                                heat_entries=self.entries, heat=heat,
                                cand_rows=rows, cand_cols=cols, cand_gt=gt_of,
                                costs=costs, ious=ious,
                                regression_values=reg_values, regression_grads=reg_grads,
                                positive_slots=positive_slots, best_slots=order[starts[:-1]],
                                n_scenes=self.n_scenes)


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
    return _ScenePlan(grid, gts, r, preds.n_classes).score(preds, lambda_reg, alpha)


def assign_center(grid: GridSpec, gts: Sequence[GroundTruth], preds: PredictionMap,
                  lambda_reg: float = 3.0, alpha: float = 0.5) -> AssignmentResult:
    """Center-cell assignment: the cross scheme with radius 0.

    Exactly one candidate per ground truth (its center cell), so every
    requested k is 1; two ground truths sharing a center cell contest it and
    the loser is flagged unassigned.
    """
    return assign_dcla(grid, gts, preds, r=0, lambda_reg=lambda_reg, alpha=alpha)
