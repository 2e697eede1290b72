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

All ordering is deterministic: candidate lists are row-major, cost ties
break row-major, and identical inputs reproduce bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    "Candidate",
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


class Candidate(NamedTuple):
    """A scored cross-region cell of one ground truth.

    Tuples order by ``(cost, cell)``: the assignment's ranking, with cost
    ties broken row-major.
    """

    cost: float
    cell: CellIndex
    iou: float


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
    out-of-bounds part is dropped.
    """
    if r < 0:
        raise ValueError(f"cross radius must be non-negative, got {r!r}")
    if not (0 <= center.row < grid.n_rows and 0 <= center.col < grid.n_cols):
        raise ValueError(f"center cell {center} is outside the {grid.n_rows}x{grid.n_cols} grid")
    cells = []
    for dr in range(-r, r + 1):
        row = center.row + dr
        if row < 0 or row >= grid.n_rows:
            continue
        span = r - abs(dr)
        for dc in range(-span, span + 1):
            col = center.col + dc
            if 0 <= col < grid.n_cols:
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
    keeps one map and rewrites it cell by cell after each update, running
    the same checks on the values it wrote.
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
    """Positives, ownership, and heatmap weights for one scene.

    ``positives[i]`` lists ground truth ``i``'s cells in row-major order
    (post conflict resolution); ``requested_k[i]`` is the dynamic k before
    conflicts.  ``owner`` is ``(rows, cols)`` with the owning ground-truth
    index or -1.  ``heatmap`` is ``(rows, cols, n_classes)``: exactly 1.0 on
    a positive's owner channel, the true-IoU weight on cross-region
    negatives, 0 elsewhere.  ``candidates[i]`` lists every cell of ground
    truth ``i``'s cross region in row-major order with its selection cost
    and exact IoU ``rotated_iou_exact(gt.box, pred)``.  Flattened ground
    truth by ground truth, the candidates give the slot order:
    ``regression_values`` ``(n_candidates,)`` and ``regression_grads``
    ``(n_candidates, 8)`` hold each candidate's regression sample loss and
    its gradient w.r.t. the prediction channels, and ``positive_slots``
    holds each positive's slot, in :meth:`positive_index` order.  Ground
    truths that end with no positives are listed in ``unassigned``.
    """

    positives: list[list[CellIndex]]
    requested_k: list[int]
    owner: np.ndarray
    heatmap: np.ndarray
    candidates: list[list[Candidate]]
    regression_values: np.ndarray
    regression_grads: np.ndarray
    positive_slots: np.ndarray
    unassigned: list[int] = field(default_factory=list)

    @property
    def n_positives(self) -> int:
        return sum(len(cells) for cells in self.positives)

    @property
    def k_per_gt(self) -> list[int]:
        return [len(cells) for cells in self.positives]

    def positive_index(self) -> tuple[list[int], list[int], list[int]]:
        """Flat ``(rows, cols, gt)`` index lists of every positive.

        Ground truth by ground truth, each in its ``positives`` order: the
        gather and scatter index of the per-positive array computations.
        """
        rows, cols, gt_of = [], [], []
        for i, cells in enumerate(self.positives):
            for cell in cells:
                rows.append(cell.row)
                cols.append(cell.col)
                gt_of.append(i)
        return rows, cols, gt_of

    def to_json_dict(self) -> dict:
        rows, cols = self.owner.shape
        owner_entries = [
            [r, c, int(self.owner[r, c])]
            for r in range(rows) for c in range(cols)
            if self.owner[r, c] >= 0
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
    k = max(math.floor(sum(ious)), 1)
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


def _validate_scene(grid: GridSpec, gts: Sequence[GroundTruth], preds: PredictionMap) -> None:
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


def assign_dcla(grid: GridSpec, gts: Sequence[GroundTruth], preds: PredictionMap,
                r: int = 1, lambda_reg: float = 3.0, alpha: float = 0.5) -> AssignmentResult:
    """Dynamic cross label assignment over one scene.

    For each ground truth: build the cross region of radius ``r`` around its
    center cell, compute every candidate's selection cost and exact rotated
    IoU, pick ``k`` from the summed IoUs, and shortlist the ``k`` cheapest
    candidates (cost ties row-major).  Cross-ground-truth conflicts then
    resolve by lower cost (ties by lower index) with no backfill; see the
    module docstring.  The scored candidates are kept on the result, with
    the regression rows of the one kernel call that scored them, so later
    consumers read costs, IoUs, loss values and gradients instead of
    recomputing them.

    The heatmap gives cross-region negatives their IoU weight on the ground
    truth's class channel (max over same-class overlapping regions) and
    forces exactly 1.0 on each positive's owner channel.
    """
    _validate_scene(grid, gts, preds)
    if lambda_reg <= 0.0:
        raise ValueError(f"lambda_reg must be positive, got {lambda_reg!r}")
    alpha = _check_alpha(alpha)

    # Every ground truth's region cells as one flat (gt, row, col) list, the
    # candidate order: one kernel call scores them all, and each candidate's
    # flat position (its slot) indexes the kernel's rows.
    regions = [cross_region(grid, world_to_cell(grid, gt.box.x, gt.box.y), r) for gt in gts]
    gt_of = [i for i, region in enumerate(regions) for _ in region]
    cells = [cell for region in regions for cell in region]
    rows = [cell.row for cell in cells]
    cols = [cell.col for cell in cells]
    boxes = preds.boxes[rows, cols]
    scores = preds.scores[rows, cols, [gts[i].class_id for i in gt_of]]
    targets = _target_rows([gt.box for gt in gts])[gt_of]
    # selection_cost row by row, bitwise: the kernel's values are the
    # regression sample loss.
    reg_values, reg_grads = regression_sample_grad_batch(boxes, targets, alpha)
    costs = (quality_focal(scores, 1.0, 2.0) + lambda_reg * reg_values).tolist()
    # rotated_iou_exact(gt.box, pred) on footprints: each ground truth's is
    # built once, and the candidates' straight from the validated row floats.
    gt_feet = [_footprint(*gt.box.as_tuple()) for gt in gts]
    ious = [
        _iou_footprints(gt_feet[i], _footprint(x, y, z, l, w, h, math.atan2(s, c)))
        for i, (x, y, z, l, w, h, s, c) in zip(gt_of, boxes.tolist())
    ]

    candidates: list[list[Candidate]] = []
    requested_k: list[int] = []
    shortlists: list[list[int]] = []  # slots of the k cheapest
    start = 0
    for region in regions:
        stop = start + len(region)
        entries = [Candidate(cost, cell, iou)
                   for cost, cell, iou in zip(costs[start:stop], region, ious[start:stop])]
        k = dynamic_k_from_ious([e.iou for e in entries], len(entries))
        candidates.append(entries)
        requested_k.append(k)
        ranked = sorted(range(len(entries)), key=entries.__getitem__)
        shortlists.append([start + j for j in ranked[:k]])
        start = stop

    # Conflict resolution: the cheapest claimant wins each contested cell.
    claims: dict[CellIndex, list[tuple[float, int]]] = {}
    for i, shortlist in enumerate(shortlists):
        for slot in shortlist:
            claims.setdefault(cells[slot], []).append((costs[slot], i))
    owner = np.full((grid.n_rows, grid.n_cols), -1, dtype=int)
    winners: dict[CellIndex, int] = {}
    for cell, claimants in claims.items():
        _, winner = min(claimants)
        winners[cell] = winner
        owner[cell.row, cell.col] = winner

    # Regions are row-major, so within a ground truth slot order is row-major.
    positives: list[list[CellIndex]] = []
    positive_slots: list[int] = []
    unassigned: list[int] = []
    for i, shortlist in enumerate(shortlists):
        kept = sorted(slot for slot in shortlist if winners[cells[slot]] == i)
        positives.append([cells[slot] for slot in kept])
        positive_slots.extend(kept)
        if not kept:
            unassigned.append(i)

    n_classes = preds.n_classes
    heatmap = np.zeros((grid.n_rows, grid.n_cols, n_classes))
    for gt, entries in zip(gts, candidates):
        for _, cell, iou in entries:
            if iou > heatmap[cell.row, cell.col, gt.class_id]:
                heatmap[cell.row, cell.col, gt.class_id] = iou
    for i, cells in enumerate(positives):
        for cell in cells:
            heatmap[cell.row, cell.col, gts[i].class_id] = 1.0

    return AssignmentResult(positives=positives, requested_k=requested_k,
                            owner=owner, heatmap=heatmap, candidates=candidates,
                            regression_values=reg_values, regression_grads=reg_grads,
                            positive_slots=np.array(positive_slots, dtype=int),
                            unassigned=unassigned)


def assign_center(grid: GridSpec, gts: Sequence[GroundTruth], preds: PredictionMap,
                  lambda_reg: float = 3.0, alpha: float = 0.5) -> AssignmentResult:
    """Center-cell assignment: the cross scheme with radius 0.

    Exactly one candidate per ground truth (its center cell), so every
    requested k is 1; two ground truths sharing a center cell contest it and
    the loser is flagged unassigned.
    """
    return assign_dcla(grid, gts, preds, r=0, lambda_reg=lambda_reg, alpha=alpha)
