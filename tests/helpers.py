"""Independent oracles for cross-checking the package implementations.

The assignment oracle here deliberately avoids the production code path:
candidate regions come from a full-grid Manhattan scan, ranking uses explicit
sorts, and conflicts resolve through an explicit claim map. Costs and IoUs
are composed from the public primitives with the same expression structure so
agreement can be checked bitwise.
"""

from __future__ import annotations

import math

import numpy as np

from bevbox import (
    Box3D,
    CellIndex,
    GridSpec,
    GroundTruth,
    PredictionMap,
    quality_focal,
    regression_sample_loss,
    rotated_iou_exact,
    selection_cost,
)
from bevbox.geometry import BoxParams8


def axis_aligned_iou(b1: Box3D, b2: Box3D) -> float:
    """Closed-form IoU of the parameter-aligned boxes, ignoring yaw."""
    inter = 1.0
    for c1, e1, c2, e2 in (
        (b1.x, b1.l, b2.x, b2.l),
        (b1.y, b1.w, b2.y, b2.w),
        (b1.z, b1.h, b2.z, b2.h),
    ):
        lo = max(c1 - 0.5 * e1, c2 - 0.5 * e2)
        hi = min(c1 + 0.5 * e1, c2 + 0.5 * e2)
        inter *= max(hi - lo, 0.0)
    v1 = b1.l * b1.w * b1.h
    v2 = b2.l * b2.w * b2.h
    return inter / (v1 + v2 - inter)


def polygon_area(points: list[tuple[float, float]]) -> float:
    """Shoelace area of a simple polygon, positive for counterclockwise."""
    total = 0.0
    n = len(points)
    for i in range(n):
        x1, y1 = points[i]
        x2, y2 = points[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return 0.5 * total


def brute_force_assign(
    grid: GridSpec,
    gts: list[GroundTruth],
    preds: PredictionMap,
    r: int,
    lambda_reg: float = 3.0,
    alpha: float = 0.5,
):
    """Reference dynamic cross assignment, structured for clarity over speed.

    Returns ``(positives, requested_k, owner, heatmap, unassigned)`` with the
    same conventions as the production result.
    """
    n_rows, n_cols = grid.n_rows, grid.n_cols
    n_classes = preds.scores.shape[2]

    region_cells: list[list[CellIndex]] = []
    costs: list[dict[CellIndex, float]] = []
    ious: list[dict[CellIndex, float]] = []
    requested_k: list[int] = []
    shortlists: list[list[CellIndex]] = []

    for gt in gts:
        center_col = math.floor((gt.box.x - grid.x_min) / grid.cell_size)
        center_row = math.floor((gt.box.y - grid.y_min) / grid.cell_size)
        center_col = min(max(center_col, 0), n_cols - 1)
        center_row = min(max(center_row, 0), n_rows - 1)

        cells = [
            CellIndex(row, col)
            for row in range(n_rows)
            for col in range(n_cols)
            if abs(row - center_row) + abs(col - center_col) <= r
        ]
        cost_map: dict[CellIndex, float] = {}
        iou_map: dict[CellIndex, float] = {}
        target = BoxParams8.from_box(gt.box)
        for cell in cells:
            pred = BoxParams8.from_array(preds.boxes[cell.row, cell.col])
            score = float(preds.scores[cell.row, cell.col, gt.class_id])
            cost_map[cell] = quality_focal(score, 1.0, 2.0) + lambda_reg * (
                regression_sample_loss(pred, target, alpha)
            )
            iou_map[cell] = rotated_iou_exact(gt.box, pred.to_box())

        iou_sum = 0.0
        for cell in cells:
            iou_sum += iou_map[cell]
        k = max(math.floor(iou_sum), 1)
        if len(cells) > 0:
            k = min(k, len(cells))

        ranked = sorted(cells, key=lambda cell: (cost_map[cell], cell))
        region_cells.append(cells)
        costs.append(cost_map)
        ious.append(iou_map)
        requested_k.append(k)
        shortlists.append(ranked[:k])

    claims: dict[CellIndex, list[tuple[float, int]]] = {}
    for i, shortlist in enumerate(shortlists):
        for cell in shortlist:
            claims.setdefault(cell, []).append((costs[i][cell], i))
    winner: dict[CellIndex, int] = {}
    for cell, claimants in claims.items():
        winner[cell] = min(claimants)[1]

    positives = []
    unassigned = []
    owner = np.full((n_rows, n_cols), -1, dtype=int)
    for i, shortlist in enumerate(shortlists):
        kept = sorted(cell for cell in shortlist if winner[cell] == i)
        positives.append(kept)
        if not kept:
            unassigned.append(i)
        for cell in kept:
            owner[cell.row, cell.col] = i

    heatmap = np.zeros((n_rows, n_cols, n_classes))
    for i, gt in enumerate(gts):
        for cell in region_cells[i]:
            current = heatmap[cell.row, cell.col, gt.class_id]
            if ious[i][cell] > current:
                heatmap[cell.row, cell.col, gt.class_id] = ious[i][cell]
    for i, kept in enumerate(positives):
        for cell in kept:
            heatmap[cell.row, cell.col, gts[i].class_id] = 1.0

    return positives, requested_k, owner, heatmap, unassigned


def scan_readout(
    grid: GridSpec,
    gts: list[GroundTruth],
    preds: PredictionMap,
    r: int,
    lambda_reg: float = 3.0,
    alpha: float = 0.5,
) -> list[float]:
    """Reference IoU readout: for each ground truth, the exact IoU of its
    lowest-(cost, cell) cross-region cell, found by a full-grid scan with
    the scalar cost and IoU functions.
    """
    out = []
    for gt in gts:
        center_col = min(max(math.floor((gt.box.x - grid.x_min) / grid.cell_size), 0),
                         grid.n_cols - 1)
        center_row = min(max(math.floor((gt.box.y - grid.y_min) / grid.cell_size), 0),
                         grid.n_rows - 1)
        best = None
        for row in range(grid.n_rows):
            for col in range(grid.n_cols):
                if abs(row - center_row) + abs(col - center_col) > r:
                    continue
                pred = BoxParams8.from_array(preds.boxes[row, col])
                cost = selection_cost(gt, pred, float(preds.scores[row, col, gt.class_id]),
                                      lambda_reg=lambda_reg, alpha=alpha)
                if best is None or (cost, (row, col)) < best[0]:
                    best = ((cost, (row, col)), pred)
        out.append(rotated_iou_exact(gt.box, best[1].to_box()))
    return out


def random_prediction_map(
    rng: np.random.Generator, grid: GridSpec, n_classes: int
) -> PredictionMap:
    """Random but valid dense predictions for oracle comparisons."""
    rows, cols = grid.n_rows, grid.n_cols
    boxes = np.zeros((rows, cols, 8))
    boxes[..., 0] = rng.uniform(grid.x_min, grid.x_max, (rows, cols))
    boxes[..., 1] = rng.uniform(grid.y_min, grid.y_max, (rows, cols))
    boxes[..., 2] = rng.uniform(-1.0, 2.0, (rows, cols))
    boxes[..., 3:6] = rng.uniform(0.5, 5.0, (rows, cols, 3))
    yaw = rng.uniform(0.0, 2.0 * np.pi, (rows, cols))
    boxes[..., 6] = np.sin(yaw)
    boxes[..., 7] = np.cos(yaw)
    scores = rng.uniform(0.0, 1.0, (rows, cols, n_classes))
    iou_conf = rng.uniform(-1.0, 1.0, (rows, cols))
    return PredictionMap(boxes=boxes, scores=scores, iou_conf=iou_conf)


def random_scene(
    rng: np.random.Generator,
    n_rows: int = 10,
    n_cols: int = 12,
    n_gts: int = 4,
    n_classes: int = 3,
) -> tuple[GridSpec, list[GroundTruth], PredictionMap]:
    """Random grid, ground truths, and predictions for assignment tests."""
    grid = GridSpec(
        x_min=float(rng.uniform(-20.0, 0.0)),
        y_min=float(rng.uniform(-20.0, 0.0)),
        cell_size=float(rng.uniform(0.5, 2.0)),
        n_rows=n_rows,
        n_cols=n_cols,
    )
    gts = []
    for _ in range(n_gts):
        x = float(rng.uniform(grid.x_min, grid.x_max))
        y = float(rng.uniform(grid.y_min, grid.y_max))
        l, w, h = (float(v) for v in rng.uniform(0.6, 5.0, 3))
        gts.append(
            GroundTruth(
                box=Box3D(x, y, float(rng.uniform(-1, 2)), l, w, h,
                          float(rng.uniform(0, 2 * np.pi))),
                class_id=int(rng.integers(0, n_classes)),
            )
        )
    preds = random_prediction_map(rng, grid, n_classes)
    return grid, gts, preds
