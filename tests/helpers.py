"""Independent oracles for cross-checking the package implementations.

The assignment oracle here deliberately avoids the production code path:
candidate regions come from a full-grid Manhattan scan, ranking uses explicit
sorts, and conflicts resolve through an explicit claim map. Costs and IoUs
are composed from the public primitives with the same expression structure so
agreement can be checked bitwise.

The rotated-IoU reference is the textbook per-edge Sutherland-Hodgman
clipper, and the fit reference runs every per-positive loss and update as a
scalar loop, the full quality focal formula on every heatmap entry and a full
decode of the map after every update; all keep the arithmetic of the array
paths they check, so agreement is bitwise too.

The gradient check and the bound audit are referenced by their per-sample
loops: one ``BoxParams8`` pair at a time, a scalar central difference per
channel, and the reports folded sample by sample.  Their pairs come from
per-value samplers: one ``rng.uniform`` or ``rng.normal`` call per value and
one rejection test per pair, on validated ``BoxParams8`` boxes.
"""

from __future__ import annotations

import math

import numpy as np

import bevbox.gradients

from bevbox import (
    AssignerConfig,
    Box3D,
    CellIndex,
    GridSpec,
    GroundTruth,
    InitConfig,
    LossWeights,
    OptimizerConfig,
    PredictionMap,
    aabb_intersection_volume,
    assign_center,
    assign_dcla,
    init_state,
    quality_focal,
    regression_sample_grad,
    regression_sample_loss,
    rotated_iou_exact,
    rwiou_loss,
    rwiou_loss_grad,
    selection_cost,
    smooth_l1_with_grad,
    total_loss,
)
from bevbox.geometry import CLIP_EPS, BoxParams8
from bevbox.gradients import (
    BoundRegimeReport,
    GradientBoundAudit,
    GradientCheckReport,
)
from bevbox.losses import SCORE_EPS


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


def reference_rotated_iou(b1: Box3D, b2: Box3D) -> float:
    """Exact rotated IoU from a textbook per-edge Sutherland-Hodgman clipper.

    Corners, clipping and shoelace areas are written out here, apart from the
    package kernel, with the same arithmetic, so the two agree bitwise.
    """

    def corners(box):
        cos_t = math.cos(box.theta)
        sin_t = math.sin(box.theta)
        dx = 0.5 * box.l
        dy = 0.5 * box.w
        return [
            (box.x + cos_t * ax - sin_t * ay, box.y + sin_t * ax + cos_t * ay)
            for ax, ay in ((dx, dy), (-dx, dy), (-dx, -dy), (dx, -dy))
        ]

    def clip(subject, ax, ay, bx, by):
        ex = bx - ax
        ey = by - ay
        out = []
        n = len(subject)
        for i in range(n):
            px, py = subject[i]
            qx, qy = subject[(i + 1) % n]
            side_p = ex * (py - ay) - ey * (px - ax)
            side_q = ex * (qy - ay) - ey * (qx - ax)
            inside_p = side_p >= -CLIP_EPS
            inside_q = side_q >= -CLIP_EPS
            if inside_p:
                out.append((px, py))
            if inside_p != inside_q and abs(side_p - side_q) > CLIP_EPS:
                t = side_p / (side_p - side_q)
                out.append((px + t * (qx - px), py + t * (qy - py)))
        return out

    lo1, hi1 = b1.z - 0.5 * b1.h, b1.z + 0.5 * b1.h
    lo2, hi2 = b2.z - 0.5 * b2.h, b2.z + 0.5 * b2.h
    dz = min(hi1, hi2) - max(lo1, lo2)
    if dz <= 0.0:
        return 0.0
    poly1 = corners(b1)
    poly2 = corners(b2)
    clipped = list(poly1)
    for i in range(4):
        ax, ay = poly2[i]
        bx, by = poly2[(i + 1) % 4]
        clipped = clip(clipped, ax, ay, bx, by)
        if len(clipped) < 3:
            return 0.0
    area_inter = abs(polygon_area(clipped))
    if area_inter <= 0.0:
        return 0.0
    v_inter = area_inter * dz
    v1 = abs(polygon_area(poly1)) * (hi1 - lo1)
    v2 = abs(polygon_area(poly2)) * (hi2 - lo2)
    return v_inter / (v1 + v2 - v_inter)


def reference_quality_focal_with_grad(p, q, gamma: float = 2.0):
    """Quality focal value and derivative w.r.t. ``p`` by the full formula on
    every entry, with no q == 0 short form."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    p_safe = np.clip(p, SCORE_EPS, 1.0 - SCORE_EPS)
    diff = np.abs(q - p)
    ce = -(q * np.log(p_safe) + (1.0 - q) * np.log1p(-p_safe))
    mod = diff ** gamma
    value = mod * ce
    if gamma > 0.0:
        d_mod = gamma * diff ** (gamma - 1.0) * np.sign(p - q)
    else:
        d_mod = np.zeros_like(p)
    pass_band = (p >= SCORE_EPS) & (p <= 1.0 - SCORE_EPS)
    d_ce = -(q / p_safe - (1.0 - q) / (1.0 - p_safe)) * pass_band
    return value, d_mod * ce + mod * d_ce


CHANNELS = ("x", "y", "z", "l", "w", "h", "s", "c")


def reference_finite_difference_grad(pred: BoxParams8, target: BoxParams8, alpha: float,
                                     loss_fn=rwiou_loss, rel_step: float = 1e-6) -> np.ndarray:
    """Central finite differences of ``loss_fn``, one channel at a time in
    Python floats: the step ``rel_step * max(1, |value|)``, a ``ValueError``
    for a step that leaves the valid range, then two ``loss_fn`` calls."""
    values = pred.as_array().tolist()
    grad = np.empty(8)
    for i, name in enumerate(CHANNELS):
        h = rel_step * max(1.0, abs(values[i]))
        hi = list(values)
        lo = list(values)
        hi[i] += h
        lo[i] -= h
        if not (math.isfinite(hi[i]) and math.isfinite(lo[i])) or (3 <= i < 6 and lo[i] <= 0.0):
            raise ValueError(f"finite-difference step {h!r} takes {name} = {values[i]!r} "
                             f"out of range")
        f_hi = loss_fn(BoxParams8(*hi), target, alpha)
        f_lo = loss_fn(BoxParams8(*lo), target, alpha)
        grad[i] = (f_hi - f_lo) / (hi[i] - lo[i])
    return grad


def scalar_box_params(rng) -> BoxParams8:
    """A sampled target box, one generator call per value."""
    return BoxParams8.from_box(Box3D(
        float(rng.uniform(-5.0, 5.0)), float(rng.uniform(-5.0, 5.0)),
        float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.6, 5.0)),
        float(rng.uniform(0.6, 5.0)), float(rng.uniform(0.6, 5.0)),
        float(rng.uniform(0.0, 2.0 * math.pi)),
    ))


def scalar_perturbed_params(rng, target: BoxParams8) -> BoxParams8:
    """A prediction near ``target``: jittered yaw, shifted center, rescaled
    sizes and noisy sine and cosine channels."""
    yaw = math.atan2(target.s, target.c) + float(rng.normal(0.0, 0.6))
    return BoxParams8(
        target.x + float(rng.uniform(-0.5, 0.5)) * target.l,
        target.y + float(rng.uniform(-0.5, 0.5)) * target.w,
        target.z + float(rng.uniform(-0.5, 0.5)) * target.h,
        target.l * float(rng.uniform(0.6, 1.6)),
        target.w * float(rng.uniform(0.6, 1.6)),
        target.h * float(rng.uniform(0.6, 1.6)),
        math.sin(yaw) + float(rng.normal(0.0, 0.05)),
        math.cos(yaw) + float(rng.normal(0.0, 0.05)),
    )


def reference_margin_ok(pred: BoxParams8, target: BoxParams8, alpha: float,
                        margin: float) -> bool:
    """True when every clamp argument of the loss sits at least ``margin``
    from its breakpoint: face differences, overlaps, sine and cosine
    differences and the channel weights' raw values."""
    for c_p, c_t, e_p, e_t in ((pred.x, target.x, pred.l, target.l),
                               (pred.y, target.y, pred.w, target.w),
                               (pred.z, target.z, pred.h, target.h)):
        lo_p, hi_p = c_p - 0.5 * e_p, c_p + 0.5 * e_p
        lo_t, hi_t = c_t - 0.5 * e_t, c_t + 0.5 * e_t
        if abs(lo_p - lo_t) < margin or abs(hi_p - hi_t) < margin:
            return False
        if min(hi_p, hi_t) - max(lo_p, lo_t) < margin:
            return False
    for delta in (pred.s - target.s, pred.c - target.c):
        if abs(delta) < margin or abs(1.0 - 0.5 * alpha * abs(delta)) < margin:
            return False
    return True


def scalar_overlapping_pair(rng, alpha: float, margin: float):
    """An overlapping (pred, target) pair, each clamp argument at least
    ``margin`` from its breakpoint: draw, then test, until one passes."""
    while True:
        target = scalar_box_params(rng)
        pred = scalar_perturbed_params(rng, target)
        if aabb_intersection_volume(pred, target) <= 0.0:
            continue
        if margin > 0.0 and not reference_margin_ok(pred, target, alpha, margin):
            continue
        return pred, target


def scalar_left_overlap_pair(rng):
    """An overlapping pair with both pred x-faces strictly left of the
    target's; the y and z shifts and the yaw are drawn only once the x faces
    land so."""
    while True:
        target = scalar_box_params(rng)
        l_p = target.l * float(rng.uniform(0.7, 1.3))
        w_p = target.w * float(rng.uniform(0.7, 1.3))
        h_p = target.h * float(rng.uniform(0.7, 1.3))
        shift = 0.5 * (target.l + l_p) * float(rng.uniform(0.05, 0.95))
        x_p = target.x - 0.5 * target.l - 0.5 * l_p + shift
        if not (x_p + 0.5 * l_p < target.x + 0.5 * target.l
                and x_p - 0.5 * l_p < target.x - 0.5 * target.l):
            continue
        y_p = target.y + float(rng.uniform(-0.3, 0.3)) * target.w
        z_p = target.z + float(rng.uniform(-0.3, 0.3)) * target.h
        yaw = math.atan2(target.s, target.c) + float(rng.normal(0.0, 0.6))
        pred = BoxParams8(x_p, y_p, z_p, l_p, w_p, h_p, math.sin(yaw), math.cos(yaw))
        if aabb_intersection_volume(pred, target) <= 0.0:
            continue
        return pred, target


def scalar_center_aligned_pair(rng):
    """A pair sharing the exact center, sizes independently rescaled."""
    target = scalar_box_params(rng)
    yaw = math.atan2(target.s, target.c) + float(rng.normal(0.0, 0.6))
    pred = BoxParams8(
        target.x, target.y, target.z,
        target.l * float(rng.uniform(0.5, 2.0)),
        target.w * float(rng.uniform(0.5, 2.0)),
        target.h * float(rng.uniform(0.5, 2.0)),
        math.sin(yaw), math.cos(yaw),
    )
    return pred, target


def reference_gradient_check(n_samples: int, seed: int, alpha: float,
                             rel_tol: float = 1e-5, abs_floor: float = 1e-8,
                             margin: float = 1e-4) -> GradientCheckReport:
    """``gradient_check`` sample by sample: one drawn pair, its scalar
    ``rwiou_loss_grad`` against :func:`reference_finite_difference_grad`,
    and each component folded into the report in turn."""
    rng = np.random.default_rng(seed)
    max_abs = 0.0
    max_rel = 0.0
    n_fail = 0
    worst: dict = {}
    for _ in range(n_samples):
        pred, target = scalar_overlapping_pair(rng, alpha, margin)
        analytic = rwiou_loss_grad(pred, target, alpha).as_array()
        numeric = reference_finite_difference_grad(pred, target, alpha)
        for i, name in enumerate(CHANNELS):
            err = abs(analytic[i] - numeric[i])
            scale = max(abs(analytic[i]), abs(numeric[i]))
            rel = err / scale if scale > 0.0 else 0.0
            ok = err <= abs_floor or err <= rel_tol * scale
            if not ok:
                n_fail += 1
            if err > max_abs:
                max_abs = err
            if scale > abs_floor and rel > max_rel:
                max_rel = rel
                worst = {
                    "component": name,
                    "analytic": float(analytic[i]),
                    "numeric": float(numeric[i]),
                    "pred": list(pred.as_array()),
                    "target": list(target.as_array()),
                }
    return GradientCheckReport(
        n_samples=n_samples, seed=seed, alpha=alpha, rel_tol=rel_tol, abs_floor=abs_floor,
        max_abs_err=max_abs, max_rel_err=max_rel, n_failures=n_fail, worst=worst,
    )


def reference_gradient_bound_audit(n_samples: int, seed: int, alpha: float) -> GradientBoundAudit:
    """``gradient_bound_audit`` sample by sample: each regime draws one pair,
    takes its scalar ``rwiou_loss_grad`` and folds it into the report.  The
    slack is read from ``bevbox.gradients.BOUND_SLACK`` at call time."""
    slack = bevbox.gradients.BOUND_SLACK
    rng = np.random.default_rng(seed)

    def regime(name, bound, note, draw, measure) -> BoundRegimeReport:
        report = BoundRegimeReport(regime=name, bound=bound, max_observed=0.0,
                                   n_violations=0, n_samples=n_samples, note=note)
        for _ in range(n_samples):
            pred, target = draw()
            observed, limit, unit = measure(rwiou_loss_grad(pred, target, alpha), target)
            report.max_observed = max(report.max_observed, observed / unit)
            if observed > limit + slack:
                report.n_violations += 1
                if len(report.violations) < 5:
                    report.violations.append(
                        {"observed": observed, "bound": limit,
                         "pred": list(pred.as_array()), "target": list(target.as_array())}
                    )
        return report

    regimes = [
        regime("sin_cos_channel", alpha,
               "|d_s| and |d_c| against the constant bound alpha",
               lambda: scalar_overlapping_pair(rng, alpha, 0.0),
               lambda g, t: (max(abs(g.d_s), abs(g.d_c)), alpha, 1.0)),
        regime("center_overlap", 1.0,
               "|d_x| as a fraction of the per-sample bound 2 / l_t",
               lambda: scalar_left_overlap_pair(rng),
               lambda g, t: (abs(g.d_x), 2.0 / t.l, 2.0 / t.l)),
        regime("scale_center_aligned", 1.0,
               "|d_l| as a fraction of the per-sample bound 1 / l_t",
               lambda: scalar_center_aligned_pair(rng),
               lambda g, t: (abs(g.d_l), 1.0 / t.l, 1.0 / t.l)),
    ]
    return GradientBoundAudit(alpha=alpha, seed=seed, n_samples=n_samples, regimes=regimes)


def reference_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid split by sign with boolean-mask gathers, so neither
    branch exponentiates a large positive value."""
    out = np.empty_like(x, dtype=float)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_fit_scene(
    grid: GridSpec,
    gts: list[GroundTruth],
    assigner: AssignerConfig,
    optimizer: OptimizerConfig,
    init: InitConfig,
    weights: LossWeights,
    regression: str,
    init_seed: int,
    n_classes: int,
    state=None,
):
    """Scalar reference of ``fit_scene``: per-positive losses, per-cell update.

    The classification loss runs :func:`reference_quality_focal_with_grad`
    over the whole heatmap, the regression, smooth-L1 and IoU-prediction
    losses loop over positives with the scalar kernels, the update walks the
    positive cells one by one, and every step decodes the whole map through
    ``TrainState.prediction_map``; the assignment is the package's.
    Returns ``(steps, state)`` with ``steps`` as ``(step, l_cls, l_reg,
    l_iou, total, mean_true_iou)`` tuples.
    """
    if state is None:
        state = init_state(grid, gts, n_classes, init, assigner, init_seed)
    else:
        state = state.copy()

    def assign(preds):
        if assigner.kind == "center":
            return assign_center(grid, gts, preds, lambda_reg=weights.lambda_reg,
                                 alpha=weights.alpha)
        return assign_dcla(grid, gts, preds, r=assigner.r,
                           lambda_reg=weights.lambda_reg, alpha=weights.alpha)

    targets = [BoxParams8.from_box(gt.box) for gt in gts]
    log_targets = [
        np.array([gt.box.x, gt.box.y, gt.box.z, math.log(gt.box.l),
                  math.log(gt.box.w), math.log(gt.box.h),
                  math.sin(gt.box.theta), math.cos(gt.box.theta)])
        for gt in gts
    ]
    steps = []
    preds = state.prediction_map()
    assignment = assign(preds)
    for step in range(optimizer.n_steps + 1):
        cls_norm = 1.0 / max(assignment.n_positives, 1)
        focal, focal_grad = reference_quality_focal_with_grad(preds.scores, assignment.heatmap)
        l_cls = float(np.sum(focal) * cls_norm)
        cls_grads = focal_grad * cls_norm
        rows, cols = preds.boxes.shape[:2]
        reg_grads = np.zeros((rows, cols, 8))
        n_pos = assignment.n_positives
        if regression == "rwiou":
            l_reg = 0.0
            if n_pos:
                norm = 1.0 / n_pos
                total = 0.0
                for i, cells in enumerate(assignment.positives):
                    gt_sum = 0.0
                    for cell in cells:
                        pred = preds.params_at(cell)
                        value, grad = regression_sample_grad(pred, targets[i], weights.alpha)
                        gt_sum += value
                        reg_grads[cell.row, cell.col] += grad.as_array() * norm
                    total += gt_sum
                l_reg = total * norm
        else:
            n = max(n_pos, 1)
            l_reg = 0.0
            for i, cells in enumerate(assignment.positives):
                for cell in cells:
                    raw = preds.params_at(cell)
                    pred = np.array([raw.x, raw.y, raw.z, math.log(raw.l),
                                     math.log(raw.w), math.log(raw.h), raw.s, raw.c])
                    values, d_res = smooth_l1_with_grad(pred - log_targets[i])
                    l_reg += float(np.sum(values)) / n
                    d = d_res / n
                    d[3] /= raw.l
                    d[4] /= raw.w
                    d[5] /= raw.h
                    reg_grads[cell.row, cell.col] += d
        # (gt, cost, row, col, iou) of every slot of the assignment's table.
        table = list(zip(assignment.cand_gt.tolist(), assignment.costs.tolist(),
                         assignment.cand_rows.tolist(), assignment.cand_cols.tolist(),
                         assignment.ious.tolist()))
        iou_at = {(i, row, col): iou for i, _, row, col, iou in table}
        iou_grads = np.zeros((rows, cols))
        norm = 1.0 / max(n_pos, 1)
        l_iou = 0.0
        for i, cells in enumerate(assignment.positives):
            for cell in cells:
                u = float(preds.iou_conf[cell.row, cell.col])
                value, grad = smooth_l1_with_grad(u - (2.0 * iou_at[i, cell.row, cell.col] - 1.0))
                l_iou += float(value)
                iou_grads[cell.row, cell.col] += float(grad) * norm
        l_iou *= norm
        report = total_loss(l_cls, l_reg, l_iou, weights=weights, n_positives=n_pos)
        readout = [min(entry[1:] for entry in table if entry[0] == i)[3]
                   for i in range(len(gts))]
        steps.append((step, l_cls, l_reg, l_iou, report.total,
                      float(np.mean(readout)) if gts else 0.0))
        if step == optimizer.n_steps:
            break

        lr = optimizer.step_size
        p = preds.scores
        state.score_logits -= lr * weights.lambda_cls * cls_grads * p * (1.0 - p)
        for i, cells in enumerate(assignment.positives):
            target8 = targets[i].as_array()
            for cell in cells:
                r, c = cell.row, cell.col
                if np.array_equal(preds.boxes[r, c], target8):
                    continue
                g = reg_grads[r, c]
                sizes = np.exp(state.log_size[r, c])
                state.loc[r, c] -= lr * weights.lambda_reg * g[0:3]
                state.log_size[r, c] -= lr * weights.lambda_reg * g[3:6] * sizes
                if state.sin_cos[r, c, 0] != target8[6] or state.sin_cos[r, c, 1] != target8[7]:
                    state.sin_cos[r, c] -= lr * weights.lambda_reg * g[6:8]
        u = preds.iou_conf
        state.iou_conf_raw -= lr * weights.lambda_iou * iou_grads * (1.0 - u * u)
        preds = state.prediction_map()
        assignment = assign(preds)
    return steps, state
