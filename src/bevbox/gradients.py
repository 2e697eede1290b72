"""RWIoU loss on 8-channel boxes with hand-derived exact gradients.

The loss is ``1 - RWIoU`` evaluated directly on :class:`~bevbox.geometry.BoxParams8`;
the rotation weight compares the free sine/cosine channels instead of angles.
:func:`rwiou_loss_grad` carries the full chain rule through every min/max/clamp
branch.  Subgradient conventions at the non-smooth points:

* min/max face selection (intersection and enclosing-box bounds): indicator of
  the strictly active side, 1/2 at an exact tie.  The tie rule averages the two
  one-sided derivatives, so at ``pred == target`` the location and size
  components vanish exactly.
* overlap clamp ``max(gap, 0)``: passthrough iff ``gap >= 0``; an exact face
  touch uses the derivative from the interior of the overlap, pulling the
  boxes together.
* channel kink ``|s_p - s_t|``: ``sign(0) := +1``, so at exact channel equality
  the component is the one-sided value of magnitude ``alpha * omega_c *
  (RWIoU + 1) * V_inter / V_union / 2`` (equal to ``alpha`` when the boxes
  coincide).
* rotation-weight clamp at 0: passthrough iff the raw weight is strictly
  positive.

Everything downstream (finite-difference checking, the gradient-bound audit,
the fitting harness) relies on these exact conventions, so do not "simplify"
them without re-running the audits.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, field

import numpy as np

from ._config import _count, _seed
from .geometry import (
    BoxParams8,
    _FIELDS8,
    _axis_bounds,
    _channel_factor,
    _check_alpha,
    _face_volume,
    _rwiou_volumes,
    center_distance_term,
)

__all__ = [
    "Grad8",
    "GradientCheckReport",
    "BoundRegimeReport",
    "GradientBoundAudit",
    "rwiou_loss",
    "rwiou_loss_grad",
    "center_term_grad",
    "regression_sample_loss",
    "regression_sample_grad",
    "regression_sample_grad_batch",
    "finite_difference_grad",
    "random_overlapping_pair",
    "gradient_check",
    "gradient_bound_audit",
]

FD_REL_TOL = 1e-5
FD_ABS_FLOOR = 1e-8
BOUND_SLACK = 1e-9
BREAKPOINT_MARGIN = 1e-4
_FD_STEP = 1e-6  # relative step of the central finite differences

# Samples per chunk of the gradient check and the bound audit.  A chunk's
# 16 stepped FD rows per sample (256 KiB) and its value pass's temporaries
# (96 KiB each) fit a 2 MiB L2 cache, and memory does not grow with the
# sample count; chunks of 128 to 1024 samples timed alike.
_CHECK_CHUNK = 256


@dataclass(frozen=True)
class Grad8:
    """Gradient of a scalar loss w.r.t. the 8 prediction channels."""

    d_x: float
    d_y: float
    d_z: float
    d_l: float
    d_w: float
    d_h: float
    d_s: float
    d_c: float

    def as_array(self) -> np.ndarray:
        return np.array([self.d_x, self.d_y, self.d_z, self.d_l,
                         self.d_w, self.d_h, self.d_s, self.d_c])

    def __add__(self, other: "Grad8") -> "Grad8":
        return Grad8(
            self.d_x + other.d_x, self.d_y + other.d_y, self.d_z + other.d_z,
            self.d_l + other.d_l, self.d_w + other.d_w, self.d_h + other.d_h,
            self.d_s + other.d_s, self.d_c + other.d_c,
        )

    @classmethod
    def zeros(cls) -> "Grad8":
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def _omega_factor(delta: float, alpha: float) -> tuple[float, float]:
    """Clamped channel weight ``max(1 - alpha * |delta| / 2, 0)`` and its derivative.

    The derivative is w.r.t. the prediction channel, with ``sign(0) := +1``
    and zero once the clamp is active.
    """
    w = _channel_factor(delta, alpha)
    if w == 0.0:
        return 0.0, 0.0
    sign = 1.0 if delta >= 0.0 else -1.0
    return w, -0.5 * alpha * sign


def _face_weights(lo_p: float, hi_p: float, lo_t: float, hi_t: float):
    """Weights ``(w_lo, w_hi)`` of the prediction's faces in the overlap bounds.

    The overlap runs from ``max(lo_p, lo_t)`` to ``min(hi_p, hi_t)``; a
    prediction face weighs 1 when it alone is the bound, 0 when the target's
    face is, and 1/2 at an exact tie.  The enclosing bounds ``min(lo)`` and
    ``max(hi)`` weigh the faces by the complements.
    """
    w_lo = 1.0 if lo_p > lo_t else 0.0 if lo_p < lo_t else 0.5
    w_hi = 1.0 if hi_p < hi_t else 0.0 if hi_p > hi_t else 0.5
    return w_lo, w_hi


def _interval_terms(lo_p: float, hi_p: float, lo_t: float, hi_t: float):
    """Per-axis overlap width and its derivatives w.r.t. pred center and size.

    Takes the prediction's and the target's faces on one axis and returns
    ``(width, d_center, d_size)``, where ``width`` is the clamped overlap of
    the two face intervals.
    """
    gap = min(hi_p, hi_t) - max(lo_p, lo_t)
    if gap >= 0.0:
        w_lo, w_hi = _face_weights(lo_p, hi_p, lo_t, hi_t)
        return gap, w_hi - w_lo, 0.5 * (w_hi + w_lo)
    return 0.0, 0.0, 0.0


def rwiou_loss(pred: BoxParams8, target: BoxParams8, alpha: float) -> float:
    """``1 - RWIoU`` on 8-channel boxes; 0 exactly when ``pred == target``.

    The sine/cosine channels of ``pred`` are unconstrained; the target's are
    expected to come from :meth:`BoxParams8.from_box`.  Disjoint axis-aligned
    footprints give the maximal loss 1.
    """
    alpha = _check_alpha(alpha)
    v_weighted, v_union = _rwiou_volumes(
        _axis_bounds(pred), _axis_bounds(target),
        pred.s - target.s, pred.c - target.c, alpha,
    )
    return 1.0 - v_weighted / v_union


def rwiou_loss_grad(pred: BoxParams8, target: BoxParams8, alpha: float) -> Grad8:
    """Exact gradient of :func:`rwiou_loss` w.r.t. the prediction channels.

    Matches central finite differences away from the clamp breakpoints; at
    breakpoints it follows the conventions in the module docstring.  Disjoint
    footprints give the all-zero gradient; at ``pred == target`` only the
    sine/cosine components are non-zero (one-sided, magnitude ``alpha``).
    """
    alpha = _check_alpha(alpha)
    axes = []
    v_inter = 1.0
    bounds_p, bounds_t = _axis_bounds(pred), _axis_bounds(target)
    for (lo_p, hi_p), (lo_t, hi_t) in zip(bounds_p, bounds_t):
        width, d_center, d_size = _interval_terms(lo_p, hi_p, lo_t, hi_t)
        axes.append((width, d_center, d_size, hi_p - lo_p))
        v_inter *= width
    w_s, dw_s = _omega_factor(pred.s - target.s, alpha)
    w_c, dw_c = _omega_factor(pred.c - target.c, alpha)
    omega = w_s * w_c
    v_weighted = omega * v_inter
    v_union = _face_volume(bounds_p) + _face_volume(bounds_t) - v_weighted
    inv_u2 = 1.0 / (v_union * v_union)
    common = (v_union + v_weighted) * inv_u2

    grads = []
    for i, (width, d_center, d_size, _) in enumerate(axes):
        other = 1.0
        other_pred = 1.0
        for j, (width_j, _, _, pred_width_j) in enumerate(axes):
            if j != i:
                other *= width_j
                other_pred *= pred_width_j
        # d loss / d center: only V_weighted moves.
        g_center = -omega * d_center * other * common
        # d loss / d size: V_weighted and the prediction volume both move.
        g_size = -omega * d_size * other * common + v_weighted * other_pred * inv_u2
        grads.append((g_center, g_size))

    g_s = -dw_s * w_c * v_inter * common
    g_c = -w_s * dw_c * v_inter * common
    (gx, gl), (gy, gw), (gz, gh) = grads
    return Grad8(gx, gy, gz, gl, gw, gh, g_s, g_c)


def center_term_grad(pred: BoxParams8, target: BoxParams8) -> tuple[float, Grad8]:
    """Value and gradient of :func:`~bevbox.geometry.center_distance_term`.

    Gradient is w.r.t. the prediction channels; the sine/cosine components
    are identically zero.  Smoothly zero when the centers coincide.
    """
    deltas = (pred.x - target.x, pred.y - target.y, pred.z - target.z)
    d2 = deltas[0] ** 2 + deltas[1] ** 2 + deltas[2] ** 2
    extents = []
    g2 = 0.0
    for (lo_p, hi_p), (lo_t, hi_t) in zip(_axis_bounds(pred), _axis_bounds(target)):
        w_lo, w_hi = _face_weights(lo_p, hi_p, lo_t, hi_t)
        extent = max(hi_p, hi_t) - min(lo_p, lo_t)
        extents.append((extent, 1.0 - w_hi, 1.0 - w_lo))
        g2 += extent * extent
    term = d2 / g2
    inv_g2 = 1.0 / g2
    scale = d2 * inv_g2 * inv_g2
    out = []
    for (extent, w_hi, w_lo), delta in zip(extents, deltas):
        dg2_dc = 2.0 * extent * (w_hi - w_lo)
        dg2_de = extent * (w_hi + w_lo)
        out.append((2.0 * delta * inv_g2 - scale * dg2_dc, -scale * dg2_de))
    (gx, gl), (gy, gw), (gz, gh) = out
    return term, Grad8(gx, gy, gz, gl, gw, gh, 0.0, 0.0)


def regression_sample_loss(pred: BoxParams8, target: BoxParams8, alpha: float) -> float:
    """Per-sample regression loss: RWIoU loss plus the center-distance term."""
    return rwiou_loss(pred, target, alpha) + center_distance_term(pred, target)


def regression_sample_grad(pred: BoxParams8, target: BoxParams8, alpha: float) -> tuple[float, Grad8]:
    """Value and exact gradient of :func:`regression_sample_loss`."""
    term, g_center = center_term_grad(pred, target)
    value = rwiou_loss(pred, target, alpha) + term
    return value, rwiou_loss_grad(pred, target, alpha) + g_center


# Per axis i, the other two axes (j, k) in the scalar loop's order.
_OTHER_J = np.array([1, 0, 0])
_OTHER_K = np.array([2, 2, 1])


class _RwiouRows:
    """:func:`rwiou_loss` and :func:`rwiou_loss_grad` over ``(N, 8)``
    prediction and target channel rows, one pass each.

    Building it is the value pass: faces, clamped overlap widths, channel
    weights and volumes, ending in ``loss`` ``(N,)``.  :meth:`grad` is the
    gradient pass over those quantities.  Every quantity follows the scalar
    functions' operations in the same order and the tie and clamp rules
    become ``np.where`` selections, so each row equals the scalar result
    bitwise.
    """

    def __init__(self, pred: np.ndarray, target: np.ndarray, alpha: float) -> None:
        self.alpha = alpha
        self.c_p, self.c_t = c_p, c_t = pred[:, 0:3], target[:, 0:3]
        half_p, half_t = 0.5 * pred[:, 3:6], 0.5 * target[:, 3:6]
        self.lo_p, self.hi_p = lo_p, hi_p = c_p - half_p, c_p + half_p
        self.lo_t, self.hi_t = lo_t, hi_t = c_t - half_t, c_t + half_t
        # A prediction face strictly outside the target's is not the overlap bound.
        self.lo_out, self.hi_out = lo_out, hi_out = lo_p < lo_t, hi_p > hi_t
        gap = np.where(hi_out, hi_t, hi_p) - np.where(lo_out, lo_t, lo_p)
        self.overlap = overlap = gap >= 0.0
        self.width = width = np.where(overlap, gap, 0.0)
        self.pred_width = pred_width = hi_p - lo_p
        target_width = hi_t - lo_t
        self.v_inter = v_inter = width[:, 0] * width[:, 1] * width[:, 2]
        v_p = pred_width[:, 0] * pred_width[:, 1] * pred_width[:, 2]
        v_t = target_width[:, 0] * target_width[:, 1] * target_width[:, 2]
        self.delta = delta = pred[:, 6:8] - target[:, 6:8]
        raw = 1.0 - 0.5 * alpha * np.abs(delta)
        self.unclamped = unclamped = raw > 0.0
        w = np.where(unclamped, raw, 0.0)
        self.w_s, self.w_c = w_s, w_c = w[:, 0], w[:, 1]
        self.omega = omega = w_s * w_c
        self.v_weighted = v_weighted = omega * v_inter
        self.v_union = v_union = v_p + v_t - v_weighted
        self.loss = 1.0 - v_weighted / v_union

    def grad(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The gradient rows as ``(d_xyz (N, 3), d_lwh (N, 3), d_s (N,),
        d_c (N,))``; keeps the face flags and tie weights (``lo_in``,
        ``hi_in``, ``w_lo``, ``w_hi``) for the center term."""
        # Each prediction face lies strictly inside the target's, strictly
        # outside it, or exactly on it (neither flag set: the tie rules).
        self.lo_in = lo_in = self.lo_p > self.lo_t
        self.hi_in = hi_in = self.hi_p < self.hi_t
        self.w_lo = w_lo = np.where(lo_in, 1.0, np.where(self.lo_out, 0.0, 0.5))
        self.w_hi = w_hi = np.where(hi_in, 1.0, np.where(self.hi_out, 0.0, 0.5))
        overlap, width, pred_width = self.overlap, self.width, self.pred_width
        d_center = np.where(overlap, w_hi - w_lo, 0.0)
        d_size = np.where(overlap, 0.5 * (w_hi + w_lo), 0.0)
        dw = np.where(self.unclamped,
                      -0.5 * self.alpha * np.where(self.delta >= 0.0, 1.0, -1.0), 0.0)
        v_inter, v_weighted, v_union = self.v_inter, self.v_weighted, self.v_union
        inv_u2 = 1.0 / (v_union * v_union)
        common = (v_union + v_weighted) * inv_u2
        other = width[:, _OTHER_J] * width[:, _OTHER_K]
        other_pred = pred_width[:, _OTHER_J] * pred_width[:, _OTHER_K]
        neg_omega = -self.omega[:, None]
        g_loc = neg_omega * d_center * other * common[:, None]
        g_size = (neg_omega * d_size * other * common[:, None]
                  + v_weighted[:, None] * other_pred * inv_u2[:, None])
        g_s = -dw[:, 0] * self.w_c * v_inter * common
        g_c = -self.w_s * dw[:, 1] * v_inter * common
        return g_loc, g_size, g_s, g_c


def regression_sample_grad_batch(pred: np.ndarray, target: np.ndarray,
                                 alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`regression_sample_grad` over ``(N, 8)`` channel arrays.

    Returns ``(values (N,), grads (N, 8))``: the :class:`_RwiouRows` passes
    plus the center-distance term, whose squares go through
    ``np.float_power`` (libm ``pow``, like Python's ``**``), so each row
    equals the scalar result bitwise.
    """
    rows = _RwiouRows(pred, target, _check_alpha(alpha))
    g_loc, g_size, g_s, g_c = rows.grad()

    # Center-distance term: center_term_grad, whose enclosing-bound weights
    # are the complements of the intersection's.
    deltas = rows.c_p - rows.c_t
    sq = np.float_power(deltas, 2)
    d2 = sq[:, 0] + sq[:, 1] + sq[:, 2]
    e_hi = 1.0 - rows.w_hi
    e_lo = 1.0 - rows.w_lo
    extent = (np.where(rows.hi_in, rows.hi_t, rows.hi_p)
              - np.where(rows.lo_in, rows.lo_t, rows.lo_p))
    ext2 = extent * extent
    g2 = ext2[:, 0] + ext2[:, 1] + ext2[:, 2]
    inv_g2 = (1.0 / g2)[:, None]
    scale = d2[:, None] * inv_g2 * inv_g2
    c_loc = 2.0 * deltas * inv_g2 - scale * (2.0 * extent * (e_hi - e_lo))
    c_size = -scale * (extent * (e_hi + e_lo))

    grads = np.empty_like(pred)
    grads[:, 0:3] = g_loc + c_loc
    grads[:, 3:6] = g_size + c_size
    # Grad8.__add__ adds the center term's zero s/c components.
    grads[:, 6] = g_s + 0.0
    grads[:, 7] = g_c + 0.0
    return rows.loss + d2 / g2, grads


def _fd_rows(rows: np.ndarray, losses, rel_step: float) -> np.ndarray:
    """Central finite differences over ``(N, 8)`` channel rows.

    The step is relative to each value's magnitude with a floor of the
    relative step itself.  A step that leaves the valid range (a non-finite
    value, an overflow included, or a size at or below 0) or vanishes in
    rounding raises ``ValueError`` naming the first offending row's channel.
    Otherwise ``losses`` maps the ``(16 * N, 8)`` stepped rows, row after
    row and for each channel in order its step up and then down, to their
    loss values.
    """
    with np.errstate(over="ignore"):
        h = rel_step * np.maximum(1.0, np.abs(rows))
        hi, lo = rows + h, rows - h
    bad = ~(np.isfinite(hi) & np.isfinite(lo)) | (hi == lo)
    bad[:, 3:6] |= lo[:, 3:6] <= 0.0
    if bad.any():
        row, i = np.argwhere(bad)[0]
        raise ValueError(f"finite-difference step {float(h[row, i])!r} takes {_FIELDS8[i]} = "
                         f"{float(rows[row, i])!r} out of range")
    n = len(rows)
    stepped = np.repeat(rows, 16, axis=0).reshape(n, 8, 2, 8)
    diagonal = np.arange(8)
    stepped[:, diagonal, 0, diagonal] = hi
    stepped[:, diagonal, 1, diagonal] = lo
    f = np.asarray(losses(stepped.reshape(16 * n, 8)), dtype=float).reshape(n, 8, 2)
    return (f[:, :, 0] - f[:, :, 1]) / (hi - lo)


def finite_difference_grad(pred: BoxParams8, target: BoxParams8, alpha: float,
                           loss_fn=rwiou_loss, rel_step: float = _FD_STEP) -> np.ndarray:
    """Central finite differences of ``loss_fn(pred, target, alpha)``.

    The step is relative to each parameter's magnitude with a floor of the
    relative step itself, far smaller than any size the checks draw, so
    perturbed sizes stay positive.  Each perturbed box differs from the
    checked ``pred`` in one channel, so only that channel is checked; a step
    that leaves the valid range (an overflow included) or vanishes in
    rounding raises ``ValueError``.  ``loss_fn`` is called on the boxes
    stepped up and then down, channel by channel.
    """
    def losses(stepped: np.ndarray) -> list:
        return [loss_fn(BoxParams8._unchecked(row), target, alpha) for row in stepped.tolist()]

    return _fd_rows(pred.as_array()[None, :], losses, rel_step)[0]


def _ranges(*bounds: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """The ``(low, high - low)`` arrays of uniform ``(low, high)`` ranges."""
    low, high = np.array(bounds).T
    return low, high - low


def _map_uniform(ranges: tuple[np.ndarray, np.ndarray], u: np.ndarray) -> np.ndarray:
    """Draws ``u`` of ``rng.random`` mapped to ``ranges`` by the generator's
    ``uniform`` formula ``low + (high - low) * u``, so each equals a
    ``rng.uniform(low, high)`` call taking the same draw."""
    low, span = ranges
    return low + span * u


def _map_normal(scale, z: np.ndarray) -> np.ndarray:
    """Draws ``z`` of ``rng.standard_normal`` mapped by the generator's
    ``normal`` formula ``loc + scale * z`` with ``loc = 0.0``, so each equals
    a ``rng.normal(0.0, scale)`` call taking the same draw."""
    return 0.0 + scale * z


# Center, size and yaw ranges of a sampled target box.
_BOX = _ranges((-5.0, 5.0), (-5.0, 5.0), (-2.0, 2.0),
               (0.6, 5.0), (0.6, 5.0), (0.6, 5.0), (0.0, 2.0 * math.pi))
# A perturbed prediction's center shifts and size factors.
_PERTURB = _ranges(*[(-0.5, 0.5)] * 3, *[(0.6, 1.6)] * 3)
# A sliding prediction's size factors and x shift, then its y and z shifts.
_SLIDE = _ranges(*[(0.7, 1.3)] * 3, (0.05, 0.95))
_SLIDE_YZ = _ranges((-0.3, 0.3), (-0.3, 0.3))
# A center-aligned prediction's size factors.
_RESCALE = _ranges(*[(0.5, 2.0)] * 3)


def _targets(u7: np.ndarray) -> np.ndarray:
    """Target rows from ``(n, 7)`` draws of the :data:`_BOX` ranges; the
    yaw's sine and cosine are ``math``'s."""
    box = _map_uniform(_BOX, u7)
    theta = box[:, 6].tolist()
    targets = np.empty((len(u7), 8))
    targets[:, 0:6] = box[:, 0:6]
    targets[:, 6] = list(map(math.sin, theta))
    targets[:, 7] = list(map(math.cos, theta))
    return targets


def _sin_cos_near(targets: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``(n, 2)`` sine and cosine of the targets' yaws ``atan2(s, c)`` plus
    normal draws ``z`` of scale 0.6, all by ``math``: ``np.arctan2`` can
    differ from ``math.atan2`` in the last bit."""
    yaw = (np.array(list(map(math.atan2, targets[:, 6].tolist(), targets[:, 7].tolist())))
           + _map_normal(0.6, z)).tolist()
    return np.array([list(map(math.sin, yaw)), list(map(math.cos, yaw))]).T


def _check_margin(margin: float) -> float:
    # Past 2/3 at alpha 1, _overlapping_rows would reject every attempt.
    margin = float(margin)
    if not (0.0 <= margin <= 0.5):
        raise ValueError(f"margin must lie in [0, 0.5], got {margin!r}")
    return margin


def _overlapping_rows(rng: np.random.Generator, n: int, alpha: float,
                      margin: float) -> tuple[np.ndarray, np.ndarray]:
    """``n`` (pred, target) pairs with overlapping axis-aligned footprints,
    as ``(n, 8)`` prediction and target rows.

    An attempt draws the target's seven uniforms, the yaw jitter's normal,
    six uniforms of the prediction's center shifts and size factors, and
    its sine and cosine noise's two normals.  The ranges make the
    footprints overlap: a center moves by less than half the target's size
    and a size factor is at least 0.6, so each axis overlaps by at least
    0.3 of the target's size.  An attempt is rejected only when a clamp
    argument sits less than ``margin`` from its breakpoint, which makes
    central finite differences trustworthy on the pair.  A round draws as
    many attempts as pairs are still needed, one generator call per kind
    and attempt in that order, and keeps the accepted ones in attempt
    order: the pairs and generator state of drawing pair by pair.
    """
    u7, n1, u6, n2 = np.empty((n, 7)), np.empty((n, 1)), np.empty((n, 6)), np.empty((n, 2))
    preds, targets = [], []
    need = n
    while need:
        for row in zip(u7[:need], n1[:need], u6[:need], n2[:need]):
            rng.random(out=row[0])
            rng.standard_normal(out=row[1])
            rng.random(out=row[2])
            rng.standard_normal(out=row[3])
        target = _targets(u7[:need])
        f = _map_uniform(_PERTURB, u6[:need])
        pred = np.empty_like(target)
        pred[:, 0:3] = target[:, 0:3] + f[:, 0:3] * target[:, 3:6]
        pred[:, 3:6] = target[:, 3:6] * f[:, 3:6]
        pred[:, 6:8] = _sin_cos_near(target, n1[:need, 0]) + _map_normal(0.05, n2[:need])
        half_p, half_t = 0.5 * pred[:, 3:6], 0.5 * target[:, 3:6]
        lo_p, hi_p = pred[:, 0:3] - half_p, pred[:, 0:3] + half_p
        lo_t, hi_t = target[:, 0:3] - half_t, target[:, 0:3] + half_t
        gap = np.minimum(hi_p, hi_t) - np.maximum(lo_p, lo_t)
        delta = pred[:, 6:8] - target[:, 6:8]
        # A margin of 0 rejects nothing: no overlap or magnitude is < 0.
        near = ((np.abs(lo_p - lo_t) < margin) | (np.abs(hi_p - hi_t) < margin)
                | (gap < margin)).any(axis=1)
        near |= ((np.abs(delta) < margin)
                 | (np.abs(1.0 - 0.5 * alpha * np.abs(delta)) < margin)).any(axis=1)
        preds.append(pred[~near])
        targets.append(target[~near])
        need -= int(np.count_nonzero(~near))
    return np.concatenate(preds), np.concatenate(targets)


def random_overlapping_pair(rng: np.random.Generator, alpha: float = 0.5,
                            margin: float = 0.0) -> tuple[BoxParams8, BoxParams8]:
    """Random (pred, target) pair with overlapping axis-aligned footprints.

    The footprints overlap by the sampling ranges.  With ``margin > 0`` the
    pair also keeps every clamp argument at least ``margin`` away from its
    breakpoint, which is what makes central finite differences trustworthy
    on it, for ``margin`` in [0, 0.5]; attempts that miss it are drawn again.
    ``alpha`` must lie in [0, 1], as for every loss.
    """
    preds, targets = _overlapping_rows(rng, 1, _check_alpha(alpha), _check_margin(margin))
    return BoxParams8._unchecked(preds[0].tolist()), BoxParams8._unchecked(targets[0].tolist())


def _left_overlap_rows(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` overlapping pairs with both pred x-faces strictly left of the
    target's, as ``(n, 8)`` prediction and target rows.

    This is the configuration in which the center-gradient bound
    ``2 / l_t`` is stated, with the prediction sliding in along x.  An
    attempt draws eleven uniforms: the target's seven, the prediction's
    size factors and its x shift.  Only an attempt whose x faces land as
    stated draws its y and z shifts and its yaw jitter.  That test, the
    only rejection, runs attempt by attempt until ``n`` attempts pass it.
    The ranges make the footprints overlap: in x by the shift, at least
    0.025 of ``l_t + l_p``; in y and z, where a center moves by at most 0.3
    of the target's size and a size factor is at least 0.7, by at least
    0.55 of the target's size.
    """
    u11, u2, n1 = np.empty((n, 11)), np.empty((n, 2)), np.empty((n, 1))
    # The x-face test's ranges as Python floats: the target's x and l, the
    # prediction's l factor and its x shift.
    (x_low, l_low), (x_span, l_span) = _BOX[0][[0, 3]].tolist(), _BOX[1][[0, 3]].tolist()
    (f_low, shift_low), (f_span, shift_span) = _SLIDE[0][[0, 3]].tolist(), _SLIDE[1][[0, 3]].tolist()
    x_p = []
    while len(x_p) < n:
        k = len(x_p)
        rng.random(out=u11[k])
        u_x, _, _, u_l, _, _, _, u_f, _, _, u_shift = u11[k].tolist()
        t_x, t_l = x_low + x_span * u_x, l_low + l_span * u_l
        l_p = t_l * (f_low + f_span * u_f)
        # Slide in from the left: right face inside, left face outside.
        x = t_x - 0.5 * t_l - 0.5 * l_p + 0.5 * (t_l + l_p) * (shift_low + shift_span * u_shift)
        if x + 0.5 * l_p < t_x + 0.5 * t_l and x - 0.5 * l_p < t_x - 0.5 * t_l:
            rng.random(out=u2[k])
            rng.standard_normal(out=n1[k])
            x_p.append(x)
    target = _targets(u11[:, 0:7])
    pred = np.empty_like(target)
    pred[:, 0] = x_p
    pred[:, 1:3] = target[:, 1:3] + _map_uniform(_SLIDE_YZ, u2) * target[:, 4:6]
    pred[:, 3:6] = target[:, 3:6] * _map_uniform(_SLIDE, u11[:, 7:11])[:, 0:3]
    pred[:, 6:8] = _sin_cos_near(target, n1[:, 0])
    return pred, target


def _center_aligned_rows(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` pairs sharing the exact center, sizes independently rescaled,
    as ``(n, 8)`` prediction and target rows."""
    u7, n1, u3 = np.empty((n, 7)), np.empty((n, 1)), np.empty((n, 3))
    for row in zip(u7, n1, u3):
        rng.random(out=row[0])
        rng.standard_normal(out=row[1])
        rng.random(out=row[2])
    target = _targets(u7)
    pred = target.copy()
    pred[:, 3:6] = target[:, 3:6] * _map_uniform(_RESCALE, u3)
    pred[:, 6:8] = _sin_cos_near(target, n1[:, 0])
    return pred, target


_grad_channels = operator.attrgetter(*(f"d_{name}" for name in _FIELDS8))


def _chunk_sizes(n_samples: int):
    """The sizes of the ``_CHECK_CHUNK``-sample chunks of ``n_samples``."""
    for start in range(0, n_samples, _CHECK_CHUNK):
        yield min(_CHECK_CHUNK, n_samples - start)


@dataclass
class GradientCheckReport:
    """Finite-difference agreement summary for :func:`rwiou_loss_grad`."""

    n_samples: int
    seed: int
    alpha: float
    rel_tol: float
    abs_floor: float
    max_abs_err: float
    max_rel_err: float
    n_failures: int
    worst: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.n_failures == 0

    def to_json_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def gradient_check(n_samples: int = 10_000, seed: int = 0, alpha: float = 0.5,
                   rel_tol: float = FD_REL_TOL, abs_floor: float = FD_ABS_FLOOR,
                   margin: float = BREAKPOINT_MARGIN) -> GradientCheckReport:
    """Compare :func:`rwiou_loss_grad` against central finite differences.

    Pairs are sampled overlapping and away from every breakpoint by
    ``margin``, which must lie in [0, 0.5].  A component fails when it
    differs from the numerical value by more than ``abs_floor`` absolutely
    and ``rel_tol`` relatively.

    The pairs are drawn and checked in chunks of ``_CHECK_CHUNK``.  The
    analytic side is the scalar :func:`rwiou_loss_grad` of each pair; the
    numerical side steps the chunk's rows and evaluates every stepped row's
    loss in one :class:`_RwiouRows` value pass, which runs no gradient code.
    The report folds chunk by chunk as it would sample by sample: the first
    largest relative error, in sample then channel order, is ``worst``.
    """
    alpha = _check_alpha(alpha)
    margin = _check_margin(margin)
    n_samples = _count(n_samples, "n_samples")
    _seed(seed, "seed")
    rng = np.random.default_rng(seed)
    max_abs = 0.0
    max_rel = 0.0
    n_fail = 0
    worst: dict = {}
    for n in _chunk_sizes(n_samples):
        preds, targets = _overlapping_rows(rng, n, alpha, margin)
        analytic = np.array([
            _grad_channels(rwiou_loss_grad(BoxParams8._unchecked(p), BoxParams8._unchecked(t), alpha))
            for p, t in zip(preds.tolist(), targets.tolist())])
        stepped_targets = np.repeat(targets, 16, axis=0)
        numeric = _fd_rows(preds, lambda stepped: _RwiouRows(stepped, stepped_targets, alpha).loss,
                           _FD_STEP)
        err = np.abs(analytic - numeric)
        scale = np.maximum(np.abs(analytic), np.abs(numeric))
        rel = np.divide(err, scale, out=np.zeros_like(err), where=scale > 0.0)
        n_fail += int(np.count_nonzero(~((err <= abs_floor) | (err <= rel_tol * scale))))
        max_abs = max(max_abs, float(err.max()))
        # The first largest eligible error, sample by sample then by channel.
        ranked = np.where(scale > abs_floor, rel, 0.0)
        k, i = divmod(int(np.argmax(ranked)), 8)
        if ranked[k, i] > max_rel:
            max_rel = float(ranked[k, i])
            worst = {
                "component": _FIELDS8[i],
                "analytic": float(analytic[k, i]),
                "numeric": float(numeric[k, i]),
                "pred": list(preds[k]),
                "target": list(targets[k]),
            }
    return GradientCheckReport(
        n_samples=n_samples, seed=seed, alpha=alpha,
        rel_tol=rel_tol, abs_floor=abs_floor,
        max_abs_err=max_abs, max_rel_err=max_rel, n_failures=n_fail, worst=worst,
    )


@dataclass
class BoundRegimeReport:
    """Observed gradient magnitudes against one analytic bound regime.

    For regimes whose bound varies per sample (center: ``2 / l_t``, scale:
    ``1 / l_t``) the ``bound`` field is the normalized value 1.0 and
    ``max_observed`` is the largest observed ratio to the per-sample bound;
    violations are still checked against the raw per-sample bound plus the
    absolute slack.
    """

    regime: str
    bound: float
    max_observed: float
    n_violations: int
    n_samples: int
    violations: list = field(default_factory=list)
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.n_violations == 0

    def to_json_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


@dataclass
class GradientBoundAudit:
    """Bound-audit bundle; failing audits are reports, not exceptions."""

    alpha: float
    seed: int
    n_samples: int
    regimes: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.regimes)

    def to_json_dict(self) -> dict:
        return {**asdict(self), "regimes": [r.to_json_dict() for r in self.regimes],
                "passed": self.passed}


def gradient_bound_audit(n_samples: int = 10_000, seed: int = 0,
                         alpha: float = 0.5) -> GradientBoundAudit:
    """Audit the analytic gradient against its closed-form magnitude bounds.

    Three regimes, each sampled ``n_samples`` times:

    * ``sin_cos_channel``: random overlapping pairs; ``|d_s|`` and ``|d_c|``
      never exceed ``alpha`` (with ``alpha = 0`` they are identically 0).
    * ``center_overlap``: the prediction slides into the target along x with
      both x-faces left of the target's; ``|d_x| <= 2 / l_t``.
    * ``scale_center_aligned``: centers coincide; ``|d_l| <= 1 / l_t``.

    Violations beyond the absolute slack ``1e-9`` are collected (first five
    offending samples per regime) and the audit reports failure instead of
    raising.

    Each regime draws its pairs in chunks of ``_CHECK_CHUNK`` and takes the
    chunk's gradients from one :class:`_RwiouRows` gradient pass, the
    kernel the fit runs, bitwise :func:`rwiou_loss_grad` per row; the
    closed-form bounds share no code with it.
    """
    alpha = _check_alpha(alpha)
    n_samples = _count(n_samples, "n_samples")
    _seed(seed, "seed")
    rng = np.random.default_rng(seed)

    def regime(name, bound, note, draw, measure) -> BoundRegimeReport:
        # measure(grads, targets) gives the observed magnitudes, their
        # per-sample bounds, and the units in which max_observed reports them.
        report = BoundRegimeReport(regime=name, bound=bound, max_observed=0.0,
                                   n_violations=0, n_samples=n_samples, note=note)
        for n in _chunk_sizes(n_samples):
            preds, targets = draw(n)
            grads = np.column_stack(_RwiouRows(preds, targets, alpha).grad())
            observed, limit, unit = measure(grads, targets)
            report.max_observed = max(report.max_observed, float((observed / unit).max()))
            over = np.flatnonzero(observed > limit + BOUND_SLACK)
            report.n_violations += len(over)
            for k in over[:5 - len(report.violations)]:
                report.violations.append(
                    {"observed": float(observed[k]), "bound": float(limit[k]),
                     "pred": list(preds[k]), "target": list(targets[k])}
                )
        return report

    # One generator feeds the three regimes, so their order fixes every draw.
    regimes = [
        regime("sin_cos_channel", alpha,
               "|d_s| and |d_c| against the constant bound alpha",
               lambda n: _overlapping_rows(rng, n, alpha, 0.0),
               lambda g, t: (np.maximum(np.abs(g[:, 6]), np.abs(g[:, 7])),
                             np.full(len(t), alpha), 1.0)),
        regime("center_overlap", 1.0,
               "|d_x| as a fraction of the per-sample bound 2 / l_t",
               lambda n: _left_overlap_rows(rng, n),
               lambda g, t: (np.abs(g[:, 0]), 2.0 / t[:, 3], 2.0 / t[:, 3])),
        regime("scale_center_aligned", 1.0,
               "|d_l| as a fraction of the per-sample bound 1 / l_t",
               lambda n: _center_aligned_rows(rng, n),
               lambda g, t: (np.abs(g[:, 3]), 1.0 / t[:, 3], 1.0 / t[:, 3])),
    ]
    return GradientBoundAudit(alpha=alpha, seed=seed, n_samples=n_samples,
                              regimes=regimes)
