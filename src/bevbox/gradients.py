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
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    Box3D,
    BoxParams8,
    _axis_bounds,
    _channel_factor,
    _check_alpha,
    _face_volume,
    _rwiou_volumes,
    aabb_intersection_volume,
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


def regression_sample_grad_batch(pred: np.ndarray, target: np.ndarray,
                                 alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`regression_sample_grad` over ``(N, 8)`` channel arrays.

    Returns ``(values (N,), grads (N, 8))``.  Every quantity follows the
    scalar functions' operations in the same order, the tie and clamp rules
    become ``np.where`` selections, and squares go through ``np.float_power``
    (libm ``pow``, like Python's ``**``), so each row equals the scalar
    result bitwise.
    """
    alpha = _check_alpha(alpha)
    c_p, c_t = pred[:, 0:3], target[:, 0:3]
    half_p, half_t = 0.5 * pred[:, 3:6], 0.5 * target[:, 3:6]
    lo_p, hi_p = c_p - half_p, c_p + half_p
    lo_t, hi_t = c_t - half_t, c_t + half_t
    # Each prediction face lies strictly inside the target's, strictly
    # outside it, or exactly on it (neither flag set: the tie rules).
    lo_in, lo_out = lo_p > lo_t, lo_p < lo_t
    hi_in, hi_out = hi_p < hi_t, hi_p > hi_t

    # RWIoU loss and gradient: _interval_terms per axis, then rwiou_loss_grad.
    w_lo = np.where(lo_in, 1.0, np.where(lo_out, 0.0, 0.5))
    w_hi = np.where(hi_in, 1.0, np.where(hi_out, 0.0, 0.5))
    gap = np.where(hi_out, hi_t, hi_p) - np.where(lo_out, lo_t, lo_p)
    overlap = gap >= 0.0
    width = np.where(overlap, gap, 0.0)
    d_center = np.where(overlap, w_hi - w_lo, 0.0)
    d_size = np.where(overlap, 0.5 * (w_hi + w_lo), 0.0)
    pred_width = hi_p - lo_p
    target_width = hi_t - lo_t
    v_inter = width[:, 0] * width[:, 1] * width[:, 2]
    v_p = pred_width[:, 0] * pred_width[:, 1] * pred_width[:, 2]
    v_t = target_width[:, 0] * target_width[:, 1] * target_width[:, 2]
    delta = pred[:, 6:8] - target[:, 6:8]
    raw = 1.0 - 0.5 * alpha * np.abs(delta)
    unclamped = raw > 0.0
    w = np.where(unclamped, raw, 0.0)
    dw = np.where(unclamped, -0.5 * alpha * np.where(delta >= 0.0, 1.0, -1.0), 0.0)
    w_s, w_c = w[:, 0], w[:, 1]
    omega = w_s * w_c
    v_weighted = omega * v_inter
    v_union = v_p + v_t - v_weighted
    inv_u2 = 1.0 / (v_union * v_union)
    common = (v_union + v_weighted) * inv_u2
    other = width[:, _OTHER_J] * width[:, _OTHER_K]
    other_pred = pred_width[:, _OTHER_J] * pred_width[:, _OTHER_K]
    neg_omega = -omega[:, None]
    g_loc = neg_omega * d_center * other * common[:, None]
    g_size = (neg_omega * d_size * other * common[:, None]
              + v_weighted[:, None] * other_pred * inv_u2[:, None])
    g_s = -dw[:, 0] * w_c * v_inter * common
    g_c = -w_s * dw[:, 1] * v_inter * common

    # Center-distance term: center_term_grad, whose enclosing-bound weights
    # are the complements of the intersection's.
    deltas = c_p - c_t
    sq = np.float_power(deltas, 2)
    d2 = sq[:, 0] + sq[:, 1] + sq[:, 2]
    e_hi = 1.0 - w_hi
    e_lo = 1.0 - w_lo
    extent = np.where(hi_in, hi_t, hi_p) - np.where(lo_in, lo_t, lo_p)
    ext2 = extent * extent
    g2 = ext2[:, 0] + ext2[:, 1] + ext2[:, 2]
    inv_g2 = (1.0 / g2)[:, None]
    scale = d2[:, None] * inv_g2 * inv_g2
    c_loc = 2.0 * deltas * inv_g2 - scale * (2.0 * extent * (e_hi - e_lo))
    c_size = -scale * (extent * (e_hi + e_lo))

    values = 1.0 - v_weighted / v_union + d2 / g2
    grads = np.empty_like(pred)
    grads[:, 0:3] = g_loc + c_loc
    grads[:, 3:6] = g_size + c_size
    # Grad8.__add__ adds the center term's zero s/c components.
    grads[:, 6] = g_s + 0.0
    grads[:, 7] = g_c + 0.0
    return values, grads


_PARAM_NAMES = ("x", "y", "z", "l", "w", "h", "s", "c")


def finite_difference_grad(pred: BoxParams8, target: BoxParams8, alpha: float,
                           loss_fn=rwiou_loss, rel_step: float = 1e-6) -> np.ndarray:
    """Central finite differences of ``loss_fn(pred, target, alpha)``.

    The step is relative to each parameter's magnitude with a floor of the
    relative step itself, far smaller than any size the checks draw, so
    perturbed sizes stay positive.  Each perturbed box differs from the
    checked ``pred`` in one channel, so only that channel is checked; a step
    that leaves the valid range (an overflow included: the steps are taken
    in Python floats, which overflow to inf silently) raises ``ValueError``.
    """
    values = pred.as_array().tolist()
    grad = np.empty(8)
    for i, name in enumerate(_PARAM_NAMES):
        h = rel_step * max(1.0, abs(values[i]))
        hi = list(values)
        lo = list(values)
        hi[i] += h
        lo[i] -= h
        if not (math.isfinite(hi[i]) and math.isfinite(lo[i])) or (3 <= i < 6 and lo[i] <= 0.0):
            raise ValueError(f"finite-difference step {h!r} takes {name} = {values[i]!r} "
                             f"out of range")
        f_hi = loss_fn(BoxParams8._unchecked(hi), target, alpha)
        f_lo = loss_fn(BoxParams8._unchecked(lo), target, alpha)
        grad[i] = (f_hi - f_lo) / (hi[i] - lo[i])
    return grad


def _random_box_params(rng: np.random.Generator) -> BoxParams8:
    box = Box3D(
        float(rng.uniform(-5.0, 5.0)),
        float(rng.uniform(-5.0, 5.0)),
        float(rng.uniform(-2.0, 2.0)),
        float(rng.uniform(0.6, 5.0)),
        float(rng.uniform(0.6, 5.0)),
        float(rng.uniform(0.6, 5.0)),
        float(rng.uniform(0.0, 2.0 * math.pi)),
    )
    return BoxParams8.from_box(box)


def _perturbed_params(rng: np.random.Generator, target: BoxParams8) -> BoxParams8:
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


def _margin_ok(pred: BoxParams8, target: BoxParams8, alpha: float, margin: float) -> bool:
    """True when every clamp argument sits at least ``margin`` from its breakpoint."""
    for (lo_p, hi_p), (lo_t, hi_t) in zip(_axis_bounds(pred), _axis_bounds(target)):
        if abs(lo_p - lo_t) < margin or abs(hi_p - hi_t) < margin:
            return False
        if min(hi_p, hi_t) - max(lo_p, lo_t) < margin:
            return False
    for delta in (pred.s - target.s, pred.c - target.c):
        if abs(delta) < margin:
            return False
        if abs(1.0 - 0.5 * alpha * abs(delta)) < margin:
            return False
    return True


def random_overlapping_pair(rng: np.random.Generator, alpha: float = 0.5,
                            margin: float = 0.0) -> tuple[BoxParams8, BoxParams8]:
    """Random (pred, target) pair with overlapping axis-aligned footprints.

    With ``margin > 0`` the pair additionally keeps every clamp argument at
    least ``margin`` away from its breakpoint, which is what makes central
    finite differences trustworthy on it.
    """
    while True:
        target = _random_box_params(rng)
        pred = _perturbed_params(rng, target)
        if aabb_intersection_volume(pred, target) <= 0.0:
            continue
        if margin > 0.0 and not _margin_ok(pred, target, alpha, margin):
            continue
        return pred, target


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
        return {
            "n_samples": self.n_samples,
            "seed": self.seed,
            "alpha": self.alpha,
            "rel_tol": self.rel_tol,
            "abs_floor": self.abs_floor,
            "max_abs_err": self.max_abs_err,
            "max_rel_err": self.max_rel_err,
            "n_failures": self.n_failures,
            "worst": self.worst,
            "passed": self.passed,
        }


def gradient_check(n_samples: int = 10_000, seed: int = 0, alpha: float = 0.5,
                   rel_tol: float = FD_REL_TOL, abs_floor: float = FD_ABS_FLOOR,
                   margin: float = BREAKPOINT_MARGIN) -> GradientCheckReport:
    """Compare :func:`rwiou_loss_grad` against central finite differences.

    Pairs are sampled overlapping and away from every breakpoint by
    ``margin``.  A component fails when it differs from the numerical value
    by more than ``abs_floor`` absolutely and ``rel_tol`` relatively.
    """
    alpha = _check_alpha(alpha)
    rng = np.random.default_rng(seed)
    max_abs = 0.0
    max_rel = 0.0
    n_fail = 0
    worst: dict = {}
    for _ in range(int(n_samples)):
        pred, target = random_overlapping_pair(rng, alpha=alpha, margin=margin)
        analytic = rwiou_loss_grad(pred, target, alpha).as_array()
        numeric = finite_difference_grad(pred, target, alpha)
        for i, name in enumerate(_PARAM_NAMES):
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
        n_samples=int(n_samples), seed=seed, alpha=alpha,
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
        return {
            "regime": self.regime,
            "bound": self.bound,
            "max_observed": self.max_observed,
            "n_violations": self.n_violations,
            "n_samples": self.n_samples,
            "violations": self.violations,
            "note": self.note,
            "passed": self.passed,
        }


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
        return {
            "alpha": self.alpha,
            "seed": self.seed,
            "n_samples": self.n_samples,
            "regimes": [r.to_json_dict() for r in self.regimes],
            "passed": self.passed,
        }


def _left_overlap_pair(rng: np.random.Generator) -> tuple[BoxParams8, BoxParams8]:
    """Overlapping pair with both pred x-faces strictly left of the target's.

    This is the configuration in which the center-gradient bound
    ``2 / l_t`` is stated, with the prediction sliding in along x.
    """
    while True:
        target = _random_box_params(rng)
        l_p = target.l * float(rng.uniform(0.7, 1.3))
        w_p = target.w * float(rng.uniform(0.7, 1.3))
        h_p = target.h * float(rng.uniform(0.7, 1.3))
        # Slide in from the left: right face inside, left face outside.
        shift = 0.5 * (target.l + l_p) * float(rng.uniform(0.05, 0.95))
        x_p = target.x - 0.5 * target.l - 0.5 * l_p + shift
        if not (x_p + 0.5 * l_p < target.x + 0.5 * target.l
                and x_p - 0.5 * l_p < target.x - 0.5 * target.l):
            continue
        y_p = target.y + float(rng.uniform(-0.3, 0.3)) * target.w
        z_p = target.z + float(rng.uniform(-0.3, 0.3)) * target.h
        yaw = math.atan2(target.s, target.c) + float(rng.normal(0.0, 0.6))
        pred = BoxParams8(x_p, y_p, z_p, l_p, w_p, h_p, math.sin(yaw), math.cos(yaw))
        # The x faces overlap by construction; this checks y and z.
        if aabb_intersection_volume(pred, target) <= 0.0:
            continue
        return pred, target


def _center_aligned_pair(rng: np.random.Generator) -> tuple[BoxParams8, BoxParams8]:
    """Pair sharing the exact center, sizes independently rescaled."""
    target = _random_box_params(rng)
    yaw = math.atan2(target.s, target.c) + float(rng.normal(0.0, 0.6))
    pred = BoxParams8(
        target.x, target.y, target.z,
        target.l * float(rng.uniform(0.5, 2.0)),
        target.w * float(rng.uniform(0.5, 2.0)),
        target.h * float(rng.uniform(0.5, 2.0)),
        math.sin(yaw), math.cos(yaw),
    )
    return pred, target


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
    """
    alpha = _check_alpha(alpha)
    n_samples = int(n_samples)
    rng = np.random.default_rng(seed)

    def regime(name, bound, note, draw, measure) -> BoundRegimeReport:
        # measure(g, target) gives the observed magnitude, its per-sample
        # bound, and the unit in which max_observed reports it.
        report = BoundRegimeReport(regime=name, bound=bound, max_observed=0.0,
                                   n_violations=0, n_samples=n_samples, note=note)
        for _ in range(n_samples):
            pred, target = draw()
            observed, limit, unit = measure(rwiou_loss_grad(pred, target, alpha), target)
            report.max_observed = max(report.max_observed, observed / unit)
            if observed > limit + BOUND_SLACK:
                report.n_violations += 1
                if len(report.violations) < 5:
                    report.violations.append(
                        {"observed": observed, "bound": limit,
                         "pred": list(pred.as_array()), "target": list(target.as_array())}
                    )
        return report

    # One generator feeds the three regimes, so their order fixes every draw.
    regimes = [
        regime("sin_cos_channel", alpha,
               "|d_s| and |d_c| against the constant bound alpha",
               lambda: random_overlapping_pair(rng, alpha=alpha),
               lambda g, t: (max(abs(g.d_s), abs(g.d_c)), alpha, 1.0)),
        regime("center_overlap", 1.0,
               "|d_x| as a fraction of the per-sample bound 2 / l_t",
               lambda: _left_overlap_pair(rng),
               lambda g, t: (abs(g.d_x), 2.0 / t.l, 2.0 / t.l)),
        regime("scale_center_aligned", 1.0,
               "|d_l| as a fraction of the per-sample bound 1 / l_t",
               lambda: _center_aligned_pair(rng),
               lambda g, t: (abs(g.d_l), 1.0 / t.l, 1.0 / t.l)),
    ]
    return GradientBoundAudit(alpha=alpha, seed=seed, n_samples=n_samples,
                              regimes=regimes)
