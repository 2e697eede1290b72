"""Oriented 3D box primitives and overlap metrics on a BEV grid setting.

Boxes are upright cuboids: a center, three sizes, and a single yaw rotation
in the x-y (bird's-eye-view) plane.  Three overlap metrics live here:

* :func:`rwiou`, the rotation-weighted IoU: an axis-aligned volume ratio
  whose intersection is scaled by a sine/cosine rotation-agreement weight.
  It is cheap, differentiable almost everywhere, and degrades to the plain
  axis-aligned IoU when the weight is switched off (``alpha = 0``).
* :func:`rotated_iou_exact`, the true rotated IoU: convex polygon clipping
  in the BEV plane times the vertical extent overlap.
* :func:`mc_iou_oracle`, a seeded Monte-Carlo estimate of the true IoU with
  a binomial standard error, kept as an independent cross-check on the
  clipping path.

:func:`center_distance_term` is the normalized squared center distance used
as a regression regularizer alongside the RWIoU loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Box3D",
    "BoxParams8",
    "MCIoUEstimate",
    "volume",
    "aabb_intersection_volume",
    "rotation_weight",
    "rwiou",
    "rotated_iou_exact",
    "mc_iou_oracle",
    "center_distance_term",
]

# Tolerance for the polygon clipper's cross-product side tests; vertices this
# close to an edge count as inside so collinear chains never produce slivers.
CLIP_EPS = 1e-12

# Monte Carlo samples drawn and tested per chunk: consecutive chunks from one
# generator are the same stream as a single draw, at a fraction of the memory.
MC_CHUNK = 65_536

_FIELDS7 = ("x", "y", "z", "l", "w", "h", "theta")
_FIELDS8 = ("x", "y", "z", "l", "w", "h", "s", "c")


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    return alpha


@dataclass(frozen=True)
class Box3D:
    """Oriented 3D box: center ``(x, y, z)``, sizes ``(l, w, h)``, yaw ``theta``.

    ``theta`` is the rotation in the BEV plane and is stored unnormalized;
    every metric in this module is invariant under ``theta -> theta + 2*pi``.
    Sizes must be strictly positive and all fields finite.
    """

    x: float
    y: float
    z: float
    l: float
    w: float
    h: float
    theta: float

    def __post_init__(self) -> None:
        for name in _FIELDS7:
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"Box3D.{name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, float(value))
        for name in ("l", "w", "h"):
            if getattr(self, name) <= 0.0:
                raise ValueError(
                    f"Box3D.{name} must be strictly positive, got {getattr(self, name)!r}"
                )

    def as_tuple(self) -> tuple[float, ...]:
        return (self.x, self.y, self.z, self.l, self.w, self.h, self.theta)

    def bev_corners(self) -> list[tuple[float, float]]:
        """Counter-clockwise BEV footprint corners."""
        return _bev_corners(self.x, self.y, self.l, self.w, self.theta)


def _bev_corners(x: float, y: float, l: float, w: float,
                 theta: float) -> list[tuple[float, float]]:
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    dx = 0.5 * l
    dy = 0.5 * w
    return [
        (x + cos_t * ax - sin_t * ay, y + sin_t * ax + cos_t * ay)
        for ax, ay in ((dx, dy), (-dx, dy), (-dx, -dy), (dx, -dy))
    ]


@dataclass(frozen=True)
class BoxParams8:
    """8-channel box parameterization with free sine/cosine yaw channels.

    Predictions carry ``s`` and ``c`` as unconstrained reals; targets built
    via :meth:`from_box` satisfy ``s**2 + c**2 == 1`` up to float rounding.
    """

    x: float
    y: float
    z: float
    l: float
    w: float
    h: float
    s: float
    c: float

    def __post_init__(self) -> None:
        for name in _FIELDS8:
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"BoxParams8.{name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, float(value))
        for name in ("l", "w", "h"):
            if getattr(self, name) <= 0.0:
                raise ValueError(
                    f"BoxParams8.{name} must be strictly positive, got {getattr(self, name)!r}"
                )

    @classmethod
    def from_box(cls, box: Box3D) -> "BoxParams8":
        return cls(
            box.x, box.y, box.z, box.l, box.w, box.h,
            math.sin(box.theta), math.cos(box.theta),
        )

    @classmethod
    def from_array(cls, values) -> "BoxParams8":
        x, y, z, l, w, h, s, c = (float(v) for v in values)
        return cls(x, y, z, l, w, h, s, c)

    def to_box(self) -> Box3D:
        """Decode to a concrete box; yaw is ``atan2(s, c)``."""
        return Box3D(self.x, self.y, self.z, self.l, self.w, self.h,
                     math.atan2(self.s, self.c))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z, self.l, self.w, self.h, self.s, self.c])


def _target_rows(boxes) -> np.ndarray:
    """``(N, 8)`` array of the :meth:`BoxParams8.from_box` channels of each box.

    The regression target rows of a scene's ground truths, built without a
    :class:`BoxParams8` per box.
    """
    return np.array([
        (b.x, b.y, b.z, b.l, b.w, b.h, math.sin(b.theta), math.cos(b.theta))
        for b in boxes
    ]).reshape(-1, 8)


@dataclass(frozen=True)
class MCIoUEstimate:
    """Monte-Carlo IoU estimate with its binomial standard error."""

    value: float
    stderr: float
    n_samples: int
    n_union_hits: int
    n_inter_hits: int
    seed: int


def volume(box: Box3D | BoxParams8) -> float:
    """Box volume ``l * w * h``."""
    return box.l * box.w * box.h


def _axis_bounds(box: Box3D | BoxParams8):
    """Per-axis (lo, hi) face coordinates of the axis-aligned footprint."""
    return (
        (box.x - 0.5 * box.l, box.x + 0.5 * box.l),
        (box.y - 0.5 * box.w, box.y + 0.5 * box.w),
        (box.z - 0.5 * box.h, box.z + 0.5 * box.h),
    )


def _face_volume(bounds) -> float:
    """Volume from the face differences of an :func:`_axis_bounds` triple."""
    (x_lo, x_hi), (y_lo, y_hi), (z_lo, z_hi) = bounds
    return (x_hi - x_lo) * (y_hi - y_lo) * (z_hi - z_lo)


def _overlap_volume(bounds1, bounds2) -> float:
    """Overlap volume of two :func:`_axis_bounds` triples; 0.0 once an axis
    has no positive overlap."""
    v = 1.0
    for (lo1, hi1), (lo2, hi2) in zip(bounds1, bounds2):
        width = min(hi1, hi2) - max(lo1, lo2)
        if width <= 0.0:
            return 0.0
        v *= width
    return v


def aabb_intersection_volume(b1: Box3D | BoxParams8, b2: Box3D | BoxParams8) -> float:
    """Axis-aligned intersection volume; rotations are ignored entirely."""
    return _overlap_volume(_axis_bounds(b1), _axis_bounds(b2))


def _channel_factor(delta: float, alpha: float) -> float:
    """Weight ``max(1 - alpha * |delta| / 2, 0)`` of one sine or cosine channel."""
    return max(1.0 - 0.5 * alpha * abs(delta), 0.0)


def rotation_weight(theta1: float, theta2: float, alpha: float) -> float:
    """Rotation-agreement weight ``omega`` in ``[(1 - alpha)**2, 1]``.

    The sine and cosine of the two yaws are compared separately, each
    contributing a factor ``1 - alpha * |diff| / 2``; ``alpha = 0`` switches
    the weighting off (``omega == 1`` exactly).
    """
    alpha = _check_alpha(alpha)
    return (_channel_factor(math.sin(theta2) - math.sin(theta1), alpha)
            * _channel_factor(math.cos(theta2) - math.cos(theta1), alpha))


def _rwiou_volumes(bounds1, bounds2, d_s: float, d_c: float,
                   alpha: float) -> tuple[float, float]:
    """``(v_weighted, v_union)`` of the RWIoU of two :func:`_axis_bounds` triples.

    ``d_s`` and ``d_c`` are the differences of the two boxes' sine and
    cosine channels.  The volumes come from the same face coordinates as the
    intersection so that identical boxes cancel exactly in the union.
    """
    omega = _channel_factor(d_s, alpha) * _channel_factor(d_c, alpha)
    v_weighted = omega * _overlap_volume(bounds1, bounds2)
    return v_weighted, _face_volume(bounds1) + _face_volume(bounds2) - v_weighted


def rwiou(b1: Box3D, b2: Box3D, alpha: float) -> float:
    """Rotation-weighted IoU in ``[0, 1]``.

    The intersection is the axis-aligned footprint overlap scaled by
    :func:`rotation_weight`; the union subtracts the weighted intersection
    from the two box volumes.  Identical boxes score exactly 1.0, disjoint
    footprints exactly 0.0, and ``alpha = 0`` reproduces the axis-aligned
    IoU.
    """
    alpha = _check_alpha(alpha)
    v_weighted, v_union = _rwiou_volumes(
        _axis_bounds(b1), _axis_bounds(b2),
        math.sin(b1.theta) - math.sin(b2.theta),
        math.cos(b1.theta) - math.cos(b2.theta), alpha,
    )
    if v_weighted <= 0.0:
        return 0.0
    return v_weighted / v_union


def _shoelace_area(poly: list[tuple[float, float]]) -> float:
    """Signed shoelace area; positive for counter-clockwise polygons."""
    if len(poly) < 3:
        return 0.0
    total = 0.0
    for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]):
        total += x1 * y2 - x2 * y1
    return 0.5 * total


def convex_intersection_area(poly1, poly2) -> float:
    """Intersection area of two convex counter-clockwise polygons.

    Sutherland-Hodgman: ``poly1`` is clipped to the left of each directed
    edge of ``poly2`` in turn.  Each vertex's side of the edge is computed
    once; an edge with every vertex inside leaves the polygon as it is.
    """
    clipped = list(poly1)
    if len(clipped) < 3:
        return 0.0
    for (ax, ay), (bx, by) in zip(poly2, poly2[1:] + poly2[:1]):
        ex = bx - ax
        ey = by - ay
        sides = [ex * (py - ay) - ey * (px - ax) for px, py in clipped]
        if min(sides) >= -CLIP_EPS:
            continue
        out = []
        n = len(clipped)
        for i in range(n):
            j = i + 1 if i + 1 < n else 0
            side_p = sides[i]
            side_q = sides[j]
            inside_p = side_p >= -CLIP_EPS
            if inside_p:
                out.append(clipped[i])
            # Insert the crossing point only on a genuine side change;
            # near-zero denominators mean a collinear segment already
            # handled above.
            if inside_p != (side_q >= -CLIP_EPS) and abs(side_p - side_q) > CLIP_EPS:
                (px, py), (qx, qy) = clipped[i], clipped[j]
                t = side_p / (side_p - side_q)
                out.append((px + t * (qx - px), py + t * (qy - py)))
        if len(out) < 3:
            return 0.0
        clipped = out
    return abs(_shoelace_area(clipped))


def rotated_iou_exact(b1: Box3D, b2: Box3D) -> float:
    """Exact rotated 3D IoU: BEV polygon clipping times vertical overlap.

    Each footprint is a convex quadrilateral; their intersection area comes
    from Sutherland-Hodgman clipping with a small cross-product tolerance.
    Box volumes entering the union reuse the same shoelace areas and the same
    z-face differences as the intersection so that identical boxes score
    exactly 1.0.
    """
    return _iou_footprints(_footprint(*b1.as_tuple()), _footprint(*b2.as_tuple()))


def _footprint(x: float, y: float, z: float, l: float, w: float, h: float,
               theta: float) -> tuple[list[tuple[float, float]], float, float, float]:
    """``(corners, z_lo, z_hi, volume)`` of a box given as raw floats.

    The input of :func:`_iou_footprints`; callers holding many boxes build
    each footprint once and skip the :class:`Box3D` validation of values
    already checked elsewhere.
    """
    corners = _bev_corners(x, y, l, w, theta)
    z_lo = z - 0.5 * h
    z_hi = z + 0.5 * h
    return corners, z_lo, z_hi, abs(_shoelace_area(corners)) * (z_hi - z_lo)


def _iou_footprints(f1, f2) -> float:
    """The exact rotated IoU of two :func:`_footprint` tuples."""
    poly1, lo1, hi1, v1 = f1
    poly2, lo2, hi2, v2 = f2
    dz = min(hi1, hi2) - max(lo1, lo2)
    if dz <= 0.0:
        return 0.0
    area_inter = convex_intersection_area(poly1, poly2)
    if area_inter <= 0.0:
        return 0.0
    v_inter = area_inter * dz
    v_union = v1 + v2 - v_inter
    return v_inter / v_union


def _points_inside(box: Box3D, pts: np.ndarray) -> np.ndarray:
    """Vectorized membership test for an oriented box (inclusive faces)."""
    dx = pts[:, 0] - box.x
    dy = pts[:, 1] - box.y
    dz = pts[:, 2] - box.z
    cos_t = math.cos(box.theta)
    sin_t = math.sin(box.theta)
    u = cos_t * dx + sin_t * dy
    v = -sin_t * dx + cos_t * dy
    return (
        (np.abs(u) <= 0.5 * box.l)
        & (np.abs(v) <= 0.5 * box.w)
        & (np.abs(dz) <= 0.5 * box.h)
    )


def mc_iou_oracle(b1: Box3D, b2: Box3D, n_samples: int = 1_000_000, seed: int = 0) -> MCIoUEstimate:
    """Monte-Carlo rotated-IoU estimate over the joint axis-aligned region.

    Samples are drawn uniformly in the AABB enclosing both rotated boxes.
    Conditioned on landing in the union, a sample lies in the intersection
    with probability exactly IoU, so the estimate is ``n_inter / n_union``
    with binomial standard error ``sqrt(p * (1 - p) / n_union)``.

    Parameters
    ----------
    n_samples:
        Total samples; at least 10_000 (below that the error bar is not
        meaningful for the comparisons this oracle backs).
    seed:
        Seed for ``numpy.random.default_rng``; fixed seed, fixed estimate.
    """
    n_samples = int(n_samples)
    if n_samples < 10_000:
        raise ValueError(f"n_samples must be >= 10000, got {n_samples}")
    xs: list[float] = []
    ys: list[float] = []
    for box in (b1, b2):
        for cx, cy in box.bev_corners():
            xs.append(cx)
            ys.append(cy)
    zs = [b1.z - 0.5 * b1.h, b1.z + 0.5 * b1.h, b2.z - 0.5 * b2.h, b2.z + 0.5 * b2.h]
    lo = np.array([min(xs), min(ys), min(zs)])
    hi = np.array([max(xs), max(ys), max(zs)])
    rng = np.random.default_rng(seed)
    n_union = 0
    n_inter = 0
    for start in range(0, n_samples, MC_CHUNK):
        pts = rng.uniform(lo, hi, size=(min(MC_CHUNK, n_samples - start), 3))
        in1 = _points_inside(b1, pts)
        in2 = _points_inside(b2, pts)
        n_union += int(np.count_nonzero(in1 | in2))
        n_inter += int(np.count_nonzero(in1 & in2))
    if n_union == 0:
        return MCIoUEstimate(0.0, 0.0, n_samples, 0, 0, seed)
    p = n_inter / n_union
    stderr = math.sqrt(p * (1.0 - p) / n_union)
    return MCIoUEstimate(p, stderr, n_samples, n_union, n_inter, seed)


def center_distance_term(b1: Box3D | BoxParams8, b2: Box3D | BoxParams8) -> float:
    """Squared center distance over the squared enclosing-box diagonal.

    The denominator is the diagonal of the minimal axis-aligned box holding
    both boxes, so the value lies in ``[0, 1)`` and is 0 exactly when the
    centers coincide.  Unlike the overlap metrics this term is informative
    for disjoint boxes, which is why it accompanies the RWIoU loss in
    regression.
    """
    d2 = (b1.x - b2.x) ** 2 + (b1.y - b2.y) ** 2 + (b1.z - b2.z) ** 2
    g2 = 0.0
    for (lo1, hi1), (lo2, hi2) in zip(_axis_bounds(b1), _axis_bounds(b2)):
        extent = max(hi1, hi2) - min(lo1, lo2)
        g2 += extent * extent
    return d2 / g2
