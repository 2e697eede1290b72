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
from typing import NamedTuple, Sequence

import numpy as np

from ._config import _count, _seed

__all__ = [
    "Box3D",
    "BoxParams8",
    "MCIoUEstimate",
    "volume",
    "aabb_intersection_volume",
    "rotation_weight",
    "rwiou",
    "convex_intersection_area",
    "rotated_iou_exact",
    "mc_iou_oracle",
    "center_distance_term",
]

# Tolerance for the polygon clipper's cross-product side tests; vertices this
# close to an edge count as inside so collinear chains never produce slivers.
CLIP_EPS = 1e-12

# Monte Carlo samples drawn and tested per chunk: consecutive chunks from one
# generator are the same stream as a single draw, and a chunk's coordinate
# rows and temporaries (128 KiB each) stay in cache.
MC_CHUNK = 16_384

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

    @classmethod
    def _unchecked(cls, values: list[float]) -> "BoxParams8":
        """A box from eight Python floats the caller knows to be finite with
        positive sizes, built without :meth:`__post_init__`'s checks."""
        box = object.__new__(cls)
        box.__dict__.update(zip(_FIELDS8, values))
        return box

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


def _log_sizes(sizes: np.ndarray) -> np.ndarray:
    """``math.log`` of ``(N, 3)`` size rows; ``np.log`` differs in the last bit on some."""
    return np.array([math.log(v) for v in sizes.ravel().tolist()]).reshape(-1, 3)


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


def _check_volume(box: Box3D, context: str = "") -> None:
    """Reject a box whose volume ``l * w * h`` overflows or underflows (as
    it does whenever its footprint ``l * w`` does): its overlaps would come
    out wrong instead of failing.  A ``context`` prefixes the message."""
    if not 0.0 < volume(box) < math.inf:
        message = f"box volume l*w*h = {volume(box)!r} must be finite and positive"
        raise ValueError(f"{context}: {message}" if context else message)


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


# The batched clipper's arithmetic is the scalar one's as long as nothing
# overflows and no NaN appears: then numpy and Python floats round alike and
# every comparison agrees.  Inputs below this bound guarantee that (four clip
# passes grow a coordinate at most 5**4-fold, and the products of two such
# coordinates and a z face stay far below the float range); rows past it, or
# not finite, take the scalar path.
_BATCH_BOUND = 1e75

# A clip pass at most doubles a polygon, so four passes on a quad leave at
# most 64 vertices.  _NEXT[i, n] is vertex i's successor in an n-gon; a
# padding slot i >= n is its own successor, so it never crosses.
_MAX_VERTICES = 64
_NEXT = np.tile(np.arange(_MAX_VERTICES)[:, None], (1, _MAX_VERTICES + 1))
for _n in range(1, _MAX_VERTICES + 1):
    _NEXT[:_n, _n] = np.roll(np.arange(_n), -1)
_NEXT4 = _NEXT[:4, 4].copy()
# _bev_corners' (x + cos * ax) - sin * ay and (y + sin * ax) - cos * -ay for
# (ax, ay) = (_SIGN_A * dx, _SIGN_B[0] * dy): a sign flip commutes with
# rounding.
_SIGN_A = np.array([1.0, -1.0, -1.0, 1.0])[None, :, None]
_SIGN_B = np.outer([1.0, -1.0], [1.0, 1.0, -1.0, -1.0])[:, :, None]
_SIGN_Z = np.array([-1.0, 1.0])[:, None]
# Below this many rows the batch's fixed cost per call (some 170 numpy calls)
# outweighs the scalar clipper's cost per pair.  Measured inside fits: a
# pass of 18-row calls ran 3-4% slower batched, one of 27- to 89-row calls
# 20% faster, though isolated calls already favour the batch at 16 rows.
_BATCH_MIN_ROWS = 24


class _Quads(NamedTuple):
    """Box footprints, the subjects of :func:`_iou_quads`.

    Per box ``j``, its :func:`_footprint` tuple ``feet[j]`` and the same
    values as arrays: the corners ``x + 1j * y`` as ``corners[:, j]``, the
    z faces as ``(-z_lo, z_hi)`` in ``faces[:, j]``, the volume, and whether
    every value lies below ``_BATCH_BOUND`` (and whether all do).
    """

    feet: list
    corners: np.ndarray
    faces: np.ndarray
    volume: np.ndarray
    bounded: np.ndarray
    all_bounded: bool

    @classmethod
    def of(cls, boxes: Sequence[Box3D]) -> "_Quads":
        feet = [_footprint(*box.as_tuple()) for box in boxes]
        corners = np.array([[complex(x, y) for x, y in foot[0]] for foot in feet],
                           dtype=complex).reshape(-1, 4).T.copy()
        faces = np.array([(-lo, hi) for _, lo, hi, _ in feet]).reshape(-1, 2).T.copy()
        values = np.concatenate([corners.real, corners.imag, faces])
        bounded = np.all(np.abs(values) < _BATCH_BOUND, axis=0)
        return cls(feet, corners, faces, np.array([foot[3] for foot in feet]), bounded,
                   bool(bounded.all()))


def _iou_quads(quads: _Quads, index: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``_iou_footprints(quads.feet[index[k]], _footprint(x, y, z, l, w, h,
    math.atan2(s, c)))`` for every row ``k`` ``(x, y, z, l, w, h, s, c)`` of
    ``rows``: by :func:`_iou_quads_batch` from ``_BATCH_MIN_ROWS`` rows on,
    else pair by pair.  A live pair whose union is 0.0 raises the scalar's
    ``ZeroDivisionError``."""
    if len(rows) < _BATCH_MIN_ROWS:
        return _iou_quads_scalar(quads, index, rows)
    return _iou_quads_batch(quads, index, rows)


def _iou_quads_scalar(quads: _Quads, index: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """:func:`_iou_quads` pair by pair."""
    return np.array([
        _iou_footprints(quads.feet[j], _footprint(x, y, z, l, w, h, math.atan2(s, c)))
        for j, (x, y, z, l, w, h, s, c) in zip(index.tolist(), rows.tolist())
    ])


def _iou_quads_batch(quads: _Quads, index: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """:func:`_iou_quads` of every row, bitwise, by one Sutherland-Hodgman
    clip of all rows at once.

    Polygons are held vertex-major, ``(vertices, rows)``, as complex
    ``x + 1j * y``, so one gather or scatter moves both coordinates; the
    arithmetic runs on their real and imaginary parts.  Each row is padded
    past its vertex count with NaN, which is never inside and never
    crosses.  A row with fewer than 3 vertices after a pass scores 0.0, and
    areas are sequential shoelace sums from vertex 0.  Rows past
    ``_BATCH_BOUND`` take the scalar path.
    """
    n = len(rows)
    cols = rows.T.copy()
    with np.errstate(all="ignore"):
        bounded = quads.all_bounded and np.abs(rows).max(initial=0.0) < _BATCH_BOUND
        theta = list(map(math.atan2, cols[6].tolist(), cols[7].tolist()))
        trig = np.array([*map(math.cos, theta), *map(math.sin, theta)]).reshape(2, 1, n)
        half = 0.5 * cols[3:6]
        prods = trig * half[:2]                            # [[c dx, c dy], [s dx, s dy]]
        corners = np.empty((4, n), dtype=complex)
        np.subtract(cols[0:2, None] + prods[:, None, 0] * _SIGN_A,
                    prods[::-1, None, 1] * _SIGN_B,
                    out=corners.view(float).reshape(4, n, 2).transpose(2, 0, 1))
        faces = half[2] + cols[2] * _SIGN_Z                # (-z_lo, z_hi)
        # min(hi1, hi2) - max(lo1, lo2); without NaN only a zero's sign
        # could differ, and a zero dz scores 0.0 either way.
        lowest = np.minimum(quads.faces.take(index, axis=1), faces)
        dz = lowest[1] + lowest[0]
        rowpos = np.arange(n)
        succ = corners.take(_NEXT4, axis=0)
        v_pred = _half_shoelace(corners, succ) * (faces[1] + faces[0])
        edges = succ - corners
        poly = quads.corners.take(index, axis=1)
        nxt = _NEXT4[:, None] * n + rowpos
        next_rows = _NEXT * n
        before = rowpos - n
        fewest = None
        for e in range(4):
            # The last pass pads with zeros, whose shoelace terms are 0.0.
            poly, counts = _clip_pass(poly, nxt, corners[e], edges[e], before,
                                      0.0 if e == 3 else complex(math.nan, math.nan))
            fewest = counts if fewest is None else np.minimum(fewest, counts)
            nxt = next_rows[:len(poly)].take(counts, axis=1) + rowpos
        area = _half_shoelace(poly, poly.take(nxt))
        v_inter = area * dz
        v_union = quads.volume.take(index) + v_pred - v_inter
        live = (dz > 0.0) & (fewest >= 3) & (area > 0.0)
        if not bounded:
            fallback = ~(np.all(np.abs(rows) < _BATCH_BOUND, axis=1) & quads.bounded[index])
            live &= ~fallback
        if (live & (v_union == 0.0)).any():
            raise ZeroDivisionError("float division by zero")
        ious = np.where(live, v_inter / v_union, 0.0)
    if not bounded:
        ious[fallback] = _iou_quads_scalar(quads, index[fallback], rows[fallback])
    return ious


def _half_shoelace(poly: np.ndarray, succ: np.ndarray) -> np.ndarray:
    """``abs(0.5 * total)`` per row, the total summing the shoelace terms
    ``x_i * y_next - x_next * y_i`` of the vertices ``poly`` and their
    successors ``succ`` (both ``(vertices, rows)``) one after another from
    vertex 0, as a cumulative sum adds them."""
    terms = poly.real * succ.imag - succ.real * poly.imag
    return np.abs(0.5 * terms.cumsum(axis=0)[-1])


def _clip_pass(poly: np.ndarray, nxt: np.ndarray, start: np.ndarray, edge: np.ndarray,
               before: np.ndarray, fill: complex) -> tuple[np.ndarray, np.ndarray]:
    """One Sutherland-Hodgman pass of :func:`_iou_quads_batch`: each row's
    polygon clipped to the left of its edge from ``start`` along ``edge``.
    ``nxt`` is each vertex's successor as a flat index, and ``before`` each
    row's index less the row count.  Returns the clipped polygons, padded
    with ``fill``, and their vertex counts."""
    m, n = poly.shape
    rel = poly - start
    sides = edge.real * rel.imag - edge.imag * rel.real   # ex * (py - ay) - ey * (px - ax)
    side_next = sides.take(nxt)
    gap = sides - side_next
    # Candidates in output order: vertex i, then the crossing from i to i + 1.
    keep = np.empty((m, 2, n), dtype=bool)
    cand = np.empty((m, 2, n), dtype=complex)
    inside = np.greater_equal(sides, -CLIP_EPS, out=keep[:, 0]).view(np.int8)
    # A side change (+-1) times the gap exceeds CLIP_EPS exactly when the
    # scalar's inside_p != inside_q and abs(side_p - side_q) > CLIP_EPS do.
    np.greater((inside - (side_next >= -CLIP_EPS).view(np.int8)) * gap, CLIP_EPS,
               out=keep[:, 1])
    cand[:, 0] = poly
    # p + t * (q - p): t multiplies both parts of q - p as a complex with a
    # zero imaginary part, where the extra products are exact zeros.
    np.add(poly, (sides / gap) * (poly.take(nxt) - poly), out=cand[:, 1])
    keep = keep.reshape(2 * m, n)
    pos = np.add.accumulate(keep, axis=0, dtype=np.intp)
    counts = pos[-1]
    width = max(int(counts.max()), 1)
    # Kept candidates go to their place in the output, the others to one
    # spare slot past its end.
    out = np.empty(width * n + 1, dtype=complex)
    out.fill(fill)
    out[np.where(keep, pos * n + before, width * n)] = cand.reshape(2 * m, n)
    return out[:-1].reshape(width, n), counts


def _points_inside(box: Box3D, pts: np.ndarray) -> np.ndarray:
    """Vectorized membership test for an oriented box (inclusive faces) of
    the points whose x, y and z coordinates are the rows of ``pts``."""
    dx = pts[0] - box.x
    dy = pts[1] - box.y
    dz = pts[2] - box.z
    cos_t = math.cos(box.theta)
    sin_t = math.sin(box.theta)
    u = cos_t * dx + sin_t * dy
    v = -sin_t * dx + cos_t * dy
    return (
        (np.abs(u) <= 0.5 * box.l)
        & (np.abs(v) <= 0.5 * box.w)
        & (np.abs(dz) <= 0.5 * box.h)
    )


def _uniform_rows(rng: np.random.Generator, lo: np.ndarray, hi: np.ndarray,
                  k: int) -> np.ndarray:
    """``rng.uniform(lo, hi, size=(k, 3)).T`` as contiguous rows, with the
    same bits: the generator maps each draw ``u`` of the same stream to
    ``low + (high - low) * u``."""
    return lo[:, None] + (hi - lo)[:, None] * rng.random((k, 3)).T.copy()


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
    n_samples = _count(n_samples, "n_samples", minimum=10_000)
    _seed(seed, "seed")
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
        pts = _uniform_rows(rng, lo, hi, min(MC_CHUNK, n_samples - start))
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
