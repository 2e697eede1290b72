"""Unit tests for the box geometry primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevbox import (
    Box3D,
    BoxParams8,
    aabb_intersection_volume,
    center_distance_term,
    convex_intersection_area,
    mc_iou_oracle,
    rotated_iou_exact,
    rotation_weight,
    rwiou,
)
from bevbox import geometry
from bevbox.geometry import (
    MC_CHUNK,
    _footprint,
    _iou_footprints,
    _iou_quads_batch,
    _iou_quads_scalar,
    _Quads,
    _uniform_rows,
)
from helpers import axis_aligned_iou, polygon_area, reference_rotated_iou


def box_strategy():
    finite = {"allow_nan": False, "allow_infinity": False}
    return st.builds(
        Box3D,
        x=st.floats(-20, 20, **finite),
        y=st.floats(-20, 20, **finite),
        z=st.floats(-3, 3, **finite),
        l=st.floats(0.2, 8, **finite),
        w=st.floats(0.2, 8, **finite),
        h=st.floats(0.2, 8, **finite),
        theta=st.floats(-7, 7, **finite),
    )


class TestBox3D:
    def test_rejects_nonpositive_sizes(self):
        for field in ("l", "w", "h"):
            kwargs = dict(x=0, y=0, z=0, l=1, w=1, h=1, theta=0)
            kwargs[field] = 0.0
            with pytest.raises(ValueError):
                Box3D(**kwargs)
            kwargs[field] = -2.0
            with pytest.raises(ValueError):
                Box3D(**kwargs)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Box3D(math.nan, 0, 0, 1, 1, 1, 0)
        with pytest.raises(ValueError):
            Box3D(0, 0, 0, 1, 1, math.inf, 0)

    def test_corners_axis_aligned(self):
        box = Box3D(1.0, 2.0, 0.0, 4.0, 2.0, 1.0, 0.0)
        assert box.bev_corners() == [
            (3.0, 3.0), (-1.0, 3.0), (-1.0, 1.0), (3.0, 1.0)
        ]

    def test_corners_counterclockwise(self):
        box = Box3D(0.3, -1.2, 0.0, 3.0, 1.5, 1.0, 0.77)
        assert polygon_area(box.bev_corners()) > 0.0

    def test_corner_area_matches_footprint(self):
        box = Box3D(-2.0, 4.0, 0.5, 2.5, 1.25, 1.0, 1.9)
        assert polygon_area(box.bev_corners()) == pytest.approx(2.5 * 1.25, rel=1e-12)


class TestBoxParams8:
    def test_roundtrip_through_box(self):
        box = Box3D(1.5, -0.5, 0.9, 3.2, 1.4, 1.6, 0.6)
        params = BoxParams8.from_box(box)
        assert params.s == math.sin(0.6)
        assert params.c == math.cos(0.6)
        back = params.to_box()
        assert (back.x, back.y, back.z) == (box.x, box.y, box.z)
        assert (back.l, back.w, back.h) == (box.l, box.w, box.h)
        assert back.theta == pytest.approx(box.theta, abs=1e-12)

    def test_array_roundtrip(self):
        arr = np.array([1.0, 2.0, 0.5, 3.0, 1.5, 1.2, 0.3, 0.8])
        assert np.array_equal(BoxParams8.from_array(arr).as_array(), arr)

    def test_unnormalized_channels_decode_by_angle(self):
        # The yaw channels are free parameters; decoding uses only their angle.
        p = BoxParams8(0, 0, 0, 2, 1, 1, 3.0, 3.0)
        assert p.to_box().theta == pytest.approx(math.pi / 4, abs=1e-12)


class TestRotationWeight:
    def test_equal_angles_give_unit_weight(self):
        assert rotation_weight(0.7, 0.7, 1.0) == 1.0

    def test_frozen_quarter_turn(self):
        # omega = (1 - 0.5 * |sin| / 2) * (1 - 0.5 * |cos| / 2) = 0.75^2
        assert rotation_weight(0.0, math.pi / 2, 0.5) == pytest.approx(0.5625, abs=1e-15)

    def test_alpha_zero_is_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            t1, t2 = rng.uniform(-7, 7, 2)
            assert rotation_weight(t1, t2, 0.0) == 1.0

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            rotation_weight(0.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            rotation_weight(0.0, 1.0, 1.5)

    @given(
        t1=st.floats(-7, 7, allow_nan=False),
        t2=st.floats(-7, 7, allow_nan=False),
        alpha=st.floats(0, 1, allow_nan=False),
    )
    def test_weight_bounds(self, t1, t2, alpha):
        w = rotation_weight(t1, t2, alpha)
        # Each factor lies in [1 - alpha, 1].
        assert (1.0 - alpha) ** 2 - 1e-12 <= w <= 1.0


class TestRwiou:
    def test_identical_boxes_exact_one(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            box = Box3D(*rng.uniform(-5, 5, 3), *rng.uniform(0.3, 6, 3),
                        rng.uniform(0, 2 * math.pi))
            for alpha in (0.0, 0.3, 1.0):
                assert rwiou(box, box, alpha) == 1.0

    def test_frozen_axis_aligned_partial(self):
        b1 = Box3D(0, 0, 1, 4, 2, 2, 0.0)
        b2 = Box3D(1, 0, 1, 4, 2, 2, 0.0)
        # Intersection 3*2*2 = 12, union 16 + 16 - 12 = 20.
        assert rwiou(b1, b2, 0.0) == pytest.approx(0.6, abs=1e-15)

    def test_frozen_quarter_turn_same_extent(self):
        b1 = Box3D(0, 0, 1, 4, 2, 2, 0.0)
        b2 = Box3D(0, 0, 1, 4, 2, 2, math.pi / 2)
        # Parameter-aligned bounds coincide (V_inter 16); omega = 0.5625
        # gives weighted volume 9 and union 16 + 16 - 9 = 23.
        assert rwiou(b1, b2, 0.5) == pytest.approx(9.0 / 23.0, abs=1e-15)

    def test_alpha_zero_matches_axis_aligned_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            b1 = Box3D(*rng.uniform(-4, 4, 3), *rng.uniform(0.3, 6, 3),
                       rng.uniform(0, 2 * math.pi))
            b2 = Box3D(*rng.uniform(-4, 4, 3), *rng.uniform(0.3, 6, 3),
                       rng.uniform(0, 2 * math.pi))
            assert rwiou(b1, b2, 0.0) == pytest.approx(
                axis_aligned_iou(b1, b2), abs=1e-12
            )

    def test_disjoint_is_zero(self):
        b1 = Box3D(0, 0, 0, 2, 2, 2, 0.4)
        b2 = Box3D(10, 0, 0, 2, 2, 2, 1.1)
        assert rwiou(b1, b2, 0.5) == 0.0

    def test_symmetry(self):
        b1 = Box3D(0.5, -0.25, 0.3, 3.1, 1.7, 1.3, 0.35)
        b2 = Box3D(1.1, 0.4, 0.1, 2.2, 2.0, 1.8, -0.9)
        assert rwiou(b1, b2, 0.7) == rwiou(b2, b1, 0.7)

    @given(box=box_strategy(), alpha=st.floats(0, 1, allow_nan=False))
    @settings(max_examples=60)
    def test_range(self, box, alpha):
        shifted = Box3D(box.x + 0.5, box.y, box.z, box.l, box.w, box.h, box.theta + 0.2)
        value = rwiou(box, shifted, alpha)
        assert 0.0 <= value <= 1.0


class TestAabbIntersection:
    def test_frozen_volume(self):
        b1 = Box3D(0, 0, 1, 4, 2, 2, 0.0)
        b2 = Box3D(1, 0.5, 1.5, 3, 2, 2, 0.0)
        # Overlap widths 2.5 * 1.5 * 1.5.
        assert aabb_intersection_volume(b1, b2) == pytest.approx(5.625, abs=1e-15)

    def test_empty_when_separated(self):
        b1 = Box3D(0, 0, 0, 2, 2, 2, 0.0)
        b2 = Box3D(0, 0, 5, 2, 2, 2, 0.0)
        assert aabb_intersection_volume(b1, b2) == 0.0


class TestConvexIntersection:
    def test_identical_squares(self):
        square = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
        assert convex_intersection_area(square, list(square)) == 4.0

    def test_frozen_octagon_area(self):
        square = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
        d = math.sqrt(2.0)
        rotated = [(0.0, -d), (d, 0.0), (0.0, d), (-d, 0.0)]
        expected = 8.0 * (math.sqrt(2.0) - 1.0)
        assert convex_intersection_area(square, rotated) == pytest.approx(
            expected, abs=1e-9
        )

    def test_disjoint_polygons(self):
        a = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        b = [(5.0, 5.0), (6.0, 5.0), (6.0, 6.0), (5.0, 6.0)]
        assert convex_intersection_area(a, b) == 0.0

    def test_contained_polygon(self):
        outer = [(-3.0, -3.0), (3.0, -3.0), (3.0, 3.0), (-3.0, 3.0)]
        inner = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
        assert convex_intersection_area(inner, outer) == pytest.approx(4.0, abs=1e-12)
        assert convex_intersection_area(outer, inner) == pytest.approx(4.0, abs=1e-12)


class TestRotatedIouExact:
    def test_identical_is_exactly_one(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            box = Box3D(*rng.uniform(-5, 5, 3), *rng.uniform(0.3, 6, 3),
                        rng.uniform(0, 2 * math.pi))
            assert rotated_iou_exact(box, box) == 1.0

    def test_frozen_unit_cubes_half_offset(self):
        c1 = Box3D(0, 0, 0.5, 1, 1, 1, 0.0)
        c2 = Box3D(0.5, 0, 0.5, 1, 1, 1, 0.0)
        assert rotated_iou_exact(c1, c2) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_frozen_octagon_iou(self):
        o1 = Box3D(0, 0, 1, 2, 2, 2, 0.0)
        o2 = Box3D(0, 0, 1, 2, 2, 2, math.pi / 4)
        assert rotated_iou_exact(o1, o2) == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-9
        )

    def test_z_disjoint_is_zero(self):
        b1 = Box3D(0, 0, 0, 2, 2, 1, 0.3)
        b2 = Box3D(0, 0, 5, 2, 2, 1, 0.3)
        assert rotated_iou_exact(b1, b2) == 0.0

    def test_symmetry(self):
        b1 = Box3D(0.3, -0.2, 0.5, 3.0, 1.4, 1.2, 0.7)
        b2 = Box3D(0.8, 0.4, 0.9, 2.2, 1.8, 1.5, -1.1)
        assert rotated_iou_exact(b1, b2) == pytest.approx(
            rotated_iou_exact(b2, b1), abs=1e-15
        )

    def test_yaw_period(self):
        b1 = Box3D(0.3, -0.2, 0.5, 3.0, 1.4, 1.2, 0.7)
        b2 = Box3D(0.8, 0.4, 0.9, 2.2, 1.8, 1.5, -1.1)
        b2_shift = Box3D(0.8, 0.4, 0.9, 2.2, 1.8, 1.5, -1.1 + 2 * math.pi)
        assert rotated_iou_exact(b1, b2) == pytest.approx(
            rotated_iou_exact(b1, b2_shift), abs=1e-12
        )

    @given(box=box_strategy())
    @settings(max_examples=60)
    def test_range_and_self_consistency(self, box):
        other = Box3D(box.x + 0.3, box.y - 0.2, box.z, box.l, box.w, box.h,
                      box.theta + 0.15)
        value = rotated_iou_exact(box, other)
        assert 0.0 <= value <= 1.0


def iou_pair_families(rng, n):
    """``n`` box pairs per family: random overlapping, identical, nested,
    touching, collinear-edge, near-collinear and yaw +-pi pairs."""
    def box(x, y, z, l, w, h, theta):
        return Box3D(float(x), float(y), float(z), float(l), float(w), float(h), float(theta))

    pairs = []
    for _ in range(n):
        c = rng.uniform(-5, 5, 3)
        size = rng.uniform(0.3, 5, 3)
        yaw = rng.uniform(-math.pi, math.pi)
        b1 = box(*c, *size, yaw)
        # random overlapping
        pairs.append((b1, box(*(c + rng.uniform(-0.6, 0.6, 3) * size),
                              *(size * rng.uniform(0.6, 1.6, 3)), yaw + rng.normal(0, 0.8))))
        # identical
        pairs.append((b1, box(*c, *size, yaw)))
        # nested: same center and yaw, smaller
        pairs.append((b1, box(*c, *(size * rng.uniform(0.2, 0.99, 3)), yaw)))
        # touching: axis-aligned, shifted by exactly the summed half-lengths
        k = int(rng.integers(1, 9))
        pairs.append((box(0.0, 0.0, 0.0, k / 4, 1.0, 1.0, 0.0),
                      box(k / 8 + 0.5, 0.25, 0.0, 1.0, 1.0, 1.0, 0.0)))
        # collinear edges: same yaw, slid along the box's own length axis
        shift = rng.uniform(-1, 1) * size[0]
        pairs.append((b1, box(c[0] + shift * math.cos(yaw), c[1] + shift * math.sin(yaw), c[2],
                              *size, yaw)))
        # edges a clip tolerance apart: shifted across the length axis and
        # turned by far less than an ulp of a degree, so the two vertices
        # next to an edge straddle the inside test within CLIP_EPS
        normal = rng.uniform(0.3, 2.0) * 1e-12 / size[0]
        turn = rng.uniform(-1, 1) * 1e-12 / (size[0] * size[0])
        pairs.append((b1, box(c[0] - normal * math.sin(yaw), c[1] + normal * math.cos(yaw), c[2],
                              *size, yaw + turn)))
        # yaw +-pi and a half turn apart
        pairs.append((box(*c, *size, math.pi), box(*(c + rng.uniform(-0.3, 0.3, 3)), *size,
                                                      -math.pi)))
        pairs.append((b1, box(*c, *size, yaw + math.pi)))
    return pairs


class TestRotatedIouAgainstTextbookClipper:
    def test_bitwise_equal_on_pair_families(self):
        pairs = iou_pair_families(np.random.default_rng(5), 2_500)
        assert len(pairs) >= 20_000
        # Every other pair swaps roles, so each family is clipped both ways.
        pairs = [(b, a) if i % 2 else (a, b) for i, (a, b) in enumerate(pairs)]
        got = [rotated_iou_exact(a, b).hex() for a, b in pairs]
        want = [reference_rotated_iou(a, b).hex() for a, b in pairs]
        assert got == want

    def test_families_reach_their_edge_cases(self):
        pairs = iou_pair_families(np.random.default_rng(5), 50)
        values = [rotated_iou_exact(a, b) for a, b in pairs]
        identical = values[1::8]
        touching = values[3::8]
        assert identical == [1.0] * 50
        assert touching == [0.0] * 50


def yaw_rows(boxes) -> np.ndarray:
    """``(n, 8)`` rows ``(x, y, z, l, w, h, sin, cos)`` of the boxes."""
    return np.array([(b.x, b.y, b.z, b.l, b.w, b.h, math.sin(b.theta), math.cos(b.theta))
                     for b in boxes]).reshape(-1, 8)


def scalar_iou(gt: Box3D, row) -> float:
    """The scalar IoU of a ground truth and an ``(x, ..., h, s, c)`` row."""
    x, y, z, l, w, h, s, c = (float(v) for v in row)
    return _iou_footprints(_footprint(*gt.as_tuple()),
                           _footprint(x, y, z, l, w, h, math.atan2(s, c)))


def outcome(call):
    """A call's value bits, or its exception's type and message."""
    try:
        value = call()
    except ArithmeticError as exc:
        return type(exc), str(exc)
    return np.asarray(value, dtype=float).tobytes()


# Both sides of the size cutover in _iou_quads, under the same bitwise checks.
IOU_PATHS = {"batch": _iou_quads_batch, "scalar": _iou_quads_scalar}


class TestBatchedIou:
    """Both sides of ``_iou_quads`` equal the scalar clipper row by row,
    bitwise: the batched clip of every row at once and the pair-by-pair
    loop."""

    @pytest.mark.parametrize("path", IOU_PATHS)
    def test_bitwise_equal_to_textbook_clipper_on_pair_families(self, path):
        pairs = iou_pair_families(np.random.default_rng(5), 2_500)
        pairs = [(b, a) if i % 2 else (a, b) for i, (a, b) in enumerate(pairs)]
        rows = yaw_rows([b for _, b in pairs])
        got = IOU_PATHS[path](_Quads.of([a for a, _ in pairs]), np.arange(len(pairs)), rows)
        # The batch decodes each row's yaw as atan2(sin, cos).
        want = [reference_rotated_iou(a, Box3D(*row[:6].tolist(), math.atan2(row[6], row[7])))
                for (a, _), row in zip(pairs, rows)]
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]

    @given(gts=st.lists(box_strategy(), min_size=1, max_size=3),
           rows=st.lists(st.tuples(st.integers(0, 2), box_strategy(),
                                   st.floats(-1e-9, 1e-9), st.floats(-1, 1)),
                         min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_property_equals_scalar(self, gts, rows):
        # Each row is a box or, with a tiny offset and turn, its own ground
        # truth: the near-collinear edges the clip tolerance decides.
        index = np.array([i % len(gts) for i, *_ in rows])
        boxes = [box if pick < 2 else Box3D(gts[j].x + tiny, gts[j].y, gts[j].z, gts[j].l,
                                            gts[j].w, gts[j].h, gts[j].theta + tiny * turn)
                 for (pick, box, tiny, turn), j in zip(rows, index.tolist())]
        table = yaw_rows(boxes)
        want = [scalar_iou(gts[j], row).hex() for j, row in zip(index.tolist(), table)]
        for path in IOU_PATHS.values():
            assert [v.hex() for v in path(_Quads.of(gts), index, table).tolist()] == want

    def test_blown_up_rows_fail_like_the_scalar(self):
        gt = Box3D(0.3, -0.2, 0.1, 3.0, 1.5, 1.2, 0.4)
        tiny_gt = Box3D(7.408958139051086e-163, 5.4917424332166046e-163, 0.0,
                        2.2216068672753338e-162, 2.4086952834763095e-162, 1.0,
                        -0.6083632276973661)
        yaw = 2.9307954562474032
        base = [0.5, 0.0, 0.2, 2.5, 1.4, 1.0, 0.3, 0.95]
        blown = []
        for channel in range(8):
            for value in (math.inf, -math.inf, math.nan, 1e200, -1e200, 1e-200):
                row = list(base)
                row[channel] = value
                blown.append((gt, row))
        for size in (1e200, 1e155, 1e-200):
            blown.append((gt, base[:3] + [size, size, size] + base[6:]))
            blown.append((Box3D(0.0, 0.0, 0.0, size, 1.0 / size, 1.0, 0.2), base))
        # A pair whose union rounds to 0.0: the scalar's only raise point.
        zero_union = (tiny_gt, [1.8731140618546237e-163, 1.0112284708303366e-162, 0.0,
                                1.479876716788997e-162, 2.2346654263747713e-162, 1.0,
                                math.sin(yaw), math.cos(yaw)])
        blown.append(zero_union)
        assert outcome(lambda: scalar_iou(*zero_union)) == (
            ZeroDivisionError, "float division by zero")
        # Each blown pair sits in a 30-row call of the base pair: a call with
        # any unbounded value goes whole to the scalar clipper, and either
        # way the call gives the scalar's bits or raises its exception.
        for box, row in blown:
            quads = _Quads.of([gt, box])
            index, table = np.array([0] * 29 + [1]), np.array([base] * 29 + [row])
            want = outcome(lambda: [scalar_iou(gt, base)] * 29 + [scalar_iou(box, row)])
            assert outcome(lambda: geometry._iou_quads(quads, index, table)) == want, row
            if quads.bounded and np.all(np.abs(table) < geometry._BATCH_BOUND):
                assert outcome(lambda: _iou_quads_batch(quads, index, table)) == want, row
        # All in one call, the scalar's ZeroDivisionError; without the
        # pair that raises it, each row keeps the scalar's bits.
        fine = [(box, row) for box, row in blown if not isinstance(
            outcome(lambda: scalar_iou(box, row)), tuple)]
        for pairs in (blown, fine):
            want = outcome(lambda: [scalar_iou(*pair) for pair in pairs])
            got = outcome(lambda: geometry._iou_quads(
                _Quads.of([box for box, _ in pairs]), np.arange(len(pairs)),
                np.array([row for _, row in pairs])))
            assert got == want
        # Both calls are long enough for the batch: their bounds, not their
        # sizes, send them to the scalar clipper.
        assert isinstance(want, bytes) and len(fine) >= geometry._BATCH_MIN_ROWS
        with pytest.raises(ZeroDivisionError, match="^float division by zero$"):
            _iou_quads_batch(_Quads.of([gt] * 30 + [tiny_gt]), np.arange(31),
                             np.array([base] * 30 + [zero_union[1]]))

    @staticmethod
    def spy_paths(monkeypatch):
        """Record the rows' bytes of every call of each side of ``_iou_quads``."""
        spied = {"batch": [], "scalar": []}

        def spy(path):
            def call(quads, index, rows):
                spied[path].append(rows.tobytes())
                return IOU_PATHS[path](quads, index, rows)
            return call

        for path in IOU_PATHS:
            monkeypatch.setattr(geometry, f"_iou_quads_{path}", spy(path))
        return spied

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n_rows,path", [(23, "scalar"), (24, "batch")])
    def test_size_cutover(self, monkeypatch, n_rows, path):
        # Calls of fewer than _BATCH_MIN_ROWS rows run only the scalar
        # clipper, and longer ones only the batch.
        assert geometry._BATCH_MIN_ROWS == 24
        pairs = iou_pair_families(np.random.default_rng(3), 4)[:n_rows]
        gts, table = [a for a, _ in pairs], yaw_rows([b for _, b in pairs])
        spied = self.spy_paths(monkeypatch)
        got = geometry._iou_quads(_Quads.of(gts), np.arange(n_rows), table)
        assert spied == {side: [table.tobytes()] if side == path else [] for side in spied}
        assert [v.hex() for v in got.tolist()] == [scalar_iou(*p).hex() for p in zip(gts, table)]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value,routed", [(1e75, True), (9.9e74, False), (math.nan, True),
                                              (math.inf, True), (-math.inf, True)])
    def test_rows_past_the_bound_take_the_scalar_path(self, monkeypatch, value, routed):
        # A 30-row call with one value at _BATCH_BOUND, NaN or infinite goes
        # whole to the scalar clipper; one just below the bound stays whole
        # in the batch.  Both give the scalar's bits.
        gt = Box3D(0.3, -0.2, 0.1, 3.0, 1.5, 1.2, 0.4)
        base = [0.5, 0.0, 0.2, 2.5, 1.4, 1.0, 0.3, 0.95]
        table = np.array([base] * 29 + [base[:5] + [value] + base[6:]])
        spied = self.spy_paths(monkeypatch)
        got = geometry._iou_quads(_Quads.of([gt]), np.zeros(30, dtype=np.intp), table)
        path = "scalar" if routed else "batch"
        assert spied == {side: [table.tobytes()] if side == path else [] for side in spied}
        assert [v.hex() for v in got.tolist()] == [scalar_iou(gt, row).hex() for row in table]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("far,routed", [(1e75, True), (9.9e74, False)])
    def test_far_ground_truth_takes_the_scalar_path(self, monkeypatch, far, routed):
        # One ground truth with a footprint value at _BATCH_BOUND sends every
        # call on its _Quads to the scalar clipper, rows near the other
        # ground truth included.
        gts = [Box3D(0.3, -0.2, 0.1, 3.0, 1.5, 1.2, 0.4), Box3D(far, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0)]
        quads = _Quads.of(gts)
        assert quads.bounded is not routed
        base = [0.5, 0.0, 0.2, 2.5, 1.4, 1.0, 0.3, 0.95]
        index, table = np.array([0] * 29 + [1]), np.array([base] * 30)
        spied = self.spy_paths(monkeypatch)
        got = geometry._iou_quads(quads, index, table)
        path = "scalar" if routed else "batch"
        assert spied == {side: [table.tobytes()] if side == path else [] for side in spied}
        assert [v.hex() for v in got.tolist()] == [scalar_iou(gts[j], row).hex()
                                                   for j, row in zip(index.tolist(), table)]


class TestMcOracle:
    def test_agrees_with_exact_on_rotated_pair(self):
        b1 = Box3D(0.3, -0.2, 0.5, 3.0, 1.4, 1.2, 0.7)
        b2 = Box3D(0.8, 0.4, 0.9, 2.2, 1.8, 1.5, -1.1)
        exact = rotated_iou_exact(b1, b2)
        est = mc_iou_oracle(b1, b2, n_samples=400_000, seed=5)
        assert abs(est.value - exact) <= 4.0 * est.stderr

    def test_rejects_tiny_sample_counts(self):
        b = Box3D(0, 0, 0, 2, 2, 2, 0.0)
        with pytest.raises(ValueError):
            mc_iou_oracle(b, b, n_samples=100, seed=0)

    @pytest.mark.parametrize("n_samples,message", [
        (9_999, "expected an integer >= 10000, got 9999"),
        (20_000.5, "expected an integer, got 20000.5"),
        (True, "expected int, got bool"),
        ("20000", "expected int, got str"),
    ])
    def test_rejects_malformed_sample_counts(self, n_samples, message):
        # A count is never truncated to an integer.
        b = Box3D(0, 0, 0, 2, 2, 2, 0.0)
        with pytest.raises(ValueError, match=f"^n_samples: {message}$"):
            mc_iou_oracle(b, b, n_samples=n_samples, seed=0)

    def test_rejects_negative_seed(self):
        b = Box3D(0, 0, 0, 2, 2, 2, 0.0)
        with pytest.raises(ValueError, match="^seed: expected a non-negative integer, got -1$"):
            mc_iou_oracle(b, b, n_samples=10_000, seed=-1)

    @pytest.mark.parametrize("k", [MC_CHUNK, 1_234])
    def test_chunk_equals_the_generators_uniform_draw(self, k):
        # The estimator maps rng.random draws by the generator's own
        # formula; a numpy that changes it fails here, bit for bit.
        rng = np.random.default_rng(3)
        for seed in range(20):
            lo = rng.uniform(-10.0, 0.0, 3)
            hi = lo + rng.uniform(1e-3, 10.0, 3)
            got = _uniform_rows(np.random.default_rng(seed), lo, hi, k)
            want = np.random.default_rng(seed).uniform(lo, hi, size=(k, 3))
            assert got.flags.c_contiguous
            assert got.T.tobytes() == want.tobytes()

    def test_deterministic_per_seed(self):
        b1 = Box3D(0, 0, 0, 3, 2, 1, 0.4)
        b2 = Box3D(0.5, 0.2, 0.1, 2, 2, 1.5, -0.3)
        a = mc_iou_oracle(b1, b2, n_samples=50_000, seed=9)
        b = mc_iou_oracle(b1, b2, n_samples=50_000, seed=9)
        assert a.value == b.value and a.n_inter_hits == b.n_inter_hits

    @pytest.mark.parametrize("b1,b2,n_samples,seed,n_union,n_inter", [
        (Box3D(0, 0, 0, 4, 2, 1, 0), Box3D(1, 0.5, 0.2, 3, 2, 1.5, 0.7),
         200_000, 3, 104_762, 31_582),
        (Box3D(-1, 2, 0.5, 2.5, 1.2, 1.8, 1.1), Box3D(-0.4, 2.3, 0.1, 2.0, 2.0, 1.0, -0.6),
         131_072, 11, 56_611, 14_881),
        (Box3D(0, 0, 0, 1, 1, 1, 0.25), Box3D(0.3, 0, 0, 1, 1, 1, 0.25),
         10_000, 0, 7_303, 3_582),
        (Box3D(0, 0, 0, 4, 2, 1, 0), Box3D(0.5, 0.3, 0, 4, 2, 1, 0.4),
         1_000_000, 7, 634_395, 360_100),
        # An exact multiple of a 16,384-sample chunk, and one past it.
        (Box3D(0.3, -0.2, 0.5, 3.0, 1.4, 1.2, 0.7), Box3D(0.8, 0.4, 0.9, 2.2, 1.8, 1.5, -1.1),
         3 * 16_384, 4, 20_596, 5_265),
        (Box3D(0.3, -0.2, 0.5, 3.0, 1.4, 1.2, 0.7), Box3D(0.8, 0.4, 0.9, 2.2, 1.8, 1.5, -1.1),
         5 * 16_384 + 1_234, 6, 34_863, 8_998),
    ])
    def test_hit_counts_pinned(self, b1, b2, n_samples, seed, n_union, n_inter):
        # Recorded from a single (n_samples, 3) draw; drawing in chunks from
        # the same generator must reproduce the stream exactly, whether
        # n_samples is below, a multiple of, or not a multiple of the chunk.
        est = mc_iou_oracle(b1, b2, n_samples=n_samples, seed=seed)
        assert (est.n_union_hits, est.n_inter_hits) == (n_union, n_inter)
        assert est.value == n_inter / n_union


class TestCenterDistanceTerm:
    def test_frozen_cube_pair(self):
        e1 = Box3D(0, 0, 0, 2, 2, 2, 0.0)
        e2 = Box3D(2, 0, 0, 2, 2, 2, 0.0)
        # D^2 = 4 over enclosing diagonal^2 = 16 + 4 + 4.
        assert center_distance_term(e1, e2) == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_zero_at_coincident_centers(self):
        b1 = Box3D(1, 2, 3, 4, 2, 1, 0.3)
        b2 = Box3D(1, 2, 3, 2, 3, 2, 1.0)
        assert center_distance_term(b1, b2) == 0.0

    def test_below_one(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            b1 = Box3D(*rng.uniform(-10, 10, 3), *rng.uniform(0.3, 6, 3), 0.0)
            b2 = Box3D(*rng.uniform(-10, 10, 3), *rng.uniform(0.3, 6, 3), 0.0)
            assert 0.0 <= center_distance_term(b1, b2) < 1.0
