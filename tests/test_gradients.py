"""Tests for the analytic overlap-loss gradients.

The interesting points of this loss are its kinks: exact parameter equality,
disjoint footprints, faces that touch with zero gap, and a fully saturated
rotation weight. Each gets closed-form assertions here; generic correctness
away from the kinks is covered by finite differences and the magnitude audit.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bevbox.gradients
from bevbox import (
    Box3D,
    BoxParams8,
    Grad8,
    aabb_intersection_volume,
    center_distance_term,
    finite_difference_grad,
    gradient_bound_audit,
    gradient_check,
    regression_sample_grad,
    regression_sample_loss,
    rwiou,
    rwiou_loss,
    rwiou_loss_grad,
)
from bevbox.gradients import (
    _BOX,
    _CHECK_CHUNK,
    _PERTURB,
    _SLIDE,
    _SLIDE_YZ,
    _RwiouRows,
    _center_aligned_rows,
    _fd_rows,
    _left_overlap_rows,
    _map_normal,
    _map_uniform,
    _overlapping_rows,
    _ranges,
    center_term_grad,
    random_overlapping_pair,
    regression_sample_grad_batch,
)
from helpers import (
    reference_finite_difference_grad,
    reference_gradient_bound_audit,
    reference_gradient_check,
    reference_margin_ok,
    scalar_center_aligned_pair,
    scalar_left_overlap_pair,
    scalar_overlapping_pair,
)

GEOMETRY_COMPONENTS = ("d_x", "d_y", "d_z", "d_l", "d_w", "d_h")

# Equality-point geometry components cancel only mathematically; the two
# cancelling float terms can round differently and leave ulp-scale residue
# (measured up to 1.2e-16), so equality assertions use this tolerance.
EQUALITY_RESIDUE_TOL = 1e-12


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


def random_params(rng):
    return BoxParams8.from_box(Box3D(
        float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)),
        float(rng.uniform(-2, 2)), float(rng.uniform(0.6, 5)),
        float(rng.uniform(0.6, 5)), float(rng.uniform(0.6, 5)),
        float(rng.uniform(-math.pi, math.pi)),
    ))


UNIT_CUBE = BoxParams8.from_box(Box3D(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0))
PROBE = BoxParams8.from_box(Box3D(0.5, -1.2, 0.8, 3.7, 1.9, 1.4, 0.83))


class TestEqualityPoint:
    def test_loss_exactly_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            params = random_params(rng)
            for alpha in (0.0, 0.3, 0.5, 1.0):
                assert rwiou_loss(params, params, alpha) == 0.0

    def test_sin_cos_components_equal_alpha(self):
        # sign(0) := +1 makes the one-sided yaw gradient +alpha on both
        # channels; the volume cancellations round, hence rel tol.
        for alpha in (0.25, 0.3, 0.5, 1.0):
            grad = rwiou_loss_grad(PROBE, PROBE, alpha)
            assert grad.d_s == pytest.approx(alpha, rel=1e-12)
            assert grad.d_c == pytest.approx(alpha, rel=1e-12)
            assert grad.d_s > 0.0 and grad.d_c > 0.0

    def test_geometry_components_cancel(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            params = random_params(rng)
            grad = rwiou_loss_grad(params, params, 0.5)
            for name in GEOMETRY_COMPONENTS:
                assert abs(getattr(grad, name)) <= EQUALITY_RESIDUE_TOL

    def test_alpha_zero_yaw_components_exactly_zero(self):
        grad = rwiou_loss_grad(PROBE, PROBE, 0.0)
        assert grad.d_s == 0.0
        assert grad.d_c == 0.0

    def test_sample_loss_zero_at_equality(self):
        value, grad = regression_sample_grad(PROBE, PROBE, 0.5)
        assert value == 0.0
        assert grad.d_s == pytest.approx(0.5, rel=1e-12)
        for name in GEOMETRY_COMPONENTS:
            assert abs(getattr(grad, name)) <= EQUALITY_RESIDUE_TOL


class TestDisjoint:
    def test_bev_disjoint_loss_one_grad_zero(self):
        pred = BoxParams8(20.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0)
        assert rwiou_loss(pred, UNIT_CUBE, 0.5) == 1.0
        grad = rwiou_loss_grad(pred, UNIT_CUBE, 0.5)
        assert grad.as_array().tolist() == [0.0] * 8

    def test_z_disjoint_loss_one_grad_zero(self):
        pred = BoxParams8(0.0, 0.0, 10.0, 1.0, 1.0, 1.0, 0.0, 1.0)
        assert rwiou_loss(pred, UNIT_CUBE, 0.5) == 1.0
        grad = rwiou_loss_grad(pred, UNIT_CUBE, 0.5)
        assert grad.as_array().tolist() == [0.0] * 8


class TestTouchingFaces:
    # Gap exactly zero: the overlap clamp passes the derivative through, so
    # touching boxes still feel attraction even though the loss sits at 1.

    def test_touch_from_right(self):
        pred = BoxParams8(1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0)
        assert rwiou_loss(pred, UNIT_CUBE, 0.0) == 1.0
        grad = rwiou_loss_grad(pred, UNIT_CUBE, 0.0)
        assert grad.d_x == 0.5
        assert grad.d_l < 0.0

    def test_touch_from_left(self):
        pred = BoxParams8(-1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0)
        grad = rwiou_loss_grad(pred, UNIT_CUBE, 0.0)
        assert grad.d_x == -0.5


class TestShiftedCube:
    # Unit cubes, pred shifted +0.5 in x, alpha 0. By hand: overlap 0.5,
    # union 1.5, loss 1 - 1/3; d(loss)/dx = 8/9 and d(loss)/dl = -2/9.

    PRED = BoxParams8(0.5, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0)

    def test_loss_value(self):
        assert rwiou_loss(self.PRED, UNIT_CUBE, 0.0) == pytest.approx(
            2.0 / 3.0, rel=1e-15)

    def test_center_gradient(self):
        grad = rwiou_loss_grad(self.PRED, UNIT_CUBE, 0.0)
        assert grad.d_x == pytest.approx(8.0 / 9.0, rel=1e-12)
        # within the overlap-regime magnitude bound 2 / l_t
        assert abs(grad.d_x) <= 2.0 + 1e-9

    def test_size_gradient(self):
        grad = rwiou_loss_grad(self.PRED, UNIT_CUBE, 0.0)
        assert grad.d_l == pytest.approx(-2.0 / 9.0, rel=1e-12)

    def test_aligned_axes_balanced(self):
        # y and z faces tie exactly; the averaged one-sided derivatives cancel.
        grad = rwiou_loss_grad(self.PRED, UNIT_CUBE, 0.0)
        assert abs(grad.d_y) <= EQUALITY_RESIDUE_TOL
        assert abs(grad.d_z) <= EQUALITY_RESIDUE_TOL


class TestRotationWeightClamp:
    def test_saturated_weight_kills_gradient(self):
        # alpha 1 and a sine delta of 4 drive the channel weight to the clamp
        # floor: zero overlap credit and a dead gradient everywhere.
        pred = BoxParams8(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 4.0, 1.0)
        assert rwiou_loss(pred, UNIT_CUBE, 1.0) == 1.0
        grad = rwiou_loss_grad(pred, UNIT_CUBE, 1.0)
        assert grad.as_array().tolist() == [0.0] * 8

    def test_just_inside_clamp_still_live(self):
        pred = BoxParams8(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.9, 1.0)
        assert 0.0 < rwiou_loss(pred, UNIT_CUBE, 1.0) < 1.0
        grad = rwiou_loss_grad(pred, UNIT_CUBE, 1.0)
        assert grad.d_s != 0.0


def pair_families(rng, n):
    """``n`` overlapping, ``n`` disjoint and ``n`` identical ``Box3D`` pairs."""
    lo = np.array([-5, -5, -2, 0.6, 0.6, 0.6, -math.pi])
    hi = np.array([5, 5, 2, 5, 5, 5, math.pi])
    first = rng.uniform(lo, hi, size=(3 * n, 7))
    shift = rng.uniform(-0.5, 0.5, size=(3 * n, 3)) * first[:, 3:6]
    second = first.copy()
    second[:, 0:3] += shift
    second[:, 3:6] *= rng.uniform(0.6, 1.6, size=(3 * n, 3))
    second[:, 6] += rng.normal(0.0, 0.6, size=3 * n)
    # Disjoint: the second box clears the first along x.
    apart = slice(n, 2 * n)
    second[apart, 0] = (first[apart, 0] + 0.5 * (first[apart, 3] + second[apart, 3])
                        + rng.uniform(1e-3, 3.0, size=n))
    second[2 * n:] = first[2 * n:]
    for a, b in zip(first.tolist(), second.tolist()):
        yield Box3D(*a), Box3D(*b)


class TestLossMatchesGeometry:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_rwiou_loss_is_one_minus_rwiou_bitwise(self, alpha):
        rng = np.random.default_rng(31)
        differ = [
            (b1, b2) for b1, b2 in pair_families(rng, 4_000)
            if rwiou_loss(BoxParams8.from_box(b1), BoxParams8.from_box(b2), alpha)
            != 1.0 - rwiou(b1, b2, alpha)
        ]
        assert differ == []

    def test_disjoint_with_overflowing_faces(self):
        # The x and y overlaps multiply to inf; z is disjoint, so the overlap
        # volume is 0 and never inf * 0.
        b1 = Box3D(0.0, 0.0, 0.0, 1e200, 1e200, 1.0, 0.0)
        b2 = Box3D(0.0, 0.0, 10.0, 1e200, 1e200, 1.0, 0.0)
        assert rwiou(b1, b2, 0.5) == 0.0
        assert rwiou_loss(BoxParams8.from_box(b1), BoxParams8.from_box(b2), 0.5) == 1.0


class TestCenterTerm:
    def test_coincident_centers_zero(self):
        target = BoxParams8.from_box(Box3D(1.0, 2.0, 0.5, 2.0, 2.0, 2.0, 0.4))
        pred = BoxParams8(1.0, 2.0, 0.5, 3.0, 1.5, 1.2, 0.3, 0.9)
        value, grad = center_term_grad(pred, target)
        assert value == 0.0
        assert grad.as_array().tolist() == [0.0] * 8

    def test_value_matches_geometry_term(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            pred, target = random_overlapping_pair(rng, alpha=0.5)
            value, _ = center_term_grad(pred, target)
            assert value == center_distance_term(pred, target)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            pred, target = random_overlapping_pair(rng, alpha=0.5, margin=1e-3)
            _, grad = center_term_grad(pred, target)
            numeric = finite_difference_grad(
                pred, target, 0.5,
                loss_fn=lambda p, t, a: center_distance_term(p, t))
            assert np.allclose(grad.as_array(), numeric, rtol=1e-5, atol=1e-8)

    def test_yaw_components_identically_zero(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            pred, target = random_overlapping_pair(rng, alpha=0.5)
            _, grad = center_term_grad(pred, target)
            assert grad.d_s == 0.0
            assert grad.d_c == 0.0

    def test_sample_grad_is_componentwise_sum(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            pred, target = random_overlapping_pair(rng, alpha=0.5)
            value, grad = regression_sample_grad(pred, target, 0.5)
            manual = (rwiou_loss_grad(pred, target, 0.5)
                      + center_term_grad(pred, target)[1])
            assert np.array_equal(grad.as_array(), manual.as_array())
            assert value == regression_sample_loss(pred, target, 0.5)


class TestFiniteDifferenceAgreement:
    def test_gradient_check_passes(self):
        report = gradient_check(n_samples=500, seed=1)
        assert report.passed
        assert report.n_failures == 0

    def test_spot_agreement_away_from_breakpoints(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            pred, target = random_overlapping_pair(rng, alpha=0.5, margin=1e-3)
            analytic = rwiou_loss_grad(pred, target, 0.5).as_array()
            numeric = finite_difference_grad(pred, target, 0.5)
            assert np.allclose(analytic, numeric, rtol=1e-5, atol=1e-8)

    def test_perturbations_equal_validated_boxes(self):
        rng = np.random.default_rng(18)
        pred, target = random_overlapping_pair(rng, alpha=0.5)
        built = []

        def record(p, t, a):
            built.append(p)
            return rwiou_loss(p, t, a)

        finite_difference_grad(pred, target, 0.5, loss_fn=record)
        assert len(built) == 16
        for p in built:
            checked = BoxParams8.from_array(p.as_array())
            assert checked == p
            assert all(type(getattr(p, name)) is float for name in "xyzlwhsc")

    @pytest.mark.parametrize("channel", [3, 4, 5, 0])
    def test_step_past_a_tiny_size_raises(self, channel):
        # Channel 0 sits at the largest float, where the step overflows.
        values = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0]
        target = BoxParams8(*values)
        values[channel] = 1.7976931348623157e308 if channel == 0 else 1e-7
        with pytest.raises(ValueError):
            finite_difference_grad(BoxParams8(*values), target, 0.5)

    @pytest.mark.parametrize("rel_step", [0.0, 1e-20])
    def test_vanishing_step_raises(self, rel_step):
        # 0.5 + 1e-20 rounds to 0.5: the step would divide 0 by 0.
        with pytest.raises(ValueError, match=f"^finite-difference step {rel_step!r} takes "
                                             "x = 0.5 out of range$"):
            finite_difference_grad(PROBE, UNIT_CUBE, 0.5, rel_step=rel_step)

    def test_report_is_deterministic(self):
        a = gradient_check(n_samples=50, seed=3)
        b = gradient_check(n_samples=50, seed=3)
        assert a.max_rel_err == b.max_rel_err
        assert a.max_abs_err == b.max_abs_err
        assert a.worst == b.worst

    def test_report_json_roundtrip(self):
        report = gradient_check(n_samples=50, seed=4)
        payload = report.to_json_dict()
        assert payload["passed"] is True
        assert payload["n_samples"] == 50
        assert set(payload) >= {
            "n_samples", "seed", "alpha", "rel_tol", "abs_floor",
            "max_abs_err", "max_rel_err", "n_failures", "worst", "passed",
        }

    @pytest.mark.parametrize("check", [gradient_check, gradient_bound_audit])
    @pytest.mark.parametrize("n_samples,message", [
        (2.7, "expected an integer, got 2.7"),
        (-3, "expected an integer >= 1, got -3"),
        (0, "expected an integer >= 1, got 0"),
        (True, "expected int, got bool"),
        ("10", "expected int, got str"),
    ])
    def test_rejects_malformed_sample_counts(self, check, n_samples, message):
        with pytest.raises(ValueError, match=f"^n_samples: {re.escape(message)}$"):
            check(n_samples=n_samples, seed=0)

    @pytest.mark.parametrize("check", [gradient_check, gradient_bound_audit])
    def test_rejects_negative_seed(self, check):
        with pytest.raises(ValueError, match="^seed: expected a non-negative integer, got -1$"):
            check(n_samples=10, seed=-1)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            gradient_check(n_samples=10, seed=0, alpha=1.5)
        with pytest.raises(ValueError):
            rwiou_loss_grad(PROBE, PROBE, -0.1)


def rows_of(pairs):
    """``(pred, target)`` channel rows of ``BoxParams8`` pairs."""
    return (np.array([p.as_array() for p, _ in pairs]),
            np.array([t.as_array() for _, t in pairs]))


class TestSamplerDraws:
    """The row samplers draw each attempt's values with one generator call
    per kind and map and test a round of attempts in array passes; the
    ``helpers`` references make one ``rng.uniform`` or ``rng.normal`` call
    per value and test pair by pair.  Each sampler must give the
    reference's rows bit for bit and leave the generator where the
    reference leaves it."""

    # One call draws a pair, two, a chunk less one, a chunk and more than a
    # chunk.  A margin makes the overlapping sampler reject attempts and
    # draw in several rounds; the left-overlap sampler's x-face test
    # rejects attempts within a round.
    SIZES = [1, 2, 255, 256, 300]
    # Each sampler's (alpha, margin) cases: the bound audit's margin 0, then
    # the margins of the gradient check and of a wider test.
    CASES = {
        "overlapping": [(alpha, 0.0) for alpha in (0.0, 0.5, 1.0)],
        "overlapping_margin": [(alpha, margin) for alpha in (0.0, 0.5, 1.0)
                               for margin in (1e-4, 0.05)],
        "left_overlap": [(0.5, 0.0)],
        "center_aligned": [(0.5, 0.0)],
    }

    @pytest.mark.parametrize("kind", list(CASES))
    def test_sampler_equals_scalar_draws(self, kind):
        # Seeds 0-199 are dealt over the four kinds, 50 each.  A kind's j-th
        # seed draws SIZES[j % 5] pairs in case cases[j % k]: with k coprime
        # to 5, the 50 seeds meet every (size, case) pair, about 8,000 pairs
        # in all.  A reference pair takes 30-40 us.
        cases = self.CASES[kind]
        offset = list(self.CASES).index(kind)
        for j, seed in enumerate(range(offset, 200, len(self.CASES))):
            alpha, margin = cases[j % len(cases)]
            self.check(kind, seed, self.SIZES[j % len(self.SIZES)], alpha, margin)

    def test_margin_near_the_weight_clamp(self):
        # At alpha 1 a margin of 0.3 rejects every |delta| in (1.4, 2.6),
        # where a channel weight 1 - |delta| / 2 is within 0.3 of its clamp;
        # the margins above almost never meet that test.
        for seed in range(10):
            self.check("overlapping_margin", seed, 20, 1.0, 0.3)

    @staticmethod
    def check(kind, seed, n, alpha, margin):
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        if kind == "left_overlap":
            got, want = _left_overlap_rows(rng, n), [
                scalar_left_overlap_pair(rng_ref) for _ in range(n)]
        elif kind == "center_aligned":
            got, want = _center_aligned_rows(rng, n), [
                scalar_center_aligned_pair(rng_ref) for _ in range(n)]
        else:
            got, want = _overlapping_rows(rng, n, alpha, margin), [
                scalar_overlapping_pair(rng_ref, alpha, margin) for _ in range(n)]
        for rows, boxes in zip(got, rows_of(want)):
            assert rows.tobytes() == boxes.tobytes(), seed
        assert rng.bit_generator.state == rng_ref.bit_generator.state, seed

    def test_public_pair_is_one_row(self):
        for seed in range(20):
            rng, rng_rows = np.random.default_rng(seed), np.random.default_rng(seed)
            pred, target = random_overlapping_pair(rng, alpha=1.0, margin=0.05)
            preds, targets = _overlapping_rows(rng_rows, 1, 1.0, 0.05)
            assert pred == BoxParams8(*preds[0]) and target == BoxParams8(*targets[0])
            assert all(type(getattr(box, name)) is float
                       for box in (pred, target) for name in "xyzlwhsc")
            assert rng.bit_generator.state == rng_rows.bit_generator.state

    def test_draws_equal_per_value_calls(self):
        # The samplers' uniform and normal maps against one generator call
        # per value.
        bounds = [(-5.0, 5.0), (0.6, 5.0), (0.0, 2.0 * math.pi), (0.05, 0.95), (-1e3, 1e-3)]
        scales = np.array([0.6, 0.05, 1.0, 3.7])
        for seed in range(200):
            rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = [*_map_uniform(_ranges(*bounds), rng.random(len(bounds))).tolist(),
                   *_map_normal(scales, rng.standard_normal(len(scales))).tolist()]
            want = ([float(rng_ref.uniform(low, high)) for low, high in bounds]
                    + [float(rng_ref.normal(0.0, scale)) for scale in scales.tolist()])
            assert [v.hex() for v in got] == [v.hex() for v in want], seed


def range_bounds(ranges, i):
    """The ``(low, high)`` of the ``i``-th range of a ``_ranges`` pair."""
    low, span = ranges
    return float(low[i]), float(low[i] + span[i])


def least_overlap(shifts, factors):
    """Least overlap, as a fraction of the target's size on one axis, of a
    prediction whose center moves by a fraction in ``shifts`` of that size
    and whose size is the target's times a factor in ``factors``.  The
    overlap ``min(1/2, s + f/2) - max(-1/2, s - f/2)`` is concave in
    ``(s, f)``, so a corner of the ranges is least."""
    return min(min(0.5, s + 0.5 * f) - max(-0.5, s - 0.5 * f)
               for s in shifts for f in factors)


class TestSamplerRanges:
    """Neither row sampler tests for overlap: the ranges make every pair
    overlap.  A range change that could draw a disjoint pair fails here
    instead of silently changing the draws."""

    def test_least_overlap_is_positive(self):
        sizes = [range_bounds(_BOX, 3 + i)[0] for i in range(3)]
        # _overlapping_rows: per axis, a center shift and a size factor.
        perturbed = [sizes[i] * least_overlap(range_bounds(_PERTURB, i),
                                              range_bounds(_PERTURB, 3 + i))
                     for i in range(3)]
        # _left_overlap_rows: y and z as above; in x the accepted faces
        # overlap by the slide shift 0.5 * (l_t + l_p) * u.
        sliding = [sizes[i] * least_overlap(range_bounds(_SLIDE_YZ, i - 1),
                                            range_bounds(_SLIDE, i))
                   for i in (1, 2)]
        slide_x = 0.5 * sizes[0] * (1.0 + range_bounds(_SLIDE, 0)[0]) * range_bounds(_SLIDE, 3)[0]
        # At least 0.18, 0.33 and 0.0255 with the committed ranges.
        assert min(perturbed) > 0.0 and min(sliding) > 0.0 and slide_x > 0.0

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_drawn_pairs_overlap(self, alpha):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            for preds, targets in (_overlapping_rows(rng, 256, alpha, 0.0),
                                   _left_overlap_rows(rng, 256)):
                assert all(aabb_intersection_volume(BoxParams8(*p), BoxParams8(*t)) > 0.0
                           for p, t in zip(preds.tolist(), targets.tolist())), seed

    @pytest.mark.parametrize("margin", [math.inf, 10.0, 0.5 + 1e-9, -1e-3, math.nan])
    def test_margin_out_of_range_is_refused(self, margin):
        # Past 2/3 at alpha 1, and past about 1 at any alpha, the margin
        # test rejects every attempt and the rejection loop never ends.
        with pytest.raises(ValueError, match=r"^margin must lie in \[0, 0\.5\]"):
            random_overlapping_pair(np.random.default_rng(0), 0.5, margin)
        with pytest.raises(ValueError, match=r"^margin must lie in \[0, 0\.5\]"):
            gradient_check(100, 0, 0.5, margin=margin)

    @pytest.mark.parametrize("alpha,margin", [(5.0, 0.3), (-3.0, 0.0), (math.nan, 0.0)])
    def test_alpha_out_of_range_is_refused(self, alpha, margin):
        # As gradient_check and every loss refuse it.
        with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\], got "):
            random_overlapping_pair(np.random.default_rng(0), alpha, margin)
        with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\], got "):
            gradient_check(100, 0, alpha, margin=margin)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_widest_margin_draws(self, alpha):
        pred, target = random_overlapping_pair(np.random.default_rng(0), alpha, 0.5)
        assert reference_margin_ok(pred, target, alpha, 0.5)


class TestMagnitudeBounds:
    def test_audit_passes(self):
        audit = gradient_bound_audit(n_samples=400, seed=2)
        assert audit.passed
        names = {regime.regime for regime in audit.regimes}
        assert names == {
            "sin_cos_channel", "center_overlap", "scale_center_aligned",
        }
        for regime in audit.regimes:
            assert regime.n_violations == 0
            assert regime.n_samples == 400

    def test_sin_cos_bound_direct(self):
        rng = np.random.default_rng(18)
        for alpha in (0.3, 0.5, 1.0):
            for _ in range(100):
                pred, target = random_overlapping_pair(rng, alpha=alpha)
                grad = rwiou_loss_grad(pred, target, alpha)
                assert abs(grad.d_s) <= alpha + 1e-9
                assert abs(grad.d_c) <= alpha + 1e-9

    def test_audit_json_roundtrip(self):
        audit = gradient_bound_audit(n_samples=50, seed=5)
        payload = audit.to_json_dict()
        assert payload["passed"] is True
        assert len(payload["regimes"]) == 3
        for regime in payload["regimes"]:
            assert regime["n_violations"] == 0


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(box=box_strategy(), alpha=st.floats(0, 1))
    def test_self_loss_zero(self, box, alpha):
        params = BoxParams8.from_box(box)
        assert rwiou_loss(params, params, alpha) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(b1=box_strategy(), b2=box_strategy(), alpha=st.floats(0, 1))
    def test_loss_range_and_finite_grads(self, b1, b2, alpha):
        pred = BoxParams8.from_box(b1)
        target = BoxParams8.from_box(b2)
        loss = rwiou_loss(pred, target, alpha)
        assert 0.0 <= loss <= 1.0
        grad = rwiou_loss_grad(pred, target, alpha)
        assert np.all(np.isfinite(grad.as_array()))

    @settings(max_examples=60, deadline=None)
    @given(b1=box_strategy(), b2=box_strategy())
    def test_sample_loss_range(self, b1, b2):
        pred = BoxParams8.from_box(b1)
        target = BoxParams8.from_box(b2)
        value = regression_sample_loss(pred, target, 0.5)
        assert 0.0 <= value < 2.0


def scalar_rows(pred, target, alpha):
    """``regression_sample_grad`` row by row, as (values, grads) arrays."""
    values, grads = [], []
    for p, t in zip(pred.tolist(), target.tolist()):
        value, grad = regression_sample_grad(BoxParams8(*p), BoxParams8(*t), alpha)
        values.append(value)
        grads.append(grad.as_array())
    return np.array(values), np.array(grads).reshape(-1, 8)


def assert_batch_matches_scalar(pred, target, alpha):
    values, grads = regression_sample_grad_batch(pred, target, alpha)
    expected_values, expected_grads = scalar_rows(pred, target, alpha)
    # Byte comparison, so a zero of the wrong sign counts as a mismatch.
    assert values.tobytes() == expected_values.tobytes()
    assert grads.tobytes() == expected_grads.tobytes()


# Multiples of 1/8: face coordinates and gaps built from them are exact, so
# ties and touching faces hold exactly in floating point.
DYADIC = st.integers(-64, 64).map(lambda k: k / 8)
DYADIC_SIZE = st.integers(1, 48).map(lambda k: k / 8)


@st.composite
def kink_pair(draw):
    """A (pred, target, alpha) row pair sitting on one of the loss's kinks."""
    target = np.array([draw(DYADIC), draw(DYADIC), draw(DYADIC),
                       draw(DYADIC_SIZE), draw(DYADIC_SIZE), draw(DYADIC_SIZE), 0.0, 0.0])
    yaw = draw(st.floats(-math.pi, math.pi))
    target[6:8] = math.sin(yaw), math.cos(yaw)
    pred = target.copy()
    alpha = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    kind = draw(st.sampled_from(["equal", "touching", "disjoint", "clamp", "sign0"]))
    if kind in ("touching", "disjoint"):
        axis = draw(st.integers(0, 2))
        side = draw(st.sampled_from([-1.0, 1.0]))
        pred[3 + axis] = draw(DYADIC_SIZE)
        gap = 0.0 if kind == "touching" else draw(DYADIC_SIZE)
        pred[axis] = target[axis] + side * (0.5 * target[3 + axis] + 0.5 * pred[3 + axis] + gap)
    elif kind == "clamp":
        # |s_p - s_t| = 2 at alpha = 1 puts the raw weight exactly on 0.
        alpha = 1.0
        target[6] = 1.0
        pred[6] = -1.0
    elif kind == "sign0":
        pred[7] = draw(st.floats(-1.5, 1.5))
    if kind != "equal" and draw(st.booleans()):
        # Move a second axis by a dyadic step: ties elsewhere stay exact.
        other = draw(st.integers(0, 2))
        pred[other] += draw(DYADIC) / 4
        pred[3 + other] = draw(DYADIC_SIZE)
    return pred, target, alpha


class TestRegressionSampleGradBatch:
    @pytest.mark.parametrize("alpha,n", [(0.5, 20_000), (0.0, 3_000), (1.0, 3_000)])
    def test_matches_scalar_bitwise_on_random_pairs(self, alpha, n):
        # Mostly overlapping pairs with free s/c channels, as in a fit; some
        # rows end up disjoint along an axis.
        rng = np.random.default_rng(21)
        yaw = rng.uniform(-math.pi, math.pi, n)
        target = np.column_stack([rng.uniform(-5, 5, (n, 3)), rng.uniform(0.6, 5, (n, 3)),
                                  np.sin(yaw), np.cos(yaw)])
        pred = target.copy()
        pred[:, 0:3] += rng.uniform(-0.6, 0.6, (n, 3)) * target[:, 3:6]
        pred[:, 3:6] *= rng.uniform(0.6, 1.6, (n, 3))
        pred[:, 6:8] = np.column_stack([np.sin(yaw), np.cos(yaw)]) + rng.normal(0, 0.3, (n, 2))
        assert_batch_matches_scalar(pred, target, alpha)

    def test_equal_rows_take_the_tie_weights(self):
        target = np.array([[0.5, -1.0, 0.25, 2.0, 1.5, 1.0, 0.6, 0.8]])
        values, grads = regression_sample_grad_batch(target, target.copy(), 0.5)
        assert values.tolist() == [0.0]
        # The 1/2 face weights cancel the geometry; sign(0) := +1 leaves the
        # one-sided value alpha on s and c.
        assert grads[0].tolist() == [0.0] * 6 + [0.5, 0.5]
        assert_batch_matches_scalar(target, target.copy(), 0.5)

    @settings(max_examples=200, deadline=None)
    @given(case=kink_pair())
    def test_matches_scalar_bitwise_on_kinks(self, case):
        pred, target, alpha = case
        assert_batch_matches_scalar(pred[None, :], target[None, :], alpha)

    def test_kinks_stacked_in_one_batch(self):
        # Touching, disjoint, clamped and sign(0) rows side by side.
        target = np.tile([0.0, 0.0, 0.0, 2.0, 2.0, 2.0, 1.0, 0.0], (5, 1))
        pred = target.copy()
        pred[1, 0] = 2.0            # faces touch: gap exactly 0
        pred[2, 0] = 2.5            # disjoint
        pred[3, 6] = -1.0           # |ds| = 2, clamps at alpha = 1
        pred[4, 7] = 0.3            # s_p == s_t: sign(0)
        assert_batch_matches_scalar(pred, target, 1.0)
        assert_batch_matches_scalar(pred, target, 0.5)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            regression_sample_grad_batch(np.ones((1, 8)), np.ones((1, 8)), -0.1)


def scalar_rwiou_rows(pred, target, alpha):
    """``rwiou_loss`` and ``rwiou_loss_grad`` row by row, as arrays."""
    pairs = [(BoxParams8(*p), BoxParams8(*t)) for p, t in zip(pred.tolist(), target.tolist())]
    values = np.array([rwiou_loss(p, t, alpha) for p, t in pairs])
    grads = np.array([rwiou_loss_grad(p, t, alpha).as_array() for p, t in pairs]).reshape(-1, 8)
    return values, grads


def assert_rows_match_scalar(pred, target, alpha):
    rows = _RwiouRows(pred, target, alpha)
    values, grads = scalar_rwiou_rows(pred, target, alpha)
    assert rows.loss.tobytes() == values.tobytes()
    assert np.column_stack(rows.grad()).tobytes() == grads.tobytes()


def overlapping_rows(seed, n, alpha=0.5):
    """``n`` gradient-check pairs as (pred, target) channel rows."""
    return _overlapping_rows(np.random.default_rng(seed), n, alpha, 1e-4)


def row_fd(pred, target, alpha):
    """The gradient check's numerical side over rows."""
    stepped_targets = np.repeat(target, 16, axis=0)
    return _fd_rows(pred, lambda s: _RwiouRows(s, stepped_targets, alpha).loss, 1e-6)


class TestRwiouRows:
    """The RWIoU row passes equal ``rwiou_loss`` and ``rwiou_loss_grad``
    byte for byte, and the row finite differences equal the scalar loop."""

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_matches_scalar_on_random_pairs(self, alpha):
        rng = np.random.default_rng(23)
        n = 2_000
        yaw = rng.uniform(-math.pi, math.pi, n)
        target = np.column_stack([rng.uniform(-5, 5, (n, 3)), rng.uniform(0.6, 5, (n, 3)),
                                  np.sin(yaw), np.cos(yaw)])
        pred = target.copy()
        pred[:, 0:3] += rng.uniform(-0.8, 0.8, (n, 3)) * target[:, 3:6]
        pred[:, 3:6] *= rng.uniform(0.6, 1.6, (n, 3))
        pred[:, 6:8] += rng.normal(0, 0.8, (n, 2))
        assert_rows_match_scalar(pred, target, alpha)

    @settings(max_examples=200, deadline=None)
    @given(case=kink_pair())
    def test_matches_scalar_on_kinks(self, case):
        # Dyadic ties, touching faces, disjoint boxes and clamped weights.
        pred, target, alpha = case
        assert_rows_match_scalar(pred[None, :], target[None, :], alpha)

    def test_kinks_stacked_in_one_pass(self):
        target = np.tile([0.0, 0.0, 0.0, 2.0, 2.0, 2.0, 1.0, 0.0], (6, 1))
        pred = target.copy()
        pred[1, 0] = 2.0            # faces touch: gap exactly 0
        pred[2, 0] = 2.5            # disjoint
        pred[3, 6] = -1.0           # |ds| = 2, clamps at alpha = 1
        pred[4, 7] = 0.3            # s_p == s_t: sign(0)
        pred[5, 1:6] = [0.5, -0.5, 2.0, 1.0, 1.0]   # y's hi and z's lo faces tie
        for alpha in (0.0, 0.5, 1.0):
            assert_rows_match_scalar(pred, target, alpha)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_row_fd_equals_scalar_fd(self, alpha):
        pred, target = overlapping_rows(24, 300, alpha)
        expected = np.array([reference_finite_difference_grad(BoxParams8(*p), BoxParams8(*t), alpha)
                             for p, t in zip(pred.tolist(), target.tolist())])
        assert row_fd(pred, target, alpha).tobytes() == expected.tobytes()

    def test_public_fd_equals_scalar_fd(self):
        pred, target = overlapping_rows(25, 50)
        for p, t in zip(pred.tolist(), target.tolist()):
            p, t = BoxParams8(*p), BoxParams8(*t)
            for loss_fn in (rwiou_loss, regression_sample_loss):
                got = finite_difference_grad(p, t, 0.5, loss_fn=loss_fn)
                want = reference_finite_difference_grad(p, t, 0.5, loss_fn=loss_fn)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("offenders,first", [
        ({(1, 4): 1e-7, (2, 3): 1e-7}, 1),
        ({(2, 3): 1e-7, (3, 0): 1.7976931348623157e308}, 2),
        ({(3, 0): 1.7976931348623157e308}, 3),
    ])
    def test_first_offending_row_raises(self, offenders, first):
        # Later rows step a size to <= 0 or overflow; the message is the
        # scalar FD's for the first offending (row, channel).
        pred, target = overlapping_rows(26, 4)
        for (row, channel), value in offenders.items():
            pred[row, channel] = value
        with pytest.raises(ValueError) as scalar:
            reference_finite_difference_grad(BoxParams8(*pred[first]), BoxParams8(*target[first]),
                                             0.5)
        with pytest.raises(ValueError, match=f"^{re.escape(str(scalar.value))}$"):
            row_fd(pred, target, 0.5)


def report_json(report) -> str:
    return json.dumps(report.to_json_dict())


class TestChunkedChecks:
    """The chunked gradient check and bound audit give the per-sample loops'
    reports (``helpers``) byte for byte."""

    @pytest.mark.parametrize("n_samples,seed,alpha", [
        (1, 0, 0.5),
        (2 * _CHECK_CHUNK + 37, 5, 0.0),
        (2 * _CHECK_CHUNK + 37, 6, 0.5),
        (2 * _CHECK_CHUNK + 37, 7, 1.0),
        (10_000, 0, 0.5),
    ])
    def test_reports_equal_per_sample_loops(self, n_samples, seed, alpha):
        assert (report_json(gradient_check(n_samples, seed, alpha))
                == report_json(reference_gradient_check(n_samples, seed, alpha)))
        assert (report_json(gradient_bound_audit(n_samples, seed, alpha))
                == report_json(reference_gradient_bound_audit(n_samples, seed, alpha)))

    def test_failures_equal_per_sample_loop(self):
        # Tight tolerances fail some components, and components where one
        # side is 0 tie at relative error 1: this pins n_failures and the
        # first of equal maxima as worst.
        n_samples = 2 * _CHECK_CHUNK + 37
        report = gradient_check(n_samples, 9, 0.5, rel_tol=1e-7, abs_floor=1e-12)
        assert report.n_failures > 0 and report.max_rel_err == 1.0
        assert report_json(report) == report_json(
            reference_gradient_check(n_samples, 9, 0.5, rel_tol=1e-7, abs_floor=1e-12))

    def test_violations_equal_per_sample_loop(self, monkeypatch):
        # A slack of -1 makes nearly every sample a violation, which pins
        # the count, the first five entries in order and max_observed.
        monkeypatch.setattr(bevbox.gradients, "BOUND_SLACK", -1.0)
        n_samples = 2 * _CHECK_CHUNK + 37
        audit = gradient_bound_audit(n_samples, 8, 0.5)
        assert report_json(audit) == report_json(reference_gradient_bound_audit(n_samples, 8, 0.5))
        assert all(len(r.violations) == 5 and r.n_violations > n_samples // 2
                   for r in audit.regimes)


class TestGrad8:
    def test_zeros_and_add(self):
        zero = Grad8.zeros()
        assert zero.as_array().tolist() == [0.0] * 8
        one = Grad8(1, 2, 3, 4, 5, 6, 7, 8)
        total = one + one
        assert total.as_array().tolist() == [2, 4, 6, 8, 10, 12, 14, 16]
