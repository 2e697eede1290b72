"""Tests for the analytic overlap-loss gradients.

The interesting points of this loss are its kinks: exact parameter equality,
disjoint footprints, faces that touch with zero gap, and a fully saturated
rotation weight. Each gets closed-form assertions here; generic correctness
away from the kinks is covered by finite differences and the magnitude audit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevbox import (
    Box3D,
    BoxParams8,
    Grad8,
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
    center_term_grad,
    random_overlapping_pair,
    regression_sample_grad_batch,
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

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            gradient_check(n_samples=10, seed=0, alpha=1.5)
        with pytest.raises(ValueError):
            rwiou_loss_grad(PROBE, PROBE, -0.1)


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


class TestGrad8:
    def test_zeros_and_add(self):
        zero = Grad8.zeros()
        assert zero.as_array().tolist() == [0.0] * 8
        one = Grad8(1, 2, 3, 4, 5, 6, 7, 8)
        total = one + one
        assert total.as_array().tolist() == [2, 4, 6, 8, 10, 12, 14, 16]
