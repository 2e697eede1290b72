"""Tests for the loss terms and their recombination.

Scene-level losses are checked against independent oracles built inline from
the scalar primitives; the primitives themselves are pinned to hand-derived
values (quality focal at p = 0.5 equals ln(2)/4, the smooth-L1 knee sits at
beta, and so on).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevbox import (
    AssignmentResult,
    Box3D,
    BoxParams8,
    CellIndex,
    GroundTruth,
    LossReport,
    LossWeights,
    PredictionMap,
    assign_dcla,
    classification_loss,
    iou_prediction_loss,
    quality_focal,
    quality_focal_with_grad,
    regression_loss_scene,
    regression_sample_grad,
    regression_sample_loss,
    rotated_iou_exact,
    selection_cost,
    smooth_l1,
    smooth_l1_with_grad,
    total_loss,
)
from bevbox.losses import SCORE_EPS
from helpers import random_scene, reference_quality_focal_with_grad


class TestQualityFocal:
    def test_frozen_value(self):
        # |1 - 0.5|^2 * (-log 0.5) = ln(2) / 4
        v = quality_focal(0.5, 1.0, 2.0)
        assert v == 0.17328679513998632
        assert v == 0.25 * math.log(2.0)

    def test_exact_match_is_exactly_zero(self):
        for p in (0.0, 0.25, 0.5, 1.0):
            assert quality_focal(p, p, 2.0) == 0.0
            assert quality_focal(p, p, 4.0) == 0.0

    def test_saturated_score_stays_finite(self):
        v = quality_focal(0.0, 1.0, 2.0)
        assert math.isfinite(v)
        assert v == pytest.approx(-math.log(SCORE_EPS), rel=1e-12)
        assert math.isfinite(quality_focal(1.0, 0.0, 2.0))

    def test_gamma_zero_is_weighted_cross_entropy(self):
        p, q = 0.3, 0.7
        expected = -(q * math.log(p) + (1.0 - q) * math.log(1.0 - p))
        assert quality_focal(p, q, 0.0) == expected

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0.0, 1.0, (4, 5))
        q = rng.uniform(0.0, 1.0, (4, 5))
        arr = quality_focal(p, q, 2.0)
        assert arr.shape == (4, 5)
        for i in range(4):
            for j in range(5):
                assert arr[i, j] == quality_focal(float(p[i, j]), float(q[i, j]), 2.0)

    def test_grad_finite_difference(self):
        h = 1e-7
        for p in (0.2, 0.35, 0.6, 0.85):
            for q in (0.0, 0.4, 1.0):
                _, grad = quality_focal_with_grad(p, q, 2.0)
                numeric = (quality_focal(p + h, q, 2.0)
                           - quality_focal(p - h, q, 2.0)) / (2.0 * h)
                assert grad == pytest.approx(numeric, rel=1e-5, abs=1e-8)

    def test_grad_zero_at_match(self):
        value, grad = quality_focal_with_grad(0.3, 0.3, 2.0)
        assert value == 0.0
        assert grad == 0.0

    def test_grad_at_saturation_points_inward(self):
        _, grad = quality_focal_with_grad(0.0, 1.0, 2.0)
        assert math.isfinite(grad)
        assert grad < 0.0
        _, grad = quality_focal_with_grad(1.0, 0.0, 2.0)
        assert math.isfinite(grad)
        assert grad > 0.0

    def test_with_grad_value_matches_plain(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(0.0, 1.0, 30)
        q = rng.uniform(0.0, 1.0, 30)
        value, _ = quality_focal_with_grad(p, q, 2.0)
        assert np.array_equal(value, quality_focal(p, q, 2.0))

    def test_one_formula_for_value_gradient_and_scalars(self):
        # One implementation: the value returned with the gradient is the
        # plain value, and Python floats take the array path's bits (a
        # numpy scalar ** would call pow and differ on ~0.1% of inputs).
        rng = np.random.default_rng(4)
        n = 200_000
        p = rng.uniform(0.0, 1.0, n)
        q = np.where(rng.uniform(size=n) < 0.5, 0.0, rng.uniform(0.0, 1.0, n))
        q[rng.uniform(size=n) < 0.1] = 1.0
        for gamma in (0.0, 1.0, 2.0, 4.0):
            value, _ = quality_focal_with_grad(p, q, gamma)
            assert value.tobytes() == quality_focal(p, q, gamma).tobytes()
        array = quality_focal(p, q, 2.0)
        scalar = np.array([quality_focal(a, b, 2.0) for a, b in zip(p.tolist(), q.tolist())])
        assert scalar.tobytes() == array.tobytes()
        value, grad = quality_focal_with_grad(p[:2000], q[:2000], 2.0)
        for i, (a, b) in enumerate(zip(p[:2000].tolist(), q[:2000].tolist())):
            v, g = quality_focal_with_grad(a, b, 2.0)
            assert v.shape == g.shape == ()
            assert v.tobytes() == value[i].tobytes() and g.tobytes() == grad[i].tobytes()

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0, 4.0])
    def test_q_zero_form_matches_full_formula_bitwise(self, gamma):
        # Compared as bytes, so signed zeros count.  Mostly q == 0 as on a
        # heatmap, with scores on the clamp edges, saturated and subnormal.
        rng = np.random.default_rng(5)
        n = 250_000
        edges = np.array([0.0, -0.0, SCORE_EPS, 1.0 - SCORE_EPS, 1.0, 5e-324, 1e-310,
                          0.5 * SCORE_EPS, 1.0 - 0.5 * SCORE_EPS])
        p = np.where(rng.uniform(size=n) < 0.4, rng.choice(edges, n), rng.uniform(0.0, 1.0, n))
        q = np.zeros(n)
        heat = rng.uniform(size=n) < 0.05
        q[heat] = rng.choice(np.array([1.0, 0.5, SCORE_EPS, 5e-324]), int(heat.sum()))
        some = rng.uniform(size=n) < 0.05
        q[some] = rng.uniform(0.0, 1.0, int(some.sum()))
        # Outside [0, 1] too: the formula is defined there.
        off = rng.uniform(size=n) < 0.01
        q[off] = rng.uniform(-0.5, 1.5, int(off.sum()))
        off = rng.uniform(size=n) < 0.01
        p[off] = rng.uniform(-0.5, 1.5, int(off.sum()))
        p, q = p.reshape(-1, 50, 5), q.reshape(-1, 50, 5)
        value, grad = quality_focal_with_grad(p, q, gamma)
        ref_value, ref_grad = reference_quality_focal_with_grad(p, q, gamma)
        assert value.tobytes() == ref_value.tobytes()
        assert grad.tobytes() == ref_grad.tobytes()

    def test_broadcast_and_scalar_shapes(self):
        value, grad = quality_focal_with_grad(np.array([0.2, 0.0, 0.9]), 0.0)
        ref_value, ref_grad = reference_quality_focal_with_grad(np.array([0.2, 0.0, 0.9]), 0.0)
        assert value.tobytes() == ref_value.tobytes() and grad.tobytes() == ref_grad.tobytes()
        assert quality_focal_with_grad(0.5, np.array([[0.0, 1.0]]))[1].shape == (1, 2)
        assert isinstance(quality_focal(0.5, 0.0), float)
        assert quality_focal(np.array([0.5]), 0.0).shape == (1,)


class TestSmoothL1:
    def test_frozen_values(self):
        assert smooth_l1(0.0) == 0.0
        assert smooth_l1(0.5) == 0.125
        assert smooth_l1(1.0) == 0.5
        assert smooth_l1(1.5) == 1.0
        assert smooth_l1(-1.5) == 1.0

    def test_beta_scaling(self):
        assert smooth_l1(0.5, beta=2.0) == 0.0625
        assert smooth_l1(-3.0, beta=2.0) == 2.0

    def test_continuous_at_knee(self):
        eps = 1e-9
        inner = smooth_l1(1.0 - eps)
        outer = smooth_l1(1.0 + eps)
        assert abs(inner - outer) < 1e-8

    def test_grad(self):
        _, g = smooth_l1_with_grad(0.5)
        assert g == 0.5
        _, g = smooth_l1_with_grad(-0.25)
        assert g == -0.25
        _, g = smooth_l1_with_grad(1.5)
        assert g == 1.0
        _, g = smooth_l1_with_grad(-7.0)
        assert g == -1.0

    def test_grad_finite_difference(self):
        h = 1e-7
        for d in (-2.5, -0.7, 0.3, 0.999, 1.8):
            _, grad = smooth_l1_with_grad(d)
            numeric = (smooth_l1(d + h) - smooth_l1(d - h)) / (2.0 * h)
            assert float(grad) == pytest.approx(numeric, rel=1e-5, abs=1e-8)

    @settings(max_examples=50, deadline=None)
    @given(d=st.floats(-10, 10), beta=st.floats(0.1, 3))
    def test_value_nonnegative_and_below_abs(self, d, beta):
        v = smooth_l1(d, beta=beta)
        assert v >= 0.0
        assert v <= abs(d) + 1e-12


def candidate_table(cells, gt_of, positive_slots, best_slots, **values):
    """The table fields of a hand-built result: one slot per ``(cell, gt)``,
    with the per-slot arrays in ``values`` and zeros for the rest."""
    n = len(cells)
    table = {"costs": np.zeros(n), "ious": np.zeros(n),
             "regression_values": np.zeros(n), "regression_grads": np.zeros((n, 8))}
    table.update({name: np.array(v, dtype=float) for name, v in values.items()})
    return dict(table, cand_rows=np.array([c.row for c in cells], dtype=np.intp),
                cand_cols=np.array([c.col for c in cells], dtype=np.intp),
                cand_gt=np.array(gt_of, dtype=np.intp),
                positive_slots=np.array(positive_slots, dtype=np.intp),
                best_slots=np.array(best_slots, dtype=np.intp))


def single_positive_assignment(rows, cols, n_classes, cell, class_id,
                               extra_heat=(), gt=None, preds=None):
    """Assignment with one positive cell plus optional negative weights.

    Given ``gt`` and ``preds``, the positive's slot carries its cost, IoU,
    regression value and gradient from the public scalar functions;
    otherwise those are zeros (only the regression and IoU-prediction
    losses read them).
    """
    heatmap = np.zeros((rows, cols, n_classes))
    heatmap[cell.row, cell.col, class_id] = 1.0
    for r, c, k, w in extra_heat:
        heatmap[r, c, k] = w
    values = {}
    if gt is not None:
        pred = preds.params_at(cell)
        value, grad = regression_sample_grad(pred, BoxParams8.from_box(gt.box), 0.5)
        values = {
            "costs": [selection_cost(gt, pred, float(preds.scores[cell.row, cell.col, class_id]))],
            "ious": [rotated_iou_exact(gt.box, preds.box_at(cell))],
            "regression_values": [value], "regression_grads": grad.as_array()[None, :]}
    return AssignmentResult(requested_k=[1], heatmap=heatmap,
                            **candidate_table([cell], [0], [0], [0], **values))


def no_positive_assignment(rows, cols, n_classes):
    return AssignmentResult(requested_k=[1], heatmap=np.zeros((rows, cols, n_classes)),
                            **candidate_table([CellIndex(0, 0)], [0], [], [0]))


class TestClassificationLoss:
    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(2)
        scores = rng.uniform(0.0, 1.0, (3, 3, 2))
        boxes = np.ones((3, 3, 8))
        preds = PredictionMap(boxes=boxes, scores=scores)
        assignment = single_positive_assignment(
            3, 3, 2, CellIndex(1, 1), 0, extra_heat=[(1, 2, 0, 0.4), (0, 1, 1, 0.7)])
        value, grads = classification_loss(assignment, preds)
        q = assignment.heatmap
        p_safe = np.clip(scores, SCORE_EPS, 1.0 - SCORE_EPS)
        ce = -(q * np.log(p_safe) + (1.0 - q) * np.log1p(-p_safe))
        expected = float(np.sum(np.abs(q - scores) ** 2 * ce))
        assert value == pytest.approx(expected, rel=1e-12)
        assert grads.shape == scores.shape

    def test_grad_finite_difference(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(0.1, 0.9, (3, 3, 2))
        preds = PredictionMap(boxes=np.ones((3, 3, 8)), scores=scores)
        assignment = single_positive_assignment(
            3, 3, 2, CellIndex(0, 2), 1, extra_heat=[(2, 2, 0, 0.3)])
        _, grads = classification_loss(assignment, preds)
        h = 1e-7
        for idx in ((0, 2, 1), (2, 2, 0), (1, 1, 1)):
            bumped = scores.copy()
            bumped[idx] += h
            up, _ = classification_loss(
                assignment, PredictionMap(boxes=np.ones((3, 3, 8)), scores=bumped))
            bumped[idx] -= 2 * h
            down, _ = classification_loss(
                assignment, PredictionMap(boxes=np.ones((3, 3, 8)), scores=bumped))
            numeric = (up - down) / (2.0 * h)
            assert grads[idx] == pytest.approx(numeric, rel=1e-4, abs=1e-7)

    def test_normalized_by_positive_count(self):
        scores = np.full((3, 3, 1), 0.5)
        preds = PredictionMap(boxes=np.ones((3, 3, 8)), scores=scores)
        one = single_positive_assignment(3, 3, 1, CellIndex(1, 1), 0)
        two = AssignmentResult(
            requested_k=[1, 1],
            heatmap=one.heatmap.copy(),
            **candidate_table([CellIndex(1, 1), CellIndex(0, 0)], [0, 1], [0, 1], [0, 1]))
        two.heatmap[0, 0, 0] = 1.0
        v1, _ = classification_loss(one, preds)
        v2, _ = classification_loss(two, preds)
        # same heatmap sum of focal terms except the added positive; the
        # normalizer doubles, so the two-positive loss is strictly smaller
        # than v1 plus the extra term
        assert two.n_positives == 2
        assert v2 < v1

    def test_shape_mismatch_raises(self):
        preds = PredictionMap(boxes=np.ones((3, 3, 8)), scores=np.full((3, 3, 2), 0.5))
        assignment = single_positive_assignment(3, 3, 1, CellIndex(1, 1), 0)
        with pytest.raises(ValueError):
            classification_loss(assignment, preds)


class TestRegressionSceneLoss:
    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(4)
        grid, gts, preds = random_scene(rng, n_gts=4)
        assignment = assign_dcla(grid, gts, preds, r=1)
        result = regression_loss_scene(assignment)
        n = assignment.n_positives
        total = 0.0
        for i, gt in enumerate(gts):
            target = BoxParams8.from_box(gt.box)
            for cell in assignment.positives[i]:
                pred = BoxParams8.from_array(preds.boxes[cell.row, cell.col])
                total += regression_sample_loss(pred, target, 0.5)
        assert result.value == pytest.approx(total / n, rel=1e-12)
        assert not result.degenerate

    def test_grads_exact_per_cell(self):
        # row j is the j-th positive's scalar gradient over N, bitwise
        rng = np.random.default_rng(5)
        grid, gts, preds = random_scene(rng, n_gts=3)
        assignment = assign_dcla(grid, gts, preds, r=1)
        result = regression_loss_scene(assignment)
        n = assignment.n_positives
        assert result.box_grads.shape == (n, 8)
        rows, cols, gt_of = assignment.positive_index()
        for j, (row, col, i) in enumerate(zip(rows, cols, gt_of)):
            pred = BoxParams8.from_array(preds.boxes[row, col])
            _, grad = regression_sample_grad(pred, BoxParams8.from_box(gts[i].box), 0.5)
            assert np.array_equal(result.box_grads[j], grad.as_array() * (1.0 / n))

    def test_per_gt_bookkeeping(self):
        rng = np.random.default_rng(6)
        grid, gts, preds = random_scene(rng, n_gts=4)
        assignment = assign_dcla(grid, gts, preds, r=1)
        result = regression_loss_scene(assignment)
        assert [p.k for p in result.per_gt] == assignment.k_per_gt
        assert [p.gt_index for p in result.per_gt] == list(range(len(gts)))
        for p in result.per_gt:
            if p.k == 0:
                assert p.mean_loss == 0.0

    def test_degenerate_scene(self):
        empty = no_positive_assignment(3, 3, 1)
        result = regression_loss_scene(empty)
        assert result.value == 0.0
        assert result.degenerate
        assert result.box_grads.shape == (0, 8)
        assert result.per_gt[0].k == 0


class TestIouPredictionLoss:
    def build_scene(self, u):
        gt = GroundTruth(Box3D(1.5, 1.5, 0.0, 2.0, 1.5, 1.0, 0.2), 0)
        pred_box = Box3D(1.8, 1.4, 0.1, 2.0, 1.5, 1.0, 0.3)
        boxes = np.tile(BoxParams8.from_box(pred_box).as_array(), (3, 3, 1))
        iou_conf = np.full((3, 3), float(u))
        preds = PredictionMap(boxes=boxes, scores=np.full((3, 3, 1), 0.5),
                              iou_conf=iou_conf)
        assignment = single_positive_assignment(3, 3, 1, CellIndex(1, 1), 0,
                                                gt=gt, preds=preds)
        return gt, preds, assignment

    def test_matches_scalar_expression(self):
        gt, preds, assignment = self.build_scene(0.3)
        value, grads = iou_prediction_loss(assignment, preds)
        iou = rotated_iou_exact(gt.box, preds.box_at(CellIndex(1, 1)))
        target = 2.0 * iou - 1.0
        expected_value, expected_grad = smooth_l1_with_grad(0.3 - target)
        assert value == float(expected_value)
        assert grads.shape == (1,)
        assert grads[0] == float(expected_grad)

    def test_perfect_confidence_costs_zero(self):
        gt, preds, assignment = self.build_scene(0.0)
        iou = rotated_iou_exact(gt.box, preds.box_at(CellIndex(1, 1)))
        preds.iou_conf[1, 1] = 2.0 * iou - 1.0
        value, grads = iou_prediction_loss(assignment, preds)
        assert value == 0.0
        assert np.all(grads == 0.0)

    def test_degenerate_no_positives(self):
        gt, preds, _ = self.build_scene(0.3)
        empty = no_positive_assignment(3, 3, 1)
        value, grads = iou_prediction_loss(empty, preds)
        assert value == 0.0
        assert grads.shape == (0,)

    def test_target_is_the_assignments_iou(self):
        # the loss reads the IoU stored in the positive's slot, not a fresh one
        gt, preds, assignment = self.build_scene(0.3)
        assignment.ious = np.array([0.25])
        value, grads = iou_prediction_loss(assignment, preds)
        expected_value, expected_grad = smooth_l1_with_grad(0.3 - (2.0 * 0.25 - 1.0))
        assert value == float(expected_value)
        assert grads.shape == (1,)
        assert grads[0] == float(expected_grad)

    def test_regression_reads_the_assignments_rows(self):
        # the regression loss gathers the stored row through the positive's
        # slot, not a fresh kernel value
        gt, preds, assignment = self.build_scene(0.3)
        row = np.arange(1.0, 9.0)
        assignment.regression_values = np.array([7.0, 0.125])
        assignment.regression_grads = np.stack([-row, row])
        assignment.cand_gt = np.array([0, 0])
        assignment.positive_slots = np.array([1])
        result = regression_loss_scene(assignment)
        assert result.value == 0.125
        assert result.per_gt[0].mean_loss == 0.125
        assert result.box_grads.shape == (1, 8)
        assert np.array_equal(result.box_grads[0], row)

    def test_matches_oracle_on_random_scene(self):
        rng = np.random.default_rng(8)
        grid, gts, preds = random_scene(rng, n_gts=4)
        assignment = assign_dcla(grid, gts, preds, r=1)
        value, _ = iou_prediction_loss(assignment, preds)
        n = max(assignment.n_positives, 1)
        total = 0.0
        for i, gt in enumerate(gts):
            for cell in assignment.positives[i]:
                box = BoxParams8.from_array(preds.boxes[cell.row, cell.col]).to_box()
                iou = rotated_iou_exact(box, gt.box)
                u = float(preds.iou_conf[cell.row, cell.col])
                total += float(smooth_l1(u - (2.0 * iou - 1.0)))
        assert value == pytest.approx(total / n, rel=1e-12)


class TestTotalLoss:
    def test_frozen_recombination(self):
        report = total_loss(0.1, 0.2, 0.05, LossWeights())
        assert report.total == pytest.approx(0.75, rel=1e-12)
        assert report.l_cls == 0.1
        assert report.l_reg == 0.2
        assert report.l_iou == 0.05

    def test_weights_applied(self):
        weights = LossWeights(lambda_cls=2.0, lambda_reg=0.5, lambda_iou=0.0)
        report = total_loss(1.0, 1.0, 99.0, weights)
        assert report.total == 2.5

    def test_report_fields(self):
        report = total_loss(0.1, 0.2, 0.3, LossWeights(), n_positives=7)
        assert isinstance(report, LossReport)
        assert report.n_positives == 7
        payload = report.to_json_dict()
        assert set(payload) == {
            "l_cls", "l_reg", "l_iou", "total", "n_positives", "per_gt",
        }

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            LossWeights(lambda_cls=-0.1)
        with pytest.raises(ValueError):
            LossWeights(alpha=1.5)
        assert LossWeights().lambda_reg == 3.0

    def test_end_to_end_composition(self):
        rng = np.random.default_rng(9)
        grid, gts, preds = random_scene(rng, n_gts=3)
        assignment = assign_dcla(grid, gts, preds, r=1)
        weights = LossWeights()
        l_cls, _ = classification_loss(assignment, preds)
        reg = regression_loss_scene(assignment)
        l_iou, _ = iou_prediction_loss(assignment, preds)
        report = total_loss(l_cls, reg.value, l_iou, weights,
                            n_positives=assignment.n_positives, per_gt=reg.per_gt)
        expected = (weights.lambda_cls * l_cls + weights.lambda_reg * reg.value
                    + weights.lambda_iou * l_iou)
        assert report.total == expected
        assert report.n_positives == assignment.n_positives
        assert len(report.per_gt) == len(gts)
