"""Tests for dynamic cross label assignment.

The production assigner is compared bit-for-bit against the brute-force
reference in ``helpers.brute_force_assign`` on random scenes; the hand-built
scenes pin the individual rules (region shape, dynamic k, cost ranking,
conflict resolution, heatmap weights) to closed-form expectations.
"""

import dataclasses
import itertools
import math
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevbox import (
    Box3D,
    BoxParams8,
    CellIndex,
    GridSpec,
    GroundTruth,
    PredictionMap,
    assign_center,
    assign_dcla,
    cross_region,
    dynamic_k,
    dynamic_k_from_ious,
    quality_focal,
    regression_sample_grad,
    regression_sample_loss,
    rotated_iou_exact,
    selection_cost,
    world_to_cell,
)
from bevbox.assignment import _ScenePlan, _validate_scene
import bevbox.harness
from bevbox.harness import AssignerConfig, OptimizerConfig, _true_iou_per_gt, fit_scene
from helpers import brute_force_assign, random_scene, scan_readout

GRID = GridSpec(x_min=0.0, y_min=0.0, cell_size=1.0, n_rows=10, n_cols=10)


def uniform_map(grid, box, n_classes=1, score=0.5):
    """Every cell carries the same box and score."""
    rows, cols = grid.n_rows, grid.n_cols
    boxes = np.tile(BoxParams8.from_box(box).as_array(), (rows, cols, 1))
    scores = np.full((rows, cols, n_classes), float(score))
    return PredictionMap(boxes=boxes, scores=scores)


class TestGridSpec:
    def test_extent(self):
        assert GRID.x_max == 10.0
        assert GRID.y_max == 10.0
        assert GRID.contains(0.0, 0.0)
        assert GRID.contains(9.999, 5.0)
        assert not GRID.contains(10.0, 5.0)
        assert not GRID.contains(-0.001, 5.0)

    def test_cell_center(self):
        assert GRID.cell_center(CellIndex(0, 0)) == (0.5, 0.5)
        assert GRID.cell_center(CellIndex(3, 7)) == (7.5, 3.5)

    def test_json_roundtrip(self):
        assert GridSpec.from_json_dict(GRID.to_json_dict()) == GRID

    def test_json_missing_key_rejected(self):
        d = GRID.to_json_dict()
        del d["n_cols"]
        with pytest.raises(ValueError) as info:
            GridSpec.from_json_dict(d)
        assert str(info.value) == "grid: missing keys ['n_cols']"

    def test_json_unknown_key_rejected(self):
        d = dict(GRID.to_json_dict(), z_min=0.0)
        with pytest.raises(ValueError) as info:
            GridSpec.from_json_dict(d)
        assert str(info.value) == "grid: unknown keys ['z_min']"

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0, 0, 0.0, 10, 10)
        with pytest.raises(ValueError):
            GridSpec(0, 0, 1.0, 0, 10)


class TestWorldToCell:
    def test_floor_convention(self):
        assert world_to_cell(GRID, 0.5, 0.5) == CellIndex(0, 0)
        assert world_to_cell(GRID, 2.7, 3.2) == CellIndex(3, 2)
        # cell boundaries belong to the upper cell
        assert world_to_cell(GRID, 1.0, 0.0) == CellIndex(0, 1)

    def test_border_clamp(self):
        assert world_to_cell(GRID, -0.5, 0.5) == CellIndex(0, 0)
        assert world_to_cell(GRID, 10.5, 9.5) == CellIndex(9, 9)
        assert world_to_cell(GRID, 10.0, 10.0) == CellIndex(9, 9)

    def test_far_outside_rejected(self):
        with pytest.raises(ValueError):
            world_to_cell(GRID, -1.5, 5.0)
        with pytest.raises(ValueError):
            world_to_cell(GRID, 5.0, 11.1)


class TestCrossRegion:
    def test_interior_counts(self):
        center = CellIndex(5, 5)
        for r, expected in ((0, 1), (1, 5), (2, 13), (3, 25)):
            cells = cross_region(GRID, center, r)
            assert len(cells) == expected
            assert len(cells) == 2 * r * r + 2 * r + 1

    def test_r1_cells_row_major(self):
        cells = cross_region(GRID, CellIndex(5, 5), 1)
        assert cells == [
            CellIndex(4, 5), CellIndex(5, 4), CellIndex(5, 5),
            CellIndex(5, 6), CellIndex(6, 5),
        ]

    def test_border_clipping(self):
        assert cross_region(GRID, CellIndex(0, 0), 1) == [
            CellIndex(0, 0), CellIndex(0, 1), CellIndex(1, 0),
        ]
        assert len(cross_region(GRID, CellIndex(0, 0), 2)) == 6
        assert len(cross_region(GRID, CellIndex(9, 9), 1)) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            cross_region(GRID, CellIndex(5, 5), -1)
        with pytest.raises(ValueError):
            cross_region(GRID, CellIndex(10, 5), 1)

    def test_huge_radius_visits_only_the_grid(self):
        grid = GridSpec(x_min=0.0, y_min=0.0, cell_size=1.0, n_rows=32, n_cols=32)
        for center in (CellIndex(16, 16), CellIndex(0, 31)):
            started = time.perf_counter()
            cells = cross_region(grid, center, 10**9)
            assert time.perf_counter() - started < 1.0
            assert cells == cross_region(grid, center, 64)
            assert len(cells) == 32 * 32

    @settings(max_examples=50, deadline=None)
    @given(row=st.integers(0, 9), col=st.integers(0, 9), r=st.integers(0, 4))
    def test_region_properties(self, row, col, r):
        center = CellIndex(row, col)
        cells = cross_region(GRID, center, r)
        assert cells == sorted(cells)
        assert len(set(cells)) == len(cells)
        for cell in cells:
            assert abs(cell.row - row) + abs(cell.col - col) <= r
            assert 0 <= cell.row < GRID.n_rows
            assert 0 <= cell.col < GRID.n_cols
        if 0 + r <= row < GRID.n_rows - r and r <= col < GRID.n_cols - r:
            assert len(cells) == 2 * r * r + 2 * r + 1


class TestDynamicK:
    def test_frozen_cases(self):
        assert dynamic_k_from_ious([0.7, 0.6, 0.3, 0.1]) == 1
        assert dynamic_k_from_ious([0.9, 0.8, 0.9]) == 2
        assert dynamic_k_from_ious([0.2] * 5) == 1
        # Summed in order ten 0.2s give 1.9999999999999998, so k is 1; a
        # compensated sum (the builtin from Python 3.12) would give 2.0.
        assert dynamic_k_from_ious([0.2] * 10) == 1
        assert dynamic_k_from_ious([1.0] * 5 + [0.5], n_candidates=3) == 3
        assert dynamic_k_from_ious([0.9] * 4) == 3

    def test_floor_of_one_cases(self):
        assert dynamic_k_from_ious([]) == 1
        assert dynamic_k_from_ious([0.0, 0.0, 0.0]) == 1
        assert dynamic_k_from_ious([0.99]) == 1

    def test_cap_at_candidate_count(self):
        assert dynamic_k_from_ious([1.0, 1.0, 1.0]) == 3
        assert dynamic_k_from_ious([1.0, 1.0, 1.0], n_candidates=2) == 2

    def test_ninety_percent_overlap_gives_four_of_five(self):
        # identical boxes offset by l/19 along the long axis overlap with
        # IoU (l - d)/(l + d) = 0.9 exactly; five such candidates sum to
        # 4.5 and request k = 4
        gt = GroundTruth(Box3D(0.0, 0.0, 0.0, 1.9, 1.0, 1.0, 0.0), 0)
        offset = Box3D(0.1, 0.0, 0.0, 1.9, 1.0, 1.0, 0.0)
        assert rotated_iou_exact(gt.box, offset) == pytest.approx(0.9, rel=1e-12)
        assert dynamic_k(gt, [offset] * 5) == 4

    def test_scale_independence(self):
        gt = GroundTruth(Box3D(1.0, 2.0, 0.5, 4.0, 2.0, 1.5, 0.7), 0)
        cands = [
            Box3D(1.5, 2.2, 0.5, 4.2, 1.8, 1.5, 0.7),
            Box3D(0.8, 1.9, 0.4, 3.8, 2.1, 1.6, 0.5),
            Box3D(1.0, 2.0, 0.5, 4.0, 2.0, 1.5, 0.7),
            Box3D(9.0, 9.0, 0.5, 1.0, 1.0, 1.0, 0.0),
        ]
        k = dynamic_k(gt, cands)
        s = 2.5
        scale = lambda b: Box3D(b.x * s, b.y * s, b.z * s,
                                b.l * s, b.w * s, b.h * s, b.theta)
        gt_s = GroundTruth(scale(gt.box), 0)
        assert dynamic_k(gt_s, [scale(b) for b in cands]) == k


class TestSelectionCost:
    GT = GroundTruth(Box3D(2.0, 3.0, 0.0, 3.0, 1.5, 1.2, 0.4), 0)

    def test_perfect_prediction_costs_zero(self):
        params = BoxParams8.from_box(self.GT.box)
        assert selection_cost(self.GT, params, 1.0) == 0.0

    def test_decomposition(self):
        pred = BoxParams8.from_box(Box3D(2.4, 3.1, 0.1, 2.8, 1.6, 1.2, 0.5))
        cost = selection_cost(self.GT, pred, 0.7)
        target = BoxParams8.from_box(self.GT.box)
        expected = quality_focal(0.7, 1.0, 2.0) + 3.0 * regression_sample_loss(
            pred, target, 0.5)
        assert cost == expected

    def test_monotonic_in_score(self):
        pred = BoxParams8.from_box(Box3D(2.4, 3.1, 0.1, 2.8, 1.6, 1.2, 0.5))
        assert selection_cost(self.GT, pred, 0.9) < selection_cost(
            self.GT, pred, 0.5)

    def test_validation(self):
        pred = BoxParams8.from_box(self.GT.box)
        with pytest.raises(ValueError):
            selection_cost(self.GT, pred, 0.5, lambda_reg=0.0)
        with pytest.raises(ValueError):
            selection_cost(self.GT, pred, 0.5, alpha=2.0)


class TestPredictionMapValidation:
    def test_shape_checks(self):
        with pytest.raises(ValueError):
            PredictionMap(boxes=np.zeros((4, 4, 7)), scores=np.zeros((4, 4, 1)))
        with pytest.raises(ValueError):
            PredictionMap(boxes=np.ones((4, 4, 8)), scores=np.zeros((3, 4, 1)))

    def test_value_checks(self):
        boxes = np.ones((2, 2, 8))
        with pytest.raises(ValueError):
            PredictionMap(boxes=boxes, scores=np.full((2, 2, 1), 1.5))
        bad = boxes.copy()
        bad[0, 0, 3] = 0.0
        with pytest.raises(ValueError):
            PredictionMap(boxes=bad, scores=np.zeros((2, 2, 1)))

    @pytest.mark.parametrize("field", ["boxes", "scores", "iou_conf"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, bad):
        arrays = {"boxes": np.ones((2, 2, 8)), "scores": np.full((2, 2, 1), 0.5),
                  "iou_conf": np.zeros((2, 2))}
        arrays[field][1, 0, ...] = bad
        with pytest.raises(ValueError, match="finite"):
            PredictionMap(**arrays)

    def test_iou_conf_default_and_shape(self):
        preds = PredictionMap(boxes=np.ones((2, 2, 8)), scores=np.zeros((2, 2, 1)))
        assert np.array_equal(preds.iou_conf, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            PredictionMap(boxes=np.ones((2, 2, 8)), scores=np.zeros((2, 2, 1)),
                          iou_conf=np.zeros((3, 3)))

    def test_class_and_grid_validation_in_assign(self):
        gt_box = Box3D(2.5, 2.5, 0.0, 1.0, 1.0, 1.0, 0.0)
        preds = uniform_map(GRID, gt_box, n_classes=1)
        with pytest.raises(ValueError):
            assign_dcla(GRID, [GroundTruth(gt_box, 1)], preds, r=1)
        small = GridSpec(0, 0, 1.0, 4, 4)
        with pytest.raises(ValueError):
            assign_dcla(small, [GroundTruth(gt_box, 0)], preds, r=1)
        off = GroundTruth(Box3D(40.0, 2.5, 0.0, 1.0, 1.0, 1.0, 0.0), 0)
        with pytest.raises(ValueError):
            assign_dcla(GRID, [off], preds, r=1)


class TestAssignHandBuilt:
    def test_perfect_predictions_fill_region(self):
        # every cell holds the exact gt box: IoU 1 across the 5-cell cross,
        # so k = 5 and the whole region goes positive at weight 1.0
        gt = GroundTruth(Box3D(2.5, 2.5, 0.0, 2.0, 1.5, 1.0, 0.3), 0)
        preds = uniform_map(GRID, gt.box, n_classes=1, score=0.8)
        result = assign_dcla(GRID, [gt], preds, r=1)
        region = cross_region(GRID, CellIndex(2, 2), 1)
        assert result.requested_k == [5]
        assert result.positives == [region]
        assert result.unassigned == []
        assert result.n_positives == 5
        for cell in region:
            assert result.owner[cell.row, cell.col] == 0
            assert result.heatmap[cell.row, cell.col, 0] == 1.0
        assert np.sum(result.owner >= 0) == 5
        assert np.sum(result.heatmap) == 5.0

    def test_cost_tie_breaks_row_major(self):
        # zero-overlap candidates everywhere: k = 1 and every cost in the
        # region is identical, so the first cell in row-major order wins
        gt = GroundTruth(Box3D(5.5, 5.5, 0.0, 1.0, 1.0, 1.0, 0.0), 0)
        far = Box3D(50.0, 50.0, 0.0, 1.0, 1.0, 1.0, 0.0)
        preds = uniform_map(GRID, far, n_classes=1, score=0.5)
        result = assign_dcla(GRID, [gt], preds, r=1)
        assert result.requested_k == [1]
        assert result.positives == [[CellIndex(4, 5)]]

    def test_cheaper_cell_shortlisted(self):
        gt = GroundTruth(Box3D(5.5, 5.5, 0.0, 2.0, 2.0, 1.0, 0.0), 0)
        far = Box3D(50.0, 50.0, 0.0, 1.0, 1.0, 1.0, 0.0)
        preds = uniform_map(GRID, far, n_classes=1, score=0.5)
        # plant a near-miss at a non-center region cell
        near = Box3D(5.6, 5.5, 0.0, 2.0, 2.0, 1.0, 0.05)
        preds.boxes[5, 6] = BoxParams8.from_box(near).as_array()
        result = assign_dcla(GRID, [gt], preds, r=1)
        assert result.positives == [[CellIndex(5, 6)]]
        iou = rotated_iou_exact(gt.box, near)
        assert result.heatmap[5, 6, 0] == 1.0
        assert iou > 0.5

    def test_conflict_cheaper_gt_wins_no_backfill(self):
        # 1x3 grid; both gts shortlist only the middle cell, whose box sits
        # closer to gt0, so gt0 takes it and gt1 is left unassigned
        grid = GridSpec(0.0, 0.0, 1.0, 1, 3)
        gt0 = GroundTruth(Box3D(0.5, 0.5, 0.0, 1.0, 1.0, 1.0, 0.0), 0)
        gt1 = GroundTruth(Box3D(2.5, 0.5, 0.0, 1.0, 1.0, 1.0, 0.0), 0)
        far = Box3D(50.0, 50.0, 0.0, 1.0, 1.0, 1.0, 0.0)
        preds = uniform_map(grid, far, n_classes=1, score=0.5)
        mid = Box3D(1.2, 0.5, 0.0, 1.0, 1.0, 1.0, 0.0)
        preds.boxes[0, 1] = BoxParams8.from_box(mid).as_array()
        result = assign_dcla(grid, [gt0, gt1], preds, r=1)
        assert result.positives[0] == [CellIndex(0, 1)]
        assert result.positives[1] == []
        assert result.unassigned == [1]
        assert result.owner[0, 1] == 0

    def test_conflict_exact_tie_lower_index_wins(self):
        # middle box exactly halfway between the two gts: bitwise-equal
        # costs, so the lower ground-truth index keeps the cell
        grid = GridSpec(0.0, 0.0, 1.0, 1, 3)
        gt0 = GroundTruth(Box3D(0.5, 0.5, 0.0, 1.0, 1.0, 1.0, 0.0), 0)
        gt1 = GroundTruth(Box3D(2.5, 0.5, 0.0, 1.0, 1.0, 1.0, 0.0), 0)
        far = Box3D(50.0, 50.0, 0.0, 1.0, 1.0, 1.0, 0.0)
        preds = uniform_map(grid, far, n_classes=1, score=0.5)
        mid = Box3D(1.5, 0.5, 0.0, 1.0, 1.0, 1.0, 0.0)
        preds.boxes[0, 1] = BoxParams8.from_box(mid).as_array()
        c0 = selection_cost(gt0, BoxParams8.from_box(mid), 0.5)
        c1 = selection_cost(gt1, BoxParams8.from_box(mid), 0.5)
        assert c0 == c1
        result = assign_dcla(grid, [gt0, gt1], preds, r=1)
        assert result.owner[0, 1] == 0
        assert result.unassigned == [1]

    def test_heatmap_negative_carries_iou(self):
        gt = GroundTruth(Box3D(2.5, 2.5, 0.0, 2.0, 2.0, 1.0, 0.0), 0)
        far = Box3D(50.0, 50.0, 0.0, 1.0, 1.0, 1.0, 0.0)
        preds = uniform_map(GRID, far, n_classes=2, score=0.3)
        preds.boxes[2, 2] = BoxParams8.from_box(gt.box).as_array()
        overlap = Box3D(3.2, 2.5, 0.0, 2.0, 2.0, 1.0, 0.0)
        preds.boxes[2, 3] = BoxParams8.from_box(overlap).as_array()
        preds.scores[2, 2, 0] = 0.9
        result = assign_dcla(GRID, [gt], preds, r=1)
        # exact box at the center wins the single requested slot
        assert result.positives == [[CellIndex(2, 2)]]
        assert result.heatmap[2, 2, 0] == 1.0
        expected = rotated_iou_exact(gt.box, overlap)
        assert 0.0 < expected < 1.0
        assert result.heatmap[2, 3, 0] == expected
        # other class channel and off-region cells stay zero
        assert np.all(result.heatmap[:, :, 1] == 0.0)
        assert result.heatmap[0, 0, 0] == 0.0

    def test_heatmap_same_class_takes_max(self):
        gt0 = GroundTruth(Box3D(2.5, 2.5, 0.0, 2.0, 2.0, 2.0, 0.0), 0)
        gt1 = GroundTruth(Box3D(4.5, 2.5, 0.0, 2.0, 2.0, 2.0, 0.0), 0)
        far = Box3D(50.0, 50.0, 0.0, 1.0, 1.0, 1.0, 0.0)
        preds = uniform_map(GRID, far, n_classes=1, score=0.2)
        preds.boxes[2, 2] = BoxParams8.from_box(gt0.box).as_array()
        preds.boxes[2, 4] = BoxParams8.from_box(gt1.box).as_array()
        shared = Box3D(3.3, 2.5, 0.0, 2.0, 2.0, 2.0, 0.0)
        preds.boxes[2, 3] = BoxParams8.from_box(shared).as_array()
        preds.scores[2, 2, 0] = 0.9
        preds.scores[2, 4, 0] = 0.9
        result = assign_dcla(GRID, [gt0, gt1], preds, r=1)
        # cell (2, 3) sits in both regions and stays negative
        assert result.owner[2, 3] == -1
        expected = max(rotated_iou_exact(gt0.box, shared),
                       rotated_iou_exact(gt1.box, shared))
        assert result.heatmap[2, 3, 0] == expected

    def test_non_finite_cost_raises(self):
        # x = 1e160 squares to inf in the center term's numerator and
        # denominator alike, so that cell's cost is NaN.
        gt = GroundTruth(Box3D(5.5, 5.5, 0.0, 2.0, 1.5, 1.0, 0.3), 0)
        preds = uniform_map(GRID, gt.box)
        preds.boxes[5, 6, 0] = 1e160
        with pytest.raises(ValueError, match="candidate costs must be finite"):
            assign_dcla(GRID, [gt], preds, r=1)

    def test_border_center_caps_k(self):
        gt = GroundTruth(Box3D(0.5, 0.5, 0.0, 2.0, 1.5, 1.0, 0.2), 0)
        preds = uniform_map(GRID, gt.box, n_classes=1, score=0.7)
        result = assign_dcla(GRID, [gt], preds, r=1)
        # corner cross has 3 cells, all perfect: k capped at 3
        assert result.requested_k == [3]
        assert result.positives == [cross_region(GRID, CellIndex(0, 0), 1)]


class TestOracleParity:
    def test_matches_brute_force(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n_gts = int(rng.integers(1, 7))
            grid, gts, preds = random_scene(rng, n_gts=n_gts)
            r = int(rng.integers(0, 3))
            result = assign_dcla(grid, gts, preds, r=r)
            positives, requested_k, owner, heatmap, unassigned = (
                brute_force_assign(grid, gts, preds, r))
            assert result.positives == positives
            assert result.requested_k == requested_k
            assert np.array_equal(result.owner, owner)
            assert np.array_equal(result.heatmap, heatmap)
            assert result.unassigned == unassigned

    def test_candidates_match_scalar_functions(self):
        for seed in range(30):
            rng = np.random.default_rng(300 + seed)
            grid, gts, preds = random_scene(rng, n_gts=int(rng.integers(1, 7)))
            for r, alpha in itertools.product((0, 1, 2), (0.0, 0.5, 1.0)):
                result = assign_dcla(grid, gts, preds, r=r, alpha=alpha)
                assert table_cells(result) == [
                    (i, cell) for i, gt in enumerate(gts)
                    for cell in cross_region(grid, world_to_cell(grid, gt.box.x, gt.box.y), r)]
                assert_scalar_scores(result, gts, preds, alpha)

    def test_positive_slots_index_the_candidates(self):
        # Cells copy a ground truth near them, so regions keep several
        # positives and contest the cells where they overlap.
        max_k = 0
        for seed in range(30):
            rng = np.random.default_rng(600 + seed)
            grid, gts, preds = random_scene(rng, n_gts=int(rng.integers(1, 7)))
            copy_boxes_into_regions(grid, gts, preds, 2)
            for r in (0, 1, 2):
                result = assign_dcla(grid, gts, preds, r=r)
                slots = result.positive_slots.tolist()
                assert slots == sorted(set(slots))
                cells = table_cells(result)
                assert result.positives == [[cells[slot][1] for slot in slots if cells[slot][0] == i]
                                            for i in range(len(gts))]
                rows, cols, gt_of = result.positive_index()
                assert result.owner[rows, cols].tolist() == gt_of.tolist()
                assert np.sum(result.owner >= 0) == result.n_positives == len(slots)
                max_k = max(max_k, *result.k_per_gt)
        assert max_k > 1

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_matches_brute_force_with_ties(self, r):
        # Overlapping regions whose cells hold their ground truth's box under
        # one uniform score: equal costs within a region and contested cells
        # are common, and a repeated ground truth ties every contest.
        contested = tied = 0
        for seed in range(20):
            rng = np.random.default_rng(900 + seed)
            grid, gts, preds = random_scene(rng, n_rows=5, n_cols=6, n_gts=4)
            gts.append(gts[seed % 4])
            preds.scores[:] = 0.5
            copy_boxes_into_regions(grid, gts, preds, r)
            result = assign_dcla(grid, gts, preds, r=r)
            positives, requested_k, owner, heatmap, unassigned = (
                brute_force_assign(grid, gts, preds, r))
            assert result.positives == positives
            assert result.requested_k == requested_k
            assert np.array_equal(result.owner, owner)
            assert np.array_equal(result.heatmap, heatmap)
            assert result.unassigned == unassigned
            assert _true_iou_per_gt(result) == scan_readout(grid, gts, preds, r)
            contested += sum(result.requested_k) > result.n_positives
            cheapest = [min(result.costs[result.cand_gt == i]) for i in range(len(gts))]
            tied += sum(np.sum(result.costs[result.cand_gt == i] == c) > 1
                        for i, c in enumerate(cheapest))
        assert contested >= 10
        assert r == 0 or tied >= 10

    def test_positives_cover_owner_grid(self):
        rng = np.random.default_rng(99)
        grid, gts, preds = random_scene(rng, n_gts=5)
        result = assign_dcla(grid, gts, preds, r=2)
        from_owner = {
            CellIndex(r, c): int(result.owner[r, c])
            for r in range(grid.n_rows) for c in range(grid.n_cols)
            if result.owner[r, c] >= 0
        }
        from_positives = {
            cell: i for i, cells in enumerate(result.positives) for cell in cells
        }
        assert from_owner == from_positives

    def test_requested_k_bounds_kept_k(self):
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            grid, gts, preds = random_scene(rng, n_gts=4)
            result = assign_dcla(grid, gts, preds, r=1)
            for kept, req in zip(result.k_per_gt, result.requested_k):
                assert 0 <= kept <= req


def table_cells(result):
    """``(gt, cell)`` of every slot of the candidate table."""
    return [(i, CellIndex(row, col)) for row, col, i in zip(
        result.cand_rows.tolist(), result.cand_cols.tolist(), result.cand_gt.tolist())]


def copy_boxes_into_regions(grid, gts, preds, r):
    """Every cell of each ground truth's cross region gets that ground
    truth's box, later ground truths overwriting earlier ones."""
    for gt in gts:
        center = world_to_cell(grid, gt.box.x, gt.box.y)
        for cell in cross_region(grid, center, r):
            preds.boxes[cell.row, cell.col] = BoxParams8.from_box(gt.box).as_array()


def assert_scalar_scores(result, gts, preds, alpha=0.5):
    """Every slot's cost, IoU and regression row equal the scalar functions
    bitwise; rows compare as bytes, so signed zeros count."""
    cells = table_cells(result)
    for slot, (i, cell) in enumerate(cells):
        gt = gts[i]
        pred = BoxParams8.from_array(preds.boxes[cell.row, cell.col])
        score = float(preds.scores[cell.row, cell.col, gt.class_id])
        assert result.costs[slot] == selection_cost(gt, pred, score, alpha=alpha)
        assert result.ious[slot] == rotated_iou_exact(gt.box, pred.to_box())
        value, grad = regression_sample_grad(pred, BoxParams8.from_box(gt.box), alpha)
        assert result.regression_values[slot].tobytes() == np.float64(value).tobytes()
        assert result.regression_grads[slot].tobytes() == grad.as_array().tobytes()
    for column in (result.costs, result.ious, result.regression_values):
        assert column.shape == (len(cells),)
    assert result.regression_grads.shape == (len(cells), 8)


@st.composite
def edge_case_pair(draw):
    """A ground truth and a prediction box (8 channels) in an edge regime."""
    kind = draw(st.sampled_from(["touching", "yaw_pi", "tiny", "far"]))
    size = st.floats(0.3, 5.0)
    l, w, h = draw(size), draw(size), draw(size)
    theta = draw(st.floats(-math.pi, math.pi))
    gt = Box3D(4.5, 4.5, 0.5, l, w, h, theta)
    pl, pw, ph = draw(size), draw(size), draw(size)
    yaw = draw(st.floats(-math.pi, math.pi))
    x, y, z = gt.x + draw(st.floats(-1, 1)), gt.y + draw(st.floats(-1, 1)), gt.z
    if kind == "touching":
        # x-faces (or z-faces) meet exactly
        x = gt.x + 0.5 * l + 0.5 * pl
        if draw(st.booleans()):
            x, z = gt.x, gt.z + 0.5 * h + 0.5 * ph
    elif kind == "yaw_pi":
        yaw = draw(st.sampled_from([math.pi, -math.pi]))
        gt = Box3D(gt.x, gt.y, gt.z, l, w, h, -yaw)
    elif kind == "tiny":
        pl, pw, ph = (draw(st.floats(1e-9, 1e-3)) for _ in range(3))
    else:
        x, y = x + draw(st.floats(-1e6, 1e6)), y + draw(st.floats(-1e6, 1e6))
    return gt, [x, y, z, pl, pw, ph, math.sin(yaw), math.cos(yaw)]


class TestCandidateEdgeCases:
    @settings(max_examples=200, deadline=None)
    @given(pair=edge_case_pair(), score=st.floats(0.0, 1.0))
    def test_array_scores_equal_scalar(self, pair, score):
        gt_box, pred = pair
        gt = GroundTruth(gt_box, 0)
        boxes = np.tile(np.array(pred), (GRID.n_rows, GRID.n_cols, 1))
        preds = PredictionMap(boxes=boxes, scores=np.full((GRID.n_rows, GRID.n_cols, 1), score))
        result = assign_dcla(GRID, [gt], preds, r=2)
        assert len(result.cand_gt) == 13
        assert_scalar_scores(result, [gt], preds)


class TestCenterEquivalence:
    def test_center_is_radius_zero(self):
        for seed in range(20):
            rng = np.random.default_rng(400 + seed)
            grid, gts, preds = random_scene(rng, n_gts=4)
            center = assign_center(grid, gts, preds)
            dcla0 = assign_dcla(grid, gts, preds, r=0)
            assert center.positives == dcla0.positives
            assert center.requested_k == dcla0.requested_k
            assert np.array_equal(center.owner, dcla0.owner)
            assert np.array_equal(center.heatmap, dcla0.heatmap)
            assert center.unassigned == dcla0.unassigned

    def test_center_semantics(self):
        rng = np.random.default_rng(500)
        grid, gts, preds = random_scene(rng, n_gts=3)
        result = assign_center(grid, gts, preds)
        assert result.requested_k == [1] * 3
        for i, cells in enumerate(result.positives):
            if cells:
                center = world_to_cell(grid, gts[i].box.x, gts[i].box.y)
                assert cells == [center]


class TestDeterminism:
    def test_repeat_run_identical(self):
        rng = np.random.default_rng(7)
        grid, gts, preds = random_scene(rng, n_gts=5)
        a = assign_dcla(grid, gts, preds, r=2)
        b = assign_dcla(grid, gts, preds, r=2)
        assert a.to_json_dict() == b.to_json_dict()
        assert np.array_equal(a.heatmap, b.heatmap)

    def test_json_dict_shape(self):
        gt = GroundTruth(Box3D(2.5, 2.5, 0.0, 2.0, 1.5, 1.0, 0.3), 0)
        preds = uniform_map(GRID, gt.box, n_classes=1, score=0.8)
        payload = assign_dcla(GRID, [gt], preds, r=1).to_json_dict()
        assert payload["n_positives"] == 5
        assert payload["unassigned"] == []
        assert len(payload["per_gt"]) == 1
        entry = payload["per_gt"][0]
        assert entry["k"] == len(entry["positives"]) == 5
        assert all(len(pair) == 3 for pair in payload["owner"])
        assert all(len(item) == 4 for item in payload["heatmap"])


def _bits(value):
    """``value`` with every float replaced by its bytes, so that equality is
    bitwise (``-0.0 != 0.0``) through lists, tuples and arrays."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, (list, tuple)):
        return type(value), [_bits(v) for v in value]
    return value


def assert_bitwise_equal(a, b):
    for f in dataclasses.fields(a):
        assert _bits(getattr(a, f.name)) == _bits(getattr(b, f.name)), f.name


def plan_cells(plan):
    """The cell of every slot of a plan."""
    return [CellIndex(row, col) for row, col in zip(plan.rows.tolist(), plan.cols.tolist())]


def plan_scores(plan, preds, r, lambda_reg=3.0, alpha=0.5):
    """One planned scoring, checked against a fresh assignment; returns how
    many exact IoUs it ran."""
    before = plan.iou_runs
    alpha = _validate_scene(plan.grid, plan.gts, preds, lambda_reg, alpha)
    planned = plan.score(preds, lambda_reg, alpha)
    assert_bitwise_equal(planned, assign_dcla(plan.grid, plan.gts, preds, r=r,
                                              lambda_reg=lambda_reg, alpha=alpha))
    return plan.iou_runs - before


class TestScenePlanMemo:
    """A plan re-runs the exact IoU only for candidate slots whose box bits
    changed since its last scoring, and scores like a fresh assignment."""

    def crowded(self, seed, r):
        rng = np.random.default_rng(seed)
        grid, gts, preds = random_scene(rng, n_rows=5, n_cols=6, n_gts=5)
        plan = _ScenePlan(grid, gts, r)
        assert len(set(plan_cells(plan))) < len(plan_cells(plan))  # regions overlap
        return plan, preds

    def test_one_moved_cell_reruns_exactly_its_slots(self):
        plan, preds = self.crowded(1, 2)
        assert plan_scores(plan, preds, 2) == len(plan_cells(plan))
        assert plan_scores(plan, preds, 2) == 0
        shared = max(set(plan_cells(plan)), key=plan_cells(plan).count)
        n_slots = plan_cells(plan).count(shared)
        assert n_slots >= 2
        preds.boxes[shared.row, shared.col, 0] += 0.25
        assert plan_scores(plan, preds, 2) == n_slots
        # Scores and confidences are not the memo's key.
        preds.scores[shared.row, shared.col] *= 0.5
        preds.iou_conf[shared.row, shared.col] = 0.75
        assert plan_scores(plan, preds, 2) == 0

    def test_signed_zero_flip_is_rescored(self):
        plan, preds = self.crowded(2, 1)
        cell = plan_cells(plan)[0]
        # Yaw pi: sin 0.0, cos -1.0. With sin -0.0 atan2 gives -pi instead.
        preds.boxes[cell.row, cell.col, 6:8] = (0.0, -1.0)
        plan_scores(plan, preds, 1)
        for flipped in (-0.0, 0.0):
            preds.boxes[cell.row, cell.col, 6] = flipped
            assert plan_scores(plan, preds, 1) == plan_cells(plan).count(cell)

    def test_plan_is_not_shared_between_scenes(self):
        plan_a, preds_a = self.crowded(3, 1)
        plan_b, preds_b = self.crowded(3, 1)
        plan_scores(plan_a, preds_a, 1)
        assert plan_b.iou_runs == 0
        assert plan_scores(plan_b, preds_b, 1) == len(plan_cells(plan_b))

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_fit_states_score_like_a_fresh_assignment(self, r, monkeypatch):
        scored = []
        real_score = bevbox.harness._Stack.score

        def checked_score(stack, boxes, weights, alpha):
            planned = real_score(stack, boxes, weights, alpha)
            fresh = assign_dcla(stack.plan.grid, stack.plan.gts,
                                stack.state._slab(0).prediction_map(), r=r,
                                lambda_reg=weights.lambda_reg, alpha=alpha)
            # A one-scene stack: its result with the scene axis taken off.
            assert_bitwise_equal(dataclasses.replace(
                planned, heatmap=planned.heatmap[0], cand_scene=None), fresh)
            scored.append(len(plan_cells(stack.plan)))
            return planned

        monkeypatch.setattr(bevbox.harness._Stack, "score", checked_score)
        rng = np.random.default_rng(40 + r)
        overlapping = 0
        for _ in range(3):
            grid, gts, _ = random_scene(rng, n_rows=6, n_cols=7, n_gts=5)
            cells = plan_cells(_ScenePlan(grid, gts, r))
            overlapping += len(set(cells)) < len(cells)
            fit_scene(grid, gts, assigner=AssignerConfig(kind="dcla", r=r),
                      optimizer=OptimizerConfig(step_size=0.05, n_steps=30), n_classes=3)
        assert len(scored) == 3 * 31
        assert overlapping >= 1
