"""Tests for synthetic scenes, state initialization, and the fitting loop.

The exact-init fixed point is the sharpest check in here: a state seeded
bitwise on the ground truth must produce an identically-zero loss trajectory
and come out of a multi-step fit bitwise unchanged. Everything else follows
the usual pattern of determinism, validation, and closed-form expectations.
"""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

import bevbox.harness
from bevbox import (
    AssignerConfig,
    Box3D,
    DivergenceError,
    GridSpec,
    GroundTruth,
    InitConfig,
    LossWeights,
    OptimizerConfig,
    PlacementError,
    SceneConfig,
    SizeClass,
    assign_dcla,
    balance_experiment,
    convex_intersection_area,
    fit_scene,
    generate_scene,
    init_state,
    load_scene,
    rotated_iou_exact,
    run_fit_config,
    world_to_cell,
)
from bevbox.harness import (
    DEFAULT_SIZE_CLASSES,
    DIVERGENCE_THRESHOLD,
    INIT_SEED_OFFSET,
    SATURATED_LOGIT,
    _fit_scenes,
    _true_iou_per_gt,
)
from helpers import random_scene, reference_fit_scene, reference_sigmoid, scan_readout

GRID16 = GridSpec(x_min=-8.0, y_min=-8.0, cell_size=1.0, n_rows=16, n_cols=16)
GRID32 = GridSpec(x_min=-16.0, y_min=-16.0, cell_size=1.0, n_rows=32, n_cols=32)


def scene16(n_objects=4, seed=3):
    return SceneConfig(grid=GRID16, n_objects=n_objects, seed=seed)


class TestConfigValidation:
    def test_size_class(self):
        with pytest.raises(ValueError):
            SizeClass("bad", 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            SizeClass("bad", 1.0, 1.0, 1.0, spread=1.0)
        assert SizeClass("ok", 1.0, 1.0, 1.0).spread == 0.1

    def test_scene_config(self):
        with pytest.raises(ValueError):
            SceneConfig(grid=GRID16, n_objects=-1, seed=0)
        with pytest.raises(ValueError):
            SceneConfig(grid=GRID16, n_objects=1, seed=0, size_classes=())
        assert scene16().n_classes == len(DEFAULT_SIZE_CLASSES)

    def test_assigner_config(self):
        with pytest.raises(ValueError):
            AssignerConfig(kind="other")
        with pytest.raises(ValueError):
            AssignerConfig(kind="dcla", r=-1)
        assert AssignerConfig(kind="center", r=3).effective_r == 0
        assert AssignerConfig(kind="dcla", r=3).effective_r == 3

    def test_optimizer_and_init_config(self):
        with pytest.raises(ValueError):
            OptimizerConfig(step_size=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(n_steps=-1)
        with pytest.raises(ValueError):
            InitConfig(kind="guess")
        with pytest.raises(ValueError):
            InitConfig(kind="noisy", sigma_loc=-0.1)

    def test_documented_constants(self):
        assert DIVERGENCE_THRESHOLD == 1e3
        assert INIT_SEED_OFFSET == 1_000_003


class TestSceneGeneration:
    def test_deterministic(self):
        a = generate_scene(scene16())
        b = generate_scene(scene16())
        assert len(a) == len(b) == 4
        for ga, gb in zip(a, b):
            assert ga.box == gb.box
            assert ga.class_id == gb.class_id

    def test_seed_changes_scene(self):
        a = generate_scene(scene16(seed=3))
        b = generate_scene(scene16(seed=4))
        assert any(ga.box != gb.box for ga, gb in zip(a, b))

    def test_class_cycling(self):
        gts = generate_scene(scene16(n_objects=7))
        assert [gt.class_id for gt in gts] == [0, 1, 2, 0, 1, 2, 0]

    def test_boxes_strictly_disjoint(self):
        gts = generate_scene(SceneConfig(grid=GRID32, n_objects=8, seed=5))
        for i in range(len(gts)):
            for j in range(i + 1, len(gts)):
                assert rotated_iou_exact(gts[i].box, gts[j].box) == 0.0
                area = convex_intersection_area(
                    gts[i].box.bev_corners(), gts[j].box.bev_corners())
                assert area == 0.0

    def test_distinct_center_cells(self):
        gts = generate_scene(SceneConfig(grid=GRID32, n_objects=10, seed=6))
        cells = {world_to_cell(GRID32, gt.box.x, gt.box.y) for gt in gts}
        assert len(cells) == 10

    def test_centers_interior(self):
        gts = generate_scene(SceneConfig(grid=GRID32, n_objects=10, seed=7))
        for gt in gts:
            assert GRID32.contains(gt.box.x, gt.box.y)

    def test_parameter_roundtrips_bitwise(self):
        # sizes and yaw are snapped so the store/read parameterization is a
        # bitwise identity; the exact-init fixed point depends on this
        gts = generate_scene(SceneConfig(grid=GRID32, n_objects=9, seed=8))
        for gt in gts:
            for size in (gt.box.l, gt.box.w, gt.box.h):
                # the store takes math.log, the decode applies numpy's exp
                assert float(np.exp(math.log(size))) == size
            theta = gt.box.theta
            assert math.atan2(math.sin(theta), math.cos(theta)) == theta
            assert -math.pi < theta <= math.pi

    def test_sizes_track_class_means(self):
        gts = generate_scene(SceneConfig(grid=GRID32, n_objects=9, seed=9))
        for gt in gts:
            cls = DEFAULT_SIZE_CLASSES[gt.class_id]
            spread = cls.spread + 1e-9
            assert abs(gt.box.l / cls.length - 1.0) <= spread
            assert abs(gt.box.w / cls.width - 1.0) <= spread
            assert abs(gt.box.h / cls.height - 1.0) <= spread

    def test_zero_objects(self):
        assert generate_scene(scene16(n_objects=0)) == []

    def test_placement_error_names_limit(self):
        tiny = GridSpec(x_min=0.0, y_min=0.0, cell_size=1.0, n_rows=3, n_cols=3)
        config = SceneConfig(grid=tiny, n_objects=20, seed=0, max_attempts=50)
        with pytest.raises(PlacementError):
            generate_scene(config)


class TestInitState:
    def test_exact_reproduces_gt_at_center(self):
        gts = generate_scene(scene16())
        assigner = AssignerConfig(kind="dcla", r=1)
        state = init_state(GRID16, gts, 3, InitConfig(kind="exact"), assigner, 0)
        preds = state.prediction_map()
        for gt in gts:
            cell = world_to_cell(GRID16, gt.box.x, gt.box.y)
            row = preds.boxes[cell.row, cell.col]
            expected = [gt.box.x, gt.box.y, gt.box.z, gt.box.l, gt.box.w,
                        gt.box.h, math.sin(gt.box.theta), math.cos(gt.box.theta)]
            assert row.tolist() == expected
            assert preds.scores[cell.row, cell.col, gt.class_id] == 1.0

    def test_exact_scores_saturate_both_ways(self):
        gts = generate_scene(scene16())
        assigner = AssignerConfig(kind="dcla", r=1)
        state = init_state(GRID16, gts, 3, InitConfig(kind="exact"), assigner, 0)
        preds = state.prediction_map()
        values = np.unique(preds.scores)
        assert set(values.tolist()) <= {0.0, 1.0}
        assert np.all(preds.iou_conf == 1.0)

    def test_noisy_deterministic_and_perturbed(self):
        gts = generate_scene(scene16())
        assigner = AssignerConfig(kind="dcla", r=1)
        exact = init_state(GRID16, gts, 3, InitConfig(kind="exact"), assigner, 5)
        a = init_state(GRID16, gts, 3, InitConfig(kind="noisy"), assigner, 5)
        b = init_state(GRID16, gts, 3, InitConfig(kind="noisy"), assigner, 5)
        c = init_state(GRID16, gts, 3, InitConfig(kind="noisy"), assigner, 6)
        assert np.array_equal(a.loc, b.loc)
        assert np.array_equal(a.sin_cos, b.sin_cos)
        assert not np.array_equal(a.loc, c.loc)
        assert not np.array_equal(a.loc, exact.loc)

    def test_random_yields_valid_map(self):
        gts = generate_scene(scene16())
        assigner = AssignerConfig(kind="dcla", r=1)
        state = init_state(GRID16, gts, 3, InitConfig(kind="random"), assigner, 7)
        preds = state.prediction_map()
        assert np.all(preds.boxes[..., 3:6] > 0.0)
        assert np.all((preds.scores >= 0.0) & (preds.scores <= 1.0))

    def test_empty_scene_supported(self):
        state = init_state(GRID16, [], 1, InitConfig(kind="noisy"),
                           AssignerConfig(), 0)
        assert state.loc.shape == (16, 16, 3)
        with pytest.raises(ValueError):
            init_state(GRID16, [], 0, InitConfig(kind="noisy"), AssignerConfig(), 0)


class TestExactInitFixedPoint:
    def test_trajectory_identically_zero_and_state_frozen(self):
        gts = generate_scene(SceneConfig(grid=GRID32, n_objects=6, seed=7))
        assigner = AssignerConfig(kind="dcla", r=1)
        state = init_state(GRID32, gts, 3, InitConfig(kind="exact"), assigner, 1)
        before = state.copy()
        report = fit_scene(
            GRID32, gts,
            assigner=assigner,
            optimizer=OptimizerConfig(step_size=0.05, n_steps=10),
            regression="rwiou",
            n_classes=3,
            state=state,
        )
        assert len(report.steps) == 11
        for rec in report.steps:
            assert rec.l_cls == 0.0
            assert rec.l_reg == 0.0
            assert rec.l_iou == 0.0
            assert rec.total == 0.0
            assert rec.mean_true_iou == 1.0
        final = report.final_state
        assert np.array_equal(before.loc, final.loc)
        assert np.array_equal(before.log_size, final.log_size)
        assert np.array_equal(before.sin_cos, final.sin_cos)
        assert np.array_equal(before.score_logits, final.score_logits)
        assert np.array_equal(before.iou_conf_raw, final.iou_conf_raw)
        assert report.final_iou_per_gt == [1.0] * 6
        assert report.mean_final_iou == 1.0


class TestFit:
    def test_noisy_fit_improves(self):
        gts = generate_scene(scene16())
        report = fit_scene(
            GRID16, gts,
            assigner=AssignerConfig(kind="dcla", r=1),
            optimizer=OptimizerConfig(step_size=0.05, n_steps=60),
            init=InitConfig(kind="noisy"),
            regression="rwiou",
            init_seed=scene16().seed + INIT_SEED_OFFSET,
            n_classes=3,
        )
        assert len(report.steps) == 61
        assert [rec.step for rec in report.steps] == list(range(61))
        assert report.steps[-1].total < report.steps[0].total
        assert report.steps[-1].mean_true_iou > report.steps[0].mean_true_iou
        assert report.mean_final_iou > 0.8
        assert report.min_final_iou <= report.mean_final_iou

    def test_smooth_l1_baseline_improves(self):
        gts = generate_scene(scene16())
        report = fit_scene(
            GRID16, gts,
            assigner=AssignerConfig(kind="dcla", r=1),
            optimizer=OptimizerConfig(step_size=0.05, n_steps=60),
            init=InitConfig(kind="noisy"),
            regression="smooth_l1",
            init_seed=scene16().seed + INIT_SEED_OFFSET,
            n_classes=3,
        )
        assert report.steps[-1].mean_true_iou > report.steps[0].mean_true_iou
        assert report.regression == "smooth_l1"

    def test_invalid_regression_kind(self):
        with pytest.raises(ValueError):
            fit_scene(GRID16, [], regression="l2")

    def test_fit_does_not_mutate_input_state(self):
        gts = generate_scene(scene16())
        assigner = AssignerConfig(kind="dcla", r=1)
        state = init_state(GRID16, gts, 3, InitConfig(kind="noisy"), assigner, 9)
        snapshot = state.copy()
        fit_scene(GRID16, gts, assigner=assigner,
                  optimizer=OptimizerConfig(n_steps=5), n_classes=3, state=state)
        assert np.array_equal(state.loc, snapshot.loc)
        assert np.array_equal(state.score_logits, snapshot.score_logits)

    def test_divergence_raises(self):
        gts = generate_scene(SceneConfig(grid=GRID32, n_objects=4, seed=2))
        assigner = AssignerConfig(kind="dcla", r=1)
        state = init_state(GRID32, gts, 3, InitConfig(kind="exact"), assigner, 0)
        # saturate every class score to 1: thousands of confident false
        # positives push the classification term past the threshold
        state.score_logits[:] = SATURATED_LOGIT
        with pytest.raises(DivergenceError) as exc_info:
            fit_scene(GRID32, gts, assigner=assigner,
                      optimizer=OptimizerConfig(n_steps=3), n_classes=3,
                      state=state)
        err = exc_info.value
        assert err.step == 0
        assert err.report.total > DIVERGENCE_THRESHOLD
        assert "exceeded" in str(err)

    def test_nan_total_raises(self, monkeypatch):
        real_total_loss = bevbox.harness.total_loss

        def nan_total(*args, **kwargs):
            report = real_total_loss(*args, **kwargs)
            return dataclasses.replace(report, total=math.nan)

        monkeypatch.setattr(bevbox.harness, "total_loss", nan_total)
        gts = generate_scene(scene16())
        with pytest.raises(DivergenceError) as exc_info:
            fit_scene(GRID16, gts, optimizer=OptimizerConfig(n_steps=3), n_classes=3)
        assert exc_info.value.step == 0
        assert math.isnan(exc_info.value.report.total)

    def test_trajectory_csv_roundtrip(self):
        gts = generate_scene(scene16())
        report = fit_scene(
            GRID16, gts,
            assigner=AssignerConfig(kind="dcla", r=1),
            optimizer=OptimizerConfig(n_steps=5),
            init=InitConfig(kind="noisy"),
            init_seed=11,
            n_classes=3,
        )
        lines = report.trajectory_csv().strip().split("\n")
        assert lines[0] == "step,l_cls,l_reg,l_iou,total,mean_true_iou"
        assert len(lines) == 7
        for rec, line in zip(report.steps, lines[1:]):
            fields = line.split(",")
            assert int(fields[0]) == rec.step
            # repr-formatted floats parse back bitwise
            assert float(fields[4]) == rec.total
            assert float(fields[5]) == rec.mean_true_iou

    def test_report_json_dict(self):
        gts = generate_scene(scene16())
        report = fit_scene(GRID16, gts, optimizer=OptimizerConfig(n_steps=2),
                           init=InitConfig(kind="noisy"), n_classes=3)
        payload = report.to_json_dict()
        assert payload["n_steps"] == 3
        assert payload["assigner"] == {"kind": "dcla", "r": 1}
        assert len(payload["final_iou_per_gt"]) == 4


def assert_fit_matches_reference(gts, assigner, regression, n_steps=40, state=None,
                                 init=InitConfig(kind="noisy", sigma_loc=0.5), grid=GRID16):
    optimizer = OptimizerConfig(n_steps=n_steps)
    weights = LossWeights()
    report = fit_scene(grid, gts, assigner=assigner, optimizer=optimizer, init=init,
                       weights=weights, regression=regression, init_seed=7, n_classes=3,
                       state=state)
    steps, final = reference_fit_scene(grid, gts, assigner, optimizer, init, weights,
                                       regression, init_seed=7, n_classes=3, state=state)
    got = [(r.step, r.l_cls, r.l_reg, r.l_iou, r.total, r.mean_true_iou) for r in report.steps]
    assert [[float(v).hex() for v in row] for row in got] == \
        [[float(v).hex() for v in row] for row in steps]
    for name in ("loc", "log_size", "sin_cos", "score_logits", "iou_conf_raw"):
        assert getattr(report.final_state, name).tobytes() == getattr(final, name).tobytes(), name


def frozen_scene():
    """Exact init with every center cell on its target, then four cells knocked off.

    Lengths of exactly 1 keep log-size 0, where even the ulp-scale gradient
    residue at equality would move a cell that is not frozen. Of the eight
    boxes, two get a moved center (yaw-only freeze) and two a turned yaw.
    Returns ``(gts, assigner, state)``.
    """
    gts = []
    for i, (x, y, theta) in enumerate([(-5.5, -5.5, 0.3), (-1.5, -5.5, 5.1), (2.5, -5.5, 1.7),
                                       (5.5, -1.5, 5.9), (-5.5, 2.5, 2.2), (-1.5, 5.5, 4.0),
                                       (2.5, 2.5, 0.9), (5.5, 5.5, 3.3)]):
        w = bevbox.harness._snap_size(0.6 + 0.25 * i)
        h = bevbox.harness._snap_size(0.5 + 0.2 * i)
        theta = bevbox.harness._snap_yaw(theta)
        gts.append(GroundTruth(Box3D(x, y, 0.5 * h, 1.0, w, h, theta), class_id=i % 3))
    assigner = AssignerConfig(kind="center")
    state = init_state(GRID16, gts, 3, InitConfig(kind="exact"), assigner, 0)
    cells = [world_to_cell(GRID16, gt.box.x, gt.box.y) for gt in gts]
    for cell in cells[0:2]:
        state.loc[cell.row, cell.col, 0] += 0.3
    for cell in cells[2:4]:
        state.sin_cos[cell.row, cell.col] += (0.1, -0.1)
    return gts, assigner, state


class TestFitMatchesScalarReference:
    """The array-native fit step against per-positive scalar losses, the full
    focal formula, a per-cell update and a full decode after every update:
    step records and final state bitwise equal."""

    @pytest.mark.parametrize("regression", ["rwiou", "smooth_l1"])
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_noisy_fit(self, regression, r):
        gts = generate_scene(scene16())
        assert_fit_matches_reference(gts, AssignerConfig(kind="dcla", r=r), regression)

    @pytest.mark.parametrize("regression", ["rwiou", "smooth_l1"])
    def test_frozen_and_yaw_frozen_cells(self, regression):
        gts, assigner, state = frozen_scene()
        assert_fit_matches_reference(gts, assigner, regression, n_steps=20, state=state)

    def test_frozen_cells_keep_fitting_confidence(self):
        # Every positive is frozen at the exact init, but with the raw
        # confidence at 0 its tanh gradient is not: the confidence update
        # and refresh cover all positives, not only the live ones.
        gts = generate_scene(scene16())
        assigner = AssignerConfig(kind="center")
        state = init_state(GRID16, gts, 3, InitConfig(kind="exact"), assigner, 0)
        state.iou_conf_raw[:] = 0.0
        assert_fit_matches_reference(gts, assigner, "rwiou", n_steps=10, state=state)
        report = fit_scene(GRID16, gts, assigner=assigner, optimizer=OptimizerConfig(n_steps=10),
                           n_classes=3, state=state)
        assert report.final_state.loc.tobytes() == state.loc.tobytes()
        assert not np.array_equal(report.final_state.iou_conf_raw, state.iou_conf_raw)

    def test_dense_center_shape(self):
        # The dense_center benchmark's shape: 128x128, center assignment and
        # smooth L1, so nearly every heatmap entry takes the q == 0 form and
        # the map is refreshed at a handful of cells per step.
        grid = GridSpec(x_min=-64.0, y_min=-64.0, cell_size=1.0, n_rows=128, n_cols=128)
        gts = generate_scene(SceneConfig(grid=grid, n_objects=6, seed=0))
        assert_fit_matches_reference(gts, AssignerConfig(kind="center"), "smooth_l1",
                                     n_steps=30, grid=grid)


class TestRowRefresh:
    """``TrainState._decode`` against a full decode of the same state."""

    def test_equals_full_decode(self):
        rng = np.random.default_rng(41)
        gts = generate_scene(scene16())
        state = init_state(GRID16, gts, 3, InitConfig(), AssignerConfig(), 0)
        scores = state.prediction_map().scores
        flat = rng.choice(16 * 16, size=40, replace=False)
        boxes_at = np.divmod(flat[:25], 16)
        conf_at = np.divmod(flat[15:], 16)
        state.loc[boxes_at] += rng.normal(0.0, 0.5, (25, 3))
        state.log_size[boxes_at] += rng.normal(0.0, 0.5, (25, 3))
        state.sin_cos[boxes_at] += rng.normal(0.0, 0.5, (25, 2))
        state.iou_conf_raw[conf_at] += rng.normal(0.0, 2.0, 25)
        state.score_logits += rng.normal(0.0, 3.0, state.score_logits.shape)
        boxes, conf = state._decode(boxes_at, conf_at, scores)
        full = state.prediction_map()
        assert scores.tobytes() == full.scores.tobytes()
        assert boxes.tobytes() == full.boxes[boxes_at].tobytes()
        assert conf.tobytes() == full.iou_conf[conf_at].tobytes()

    @pytest.mark.parametrize("field,value,message", [
        ("loc", math.nan, "boxes must be finite"),
        ("log_size", math.inf, "boxes must be finite"),
        ("log_size", -math.inf, "box sizes must be strictly positive"),
        ("sin_cos", -math.inf, "boxes must be finite"),
        ("score_logits", math.nan, "scores must be finite"),
        ("iou_conf_raw", math.nan, "iou_conf must be finite"),
    ])
    def test_rejects_what_a_full_decode_rejects(self, field, value, message):
        gts = generate_scene(scene16())
        state = init_state(GRID16, gts, 3, InitConfig(), AssignerConfig(), 0)
        scores = state.prediction_map().scores
        cells = (np.array([2, 9]), np.array([5, 11]))
        getattr(state, field)[9, 11] = value
        snapshot = state.copy()
        with pytest.raises(ValueError) as full:
            state.prediction_map()
        assert str(full.value) == message
        with pytest.raises(ValueError) as decoded:
            state._decode(cells, cells, scores)
        assert str(decoded.value) == message
        # Decoding never writes the state.
        for name in ("loc", "log_size", "sin_cos", "score_logits", "iou_conf_raw"):
            assert getattr(state, name).tobytes() == getattr(snapshot, name).tobytes()

    def test_nan_score_logit_is_divergence(self, monkeypatch):
        real_descend_logits = bevbox.harness._descend_logits

        def nan_update(logits, grads, scores, step):
            real_descend_logits(logits, grads, scores, step)
            logits.reshape(-1)[0] = math.nan

        monkeypatch.setattr(bevbox.harness, "_descend_logits", nan_update)
        gts = generate_scene(scene16())
        with pytest.raises(DivergenceError) as exc_info:
            fit_scene(GRID16, gts, optimizer=OptimizerConfig(n_steps=3), n_classes=3)
        err = exc_info.value
        assert err.step == 1
        assert type(err.__cause__) is ValueError
        assert str(err.__cause__) == "scores must be finite"

    def test_non_finite_confidence_step_rejected(self):
        # Off the positives the confidence step would be inf * 0.0 = NaN.
        gts = generate_scene(scene16())
        with pytest.raises(ValueError, match="lambda_iou must be finite"):
            fit_scene(GRID16, gts, optimizer=OptimizerConfig(step_size=1e300, n_steps=1),
                      weights=LossWeights(lambda_iou=1e10), n_classes=3)


class TestUfuncsAreElementwiseExact:
    """The row refresh decodes a few cells at a time, and the focal loss
    works block by block and runs its full formula on the q != 0 entries
    alone.  Both rely on these numpy functions giving a value the same bits
    whether it sits in a whole map, a gathered subset or a 1-element array."""

    @pytest.mark.parametrize("fn,lo,hi", [
        (np.exp, -30.0, 30.0),
        (np.tanh, -25.0, 25.0),
        (np.log, 1e-8, 1e3),
        (np.log1p, -1.0 + 1e-9, 1e3),
    ])
    def test_same_bits_in_any_position(self, fn, lo, hi):
        rng = np.random.default_rng(51)
        x = rng.uniform(lo, hi, (200, 170, 3))  # 102k values, map-shaped
        whole = fn(x)
        for size in (1, 2, 7, 30, 1000):
            rows = rng.integers(0, 200, size)
            cols = rng.integers(0, 170, size)
            assert fn(x[rows, cols]).tobytes() == whole[rows, cols].tobytes()
        flat = x.ravel()
        single = np.array([fn(flat[i:i + 1])[0] for i in range(flat.size)])
        assert single.tobytes() == whole.ravel().tobytes()


class TestSigmoid:
    def test_matches_two_branch_form_bitwise(self):
        rng = np.random.default_rng(61)
        x = np.concatenate([
            rng.uniform(-100.0, 100.0, 1_000_000),
            rng.uniform(-800.0, 800.0, 10_000),
            [0.0, -0.0, 800.0, -800.0, 745.2, -745.2, 5e-324, -5e-324, math.inf, -math.inf],
        ])
        assert bevbox.harness._sigmoid(x).tobytes() == reference_sigmoid(x).tobytes()
        grid = x[:49_152].reshape(128, 128, 3)
        assert bevbox.harness._sigmoid(grid).tobytes() == reference_sigmoid(grid).tobytes()


class TestBlowUp:
    @pytest.mark.parametrize("step_size,cause", [(1e3, ZeroDivisionError), (1e5, ValueError)])
    def test_unusable_update_raises_divergence(self, step_size, cause):
        gts = generate_scene(scene16())
        # Any numpy warning escaping on the way to the divergence fails.
        with pytest.raises(DivergenceError) as exc_info, warnings.catch_warnings():
            warnings.simplefilter("error")
            fit_scene(GRID16, gts, optimizer=OptimizerConfig(step_size=step_size, n_steps=20),
                      n_classes=3)
        err = exc_info.value
        assert isinstance(err.__cause__, cause)
        assert err.step >= 1
        assert math.isfinite(err.report.total)
        assert "exceeded" not in str(err)
        assert f"at step {err.step}" in str(err)

    def test_invalid_initial_state_stays_value_error(self):
        gts = generate_scene(scene16())
        state = init_state(GRID16, gts, 3, InitConfig(), AssignerConfig(), 0)
        state.loc[0, 0, 0] = math.nan
        with pytest.raises(ValueError, match="finite"):
            fit_scene(GRID16, gts, optimizer=OptimizerConfig(n_steps=3), n_classes=3,
                      state=state)


class TestIouReadout:
    def test_matches_scan_readout_on_random_scenes(self):
        for seed in range(20):
            rng = np.random.default_rng(700 + seed)
            grid, gts, preds = random_scene(rng, n_gts=int(rng.integers(1, 6)))
            r = seed % 3
            assignment = assign_dcla(grid, gts, preds, r=r, lambda_reg=2.0, alpha=0.3)
            expected = scan_readout(grid, gts, preds, r, lambda_reg=2.0, alpha=0.3)
            assert _true_iou_per_gt(assignment) == expected

    @pytest.mark.parametrize("assigner", [AssignerConfig(kind="dcla", r=1),
                                          AssignerConfig(kind="center")])
    def test_fit_reports_scan_readout(self, assigner):
        gts = generate_scene(scene16())
        report = fit_scene(GRID16, gts, assigner=assigner,
                           optimizer=OptimizerConfig(n_steps=10), n_classes=3)
        preds = report.final_state.prediction_map()
        assert report.final_iou_per_gt == scan_readout(GRID16, gts, preds,
                                                       assigner.effective_r)


class TestBalance:
    def test_center_assignment_is_perfectly_balanced(self):
        # distinct center cells guarantee every gt keeps exactly its center
        # under r = 0, so each class mean is exactly 1 and the ratio exactly 1
        scene = SceneConfig(grid=GRID16, n_objects=6, seed=0)
        report = balance_experiment(
            scene, AssignerConfig(kind="dcla", r=0),
            n_scenes=2, warmup_steps=10,
        )
        assert set(report.mean_k_by_class) == {"vehicle", "pedestrian", "cyclist"}
        for value in report.mean_k_by_class.values():
            assert value == 1.0
        assert report.max_min_ratio == 1.0
        assert report.n_scenes == 2

    def test_cross_assignment_spreads_k(self):
        scene = SceneConfig(grid=GRID32, n_objects=6, seed=0)
        report = balance_experiment(
            scene, AssignerConfig(kind="dcla", r=1),
            n_scenes=2, warmup_steps=20,
        )
        assert report.mean_k_by_class["vehicle"] > 1.0
        assert report.max_min_ratio >= 1.0
        payload = report.to_json_dict()
        assert set(payload) == {"mean_k_by_class", "n_scenes", "max_min_ratio"}


BASE_CONFIG = {
    "scene": {
        "grid": {"x_min": -8.0, "y_min": -8.0, "cell_size": 1.0,
                 "n_rows": 16, "n_cols": 16},
        "n_objects": 3,
        "seed": 0,
    },
    "assigner": {"kind": "dcla", "r": 1},
    "optimizer": {"step_size": 0.05, "n_steps": 8},
    "init": {"kind": "noisy"},
    "weights": {"lambda_cls": 1.0, "lambda_reg": 3.0, "lambda_iou": 1.0,
                "alpha": 0.5},
    "regression": "rwiou",
    "seeds": [0, 1],
}


def strip_wall_clock(aggregate):
    trimmed = json.loads(json.dumps(aggregate))
    for entry in trimmed["per_seed"]:
        entry.pop("wall_clock_s")
    return trimmed


class TestRunFitConfig:
    def test_writes_outputs(self, tmp_path):
        aggregate = run_fit_config(dict(BASE_CONFIG), out_dir=tmp_path)
        assert (tmp_path / "fit_seed0.csv").exists()
        assert (tmp_path / "fit_seed1.csv").exists()
        report = json.loads((tmp_path / "fit_report.json").read_text())
        assert report["seeds"] == [0, 1]
        assert strip_wall_clock(report) == strip_wall_clock(aggregate)
        assert 0.0 <= aggregate["min_seed_mean"] <= aggregate["mean_final_iou"] <= 1.0

    def test_deterministic_across_runs(self, tmp_path):
        a = run_fit_config(dict(BASE_CONFIG), out_dir=tmp_path / "a")
        b = run_fit_config(dict(BASE_CONFIG), out_dir=tmp_path / "b")
        assert strip_wall_clock(a) == strip_wall_clock(b)
        csv_a = (tmp_path / "a" / "fit_seed0.csv").read_bytes()
        csv_b = (tmp_path / "b" / "fit_seed0.csv").read_bytes()
        assert csv_a == csv_b

    def test_out_dir_argument_wins(self, tmp_path):
        config = dict(BASE_CONFIG)
        config["output"] = {"dir": str(tmp_path / "from_config"), "prefix": "run"}
        config["seeds"] = [0]
        run_fit_config(config, out_dir=tmp_path / "from_arg")
        assert (tmp_path / "from_arg" / "run_seed0.csv").exists()
        assert not (tmp_path / "from_config").exists()

    def test_defaults_without_optional_sections(self, tmp_path):
        config = {"scene": dict(BASE_CONFIG["scene"]),
                  "optimizer": {"n_steps": 3}}
        aggregate = run_fit_config(config, out_dir=tmp_path)
        assert aggregate["regression"] == "rwiou"
        assert aggregate["assigner"] == {"kind": "dcla", "r": 1}
        assert aggregate["seeds"] == [0]

    def test_unknown_keys_rejected(self):
        config = dict(BASE_CONFIG)
        config["extra"] = 1
        with pytest.raises(ValueError, match="unknown keys.*extra"):
            run_fit_config(config)
        config = dict(BASE_CONFIG)
        config["scene"] = dict(config["scene"], typo=2)
        with pytest.raises(ValueError, match="scene"):
            run_fit_config(config)
        config = dict(BASE_CONFIG)
        config["optimizer"] = {"learning_rate": 0.1}
        with pytest.raises(ValueError, match="optimizer"):
            run_fit_config(config)

    def test_missing_scene_rejected(self):
        with pytest.raises(ValueError, match="missing keys.*scene"):
            run_fit_config({"seeds": [0]})

    def test_bad_regression_rejected_before_output(self, tmp_path):
        config = dict(BASE_CONFIG, regression="l2",
                      output={"dir": str(tmp_path / "runs")})
        with pytest.raises(ValueError, match="regression must be"):
            run_fit_config(config)
        assert not (tmp_path / "runs").exists()

    def test_empty_seed_list_rejected(self):
        config = dict(BASE_CONFIG)
        config["seeds"] = []
        with pytest.raises(ValueError, match="seeds"):
            run_fit_config(config)


STATE_FIELDS = ("loc", "log_size", "sin_cos", "score_logits", "iou_conf_raw")


def assert_same_fit(stacked, single):
    """A stacked fit's report for one scene against that scene's own fit."""
    assert stacked.trajectory_csv() == single.trajectory_csv()
    assert [v.hex() for v in stacked.final_iou_per_gt] == \
        [v.hex() for v in single.final_iou_per_gt]
    assert stacked.k_by_class == single.k_by_class
    timeless = [{k: v for k, v in r.to_json_dict().items() if k != "wall_clock_s"}
                for r in (stacked, single)]
    assert json.dumps(timeless[0]) == json.dumps(timeless[1])
    for name in STATE_FIELDS:
        a, b = getattr(stacked.final_state, name), getattr(single.final_state, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


class TestStackedFit:
    """Scenes fitted in one stacked pass against each scene's own fit."""

    @pytest.mark.parametrize("regression", ["rwiou", "smooth_l1"])
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_each_scene_equals_its_own_fit(self, regression, r):
        # Different ground-truth counts, one scene with none.
        scenes = [generate_scene(SceneConfig(grid=GRID16, n_objects=n, seed=seed))
                  for seed, n in enumerate([4, 0, 2, 5, 1])]
        seeds = [21, 22, 23, 24, 25]
        config = dict(assigner=AssignerConfig(kind="dcla", r=r),
                      optimizer=OptimizerConfig(n_steps=25),
                      init=InitConfig(kind="noisy", sigma_loc=0.5), weights=LossWeights(),
                      regression=regression, n_classes=3)
        reports, failure = _fit_scenes(GRID16, scenes, seeds, **config)
        assert failure is None
        assert [report.seed for report in reports] == seeds
        for gts, seed, report in zip(scenes, seeds, reports):
            assert_same_fit(report, fit_scene(GRID16, gts, init_seed=seed, **config))
        # The pass's wall time, divided evenly over its scenes.
        assert len({report.wall_clock_s for report in reports}) == 1

    @pytest.mark.parametrize("regression", ["rwiou", "smooth_l1"])
    def test_frozen_and_yaw_frozen_states(self, regression):
        gts, assigner, frozen = frozen_scene()
        other = generate_scene(scene16())
        scenes = [gts, other, gts]
        states = [frozen, init_state(GRID16, other, 3, InitConfig(), assigner, 5), frozen]
        config = dict(assigner=assigner, optimizer=OptimizerConfig(n_steps=20),
                      init=InitConfig(), weights=LossWeights(), regression=regression,
                      n_classes=3)
        reports, failure = _fit_scenes(GRID16, scenes, [0, 5, 0], states=states, **config)
        assert failure is None
        for gts_i, state, seed, report in zip(scenes, states, [0, 5, 0], reports):
            assert_same_fit(report, fit_scene(GRID16, gts_i, state=state, init_seed=seed,
                                              **config))
        assert frozen.loc.tobytes() == frozen_scene()[2].loc.tobytes()  # inputs untouched


def seed_by_seed(config, out_dir):
    """The loop a stacked fit replaces: one fit per seed, in config order."""
    for seed in config["seeds"]:
        run_fit_config(dict(config, seeds=[seed]), out_dir=out_dir)


def failed_run(run, config, out_dir):
    """The exception ``run`` raises and the trajectory files it left."""
    with pytest.raises(Exception) as info:
        run(config, out_dir)
    return info.value, {path.name: path.read_bytes() for path in sorted(out_dir.glob("*.csv"))}


class TestStackedFailureOrder:
    """A stacked ``run_fit_config`` fails as fitting its seeds one by one
    would: the first seed in config order that fails, at the same step, with
    the same report, reason and cause, and the same trajectory files."""

    def assert_fails_like_seed_by_seed(self, config, tmp_path):
        stacked, stacked_files = failed_run(run_fit_config, config, tmp_path / "stacked")
        single, single_files = failed_run(seed_by_seed, config, tmp_path / "single")
        assert type(stacked) is type(single)
        assert str(stacked) == str(single)
        if isinstance(single, DivergenceError):
            assert stacked.step == single.step
            assert stacked.report == single.report
            assert type(stacked.__cause__) is type(single.__cause__)
            assert str(stacked.__cause__) == str(single.__cause__)
        assert stacked_files == single_files
        return stacked, stacked_files

    @pytest.mark.parametrize("seeds,step_size,step,cause", [
        # Seed 4 blows up at step 4, seed 6 after it in the list at step 1.
        ([5, 4, 6], 300.0, 4, ZeroDivisionError),
        # Seed 2 at step 3, seed 3 at step 1.
        ([2, 3], 1e3, 3, ZeroDivisionError),
        # Both at step 1: the first in the list.
        ([1, 0], 1e5, 1, ValueError),
    ])
    def test_first_seed_in_order_wins(self, tmp_path, seeds, step_size, step, cause):
        config = dict(BASE_CONFIG, seeds=seeds,
                      optimizer={"step_size": step_size, "n_steps": 20})
        config["scene"] = dict(config["scene"], n_objects=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            error, files = self.assert_fails_like_seed_by_seed(config, tmp_path)
        assert isinstance(error, DivergenceError)
        assert error.step == step
        assert isinstance(error.__cause__, cause)
        failing = seeds.index(next(s for s in seeds if f"fit_seed{s}.csv" not in files))
        assert set(files) == {f"fit_seed{s}.csv" for s in seeds[:failing]}

    def test_first_scene_over_the_threshold_wins(self):
        # Scenes 2 and 3 cross the threshold at step 0 with different totals,
        # in one focal group (two 32x32 scenes each); 0 and 1 finish.
        gts = generate_scene(SceneConfig(grid=GRID32, n_objects=4, seed=2))
        assigner = AssignerConfig(kind="dcla", r=1)
        states = [init_state(GRID32, gts, 3, InitConfig(kind="exact"), assigner, 0)
                  for _ in range(4)]
        states[2].score_logits[:] = SATURATED_LOGIT
        states[3].score_logits[:24] = SATURATED_LOGIT
        optimizer = OptimizerConfig(n_steps=3)
        reports, failure = _fit_scenes(GRID32, [gts] * 4, [0, 1, 2, 3], assigner, optimizer,
                                       InitConfig(), LossWeights(), "rwiou", 3, states=states)
        assert [report.seed for report in reports] == [0, 1]
        own = []
        for state in states[2:]:
            with pytest.raises(DivergenceError) as info:
                fit_scene(GRID32, gts, assigner=assigner, optimizer=optimizer, n_classes=3,
                          state=state)
            own.append(info.value)
        assert own[0].report != own[1].report
        assert isinstance(failure, DivergenceError)
        assert (failure.step, failure.report, str(failure)) == \
            (own[0].step, own[0].report, str(own[0]))

    def test_first_unusable_scene_wins(self, monkeypatch):
        # NaN logits in every scene but the first after step 0's update.
        real_descend_logits = bevbox.harness._descend_logits

        def nan_update(logits, grads, scores, step):
            real_descend_logits(logits, grads, scores, step)
            logits[1:, 0, 0, 0] = math.nan

        monkeypatch.setattr(bevbox.harness, "_descend_logits", nan_update)
        scenes = [generate_scene(SceneConfig(grid=GRID16, n_objects=n, seed=seed))
                  for seed, n in enumerate([3, 4, 2])]
        optimizer = OptimizerConfig(n_steps=3)
        reports, failure = _fit_scenes(GRID16, scenes, [0, 1, 2], AssignerConfig(), optimizer,
                                       InitConfig(), LossWeights(), "rwiou", 3)
        assert [report.seed for report in reports] == [0]
        assert isinstance(failure, DivergenceError)
        assert failure.step == 1
        assert str(failure.__cause__) == "scores must be finite"
        monkeypatch.undo()
        own = fit_scene(GRID16, scenes[1], optimizer=OptimizerConfig(n_steps=0), init_seed=1,
                        n_classes=3)
        assert failure.report.total == own.steps[0].total

    def test_unplaceable_seed_partway(self, tmp_path):
        # With five attempts per object, seed 5 cannot place its six objects.
        config = dict(BASE_CONFIG, seeds=[2, 3, 5, 6])
        config["scene"] = dict(config["scene"], n_objects=6, max_attempts=5)
        error, files = self.assert_fails_like_seed_by_seed(config, tmp_path)
        assert isinstance(error, PlacementError)
        assert set(files) == {"fit_seed2.csv", "fit_seed3.csv"}

    def test_divergence_before_an_unplaceable_seed(self, tmp_path):
        config = dict(BASE_CONFIG, seeds=[4, 5], optimizer={"step_size": 300.0, "n_steps": 20})
        config["scene"] = dict(config["scene"], n_objects=6, max_attempts=5)
        error, files = self.assert_fails_like_seed_by_seed(config, tmp_path)
        assert isinstance(error, DivergenceError)
        assert files == {}


SCENE_FILE = {
    "grid": {"x_min": -8.0, "y_min": -8.0, "cell_size": 1.0,
             "n_rows": 16, "n_cols": 16},
    "ground_truths": [
        {"box": [1.5, 2.5, 0.0, 4.2, 1.9, 1.6, 0.4], "class_id": 0},
        {"box": [-3.5, -2.5, 0.0, 0.9, 0.8, 1.7, 2.0], "class_id": 1},
    ],
}


class TestLoadScene:
    def test_exact_predictions(self):
        scene = dict(SCENE_FILE, predictions={"kind": "exact"})
        grid, gts, preds = load_scene(scene, r=1)
        assert grid.n_rows == 16
        assert len(gts) == 2
        assert preds.n_classes == 2
        cell = world_to_cell(grid, 1.5, 2.5)
        box = gts[0].box
        assert preds.boxes[cell.row, cell.col].tolist() == [
            box.x, box.y, box.z, box.l, box.w, box.h,
            math.sin(box.theta), math.cos(box.theta),
        ]

    def test_noisy_predictions_deterministic(self):
        scene = dict(SCENE_FILE, predictions={"kind": "noisy", "seed": 3})
        _, _, a = load_scene(scene)
        _, _, b = load_scene(scene)
        assert np.array_equal(a.boxes, b.boxes)
        scene2 = dict(SCENE_FILE, predictions={"kind": "noisy", "seed": 4})
        _, _, c = load_scene(scene2)
        assert not np.array_equal(a.boxes, c.boxes)

    def test_explicit_predictions_passthrough(self):
        boxes = np.ones((16, 16, 8)).tolist()
        scores = np.full((16, 16, 2), 0.25).tolist()
        scene = dict(SCENE_FILE, predictions={
            "kind": "explicit", "boxes": boxes, "scores": scores,
        })
        _, _, preds = load_scene(scene)
        assert np.array_equal(preds.boxes, np.ones((16, 16, 8)))
        assert np.array_equal(preds.iou_conf, np.zeros((16, 16)))

    def test_n_classes_default_and_override(self):
        _, _, preds = load_scene(dict(SCENE_FILE))
        assert preds.n_classes == 2
        _, _, preds = load_scene(dict(SCENE_FILE, n_classes=5))
        assert preds.n_classes == 5

    def test_malformed_scene_rejected(self):
        bad = dict(SCENE_FILE)
        bad["ground_truths"] = [{"box": [0, 0, 0, 1, 1, 1], "class_id": 0}]
        with pytest.raises(ValueError, match="7 values"):
            load_scene(bad)
        with pytest.raises(ValueError, match="unknown keys"):
            load_scene(dict(SCENE_FILE, extra=1))
        with pytest.raises(ValueError, match="kind"):
            load_scene(dict(SCENE_FILE, predictions={"kind": "guess"}))
