"""Release gate: ten numbered checks with stated tolerances and time budgets.

Each test prints one ``[PASS]`` line (visible under ``pytest -s``) carrying
the measured headline number; a failing criterion produces a normal pytest
failure instead. Expensive multi-seed runs are shared through fixtures
(criterion 9's 20-seed fits with the digest checks, in ``conftest.py``) so
the whole gate stays inside its runtime budgets.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from bevbox import (
    AssignerConfig,
    Box3D,
    GridSpec,
    GroundTruth,
    LossWeights,
    InitConfig,
    PredictionMap,
    assign_center,
    assign_dcla,
    classification_loss,
    convex_intersection_area,
    dynamic_k_from_ious,
    gradient_bound_audit,
    gradient_check,
    init_state,
    iou_prediction_loss,
    mc_iou_oracle,
    regression_loss_scene,
    rotated_iou_exact,
    rwiou,
    total_loss,
)
from bevbox.harness import _scene_config_from_dict, balance_experiment

from helpers import brute_force_assign, random_scene


def _report(line):
    print(line, flush=True)


def test_criterion_01_alpha_zero_degenerates_to_axis_aligned_iou():
    n = 100_000
    rng = np.random.default_rng(11)
    c1 = np.column_stack([rng.uniform(-5, 5, (n, 2)), rng.uniform(-2, 2, n)])
    s1 = rng.uniform(0.3, 6, (n, 3))
    c2 = c1 + rng.uniform(-4, 4, (n, 3))
    s2 = rng.uniform(0.3, 6, (n, 3))
    yaw1 = rng.uniform(-math.pi, math.pi, n)
    yaw2 = rng.uniform(-math.pi, math.pi, n)

    # Independent oracle: interval overlaps straight from the parameters.
    lo = np.maximum(c1 - 0.5 * s1, c2 - 0.5 * s2)
    hi = np.minimum(c1 + 0.5 * s1, c2 + 0.5 * s2)
    inter = np.prod(np.clip(hi - lo, 0.0, None), axis=1)
    union = np.prod(s1, axis=1) + np.prod(s2, axis=1) - inter
    expected = inter / union

    t0 = time.monotonic()
    max_diff = 0.0
    for i in range(n):
        b1 = Box3D(c1[i, 0], c1[i, 1], c1[i, 2], s1[i, 0], s1[i, 1], s1[i, 2],
                   yaw1[i])
        b2 = Box3D(c2[i, 0], c2[i, 1], c2[i, 2], s2[i, 0], s2[i, 1], s2[i, 2],
                   yaw2[i])
        diff = abs(rwiou(b1, b2, 0.0) - expected[i])
        if diff > max_diff:
            max_diff = diff
    elapsed = time.monotonic() - t0

    assert max_diff <= 1e-12
    assert elapsed < 5.0
    _report(f"[PASS] criterion 01: alpha=0 equals axis-aligned IoU on {n} "
            f"pairs (max abs diff {max_diff:.2e}, {elapsed:.1f}s)")


def test_criterion_02_exact_iou_within_monte_carlo_error_bars():
    rng = np.random.default_rng(23)
    t0 = time.monotonic()
    max_z = 0.0
    for i in range(200):
        cx, cy = rng.uniform(-3, 3, 2)
        cz = rng.uniform(-1, 1)
        l, w, h = rng.uniform(0.8, 5, 3)
        b1 = Box3D(cx, cy, cz, l, w, h, rng.uniform(-math.pi, math.pi))
        # Offsets stay within half a size so the overlap is substantial and
        # the binomial error bar is meaningful.
        b2 = Box3D(cx + rng.uniform(-0.4, 0.4) * l,
                   cy + rng.uniform(-0.4, 0.4) * w,
                   cz + rng.uniform(-0.4, 0.4) * h,
                   l * rng.uniform(0.7, 1.4), w * rng.uniform(0.7, 1.4),
                   h * rng.uniform(0.7, 1.4), rng.uniform(-math.pi, math.pi))
        exact = rotated_iou_exact(b1, b2)
        est = mc_iou_oracle(b1, b2, n_samples=1_000_000, seed=1000 + i)
        assert est.stderr > 0.0
        z = abs(exact - est.value) / est.stderr
        max_z = max(max_z, z)
        assert z <= 4.0

    # Closed-form cross-check: a square against its 45 degree rotation
    # intersects in a regular octagon.
    square = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
    d = math.sqrt(2.0)
    rotated = [(0.0, -d), (d, 0.0), (0.0, d), (-d, 0.0)]
    area = convex_intersection_area(square, rotated)
    assert area == pytest.approx(8.0 * (math.sqrt(2.0) - 1.0), abs=1e-9)
    o1 = Box3D(0, 0, 1, 2, 2, 2, 0.0)
    o2 = Box3D(0, 0, 1, 2, 2, 2, math.pi / 4)
    assert rotated_iou_exact(o1, o2) == pytest.approx(1.0 / math.sqrt(2.0),
                                                      abs=1e-9)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(f"[PASS] criterion 02: exact IoU within 4 sigma of Monte Carlo "
            f"on 200 pairs (max |z| {max_z:.2f}) and octagon closed form to "
            f"1e-9 ({elapsed:.1f}s)")


def test_criterion_03_analytic_gradients_match_finite_differences():
    t0 = time.monotonic()
    report = gradient_check(n_samples=10_000, seed=0, alpha=0.5,
                            rel_tol=1e-5)
    elapsed = time.monotonic() - t0
    assert report.passed
    assert report.n_failures == 0
    assert elapsed < 30.0
    _report(f"[PASS] criterion 03: analytic gradients match central "
            f"differences on {report.n_samples} pairs (max rel err "
            f"{report.max_rel_err:.2e}, {elapsed:.1f}s)")


def test_criterion_04_gradient_magnitude_bounds_hold():
    t0 = time.monotonic()
    audit = gradient_bound_audit(n_samples=10_000, seed=0, alpha=0.5)
    elapsed = time.monotonic() - t0
    assert audit.passed
    for regime in audit.regimes:
        assert regime.n_violations == 0
        assert regime.max_observed <= regime.bound + 1e-9
    assert elapsed < 30.0
    worst = max(r.max_observed / r.bound for r in audit.regimes)
    _report(f"[PASS] criterion 04: gradient magnitude bounds hold in all "
            f"{len(audit.regimes)} regimes on {audit.n_samples} samples "
            f"(worst bound fraction {worst:.3f}, {elapsed:.1f}s)")


def test_criterion_05_dynamic_k_formula_conformance():
    def oracle(ious, n_candidates=None):
        n = len(ious) if n_candidates is None else n_candidates
        total = 0.0
        for v in ious:
            total += v
        k = max(math.floor(total), 1)
        return max(min(k, n), 1) if n > 0 else 1

    t0 = time.monotonic()
    grid = [i / 20.0 for i in range(21)]
    n_cases = 0
    for a in grid:
        assert dynamic_k_from_ious([a]) == oracle([a])
        n_cases += 1
        for b in grid:
            assert dynamic_k_from_ious([a, b]) == oracle([a, b])
            n_cases += 1
            for c in grid:
                assert dynamic_k_from_ious([a, b, c]) == oracle([a, b, c])
                n_cases += 1
    assert dynamic_k_from_ious([]) == oracle([]) == 1

    rng = np.random.default_rng(5)
    for _ in range(10_000):
        length = int(rng.integers(1, 31))
        if rng.random() < 0.5:
            ious = [float(v) for v in rng.uniform(0, 1, length)]
        else:
            # Quarter-unit values make the running sum hit exact integers,
            # exercising the floor at its breakpoints.
            ious = [float(v) / 4.0 for v in rng.integers(0, 5, length)]
        cap = None if rng.random() < 0.5 else int(rng.integers(1, length + 1))
        assert dynamic_k_from_ious(ious, cap) == oracle(ious, cap)
        n_cases += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(f"[PASS] criterion 05: dynamic k equals max(floor(sum IoU), 1) "
            f"with candidate cap on {n_cases} cases ({elapsed:.1f}s)")


def _assert_assignments_identical(result, positives, requested_k, owner,
                                  heatmap, unassigned):
    assert [[(c.row, c.col) for c in cells] for cells in result.positives] \
        == positives
    assert list(result.requested_k) == list(requested_k)
    assert np.array_equal(result.owner, owner)
    assert np.array_equal(result.heatmap, heatmap)
    assert list(result.unassigned) == list(unassigned)


def test_criterion_06_assignment_matches_brute_force_oracle():
    rng = np.random.default_rng(29)
    t0 = time.monotonic()
    for _ in range(100):
        n_rows = int(rng.integers(6, 33))
        n_cols = int(rng.integers(6, 33))
        n_gts = int(rng.integers(1, 9))
        grid, gts, preds = random_scene(rng, n_rows=n_rows, n_cols=n_cols,
                                        n_gts=n_gts)
        r = int(rng.integers(0, 3))
        result = assign_dcla(grid, gts, preds, r=r)
        expected = brute_force_assign(grid, gts, preds, r)
        _assert_assignments_identical(result, *expected)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(f"[PASS] criterion 06: assignment bit-identical to brute-force "
            f"oracle on 100 random scenes ({elapsed:.1f}s)")


def test_criterion_07_radius_zero_equals_center_assignment():
    rng = np.random.default_rng(31)
    t0 = time.monotonic()
    for _ in range(100):
        grid, gts, preds = random_scene(rng, n_rows=int(rng.integers(6, 25)),
                                        n_cols=int(rng.integers(6, 25)),
                                        n_gts=int(rng.integers(1, 7)))
        a = assign_dcla(grid, gts, preds, r=0)
        b = assign_center(grid, gts, preds)
        assert a.positives == b.positives
        assert a.requested_k == b.requested_k
        assert np.array_equal(a.owner, b.owner)
        assert np.array_equal(a.heatmap, b.heatmap)
        assert a.unassigned == b.unassigned
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(f"[PASS] criterion 07: r=0 assignment identical to center-based "
            f"assignment on 100 random scenes ({elapsed:.1f}s)")


def test_criterion_08_loss_normalization_and_recomposition():
    grid1 = GridSpec(x_min=-8.0, y_min=-8.0, cell_size=1.0, n_rows=16,
                     n_cols=16)
    grid2 = GridSpec(x_min=-8.0, y_min=-8.0, cell_size=1.0, n_rows=16,
                     n_cols=32)
    offset = 16.0
    gts1 = [
        GroundTruth(Box3D(-3.5, -2.5, 0.0, 4.6, 2.0, 1.7, 0.35), 0),
        GroundTruth(Box3D(2.5, 3.5, 0.2, 0.9, 0.85, 1.7, -1.2), 1),
        GroundTruth(Box3D(3.5, -4.5, -0.1, 1.8, 0.8, 1.7, 2.6), 2),
        GroundTruth(Box3D(-4.5, 4.5, 0.1, 4.8, 2.1, 1.6, -0.7), 0),
    ]
    gts2 = gts1 + [
        GroundTruth(replace(gt.box, x=gt.box.x + offset), gt.class_id)
        for gt in gts1
    ]
    preds1 = init_state(grid1, gts1, 3, InitConfig(kind="noisy"),
                        AssignerConfig(kind="dcla", r=1),
                        seed=5).prediction_map()
    shifted = preds1.boxes.copy()
    shifted[:, :, 0] += offset
    preds2 = PredictionMap(
        boxes=np.concatenate([preds1.boxes, shifted], axis=1),
        scores=np.concatenate([preds1.scores, preds1.scores], axis=1),
        iou_conf=np.concatenate([preds1.iou_conf, preds1.iou_conf], axis=1),
    )

    a1 = assign_dcla(grid1, gts1, preds1, r=1)
    a2 = assign_dcla(grid2, gts2, preds2, r=1)
    n1 = sum(len(cells) for cells in a1.positives)
    n2 = sum(len(cells) for cells in a2.positives)
    assert n2 == 2 * n1
    assert a2.positives[:4] == a1.positives
    assert a2.requested_k[:4] == a1.requested_k
    assert a2.requested_k[4:] == a1.requested_k

    l_cls1, _ = classification_loss(a1, preds1)
    l_cls2, _ = classification_loss(a2, preds2)
    reg1 = regression_loss_scene(a1)
    reg2 = regression_loss_scene(a2)
    l_iou1, _ = iou_prediction_loss(a1, preds1)
    l_iou2, _ = iou_prediction_loss(a2, preds2)
    assert l_cls2 == pytest.approx(l_cls1, abs=1e-12)
    assert reg2.value == pytest.approx(reg1.value, abs=1e-12)
    assert l_iou2 == pytest.approx(l_iou1, abs=1e-12)

    weights = LossWeights(lambda_cls=1.0, lambda_reg=3.0, lambda_iou=1.0)
    report = total_loss(l_cls1, reg1.value, l_iou1, weights, n_positives=n1)
    recomposed = (weights.lambda_cls * l_cls1
                  + weights.lambda_reg * reg1.value
                  + weights.lambda_iou * l_iou1)
    assert report.total == pytest.approx(recomposed, abs=1e-12)
    _report(f"[PASS] criterion 08: per-positive normalization is "
            f"duplication invariant to 1e-12 (cls diff "
            f"{abs(l_cls2 - l_cls1):.2e}, reg diff "
            f"{abs(reg2.value - reg1.value):.2e}, iou diff "
            f"{abs(l_iou2 - l_iou1):.2e}) and the total recomposes")


@pytest.fixture(scope="module")
def convergence_runs(config_fits):
    # Shared with the digest checks (tests/conftest.py).
    fits, elapsed = config_fits
    return fits["reference"][0], fits["baseline"][0], elapsed


def test_criterion_09_convergence_regression_thresholds(convergence_runs):
    reference, baseline, elapsed = convergence_runs
    assert reference["regression"] == "rwiou"
    assert baseline["regression"] == "smooth_l1"
    assert len(reference["per_seed"]) == 20
    assert reference["mean_final_iou"] >= 0.95
    assert reference["mean_final_iou"] >= baseline["mean_final_iou"] - 0.02
    assert elapsed < 300.0
    _report(f"[PASS] criterion 09: reference config mean final IoU "
            f"{reference['mean_final_iou']:.4f} >= 0.95 over 20 seeds and "
            f"within 0.02 of the smooth L1 baseline "
            f"{baseline['mean_final_iou']:.4f} ({elapsed:.0f}s)")


def test_criterion_10_assignment_balance_across_size_classes():
    with open("configs/balance.json") as f:
        config = json.load(f)
    scene = _scene_config_from_dict(config["scene"])
    t0 = time.monotonic()
    r0 = balance_experiment(scene, AssignerConfig(kind="dcla", r=0),
                            n_scenes=config["n_scenes"],
                            warmup_steps=config["warmup_steps"],
                            base_seed=config["base_seed"])
    r1 = balance_experiment(scene, AssignerConfig(kind="dcla", r=1),
                            n_scenes=config["n_scenes"],
                            warmup_steps=config["warmup_steps"],
                            base_seed=config["base_seed"])
    elapsed = time.monotonic() - t0

    assert set(r0.mean_k_by_class) == {"vehicle", "pedestrian", "cyclist"}
    for mean_k in r0.mean_k_by_class.values():
        assert mean_k == 1.0
    assert r0.max_min_ratio == 1.0
    threshold = config["max_min_ratio_threshold"]
    assert r1.max_min_ratio <= threshold
    assert elapsed < 300.0
    means = ", ".join(f"{name} {value:.2f}"
                      for name, value in sorted(r1.mean_k_by_class.items()))
    _report(f"[PASS] criterion 10: r=0 mean k is exactly 1 per class; r=1 "
            f"max/min ratio {r1.max_min_ratio:.3f} <= {threshold} "
            f"({means}; {elapsed:.0f}s)")
