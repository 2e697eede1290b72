"""Workload inputs, passes and output checks for the bevbox benchmark.

A workload turns the benchmark seed into inputs (its constructor, which is
what ``setup_s`` times), runs one pass over them (``run_pass``) and checks the
pass's outputs. Every pass of a run repeats the same inputs, so each pass's
deterministic outputs must equal the first pass's; the runner compares the
``fingerprint`` of every pass.

Workloads (see BENCHMARK.json for the one-line reasons):

* ``reference_fit``: ``configs/reference_fit.json`` (the repository's
  ``configs/reference.json`` fit) through ``run_fit_config``, several
  consecutive seeds per call.
* ``dense_center``: the same scene classes on a 128x128 grid with center
  assignment (r = 0) and smooth-L1 regression.
* ``oracles``: ``bevbox gradcheck`` through ``cli.main`` at the gate's sample
  count, exact rotated IoU against the Monte Carlo oracle, and a sweep of the
  scalar kernels at N = 1, 30 and 10k pairs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import struct
import time
import types
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import bevbox
from bevbox import cli, geometry, harness

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

# Seeds per run_fit_config call. Scenes differ in work (positives per step),
# so a run covers several seeds; several per call also lets batching across
# seeds inside run_fit_config show.
SEEDS_PER_FIT_PASS = 3
REFERENCE_GATE_IOU = 0.95  # release-gate threshold on the mean final IoU

GRADCHECK_SAMPLES = 10_000  # gate criteria 3 and 4
MC_PAIRS = 4
MC_SAMPLES = 1_000_000  # gate criterion 2
MC_MAX_Z = 4.0
SWEEP_POOL = 10_000
SWEEP_SIZES = {"n1": (1, 1000), "n30": (30, 100), "n10k": (SWEEP_POOL, 1)}  # (N, batches)
ALPHA = 0.5


@dataclass
class PassResult:
    """One pass: operations attempted and failed, timing, outputs."""

    attempted: int
    failed: int = 0
    seconds: float = 0.0
    steps: int = 0
    op_seconds: list[float] = field(default_factory=list)
    quality: float = math.nan
    fingerprint: object = None
    problems: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)


def api() -> types.SimpleNamespace:
    """The library entry points the benchmark calls (wrapped when tracing)."""
    return types.SimpleNamespace(run_fit_config=harness.run_fit_config, main=cli.main,
                                 mc_iou_oracle=geometry.mc_iou_oracle)


def _finite_floats(values) -> bool:
    return all(isinstance(v, float) and math.isfinite(v) for v in values)


class FitWorkload:
    """Fits through ``run_fit_config``: one call per pass over fixed seeds."""

    def __init__(self, name: str, seed: int, out_dir: Path, min_quality: float | None) -> None:
        config = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        # Validate through the library's own config types before any fit.
        scene = bevbox.SceneConfig(
            grid=bevbox.GridSpec(**config["scene"]["grid"]),
            n_objects=config["scene"]["n_objects"],
            seed=config["scene"]["seed"],
            size_classes=tuple(bevbox.SizeClass(**c) for c in config["scene"]["size_classes"]),
            min_clearance=config["scene"]["min_clearance"],
        )
        bevbox.AssignerConfig(**config["assigner"])
        bevbox.OptimizerConfig(**config["optimizer"])
        bevbox.InitConfig(**config["init"])
        bevbox.LossWeights(**config["weights"])
        self.seeds = [seed * SEEDS_PER_FIT_PASS + i for i in range(SEEDS_PER_FIT_PASS)]
        for s in self.seeds:
            gts = bevbox.generate_scene(replace(scene, seed=s))
            if len(gts) != scene.n_objects:
                raise ValueError(f"seed {s}: placed {len(gts)} of {scene.n_objects} objects")
        self.name = name
        self.config = dict(config, seeds=self.seeds)
        self.out_dir = out_dir / name
        self.steps_per_fit = config["optimizer"]["n_steps"] + 1
        self.min_quality = min_quality
        self.api = api()

    def run_pass(self, tracer=None) -> PassResult:
        k = len(self.seeds)
        started = time.perf_counter()
        try:
            aggregate = self.api.run_fit_config(self.config, out_dir=self.out_dir)
        except Exception as exc:  # a fit that raises is a failed operation
            return PassResult(attempted=k, failed=k, seconds=time.perf_counter() - started,
                              problems=[f"run_fit_config raised {exc!r}"])
        result = PassResult(attempted=k, seconds=time.perf_counter() - started,
                            steps=k * self.steps_per_fit)
        try:
            failed = self._check(aggregate, result)
        except (KeyError, TypeError, ValueError, OSError) as exc:
            result.problems.append(f"malformed fit output: {exc!r}")
            failed = set(self.seeds)
        result.failed = len(failed)
        return result

    def _check(self, aggregate: dict, result: PassResult) -> set[int]:
        """Check the aggregate and the trajectory CSVs; return the failed seeds."""
        failed: set[int] = set()
        per_seed = aggregate["per_seed"]
        if [p["seed"] for p in per_seed] != self.seeds:
            result.problems.append(f"per_seed lists seeds {[p['seed'] for p in per_seed]}")
            failed.update(self.seeds)
        digests = []
        for entry in per_seed:
            s = entry["seed"]
            values = [entry["mean_final_iou"], entry["min_final_iou"], entry["final_total"]]
            if (not _finite_floats(values)
                    or not 0.0 <= entry["min_final_iou"] <= entry["mean_final_iou"] <= 1.0):
                result.problems.append(f"seed {s}: final IoU fields {values} out of range")
                failed.add(s)
            # run_fit_config names the trajectory after its default prefix.
            csv = (self.out_dir / f"fit_seed{s}.csv").read_bytes()
            body = [row.split(",") for row in csv.decode().splitlines()[1:]]
            if (len(body) != self.steps_per_fit
                    or not all(len(r) == 6 and all(math.isfinite(float(v)) for v in r) for r in body)):
                result.problems.append(f"seed {s}: trajectory has {len(body)} rows or non-finite values")
                failed.add(s)
            digests.append(hashlib.sha256(csv).hexdigest())
        # Each fit's own wall time plus an equal share of the call's remainder
        # (scene generation, CSV and JSON output), so the samples sum to the call.
        fit_walls = [float(p["wall_clock_s"]) for p in per_seed]
        share = (result.seconds - sum(fit_walls)) / len(fit_walls)
        result.op_seconds = [w + share for w in fit_walls]
        result.quality = float(aggregate["mean_final_iou"])
        if result.quality != float(np.mean([p["mean_final_iou"] for p in per_seed])):
            result.problems.append("aggregate mean_final_iou is not the mean of the per-seed values")
            failed.update(self.seeds)
        if self.min_quality is not None and not result.quality >= self.min_quality:
            result.problems.append(
                f"mean final IoU {result.quality:.4f} below the gate's {self.min_quality}")
            failed.update(self.seeds)
        timeless = [{k: v for k, v in p.items() if k != "wall_clock_s"} for p in per_seed]
        result.fingerprint = (json.dumps({**aggregate, "per_seed": timeless}, sort_keys=True),
                              tuple(digests))
        return failed

    def layer_metrics(self, passes: list[PassResult]) -> dict[str, float]:
        return {}


def _overlapping_pairs(rng: np.random.Generator, n: int) -> list[tuple[bevbox.Box3D, bevbox.Box3D]]:
    """Substantially overlapping oriented box pairs (the gate's criterion-2 recipe)."""
    c = np.column_stack([rng.uniform(-3, 3, (n, 2)), rng.uniform(-1, 1, n)])
    size = rng.uniform(0.8, 5.0, (n, 3))
    yaw1 = rng.uniform(-math.pi, math.pi, n)
    offset = rng.uniform(-0.4, 0.4, (n, 3)) * size
    scale = rng.uniform(0.7, 1.4, (n, 3))
    yaw2 = rng.uniform(-math.pi, math.pi, n)
    c2, size2 = c + offset, size * scale
    return [
        (bevbox.Box3D(*c[i].tolist(), *size[i].tolist(), float(yaw1[i])),
         bevbox.Box3D(*c2[i].tolist(), *size2[i].tolist(), float(yaw2[i])))
        for i in range(n)
    ]


def _aabb_iou(pairs) -> np.ndarray:
    """Axis-aligned 3D IoU straight from the box fields (rwiou at alpha = 0)."""
    a = np.array([p[0].as_tuple()[:6] for p in pairs])
    b = np.array([p[1].as_tuple()[:6] for p in pairs])
    lo = np.maximum(a[:, :3] - 0.5 * a[:, 3:], b[:, :3] - 0.5 * b[:, 3:])
    hi = np.minimum(a[:, :3] + 0.5 * a[:, 3:], b[:, :3] + 0.5 * b[:, 3:])
    inter = np.prod(np.clip(hi - lo, 0.0, None), axis=1)
    return inter / (np.prod(a[:, 3:], axis=1) + np.prod(b[:, 3:], axis=1) - inter)


class OracleWorkload:
    """Gradient check and audit via the CLI, MC-vs-exact IoU, kernel sweep."""

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 7])
        self.gradcheck_seed = seed
        self.mc_pairs = _overlapping_pairs(rng, MC_PAIRS)
        self.mc_seeds = [int(s) for s in rng.integers(0, 2**31, MC_PAIRS)]
        boxes = _overlapping_pairs(rng, SWEEP_POOL)
        params = [(bevbox.BoxParams8.from_box(a), bevbox.BoxParams8.from_box(b)) for a, b in boxes]
        self.check_pairs = boxes[:1000]
        self.expected_aabb = _aabb_iou(self.check_pairs)
        # (metric stem, kernel, pair pool, extra args)
        self.kernels = [
            ("geometry.rotated_iou_exact", bevbox.rotated_iou_exact, boxes, ()),
            ("geometry.rwiou", bevbox.rwiou, boxes, (ALPHA,)),
            ("gradients.rwiou_loss", bevbox.rwiou_loss, params, (ALPHA,)),
            ("gradients.regression_sample_grad", bevbox.regression_sample_grad, params, (ALPHA,)),
        ]
        self.steps_per_pass = (4 * GRADCHECK_SAMPLES + MC_PAIRS
                               + len(self.kernels) * sum(n * b for n, b in SWEEP_SIZES.values()))
        self.api = api()

    def _gradcheck(self, problems: list[str]) -> tuple[bool, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.api.main(["gradcheck", "--samples", str(GRADCHECK_SAMPLES),
                                  "--seed", str(self.gradcheck_seed), "--alpha", str(ALPHA)])
        payload = json.loads(out.getvalue())
        ok = code == 0 and payload["passed"] is True
        if not ok:
            problems.append(f"gradcheck exit {code}, passed={payload['passed']}")
        return ok, json.dumps(payload, sort_keys=True)

    def _mc(self, i: int, problems: list[str]) -> tuple[bool, float, tuple]:
        b1, b2 = self.mc_pairs[i]
        exact = bevbox.rotated_iou_exact(b1, b2)
        est = self.api.mc_iou_oracle(b1, b2, n_samples=MC_SAMPLES, seed=self.mc_seeds[i])
        z = abs(exact - est.value) / est.stderr if est.stderr > 0.0 else math.inf
        ok = z <= MC_MAX_Z
        if not ok:
            problems.append(f"MC pair {i}: exact {exact!r} vs {est.value!r} +- {est.stderr!r}")
        return ok, abs(exact - est.value), (exact, est.value, est.n_union_hits, est.n_inter_hits)

    def _sweep(self, stem: str, fn, pool, extra, size: str, timings: dict, problems: list[str]):
        n, batches = SWEEP_SIZES[size]
        per_batch = []
        results = []
        for b in range(batches):
            batch = pool[b * n:(b + 1) * n]
            t0 = time.perf_counter_ns()
            out = [fn(x, y, *extra) for x, y in batch]
            per_batch.append(time.perf_counter_ns() - t0)
            results.extend(out)
        timings[f"{stem}.us_per_pair.{size}"] = float(np.median(per_batch)) / n / 1e3
        flat = []
        for r in results:
            flat.extend([r[0], *r[1].as_array().tolist()] if isinstance(r, tuple) else [r])
        ok = _finite_floats(flat)
        if stem.startswith("geometry.") and ok:
            ok = all(0.0 <= v <= 1.0 for v in flat)
        if not ok:
            problems.append(f"{stem} at {size}: non-finite or out-of-range output")
        return ok, hashlib.sha256(struct.pack(f"{len(flat)}d", *flat)).hexdigest()

    def _alpha_zero(self, problems: list[str]) -> tuple[bool, None]:
        values = np.array([bevbox.rwiou(a, b, 0.0) for a, b in self.check_pairs])
        ok = bool(np.max(np.abs(values - self.expected_aabb)) <= 1e-12)
        if not ok:
            problems.append("rwiou at alpha 0 differs from the axis-aligned IoU")
        return ok, None

    def run_pass(self, tracer=None) -> PassResult:
        result = PassResult(attempted=0, steps=self.steps_per_pass)
        problems = result.problems
        ops = [("gradcheck", lambda: self._gradcheck(problems))]
        ops += [(f"mc{i}", lambda i=i: self._mc(i, problems)) for i in range(MC_PAIRS)]
        ops += [(f"{k[0]}.{size}", lambda k=k, size=size: self._sweep(*k, size, result.timings, problems))
                for k in self.kernels for size in SWEEP_SIZES]
        ops.append(("rwiou_alpha0", lambda: self._alpha_zero(problems)))
        fingerprint, diffs = [], []
        for label, op in ops:
            if tracer is not None:
                tracer.begin_op()
            t0 = time.perf_counter()
            try:
                ok, *out = op()
            except Exception as exc:  # an oracle call that raises is a failed operation
                problems.append(f"{label} raised {exc!r}")
                ok, out = False, [None]
            result.seconds += time.perf_counter() - t0
            result.attempted += 1
            result.failed += not ok
            if label.startswith("mc") and ok:
                diffs.append(out[0])
            fingerprint.append(out[-1])
        result.op_seconds = [result.seconds]
        result.quality = 1.0 - float(np.mean(diffs)) if diffs else math.nan
        result.fingerprint = tuple(fingerprint)
        return result

    def layer_metrics(self, passes: list[PassResult]) -> dict[str, float]:
        keys = passes[0].timings.keys() if passes else ()
        out = {k: float(np.median([p.timings[k] for p in passes if k in p.timings])) for k in keys}
        out["geometry.mc_iou_oracle.computed_mb_per_call"] = MC_SAMPLES * 3 * 8 / 1e6
        return out


def make(name: str, seed: int, out_dir: Path):
    if name == "reference_fit":
        return FitWorkload(name, seed, out_dir, REFERENCE_GATE_IOU)
    if name == "dense_center":
        return FitWorkload(name, seed, out_dir, None)
    if name == "oracles":
        return OracleWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
