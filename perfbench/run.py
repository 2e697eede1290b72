"""Benchmark driver for bevbox.

Run from the repository root:

    python3 perfbench/run.py --workload reference_fit --seed 0 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` wraps the library's public functions (see ``spans.py``),
alternates traced and untraced passes, and reports the per-layer metrics;
it also writes every span and a self-time table under ``.bench_out/``.
``--workload all`` runs every workload, untraced then traced.

All load comes from this one process and thread in a closed loop: each pass
(one ``run_fit_config`` call, or one oracle pass) starts when the previous
one has returned and been checked. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One numpy thread for the benchmark's own process and its set-up probes;
# set before anything imports numpy.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("reference_fit", "dense_center", "oracles")
SETUP_PROBES = 7
MIN_PASSES = 2
NOTE = ("Timings come from a shared host with no CPU pinning and no machine settings "
        "changed; one process and one thread drive a closed loop.")


def import_library():
    """Import bevbox from this checkout's ``src/`` and nowhere else."""
    package = ROOT / "src" / "bevbox"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bevbox sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import bevbox

    if Path(bevbox.__file__).resolve().parent != package:
        raise SystemExit(f"perfbench: imported bevbox from {bevbox.__file__}, not {package}")
    return bevbox


def setup_probe(workload: str, seed: int) -> int:
    """Fresh-process set-up: import bevbox, load and validate the inputs."""
    started = time.perf_counter()
    import_library()
    import workloads

    workloads.make(workload, seed, OUT)
    print(json.dumps({"setup_s": time.perf_counter() - started}))
    return 0


def measure_setup(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up failed:\n{proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_passes(workload, tracer, seconds: float) -> tuple[list, list[bool]]:
    """Closed loop of passes until the next one would overrun ``seconds``.

    With a tracer, passes alternate untraced and traced (untraced first).
    Every pass must reproduce the first pass's deterministic outputs, and
    every traced pass the first traced pass's span and counter totals.
    """
    passes, traced_flags, walls = [], [], []
    traced_counts = None
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        t0 = time.perf_counter()
        if traced:
            before = (len(tracer), dict(tracer.counters))
            tracer.install()
        try:
            result = workload.run_pass(tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            counts = (len(tracer) - before[0],
                      {k: v - before[1].get(k, 0) for k, v in tracer.counters.items()})
            if traced_counts is None:
                traced_counts = counts
            elif counts != traced_counts:
                result.problems.append(f"span and counter totals {counts} differ from {traced_counts}")
                result.failed = result.attempted
        if passes and result.fingerprint != passes[0].fingerprint:
            result.problems.append("deterministic outputs differ from the first pass")
            result.failed = result.attempted
        passes.append(result)
        traced_flags.append(traced)
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and elapsed + max(walls[-2:]) > seconds:
            return passes, traced_flags


def environment(load_start) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "note": NOTE,
    }


def end_to_end(workload, passes, setup_samples) -> dict[str, float]:
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    quality = passes[0].quality
    return {
        "setup_s": statistics.median(setup_samples),
        # A pass that raised has no per-operation samples; its wall time stands in.
        "op_s": statistics.median([t for p in passes for t in p.op_seconds]
                                  or [p.seconds for p in passes]),
        "steps_per_s": sum(p.steps for p in passes) / sum(p.seconds for p in passes),
        "quality": quality if math.isfinite(quality) else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": 1.0 - failed / attempted,
    }


def per_layer(workload, tracer, passes, traced_flags) -> tuple[dict[str, float], str]:
    import spans

    edges = tracer.edges()
    view = spans.EdgeView(edges)
    steps_per_fit = getattr(workload, "steps_per_fit", 0)
    metrics = spans.fit_layer_metrics(view, tracer.counters, steps_per_fit)
    metrics.update(spans.oracle_layer_metrics(view))
    metrics.update(workload.layer_metrics(passes))
    traced = [s for p, t in zip(passes, traced_flags) if t for s in p.op_seconds]
    untraced = [s for p, t in zip(passes, traced_flags) if not t for s in p.op_seconds]
    metrics["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(untraced) - 1.0
                                      if traced and untraced else 0.0)
    steps = view.calls(spans.FIT) * steps_per_fit
    return metrics, spans.layer_table(edges, steps)


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            print(f"== {name} --trace {trace}", flush=True)
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, timeout=600, check=False,
            )
            status = status or proc.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_start = os.getloadavg()
    setup_samples = measure_setup(args.workload, args.seed)
    import_library()
    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, args.seed, OUT)
    tracer = spans.Tracer(workload.api) if args.trace else None
    passes, traced_flags = run_passes(workload, tracer, args.seconds)

    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_samples_s": setup_samples}
    if tracer is None:
        values = end_to_end(workload, passes, setup_samples)
        wanted = spec["end_to_end"]
    else:
        values, table = per_layer(workload, tracer, passes, traced_flags)
        wanted = spec["per_layer"]
        tracer.write(OUT / f"{args.workload}_spans.npz")
        (OUT / f"{args.workload}_layers.txt").write_text(table + "\n")
        print(table)
        record["spans"] = f".bench_out/{args.workload}_spans.npz ({len(tracer)} spans)"
    unknown = set(values) - {m["name"] for m in wanted}
    if unknown:
        raise SystemExit(f"perfbench: metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # A per-layer metric of a layer the workload does not exercise reads 0.
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    record.update(
        environment=environment(load_start),
        passes=[{"seconds": p.seconds, "op_seconds": p.op_seconds, "traced": t,
                 "attempted": p.attempted, "failed": p.failed, "problems": p.problems}
                for p, t in zip(passes, traced_flags)],
        metrics=metrics,
    )
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    for p in passes:
        for problem in p.problems:
            print(f"FAILED: {problem}")
    for name, m in metrics.items():
        print(f"{name:<52} {m['value']:>14.6g} {m['unit']}")
    env = record["environment"]
    print(f"python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"load {env['loadavg_start'][0]:.2f} -> {env['loadavg_end'][0]:.2f}, "
          f"{len(passes)} passes; record in .bench_out/{stem}.json")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
