"""Fixtures shared by the release gate and the digest checks."""

import json
import time
from pathlib import Path

import pytest

import bevbox.harness
from bevbox import run_fit_config

ROOT = Path(__file__).resolve().parent.parent


def load_config(path):
    """A JSON configuration, by its path from the repository root."""
    return json.loads((ROOT / path).read_text())


def run_recording(config, out_dir):
    """``run_fit_config(config, out_dir)`` and the reports of the stacked
    fit it ran, as ``(aggregate, reports)``."""
    calls = []
    real = bevbox.harness._fit_scenes

    def recording(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return calls[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bevbox.harness, "_fit_scenes", recording)
        aggregate = run_fit_config(config, out_dir=out_dir)
    return aggregate, calls[0][0]


@pytest.fixture(scope="session")
def config_fits(tmp_path_factory):
    """The 20-seed fits of ``configs/reference.json`` and
    ``configs/baseline.json``: per config name, its aggregate and reports;
    and the wall time of both fits."""
    out = tmp_path_factory.mktemp("acceptance_runs")
    configs = {name: load_config(f"configs/{name}.json") for name in ("reference", "baseline")}
    t0 = time.monotonic()
    fits = {name: run_recording(config, out / name) for name, config in configs.items()}
    return fits, time.monotonic() - t0
