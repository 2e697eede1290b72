"""Tests for the command-line front end.

Commands run in-process through ``main(argv)`` with captured output; a single
subprocess smoke test covers the installed console script. Frozen output
strings pin the 6-decimal formatting contract.
"""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import bevbox
from bevbox import LossWeights, mc_iou_oracle, total_loss
from bevbox.cli import main
from bevbox.harness import DivergenceError

BOX_A = "0,0,0,4,2,1,0"
BOX_B = "1,0.5,0,4,2,1,0.3"


class TestIouCommand:
    def test_identical_boxes(self, capsys):
        assert main(["iou", BOX_A, BOX_A]) == 0
        assert capsys.readouterr().out == "exact 1.000000\n"

    def test_exact_default_frozen(self, capsys):
        assert main(["iou", BOX_A, BOX_B]) == 0
        assert capsys.readouterr().out == "exact 0.442102\n"

    def test_rwiou_mode_frozen(self, capsys):
        assert main(["iou", "--rwiou", "--alpha", "0.5", BOX_A, BOX_B]) == 0
        assert capsys.readouterr().out == "rwiou 0.346915\n"

    def test_mc_mode_frozen(self, capsys):
        argv = ["iou", "--mc", "--samples", "20000", "--seed", "1", BOX_A, BOX_B]
        assert main(argv) == 0
        assert capsys.readouterr().out == "mc 0.438000 stderr 0.004211\n"

    def test_mc_matches_library_call(self, capsys):
        argv = ["iou", "--mc", "--samples", "20000", "--seed", "7", BOX_A, BOX_B]
        assert main(argv) == 0
        out = capsys.readouterr().out
        from bevbox import Box3D
        estimate = mc_iou_oracle(Box3D(0, 0, 0, 4, 2, 1, 0),
                                 Box3D(1, 0.5, 0, 4, 2, 1, 0.3),
                                 n_samples=20000, seed=7)
        assert out == f"mc {estimate.value:.6f} stderr {estimate.stderr:.6f}\n"

    def test_wrong_value_count(self, capsys):
        assert main(["iou", "0,0,0,1,1,1", BOX_B]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "expected 7" in err

    def test_bad_field_named(self, capsys):
        assert main(["iou", "0,0,0,1,oops,1,0", BOX_B]) == 2
        assert "field 'w'" in capsys.readouterr().err

    def test_nonpositive_size_rejected(self, capsys):
        assert main(["iou", "0,0,0,1,0,1,0", BOX_B]) == 2
        assert "error:" in capsys.readouterr().err

    def test_alpha_range(self, capsys):
        assert main(["iou", "--rwiou", "--alpha", "1.5", BOX_A, BOX_B]) == 2
        assert "--alpha" in capsys.readouterr().err

    def test_mc_sample_floor(self, capsys):
        argv = ["iou", "--mc", "--samples", "500", BOX_A, BOX_B]
        assert main(argv) == 2
        assert "10000" in capsys.readouterr().err

    def test_modes_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["iou", "--exact", "--mc", BOX_A, BOX_B])
        assert exc_info.value.code == 2


class TestGradcheckCommand:
    def test_passing_run_emits_json(self, capsys):
        assert main(["gradcheck", "--samples", "200", "--seed", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["finite_difference"]["n_samples"] == 200
        assert payload["finite_difference"]["n_failures"] == 0
        regimes = {r["regime"] for r in payload["bound_audit"]["regimes"]}
        assert regimes == {
            "sin_cos_channel", "center_overlap", "scale_center_aligned",
        }

    def test_sample_floor(self, capsys):
        assert main(["gradcheck", "--samples", "50"]) == 2
        assert ">= 100" in capsys.readouterr().err

    def test_alpha_range(self, capsys):
        assert main(["gradcheck", "--samples", "200", "--alpha", "-1"]) == 2
        assert "--alpha" in capsys.readouterr().err


@pytest.fixture
def scene_file(tmp_path):
    scene = {
        "grid": {"x_min": -8.0, "y_min": -8.0, "cell_size": 1.0,
                 "n_rows": 16, "n_cols": 16},
        "ground_truths": [
            {"box": [1.5, 2.5, 0.0, 4.2, 1.9, 1.6, 0.4], "class_id": 0},
            {"box": [-3.5, -2.5, 0.0, 0.9, 0.8, 1.7, 2.0], "class_id": 1},
        ],
        "predictions": {"kind": "noisy", "seed": 3},
    }
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    return path


class TestAssignCommand:
    def test_repo_example_scene(self, capsys):
        assert main(["assign", "configs/example_scene.json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_ground_truths"] == 2
        assert len(payload["per_gt"]) == 2
        assert payload["grid"]["n_rows"] == 16

    def test_scene_file_deterministic(self, scene_file, capsys):
        assert main(["assign", str(scene_file)]) == 0
        first = capsys.readouterr().out
        assert main(["assign", str(scene_file)]) == 0
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert payload["n_positives"] >= 1
        for entry in payload["per_gt"]:
            assert entry["k"] == len(entry["positives"])

    def test_radius_validation(self, scene_file, capsys):
        assert main(["assign", str(scene_file), "--r", "-1"]) == 2
        assert "--r" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["assign", "/nonexistent/scene.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["assign", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_object_json(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["assign", str(path)]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_unknown_scene_key(self, tmp_path, capsys):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({
            "grid": {"x_min": 0, "y_min": 0, "cell_size": 1.0,
                     "n_rows": 4, "n_cols": 4},
            "ground_truths": [],
            "typo": 1,
        }))
        assert main(["assign", str(path)]) == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_explicit_predictions_need_their_arrays(self, tmp_path, capsys):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({
            "grid": {"x_min": -8.0, "y_min": -8.0, "cell_size": 1.0,
                     "n_rows": 16, "n_cols": 16},
            "ground_truths": [
                {"box": [1.5, 2.5, 0.0, 4.2, 1.9, 1.6, 0.4], "class_id": 0}],
            "predictions": {"kind": "explicit",
                            "scores": [[[0.5]] * 16] * 16},
        }))
        assert main(["assign", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error: scene: predictions: missing keys ['boxes']\n" in err


SCENE_FILE = {
    "grid": {"x_min": -8.0, "y_min": -8.0, "cell_size": 1.0, "n_rows": 16, "n_cols": 16},
    "ground_truths": [{"box": [1.5, 2.5, 0.0, 4.2, 1.9, 1.6, 0.4], "class_id": 0}],
}
FIT_CONFIG = {
    "scene": {"grid": SCENE_FILE["grid"], "n_objects": 2, "seed": 0},
    "assigner": {"kind": "dcla", "r": 1},
    "optimizer": {"n_steps": 2},
    "seeds": [0],
}

# (command, key path into SCENE_FILE or FIT_CONFIG, malformed value)
MALFORMED = [
    ("assign", ("ground_truths",), 5),
    ("assign", ("ground_truths",), [5]),
    ("assign", ("ground_truths", 0, "box"), 5),
    ("assign", ("ground_truths", 0, "box"), [None] * 7),
    ("assign", ("ground_truths", 0, "class_id"), 1.7),
    ("assign", ("grid",), None),
    ("fit", ("seeds",), 5),
    ("fit", ("seeds",), [0.5]),
    ("fit", ("scene",), None),
    ("fit", ("scene", "n_objects"), 2.5),
    ("fit", ("scene", "size_classes"), 3),
    ("fit", ("output",), 3),
    ("fit", ("assigner",), None),
    ("fit", ("assigner", "r"), 1.5),
    ("assign", ("predictions",), {"kind": "explicit", "boxes": {}, "scores": []}),
    ("assign", ("predictions",), {"kind": "explicit", "boxes": [], "scores": [[{}]]}),
    ("assign", ("predictions",), {"kind": "explicit", "boxes": [], "scores": [],
                                  "iou_conf": {"a": 1}}),
]


class TestMalformedJson:
    @pytest.mark.parametrize("command,path,value", MALFORMED,
                             ids=[f"{c}-{'.'.join(map(str, p))}-{v!r}" for c, p, v in MALFORMED])
    def test_is_an_input_error(self, tmp_path, capsys, command, path, value):
        data = json.loads(json.dumps(SCENE_FILE if command == "assign" else FIT_CONFIG))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        file = tmp_path / "input.json"
        file.write_text(json.dumps(data))
        assert main([command, str(file)]) == 2
        label = "scene" if command == "assign" else "config"
        assert capsys.readouterr().err.startswith(f"error: {label}: ")

    def test_non_finite_costs_are_a_scene_error(self, tmp_path, capsys):
        # Sizes of 1e308 overflow the volumes: every candidate cost is NaN.
        scene = json.loads(json.dumps(SCENE_FILE))
        scene["ground_truths"][0]["box"][3:6] = [1e308] * 3
        scene["predictions"] = {"kind": "noisy", "seed": 3}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(scene))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["assign", str(path)]) == 2
        assert capsys.readouterr().err == "error: scene: candidate costs must be finite\n"


@pytest.fixture
def fit_config_file(tmp_path):
    config = {
        "scene": {
            "grid": {"x_min": -8.0, "y_min": -8.0, "cell_size": 1.0,
                     "n_rows": 16, "n_cols": 16},
            "n_objects": 3,
            "seed": 0,
        },
        "optimizer": {"step_size": 0.05, "n_steps": 8},
        "init": {"kind": "noisy"},
        "seeds": [0, 1],
    }
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(config))
    return path


class TestFitCommand:
    def test_successful_run(self, fit_config_file, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        assert main(["fit", str(fit_config_file), "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("fit complete: 2 seeds, mean final IoU ")
        assert "worst seed mean" in out
        assert (out_dir / "fit_seed0.csv").exists()
        assert (out_dir / "fit_seed1.csv").exists()
        assert (out_dir / "fit_report.json").exists()

    def test_csv_bytes_deterministic(self, fit_config_file, tmp_path, capsys):
        assert main(["fit", str(fit_config_file), "--out", str(tmp_path / "a")]) == 0
        assert main(["fit", str(fit_config_file), "--out", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        a = (tmp_path / "a" / "fit_seed1.csv").read_bytes()
        b = (tmp_path / "b" / "fit_seed1.csv").read_bytes()
        assert a == b

    def test_bad_config_key(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scene": {}, "mystery": 1}))
        assert main(["fit", str(path)]) == 2
        assert "config:" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["fit", "/nonexistent/fit.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_unplaceable_scene_is_a_config_error(self, tmp_path, capsys):
        config = {
            "scene": {
                "grid": {"x_min": 0.0, "y_min": 0.0, "cell_size": 1.0,
                         "n_rows": 3, "n_cols": 3},
                "n_objects": 20,
                "seed": 0,
                "max_attempts": 50,
            },
        }
        path = tmp_path / "crowded.json"
        path.write_text(json.dumps(config))
        assert main(["fit", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: could not place object ")

    def test_divergence_exit_code(self, fit_config_file, tmp_path, capsys,
                                  monkeypatch):
        report = total_loss(5000.0, 0.0, 0.0, LossWeights(), n_positives=1)

        def explode(config, out_dir=None):
            raise DivergenceError(3, report)

        monkeypatch.setattr("bevbox.cli.run_fit_config", explode)
        assert main(["fit", str(fit_config_file), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "fit diverged" in err
        assert "step 3" in err


    @pytest.mark.parametrize("step_size", [1e3, 1e5])
    def test_blow_up_exits_as_divergence(self, tmp_path, capsys, step_size):
        config = {
            "scene": {
                "grid": {"x_min": -8.0, "y_min": -8.0, "cell_size": 1.0,
                         "n_rows": 16, "n_cols": 16},
                "n_objects": 4,
                "seed": 3,
            },
            "optimizer": {"step_size": step_size, "n_steps": 20},
        }
        path = tmp_path / "blowup.json"
        path.write_text(json.dumps(config))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "fit diverged" in err
        assert "config:" not in err


class TestConsoleScript:
    def test_installed_entry_point(self):
        # The package entry point runs as a real subprocess; the installed
        # `bevbox` script is the same main, checked through pyproject.toml.
        # The subprocess imports the package under test, wherever pytest
        # found it.
        package_root = str(Path(bevbox.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-m", "bevbox", "iou", BOX_A, BOX_A],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0
        assert result.stdout == "exact 1.000000\n"
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10 has no tomllib
            tomllib = pytest.importorskip("tomli")
        pyproject = tomllib.loads(
            (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
        assert pyproject["project"]["scripts"]["bevbox"] == "bevbox.cli:main"
