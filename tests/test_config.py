"""The configuration contract of ``run_fit_config`` and ``load_scene``.

Every section of a fit configuration and of a scene file is checked for
missing and unknown keys before anything is built, outer sections before the
sections nested in them, with one exact message shape. ``kind`` is required
wherever it appears, values are coerced to the field types, and absent
optional keys take the dataclass defaults. The shipped configuration files
load to the dataclasses that direct construction gives.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import bevbox.harness
from bevbox import (
    AssignerConfig,
    Box3D,
    GridSpec,
    GroundTruth,
    InitConfig,
    LossWeights,
    OptimizerConfig,
    SceneConfig,
    SizeClass,
    load_scene,
    run_fit_config,
)
from bevbox.harness import _scene_config_from_dict

ROOT = Path(__file__).resolve().parent.parent

GRID = {"x_min": -8.0, "y_min": -8.0, "cell_size": 1.0, "n_rows": 16, "n_cols": 16}
SIZE_CLASS = {"name": "car", "length": 4.0, "width": 2.0, "height": 1.5}
SCENE = {"grid": GRID, "n_objects": 2, "seed": 0}
CONFIG = {"scene": SCENE}
SCENE_FILE = {
    "grid": GRID,
    "ground_truths": [{"box": [1.5, 2.5, 0.0, 4.2, 1.9, 1.6, 0.4], "class_id": 0}],
}


class _Captured(Exception):
    pass


@pytest.fixture
def capture_fit(monkeypatch):
    """Run ``run_fit_config`` up to its fit and return what it parsed."""
    seen = {}

    def fake_generate_scene(config):
        # Every seed's scene is generated before the fit; keep the first.
        seen.setdefault("scene", config)
        return []

    def fake_fit_scenes(grid, scenes, init_seeds, assigner, optimizer, init, weights,
                        regression, n_classes):
        seen.update(grid=grid, init_seed=init_seeds[0], assigner=assigner,
                    optimizer=optimizer, init=init, weights=weights, regression=regression,
                    n_classes=n_classes)
        raise _Captured

    monkeypatch.setattr(bevbox.harness, "generate_scene", fake_generate_scene)
    monkeypatch.setattr(bevbox.harness, "_fit_scenes", fake_fit_scenes)

    def run(config):
        with pytest.raises(_Captured):
            run_fit_config(config)
        return seen

    return run


@pytest.fixture
def capture_init(monkeypatch):
    """Run ``load_scene`` and return the arguments it passed to ``init_state``."""
    seen = {}
    real = bevbox.harness.init_state

    def fake_init_state(grid, gts, n_classes, init, assigner, seed):
        seen.update(grid=grid, n_classes=n_classes, init=init, seed=seed)
        return real(grid, gts, n_classes, init, assigner, seed)

    monkeypatch.setattr(bevbox.harness, "init_state", fake_init_state)

    def run(scene):
        load_scene(scene)
        return seen

    return run


def with_scene(**scene):
    return {"scene": dict(SCENE, **scene)}


def fit_message(config):
    with pytest.raises(ValueError) as info:
        run_fit_config(config)
    return str(info.value)


def scene_message(scene):
    with pytest.raises(ValueError) as info:
        load_scene(scene)
    return str(info.value)


# (context, malformed input, whether it is a fit config or a scene file,
# exact message)
KEY_ERRORS = [
    ("config", {}, "fit", "config: missing keys ['scene']"),
    ("config", dict(CONFIG, extra=1), "fit", "config: unknown keys ['extra']"),
    ("scene", {"scene": {"grid": GRID}}, "fit",
     "scene: missing keys ['n_objects', 'seed']"),
    ("scene", with_scene(typo=1), "fit", "scene: unknown keys ['typo']"),
    ("grid", with_scene(grid={}), "fit",
     "grid: missing keys ['cell_size', 'n_cols', 'n_rows', 'x_min', 'y_min']"),
    ("grid", with_scene(grid=dict(GRID, z_min=0.0)), "fit",
     "grid: unknown keys ['z_min']"),
    ("size class", with_scene(size_classes=[{"name": "car", "length": 4.0}]), "fit",
     "size class: missing keys ['height', 'width']"),
    ("size class", with_scene(size_classes=[dict(SIZE_CLASS, colour="red")]), "fit",
     "size class: unknown keys ['colour']"),
    ("assigner", dict(CONFIG, assigner={"r": 1}), "fit",
     "assigner: missing keys ['kind']"),
    ("assigner", dict(CONFIG, assigner={"kind": "dcla", "radius": 1}), "fit",
     "assigner: unknown keys ['radius']"),
    ("init", dict(CONFIG, init={"sigma_loc": 0.1}), "fit",
     "init: missing keys ['kind']"),
    ("init", dict(CONFIG, init={"kind": "noisy", "sigma": 0.1}), "fit",
     "init: unknown keys ['sigma']"),
    ("optimizer", dict(CONFIG, optimizer={"learning_rate": 0.1}), "fit",
     "optimizer: unknown keys ['learning_rate']"),
    ("weights", dict(CONFIG, weights={"lambda_box": 1.0, "alpha": 0.5}), "fit",
     "weights: unknown keys ['lambda_box']"),
    ("output", dict(CONFIG, output={"dir": "x", "suffix": "y"}), "fit",
     "output: unknown keys ['suffix']"),
    ("scene file", {}, "scene",
     "scene file: missing keys ['grid', 'ground_truths']"),
    ("scene file", dict(SCENE_FILE, seed=0), "scene",
     "scene file: unknown keys ['seed']"),
    ("grid", dict(SCENE_FILE, grid={"x_min": 0.0}), "scene",
     "grid: missing keys ['cell_size', 'n_cols', 'n_rows', 'y_min']"),
    ("ground truth", dict(SCENE_FILE, ground_truths=[{"box": [0] * 7}]), "scene",
     "ground truth: missing keys ['class_id']"),
    ("ground truth",
     dict(SCENE_FILE, ground_truths=[{"box": [0] * 7, "class_id": 0, "score": 1}]),
     "scene", "ground truth: unknown keys ['score']"),
    ("predictions", dict(SCENE_FILE, predictions={"seed": 3}), "scene",
     "predictions: missing keys ['kind']"),
    ("predictions", dict(SCENE_FILE, predictions={"kind": "noisy", "sigma": 1}),
     "scene", "predictions: unknown keys ['sigma']"),
    # Missing keys are reported before unknown ones.
    ("assigner", dict(CONFIG, assigner={"radius": 1}), "fit",
     "assigner: missing keys ['kind']"),
    ("scene file", {"grid": GRID, "extra": 1}, "scene",
     "scene file: missing keys ['ground_truths']"),
]


@pytest.mark.parametrize(
    "context,value,which,message", KEY_ERRORS,
    ids=[f"{c}-{'missing' if 'missing' in m else 'unknown'}-{i}"
         for i, (c, _, _, m) in enumerate(KEY_ERRORS)],
)
def test_key_errors(context, value, which, message):
    assert message.startswith(f"{context}: ")
    if which == "fit":
        assert fit_message(value) == message
    else:
        assert scene_message(value) == message


class TestOuterBeforeNested:
    def test_config_keys_before_scene(self):
        config = {"scene": {"grid": {}}, "extra": 1}
        assert fit_message(config) == "config: unknown keys ['extra']"

    def test_scene_keys_before_grid_and_size_classes(self):
        bad = with_scene(grid={}, size_classes=[{}], typo=1)
        assert fit_message(bad) == "scene: unknown keys ['typo']"
        bad = {"scene": {"grid": {}, "size_classes": [{}], "n_objects": 1}}
        assert fit_message(bad) == "scene: missing keys ['seed']"

    def test_size_classes_before_other_scene_fields(self):
        bad = with_scene(grid={}, size_classes=[{}])
        message = "size class: missing keys ['height', 'length', 'name', 'width']"
        assert fit_message(bad) == message
        bad = with_scene(n_objects="many", size_classes=[dict(SIZE_CLASS, spread=2.0)])
        assert fit_message(bad) == "spread must be in [0, 1)"

    def test_sections_in_config_order(self):
        broken = {
            "assigner": {}, "optimizer": {"lr": 1}, "init": {},
            "weights": {"lam": 1}, "output": {"out": 1},
        }
        expected = [
            ("assigner", "assigner: missing keys ['kind']"),
            ("optimizer", "optimizer: unknown keys ['lr']"),
            ("init", "init: missing keys ['kind']"),
            ("weights", "weights: unknown keys ['lam']"),
            ("output", "output: unknown keys ['out']"),
        ]
        config = dict(CONFIG, **broken)
        for section, message in expected:
            assert fit_message(config) == message
            del config[section]

    def test_scene_before_sections(self):
        config = dict(with_scene(grid={}), assigner={})
        assert fit_message(config).startswith("grid: missing keys")

    def test_scene_file_keys_before_sections(self):
        bad = {"grid": {}, "ground_truths": [{}], "predictions": {}, "extra": 1}
        assert scene_message(bad) == "scene file: unknown keys ['extra']"

    def test_scene_file_sections_in_order(self):
        bad = {"grid": {}, "ground_truths": [{}], "predictions": {}}
        assert scene_message(bad).startswith("grid: missing keys")
        bad["grid"] = GRID
        assert scene_message(bad) == "ground truth: missing keys ['box', 'class_id']"
        bad["ground_truths"] = SCENE_FILE["ground_truths"]
        assert scene_message(bad) == "predictions: missing keys ['kind']"


class TestKindRequired:
    """The dataclasses default ``kind``; a configuration must still name it."""

    def test_assigner(self):
        assert fit_message(dict(CONFIG, assigner={})) == "assigner: missing keys ['kind']"

    def test_init(self):
        assert fit_message(dict(CONFIG, init={})) == "init: missing keys ['kind']"

    def test_predictions(self):
        message = scene_message(dict(SCENE_FILE, predictions={}))
        assert message == "predictions: missing keys ['kind']"

    def test_absent_sections_take_defaults(self, capture_fit):
        seen = capture_fit(CONFIG)
        assert seen["assigner"] == AssignerConfig()
        assert seen["optimizer"] == OptimizerConfig()
        assert seen["init"] == InitConfig()
        assert seen["weights"] == LossWeights()
        assert seen["regression"] == "rwiou"


class TestCoercion:
    def test_fit_config_values(self, capture_fit):
        config = {
            "scene": {
                "grid": {"x_min": -8, "y_min": -8, "cell_size": 1,
                         "n_rows": 16.0, "n_cols": 16.0},
                "n_objects": 2.0, "seed": 1.0, "min_clearance": 1,
                "max_attempts": 50.0,
                "size_classes": [{"name": "7", "length": 4, "width": 2,
                                  "height": 1, "spread": 0}],
            },
            "assigner": {"kind": "dcla", "r": 2.0},
            "optimizer": {"step_size": 1, "n_steps": 3.0},
            "init": {"kind": "noisy", "sigma_loc": 0, "sigma_yaw": 1},
            "weights": {"lambda_cls": 2, "alpha": 1},
            "seeds": [4.0],
        }
        seen = capture_fit(config)
        grid = GridSpec(-8.0, -8.0, 1.0, 16, 16)
        scene = SceneConfig(grid, 2, 4, (SizeClass("7", 4.0, 2.0, 1.0, 0.0),),
                            1.0, 50)
        assert repr(seen["scene"]) == repr(scene)
        assert repr(seen["grid"]) == repr(grid)
        assert repr(seen["assigner"]) == repr(AssignerConfig("dcla", 2))
        assert repr(seen["optimizer"]) == repr(OptimizerConfig(1.0, 3))
        assert repr(seen["init"]) == repr(InitConfig("noisy", 0.0, 1.0))
        assert repr(seen["weights"]) == repr(LossWeights(lambda_cls=2.0, alpha=1.0))
        assert seen["init_seed"] == 4 + bevbox.harness.INIT_SEED_OFFSET

    def test_scene_config_values(self):
        scene = _scene_config_from_dict(
            {"grid": dict(GRID, n_rows=16.0), "n_objects": 3.0, "seed": 2.0}
        )
        assert type(scene.grid.n_rows) is int
        assert type(scene.n_objects) is int
        assert type(scene.seed) is int
        assert repr(scene) == repr(SceneConfig(GridSpec(**GRID), 3, 2))

    def test_predictions_values(self, capture_init):
        scene = dict(SCENE_FILE, n_classes=2.0, grid=dict(GRID, n_cols=16.0),
                     predictions={"kind": "noisy", "seed": 3.0, "sigma_loc": 1,
                                  "sigma_log_size": 0})
        seen = capture_init(scene)
        assert repr(seen["init"]) == repr(InitConfig("noisy", 1.0, 0.2, 0.0))
        assert repr(seen["grid"]) == repr(GridSpec(**GRID))
        assert type(seen["n_classes"]) is int and seen["n_classes"] == 2
        assert type(seen["seed"]) is int and seen["seed"] == 3

    def test_bad_value_is_a_value_error(self):
        message = fit_message(with_scene(grid=dict(GRID, n_rows="many")))
        assert message == "grid: n_rows: expected int, got str"

    @pytest.mark.parametrize("config,message", [
        (dict(CONFIG, optimizer={"n_steps": "3"}), "optimizer: n_steps: expected int, got str"),
        (dict(CONFIG, optimizer={"step_size": "0.5"}),
         "optimizer: step_size: expected float, got str"),
        (dict(CONFIG, seeds=["1"]), "config: seeds: expected int, got str"),
        (with_scene(seed="2"), "scene: seed: expected int, got str"),
    ])
    def test_number_in_a_string_is_refused(self, config, message):
        assert fit_message(config) == message

    def test_int_too_large_for_a_float_is_refused(self):
        config = dict(CONFIG, optimizer={"step_size": json.loads("1" + "0" * 400)})
        assert fit_message(config) == "optimizer: step_size: expected float, got int"

    def test_number_in_a_string_in_a_box_is_refused(self):
        scene = json.loads(json.dumps(SCENE_FILE))
        scene["ground_truths"][0]["box"][2] = "0.0"
        assert scene_message(scene) == "ground truth: box: expected float, got str"


class TestSeedsAndBooleans:
    """A seed is a non-negative integer, and neither a number nor a string
    is a JSON boolean, each checked where it enters, naming its field."""

    def test_negative_fit_seed_before_any_output(self, tmp_path):
        out = tmp_path / "out"
        config = dict(CONFIG, seeds=[0, 1, -1], output={"dir": str(out)})
        assert fit_message(config) == "config: seeds: expected a non-negative integer, got -1"
        assert not out.exists()

    def test_negative_scene_seed(self):
        assert fit_message(with_scene(seed=-3)) == "seed must be >= 0"

    def test_negative_predictions_seed(self):
        scene = dict(SCENE_FILE, predictions={"kind": "noisy", "seed": -1})
        message = "predictions: seed: expected a non-negative integer, got -1"
        assert scene_message(scene) == message

    @pytest.mark.parametrize("section,key,value,kind", [
        ("optimizer", "n_steps", True, "int"),
        ("optimizer", "step_size", True, "float"),
        ("assigner", "r", False, "int"),
    ])
    def test_boolean_is_not_a_number(self, section, key, value, kind):
        fields = {"kind": "dcla"} if section == "assigner" else {}
        config = dict(CONFIG, **{section: dict(fields, **{key: value})})
        assert fit_message(config) == f"{section}: {key}: expected {kind}, got bool"

    def test_boolean_is_not_a_string(self):
        config = with_scene(size_classes=[dict(SIZE_CLASS, name=True)])
        assert fit_message(config) == "size class: name: expected str, got bool"


BOX = Box3D(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0)
# Each integer field of a configuration dataclass, with valid values for
# the other fields.
INT_FIELDS = [
    (GridSpec, GRID, "n_rows"),
    (GridSpec, GRID, "n_cols"),
    (GroundTruth, {"box": BOX, "class_id": 0}, "class_id"),
    (SceneConfig, {"grid": GridSpec(**GRID), "n_objects": 2, "seed": 0}, "n_objects"),
    (SceneConfig, {"grid": GridSpec(**GRID), "n_objects": 2, "seed": 0}, "seed"),
    (SceneConfig, {"grid": GridSpec(**GRID), "n_objects": 2, "seed": 0}, "max_attempts"),
    (AssignerConfig, {}, "r"),
    (OptimizerConfig, {}, "n_steps"),
]


@pytest.mark.parametrize("cls,values,field", INT_FIELDS,
                         ids=[f"{cls.__name__}.{field}" for cls, _, field in INT_FIELDS])
class TestIntegerFields:
    """Built from Python, an integer field takes what the JSON loader
    takes, stored as an ``int``, and refuses the rest naming the field."""

    @pytest.mark.parametrize("value,message", [
        (1.5, "expected an integer, got 1.5"),
        (True, "expected int, got bool"),
        ("3", "expected int, got str"),
    ])
    def test_refused(self, cls, values, field, value, message):
        with pytest.raises(ValueError) as info:
            cls(**dict(values, **{field: value}))
        assert str(info.value) == f"{cls.__name__}.{field}: {message}"

    @pytest.mark.parametrize("value", [3, 3.0])
    def test_integral_number_is_stored_as_int(self, cls, values, field, value):
        built = cls(**dict(values, **{field: value}))
        assert type(getattr(built, field)) is int and getattr(built, field) == 3


def expected_scene(section):
    """The scene section built by direct construction, without a parser."""
    values = dict(section, grid=GridSpec(**section["grid"]))
    if "size_classes" in section:
        values["size_classes"] = tuple(SizeClass(**sc) for sc in section["size_classes"])
    return SceneConfig(**values)


FIT_CONFIGS = ["configs/reference.json", "configs/baseline.json",
               "perfbench/configs/reference_fit.json",
               "perfbench/configs/dense_center.json"]


@pytest.mark.parametrize("path", FIT_CONFIGS)
def test_shipped_fit_configs_load_to_direct_construction(path, capture_fit):
    config = json.loads((ROOT / path).read_text())
    seen = capture_fit(config)
    scene = expected_scene(config["scene"])
    seeds = config.get("seeds", [scene.seed])
    assert repr(seen["scene"]) == repr(SceneConfig(**dict(vars(scene), seed=seeds[0])))
    assert repr(seen["grid"]) == repr(scene.grid)
    assert repr(seen["assigner"]) == repr(AssignerConfig(**config["assigner"]))
    assert repr(seen["optimizer"]) == repr(OptimizerConfig(**config["optimizer"]))
    assert repr(seen["init"]) == repr(InitConfig(**config["init"]))
    assert repr(seen["weights"]) == repr(LossWeights(**config["weights"]))
    assert seen["regression"] == config["regression"]
    assert seen["n_classes"] == len(config["scene"]["size_classes"])


def test_balance_config_scene():
    config = json.loads((ROOT / "configs/balance.json").read_text())
    scene = _scene_config_from_dict(config["scene"])
    assert repr(scene) == repr(expected_scene(config["scene"]))


def test_example_scene_file(capture_init):
    scene = json.loads((ROOT / "configs/example_scene.json").read_text())
    seen = capture_init(scene)
    assert repr(seen["grid"]) == repr(GridSpec(**scene["grid"]))
    assert repr(seen["init"]) == repr(InitConfig(kind="noisy"))
    assert seen["n_classes"] == 2
    assert seen["seed"] == 3
    grid, gts, preds = load_scene(scene)
    assert [gt.class_id for gt in gts] == [0, 1]
    assert np.isfinite(preds.boxes).all()
