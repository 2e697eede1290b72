"""Mutated scene files and fit configs through ``bevbox.cli.main``.

Every key of a valid document, at any depth, gets a ``null``, a list, an
object, a string, or a huge, negative or fractional number.  Whatever the
input, ``main`` returns 0, 1 or 2 without raising, and an exit of 2 comes
with an ``error:`` line.  Fits are kept small: a 16x16 grid, two objects and
at most two steps, and the keys that size the work (grid shape, step and
object counts, placement attempts, class count) get no huge values.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from bevbox.cli import main

GRID = {"x_min": -8.0, "y_min": -8.0, "cell_size": 1.0, "n_rows": 16, "n_cols": 16}
SCENE = {
    "grid": GRID,
    "ground_truths": [{"box": [1.5, 2.5, 0.8, 4.2, 1.9, 1.6, 0.4], "class_id": 0},
                      {"box": [-3.5, -2.5, 0.8, 0.9, 0.8, 1.7, 2.0], "class_id": 1}],
    "n_classes": 2,
    "predictions": {"kind": "noisy", "seed": 3, "sigma_loc": 0.3, "sigma_yaw": 0.2},
}
FIT = {
    "scene": {"grid": GRID, "n_objects": 2, "seed": 0, "min_clearance": 0.5,
              "size_classes": [{"name": "car", "length": 3.0, "width": 1.5,
                                "height": 1.5, "spread": 0.1}]},
    "assigner": {"kind": "dcla", "r": 1},
    "optimizer": {"step_size": 0.05, "n_steps": 2},
    "init": {"kind": "noisy", "sigma_loc": 0.3},
    "weights": {"lambda_cls": 1.0, "lambda_reg": 3.0, "lambda_iou": 1.0, "alpha": 0.5},
    "regression": "rwiou",
    "seeds": [0, 1],
}
# Keys whose value sets how much work a run does.
SIZING = {"n_rows", "n_cols", "n_steps", "n_objects", "max_attempts", "n_classes"}
HUGE = [10**12, 1e308]
VALUES = [None, [], [1, 2], {}, {"x": 1}, "text", -1, -2.5, 0.5, 0, 3]


def paths(doc, prefix=()):
    """Every key path of a JSON document, containers included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


def mutations(doc):
    return st.sampled_from(sorted(paths(doc), key=repr)).flatmap(
        lambda path: st.tuples(st.just(path), st.sampled_from(
            VALUES if path[-1] in SIZING else VALUES + HUGE)))


def run(command, doc, path, value):
    data = json.loads(json.dumps(doc))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "input.json"
        file.write_text(json.dumps(data))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(file)] + (["--out", tmp] if command == "fit" else []))
    assert code in (0, 1, 2)
    if code == 2:
        assert any(line.startswith("error: ") for line in err.getvalue().splitlines())


class TestMutatedInputs:
    @settings(max_examples=40, deadline=None)
    @given(mutations(SCENE))
    def test_scene_file(self, mutation):
        run("assign", SCENE, *mutation)

    @settings(max_examples=40, deadline=None)
    @given(mutations(FIT))
    def test_fit_config(self, mutation):
        run("fit", FIT, *mutation)
