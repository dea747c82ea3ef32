"""The benchmark's traced names still name library functions.

``perfbench/recorder.py`` wraps every function listed in its ``TRACED``
table when a run is traced, and a name that no longer resolves raises
``AttributeError`` there.  The table is read from the file's source, so
nothing of the benchmark is imported or run.
"""

import ast
import functools
import importlib
import os

RECORDER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "recorder.py")


def _traced() -> dict:
    with open(RECORDER) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("recorder.py defines no TRACED table")


def test_every_traced_name_resolves():
    traced = _traced()
    assert "spectral_norm" in traced["quantum"]
    missing = []
    for module, names in traced.items():
        mod = importlib.import_module(f"scotsim.{module}")
        for name in names:
            try:
                functools.reduce(getattr, name.split("."), mod)
            except AttributeError:
                missing.append(f"{module}.{name}")
    assert not missing, missing
