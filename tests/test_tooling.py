"""Checks on the repository's tooling, read from source with ``ast``.

The benchmark's traced names must still name library functions:
``perfbench/recorder.py`` wraps every function listed in its ``TRACED``
table when a run is traced, and a name that no longer resolves raises
``AttributeError`` there.  The package's third-party imports must be
exactly its declared runtime dependencies.  Nothing of the benchmark or
the package is run.
"""

import ast
import functools
import glob
import importlib
import os
import re
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
RECORDER = os.path.join(ROOT, "perfbench", "recorder.py")


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


def _third_party_imports(package: str) -> set:
    names = set()
    for path in glob.glob(os.path.join(ROOT, "src", package, "*.py")):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {package}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_runtime_imports_are_the_declared_dependencies():
    import tomllib

    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in declared}
    assert _third_party_imports("scotsim") == names
