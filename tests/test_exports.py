from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import beclab

MODULES = sorted(f"beclab.{m.name}" for m in pkgutil.iter_modules(beclab.__path__))


def _referenced_names() -> set[str]:
    """Every Name and Attribute in the package source outside __init__.py."""
    names = set()
    for path in Path(beclab.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


REFERENCED = _referenced_names()


def test_modules_are_found():
    assert {"beclab.grids", "beclab.heteroclinic", "beclab.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a name deleted from a module must leave its __all__ too
    module = importlib.import_module(name)
    exported = module.__all__
    assert exported
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_every_export_has_a_caller(name):
    # a public name that only tests use is deleted or moved into the tests
    exported = importlib.import_module(name).__all__
    assert [n for n in exported if n not in REFERENCED] == []


def test_import_loads_no_heavy_scipy_subpackage():
    # beclab needs NumPy and scipy.linalg alone; each of these would add
    # tenths of a second to every start-up
    heavy = ["scipy.integrate", "scipy.interpolate", "scipy.optimize",
             "scipy.special", "scipy.sparse"]
    src = str(Path(beclab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = (
        "import sys, beclab, beclab.cli; "
        f"print(sorted(m for m in {heavy!r} if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
