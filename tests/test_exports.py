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


def test_import_loads_no_scipy():
    # beclab needs NumPy alone: its four LAPACK routines come from NumPy's
    # own OpenBLAS. scipy.linalg cost about 0.3 s of every start-up, and it
    # brought numpy.f2py and numpy.testing in through
    # scipy._lib.array_api_compat
    src = str(Path(beclab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = (
        "import sys, beclab, beclab.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith("
        "('scipy.', 'numpy.f2py', 'numpy.testing'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def _literal_powers(source: str) -> list[str]:
    """Each x ** k (or x **= k) with k an integer literal >= 3, as source text."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
            k = node.right if isinstance(node, ast.BinOp) else node.value
            if isinstance(k, ast.Constant) and type(k.value) is int and k.value >= 3:
                found.append(ast.get_source_segment(source, node))
    return sorted(found)


def test_literal_powers_are_found():
    found = _literal_powers("a = b**3\nc = d ** 2\ne **= 4\nf = g**0.5\nh = 2**k\n")
    assert found == ["b**3", "e **= 4"]


def test_no_power_of_an_integer_literal_three_or_more():
    # NumPy sends c**3 to libm pow: 2-3 times the cost of c * c * c, and far
    # more where the far-field tails underflow, so cubes are written as
    # products (x**2 is NumPy's square, and stays)
    found = {
        path.name: _literal_powers(path.read_text())
        for path in sorted(Path(beclab.__file__).parent.glob("*.py"))
    }
    assert {name: f for name, f in found.items() if f} == {}
