from __future__ import annotations

import ast
import importlib
import pkgutil
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
