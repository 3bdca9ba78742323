from __future__ import annotations

import importlib
import pkgutil

import pytest

import beclab

MODULES = sorted(f"beclab.{m.name}" for m in pkgutil.iter_modules(beclab.__path__))


def test_modules_are_found():
    assert {"beclab.grids", "beclab.heteroclinic", "beclab.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a name deleted from a module must leave its __all__ too
    module = importlib.import_module(name)
    exported = module.__all__
    assert exported
    assert [n for n in exported if not hasattr(module, n)] == []
