"""Each module's ``__all__`` names live attributes, and the package re-exports
each module's own objects, so a removed name cannot linger as a stale export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sparsesvm

MODULES = sorted(info.name for info in pkgutil.iter_modules(sparsesvm.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"sparsesvm.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_package_reexports_are_the_modules_own_objects():
    tree = ast.parse(Path(sparsesvm.__file__).read_text(encoding="utf-8"))
    imports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names]
    assert imports
    for module_name, attr in imports:
        module = importlib.import_module(f"sparsesvm.{module_name}")
        assert attr in module.__all__, (module_name, attr)
        assert getattr(sparsesvm, attr) is getattr(module, attr), (module_name, attr)
