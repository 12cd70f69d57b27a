"""The package's public names: every export resolves, and every name the
package root imports is declared public by its module."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import zoswarm

MODULES = sorted(info.name for info in pkgutil.iter_modules(zoswarm.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"zoswarm.{name}")
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []


def test_package_root_imports_only_public_names():
    tree = ast.parse(Path(zoswarm.__file__).read_text())
    imported, stale = 0, []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"zoswarm.{node.module}")
            imported += len(node.names)
            stale += [f"{node.module}.{a.name}" for a in node.names if a.name not in module.__all__]
    assert imported > 0
    assert stale == []
