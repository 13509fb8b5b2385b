"""Every exported name resolves, so deletions leave no stale exports behind."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import slqns

MODULES = sorted(f"slqns.{info.name}" for info in pkgutil.iter_modules(slqns.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_every_package_import_resolves():
    tree = ast.parse(Path(slqns.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"slqns.{node.module}")
        for alias in node.names:
            assert getattr(slqns, alias.name) is getattr(module, alias.name), alias.name
