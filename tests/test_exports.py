"""Every exported name resolves and is used, so ``src/`` exports only what runs.

Reference formulas that only tests compare against live in ``tests/oracles.py``.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import slqns

MODULES = sorted(f"slqns.{info.name}" for info in pkgutil.iter_modules(slqns.__path__))
PACKAGE = Path(slqns.__file__).parent
BENCH = Path(__file__).resolve().parent.parent / "bench"


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


def test_every_package_import_is_in_its_module_all():
    tree = ast.parse(Path(slqns.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    unlisted = [
        f"{node.module}.{alias.name}"
        for node in imports
        for alias in node.names
        if alias.name not in getattr(importlib.import_module(f"slqns.{node.module}"), "__all__", ())
    ]
    assert unlisted == []


def _referenced_names(path: Path) -> set[str]:
    """Names, attributes and import aliases of a file, its ``__all__`` list left out."""
    tree = ast.parse(path.read_text())
    listed = {
        id(node)
        for assign in ast.walk(tree)
        if isinstance(assign, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in assign.targets
        )
        for node in ast.walk(assign)
    }
    names = set()
    for node in ast.walk(tree):
        if id(node) in listed:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_exported_name_is_used_by_the_program_or_the_bench():
    files = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    files += sorted(BENCH.glob("*.py"))
    assert any(path.parent == BENCH for path in files)
    used = set().union(*(_referenced_names(path) for path in files))
    unused = [
        f"{name}.{n}"
        for name in MODULES
        for n in getattr(importlib.import_module(name), "__all__", ())
        if n not in used
    ]
    assert unused == []
