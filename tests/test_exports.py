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


TRACER_MARK = "resolved here by the benchmark tracer"


def _tracer_only_bindings(module) -> list[tuple[object, str]]:
    """(module or class, name) of every binding that a line of ``module``
    marked as resolved by the benchmark tracer makes: a name it imports, or
    a class attribute it assigns."""
    source = Path(module.__file__).read_text()
    marked = {number for number, line in enumerate(source.splitlines(), 1) if TRACER_MARK in line}
    found, seen = [], set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, getattr(owner, child.name))
            elif isinstance(child, ast.ImportFrom):
                for alias in child.names:
                    if alias.lineno in marked:
                        found.append((owner, alias.asname or alias.name))
                        seen.add(alias.lineno)
            elif isinstance(child, ast.Assign) and child.lineno in marked:
                found.extend((owner, target.id) for target in child.targets)
                seen.add(child.lineno)

    visit(ast.parse(source), module)
    assert seen == marked, f"{module.__name__}: marked lines that bind nothing: {sorted(marked - seen)}"
    return found


def test_code_kept_for_the_tracer_is_wrapped_by_it(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    wrapped = {(id(binding.owner), binding.attr) for binding in tracer.bindings()}
    kept = [(owner, name) for module in MODULES for owner, name in _tracer_only_bindings(importlib.import_module(module))]
    assert kept
    assert [f"{owner.__name__}.{name}" for owner, name in kept if (id(owner), name) not in wrapped] == []


# Module-level definitions of src/slqns that no src/ code references: the
# package version, and the per-point helpers and scalar references that only
# the tests and the bench call (ROADMAP item 9 retires them).  A helper that
# loses its last caller must go, not join this list.
UNREFERENCED = {
    "__init__.__version__",
    "dynamics.compute_AB",
    "dynamics.simulate_trajectory",
    "dynamics.tcl_evolve_state",
    "estimation.weighted_linreg",
    "noisegen.target_spectra",
    "protocols.run_for_omega",
    "spam.sample_shots",
}


def _unreferenced_definitions() -> set[str]:
    """``module.name`` of every module-level function, class or assigned
    name of src/slqns that no src/ code loads, as a name or an attribute;
    imports and ``__all__`` lists do not count as references."""
    definitions, loaded = set(), set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.add((path.stem, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                definitions.update((path.stem, t.id) for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    return {f"{module}.{name}" for module, name in definitions if name not in loaded and name != "__all__"}


def test_no_module_level_definition_goes_unreferenced_by_the_program():
    unreferenced = _unreferenced_definitions()
    assert sorted(unreferenced - UNREFERENCED) == []
    # a listed name that is gone or has a caller again leaves the list
    assert sorted(UNREFERENCED - unreferenced) == []


# Methods of src/slqns classes that no src/ or bench/ code loads: the
# conveniences that only the tests call.  A member that loses its last
# caller must go, not join this list.
UNREFERENCED_MEMBERS = {
    "DriveRates.coherence_rate",
    "EstimateTable.outcomes",
    "QubitState.from_bloch",
    "QubitState.ket",
    "ShotDataset.add",
    "ShotDataset.csv_text",
    "ShotDataset.entries",
    "ShotDataset.from_csv",
    "SpamParams.alpha",
    "SpamParams.is_ideal",
}


def _unreferenced_members() -> set[str]:
    """``Class.name`` of every method (dunders left out) of a module-level
    class of src/slqns whose name no src/ or bench/ code loads as an
    attribute: a method is reached as ``obj.name``, so a local or a
    parameter of that name is no reference."""
    members, loaded = set(), set()
    for path in [*PACKAGE.glob("*.py"), *BENCH.glob("*.py")]:
        tree = ast.parse(path.read_text())
        if path.parent == PACKAGE:
            members.update(
                (node.name, item.name)
                for node in tree.body if isinstance(node, ast.ClassDef)
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
            )
        loaded.update(node.attr for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    return {f"{cls}.{name}" for cls, name in members if name not in loaded}


def test_no_class_member_goes_unreferenced_by_the_program_or_the_bench():
    unreferenced = _unreferenced_members()
    assert sorted(unreferenced - UNREFERENCED_MEMBERS) == []
    # a listed member that is gone or has a caller again leaves the list
    assert sorted(UNREFERENCED_MEMBERS - unreferenced) == []


def test_protocols_reads_no_private_attribute_of_dynamics():
    """The trajectory backend asks ``dynamics`` for a point's mean and leaves
    the engine's steps and storage to it: ``protocols`` reads no
    ``dynamics._*`` attribute."""
    tree = ast.parse((PACKAGE / "protocols.py").read_text())
    private = sorted({node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name) and node.value.id == "dynamics"
                      and node.attr.startswith("_")})
    assert private == []
