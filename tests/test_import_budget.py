"""Start-up cost: neither ``import slqns`` nor any campaign loads scipy.

Shots are drawn by a numpy inverse CDF (``spam.draw_shots``) and protocol 2's
nonlinear fit takes its own Gauss-Newton steps, so every protocol,
``validate`` and ``compare`` run on numpy alone, and scipy is a test-only
dependency.  The checks run in a fresh interpreter and read module names, not
timings; a static check keeps any scipy import in ``src/slqns`` inside a
function.  Another keeps ``concurrent`` and ``threading`` out of
``src/slqns`` altogether: a campaign runs in the calling thread.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import slqns
from test_harness import CLOSED_FORM_P2, CLOSED_FORM_P4, TRAJECTORY

SRC = Path(slqns.__file__).resolve().parent

SCRIPT = """
import json, sys

def scipy_loaded():
    return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))

import slqns
loaded = {"import slqns": scipy_loaded()}
from slqns.harness import EXIT_OK, main, run_campaign

configs, out = json.loads(sys.argv[1]), sys.argv[2]
for name in ("p1", "p3", "p4"):
    with open(f"{out}/{name}.json", "w") as fh:
        json.dump(configs[name], fh)
    assert main(["run", f"{out}/{name}.json", "--out-dir", f"{out}/{name}"]) == EXIT_OK
assert main(["validate", f"{out}/p4.json"]) == EXIT_OK
assert main(["compare", f"{out}/p4/report.json", f"{out}/p4/report.json"]) == EXIT_OK
loaded["protocols 1, 3 and 4, validate and compare"] = scipy_loaded()
run_campaign(configs["p2"])
loaded["scipy.optimize after protocol 2"] = "scipy.optimize" in sys.modules
print(json.dumps(loaded))
"""


def two_frequencies(config, **changes):
    plan = dict(config["plan"], omegas_MHz=config["plan"]["omegas_MHz"][:2])
    return dict(config, plan=dict(plan, **changes.pop("plan", {})), **changes)


def test_a_protocol_4_campaign_imports_neither_scipy_stats_nor_scipy_optimize(tmp_path):
    configs = {
        "p1": two_frequencies(CLOSED_FORM_P4, protocol=1, plan={"times_us": [2.0], "aligned_n": []}),
        "p3": two_frequencies(CLOSED_FORM_P4, protocol=3, plan={"times_us": [2.0], "aligned_n": [20]}),
        "p4": two_frequencies(CLOSED_FORM_P4),
        "p2": two_frequencies(CLOSED_FORM_P2),
    }
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", SCRIPT, json.dumps(configs), str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "import slqns": [],
        "protocols 1, 3 and 4, validate and compare": [],
        "scipy.optimize after protocol 2": False,
    }


PROTOCOL_2_SCRIPT = """
import json, sys
from slqns.harness import run_campaign

report = run_campaign(json.loads(sys.argv[1])).report
scipy = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
print(json.dumps({"paths": sorted({row["path"] for row in report["spam_per_frequency"]}), "scipy": scipy}))
"""


def paths_and_scipy(config) -> dict:
    """The SPAM paths of a protocol 2 campaign run in a fresh interpreter, and the scipy modules it loaded."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", PROTOCOL_2_SCRIPT, json.dumps(config)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_a_protocol_2_campaign_whose_guard_accepts_every_frequency_loads_no_scipy():
    # the trajectory benchmark's shape: short times, so every frequency takes the linearized fit
    assert paths_and_scipy(TRAJECTORY) == {"paths": ["linearized"], "scipy": []}


def test_a_protocol_2_campaign_whose_guard_rejects_every_frequency_loads_no_scipy():
    # the series benchmark's shape: every frequency takes the nonlinear fit
    assert paths_and_scipy(two_frequencies(CLOSED_FORM_P2)) == {"paths": ["nonlinear"], "scipy": []}


def module_level_scipy_imports(tree: ast.Module) -> list[int]:
    """Lines of the scipy imports that run when the module is imported: any
    outside a function body, in a class body or an ``if`` included."""
    found = []
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            found.append(node.lineno)
        pending.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_no_module_of_slqns_imports_scipy_at_module_level():
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := module_level_scipy_imports(ast.parse(path.read_text(), filename=str(path))))
    }
    assert found == {}


def test_the_scipy_import_guard_sees_only_module_level_imports():
    tree = ast.parse(
        "import numpy\n"
        "import scipy.special as sc\n"
        "if True:\n    from scipy import stats\n"
        "class A:\n    from scipy.optimize import least_squares\n"
        "def f():\n    from scipy.optimize import least_squares\n"
        "async def g():\n    import scipy\n"
        "h = lambda: __import__('scipy')\n"
        "from .scipy_like import x\n"
        "import scipyx\n"
    )
    assert module_level_scipy_imports(tree) == [2, 4, 6]


def imported_packages(tree: ast.Module) -> set[str]:
    """The top-level package of every absolute import in ``tree``, function bodies included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add((node.module or "").partition(".")[0])
    return names


def test_no_module_of_slqns_imports_concurrent_or_threading():
    found = {
        path.name: sorted(names)
        for path in sorted(SRC.glob("*.py"))
        if (names := imported_packages(ast.parse(path.read_text(), filename=str(path))) & {"concurrent", "threading"})
    }
    assert found == {}


def test_the_thread_import_guard_sees_imports_at_any_depth():
    tree = ast.parse(
        "import threading\n"
        "def f():\n    from concurrent.futures import ThreadPoolExecutor\n"
        "from .threading_like import x\n"
        "import concurrentx\n"
    )
    assert imported_packages(tree) == {"threading", "concurrent", "concurrentx"}


def test_blas_threads_are_pinned_before_numpy_loads():
    import conftest

    assert not conftest.NUMPY_PRELOADED
    assert all(os.environ.get(var) for var in conftest.BLAS_THREAD_VARS)
