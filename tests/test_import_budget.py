"""Start-up cost: ``import slqns`` loads only the scipy that a campaign runs.

``scipy.stats`` is never needed (shots use scipy.special's binomial quantile)
and ``scipy.optimize`` only by protocol 2's nonlinear fit; each costs about
half a second or more to import.  The checks run in a fresh interpreter and
read module names, not timings.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import slqns
from test_harness import CLOSED_FORM_P2, CLOSED_FORM_P4

SCRIPT = """
import json, sys
from slqns.harness import EXIT_OK, main, run_campaign

p4, p2, out = json.loads(sys.argv[1]), json.loads(sys.argv[2]), sys.argv[3]
with open(out + "/p4.json", "w") as fh:
    json.dump(p4, fh)
assert main(["run", out + "/p4.json", "--out-dir", out + "/p4"]) == EXIT_OK
assert main(["validate", out + "/p4.json"]) == EXIT_OK
assert main(["compare", out + "/p4/report.json", out + "/p4/report.json"]) == EXIT_OK
loaded = {name: name in sys.modules for name in ("scipy.special", "scipy.stats", "scipy.optimize")}
run_campaign(p2)
loaded["scipy.optimize after protocol 2"] = "scipy.optimize" in sys.modules
print(json.dumps(loaded))
"""


def two_frequencies(config):
    return dict(config, plan=dict(config["plan"], omegas_MHz=config["plan"]["omegas_MHz"][:2]))


def test_a_protocol_4_campaign_imports_neither_scipy_stats_nor_scipy_optimize(tmp_path):
    src = str(Path(slqns.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", SCRIPT,
         json.dumps(two_frequencies(CLOSED_FORM_P4)), json.dumps(two_frequencies(CLOSED_FORM_P2)), str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "scipy.special": True,
        "scipy.stats": False,
        "scipy.optimize": False,
        "scipy.optimize after protocol 2": True,
    }
