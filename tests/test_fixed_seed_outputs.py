"""A fixed seed gives the same output bytes: pinned SHA-256 digests.

The first two campaigns are the 16-frequency twins of the closed-form
benchmark sweeps (protocol 4 with the aligned block, and the protocol 2
series) at seed 1, in shot mode.  Their digests were recorded at commit
e6581fb, before the array seeding path (``seeding.derive_seeds``/
``first_uniforms``) replaced the per-point ``SeedSequence`` construction,
with numpy 2.4 and scipy 1.17 on x86-64 Linux.  The shot counts have not
depended on scipy since they are drawn by a numpy inverse CDF
(``spam.draw_shots``), and every digest held through that change.  The
protocol 2 twin's ``report.json`` and ``estimates.csv`` were re-recorded when
its nonlinear fit became an unbounded Gauss-Newton solve in numpy, which
freed delta from the [0, 1] box of scipy's fit.  The
other three (the protocol 4 twin in analytic mode, and protocol 1 and
protocol 3 on the same
drives at one evolution time, in shot mode) cover the standard inversions
and the estimator result code; their digests were recorded at commit
f0fd00e, before the estimators shared one result type.  A speed-up of the
closed-form path must keep them; a change that means to alter the outputs
re-records them and says why.

The warnings each twin emits under ``simplefilter("always")``, as the
(category, message) list in emission order, are pinned the same way; they
were recorded at commit cd42ec8, before the closed-form block evaluator ran
each drive's rate checks once.  Each warning names its caller's line in this
file, never a line inside the package.

The protocol 4 twin is also run in fresh processes at one and at two
OpenBLAS threads: the estimators' stacked matrix products and solves must
give the same bits whatever the BLAS thread count.  The protocol 4 and
protocol 2 twins are run under OpenBLAS's Prescott (SSE3) kernels as well:
there only ``datasets.csv`` and ``manifest.json``, which no BLAS call
reaches, keep their digests, while the estimates' solves may round
differently on another kernel.
"""

from __future__ import annotations

import copy
import hashlib
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from slqns.harness import run_campaign

PHYSICS = {
    "device": {"qubit_frequency_MHz": 4970.0},
    "spam": {"alpha_sp": 0.98, "alpha_m": 0.95, "delta": 0.01},
    "spectra": {
        "dephasing": {
            "model": {
                "kind": "Lorentzian",
                "params": {"peak_frequency_MHz": 0.6366, "correlation_time_us": 0.5},
            },
            "scale": 1.0,
            "quantum_lag_us": 0.3,
        },
        "transverse": {"model": {"kind": "White", "params": {"level_per_us": 0.01}}},
    },
}
OMEGAS_MHZ = [1.0 + 39.0 * k / 15 for k in range(16)]
TIMES_US = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0]

CAMPAIGNS = {
    "p4-wide-twin": dict(
        copy.deepcopy(PHYSICS), protocol=4, seed=1,
        backend={"type": "closed_form", "analytic": False},
        plan={"omegas_MHz": OMEGAS_MHZ, "times_us": TIMES_US, "aligned_n": [20, 40, 60], "shots": 1000},
    ),
    "p2-series-twin": dict(
        copy.deepcopy(PHYSICS), protocol=2, seed=1,
        backend={"type": "closed_form", "analytic": False},
        plan={"omegas_MHz": OMEGAS_MHZ, "times_us": TIMES_US, "shots": 1000},
    ),
    "p4-wide-analytic-twin": dict(
        copy.deepcopy(PHYSICS), protocol=4, seed=1,
        backend={"type": "closed_form", "analytic": True},
        plan={"omegas_MHz": OMEGAS_MHZ, "times_us": TIMES_US, "aligned_n": [20, 40, 60], "shots": 1000},
    ),
    "p1-twin": dict(
        copy.deepcopy(PHYSICS), protocol=1, seed=1,
        backend={"type": "closed_form", "analytic": False},
        plan={"omegas_MHz": OMEGAS_MHZ, "times_us": [2.0], "shots": 1000},
    ),
    "p3-twin": dict(
        copy.deepcopy(PHYSICS), protocol=3, seed=1,
        backend={"type": "closed_form", "analytic": False},
        plan={"omegas_MHz": OMEGAS_MHZ, "times_us": [2.0], "aligned_n": [20], "shots": 1000},
    ),
}

DIGESTS = {
    "p4-wide-twin": {
        "report.json": "abef7467ca40ae901c3a4fe01cb08ae82079e7d03391e6fd94caf9d8fdea5dfe",
        "datasets.csv": "a1af287f9664096b7fa9ff9026a6b097bf085c6f74104fbf452cb6b038298046",
        "estimates.csv": "675ed1197a135a69f4c24118cc4f629ad6b8d2d5f9ac290b4ef4884844d8b4ac",
        "manifest.json": "7f6ff863c1757153d84793cf6b8015083e5a5f73a702e6a480f7610406cb37c1",
    },
    "p2-series-twin": {
        "report.json": "7ef8d7dd0e17ff466acc3bba26de9a227f3f4679fa2dde54018a7933349e8a5b",
        "datasets.csv": "dffba99a4c2a57038de119c93c847e012d4ff4944b4b100fda18d3bb1f5863cc",
        "estimates.csv": "7a7f47189e602dec26e28ebee10bd603342a274afb9ed0906e63bef649c0cde1",
        "manifest.json": "69d047005166ad922673d9684635d90a13c0cd24951b02d66a1ccfdfeab9d4a3",
    },
    "p4-wide-analytic-twin": {
        "report.json": "c561c3748e34bf129ae89d4a27b5a823d1c4357796715c1fd5edab8702080e34",
        "datasets.csv": "6ea91d2f3a0c26fe7848e2330b53d46a387d084a680385bf3faaeb00be032f0f",
        "estimates.csv": "d2f2b5af0415d7de96f61a9e8ae2ac43db0ecd2e6dc22d926aecab96e0a221f6",
        "manifest.json": "453b0f6072130dcff56d3a902673e5837b5ae85247b68d9bea7b34adfac2ebc8",
    },
    "p1-twin": {
        "report.json": "6b7dba921821393a305d261d7fe5a30781ca1b2b36ddba82bce8f810badd2a90",
        "datasets.csv": "10e241299847371e08bbbbbf52663afe262022c53257242a00fb28c33b284c5d",
        "estimates.csv": "5d561e09c346923900305957846f253859362bfa563f675bc22ce6231fc9fd8e",
        "manifest.json": "c3060773669fcd1c9c79394f779b984cc2203e5ad5d752f3e8c566a1d3e41f01",
    },
    "p3-twin": {
        "report.json": "0757c608e63c0a3a64ff824d024252c9a39b2091e8435a5a7f5f9a672d43d6d5",
        "datasets.csv": "2fa7ae26d20db4ce083a5ed5e35e71e956ea76c0bbdac3cb00722cc83e3c62f4",
        "estimates.csv": "2a4d2747a7fc75ce28587e9fd8d8f7361e455ea62ec7054eeddc4abbc30b3aca",
        "manifest.json": "81137d6c7af114ac1525bb7bc6b72e2b9b39a5e3a749a96cd2669159ee0a5ca1",
    },
}


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_outputs_match_the_pinned_digests(tmp_path, name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_campaign(CAMPAIGNS[name], out_dir=tmp_path)
    digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in DIGESTS[name]}
    assert digests == DIGESTS[name]


WARNING_DIGESTS = {
    "p4-wide-twin": "620e039a5da4138e65be4c1d34c91a735a45f46456ae88d197c7702157804c59",
    "p2-series-twin": "576e1e3b5a23e629718ae271413686de923d997e72492c9bc8d9e19443b419dc",
    "p4-wide-analytic-twin": "26f9ec4ae3eceb0697f62add6f79332b6930f81b1d904f99940997ea1d43a358",
    "p1-twin": "576e1e3b5a23e629718ae271413686de923d997e72492c9bc8d9e19443b419dc",
    "p3-twin": "26f9ec4ae3eceb0697f62add6f79332b6930f81b1d904f99940997ea1d43a358",
}


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_warning_sequences_match_the_pinned_digests(tmp_path, name):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_campaign(CAMPAIGNS[name], out_dir=tmp_path)
    sequence = [(w.category.__name__, str(w.message)) for w in caught]
    assert hashlib.sha256(repr(sequence).encode()).hexdigest() == WARNING_DIGESTS[name]
    # every warning names the caller's line, not a line inside the package
    assert {w.filename for w in caught} == {__file__}


ROOT = Path(__file__).resolve().parent.parent
# writes the outputs of one CAMPAIGNS entry into a directory
RUN_ONE = """
import sys, warnings
from test_fixed_seed_outputs import CAMPAIGNS
from slqns.harness import run_campaign
warnings.simplefilter("ignore")
run_campaign(CAMPAIGNS[sys.argv[1]], out_dir=sys.argv[2])
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_p4_twin_digests_hold_at_one_and_two_blas_threads(tmp_path, threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    subprocess.run([sys.executable, "-c", RUN_ONE, "p4-wide-twin", str(tmp_path)],
                   env=env, check=True, timeout=300, cwd=ROOT)
    digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in DIGESTS["p4-wide-twin"]}
    assert digests == DIGESTS["p4-wide-twin"]


# the outputs that no BLAS call reaches: the shot records and the manifest
BLAS_FREE_FILES = ("datasets.csv", "manifest.json")


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="OPENBLAS_CORETYPE names x86-64 kernels")
@pytest.mark.parametrize("name", ["p4-wide-twin", "p2-series-twin"])
def test_shots_and_manifest_hold_under_another_blas_kernel(tmp_path, name):
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    subprocess.run([sys.executable, "-c", RUN_ONE, name, str(tmp_path)], env=env, check=True, timeout=300, cwd=ROOT)
    digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in BLAS_FREE_FILES}
    assert digests == {f: DIGESTS[name][f] for f in BLAS_FREE_FILES}
