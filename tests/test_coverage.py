"""Seed sweep of the SPAM-robust single-axis protocol in shot mode.

Every frequency of every seed must yield an estimate, and the 95 % intervals
of the nonlinear fit must cover the injected A(Omega) and B(Omega) about
95 % of the time.
"""

from __future__ import annotations

import copy
import warnings

import numpy as np

from slqns.dynamics import compute_AB
from slqns.estimation import Z_95
from slqns.harness import run_campaign
from test_harness import PHYSICS
from test_recovery import DEVICE, SERIES_US, SPECTRA

SEEDS = range(1, 41)
OMEGAS_MHZ = np.linspace(1.0, 40.0, 16).tolist()

CONFIG = dict(
    copy.deepcopy(PHYSICS),
    protocol=2,
    backend={"type": "closed_form", "analytic": False},
    plan={"omegas_MHz": OMEGAS_MHZ, "times_us": SERIES_US, "shots": 1000},
)


def test_nonlinear_fit_never_fails_and_covers_the_truth():
    hits = {"S+_{0,0}": [], "S-_{0,0}": []}
    failures = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in SEEDS:
            report = run_campaign(CONFIG, seed=seed).report
            failures += len(report["failures"])
            for row in report["estimates"]:
                if row["method"] != "robust_nonlinear":
                    continue
                rates = compute_AB(SPECTRA, row["omega_rad_per_us"], DEVICE)
                truth = rates.a_rate if row["component"] == "S+_{0,0}" else rates.b_rate
                hits[row["component"]].append(abs(row["value"] - truth) <= Z_95 * row["std_error"])

    assert failures == 0
    for component, covered in hits.items():
        assert len(covered) == len(SEEDS) * len(OMEGAS_MHZ), component
        assert 0.92 <= np.mean(covered) <= 0.98, (component, np.mean(covered))
