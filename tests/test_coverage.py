"""Seed sweeps of the SPAM-robust protocols 2 and 4 in shot mode.

Every frequency of every seed must yield an estimate, and the 95 % intervals
of the robust estimates must cover the injected rates and spectra about
95 % of the time.
"""

from __future__ import annotations

import copy
import warnings

import numpy as np

from slqns.dynamics import compute_AB
from slqns.estimation import Z_95
from slqns.harness import run_campaign
from slqns.spectra import Lorentzian, SphericalSpectraSet, White, mhz_to_rad_per_us
from test_harness import PHYSICS
from test_recovery import DEVICE, SERIES_US, SPECTRA, truth

SEEDS = range(1, 41)
OMEGAS_MHZ = np.linspace(1.0, 40.0, 16).tolist()

CONFIG = dict(
    copy.deepcopy(PHYSICS),
    protocol=2,
    backend={"type": "closed_form", "analytic": False},
    plan={"omegas_MHz": OMEGAS_MHZ, "times_us": SERIES_US, "shots": 1000},
)

# as many seeds as fit in about 10 s of tier-1 on a 2-core machine
P4_SEEDS = range(1, 41)
P4_CONFIG = dict(CONFIG, protocol=4, plan=dict(CONFIG["plan"], aligned_n=[20, 40, 60]))


def sweep(config, seeds, method, truths):
    """Failures, and whether each ``method`` row's 95 % interval covers the truth.

    ``truths`` maps each checked component to a function giving the true
    value of one row.
    """
    hits = {component: [] for component in truths}
    failures = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in seeds:
            report = run_campaign(config, seed=seed).report
            failures += len(report["failures"])
            for row in report["estimates"]:
                if row["method"] == method and row["component"] in truths:
                    true = truths[row["component"]](row)
                    hits[row["component"]].append(abs(row["value"] - true) <= Z_95 * row["std_error"])
    return failures, hits


def test_nonlinear_fit_never_fails_and_covers_the_truth():
    def rates(row):
        return compute_AB(SPECTRA, row["omega_rad_per_us"], DEVICE)

    failures, hits = sweep(CONFIG, SEEDS, "robust_nonlinear", {
        "S+_{0,0}": lambda row: rates(row).a_rate,
        "S-_{0,0}": lambda row: rates(row).b_rate,
    })
    assert failures == 0
    for component, covered in hits.items():
        assert len(covered) == len(SEEDS) * len(OMEGAS_MHZ), component
        assert 0.92 <= np.mean(covered) <= 0.98, (component, np.mean(covered))


def test_multi_axis_estimator_never_fails_and_covers_the_truth():
    components = ("A", "S+_{1,-1}", "S+_{-1,1}", "S_{0,0}")
    failures, hits = sweep(P4_CONFIG, P4_SEEDS, "robust_linear", dict.fromkeys(components, truth))
    assert failures == 0
    for component, covered in hits.items():
        # S_{0,0} is missing where too few aligned times keep a positive gap
        if component != "S_{0,0}":
            assert len(covered) == len(P4_SEEDS) * len(OMEGAS_MHZ), component
        assert 0.92 <= np.mean(covered) <= 0.98, (component, np.mean(covered))


def test_robust_s_minus_z_scores_have_unit_spread_at_zero_lag_on_256_drives():
    # Calibration of protocol 2's robust S-_{0,0} on the benchmark grid: no
    # fitted parameter sits on a bound, so its z-scores against B(Omega) have
    # sd near 1 over 6 seeds x 256 drives (about 1.005; 0.874 when delta
    # was boxed into [0, 1])
    config = copy.deepcopy(CONFIG)
    config["spectra"]["dephasing"]["quantum_lag_us"] = 0.0
    config["plan"]["omegas_MHz"] = np.linspace(1.0, 40.0, 256).tolist()
    lorentzian = Lorentzian(omega0=mhz_to_rad_per_us(0.6366), tc=0.5)
    spectra = SphericalSpectraSet.from_dephasing_plus_minus(lorentzian.value).with_transverse(White(level=0.01))
    z = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(1, 7):
            for row in run_campaign(config, seed=seed).report["estimates"]:
                if row["method"] == "robust_nonlinear" and row["component"] == "S-_{0,0}":
                    b_rate = compute_AB(spectra, row["omega_rad_per_us"], DEVICE).b_rate
                    z.append((row["value"] - b_rate) / row["std_error"])
    assert len(z) == 6 * 256
    assert 0.93 <= np.std(z, ddof=1) <= 1.07, np.std(z, ddof=1)
