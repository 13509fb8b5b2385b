"""Analytic-mode recovery of the injected spectra through ``run_campaign``.

Every estimator path the harness can take is run on exact expectations and
compared with a truth built here from the spectrum models themselves, not
from the campaign's own parsed objects.
"""

from __future__ import annotations

import copy
import warnings

import numpy as np
import pytest

from slqns.dynamics import compute_AB
from slqns.harness import run_campaign
from slqns.spectra import DeviceParams, Lorentzian, SphericalSpectraSet, White, mhz_to_rad_per_us

REL_TOL = 1e-9
SPAM = {"alpha_sp": 0.98, "alpha_m": 0.95, "delta": 0.01}
LAG_US = 0.3

BASE = {
    "seed": 11,
    "device": {"qubit_frequency_MHz": 4970.0},
    "spectra": {
        "dephasing": {
            "model": {
                "kind": "Lorentzian",
                "params": {"peak_frequency_MHz": 0.6366, "correlation_time_us": 0.5},
            },
            "scale": 1.0,
            "quantum_lag_us": LAG_US,
        },
        "transverse": {"model": {"kind": "White", "params": {"level_per_us": 0.01}}},
    },
    "backend": {"type": "closed_form", "analytic": True},
}

_LORENTZIAN = Lorentzian(omega0=mhz_to_rad_per_us(0.6366), tc=0.5)
SPECTRA = SphericalSpectraSet.from_dephasing_plus_minus(
    _LORENTZIAN.value, lambda w: _LORENTZIAN.value(w) * np.sin(LAG_US * w)
).with_transverse(White(level=0.01))
DEVICE = DeviceParams(omega_q=mhz_to_rad_per_us(4970.0))

SERIES_US = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0]
THREE_DRIVE = ("A", "S+_{1,-1}", "S+_{-1,1}")

# name -> (protocol, with SPAM, plan, method, SPAM path, checked components)
CASES = {
    "p1": (1, False, {"omegas_MHz": [10.0, 30.0], "times_us": [2.0]},
           "standard", None, ("S+_{0,0}",)),
    "p3": (3, False, {"omegas_MHz": [10.0, 30.0], "times_us": [2.0], "aligned_n": [20]},
           "standard", None, THREE_DRIVE + ("S_{0,0}",)),
    "p2-linearized": (2, True, {"omegas_MHz": [30.0, 40.0], "times_us": [0.5, 0.75, 1.0]},
                      "robust_linear", "linearized", ("S+_{0,0}",)),
    "p2-nonlinear": (2, True, {"omegas_MHz": [10.0, 15.0, 20.0, 30.0, 35.0, 40.0],
                                "times_us": SERIES_US},
                     "robust_nonlinear", "nonlinear", ("S+_{0,0}",)),
    "p4-aligned": (4, True, {"omegas_MHz": [10.0, 30.0], "times_us": SERIES_US,
                             "aligned_n": [20, 40, 60]},
                   "robust_linear", "multi_axis", THREE_DRIVE + ("S_{0,0}",)),
    "p4-two-aligned": (4, True, {"omegas_MHz": [10.0, 30.0], "times_us": SERIES_US,
                                 "aligned_n": [20, 40]},
                       "robust_linear", "multi_axis", THREE_DRIVE),
    "p4-no-aligned": (4, True, {"omegas_MHz": [10.0, 30.0], "times_us": SERIES_US,
                                "include_aligned": False},
                      "robust_linear", "multi_axis", THREE_DRIVE),
}


def analytic_report(protocol: int, plan: dict, *, with_spam: bool) -> dict:
    config = copy.deepcopy(BASE)
    config.update(protocol=protocol, plan=dict(plan, shots=1000))
    if with_spam:
        config["spam"] = dict(SPAM)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # exact data must never look like SPAM intercepts that disagree
        warnings.filterwarnings("error", "SPAM intercepts disagree")
        return run_campaign(config).report


def truth(row: dict) -> float:
    comp, freq = row["component"], row["freq_rad_per_us"]
    if comp in ("A", "S+_{0,0}"):
        # protocols 1 and 2 drive x alone, so their S+_{0,0} is A(Omega)
        return compute_AB(SPECTRA, row["omega_rad_per_us"], DEVICE).a_rate
    if comp == "S_{0,0}":
        return SPECTRA.value(0, 0, freq).real
    alpha, beta = {"S+_{1,-1}": (1, -1), "S+_{-1,1}": (-1, 1)}[comp]
    return SPECTRA.s_plus(alpha, beta, freq).real


@pytest.mark.parametrize("name", sorted(CASES))
def test_analytic_campaign_recovers_injected_rates(name):
    protocol, with_spam, plan, method, path, components = CASES[name]
    report = analytic_report(protocol, plan, with_spam=with_spam)

    assert report["failures"] == {}
    checked = [row for row in report["estimates"]
               if row["method"] == method and row["component"] in components]
    assert len(checked) == len(plan["omegas_MHz"]) * len(components)
    for row in checked:
        true = truth(row)
        assert abs(row["value"] - true) <= REL_TOL * abs(true), (row["component"], row["value"], true)

    if path is None:
        assert report["spam"] is None
    else:
        assert {r["path"] for r in report["spam_per_frequency"]} == {path}
        # the reported alpha_m is the combined alpha = alpha_sp * alpha_m
        alpha = SPAM["alpha_sp"] * SPAM["alpha_m"]
        assert report["spam"]["alpha_m"]["value"] == pytest.approx(alpha, rel=REL_TOL)
        assert report["spam"]["delta"]["value"] == pytest.approx(SPAM["delta"], rel=1e-6)
    if path == "multi_axis":
        assert all(r["intercepts_consistent"] for r in report["spam_per_frequency"])

