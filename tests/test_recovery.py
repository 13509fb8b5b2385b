"""Recovery of the injected spectra through ``run_campaign``.

Every estimator path the harness can take is run on exact expectations and
compared with a truth built here from the spectrum models themselves, not
from the campaign's own parsed objects.  A shot-mode test checks that the
robust quantum spectrum tells a quantum lag from none.
"""

from __future__ import annotations

import copy
import math
import warnings

import numpy as np
import pytest

from slqns import estimation, harness
from slqns.dynamics import compute_AB
from slqns.harness import run_campaign
from slqns.spectra import DeviceParams, Lorentzian, SphericalSpectraSet, White, mhz_to_rad_per_us
from test_harness import CLOSED_FORM_P2, CLOSED_FORM_P4, CLOSED_FORM_P4_ANALYTIC

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
    "p4-no-aligned": (4, True, {"omegas_MHz": [10.0, 30.0], "times_us": SERIES_US},
                      "robust_linear", "multi_axis", THREE_DRIVE),
}


def analytic_report(protocol: int, plan: dict, *, with_spam: bool, out_dir=None) -> dict:
    config = copy.deepcopy(BASE)
    config.update(protocol=protocol, plan=dict(plan, shots=1000))
    if with_spam:
        config["spam"] = dict(SPAM)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # exact data must never look like SPAM intercepts that disagree
        warnings.filterwarnings("error", "SPAM intercepts disagree")
        return run_campaign(config, out_dir=out_dir).report


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


# the decay-rate rows of each protocol, and the share of the decay exponent
# that each one's standard inversion reads at T_max: all of A (protocol 2's
# S+_{0,0} is A), half for each z drive's rate
RATE_ROWS = {2: {"S+_{0,0}": 1.0}, 4: {"A": 1.0, "S+_{1,-1}": 0.5, "S+_{-1,1}": 0.5}}


@pytest.mark.parametrize("config", [
    CLOSED_FORM_P4_ANALYTIC,
    dict(CLOSED_FORM_P2, backend={"type": "closed_form", "analytic": True}),
], ids=["p4", "p2"])
def test_spam_inflates_the_standard_rates_and_leaves_the_robust_ones_exact(config):
    # The paper's "overestimated by up to 26.4 %": the standard inversion takes
    # the contrast alpha = alpha_sp alpha_m at T_max for decay, so it reads A
    # too high by -ln(alpha) / T_max (29 % at 14-40 MHz here)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_campaign(config).report
    alpha = config["spam"]["alpha_sp"] * config["spam"]["alpha_m"]
    t_max = max(config["plan"]["times_us"])
    shares = RATE_ROWS[config["protocol"]]
    rows = [row for row in report["estimates"] if row["component"] in shares]
    assert len(rows) == 2 * len(config["plan"]["omegas_MHz"]) * len(shares)
    for row in rows:
        standard = row["method"] == "standard"
        expected = truth(row) - standard * shares[row["component"]] * math.log(alpha) / t_max
        assert abs(row["value"] - expected) <= REL_TOL * abs(expected), (row["method"], row["component"], row["value"])


def test_a_guarded_frequency_is_fitted_linearly_once(monkeypatch):
    # one linearized call fits the whole grid, and the nonlinear fit starts
    # from the payload of the guard error instead of refitting the lines
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(args[1])
            return fn(*args, **kwargs)
        return wrapper

    for module in (harness, estimation):
        monkeypatch.setattr(module, "robust_single_axis_linearized", counted(module.robust_single_axis_linearized))
    protocol, with_spam, plan, _, path, _ = CASES["p2-nonlinear"]
    report = analytic_report(protocol, plan, with_spam=with_spam)
    assert {row["path"] for row in report["spam_per_frequency"]} == {path}
    assert calls == [report["frequencies_rad_per_us"]]


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_robust_s_minus_tells_a_quantum_lag_from_none(seed):
    # The paper's non-classical signature once SPAM is compensated, in shot
    # mode at 1 MHz, where |S-| is largest in band: the robust S-_{0,0} of a
    # 0.3 us lag stands far from 0 (z of 10.7-11.9 at these seeds), and that
    # of zero lag covers 0 (|z| of 0.4-1.5)
    z = {}
    for lag in (LAG_US, 0.0):
        config = copy.deepcopy(CLOSED_FORM_P4)
        config["seed"] = seed
        config["plan"]["omegas_MHz"] = [1.0]
        config["spectra"]["dephasing"]["quantum_lag_us"] = lag
        with warnings.catch_warnings():
            # 1 MHz strains the secular description, and its aligned times decay to the floor
            warnings.simplefilter("ignore")
            report = run_campaign(config).report
        (row,) = [row for row in report["estimates"]
                  if row["method"] == "robust_linear" and row["component"] == "S-_{0,0}"]
        z[lag] = row["value"] / row["std_error"]
    assert z[LAG_US] > 5.0
    assert abs(z[0.0]) < 3.0
