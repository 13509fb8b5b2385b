"""Estimator input checks, the messages of their refusals, and which
refusals fail a frequency."""

from __future__ import annotations

import copy
import math
import warnings

import pytest

from slqns import harness
from slqns.dynamics import frame_aligned_times
from slqns.estimation import EstimationError, Method, SpectralEstimate, invert_multi_axis
from slqns.harness import run_campaign
from test_harness import CLOSED_FORM_P4
from test_recovery import BASE, CASES, DEVICE, SERIES_US, SPAM, analytic_report


@pytest.mark.parametrize("std_error", [math.nan, math.inf, -1.0])
def test_spectral_estimate_rejects_invalid_std_error(std_error):
    with pytest.raises(EstimationError):
        SpectralEstimate("S+_{0,0}", "Omega", 1.0, 0.1, std_error, Method.STANDARD)


def test_protocol4_skips_an_aligned_block_of_two_times_with_a_warning():
    protocol, _, plan, *_ = CASES["p4-two-aligned"]
    config = dict(BASE, protocol=protocol, spam=SPAM, plan=dict(plan, shots=1000))
    with pytest.warns(UserWarning, match="skipping the aligned coherence block: 2 aligned times"):
        report = run_campaign(config).report
    assert report["failures"] == {}
    robust = {row["component"] for row in report["estimates"] if row["method"] == "robust_linear"}
    assert robust and "S_{0,0}" not in robust


@pytest.mark.filterwarnings("ignore:.*the secular description of the driven dynamics is strained")
def test_protocol4_skips_an_aligned_block_left_with_one_usable_time():
    # at 1 MHz the aligned times are 20, 40 and 60 us; at seed 1 the shot
    # noise closes the expectation gap at the last two
    config = copy.deepcopy(CLOSED_FORM_P4)
    config["plan"]["omegas_MHz"] = [1.0]
    with pytest.warns(UserWarning, match="skipping the aligned coherence block: 3 aligned times, "
                                         "only 1 usable time points"):
        report = run_campaign(config, seed=1).report
    assert report["failures"] == {}
    robust = {row["component"] for row in report["estimates"] if row["method"] == "robust_linear"}
    assert len(robust) == 8 and "S_{0,0}" not in robust


@pytest.mark.parametrize("name", ["p1", "p3", "p2-linearized", "p4-aligned"])
def test_a_failed_standard_inversion_fails_only_protocols_without_a_robust_step(monkeypatch, name):
    protocol, with_spam, plan, *_ = CASES[name]
    full = analytic_report(protocol, plan, with_spam=with_spam)

    def refuse(*args, **kwargs):
        raise EstimationError("standard inversion refused")

    monkeypatch.setattr(harness, "estimate_single_axis_standard", refuse)
    monkeypatch.setattr(harness, "invert_multi_axis", refuse)
    report = analytic_report(protocol, plan, with_spam=with_spam)

    assert any(row["method"] == "standard" for row in full["estimates"])
    if protocol in (1, 3):
        assert report["estimates"] == []
        assert list(report["failures"].values()) == ["standard inversion refused"] * len(plan["omegas_MHz"])
    else:
        assert report["failures"] == {}
        assert report["estimates"] == [row for row in full["estimates"] if row["method"] != "standard"]
        assert report["spam_per_frequency"] == full["spam_per_frequency"]


@pytest.mark.parametrize("protocol, index", [(3, 0), (4, -1)])
def test_protocol3_inverts_at_the_first_aligned_time_and_protocol4_at_the_last(protocol, index):
    times, aligned_n = ([2.0] if protocol == 3 else SERIES_US), [20, 40, 60]
    plan = {"omegas_MHz": [10.0, 30.0], "times_us": times, "aligned_n": aligned_n, "shots": 1000}
    config = dict(BASE, protocol=protocol, spam=SPAM, plan=plan,
                  backend={"type": "closed_form", "analytic": False})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_campaign(config)
    standard = {row["omega_rad_per_us"]: row["value"] for row in result.report["estimates"]
                if row["method"] == "standard" and row["component"] == "S_{0,0}"}
    assert len(standard) == len(plan["omegas_MHz"])
    for omega, value in standard.items():
        aligned_t = float(frame_aligned_times(omega, aligned_n)[index])
        expected = invert_multi_axis(result.dataset, omega, DEVICE.omega_q, max(times), aligned_t)
        assert value == expected["S_{0,0}"].value
