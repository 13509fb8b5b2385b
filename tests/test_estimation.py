"""Estimator input checks and the messages of their refusals."""

from __future__ import annotations

import math

import pytest

from slqns.estimation import EstimationError, Method, SpectralEstimate
from slqns.harness import run_campaign
from test_recovery import BASE, CASES, SPAM


@pytest.mark.parametrize("std_error", [math.nan, math.inf, -1.0])
def test_spectral_estimate_rejects_invalid_std_error(std_error):
    with pytest.raises(EstimationError):
        SpectralEstimate("S+_{0,0}", "Omega", 1.0, 0.1, std_error, Method.STANDARD)


# on exact data the intercept z-scores compare round-off with round-off
@pytest.mark.filterwarnings("ignore:SPAM intercepts disagree")
def test_protocol4_skips_an_aligned_block_of_two_times_with_a_warning():
    protocol, _, plan, *_ = CASES["p4-two-aligned"]
    config = dict(BASE, protocol=protocol, spam=SPAM, plan=dict(plan, shots=1000))
    with pytest.warns(UserWarning, match="skipping the aligned coherence block: 2 aligned times"):
        report = run_campaign(config).report
    assert report["failures"] == {}
    robust = {row["component"] for row in report["estimates"] if row["method"] == "robust_linear"}
    assert robust and "S_{0,0}" not in robust
