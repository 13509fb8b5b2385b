"""``harness.compare_reports``: per-row z-scores between two reports."""

from __future__ import annotations

import math
import warnings

import pytest

from slqns.harness import compare_reports, run_campaign

from test_harness import CLOSED_FORM_P4


def report(*rows):
    """A report holding one estimate row per (component, value, std_error)."""
    return {"estimates": [
        {"component": component, "method": "standard", "omega_rad_per_us": 6.0,
         "freq_rad_per_us": 6.0, "value": value, "std_error": std_error}
        for component, value, std_error in rows
    ]}


def test_identical_reports_give_zero_everywhere():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        full = run_campaign(CLOSED_FORM_P4).report
    rows = compare_reports(full, full)
    assert len(rows) == len(full["estimates"])
    assert all(row["z"] == 0.0 for row in rows)


def test_a_finite_z_is_the_difference_over_the_combined_std_error():
    (row,) = compare_reports(report(("A", 1.0, 0.3)), report(("A", 0.6, 0.4)))
    assert row["z"] == pytest.approx(0.4 / 0.5, rel=1e-15)
    assert (row["value_a"], row["value_b"]) == (1.0, 0.6)


def test_an_infinite_z_keeps_the_sign_of_the_difference():
    rows = compare_reports(report(("A", 1.0, 0.0), ("B", 2.0, 0.0)), report(("A", 2.0, 0.0), ("B", 1.0, 0.0)))
    assert [row["z"] for row in rows] == [-math.inf, math.inf]


def test_reports_on_different_grids_are_refused():
    with pytest.raises(ValueError, match="different"):
        compare_reports(report(("A", 1.0, 0.1)), report(("B", 1.0, 0.1)))
