"""Injected truth of every ``report.json`` row, and the estimator quality it implies.

The truth is derived from the campaign's own public objects, never from the
estimates:

* ``S+_{a,b}`` / ``S-_{a,b}`` at ``freq_rad_per_us``: ``spectra.s_plus`` /
  ``spectra.s_minus``; ``S_{a,b}``: ``spectra.value``;
* ``A`` and ``B``: ``compute_AB`` at the drive amplitude;
* protocol 1 and 2 rows come from the x drive alone, so their ``S+_{0,0}``
  is A(Omega), their ``S-_{0,0}`` is B(Omega) and ``alpha_m*S-_{0,0}`` is
  alpha_m B(Omega);
* a trajectory campaign applies the same rules to ``target_spectra`` of its
  noise generator and bath.
"""

from __future__ import annotations

import re
import statistics

from slqns.dynamics import compute_AB
from slqns.estimation import Method, SpectralEstimate
from slqns.noisegen import target_spectra

ROBUST_METHODS = frozenset({Method.ROBUST_LINEAR.value, Method.ROBUST_NONLINEAR.value})

# Classical rates each robust estimator reads directly off a fitted slope.
# S- rows and protocol 4's S+_{0,0} (a difference of slopes) are left out:
# their truths are near zero, where a relative error is meaningless.
DIRECT_RATES = {
    1: frozenset({"S+_{0,0}"}),
    2: frozenset({"S+_{0,0}"}),
    4: frozenset({"A", "S+_{1,-1}", "S+_{-1,1}", "S_{0,0}"}),
}

ANALYTIC_REL_TOL = 1e-9
COVERAGE_TARGET = 0.95

_SPECTRUM = re.compile(r"^S([+-]?)_\{(-?\d+),(-?\d+)\}$")
_X_DRIVE_ROWS = frozenset({"S+_{0,0}", "S-_{0,0}", "alpha_m*S-_{0,0}"})


class TruthTable:
    """Truth lookup for the rows of one campaign's report."""

    def __init__(self, campaign):
        backend = campaign.backend
        if campaign.backend_kind == "trajectory":
            bath = backend.bath_config
            self.spectra = target_spectra(backend.dsa_config, bath.lag_gamma, bath.variant)
        else:
            self.spectra = backend.spectra
        self.device = campaign.device
        self.alpha_m = campaign.spam.alpha_m
        self.protocol = campaign.protocol

    def __call__(self, row: dict) -> float:
        comp = row["component"]
        if comp in ("A", "B") or (self.protocol in (1, 2) and comp in _X_DRIVE_ROWS):
            rates = compute_AB(self.spectra, row["omega_rad_per_us"], self.device)
            return {
                "A": rates.a_rate,
                "S+_{0,0}": rates.a_rate,
                "B": rates.b_rate,
                "S-_{0,0}": rates.b_rate,
                "alpha_m*S-_{0,0}": self.alpha_m * rates.b_rate,
            }[comp]
        match = _SPECTRUM.match(comp)
        if match is None:
            raise KeyError(f"no truth rule for report component {comp!r}")
        sign, a, b = match.group(1), int(match.group(2)), int(match.group(3))
        fn = {"+": self.spectra.s_plus, "-": self.spectra.s_minus, "": self.spectra.value}[sign]
        return complex(fn(a, b, row["freq_rad_per_us"])).real

    def is_direct_rate(self, row: dict) -> bool:
        return row["method"] in ROBUST_METHODS and row["component"] in DIRECT_RATES.get(self.protocol, ())


def direct_rate_errors(report: dict, truth: TruthTable) -> list[float]:
    """Relative errors of every directly fitted classical rate in a report."""
    pairs = [(row["value"], truth(row)) for row in report["estimates"] if truth.is_direct_rate(row)]
    return [abs(value - true) / abs(true) for value, true in pairs]


def quality(report: dict, truth: TruthTable) -> dict:
    """Failure share, 95 % coverage gap and median rate error of a report.

    Raises ``ValueError`` when the report holds no robust estimate to judge.
    """
    robust = [row for row in report["estimates"] if row["method"] in ROBUST_METHODS]
    errors = direct_rate_errors(report, truth)
    if not robust or not errors:
        raise ValueError("report has no robust estimates to compare with the truth")
    covered = sum(
        SpectralEstimate(
            row["component"], row["freq_label"], row["freq_rad_per_us"],
            row["value"], row["std_error"], Method(row["method"]),
        ).covers(truth(row))
        for row in robust
    )
    return {
        "fail_share": len(report["failures"]) / len(report["frequencies_rad_per_us"]),
        "coverage95_gap": abs(covered / len(robust) - COVERAGE_TARGET),
        "rate_rel_err_p50": statistics.median(errors),
    }
