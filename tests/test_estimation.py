"""Estimator input checks, the messages of their refusals, and which
refusals fail a frequency."""

from __future__ import annotations

import copy
import gc
import math
import warnings
import weakref

import numpy as np
import pytest

from slqns import estimation, harness
from slqns.dynamics import frame_aligned_times
from slqns.estimation import (
    EstimateTable,
    EstimationError,
    EstimatorResult,
    LinearizationGuardError,
    Method,
    SpectralEstimate,
    invert_multi_axis,
    single_axis_forward,
)
from slqns.harness import run_campaign
from test_harness import CLOSED_FORM_P2, CLOSED_FORM_P4
from test_recovery import BASE, CASES, DEVICE, SERIES_US, SPAM, analytic_report


@pytest.mark.parametrize("value, std_error", [
    pytest.param(0.1, math.nan, id="nan"),
    pytest.param(0.1, math.inf, id="inf"),
    pytest.param(0.1, -1.0, id="-1.0"),
    pytest.param(math.nan, 0.1, id="value-nan"),
    pytest.param(math.inf, 0.1, id="value-inf"),
    pytest.param(-math.inf, 0.1, id="value--inf"),
])
def test_spectral_estimate_rejects_invalid_std_error(value, std_error):
    with pytest.raises(EstimationError):
        SpectralEstimate("S+_{0,0}", "Omega", 1.0, value, std_error, Method.STANDARD)


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
def test_a_failed_standard_inversion_fails_only_protocols_without_a_robust_step(monkeypatch, tmp_path, name):
    protocol, with_spam, plan, *_ = CASES[name]
    full = analytic_report(protocol, plan, with_spam=with_spam)

    def refuse(dataset, omegas, *args):
        empty = np.empty((len(omegas), 0))
        return EstimateTable(omegas, [EstimationError("standard inversion refused")] * len(omegas),
                             Method.STANDARD, "standard", (), empty, empty)

    monkeypatch.setattr(harness, "estimate_single_axis_standard", refuse)
    monkeypatch.setattr(harness, "invert_multi_axis", refuse)
    report = analytic_report(protocol, plan, with_spam=with_spam, out_dir=tmp_path)
    log = (tmp_path / "run.log").read_text().splitlines()

    assert any(row["method"] == "standard" for row in full["estimates"])
    assert full["standard_dropped"] == {}
    if protocol in (1, 3):
        assert report["estimates"] == []
        assert list(report["failures"].values()) == ["standard inversion refused"] * len(plan["omegas_MHz"])
        assert report["standard_dropped"] == {}
        assert not any(line.startswith("DROPPED") for line in log)
    else:
        assert report["failures"] == {}
        assert report["estimates"] == [row for row in full["estimates"] if row["method"] != "standard"]
        assert report["spam_per_frequency"] == full["spam_per_frequency"]
        assert report["standard_dropped"] == {
            repr(omega): "standard inversion refused" for omega in report["frequencies_rad_per_us"]
        }
        assert len(report["standard_dropped"]) == len(plan["omegas_MHz"])
        for omega in report["frequencies_rad_per_us"]:
            assert f"DROPPED standard omega={omega!r}: standard inversion refused" in log


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
        (expected,) = invert_multi_axis(result.dataset, [omega], DEVICE.omega_q, max(times), [aligned_t]).outcomes()
        assert value == expected["S_{0,0}"].value


DIAGNOSTICS = {
    "standard": set(),
    "linearized": {"guard_value", "dropped_times", "fits"},
    "nonlinear": {"covariance", "iterations"},
    "multi_axis": {"fits", "dropped_times", "intercept_max_z", "intercepts_consistent"},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_estimator_returns_one_result_type_that_the_report_copies(monkeypatch, name):
    protocol, with_spam, plan, _, spam_path, _ = CASES[name]
    results = []

    def capture(fn):
        # a guard error of protocol 2's grid call is not an outcome: the
        # nonlinear fit at that frequency gives it
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            results.extend(r for r in (result.outcomes() if isinstance(result, EstimateTable) else [result])
                           if not isinstance(r, LinearizationGuardError))
            return result
        return wrapper

    for fn in ("estimate_single_axis_standard", "invert_multi_axis", "robust_multi_axis",
               "robust_single_axis_linearized", "robust_single_axis_nonlinear"):
        monkeypatch.setattr(harness, fn, capture(getattr(harness, fn)))
    report = analytic_report(protocol, plan, with_spam=with_spam)
    # the grid calls return every robust result, then every standard one: per frequency, robust then standard
    n = len(plan["omegas_MHz"])
    results = [result for i in range(n) for result in results[i::n]]

    assert all(type(result) is EstimatorResult for result in results)
    robust = [result for result in results if result.path != "standard"]
    assert [result.path for result in robust] == [spam_path] * len(robust)
    assert len(results) == len(plan["omegas_MHz"]) * (2 if robust else 1)
    for result in results:
        assert set(result.diagnostics) == DIAGNOSTICS[result.path]
        spam = (result.alpha, result.alpha_err, result.delta, result.delta_err)
        assert (None in spam) == (result.path == "standard")
        if result.path == "nonlinear":
            assert result.iterations == result.diagnostics["iterations"] > 0
    rows = [(est.component, est.method.value, est.value)
            for result in results for est in result.estimates.values()]
    assert rows == [(row["component"], row["method"], row["value"]) for row in report["estimates"]]
    assert report["spam_per_frequency"] == [
        dict({"omega_rad_per_us": omega, "alpha_m": result.alpha, "alpha_m_std_error": result.alpha_err,
              "delta": result.delta, "delta_std_error": result.delta_err, "path": result.path},
             **({"intercepts_consistent": True} if protocol == 4 else {}))
        for omega, result in zip(report["frequencies_rad_per_us"], robust)
    ]


def test_single_axis_forward_broadcasts_over_columns_of_parameters():
    times = np.array(SERIES_US)
    s_plus = np.array([0.2, 0.0, 0.05, -0.0, 0.3, 0.0, 0.01, 0.12])
    s_minus = np.array([0.03, -0.02, -0.04, 0.05, 0.0, 0.01, -0.001, 0.02])
    alpha_m = np.array([0.95, 0.9, 1.0, 0.8, 0.99, 0.0, 0.93, 0.97])
    delta = np.array([0.01, 0.0, 0.02, 0.05, 1.0, 0.03, 0.0, 0.005])
    signs = np.array([+1, -1] * 4)
    columns = single_axis_forward(s_plus[:, None], s_minus[:, None], times, signs[:, None],
                                  alpha_m=alpha_m[:, None], delta=delta[:, None])
    scalar = [
        single_axis_forward(float(sp), float(sm), times, int(sign), alpha_m=float(a), delta=float(d))
        for sp, sm, sign, a, d in zip(s_plus, s_minus, signs, alpha_m, delta)
    ]
    assert columns.shape == (8, times.size)
    assert np.array_equal(columns, np.array(scalar))
    # at S+ = 0 there is no decay and the drift is S- T
    zero = s_plus == 0.0
    limit = alpha_m[zero, None] * (signs[zero, None] + s_minus[zero, None] * times) + delta[zero, None]
    assert np.array_equal(columns[zero], limit)


@pytest.mark.parametrize("analytic", [False, True], ids=["shots", "analytic"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_nonlinear_fits_jacobian_is_the_derivative_of_its_residuals(seed, analytic):
    # the analytic Jacobian against central differences of the residuals, at
    # each guarded frequency's starting point and at its solution
    _, _, plan, *_ = CASES["p2-nonlinear"]
    config = dict(BASE, protocol=2, spam=SPAM, plan=dict(plan, shots=1000),
                  backend={"type": "closed_form", "analytic": analytic})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dataset = run_campaign(config, seed=seed).dataset
    table = estimation.robust_single_axis_linearized(dataset, sorted(set(dataset.column("omega").tolist())))
    start = np.stack([table.value[:, 0], table.value[:, 1] / table.spam[:, 0], table.spam[:, 0], table.spam[:, 2]], 1)
    table = estimation.robust_single_axis_nonlinear(table)
    assert table.path == ["nonlinear"] * len(start) and not any(table.errors)
    solution = np.stack([table.value[:, 0], table.value[:, 2], table.spam[:, 0], table.spam[:, 2]], 1)
    block = table.block
    times = block.times[:, None, :]
    y = np.swapaxes(block.expectation, 0, 1)
    sigma = np.ones_like(y) if analytic else np.sqrt(np.swapaxes(block.variance, 0, 1))
    assert block.valid.all() and block.exact.all() == analytic
    for theta in (start, solution):
        _, jacobian = estimation._residuals_and_jacobian(theta, times, y, sigma)
        h = 1e-6 * np.maximum(np.abs(theta), 1.0)
        for j in range(4):
            up, down = theta.copy(), theta.copy()
            up[:, j] += h[:, j]
            down[:, j] -= h[:, j]
            difference = (estimation._residuals_and_jacobian(up, times, y, sigma)[0]
                          - estimation._residuals_and_jacobian(down, times, y, sigma)[0]) / (2.0 * h[:, j, None])
            scale = np.abs(jacobian[..., j]).max(axis=1, keepdims=True)
            error = np.abs(jacobian[..., j] - difference) / scale
            assert error.max() <= 1e-7, (j, error.max())


@pytest.mark.parametrize("protocol", [2, 4])
def test_a_failed_frequency_keeps_no_reference_to_the_dataset(protocol):
    # a failure is stored as a value: the error of a nonlinear fit without
    # the traceback whose frames hold the dataset, so reference counting
    # alone frees the dataset once the result goes
    config = copy.deepcopy(CLOSED_FORM_P2 if protocol == 2 else CLOSED_FORM_P4)
    config["plan"].update(omegas_MHz=[1.0, 14.0], times_us=[30.0, 60.0, 90.0])
    gc.collect()
    gc.disable()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = run_campaign(config, seed=1)
        assert len(result.failures) == 2
        dataset = weakref.ref(result.dataset)
        del result
        assert dataset() is None
    finally:
        gc.enable()


def test_a_table_fails_a_frequency_at_its_first_invalid_estimate_as_spectral_estimate_does():
    components = ("S+_{0,0}", "S-_{0,0}", "A")
    value = np.array([[0.1, np.nan, 0.2], [0.1, 0.2, np.inf], [0.1, 0.2, 0.3], [np.nan, 0.2, 0.3]])
    std_error = np.array([[0.01, 0.01, -1.0], [-0.5, 0.01, 0.01], [0.01, 0.0, 0.01], [0.01, 0.01, 0.01]])
    present = [True, True, False]
    earlier = EstimationError("failed before its estimates")
    table = EstimateTable([1.0, 2.0, 3.0, 4.0], [None, None, None, earlier], Method.STANDARD, "standard",
                          components, value, std_error, present=present)

    def scalar(i):
        try:
            for component, v, e in zip(np.array(components)[present], value[i][present], std_error[i][present]):
                SpectralEstimate(component, "Omega", 1.0, v, e, Method.STANDARD)
        except EstimationError as exc:
            return str(exc)
        return None

    assert [None if error is None else str(error) for error in table.errors] == [
        scalar(0), scalar(1), None, "failed before its estimates"]
    assert scalar(0) == "invalid estimate S-_{0,0}: nan +- 0.01"
    assert scalar(1) == "invalid estimate S+_{0,0}: 0.1 +- -0.5"
    outcomes = table.outcomes()
    assert outcomes[3] is earlier
    assert [(est.component, est.value, est.std_error) for est in outcomes[2].estimates.values()] == [
        ("S+_{0,0}", 0.1, 0.01), ("S-_{0,0}", 0.2, 0.0)]
