"""The grid estimators: stacked kernels against one-at-a-time references,
and every frequency's outcome, message and warning in plan order.

The stacked regression and the stacked delta-method inversion must give the
references' bits (``tests/oracles.py``), row by row.  A hand-made protocol 4
dataset drives the failure paths that the benchmark campaigns never reach;
its outcomes, messages and warnings were recorded with the per-frequency
estimators that the grid estimators replaced.  Hand-made protocol 2
datasets hold protocol 2's grid estimator and its nonlinear grid call to the
per-frequency chain of ``tests/oracles.py``: bit for bit, except the
nonlinear fits, which must agree with scipy's within 1e-5 std errors, and
which must keep their bits when fitted one frequency at a time.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slqns import estimation
from slqns.estimation import (
    EstimationError,
    EstimatorResult,
    LinearizationGuardError,
    RegressionResult,
    SpectralEstimate,
    _floor_error,
    _gap_error,
    _linreg_stack,
    _multi_axis_rates,
    _propagate,
    _single_axis_rates,
    estimate_single_axis_standard,
    invert_multi_axis,
    robust_multi_axis,
    robust_single_axis_linearized,
    robust_single_axis_nonlinear,
    weighted_linreg,
)
from slqns.harness import build_campaign, run_campaign
from slqns.protocols import run_plan
from slqns.spam import DRIVE_AXES, INITS, OBSERVABLES, PAIRS, MeasurementKey, ShotColumns, ShotDataset

from oracles import (
    multi_axis_inversion,
    propagate_reference,
    robust_single_axis_reference,
    single_axis_inversion,
    weighted_linreg_reference,
)
from test_fixed_seed_outputs import PHYSICS, TIMES_US
from test_harness import CLOSED_FORM_P2, CLOSED_FORM_P4
from test_recovery import BASE, SPAM


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def line_stacks(draw):
    """(x, y, sigma or None) of a stack of k lines of n points, each row with its own x."""
    k, n = draw(st.integers(1, 5)), draw(st.integers(3, 9))
    value = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
    x = [draw(st.lists(value, min_size=n, max_size=n, unique=True)) for _ in range(k)]
    y = [draw(st.lists(value, min_size=n, max_size=n)) for _ in range(k)]
    sigma = None
    if draw(st.booleans()):
        sigma = [draw(st.lists(st.floats(1e-3, 10.0), min_size=n, max_size=n)) for _ in range(k)]
    return np.array(x), np.array(y), None if sigma is None else np.array(sigma)


@settings(max_examples=150, deadline=None)
@given(line_stacks())
# sum x^2 underflows to 0: the normal matrix inverts to +-inf, and the fit scales it by 0
@example((np.array([[0.0, 1.09e-193, 2.92e-305]]), np.zeros((1, 3)), None))
def test_stacked_regression_rows_equal_one_line_fits_bit_for_bit(stack):
    x, y, sigma = stack
    lines = _linreg_stack(x, y, sigma)
    for row in range(len(x)):
        row_sigma = None if sigma is None else sigma[row]
        reference = weighted_linreg_reference(x[row], y[row], row_sigma)
        for fit in (lines.result(row), weighted_linreg(x[row], y[row], row_sigma)):
            assert same_bits(fit.slope, reference.slope)
            assert same_bits(fit.intercept, reference.intercept)
            assert same_bits(fit.covariance, reference.covariance)
            assert same_bits(fit.residuals, reference.residuals)
            assert same_bits(fit.weights, reference.weights)


def test_a_failing_row_fails_alone_with_the_one_line_message():
    x = np.array([[1.0, 2.0, 3.0], [2.0, 2.0, 2.0], [1.0, 2.0, 4.0]])
    y = np.array([[1.0, 2.0, 2.5], [1.0, 2.0, 3.0], [0.5, 1.0, 3.0]])
    sigma = np.array([[0.1, 0.2, 0.3], [0.1, 0.1, 0.1], [0.1, -0.1, 0.1]])
    lines = _linreg_stack(x, y, sigma)
    for row, message in ((1, "2 distinct x values"), (2, "std errors must be > 0")):
        with pytest.raises(EstimationError, match=message):
            lines.result(row)
        with pytest.raises(EstimationError, match=message):
            weighted_linreg_reference(x[row], y[row], sigma[row])
    reference = weighted_linreg_reference(x[0], y[0], sigma[0])
    assert same_bits(lines.result(0).covariance, reference.covariance)


@pytest.mark.parametrize("x, y", [
    ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
    ([[1.0, 2.0, 3.0]], [[1.0, 2.0]]),
    ([[1.0], [2.0]], [[1.0], [2.0]]),
], ids=["one-line", "unequal-lengths", "one-point"])
def test_a_stack_of_the_wrong_shape_is_refused_whole(x, y):
    with pytest.raises(EstimationError) as error:
        _linreg_stack(x, y)
    assert str(error.value) == "stacked regression needs 2-D x and y of the same shape (k, n) with n >= 2"


def test_a_singular_row_fails_alone_and_the_others_keep_their_bits():
    # x one ulp apart passes the distinct-x check but makes the normal matrix singular
    close = [1.0, np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0)]
    x = np.array([[1.0, 2.0, 4.0], close, [0.5, 1.5, 3.0]])
    y = np.array([[1.0, 2.0, 2.5], [1.0, 2.0, 3.0], [0.5, 1.0, 3.0]])
    sigma = np.array([[0.1, 0.2, 0.3], [0.1, 0.1, 0.1], [0.2, 0.1, 0.3]])
    lines = _linreg_stack(x, y, sigma)
    for fit in (lambda: lines.result(1), lambda: weighted_linreg_reference(x[1], y[1], sigma[1])):
        with pytest.raises(EstimationError, match="degenerate design matrix"):
            fit()
    for row in (0, 2):
        fit, reference = lines.result(row), weighted_linreg_reference(x[row], y[row], sigma[row])
        for name in ("slope", "intercept", "covariance", "residuals", "weights"):
            assert same_bits(getattr(fit, name), getattr(reference, name)), name


# expectation gaps: mostly ordinary, some at or below the decoherence floor
# and some a bump away from it
GAP = st.one_of(
    st.floats(1e-3, 1.9),
    st.sampled_from([0.0, -0.004, 2e-7, 5e-7, 2.0, 2.0 + 1e-13]),
)


@st.composite
def inversion_grids(draw, pairs: int):
    """(inputs (r, 2 pairs), variances) of a grid of r frequencies."""
    r = draw(st.integers(1, 4))
    inputs, variances = [], []
    for _ in range(r):
        row = []
        for _ in range(pairs):
            gap = draw(GAP)
            minus = draw(st.floats(-1.0, 1.0 - gap)) if gap <= 2.0 else -1.0
            row += [minus + gap, minus]
        inputs.append(row)
        exact = draw(st.booleans())
        variances.append([0.0 if exact else draw(st.floats(1e-8, 1e-3)) for _ in range(2 * pairs)])
    return np.array(inputs), np.array(variances)


def assert_rows_equal(values, errs, failures, reference, error):
    """Each grid row against ``reference(row)``, which gives (values, errs) or
    raises the EstimationError that ``error(*failure)`` must repeat."""
    for row in range(len(values)):
        try:
            expected_values, expected_errs = reference(row)
        except EstimationError as exc:
            assert failures[row] is not None
            assert str(error(*failures[row])) == str(exc)
            continue
        assert failures[row] is None
        assert same_bits(values[row], expected_values)
        assert same_bits(errs[row], expected_errs)


@settings(max_examples=150, deadline=None)
@given(inversion_grids(pairs=4), st.floats(1.0, 20.0), st.lists(st.floats(1.0, 40.0), min_size=4, max_size=4),
       st.booleans())
def test_stacked_multi_axis_inversion_equals_one_frequency_at_a_time(grid, duration, aligned, with_aligned):
    inputs, variances = grid
    if not with_aligned:
        inputs, variances = inputs[:, :6], variances[:, :6]
    aligned = np.array(aligned[: len(inputs)])
    values, errs, failures = _propagate(
        lambda e: _multi_axis_rates(e, duration, aligned[:, None] if with_aligned else None), inputs, variances)

    def reference(row):
        f = multi_axis_inversion(duration, aligned[row] if with_aligned else None)
        return propagate_reference(f, inputs[row], variances[row])

    assert_rows_equal(values, errs, failures, reference, _floor_error)


@settings(max_examples=150, deadline=None)
@given(inversion_grids(pairs=1), st.floats(1.0, 20.0))
def test_stacked_single_axis_inversion_equals_one_frequency_at_a_time(grid, duration):
    inputs, variances = grid
    values, errs, failures = _propagate(lambda e: _single_axis_rates(e, duration), inputs, variances)

    def reference(row):
        return propagate_reference(single_axis_inversion(duration), inputs[row], variances[row])

    assert_rows_equal(values, errs, failures, reference, lambda e, check: _gap_error(e[0] - e[1]))


def test_stacked_inversions_equal_references_on_a_seeded_grid():
    # numpy's log differs from math.log in about 9 of 20,000 values: a few
    # thousand inversions meet some of them
    rng = np.random.default_rng(2024)
    for pairs, rows in ((4, 300), (1, 2000)):
        minus = rng.uniform(-0.9, 0.1, (rows, pairs))
        inputs = np.stack((minus + rng.uniform(1e-3, 0.9, (rows, pairs)), minus), axis=-1).reshape(rows, -1)
        variances = rng.uniform(1e-6, 1e-3, inputs.shape)
        duration, aligned = 12.0, rng.uniform(5.0, 40.0, rows)
        if pairs == 4:
            grid = _propagate(lambda e: _multi_axis_rates(e, duration, aligned[:, None]), inputs, variances)
            error = _floor_error

            def reference(row):
                return propagate_reference(multi_axis_inversion(duration, aligned[row]), inputs[row], variances[row])
        else:
            grid = _propagate(lambda e: _single_axis_rates(e, duration), inputs, variances)

            def error(e, check):
                return _gap_error(e[0] - e[1])

            def reference(row):
                return propagate_reference(single_axis_inversion(duration), inputs[row], variances[row])
        assert_rows_equal(*grid, reference, error)


# the 256-frequency protocol 4 sweep of the benchmark at seed 2, in shot mode:
# its digests were recorded with the per-frequency estimators.  At this seed,
# squares taken as x * x instead of libm pow change the output.
WIDE_P4 = dict(
    copy.deepcopy(PHYSICS), protocol=4, seed=2,
    backend={"type": "closed_form", "analytic": False},
    plan={"omegas_MHz": [1.0 + 39.0 * k / 255 for k in range(256)], "times_us": TIMES_US,
          "aligned_n": [20, 40, 60], "shots": 1000},
)
WIDE_P4_DIGESTS = {
    "report.json": "ddb7ce2bfc50a2f190573f9cc335655f4009e1981ccf738c3b57b9ec6bcc051c",
    "estimates.csv": "9797a2c90aa910b8acdc1f740c46abb3da718ac10ac8693e9a5bfd069b957755",
}


def test_the_wide_protocol4_sweep_keeps_the_per_frequency_bytes(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_campaign(WIDE_P4, out_dir=tmp_path)
    digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in WIDE_P4_DIGESTS}
    assert digests == WIDE_P4_DIGESTS


# ---------------------------------------------------------------------------
# outcomes, messages and warnings on a hand-made protocol 4 dataset
# ---------------------------------------------------------------------------

OMEGA_Q = 31227.0
OMEGAS = (10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0)
TIMES = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0)
ALIGNED_TIMES = (6.0, 12.0, 18.0)
SHOTS = 1000
FINE_SHOTS = 10**7


def pair_counts(rate, times, contrast=0.9, offset=0.02, n_shots=SHOTS):
    """n_plus of the two preparations of a decaying pair."""
    half = contrast * np.exp(-rate * np.asarray(times))
    return [np.rint(n_shots * (1.0 + offset + sign * half) / 2.0).astype(np.int64) for sign in (1, -1)]


def add_pair(dataset, drive, omega, inits, observable, times, counts, n_shots=SHOTS):
    for init, n_plus in zip(inits, counts):
        n = len(times)
        dataset.extend([DRIVE_AXES.index(drive)] * n, [omega] * n, [INITS.index(init)] * n,
                       [OBSERVABLES.index(observable)] * n, times, ShotColumns.from_counts(n_shots, n_plus))


def grid_dataset() -> ShotDataset:
    """Seven drive frequencies; all but the first have a defect:

    20: the x block keeps two times (and the zm and aligned gaps close at the
        longest time and the aligned time): the robust fit fails;
    30: the aligned block keeps one time of three: skipped with a warning;
    40: the zp contrast is half the others': the intercepts disagree;
    50: the zp gap at the longest time is one count of ten million shots,
        which only a bumped finite-difference input closes;
    60: two aligned times, both usable: skipped with a warning;
    70: the z- drive's z- preparation lacks the first time: the robust fit fails.
    """
    dataset = ShotDataset()
    for k, omega in enumerate(OMEGAS):
        zp = pair_counts(0.05 + 0.001 * k, TIMES, contrast=0.5 if omega == 40.0 else 0.9)
        zm = pair_counts(0.04, TIMES)
        x = pair_counts(0.08, TIMES)
        aligned = pair_counts(0.1, ALIGNED_TIMES)
        if omega == 20.0:
            x[1][[0, 1, 3, 4]] = x[0][[0, 1, 3, 4]]
            zm[1][-1] = zm[0][-1] + 3
            aligned[1][:] = aligned[0] + 1
        if omega == 30.0:
            aligned[1][1:] = aligned[0][1:]
        times = TIMES
        if omega == 50.0:
            fine = [np.array([FINE_SHOTS // 2 + 40]), np.array([FINE_SHOTS // 2 + 39])]
            add_pair(dataset, "z+", omega, ("z+", "z-"), "z", TIMES[-1:], fine, FINE_SHOTS)
            zp = [c[:-1] for c in zp]
            times = TIMES[:-1]
        aligned_times = ALIGNED_TIMES
        if omega == 60.0:
            aligned, aligned_times = [c[1:] for c in aligned], ALIGNED_TIMES[1:]
        add_pair(dataset, "z+", omega, ("z+", "z-"), "z", times, zp)
        if omega == 70.0:
            add_pair(dataset, "z-", omega, ("z+",), "z", TIMES, zm[:1])
            add_pair(dataset, "z-", omega, ("z-",), "z", TIMES[1:], [zm[1][1:]])
        else:
            add_pair(dataset, "z-", omega, ("z+", "z-"), "z", TIMES, zm)
        add_pair(dataset, "x", omega, ("x+", "x-"), "x", TIMES, x)
        add_pair(dataset, "z+", omega, ("x+", "x-"), "x", aligned_times, aligned)
    return dataset


def outcome_text(outcome) -> str:
    """An error as its type and message; a result as the SHA-256 of its numbers."""
    if isinstance(outcome, Exception):
        return f"{type(outcome).__name__}: {outcome}"
    text = repr((outcome.path, outcome.alpha, outcome.alpha_err, outcome.delta, outcome.delta_err,
                 [(e.component, e.freq_label, e.freq_value, e.value, e.std_error, e.method.value)
                  for e in outcome.estimates.values()]))
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


# recorded with the per-frequency estimators, one call per frequency
ROBUST = [
    "sha256:27aa39ab2520f00f3e85ba7a56ea3d7528b25699bef71964529ea7a815b13e39",
    "_TooFewPointsError: only 2 usable time points after dropping non-positive expectation gaps "
    "at T = [2.0, 4.0, 8.0, 10.0]",
    "sha256:e848531cb09efc5ac312fe16d8a87bad4e0b39cee3dde4fdb140cd229877a674",
    "sha256:db8cc3edea43766672207fe1f5c95da3697b058868606ea5aa9a93ef89f00e99",
    "sha256:40744b8b57ebbd57e879d1bed4c6679897786b89516c07304f12f4a9a04e76ac",
    "sha256:8709b611582ff381a05f79bf0428a195b66a0b162e52e181494927e666f6dd0f",
    "EstimationError: dataset lacks matching ('z+', 'z-') time series for drive z- at omega=70.0",
]
STANDARD = [
    "sha256:6433ef35a3df9e3f321a5897bc9f45589eca4424862063716cb9b556085212b5",
    "EstimationError: expectation gap for (zm_p,zm_m) is -0.006 <= 0: decoherence floor",
    "EstimationError: expectation gap for (c_p,c_m) is 0 <= 0: decoherence floor",
    "sha256:7ab35300af9862c46b4824c1c720cc3b5793e12629cc7eec73fec53ed395de20",
    "EstimationError: expectation gap for (zp_p,zp_m) is -8e-07 <= 0: decoherence floor",
    "sha256:61a9aced68fabd753dc894e34431e728ccc3b565bbe55b2b4ffa52a84404fb23",
    "sha256:979aad33f4ee7dfe2aa339abccd8315ae97b7a6fb1a5371bcf8d8fa795360394",
]
WARNINGS = [
    "skipping the aligned coherence block: 3 aligned times, only 1 usable time points after dropping "
    "non-positive expectation gaps at T = [12.0, 18.0] (fewer than 3); S_{0,0}(0) is not estimated",
    "SPAM intercepts disagree at z = 11.46 (> 3.0); the combined alpha estimate may be unreliable",
    "skipping the aligned coherence block: 2 aligned times, only 2 usable time points (fewer than 3); "
    "S_{0,0}(0) is not estimated",
]


def test_grid_estimators_give_the_recorded_outcomes_messages_and_warnings():
    dataset = grid_dataset()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        robust = robust_multi_axis(dataset, OMEGAS, OMEGA_Q).outcomes()
        standard = invert_multi_axis(dataset, OMEGAS, OMEGA_Q, max(TIMES), [ALIGNED_TIMES[-1]] * len(OMEGAS)).outcomes()
    assert [outcome_text(outcome) for outcome in robust] == ROBUST
    assert [outcome_text(outcome) for outcome in standard] == STANDARD
    assert [(w.category, str(w.message)) for w in caught] == [(UserWarning, text) for text in WARNINGS]


def test_an_aligned_block_whose_series_do_not_match_fails_its_frequency():
    # a short aligned block is skipped; unmatched aligned series fail the frequency
    dataset = ShotDataset()
    for omega in OMEGAS[:2]:
        for name in ("zp", "zm", "x"):
            drive, inits, observable = PAIRS[name]
            add_pair(dataset, drive, omega, inits, observable, TIMES, pair_counts(0.05, TIMES))
        counts = pair_counts(0.1, ALIGNED_TIMES)
        drive, (plus, minus), observable = PAIRS["c"]
        add_pair(dataset, drive, omega, (plus,), observable, ALIGNED_TIMES, counts[:1])
        # the second frequency's x- series lacks the last aligned time
        minus_times = ALIGNED_TIMES[:-1] if omega == OMEGAS[1] else ALIGNED_TIMES
        add_pair(dataset, drive, omega, (minus,), observable, minus_times, [counts[1][:len(minus_times)]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcomes = robust_multi_axis(dataset, OMEGAS[:2], OMEGA_Q).outcomes()
    # the matched aligned block gives the first frequency its S_{0,0}(0)
    assert isinstance(outcomes[0], EstimatorResult) and "S_{0,0}" in outcomes[0].estimates
    assert outcome_text(outcomes[1]) == (
        "EstimationError: dataset lacks matching ('x+', 'x-') time series for drive z+ at omega=20.0")


# ---------------------------------------------------------------------------
# protocol 2: the grid estimator against the per-frequency chain
# ---------------------------------------------------------------------------

P2_SHOTS = 10**5
# omega -> (decay rate, x+ times, x- times, indices of the x- points whose gap is closed)
P2_SERIES = {
    10.0: (0.002, TIMES, TIMES, ()),                 # the guard accepts
    20.0: (0.08, TIMES, TIMES, ()),                  # guarded: the nonlinear fit
    30.0: (0.08, TIMES, TIMES[1:], ()),              # the x- series lacks a time
    40.0: (0.08, TIMES, TIMES, (1, 4)),              # two gaps dropped, then guarded
    50.0: (0.08, TIMES, TIMES, (0, 2, 3, 5)),        # two usable times left
    60.0: (0.08, TIMES[:3], TIMES[:3], ()),          # guarded, three times: the nonlinear fit refuses
    70.0: (0.002, TIMES, TIMES, (2,)),               # one gap dropped, the guard accepts
    80.0: (0.03, TIMES, TIMES[:-1] + (13.0,), ()),   # as many x- times, one of them unmatched
    90.0: (0.05, TIMES, TIMES, ()),                  # guarded
}
P2_KINDS = ["linearized", "nonlinear", "EstimationError", "nonlinear", "_TooFewPointsError",
            "EstimationError", "linearized", "EstimationError", "nonlinear"]


def p2_dataset(analytic: bool) -> ShotDataset:
    """The two x-drive series of every P2_SERIES frequency, exact or as shot counts."""
    dataset = ShotDataset()
    for omega, (rate, plus_times, minus_times, closed) in P2_SERIES.items():
        for sign, init, times in ((1, "x+", plus_times), (-1, "x-", minus_times)):
            times = np.asarray(times)
            expectation = 0.02 + sign * 0.9 * np.exp(-rate * times)
            expectation[list(closed)] = 0.02 + 0.9 * np.exp(-rate * times[list(closed)])
            values = (ShotColumns.exact(expectation) if analytic else
                      ShotColumns.from_counts(P2_SHOTS, np.rint(P2_SHOTS * (1.0 + expectation) / 2.0)))
            n = times.size
            dataset.extend([DRIVE_AXES.index("x")] * n, [omega] * n, [INITS.index(init)] * n,
                           [OBSERVABLES.index("x")] * n, times, values)
    return dataset


def p2_grid_outcomes(dataset, omegas) -> list:
    """The grid estimator's outcomes, its guard errors replaced by the
    nonlinear grid call's outcomes, as the harness does."""
    table = robust_single_axis_linearized(dataset, omegas)
    assert any(isinstance(error, LinearizationGuardError) for error in table.errors)
    return robust_single_axis_nonlinear(table).outcomes()


def bits(value):
    """A nested outcome as comparable values, every float by its bytes."""
    if isinstance(value, Exception):
        return type(value).__name__, str(value)
    if isinstance(value, EstimatorResult):
        return bits((value.path, value.alpha, value.alpha_err, value.delta, value.delta_err,
                     value.estimates, value.diagnostics))
    if isinstance(value, RegressionResult):
        return bits((value.slope, value.intercept, value.covariance, value.residuals, value.weights))
    if isinstance(value, dict):
        return [(key, bits(item)) for key, item in value.items()]
    if isinstance(value, (tuple, list)):
        return [bits(item) for item in value]
    if isinstance(value, (str, int, type(None))):
        return value
    if isinstance(value, SpectralEstimate):
        return value.component, value.freq_label, value.method, bits((value.freq_value, value.value, value.std_error))
    array = np.asarray(value, dtype=float)
    return array.shape, array.tobytes()


@pytest.mark.parametrize("analytic", [False, True], ids=["shots", "analytic"])
def test_protocol2_grid_outcomes_equal_the_per_frequency_chain(analytic):
    dataset, omegas = p2_dataset(analytic), list(P2_SERIES)
    with warnings.catch_warnings(record=True) as grid_warnings:
        warnings.simplefilter("always")
        grid = p2_grid_outcomes(dataset, omegas)
    with warnings.catch_warnings(record=True) as reference_warnings:
        warnings.simplefilter("always")
        reference = [robust_single_axis_reference(dataset, omega) for omega in omegas]

    assert [getattr(outcome, "path", type(outcome).__name__) for outcome in reference] == P2_KINDS
    nonlinear = [getattr(outcome, "path", None) == "nonlinear" for outcome in reference]
    assert [bits(outcome) for outcome, fitted in zip(grid, nonlinear) if not fitted] == [
        bits(outcome) for outcome, fitted in zip(reference, nonlinear) if not fitted]
    for ours, theirs in itertools.compress(zip(grid, reference), nonlinear):
        assert_same_fit(ours, theirs, analytic)
    assert ([(w.category, str(w.message)) for w in grid_warnings]
            == [(w.category, str(w.message)) for w in reference_warnings])


def assert_same_fit(ours, reference, analytic):
    """The Gauss-Newton fit and scipy's reference fit agree within 1e-5 of the
    reference's std errors, and so do their std errors.  On exact data the
    std errors are round-off, and both fits must agree to 1e-12 instead."""
    assert (ours.path, list(ours.estimates), ours.iterations > 0) == ("nonlinear", ["S+_{0,0}", "S-_{0,0}"], True)
    pairs = [(ours[c].value, reference[c].value, ours[c].std_error, reference[c].std_error)
             for c in ("S+_{0,0}", "S-_{0,0}")]
    pairs += [(ours.alpha, reference.alpha, ours.alpha_err, reference.alpha_err),
              (ours.delta, reference.delta, ours.delta_err, reference.delta_err)]
    for value, ref_value, err, ref_err in pairs:
        floor = 1e-12 if analytic else 0.0
        assert abs(value - ref_value) <= 1e-5 * ref_err + floor, (value, ref_value, ref_err)
        assert abs(err - ref_err) <= 1e-5 * ref_err + floor, (err, ref_err)


@pytest.mark.parametrize("analytic", [False, True], ids=["shots", "analytic"])
def test_a_guarded_frequency_fitted_alone_keeps_its_bits(analytic):
    # a frequency stops at its own convergence, so the other frequencies of
    # its stacked solve leave its bits alone
    for dataset, omegas in [(p2_dataset(analytic), list(P2_SERIES)), p2_campaign_dataset(analytic)]:
        grid = p2_grid_outcomes(dataset, omegas)
        paths = [getattr(outcome, "path", None) for outcome in grid]
        assert paths.count("nonlinear") >= 3
        for omega, outcome in zip(omegas, grid):
            if isinstance(outcome, EstimatorResult) and outcome.path == "linearized":
                continue
            table = robust_single_axis_linearized(dataset, [omega])
            if isinstance(table.errors[0], LinearizationGuardError):
                table = robust_single_axis_nonlinear(table)
            assert bits(table.outcomes()[0]) == bits(outcome), omega


@pytest.mark.parametrize("fault, message", [
    ("one-step", "non-linear fit did not converge in 1 steps"),
    ("infinite-step", "non-linear fit diverged: non-finite parameters after 1 steps"),
    ("singular", "singular covariance in non-linear fit"),
])
def test_a_failed_nonlinear_fit_fails_each_guarded_frequency_with_its_cause(monkeypatch, fault, message):
    table = robust_single_axis_linearized(p2_dataset(False), list(P2_SERIES))
    if fault == "one-step":
        monkeypatch.setattr(estimation, "MAX_ITERATIONS", 1)
    else:
        # a Gauss-Newton step solves for one column, the covariance for four
        columns, fill = (1, np.inf) if fault == "infinite-step" else (4, np.nan)
        solve = estimation._solve_rows

        def faulty(a, b):
            out = solve(a, b)
            return np.full_like(out, fill) if b.shape[-1] == columns else out

        monkeypatch.setattr(estimation, "_solve_rows", faulty)
    outcomes = robust_single_axis_nonlinear(table).outcomes()
    kinds = [type(outcome).__name__ if isinstance(outcome, Exception) else outcome.path for outcome in outcomes]
    assert kinds == [kind.replace("nonlinear", "EstimationError") for kind in P2_KINDS]
    guarded = [outcome for outcome, kind in zip(outcomes, P2_KINDS) if kind == "nonlinear"]
    assert [str(outcome) for outcome in guarded] == [message] * 3


def p2_campaign_dataset(analytic: bool):
    """A 16-drive protocol 2 campaign's dataset and drives, every one guarded."""
    omegas = np.linspace(1.0, 40.0, 16).tolist()
    config = dict(BASE, protocol=2, spam=SPAM, plan={"omegas_MHz": omegas, "times_us": TIMES_US, "shots": 1000},
                  backend={"type": "closed_form", "analytic": analytic})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_campaign(config, seed=5)
    return result.dataset, result.report["frequencies_rad_per_us"]


def test_protocol2_makes_as_many_stacked_fits_at_16_frequencies_as_at_2(monkeypatch):
    counted = []
    stack = estimation._linreg_stack

    def counting(*args, **kwargs):
        counted.append(len(args[0]))
        return stack(*args, **kwargs)

    monkeypatch.setattr(estimation, "_linreg_stack", counting)
    calls = {}
    for n in (2, 16):
        omegas = [10.0 + 30.0 * k / (n - 1) for k in range(n)]
        config = dict(BASE, protocol=2, spam=SPAM, plan={"omegas_MHz": omegas, "times_us": TIMES_US, "shots": 1000})
        counted.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = run_campaign(config).report
        assert {row["path"] for row in report["spam_per_frequency"]} == {"nonlinear"}
        assert sum(counted) == 2 * n  # every frequency's classical and quantum lines
        calls[n] = len(counted)
    assert calls[2] == calls[16]


def without_points(dataset: ShotDataset, omega: float, time: float, aligned_time: float) -> ShotDataset:
    """``dataset`` less every point at ``omega`` and ``time``, and less its
    aligned pair (z+ drive, x observable) at ``aligned_time``."""
    aligned = ((dataset.column("drive") == DRIVE_AXES.index("z+"))
               & (dataset.column("observable") == OBSERVABLES.index("x")))
    times = dataset.column("time")
    drop = (dataset.column("omega") == omega) & ((times == time) | (aligned & (times == aligned_time)))
    keep = np.flatnonzero(~drop)
    out = ShotDataset()
    out.extend(*(dataset.column(name)[keep] for name in ("drive", "omega", "init", "observable", "time")),
               dataset.take(keep))
    return out


@pytest.mark.parametrize("protocol", [2, 4])
def test_a_frequency_that_lacks_its_longest_time_fails_alone_in_every_grid_estimator(protocol):
    # one outcome per frequency: the standard inversion of the lacking
    # frequency names the missing point, and every other frequency keeps the
    # bits it has on the full dataset
    campaign = build_campaign(CLOSED_FORM_P2 if protocol == 2 else CLOSED_FORM_P4)
    plan, omega_q = campaign.plan, campaign.device.omega_q
    omegas, t_max, lacking = list(plan.omegas), max(plan.times), 1
    if protocol == 2:
        aligned = None
        robust, standard = p2_grid_outcomes, lambda d, w: estimate_single_axis_standard(d, w, t_max).outcomes()
        missing = MeasurementKey("x", omegas[lacking], "x+", "x", t_max)
    else:
        aligned = plan.aligned_times(omegas)[:, -1]
        robust, standard = (lambda d, w: robust_multi_axis(d, w, omega_q).outcomes(),
                            lambda d, w: invert_multi_axis(d, w, omega_q, t_max, aligned).outcomes())
        missing = MeasurementKey("z+", omegas[lacking], "z+", "z", t_max)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 1 MHz strains the secular description
        full = run_plan(campaign.backend, plan)
    dataset = without_points(full, omegas[lacking], t_max, np.nan if aligned is None else aligned[lacking])
    assert len(dataset) < len(full)
    for estimator in (robust, standard):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reference, outcomes = estimator(full, omegas), estimator(dataset, omegas)
        assert len(outcomes) == len(omegas)
        assert [bits(outcome) for i, outcome in enumerate(outcomes) if i != lacking] == [
            bits(outcome) for i, outcome in enumerate(reference) if i != lacking]
    # the last outcomes are the standard inversion's
    assert isinstance(outcomes[lacking], EstimationError)
    assert str(outcomes[lacking]) == f"dataset lacks {missing}"
    # the lacking frequency's robust series is a time short of the others':
    # padded to the grid's length, it keeps the bits it has alone
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ragged, alone = robust(dataset, omegas)[lacking], robust(dataset, omegas[lacking:lacking + 1])[0]
    assert not isinstance(ragged, EstimationError)
    assert bits(ragged) == bits(alone)


def test_every_grid_estimator_fails_each_frequency_of_an_empty_dataset_alone():
    omegas, omega_q, empty = [62.8, 125.6], 31_000.0, ShotDataset()
    for outcomes in (robust_single_axis_linearized(empty, omegas).outcomes(),
                     estimate_single_axis_standard(empty, omegas, 2.0).outcomes(),
                     robust_multi_axis(empty, omegas, omega_q).outcomes(),
                     invert_multi_axis(empty, omegas, omega_q, 2.0, [2.0, 4.0]).outcomes()):
        assert len(outcomes) == len(omegas)
        assert all(isinstance(outcome, EstimationError) for outcome in outcomes)
    assert [str(outcome) for outcome in estimate_single_axis_standard(empty, omegas, 2.0).outcomes()] == [
        f"dataset lacks {MeasurementKey('x', omega, 'x+', 'x', 2.0)}" for omega in omegas]
