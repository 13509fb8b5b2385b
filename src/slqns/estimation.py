"""Spectral and SPAM-parameter estimators.

Closed-form inversions, weighted linear regression, a bounded non-linear
least-squares fit (``scipy.optimize.least_squares``, given scipy's two-point
Jacobian in one array call), and first-order (delta-method) uncertainty
propagation.  ``least_squares`` is imported inside
:func:`robust_single_axis_nonlinear`, its only caller, so that campaigns which
never run the nonlinear fit (protocols 1, 3 and 4, and protocol 2 where the
linearization guard accepts every frequency) never import
``scipy.optimize``, about half a second of start-up.  It is the only scipy
that ``slqns`` uses: protocol 2 is the one campaign that loads scipy.

The regression identities behind a drive of amplitude ``W`` are, with
``d(T) = e+ - e-`` and ``m(T) = (e+ + e-)/2`` the measured differences and
means over the two preparations and ``alpha = alpha_sp * alpha_m``::

    x drive:            ln[2/d] = A(W) T - ln(alpha)
    z drives:     (1/2) ln[2/d] = S+ T - (1/2) ln(alpha)
    z drive, x states:  ln[2/d] = [2 S00(0) + S+[1,-1](W+wq)] T - ln(alpha)

    x drive:   m = alpha_m (B/A) (1 - e^{-A T}) + delta
    +z drive:  m = alpha_m (S-[-1,1](-W-wq)/S+) (e^{-2 S+ T} - 1) + delta
    -z drive:  m = alpha_m (S-[1,-1](-W+wq)/S+) (1 - e^{-2 S+ T}) + delta

so classical spectra and alpha come out of straight-line fits, while the
quantum spectra are identifiable only as alpha_m-scaled products unless
alpha is approximately alpha_m (negligible preparation errors).

Grid estimators.  :func:`robust_multi_axis`, :func:`invert_multi_axis`,
:func:`estimate_single_axis_standard` and :func:`robust_single_axis_linearized`
take a whole drive-frequency grid and return one :class:`EstimateTable`: every
frequency's estimates as (frequencies, components) arrays, with its path, its
SPAM parameters (robust estimators only) and the :class:`EstimationError`
that fails it, if any, such as a point the dataset lacks there.  A failure is
a value: it leaves the other frequencies standing, and no grid call raises.
``table.outcomes()`` rebuilds one :class:`EstimatorResult` per frequency, with
the diagnostics the estimator computed on the way.  The numerics run once
over the grid: every straight-line fit of a pair block is one row of a
stacked regression (:func:`_linreg_stack`, whose one-row case is
:func:`weighted_linreg`), :func:`robust_multi_axis` combines the fits in
arrays (a failed frequency's entries are never read), and the delta-method
inversions evaluate every central and bumped input in one array pass
(:func:`_propagate`).  Data whose std errors are all 0 are exact: fitted
unweighted.  Warnings are emitted afterwards, in grid order.  Where protocol
2's guard rejects a frequency, its table holds a
:class:`LinearizationGuardError`, whose payload
:func:`robust_single_axis_nonlinear`, scipy's solver at one frequency, takes.

The outputs keep the bits of a scalar evaluation, one frequency at a time: a
stacked matrix product or solve runs the same BLAS/LAPACK call on each
matrix, and where a scalar formula used ``math.log``, ``math.exp`` or a
Python ``float ** 2`` (libm ``pow``), the array form calls the same libm
function elementwise (``_log``, ``dynamics._exp``, ``spam._squared``):
numpy's vectorised ``log`` and ``square`` differ from them in the last bit
for a few values in ten thousand.
"""

from __future__ import annotations

import enum
import math
import warnings
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dynamics import _decay_weight, _exp
from .spam import MeasurementKey, ShotDataset, _squared, expectation_std_error

__all__ = [
    "EstimationError",
    "LinearizationGuardError",
    "Method",
    "SpectralEstimate",
    "RegressionResult",
    "estimate_single_axis_standard",
    "robust_single_axis_linearized",
    "robust_single_axis_nonlinear",
    "invert_multi_axis",
    "robust_multi_axis",
    "single_axis_forward",
    "EstimatorResult",
    "EstimateTable",
]

Z_95 = 1.959963984540054  # two-sided 95 % normal quantile


class EstimationError(RuntimeError):
    """Estimator could not produce a value from the given data."""


class LinearizationGuardError(EstimationError):
    """Data violate the small-decay guard at one frequency; use the non-linear
    path.  ``start`` is the :class:`_NonlinearStart` of that frequency: the
    lines of the rejected linearized fit and the gathered series, all that
    the non-linear fit reads."""

    def __init__(self, message: str, start: _NonlinearStart):
        super().__init__(message)
        self.start = start


class Method(enum.Enum):
    STANDARD = "standard"
    ROBUST_LINEAR = "robust_linear"
    ROBUST_NONLINEAR = "robust_nonlinear"


@dataclass(frozen=True)
class SpectralEstimate:
    """One spherical-spectrum value at one frequency argument."""

    component: str    # e.g. "S+_{1,-1}"
    freq_label: str   # e.g. "Omega+omega_q"
    freq_value: float # rad/us
    value: float      # 1/us
    std_error: float  # 1/us
    method: Method

    def __post_init__(self):
        if not (math.isfinite(self.value) and math.isfinite(self.std_error) and self.std_error >= 0.0):
            raise _invalid_estimate(self.component, self.value, self.std_error)

    @property
    def ci95(self) -> tuple[float, float]:
        half = Z_95 * self.std_error
        return self.value - half, self.value + half

    def covers(self, truth: float) -> bool:
        lo, hi = self.ci95
        return lo <= truth <= hi


# component -> (frequency-argument label, a, b): the argument is a Omega + b omega_q
_COMPONENTS = {
    "S+_{1,-1}": ("Omega+omega_q", 1, 1),
    "S-_{-1,1}": ("-Omega-omega_q", -1, -1),
    "S+_{-1,1}": ("Omega-omega_q", 1, -1),
    "S-_{1,-1}": ("-Omega+omega_q", -1, 1),
    "S_{0,0}": ("0", 0, 0),
    "S+_{0,0}": ("Omega", 1, 0),
    "S-_{0,0}": ("Omega", 1, 0),
    "alpha_m*S-_{0,0}": ("Omega", 1, 0),
    "A": ("Omega", 1, 0),
    "B": ("Omega", 1, 0),
}


def _invalid_estimate(component: str, value, std_error) -> EstimationError:
    return EstimationError(f"invalid estimate {component}: {value} +- {std_error}")


def _estimates(method: Method, omega: float, rows, omega_q: float = 0.0) -> dict:
    """Ordered ``component -> SpectralEstimate`` from ``(component, value, std_error)``
    rows; ``omega_q`` enters only the sideband components of the multi-axis estimators."""
    estimates = {}
    for comp, value, err in rows:
        label, a, b = _COMPONENTS[comp]
        estimates[comp] = SpectralEstimate(comp, label, a * omega + b * omega_q, value, err, method)
    return estimates


_SPAM_FIELDS = ("alpha", "alpha_err", "delta", "delta_err")


class EstimateTable:
    """What a grid estimator returns: its outcome at every frequency, as columns.

    ``value`` and ``std_error`` are (frequencies, components) arrays over
    ``components``, read where ``present``; ``freq`` holds each entry's
    frequency argument ``a Omega + b omega_q`` (``_COMPONENTS``).  Per
    frequency: ``method``, ``path``, ``spam`` (alpha, alpha_err, delta,
    delta_err; None for the standard inversions), protocol 4's ``consistent``
    intercepts (else None) and ``errors``, the EstimationError that fails the
    frequency or None; a failed frequency's other columns are not read.  The
    first non-finite estimate or negative std error fails a frequency that
    nothing else fails.  :meth:`outcomes` rebuilds the results, with
    ``diagnostics(i)``.
    """

    def __init__(self, omegas, errors, method: Method, path: str, components, value, std_error, *,
                 omega_q=0.0, present=True, spam=None, consistent=None, diagnostics=lambda i: {}):
        self.omegas = np.asarray(omegas, dtype=float)
        self.components, self.value, self.std_error, self.omega_q = tuple(components), value, std_error, omega_q
        self.present = np.array(np.broadcast_to(present, value.shape))
        a, b = np.array([_COMPONENTS[c][1:] for c in components], dtype=float).reshape(-1, 2).T
        self.freq = a * self.omegas[:, None] + b * omega_q
        self.method, self.path = [method] * len(self.omegas), [path] * len(self.omegas)
        self.spam, self.consistent, self.diagnostics = spam, consistent, diagnostics
        self.errors, self._put = list(errors), {}
        with np.errstate(invalid="ignore"):
            invalid = self.present & ~(np.isfinite(self.value) & np.isfinite(self.std_error) & (self.std_error >= 0.0))
        for i, j in zip(*np.nonzero(invalid)):  # in row order, so a row keeps its first
            value, err = float(self.value[i, j]), float(self.std_error[i, j])
            self.errors[i] = self.errors[i] or _invalid_estimate(components[j], value, err)

    def put(self, i: int, outcome) -> None:
        """Make ``outcome``, an EstimatorResult over this table's components
        or an EstimationError, the outcome at frequency ``i``."""
        self._put[i] = outcome
        self.errors[i] = outcome if isinstance(outcome, EstimationError) else None
        if self.errors[i] is None:
            estimates = list(outcome.estimates.values())
            self.present[i] = [c in outcome.estimates for c in self.components]
            self.value[i, self.present[i]] = [est.value for est in estimates]
            self.std_error[i, self.present[i]] = [est.std_error for est in estimates]
            self.method[i], self.path[i] = estimates[0].method, outcome.path
            self.spam[i] = [getattr(outcome, name) for name in _SPAM_FIELDS]

    def outcomes(self) -> list:
        """Each frequency's EstimatorResult, or the EstimationError that fails
        it, in grid order.  The standard inversions' values are numpy scalars,
        as the rows of their propagated arrays were."""
        names, outcomes = np.array(self.components, dtype=object), []
        for i, omega in enumerate(self.omegas.tolist()):
            outcome, present = self._put.get(i, self.errors[i]), self.present[i]
            if outcome is None:
                values, errs = self.value[i, present], self.std_error[i, present]
                spam = {} if self.spam is None else dict(zip(_SPAM_FIELDS, self.spam[i].tolist()))
                rows = zip(names[present], *((values, errs) if self.spam is None else (values.tolist(), errs.tolist())))
                estimates = _estimates(self.method[i], omega, rows, self.omega_q)
                outcome = EstimatorResult(estimates, self.path[i], **spam, diagnostics=self.diagnostics(i))
            outcomes.append(outcome)
        return outcomes


@dataclass(frozen=True)
class EstimatorResult:
    """One frequency's outcome: what :func:`robust_single_axis_nonlinear`
    returns, and :meth:`EstimateTable.outcomes` rebuilds for a grid call.

    ``path`` is ``"standard"`` for the single-time inversions and
    ``"linearized"``, ``"nonlinear"`` or ``"multi_axis"`` for the robust
    estimators.  ``alpha`` is the combined ``alpha = alpha_sp * alpha_m``
    (the robust estimators cannot separate the two factors; the nonlinear
    model sets ``alpha = alpha_m``); it, ``delta`` and their std errors are
    None for the standard inversions.  ``diagnostics`` holds what the
    estimator computed on the way: ``guard_value``, ``dropped_times`` and
    ``fits`` (linearized), ``covariance`` over (S+, S-, alpha, delta) and
    ``nfev`` (nonlinear), ``fits``, ``dropped_times`` per block,
    ``intercept_max_z`` and ``intercepts_consistent`` (multi-axis).
    """

    estimates: dict  # component -> SpectralEstimate, in report order
    path: str
    alpha: float | None = None
    alpha_err: float | None = None
    delta: float | None = None
    delta_err: float | None = None
    diagnostics: dict = field(repr=False, default_factory=dict)

    def __getitem__(self, component: str) -> SpectralEstimate:
        return self.estimates[component]

    @property
    def iterations(self) -> int:
        """The nonlinear solver's ``nfev``: its residual evaluations.  Each
        of its Jacobians is one more array evaluation, not counted, of the
        residuals at the point and at its four forward-difference steps."""
        return self.diagnostics["nfev"]


# math.log elementwise: numpy's vectorised log is not bit-equal to it
_log = np.vectorize(math.log, otypes=[float])


def _squares(values) -> np.ndarray:
    """Python's ``float ** 2`` of every value, as a float array."""
    return _squared(values).astype(float)


def _nonnegative(values) -> np.ndarray:
    """``max(value, 0.0)`` of every value, NaN and -0.0 kept as Python's max keeps them."""
    return np.where(values < 0.0, 0.0, values)


# ---------------------------------------------------------------------------
# weighted linear regression
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegressionResult:
    slope: float
    intercept: float
    covariance: np.ndarray  # 2x2, ordered (slope, intercept)
    residuals: np.ndarray
    weights: np.ndarray

    @property
    def slope_err(self) -> float:
        return math.sqrt(max(self.covariance[0, 0], 0.0))

    @property
    def intercept_err(self) -> float:
        return math.sqrt(max(self.covariance[1, 1], 0.0))


class _Lines(NamedTuple):
    """Straight-line fits of the rows of a stack: arrays over the rows (NaN
    where a row failed) and each row's EstimationError, or None."""

    slope: np.ndarray       # (k,)
    intercept: np.ndarray   # (k,)
    covariance: np.ndarray  # (k, 2, 2)
    residuals: np.ndarray   # (k, n)
    weights: np.ndarray     # (k, n)
    errors: list

    def result(self, row: int) -> RegressionResult:
        """The fit of one row; its EstimationError if it failed."""
        if self.errors[row] is not None:
            raise self.errors[row]
        return RegressionResult(float(self.slope[row]), float(self.intercept[row]), self.covariance[row],
                                self.residuals[row], self.weights[row])


def _solve_lines(x, y, weights, scaled: bool):
    """Normal-equation fits of the rows of (k, n) arrays as stacked products and
    solves; each 2x2 system gets the BLAS and LAPACK calls a single one gets.
    Raises LinAlgError if any normal matrix is singular."""
    design = np.empty(x.shape + (2,))  # (k, n, 2)
    design[..., 0], design[..., 1] = x, 1.0
    design_t = np.swapaxes(design, -1, -2)
    normal = design_t @ (weights[..., None] * design)
    rhs = design_t @ (weights * y)[..., None]
    params = np.linalg.solve(normal, rhs)
    normal_inv = np.linalg.inv(normal)
    residuals = y - (design @ params)[..., 0]
    if scaled:
        dof = x.shape[-1] - 2
        rss = (residuals[:, None, :] @ residuals[:, :, None])[:, 0, 0]
        scale = rss / dof if dof > 0 else np.zeros(len(x))
        normal_inv = scale[:, None, None] * normal_inv
    return params[:, 0, 0], params[:, 1, 0], normal_inv, residuals


def _linreg_stack(x, y, sigma=None) -> _Lines:
    """Straight-line fit of every row of the (k, n) arrays ``x`` and ``y``.

    With per-point standard errors ``sigma`` the parameter covariance is the
    inverse normal matrix (errors taken as known absolute scales); without
    them an ordinary fit is done and the covariance is scaled by the
    residual variance.  A row with fewer than 2 distinct x, a std error
    <= 0 or a singular normal matrix fails alone.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape != y.shape or x.shape[1] < 2:
        raise EstimationError("regression needs 1-D x, y of equal length >= 2")
    same_x = (x == x[:, :1]).all(axis=1)
    sigma = None if sigma is None else np.asarray(sigma, dtype=float)
    failed = same_x if sigma is None else same_x | (sigma <= 0.0).any(axis=1)
    errors = [None] * len(x)
    for row in np.flatnonzero(failed).tolist():
        errors[row] = EstimationError(
            "regression needs at least 2 distinct x values" if same_x[row] else "regression std errors must be > 0")
    with np.errstate(divide="ignore"):
        weights = np.ones_like(x) if sigma is None else 1.0 / sigma**2
    slope, intercept = np.full(len(x), np.nan), np.full(len(x), np.nan)
    covariance, residuals = np.full((len(x), 2, 2), np.nan), np.full(x.shape, np.nan)
    rows = np.flatnonzero(~failed) if failed.any() else slice(None)
    # one solve for every row that passed the checks; a singular normal matrix
    # fails that solve, and then each row is solved alone, with the same calls
    try:
        solved = [(rows, _solve_lines(x[rows], y[rows], weights[rows], sigma is None))]
    except np.linalg.LinAlgError:
        solved = []
        for row in np.flatnonzero(~failed).tolist():
            try:
                solved.append(([row], _solve_lines(x[[row]], y[[row]], weights[[row]], sigma is None)))
            except np.linalg.LinAlgError:
                errors[row] = EstimationError("degenerate design matrix")
    for index, fit in solved:
        slope[index], intercept[index], covariance[index], residuals[index] = fit
    return _Lines(slope, intercept, covariance, residuals, weights, errors)


def weighted_linreg(x, y, sigma=None) -> RegressionResult:
    """Straight-line fit by normal equations: the one-row case of the stacked
    regression (see :func:`_linreg_stack` for the covariance)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or x.size < 2:
        raise EstimationError("regression needs 1-D x, y of equal length >= 2")
    sigma = None if sigma is None else np.asarray(sigma, dtype=float)[None]
    return _linreg_stack(x[None], y[None], sigma).result(0)


# ---------------------------------------------------------------------------
# delta-method propagation
# ---------------------------------------------------------------------------


def _propagate(func, inputs, variances):
    """First-order propagation of independent input variances through ``func``
    at every row of a grid of inputs, by central differences.

    ``inputs`` and ``variances`` are (r, m) arrays.  ``func`` maps inputs of
    shape (..., m) to ``(values (..., p), failed (..., c))``: its outputs and
    which of its c checks fail, in the order they are made.  All 2m + 1
    inputs of a row (central, then each input bumped up and then down) are
    evaluated in one call.  Returns the values (r, p), their std errors
    (r, p) and, for each row, None or ``(inputs, check)`` of its first
    failed check: at the central inputs, then at the bumped ones in order.
    A row whose variances are all 0 is not bumped: its std errors are 0.
    """
    inputs = np.asarray(inputs, dtype=float)
    variances = np.asarray(variances, dtype=float)
    r, m = inputs.shape
    h = 1e-6 * np.maximum(np.abs(inputs), 1.0)
    bumped = np.repeat(inputs[:, None, :], 2 * m + 1, axis=1)
    index = np.arange(m)
    bumped[:, 1 + 2 * index, index] += h
    bumped[:, 2 + 2 * index, index] -= h
    with np.errstate(all="ignore"):
        values, failed = func(bumped)
        # (r, p, m), C-ordered as a single frequency's jacobian is
        jac = np.ascontiguousarray(np.swapaxes((values[:, 1::2] - values[:, 2::2]) / (2.0 * h[..., None]), 1, 2))
        spread = np.zeros((r, m, m))
        spread[:, index, index] = variances
        var_out = jac @ spread @ np.swapaxes(jac, 1, 2)
    errs = np.sqrt(np.clip(np.diagonal(var_out, axis1=1, axis2=2), 0.0, None))
    exact = np.all(variances == 0.0, axis=1)
    errs[exact] = 0.0
    failed[exact, 1:] = False
    flat = failed.reshape(r, -1)
    first = flat.argmax(axis=1)
    checks = failed.shape[-1]
    failures = [
        (bumped[row, first[row] // checks], first[row] % checks) if flat[row, first[row]] else None
        for row in range(r)
    ]
    return values[:, 0], errs, failures


def _point_rows(dataset: ShotDataset, point, omegas, times) -> np.ndarray:
    """Row of the ``(drive_axis, init, observable)`` point at each frequency,
    at that frequency's time; -1 where the dataset has none."""
    drive_axis, init, observable = point
    series = [dataset.series(drive_axis, omega, init, observable) for omega in omegas]
    owner = np.repeat(np.arange(len(series)), [rows.size for rows in series])
    rows = np.concatenate(series) if series else np.empty(0, dtype=np.intp)
    hits = np.flatnonzero(dataset.column("time")[rows] == np.asarray(times, dtype=float)[owner])
    found, first = np.unique(owner[hits], return_index=True)
    out = np.full(len(series), -1, dtype=np.intp)
    out[found] = rows[hits[first]]
    return out


def _inversion_inputs(dataset: ShotDataset, points, omegas, times):
    """(expectations, variances, errors) of the ``points`` (name -> (drive_axis,
    init, observable)) at every frequency and its time in ``times`` (name ->
    (r,) times).  The arrays are (r, len(points)), NaN at a frequency that
    lacks a point, which reads none; ``errors[i]`` is the EstimationError
    naming the first point that frequency i lacks, else None."""
    rows = np.stack([_point_rows(dataset, point, omegas, times[name]) for name, point in points.items()], axis=1)
    lacking = (rows < 0).any(axis=1)
    errors = [None] * len(omegas)
    for i in np.flatnonzero(lacking).tolist():
        name = list(points)[np.flatnonzero(rows[i] < 0)[0]]
        drive_axis, init, observable = points[name]
        key = MeasurementKey(drive_axis, float(omegas[i]), init, observable, float(times[name][i]))
        errors[i] = EstimationError(f"dataset lacks {key}")
    inputs = np.full((2,) + rows.shape, np.nan)
    inputs[:, ~lacking] = [dataset.column(name)[rows[~lacking]] for name in ("expectation", "expectation_variance")]
    return *inputs, errors


def _inversion_table(omegas, names, values, errs, failures, error, missing, omega_q=0.0) -> EstimateTable:
    """The standard outcomes: at each frequency the EstimationError of a missing point,
    else the one ``error(inputs, check)`` gives for its first failed check, else its estimates."""
    errors = [missing[i] or (error(*failures[i]) if failures[i] else None) for i in range(len(omegas))]
    return EstimateTable(omegas, errors, Method.STANDARD, "standard", names, values, errs, omega_q=omega_q)


# ---------------------------------------------------------------------------
# single-axis estimators
# ---------------------------------------------------------------------------


def _single_axis_rates(e, duration):
    """(S+, S-) of x-drive expectations ``e[..., 0:2]`` (the two preparations)
    at one time, and whether the gap falls outside (0, 2]."""
    diff = e[..., 0] - e[..., 1]
    failed = ~((0.0 < diff) & (diff <= 2.0 + 1e-12))
    s_plus = _log(np.where(failed, 1.0, 2.0 / diff)) / duration
    mean = 0.5 * (e[..., 0] + e[..., 1])
    s_minus = mean / _decay_weight(s_plus, duration)
    return np.stack((s_plus, s_minus), axis=-1), failed[..., None]


def _gap_error(diff) -> EstimationError:
    return EstimationError(f"expectation gap {diff:.3g} outside (0, 2]: decoherence floor reached")


def single_axis_forward(
    s_plus: float,
    s_minus: float,
    duration,
    sign: int,
    *,
    alpha_m: float = 1.0,
    delta: float = 0.0,
) -> np.ndarray:
    """SPAM-corrupted x-drive expectation(s) for the |x_sign> preparation,
    with no preparation error (``alpha = alpha_m``).  Every argument
    broadcasts: columns of parameters give one row of expectations each."""
    t = np.asarray(duration, dtype=float)
    decay = np.exp(-s_plus * t)
    with np.errstate(divide="ignore", invalid="ignore"):
        drift = np.where(s_plus != 0.0, np.divide(s_minus, s_plus) * (1.0 - decay), s_minus * t)
    return alpha_m * (sign * decay + drift) + delta


def estimate_single_axis_standard(dataset: ShotDataset, omegas, duration: float) -> EstimateTable:
    """Protocol-1 inversion with shot-noise error bars at every frequency of
    ``omegas``, from its two x-drive expectations at ``duration``."""
    omegas = list(omegas)
    points = {"x_p": ("x", "x+", "x"), "x_m": ("x", "x-", "x")}
    at = np.full(len(omegas), float(duration))
    inputs, variances, missing = _inversion_inputs(dataset, points, omegas, dict.fromkeys(points, at))
    values, errs, failures = _propagate(lambda e: _single_axis_rates(e, duration), inputs, variances)
    return _inversion_table(omegas, ("S+_{0,0}", "S-_{0,0}"), values, errs, failures,
                            lambda e, check: _gap_error(e[0] - e[1]), missing)


def _paired_series(dataset: ShotDataset, drive_axis, omegas, inits, observable):
    """The two preparations' time series at every frequency, stacked by length.

    Returns ``(stacks, errors)``: ``stacks`` maps a series length n to the
    frequency indices (k,), their times (k, n) and the dataset rows of the
    first and of the second preparation (k, n), each series ordered by time;
    ``errors[i]`` is the EstimationError of a frequency whose preparations
    lack matching times, else None.
    """
    time = dataset.column("time")
    errors = [None] * len(omegas)
    by_length = defaultdict(list)
    series = []
    for i, omega in enumerate(omegas):
        pair = (dataset.series(drive_axis, omega, inits[0], observable),
                dataset.series(drive_axis, omega, inits[1], observable))
        series.append(pair)
        if pair[0].size and pair[0].size == pair[1].size:
            by_length[pair[0].size].append(i)
        else:
            errors[i] = _unmatched(drive_axis, omegas[i], inits)
    stacks = {}
    for n, index in by_length.items():
        index = np.array(index)
        plus, minus = (np.array([series[i][k] for i in index.tolist()]) for k in (0, 1))
        times = time[plus]
        same = (times == time[minus]).all(axis=1)
        if not same.all():
            for i in index[~same].tolist():
                errors[i] = _unmatched(drive_axis, omegas[i], inits)
            index, times, plus, minus = index[same], times[same], plus[same], minus[same]
        stacks[n] = (index, times, plus, minus)
    return stacks, errors


def _unmatched(drive_axis, omega, inits) -> EstimationError:
    return EstimationError(f"dataset lacks matching {inits} time series for drive {drive_axis} at omega={omega}")


MIN_REGRESSION_POINTS = 3


class _TooFewPointsError(EstimationError):
    """A pair block keeps fewer than ``MIN_REGRESSION_POINTS`` times."""


class _Stack(NamedTuple):
    """The frequencies of a pair block that keep the same number of times and
    are all exact or all weighted, with their kept points."""

    index: np.ndarray     # (k,) frequency indices
    times: np.ndarray     # (k, m) kept times
    means: np.ndarray     # (k, m) (e+ + e-)/2 at the kept times
    sigma: np.ndarray | None  # (k, m) std errors of the means, None if exact


class _GridFits:
    """Straight-line fits at every frequency of a grid, gathered from stacked
    fits: (r,) arrays, NaN where a frequency has no fit, and each frequency's
    EstimationError or None."""

    def __init__(self, size: int):
        self._values = np.full((4, size), np.nan)
        self.slope, self.intercept, self.slope_err, self.intercept_err = self._values
        self.errors = [None] * size
        self._rows = {}  # frequency index -> (lines, row)

    def add(self, index, lines: _Lines) -> None:
        self.slope[index], self.intercept[index] = lines.slope, lines.intercept
        self._values[2:, index] = np.sqrt(_nonnegative(np.diagonal(lines.covariance, axis1=1, axis2=2))).T
        for row, i in enumerate(index.tolist()):
            self.errors[i] = lines.errors[row]
            self._rows[i] = (lines, row)

    def result(self, i: int) -> RegressionResult:
        """The fit at frequency i; its EstimationError if it has none."""
        if self.errors[i] is not None:
            raise self.errors[i]
        lines, row = self._rows[i]
        return lines.result(row)


@dataclass(frozen=True)
class _PairBlock:
    """One preparation pair's time series at every frequency of a grid, with
    their log-difference fits ``(1/2)^half ln(2/diff)`` against time.

    ``times`` and ``dropped`` hold each frequency's series times and the
    times dropped for a non-positive gap (empty where the series failed).
    ``series`` is the length stacks of :func:`_paired_series`: every
    matched frequency's dataset rows, dropped times included.
    ``fits.errors[i]`` is the EstimationError that fails frequency i, before
    or in its fit.  The quantum fits are a method because their regressor depends
    on the fitted slope.
    """

    times: list
    dropped: list
    series: dict  # series length -> (index, times, plus rows, minus rows)
    stacks: list  # of _Stack
    fits: _GridFits

    def quantum_fits(self, regressor) -> _GridFits:
        """WLS of the preparation means against ``regressor(slope (k, 1), times
        (k, m))`` at the kept times of every stacked frequency."""
        fits = _GridFits(len(self.times))
        for stack in self.stacks:
            x = regressor(self.fits.slope[stack.index][:, None], stack.times)
            fits.add(stack.index, _linreg_stack(x, stack.means, stack.sigma))
        return fits


def _pair_block(dataset, drive_axis, omegas, inits, observable, *, half: bool = False) -> _PairBlock:
    """Fit (1/2)^half * ln(2/diff) against time at every frequency, dropping
    non-positive gaps; one stacked fit per (kept-time count, exactness).  A
    series with summed expectation variance 0 is exact: fitted unweighted."""
    stacks, errors = _paired_series(dataset, drive_axis, omegas, inits, observable)
    expectation, variance = dataset.column("expectation"), dataset.column("expectation_variance")
    factor = 0.5 if half else 1.0
    times_of, dropped_of = [()] * len(omegas), [()] * len(omegas)
    fits, block_stacks = _GridFits(len(omegas)), []
    for index, times, plus, minus in stacks.values():
        e_plus, e_minus = expectation[plus], expectation[minus]
        diffs, var_sums = e_plus - e_minus, variance[plus] + variance[minus]
        means = 0.5 * (e_plus + e_minus)
        exact = ~var_sums.any(axis=1)
        keep = diffs > 0.0
        kept = keep.sum(axis=1)
        n = times.shape[1]
        for j, i in enumerate(index.tolist()):
            times_of[i] = times[j]
        for j in np.flatnonzero((kept < n) | (kept < MIN_REGRESSION_POINTS)).tolist():
            i = index[j]
            dropped_of[i] = tuple(times[j][~keep[j]].tolist())
            if kept[j] < MIN_REGRESSION_POINTS:
                cause = ""
                if dropped_of[i]:
                    cause = f" after dropping non-positive expectation gaps at T = {list(dropped_of[i])}"
                errors[i] = _TooFewPointsError(f"only {int(kept[j])} usable time points{cause}")
        # one stack per (kept-time count, exactness)
        keys = (2 * kept + exact).tolist()
        for key in sorted(set(keys)):
            m, is_exact = divmod(key, 2)
            if m < MIN_REGRESSION_POINTS:
                continue
            rows = slice(None) if keys.count(key) == len(keys) else np.flatnonzero(np.equal(keys, key))

            def at_kept(values):
                return values[rows] if m == n else values[rows][keep[rows]].reshape(-1, m)

            x, d, spread = at_kept(times), at_kept(diffs), at_kept(var_sums)
            y = factor * np.log(2.0 / d)
            sigma = None if is_exact else factor * np.sqrt(spread) / d
            fits.add(index[rows], _linreg_stack(x, y, sigma))
            block_stacks.append(_Stack(index[rows], x, at_kept(means), None if is_exact else 0.5 * np.sqrt(spread)))
    for i, error in enumerate(errors):
        if error is not None:
            fits.errors[i] = error
    return _PairBlock(times_of, dropped_of, stacks, block_stacks, fits)


# largest S+ T at which the linearized quantum line is trusted
LINEARIZATION_GUARD = 0.1


class _NonlinearStart(NamedTuple):
    """What the nonlinear fit at one frequency reads: the classical line of
    the rejected linearized fit, its quantum line (preparation means against
    time) or the EstimationError that fails that line, and both preparations'
    series, dropped times included."""

    classical: RegressionResult
    quantum: RegressionResult | EstimationError
    times: np.ndarray        # (n,)
    expectation: np.ndarray  # (2n,): the x+ series, then the x- series
    std_error: np.ndarray    # (2n,)


def _gathered_series(dataset: ShotDataset, block: _PairBlock) -> dict:
    """Frequency index -> (times, expectations, std errors) of every matched
    series pair of ``block``, one gather per length stack."""
    gathered = {}
    for index, times, plus, minus in block.series.values():
        values = dataset.take(np.concatenate((plus, minus), axis=1))
        std_error = expectation_std_error(values)
        for j, i in enumerate(index.tolist()):
            gathered[i] = (times[j], values.expectation[j], std_error[j])
    return gathered


def robust_single_axis_linearized(dataset: ShotDataset, omegas) -> EstimateTable:
    """Small-decay robust estimation at every frequency of ``omegas``: two
    straight-line fits each.

    Classical path: ``ln[2/(e+ - e-)]`` vs T gives the classical spectrum as
    the slope and ``-ln(alpha)`` as the intercept (this line is exact).
    Quantum path: ``(e+ + e-)/2`` vs T gives ``alpha_m S-`` as the slope and
    ``delta`` as the intercept, valid only while ``S+ T`` stays small.  The
    quantum estimate is the component ``alpha_m*S-_{0,0}``.

    Returns the table of every frequency's outcome: its estimates; the
    EstimationError that fails it; or, where the guard rejects the classical
    line's ``max(S+ T)``, a :class:`LinearizationGuardError` whose ``start``
    the nonlinear fit takes.  The table also holds the nonlinear fit's
    ``S-_{0,0}`` column, which :meth:`EstimateTable.put` fills.
    """
    omegas = list(omegas)
    block = _pair_block(dataset, "x", omegas, ("x+", "x-"), "x")
    classical, quantum = block.fits, block.quantum_fits(lambda slope, times: times)
    gathered = _gathered_series(dataset, block)
    guard, absent = np.full(len(omegas), np.nan), np.full(len(omegas), np.nan)
    for index, times, *_ in block.series.values():
        guard[index] = np.max(classical.slope[index, None] * times, axis=1)
    errors = list(classical.errors)
    for i, error in enumerate(errors):
        if error is None and guard[i] > LINEARIZATION_GUARD:
            errors[i] = LinearizationGuardError(
                f"max(S+ T) = {guard[i]:.3g} exceeds the linearization guard "
                f"{LINEARIZATION_GUARD:g}; use robust_single_axis_nonlinear",
                _NonlinearStart(classical.result(i), quantum.errors[i] or quantum.result(i), *gathered[i]),
            )
        elif error is None:
            errors[i] = quantum.errors[i]
    alpha = _exp(-classical.intercept)

    def diagnostics(i):
        return {"guard_value": float(guard[i]), "dropped_times": block.dropped[i],
                "fits": {"classical": classical.result(i), "quantum": quantum.result(i)}}

    return EstimateTable(
        omegas, errors, Method.ROBUST_LINEAR, "linearized", ("S+_{0,0}", "alpha_m*S-_{0,0}", "S-_{0,0}"),
        np.stack([classical.slope, quantum.slope, absent], axis=1),
        np.stack([classical.slope_err, quantum.slope_err, absent], axis=1),
        present=[True, True, False], diagnostics=diagnostics,
        spam=np.stack([alpha, alpha * classical.intercept_err, quantum.intercept, quantum.intercept_err], axis=1),
    )


# xtol, ftol and gtol of the solver; scipy's 1e-8 default stops ~1e-7 short
# of the truth on exact data
FIT_TOLERANCE = 1e-12
# relative forward-difference step of scipy's '2-point' Jacobian
_FD_STEP = np.finfo(float).eps ** 0.5


def robust_single_axis_nonlinear(omega: float, start: _NonlinearStart) -> EstimatorResult:
    """Joint bounded least-squares fit of (S+, S-, alpha_m, delta) at ``omega``.

    Models both preparation series with ``alpha approx alpha_m`` (negligible
    preparation errors; the fitted ``alpha_m`` is reported as ``alpha``) and
    minimises the standardised residuals with scipy's trust-region-reflective
    solver (Branch, Coleman & Li, SIAM J. Sci. Comput. 21, 1999).  ``start``
    is the payload of the :class:`LinearizationGuardError` that the guard
    gave at ``omega``: the series to fit (exact, with unit residual scales,
    where every point's std error is 0) and the lines of the rejected
    linearized fit, which the solver starts from; a failed quantum line fails
    the fit after its own time-count check.  The Jacobian is the forward difference that
    scipy's ``jac="2-point"`` takes, with its steps and their flips at the
    bounds, but its five parameter vectors go through one array evaluation
    of the residuals, so the solver takes the same steps.
    The bounds are independent: ``S+ >= 0`` and ``alpha_m, delta`` in
    [0, 1].  The joint physical region ``alpha_m + delta <= 1`` is not a box
    and is not imposed, so a noisy fit may exceed it slightly; clipping such
    fits would bias the estimate.
    """
    from scipy.optimize import least_squares

    times, y = start.times, start.expectation
    if times.size < 4:
        raise EstimationError("non-linear fit needs at least 4 time points")
    exact = not start.std_error.any()
    sig = np.ones_like(y) if exact else start.std_error
    signs = np.array([[+1], [-1]])

    def residuals(thetas):
        """Standardised residuals (2n,) at parameters (4,), or (k, 2n) at rows (k, 4)."""
        s_plus, s_minus, alpha_m, delta = thetas.T[..., None, None]
        model = single_axis_forward(s_plus, s_minus, times, signs, alpha_m=alpha_m, delta=delta)
        return (model.reshape(thetas.shape[:-1] + (-1,)) - y) / sig

    lower, upper = bounds = np.array([[0.0, -np.inf, 0.0, 0.0], [np.inf, np.inf, 1.0, 1.0]])
    params = np.arange(4)

    def jacobian(theta):
        # a step that leaves the box is flipped; the bounded ranges are far
        # wider than a step, so scipy never shortens one here
        h = _FD_STEP * np.where(theta >= 0.0, 1.0, -1.0) * np.maximum(1.0, np.abs(theta))
        h = np.where((theta + h < lower) | (theta + h > upper), -h, h)
        stepped = theta + h
        stencil = np.repeat(theta[None], 5, axis=0)
        stencil[1 + params, params] = stepped
        f = residuals(stencil)
        return ((f[1:] - f[0]) / (stepped - theta)[:, None]).T

    classical, quantum = start.classical, start.quantum
    if isinstance(quantum, EstimationError):
        raise quantum
    alpha = math.exp(-classical.intercept)
    theta0 = [classical.slope, quantum.slope / alpha, alpha, quantum.intercept]
    fit = least_squares(
        residuals, np.clip(theta0, *bounds), jac=jacobian, bounds=bounds,
        xtol=FIT_TOLERANCE, ftol=FIT_TOLERANCE, gtol=FIT_TOLERANCE,
    )
    if not fit.success:
        raise EstimationError(f"non-linear fit failed after {fit.nfev} evaluations: {fit.message}")
    try:
        covariance = np.linalg.inv(fit.jac.T @ fit.jac)
    except np.linalg.LinAlgError as exc:
        raise EstimationError("singular covariance in non-linear fit") from exc
    if exact:
        dof = max(y.size - 4, 1)
        covariance = covariance * (2.0 * fit.cost / dof)
    errs = np.sqrt(np.clip(np.diag(covariance), 0.0, None))
    theta = fit.x
    rows = zip(("S+_{0,0}", "S-_{0,0}"), theta[:2], errs[:2])
    return EstimatorResult(
        _estimates(Method.ROBUST_NONLINEAR, omega, rows),
        "nonlinear",
        alpha=theta[2],
        alpha_err=errs[2],
        delta=theta[3],
        delta_err=errs[3],
        diagnostics={"covariance": covariance, "nfev": fit.nfev},
    )


# ---------------------------------------------------------------------------
# multi-axis estimators
# ---------------------------------------------------------------------------

# the points of the single-time multi-axis inversion, as pairs in check order:
# name -> (drive_axis, init, observable); the coherence pair "c" is optional
_MULTI_AXIS_POINTS = {
    "zp_p": ("z+", "z+", "z"), "zp_m": ("z+", "z-", "z"),
    "zm_p": ("z-", "z+", "z"), "zm_m": ("z-", "z-", "z"),
    "x_p": ("x", "x+", "x"), "x_m": ("x", "x-", "x"),
    "c_p": ("z+", "x+", "x"), "c_m": ("z+", "x-", "x"),
}
_MULTI_AXIS_COMPONENTS = ("S+_{1,-1}", "S-_{-1,1}", "S+_{-1,1}", "S-_{1,-1}", "A", "B", "S+_{0,0}", "S-_{0,0}", "S_{0,0}")


def _dephasing_rates(a_rate, b_rate, s_plus_up, s_plus_dn, s_minus_up, s_minus_dn):
    """The dephasing sum rules (S+[0,0](W), S-[0,0](W)): A - (S+[1,-1](W+wq) +
    S+[-1,1](W-wq))/2 and B + (S-[-1,1](-W-wq) + S-[1,-1](-W+wq))/2."""
    return a_rate - 0.5 * (s_plus_up + s_plus_dn), b_rate + 0.5 * (s_minus_up + s_minus_dn)


def _multi_axis_rates(e, duration, aligned_duration=None):
    """The multi-axis inversion of expectations ``e[..., :]`` (the points of
    ``_MULTI_AXIS_POINTS`` in order; the coherence pair only with an
    ``aligned_duration``, broadcast against ``e[..., 0]``), and which pair
    gaps are <= 0 (the decoherence floor)."""
    diffs = e[..., 0::2] - e[..., 1::2]  # zp, zm, x (, c)
    failed = diffs <= 0.0
    logs = _log(np.where(failed, 1.0, 2.0 / diffs))
    s_plus_up = 0.5 * logs[..., 0] / duration     # S+[1,-1](W+wq)
    s_plus_dn = 0.5 * logs[..., 1] / duration     # S+[-1,1](W-wq)
    a_rate = 1.0 * logs[..., 2] / duration        # A(W)

    mean_zp = 0.5 * (e[..., 0] + e[..., 1])
    mean_zm = 0.5 * (e[..., 2] + e[..., 3])
    mean_x = 0.5 * (e[..., 4] + e[..., 5])
    s_minus_up = -mean_zp / (2.0 * _decay_weight(2.0 * s_plus_up, duration))  # S-[-1,1](-W-wq)
    s_minus_dn = mean_zm / (2.0 * _decay_weight(2.0 * s_plus_dn, duration))   # S-[1,-1](-W+wq)
    b_rate = mean_x / _decay_weight(a_rate, duration)                          # B(W)

    s00_plus, s00_minus = _dephasing_rates(a_rate, b_rate, s_plus_up, s_plus_dn, s_minus_up, s_minus_dn)

    out = [s_plus_up, s_minus_up, s_plus_dn, s_minus_dn, a_rate, b_rate, s00_plus, s00_minus]
    if aligned_duration is not None:
        # coherence rate is S+[1,-1](W+wq) + 2 S00(0)
        gamma_hat = 1.0 * logs[..., 3] / aligned_duration
        out.append(0.5 * (gamma_hat - s_plus_up))
    return np.stack(out, axis=-1), failed


def _floor_error(inputs, check) -> EstimationError:
    p, m = list(_MULTI_AXIS_POINTS)[2 * check: 2 * check + 2]
    diff = inputs[2 * check] - inputs[2 * check + 1]
    return EstimationError(f"expectation gap for ({p},{m}) is {diff:.3g} <= 0: decoherence floor")


def invert_multi_axis(
    dataset: ShotDataset,
    omegas,
    omega_q: float,
    duration: float,
    aligned_durations=None,
) -> EstimateTable:
    """Single-time multi-axis inversion (no SPAM correction) at every frequency
    of ``omegas``.

    Requires the six expectations of the three-drive protocol at
    ``duration``, and with ``aligned_durations`` (one time per frequency) the
    aligned coherence pair at that time.
    """
    omegas = list(omegas)
    has_aligned = aligned_durations is not None
    points = dict(list(_MULTI_AXIS_POINTS.items())[: 8 if has_aligned else 6])
    times = dict.fromkeys(points, np.full(len(omegas), float(duration)))
    if has_aligned:
        aligned = np.asarray(aligned_durations, dtype=float)
        times.update(c_p=aligned, c_m=aligned)
    inputs, variances, missing = _inversion_inputs(dataset, points, omegas, times)
    aligned_at = aligned[:, None] if has_aligned else None
    values, errs, failures = _propagate(lambda e: _multi_axis_rates(e, duration, aligned_at), inputs, variances)
    names = _MULTI_AXIS_COMPONENTS[: 9 if has_aligned else 8]
    return _inversion_table(omegas, names, values, errs, failures, _floor_error, missing, omega_q)


INTERCEPT_CONSISTENCY_Z = 3.0
# floor on an intercept std error in its z-score: on exact data the intercept
# spread and the fitted std errors are both float round-off
INTERCEPT_ROUND_OFF = 1e-12
# floor on a variance in an inverse-variance weight
_VARIANCE_FLOOR = 1e-30


def _combine_inverse_variance(values, variances, present=True):
    """Inverse-variance mean and its std error along the last axis, over the
    ``present`` entries: their plain mean, with std error 0, where every
    present variance is 0.  Sums run in entry order, as a scalar loop's do."""
    values = np.asarray(values, dtype=float)
    variances = np.asarray(variances, dtype=float)
    present = np.broadcast_to(present, values.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = np.where(present, 1.0 / np.maximum(variances, _VARIANCE_FLOOR), 0.0)
        values = np.where(present, values, 0.0)
        total = np.sum(weights, axis=-1)
        exact = np.all((variances == 0.0) | ~present, axis=-1)
        mean = np.where(exact, np.sum(values, axis=-1) / np.sum(present, axis=-1),
                        np.sum(weights * values, axis=-1) / total)
        return mean, np.where(exact, 0.0, np.sqrt(1.0 / total))


def _first_errors(*grids: _GridFits) -> list:
    """Each frequency's first EstimationError among the fits of ``grids``, or None."""
    return [next((e for e in errors if e is not None), None) for errors in zip(*(g.errors for g in grids))]


def _first_max(values, present) -> np.ndarray:
    """Python's ``max`` of the present entries of each row: the first entry
    that no later one exceeds (NaN compares as Python compares it)."""
    best = values[..., 0]
    for j in range(1, values.shape[-1]):
        best = np.where(present[..., j] & (values[..., j] > best), values[..., j], best)
    return best


def _unscale(slope, slope_err, s_plus, s_plus_err, alpha, alpha_err):
    """Quantum spectrum ``slope * S+ / alpha`` and its first-order std error; a
    zero value or slope takes the absolute form of the error."""
    value = slope * s_plus / alpha
    err = np.empty_like(value)
    plain = (value == 0.0) | (slope == 0.0)
    p, r = np.flatnonzero(plain), np.flatnonzero(~plain)
    err[p] = np.sqrt(_squares(s_plus[p] / alpha[p] * slope_err[p]) + _squares(slope[p] / alpha[p] * s_plus_err[p]))
    err[r] = np.abs(value[r]) * np.sqrt(
        _squares(slope_err[r] / slope[r]) + _squares(s_plus_err[r] / s_plus[r]) + _squares(alpha_err[r] / alpha[r]))
    return value, err


def robust_multi_axis(
    dataset: ShotDataset,
    omegas,
    omega_q: float,
) -> EstimateTable:
    """Time-series SPAM-robust multi-axis estimation at every frequency of ``omegas``.

    Classical spectra come from the slopes of the log-difference lines (the
    z-drive lines are halved so their slopes are the spectra directly and
    their intercepts carry ``-(1/2) ln alpha``); alpha is combined across the
    available intercepts by inverse-variance weighting; quantum spectra come
    from regressing the preparation-averaged signals on their exact decay
    regressors and unscaling by ``alpha_m ~ alpha``.  The aligned-time
    coherence block is optional; without it, or with fewer than
    ``MIN_REGRESSION_POINTS`` aligned times of positive expectation gap
    (skipped with a warning), ``S[0,0](0)`` is not estimated.

    A frequency fails at the first failure among its zp, zm, x and aligned
    blocks (a short aligned block is skipped, not failed), then its zp, zm
    and x quantum fits, then its estimates.
    """
    omegas = list(omegas)
    r = len(omegas)
    zp = _pair_block(dataset, "z+", omegas, ("z+", "z-"), "z", half=True)
    zm = _pair_block(dataset, "z-", omegas, ("z+", "z-"), "z", half=True)
    x = _pair_block(dataset, "x", omegas, ("x+", "x-"), "x")
    n_aligned = [dataset.series("z+", omega, "x+", "x").size for omega in omegas]
    aligned = _pair_block(dataset, "z+", omegas, ("x+", "x-"), "x")
    errors = _first_errors(zp.fits, zm.fits, x.fits)
    skipped = [None] * r  # the _TooFewPointsError of a skipped aligned block
    for i in range(r):
        error = aligned.fits.errors[i]
        if errors[i] is None and n_aligned[i] and error is not None:
            if isinstance(error, _TooFewPointsError):
                skipped[i] = error
            else:
                errors[i] = error
    has_aligned = np.array([bool(n) and s is None for n, s in zip(n_aligned, skipped)], dtype=bool)

    # intercepts -> ln(alpha): halved lines carry -(1/2) ln alpha
    blocks = {"zp": zp, "zm": zm, "x": x, "aligned": aligned}
    factors = np.array([2.0, 2.0, 1.0, 1.0])
    present = np.ones((r, 4), dtype=bool)
    present[:, 3] = has_aligned
    intercepts = np.stack([block.fits.intercept for block in blocks.values()], axis=1)
    intercept_errs = np.stack([block.fits.intercept_err for block in blocks.values()], axis=1)
    ln_alpha_vals = -factors * intercepts
    ln_alpha_vars = _squares(np.where(present, factors * intercept_errs, 0.0))
    ln_alpha, ln_alpha_err = _combine_inverse_variance(ln_alpha_vals, ln_alpha_vars, present)
    with np.errstate(invalid="ignore"):
        z_scores = np.abs(ln_alpha_vals - ln_alpha[:, None]) / np.maximum(np.sqrt(ln_alpha_vars),
                                                                          INTERCEPT_ROUND_OFF)
    max_z = _first_max(z_scores, present)
    consistent = max_z <= INTERCEPT_CONSISTENCY_Z
    alpha = _exp(ln_alpha)
    alpha_err = alpha * ln_alpha_err

    # quantum regressions on exact decay regressors
    qf_zp = zp.quantum_fits(lambda s, t: np.expm1(-2.0 * s * t))
    qf_zm = zm.quantum_fits(lambda s, t: -np.expm1(-2.0 * s * t))
    qf_x = x.quantum_fits(lambda s, t: -np.expm1(-s * t))
    quantum_errors = _first_errors(qf_zp, qf_zm, qf_x)
    delta, delta_err = _combine_inverse_variance(
        np.stack([q.intercept for q in (qf_zp, qf_zm, qf_x)], axis=1),
        np.stack([_squares(q.intercept_err) for q in (qf_zp, qf_zm, qf_x)], axis=1),
    )
    s_plus_up, s_plus_dn, a_rate = zp.fits.slope, zm.fits.slope, x.fits.slope
    s_plus_up_err, s_plus_dn_err, a_rate_err = zp.fits.slope_err, zm.fits.slope_err, x.fits.slope_err
    s_minus_up, s_minus_up_err = _unscale(qf_zp.slope, qf_zp.slope_err, s_plus_up, s_plus_up_err, alpha, alpha_err)
    s_minus_dn, s_minus_dn_err = _unscale(qf_zm.slope, qf_zm.slope_err, s_plus_dn, s_plus_dn_err, alpha, alpha_err)
    b_rate, b_rate_err = _unscale(qf_x.slope, qf_x.slope_err, a_rate, a_rate_err, alpha, alpha_err)

    s00_plus, s00_minus = _dephasing_rates(a_rate, b_rate, s_plus_up, s_plus_dn, s_minus_up, s_minus_dn)
    s00_plus_err = np.sqrt(_squares(a_rate_err) + 0.25 * (_squares(s_plus_up_err) + _squares(s_plus_dn_err)))
    s00_minus_err = np.sqrt(_squares(b_rate_err) + 0.25 * (_squares(s_minus_up_err) + _squares(s_minus_dn_err)))
    # aligned-line slope is the coherence rate S+[1,-1](W+wq) + 2 S00(0)
    s00_zero = 0.5 * (aligned.fits.slope - s_plus_up)
    s00_zero_err = 0.5 * np.sqrt(_squares(aligned.fits.slope_err) + _squares(s_plus_up_err))

    for i in np.flatnonzero(np.equal(errors, None) & (np.not_equal(skipped, None) | ~consistent)).tolist():
        if skipped[i] is not None:
            warnings.warn(f"skipping the aligned coherence block: {n_aligned[i]} aligned times, {skipped[i]} "
                          f"(fewer than {MIN_REGRESSION_POINTS}); S_{{0,0}}(0) is not estimated",
                          UserWarning, stacklevel=2)
        if not consistent[i]:
            warnings.warn(f"SPAM intercepts disagree at z = {float(max_z[i]):.2f} (> {INTERCEPT_CONSISTENCY_Z}); "
                          "the combined alpha estimate may be unreliable", UserWarning, stacklevel=2)

    def diagnostics(i):
        used = [name for name in blocks if name != "aligned" or has_aligned[i]]
        fits = {name: blocks[name].fits.result(i) for name in used}
        fits.update(q_zp=qf_zp.result(i), q_zm=qf_zm.result(i), q_x=qf_x.result(i))
        return {"fits": fits, "dropped_times": {name: blocks[name].dropped[i] for name in used},
                "intercept_max_z": float(max_z[i]), "intercepts_consistent": bool(consistent[i])}

    values = np.stack([s_plus_up, s_minus_up, s_plus_dn, s_minus_dn, a_rate, b_rate, s00_plus, s00_minus, s00_zero], 1)
    errs = np.stack([s_plus_up_err, s_minus_up_err, s_plus_dn_err, s_minus_dn_err, a_rate_err, b_rate_err,
                     s00_plus_err, s00_minus_err, s00_zero_err], 1)
    return EstimateTable(
        omegas, [error or quantum for error, quantum in zip(errors, quantum_errors)], Method.ROBUST_LINEAR,
        "multi_axis", _MULTI_AXIS_COMPONENTS, values, errs, omega_q=omega_q,
        present=np.arange(9) < 8 + has_aligned[:, None], spam=np.stack([alpha, alpha_err, delta, delta_err], 1),
        consistent=consistent, diagnostics=diagnostics,
    )
