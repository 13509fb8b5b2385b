"""Spectral and SPAM-parameter estimators.

Closed-form inversions, weighted linear regression, an unbounded non-linear
least-squares fit (Gauss-Newton steps with the model's analytic Jacobian,
stacked over frequencies), and first-order (delta-method) uncertainty
propagation, all in numpy.

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
over the grid.  Every estimator reads the dataset as padded (frequencies,
times) tables of series rows, -1 past a shorter series' end, from one
:meth:`ShotDataset.series_rows` lookup, one pair of ``spam.PAIRS`` at a
time.  Every straight-line fit of a pair block is one row of a stacked
regression at its kept points (:func:`_linreg_stack`, whose one-row case is
:func:`weighted_linreg`), and :func:`_kept_fits` gathers them into one
:class:`_Lines` table over the grid, whose row view is a
:class:`RegressionResult`; :func:`robust_multi_axis` combines the fits in
arrays (a failed frequency's entries are never read), and the delta-method
inversions evaluate every central and bumped input in one array pass
(:func:`_propagate`).  Data whose std errors are all 0 are exact: fitted
unweighted.  Warnings are emitted afterwards, in grid order, at the caller's
line.  Where protocol 2's guard rejects a frequency, its table holds a
:class:`LinearizationGuardError`, and :func:`robust_single_axis_nonlinear`
fits every such frequency of the table in one stacked solve.

The outputs keep the bits of a scalar evaluation, one frequency at a time: a
stacked matrix product or solve runs the same BLAS/LAPACK call on each
matrix, and where a scalar formula used ``math.log``, ``math.exp`` or a
Python ``float ** 2`` (libm ``pow``), the array form maps the same Python
function over the values' list (``dynamics._mapped``, with
``dynamics._square``): numpy's vectorised ``log`` and ``square`` differ from
them in the last bit for a few values in ten thousand.
"""

from __future__ import annotations

import contextlib
import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dynamics import _decay_weight, _mapped, _square
from .spam import PAIRS, MeasurementKey, ShotDataset
from .spectra import _warn

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
    """Data violate the small-decay guard at one frequency of a table of
    :func:`robust_single_axis_linearized`; :func:`robust_single_axis_nonlinear`
    fits it."""


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
    ``diagnostics(i)``.  Protocol 2's tables keep the ``block`` that the
    linearized fit read, for :func:`robust_single_axis_nonlinear`, whose
    Gauss-Newton passes over the grid are ``iterations`` (0 where it has not run).
    """

    def __init__(self, omegas, errors, method: Method, path: str, components, value, std_error, *,
                 omega_q=0.0, present=True, spam=None, consistent=None, diagnostics=lambda i: {}, block=None):
        self.omegas = np.asarray(omegas, dtype=float)
        self.components, self.value, self.std_error, self.omega_q = tuple(components), value, std_error, omega_q
        self.present = np.array(np.broadcast_to(present, value.shape))
        a, b = np.array([_COMPONENTS[c][1:] for c in components], dtype=float).reshape(-1, 2).T
        self.freq = a * self.omegas[:, None] + b * omega_q
        self.method, self.path = [method] * len(self.omegas), [path] * len(self.omegas)
        self.spam, self.consistent, self.diagnostics = spam, consistent, diagnostics
        self.errors, self.block, self.iterations = list(errors), block, 0
        self._fail_invalid()

    def _fail_invalid(self) -> None:
        with np.errstate(invalid="ignore"):
            invalid = self.present & ~(np.isfinite(self.value) & np.isfinite(self.std_error) & (self.std_error >= 0.0))
        for i, j in zip(*np.nonzero(invalid)):  # in row order, so a row keeps its first
            value, err = float(self.value[i, j]), float(self.std_error[i, j])
            self.errors[i] = self.errors[i] or _invalid_estimate(self.components[j], value, err)

    def outcomes(self) -> list:
        """Each frequency's EstimatorResult, or the EstimationError that fails
        it, in grid order.  The standard inversions' values are numpy scalars,
        as the rows of their propagated arrays were."""
        names, outcomes = np.array(self.components, dtype=object), []
        for i, omega in enumerate(self.omegas.tolist()):
            outcome, present = self.errors[i], self.present[i]
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
    """One frequency's outcome, as :meth:`EstimateTable.outcomes` rebuilds it.

    ``path`` is ``"standard"`` for the single-time inversions and
    ``"linearized"``, ``"nonlinear"`` or ``"multi_axis"`` for the robust
    estimators.  ``alpha`` is the combined ``alpha = alpha_sp * alpha_m``
    (the robust estimators cannot separate the two factors; the nonlinear
    model sets ``alpha = alpha_m``); it, ``delta`` and their std errors are
    None for the standard inversions.  ``diagnostics`` holds what the
    estimator computed on the way: ``guard_value``, ``dropped_times`` and
    ``fits`` (linearized), ``covariance`` over (S+, S-, alpha, delta) and
    ``iterations`` (nonlinear), ``fits``, ``dropped_times`` per block,
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
        """The Gauss-Newton steps that the nonlinear fit took at this frequency."""
        return self.diagnostics["iterations"]


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
    """Straight-line fits of the rows of a stack, or of the frequencies of a
    grid: arrays over the rows (NaN where a row has no fit), each row's
    residuals and weights at its points and its EstimationError, or None."""

    slope: np.ndarray       # (k,)
    intercept: np.ndarray   # (k,)
    covariance: np.ndarray  # (k, 2, 2)
    residuals: list         # (k, n) of a stack; of a grid, each row's at its kept points
    weights: list           # likewise
    errors: list

    @property
    def slope_err(self) -> np.ndarray:
        return np.sqrt(_nonnegative(self.covariance[:, 0, 0]))

    @property
    def intercept_err(self) -> np.ndarray:
        return np.sqrt(_nonnegative(self.covariance[:, 1, 1]))

    def result(self, row: int) -> RegressionResult:
        """The fit of one row; its EstimationError if it failed."""
        if self.errors[row] is not None:
            raise self.errors[row]
        return RegressionResult(float(self.slope[row]), float(self.intercept[row]), self.covariance[row],
                                self.residuals[row], self.weights[row])


def _solve_rows(a, b) -> np.ndarray:
    """``np.linalg.solve`` of every system of the (k, m, m) and (k, m, p)
    stacks, NaN where one is singular.  Each system gets the LAPACK call that a
    single one gets: when one is singular, each is solved alone."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan)
        for row in range(len(a)):
            with contextlib.suppress(np.linalg.LinAlgError):
                out[row] = np.linalg.solve(a[row], b[row])
        return out


def _solve_lines(x, y, weights, scaled: bool):
    """Normal-equation fits of the rows of (k, n) arrays as stacked products and
    solves; each 2x2 system gets the BLAS and LAPACK calls a single one gets.
    A row whose normal matrix is singular is NaN."""
    design = np.empty(x.shape + (2,))  # (k, n, 2)
    design[..., 0], design[..., 1] = x, 1.0
    design_t = np.swapaxes(design, -1, -2)
    normal = design_t @ (weights[..., None] * design)
    rhs = design_t @ (weights * y)[..., None]
    params = _solve_rows(normal, rhs)
    normal_inv = _solve_rows(normal, np.broadcast_to(np.eye(2), normal.shape))
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
        raise EstimationError("stacked regression needs 2-D x and y of the same shape (k, n) with n >= 2")
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
    # one solve for every row that passed the checks
    rows = np.flatnonzero(~failed) if failed.any() else slice(None)
    slope[rows], intercept[rows], covariance[rows], residuals[rows] = _solve_lines(
        x[rows], y[rows], weights[rows], sigma is None)
    for row in np.flatnonzero(~failed & np.isnan(slope)).tolist():
        errors[row] = EstimationError("degenerate design matrix")
    return _Lines(slope, intercept, covariance, residuals, weights, errors)


def weighted_linreg(x, y, sigma=None) -> RegressionResult:
    """Straight-line fit by normal equations: the one-row case of the stacked
    regression (see :func:`_linreg_stack` for the covariance and the checks)."""
    sigma = None if sigma is None else np.asarray(sigma, dtype=float)[None]
    return _linreg_stack(np.asarray(x, dtype=float)[None], np.asarray(y, dtype=float)[None], sigma).result(0)


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


def _inversion_inputs(dataset: ShotDataset, points, omegas, times):
    """(expectations, variances, errors) of the ``points`` (name -> (drive_axis,
    init, observable)) at every frequency and its time in ``times`` (name ->
    (r,) times).  The arrays are (r, len(points)), NaN at a frequency that
    lacks a point, which reads none; ``errors[i]`` is the EstimationError
    naming the first point that frequency i lacks, else None."""
    series = dataset.series_rows(list(points.values()), omegas)
    at = np.stack([times[name] for name in points])[..., None]
    # a series holds each time once: its row at a time is the one hit, else -1
    hits = (series >= 0) & (dataset.column("time")[series] == at)
    rows = np.max(series, axis=-1, where=hits, initial=-1).T
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
    s_plus = _mapped(math.log, np.where(failed, 1.0, 2.0 / diff)) / duration
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
    points = {name: _MULTI_AXIS_POINTS[name] for name in ("x_p", "x_m")}
    at = np.full(len(omegas), float(duration))
    inputs, variances, missing = _inversion_inputs(dataset, points, omegas, dict.fromkeys(points, at))
    values, errs, failures = _propagate(lambda e: _single_axis_rates(e, duration), inputs, variances)
    return _inversion_table(omegas, ("S+_{0,0}", "S-_{0,0}"), values, errs, failures,
                            lambda e, check: _gap_error(e[0] - e[1]), missing)


def _paired_series(dataset: ShotDataset, drive_axis, omegas, inits, observable):
    """The two preparations' time series at every frequency, as one padded table.

    Returns ``(rows, matched, errors)``: ``rows`` holds the (r, n) dataset
    rows of the first and second preparation (:meth:`ShotDataset.series_rows`);
    ``matched[i]`` is whether frequency i's two series are non-empty and
    share their times; ``errors[i]`` is the EstimationError of a frequency
    whose preparations lack matching times, else None.
    """
    rows = dataset.series_rows([(drive_axis, init, observable) for init in inits], omegas)
    present, time = rows >= 0, dataset.column("time")
    same = (present[0] == present[1]) & ((time[rows[0]] == time[rows[1]]) | ~present[0])
    matched = present[0].any(axis=1) & same.all(axis=1)
    errors = [None if ok else _unmatched(drive_axis, omega, inits) for ok, omega in zip(matched.tolist(), omegas)]
    return rows, matched, errors


def _unmatched(drive_axis, omega, inits) -> EstimationError:
    return EstimationError(f"dataset lacks matching {inits} time series for drive {drive_axis} at omega={omega}")


MIN_REGRESSION_POINTS = 3


class _TooFewPointsError(EstimationError):
    """A pair block keeps fewer than ``MIN_REGRESSION_POINTS`` times."""


def _kept_fits(groups, keep, x, y, sigma) -> _Lines:
    """Straight-line fits of ``y`` against ``x``, (r, n) arrays, at the
    ``keep`` points of each frequency of ``groups``, as one table over the
    grid (NaN where a frequency is in no group): one stacked fit per group of
    (frequency indices, kept-time count, exactness), weighted by ``sigma``
    unless the group is exact."""
    r = len(keep)
    fits = _Lines(np.full(r, np.nan), np.full(r, np.nan), np.full((r, 2, 2), np.nan),
                  [None] * r, [None] * r, [None] * r)
    for index, m, exact in groups:
        kept = keep[index]
        lines = _linreg_stack(x[index][kept].reshape(-1, m), y[index][kept].reshape(-1, m),
                              None if exact else sigma[index][kept].reshape(-1, m))
        fits.slope[index], fits.intercept[index] = lines.slope, lines.intercept
        fits.covariance[index] = lines.covariance
        for i, residuals, weights, error in zip(index.tolist(), lines.residuals, lines.weights, lines.errors):
            fits.residuals[i], fits.weights[i], fits.errors[i] = residuals, weights, error
    return fits


@dataclass(frozen=True)
class _PairBlock:
    """One preparation pair's time series at every frequency of a grid, as
    padded (r, n) tables, with their log-difference fits ``(1/2)^half
    ln(2/diff)`` against time.

    ``rows`` holds the dataset rows of both preparations, -1 past each
    series' end (:func:`_paired_series`); ``valid`` marks the points of
    matched series and ``keep`` those of positive gap, the points every
    line is fitted at.  ``expectation`` and ``variance`` hold both
    preparations' points, and ``exact`` marks the frequencies whose variances
    are all 0.  ``groups`` splits the fitted frequencies by
    (kept-time count, exactness) for :func:`_kept_fits`.  ``dropped[i]``
    holds the times dropped for a non-positive gap (empty where the series
    failed).  ``fits`` is the grid's :class:`_Lines` table, and
    ``fits.errors[i]`` the EstimationError that fails frequency i, before or
    in its fit.  The quantum fits are a method because their regressor
    depends on the fitted slope.
    """

    rows: np.ndarray         # (2, r, n)
    valid: np.ndarray        # (r, n)
    keep: np.ndarray         # (r, n)
    times: np.ndarray        # (r, n)
    expectation: np.ndarray  # (2, r, n)
    variance: np.ndarray     # (2, r, n)
    exact: np.ndarray        # (r,)
    means: np.ndarray        # (r, n) (e+ + e-)/2
    mean_errs: np.ndarray    # (r, n) std errors of the means
    groups: list
    dropped: list
    fits: _Lines

    def quantum_fits(self, regressor) -> _Lines:
        """WLS of the preparation means against ``regressor(slope (r, 1), times
        (r, n))`` at the kept times of every fitted frequency."""
        with np.errstate(over="ignore", invalid="ignore"):
            x = regressor(self.fits.slope[:, None], self.times)
        return _kept_fits(self.groups, self.keep, x, self.means, self.mean_errs)


def _pair_block(dataset, drive_axis, omegas, inits, observable, *, half: bool = False) -> _PairBlock:
    """Fit (1/2)^half * ln(2/diff) against time at every frequency, dropping
    non-positive gaps; one stacked fit per (kept-time count, exactness).  A
    series with summed expectation variance 0 is exact: fitted unweighted.
    Every formula runs over the padded tables; only the kept points are fitted."""
    rows, matched, errors = _paired_series(dataset, drive_axis, omegas, inits, observable)
    valid = (rows[0] >= 0) & matched[:, None]
    times = dataset.column("time")[rows[0]]
    expectation, variance = dataset.column("expectation")[rows], dataset.column("expectation_variance")[rows]
    (e_plus, e_minus), spread = expectation, variance.sum(axis=0)
    diffs = e_plus - e_minus
    keep = valid & (diffs > 0.0)
    kept, exact = keep.sum(axis=1), ~(valid & (spread != 0.0)).any(axis=1)
    dropped = [()] * len(omegas)
    for i in np.flatnonzero(matched & ((kept < valid.sum(axis=1)) | (kept < MIN_REGRESSION_POINTS))).tolist():
        dropped[i] = tuple(times[i][valid[i] & ~keep[i]].tolist())
        if kept[i] < MIN_REGRESSION_POINTS:
            cause = f" after dropping non-positive expectation gaps at T = {list(dropped[i])}" if dropped[i] else ""
            errors[i] = _TooFewPointsError(f"only {int(kept[i])} usable time points{cause}")
    keys = np.where(matched & (kept >= MIN_REGRESSION_POINTS), 2 * kept + exact, -1)
    groups = [(np.flatnonzero(keys == key), *divmod(key, 2)) for key in sorted(set(keys.tolist()) - {-1})]
    factor = 0.5 if half else 1.0
    root = np.sqrt(spread)
    with np.errstate(divide="ignore", invalid="ignore"):
        y, sigma = factor * np.log(2.0 / diffs), factor * root / diffs
    fits = _kept_fits(groups, keep, times, y, sigma)
    fits.errors[:] = [error or fit_error for error, fit_error in zip(errors, fits.errors)]
    return _PairBlock(rows, valid, keep, times, expectation, variance, exact,
                      0.5 * (e_plus + e_minus), 0.5 * root, groups, dropped, fits)


# largest S+ T at which the linearized quantum line is trusted
LINEARIZATION_GUARD = 0.1


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
    line's ``max(S+ T)``, a :class:`LinearizationGuardError`, which
    :func:`robust_single_axis_nonlinear` replaces by its fit from the table's
    ``block`` and lines.  The table also holds that fit's ``S-_{0,0}`` column.
    """
    omegas = list(omegas)
    drive_axis, inits, observable = PAIRS["x"]
    block = _pair_block(dataset, drive_axis, omegas, inits, observable)
    classical, quantum = block.fits, block.quantum_fits(lambda slope, times: times)
    guard = np.max(classical.slope[:, None] * block.times, axis=1, where=block.valid, initial=-np.inf)
    absent = np.full(len(omegas), np.nan)
    errors = [classical.errors[i] or quantum.errors[i] for i in range(len(omegas))]
    for i in np.flatnonzero(np.equal(errors, None) & (guard > LINEARIZATION_GUARD)).tolist():
        errors[i] = LinearizationGuardError(f"max(S+ T) = {guard[i]:.3g} exceeds the linearization guard "
                                            f"{LINEARIZATION_GUARD:g}; use robust_single_axis_nonlinear")
    alpha = _mapped(math.exp, -classical.intercept)

    def diagnostics(i):
        return {"guard_value": float(guard[i]), "dropped_times": block.dropped[i],
                "fits": {"classical": classical.result(i), "quantum": quantum.result(i)}}

    return EstimateTable(
        omegas, errors, Method.ROBUST_LINEAR, "linearized", ("S+_{0,0}", "alpha_m*S-_{0,0}", "S-_{0,0}"),
        np.stack([classical.slope, quantum.slope, absent], axis=1),
        np.stack([classical.slope_err, quantum.slope_err, absent], axis=1),
        present=[True, True, False], diagnostics=diagnostics, block=block,
        spam=np.stack([alpha, alpha * classical.intercept_err, quantum.intercept, quantum.intercept_err], axis=1),
    )


# Gauss-Newton steps after which a frequency that has not converged fails
MAX_ITERATIONS = 50
# a frequency has converged once its step is within FIT_TOLERANCE (|theta| + FIT_TOLERANCE)
FIT_TOLERANCE = 1e-12
_SIGNS = np.array([[1.0], [-1.0]])  # the x+ and the x- preparation


def _residuals_and_jacobian(theta, times, y, sigma):
    """Standardised residuals (k, 2m) of both preparations' series (x+, then
    x-) under :func:`single_axis_forward` at the rows ``theta`` (k, 4) of
    (S+, S-, alpha_m, delta), and their analytic Jacobian (k, 2m, 4).
    ``times`` is (k, 1, m), ``y`` and ``sigma`` (k, 2, m)."""
    s_plus, s_minus, alpha_m, delta = theta.T[..., None, None]
    model = single_axis_forward(s_plus, s_minus, times, _SIGNS, alpha_m=alpha_m, delta=delta)
    decay = np.exp(-s_plus * times)
    with np.errstate(divide="ignore", invalid="ignore"):
        # (1 - e^{-S+ T}) / S+ and its S+ derivative, with their limits at S+ = 0
        gain = np.where(s_plus != 0.0, (1.0 - decay) / s_plus, times)
        gain_slope = np.where(s_plus != 0.0, (times * decay - gain) / s_plus, -0.5 * times * times)
    columns = np.broadcast_arrays(alpha_m * (s_minus * gain_slope - _SIGNS * times * decay), alpha_m * gain,
                                  _SIGNS * decay + s_minus * gain, 1.0)
    jacobian = np.stack(columns, axis=-1) / sigma[..., None]
    k, n = len(theta), 2 * times.shape[-1]
    return ((model - y) / sigma).reshape(k, n), jacobian.reshape(k, n, 4)


def robust_single_axis_nonlinear(table: EstimateTable) -> EstimateTable:
    """Joint least-squares fit of (S+, S-, alpha_m, delta) at every frequency
    where ``table``, a table of :func:`robust_single_axis_linearized`, holds
    a :class:`LinearizationGuardError`; puts each outcome in its row and
    returns ``table``, whose ``iterations`` is then the most steps taken.

    Models both preparation series with ``alpha approx alpha_m`` (negligible
    preparation errors; the fitted ``alpha_m`` is reported as ``alpha``) and
    minimises their standardised residuals, with unit scales where every
    std error is 0 (exact data), by undamped Gauss-Newton steps from the
    lines of the rejected linearized fit.  The series are the padded arrays
    of ``table.block``, dropped times included.  Each step is one stacked
    solve per group of (series length, exactness), and a frequency stops once
    its step is within ``FIT_TOLERANCE``, so its bits do not depend on the
    other frequencies.  The covariance is (J^T J)^-1 at the solution, scaled
    by 2 cost / dof on exact data.  No parameter is bounded: a box such as
    delta in [0, 1] pins noisy fits to its edge and shrinks their spread
    below the reported error.  Fewer than 4 times, a non-finite iterate, no
    convergence in ``MAX_ITERATIONS`` steps or a singular J^T J at the
    solution fails the frequency with an EstimationError naming the cause.
    """
    block = table.block
    guarded = np.flatnonzero([isinstance(error, LinearizationGuardError) for error in table.errors])
    value, spam = table.value[guarded], table.spam[guarded]
    # the classical slope, the quantum slope over alpha, alpha and the quantum intercept
    theta = np.stack([value[:, 0], value[:, 1] / spam[:, 0], spam[:, 0], spam[:, 2]], axis=1)
    covariance, steps = np.full((len(guarded), 4, 4), np.nan), np.zeros(len(guarded), dtype=int)
    lengths = block.valid[guarded].sum(axis=1)
    errors = [None if n >= 4 else EstimationError("non-linear fit needs at least 4 time points") for n in lengths]
    keys = np.where(lengths >= 4, 2 * lengths + block.exact[guarded], -1)
    for key in sorted(set(keys.tolist()) - {-1}):
        group, (m, exact) = np.flatnonzero(keys == key), divmod(key, 2)
        index = guarded[group]
        times, y = block.times[index, None, :m], np.swapaxes(block.expectation[:, index, :m], 0, 1)
        sigma = np.ones_like(y) if exact else np.sqrt(np.swapaxes(block.variance[:, index, :m], 0, 1))
        converged, active = np.zeros(len(group), dtype=bool), np.arange(len(group))
        with np.errstate(all="ignore"):
            for count in range(1, MAX_ITERATIONS + 1):
                rows = group[active]
                residuals, jac = _residuals_and_jacobian(theta[rows], times[active], y[active], sigma[active])
                jac_t = np.swapaxes(jac, 1, 2)
                step = _solve_rows(jac_t @ jac, -(jac_t @ residuals[..., None]))[..., 0]
                theta[rows] += step
                steps[rows] = count
                finite = np.isfinite(theta[rows]).all(axis=1)
                tolerance = FIT_TOLERANCE * (FIT_TOLERANCE + np.linalg.norm(theta[rows], axis=1))
                converged[active] = finite & (np.linalg.norm(step, axis=1) <= tolerance)
                active = active[finite & ~converged[active]]
                if not active.size:
                    break
            done = np.flatnonzero(converged)
            residuals, jac = _residuals_and_jacobian(theta[group[done]], times[done], y[done], sigma[done])
            jac_t = np.swapaxes(jac, 1, 2)
            cov = _solve_rows(jac_t @ jac, np.broadcast_to(np.eye(4), (len(done), 4, 4)))
            if exact:
                cost = 0.5 * (residuals[:, None, :] @ residuals[:, :, None])
                cov = cov * (2.0 * cost / (2 * m - 4))
        covariance[group[done]] = cov
        for j, ok, fit_cov in zip(group.tolist(), converged.tolist(), covariance[group]):
            if not ok:
                errors[j] = EstimationError(f"non-linear fit did not converge in {MAX_ITERATIONS} steps"
                                            if np.isfinite(theta[j]).all() else
                                            f"non-linear fit diverged: non-finite parameters after {steps[j]} steps")
            elif np.isnan(fit_cov).any():
                errors[j] = EstimationError("singular covariance in non-linear fit")
    errs = np.sqrt(np.clip(np.diagonal(covariance, axis1=1, axis2=2), 0.0, None))
    table.value[guarded[:, None], [0, 2]], table.std_error[guarded[:, None], [0, 2]] = theta[:, :2], errs[:, :2]
    table.spam[guarded] = np.stack([theta[:, 2], errs[:, 2], theta[:, 3], errs[:, 3]], axis=1)
    table.present[guarded] = [True, False, True]
    fitted = {}
    for j, i in enumerate(guarded.tolist()):
        table.errors[i], table.method[i], table.path[i] = errors[j], Method.ROBUST_NONLINEAR, "nonlinear"
        fitted[i] = {"covariance": covariance[j], "iterations": int(steps[j])}
    table._fail_invalid()
    linearized, table.iterations = table.diagnostics, int(steps.max(initial=0))
    table.diagnostics = lambda i: fitted[i] if i in fitted else linearized(i)
    return table


# ---------------------------------------------------------------------------
# multi-axis estimators
# ---------------------------------------------------------------------------

# the points of the single-time multi-axis inversion, the PAIRS in check order:
# name -> (drive_axis, init, observable); the coherence pair "c" is optional
_MULTI_AXIS_POINTS = {f"{name}_{sign}": (drive_axis, init, observable)
                      for name, (drive_axis, inits, observable) in PAIRS.items() for sign, init in zip("pm", inits)}
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
    logs = _mapped(math.log, np.where(failed, 1.0, 2.0 / diffs))
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


def _first_errors(*grids: _Lines) -> list:
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
    a, b = _mapped(_square, [s_plus[p] / alpha[p] * slope_err[p], slope[p] / alpha[p] * s_plus_err[p]])
    err[p] = np.sqrt(a + b)
    a, b, c = _mapped(_square, [slope_err[r] / slope[r], s_plus_err[r] / s_plus[r], alpha_err[r] / alpha[r]])
    err[r] = np.abs(value[r]) * np.sqrt(a + b + c)
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
    # the z observable's lines are halved
    zp, zm, x, aligned = (_pair_block(dataset, drive_axis, omegas, inits, observable, half=observable == "z")
                          for drive_axis, inits, observable in PAIRS.values())
    n_aligned = (aligned.rows[0] >= 0).sum(axis=1).tolist()
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
    ln_alpha_vars = _mapped(_square, np.where(present, factors * intercept_errs, 0.0))
    ln_alpha, ln_alpha_err = _combine_inverse_variance(ln_alpha_vals, ln_alpha_vars, present)
    with np.errstate(invalid="ignore"):
        z_scores = np.abs(ln_alpha_vals - ln_alpha[:, None]) / np.maximum(np.sqrt(ln_alpha_vars),
                                                                          INTERCEPT_ROUND_OFF)
    max_z = _first_max(z_scores, present)
    consistent = max_z <= INTERCEPT_CONSISTENCY_Z
    alpha = _mapped(math.exp, ln_alpha)
    alpha_err = alpha * ln_alpha_err

    # quantum regressions on exact decay regressors
    qf_zp = zp.quantum_fits(lambda s, t: np.expm1(-2.0 * s * t))
    qf_zm = zm.quantum_fits(lambda s, t: -np.expm1(-2.0 * s * t))
    qf_x = x.quantum_fits(lambda s, t: -np.expm1(-s * t))
    quantum_errors = _first_errors(qf_zp, qf_zm, qf_x)
    delta, delta_err = _combine_inverse_variance(
        np.stack([q.intercept for q in (qf_zp, qf_zm, qf_x)], axis=1),
        _mapped(_square, np.stack([q.intercept_err for q in (qf_zp, qf_zm, qf_x)], axis=1)),
    )
    s_plus_up, s_plus_dn, a_rate = zp.fits.slope, zm.fits.slope, x.fits.slope
    s_plus_up_err, s_plus_dn_err, a_rate_err = zp.fits.slope_err, zm.fits.slope_err, x.fits.slope_err
    s_minus_up, s_minus_up_err = _unscale(qf_zp.slope, qf_zp.slope_err, s_plus_up, s_plus_up_err, alpha, alpha_err)
    s_minus_dn, s_minus_dn_err = _unscale(qf_zm.slope, qf_zm.slope_err, s_plus_dn, s_plus_dn_err, alpha, alpha_err)
    b_rate, b_rate_err = _unscale(qf_x.slope, qf_x.slope_err, a_rate, a_rate_err, alpha, alpha_err)

    s00_plus, s00_minus = _dephasing_rates(a_rate, b_rate, s_plus_up, s_plus_dn, s_minus_up, s_minus_dn)
    a2, up2, dn2, b2, minus_up2, minus_dn2, aligned2 = _mapped(_square, [
        a_rate_err, s_plus_up_err, s_plus_dn_err, b_rate_err, s_minus_up_err, s_minus_dn_err, aligned.fits.slope_err])
    s00_plus_err = np.sqrt(a2 + 0.25 * (up2 + dn2))
    s00_minus_err = np.sqrt(b2 + 0.25 * (minus_up2 + minus_dn2))
    # aligned-line slope is the coherence rate S+[1,-1](W+wq) + 2 S00(0)
    s00_zero = 0.5 * (aligned.fits.slope - s_plus_up)
    s00_zero_err = 0.5 * np.sqrt(aligned2 + up2)

    for i in np.flatnonzero(np.equal(errors, None) & (np.not_equal(skipped, None) | ~consistent)).tolist():
        if skipped[i] is not None:
            _warn(f"skipping the aligned coherence block: {n_aligned[i]} aligned times, {skipped[i]} "
                  f"(fewer than {MIN_REGRESSION_POINTS}); S_{{0,0}}(0) is not estimated")
        if not consistent[i]:
            _warn(f"SPAM intercepts disagree at z = {float(max_z[i]):.2f} (> {INTERCEPT_CONSISTENCY_Z}); "
                  "the combined alpha estimate may be unreliable")

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
