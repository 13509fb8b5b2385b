"""Spectral and SPAM-parameter estimators.

Closed-form inversions, weighted linear regression, a bounded non-linear
least-squares fit (``scipy.optimize.least_squares``), and first-order
(delta-method) uncertainty propagation.

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
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

from .dynamics import _decay_weight
from .spam import ShotDataset, ShotRecord, expectation_std_error

__all__ = [
    "EstimationError",
    "LinearizationGuardError",
    "Method",
    "SpectralEstimate",
    "RegressionResult",
    "weighted_linreg",
    "invert_single_axis",
    "estimate_single_axis_standard",
    "robust_single_axis_linearized",
    "robust_single_axis_nonlinear",
    "invert_multi_axis",
    "robust_multi_axis",
    "single_axis_forward",
    "RobustLinearizedResult",
    "NonlinearFitResult",
    "MultiAxisStandardResult",
    "RobustMultiAxisResult",
]

Z_95 = 1.959963984540054  # two-sided 95 % normal quantile


class EstimationError(RuntimeError):
    """Estimator could not produce a value from the given data."""


class LinearizationGuardError(EstimationError):
    """Data violate the small-decay guard; use the non-linear path."""


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
        if not (np.isfinite(self.value) and np.isfinite(self.std_error) and self.std_error >= 0.0):
            raise EstimationError(f"invalid estimate {self.component}: {self.value} +- {self.std_error}")

    @property
    def ci95(self) -> tuple[float, float]:
        half = Z_95 * self.std_error
        return self.value - half, self.value + half

    def covers(self, truth: float) -> bool:
        lo, hi = self.ci95
        return lo <= truth <= hi


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


def weighted_linreg(x, y, sigma=None) -> RegressionResult:
    """Straight-line fit by normal equations.

    With per-point standard errors ``sigma`` the parameter covariance is the
    inverse normal matrix (errors taken as known absolute scales); without
    them an ordinary fit is done and the covariance is scaled by the
    residual variance.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or x.size < 2:
        raise EstimationError("regression needs 1-D x, y of equal length >= 2")
    if np.unique(x).size < 2:
        raise EstimationError("regression needs at least 2 distinct x values")
    if sigma is not None:
        sigma = np.asarray(sigma, dtype=float)
        if np.any(sigma <= 0.0):
            raise EstimationError("regression std errors must be > 0")
        weights = 1.0 / sigma**2
    else:
        weights = np.ones_like(x)

    design = np.column_stack([x, np.ones_like(x)])
    normal = design.T @ (weights[:, None] * design)
    rhs = design.T @ (weights * y)
    try:
        params = np.linalg.solve(normal, rhs)
        normal_inv = np.linalg.inv(normal)
    except np.linalg.LinAlgError as exc:
        raise EstimationError("degenerate design matrix") from exc
    residuals = y - design @ params
    if sigma is None:
        dof = x.size - 2
        scale = float(residuals @ residuals) / dof if dof > 0 else 0.0
        covariance = scale * normal_inv
    else:
        covariance = normal_inv
    return RegressionResult(
        slope=float(params[0]),
        intercept=float(params[1]),
        covariance=covariance,
        residuals=residuals,
        weights=weights,
    )


# ---------------------------------------------------------------------------
# delta-method propagation
# ---------------------------------------------------------------------------


def _propagate(func, inputs: np.ndarray, variances: np.ndarray):
    """First-order propagation of independent input variances through func."""
    inputs = np.asarray(inputs, dtype=float)
    variances = np.asarray(variances, dtype=float)
    values = np.atleast_1d(np.asarray(func(inputs), dtype=float))
    if np.all(variances == 0.0):
        return values, np.zeros_like(values)
    jac = np.empty((values.size, inputs.size))
    for i in range(inputs.size):
        h = 1e-6 * max(abs(inputs[i]), 1.0)
        bumped_up = inputs.copy()
        bumped_up[i] += h
        bumped_dn = inputs.copy()
        bumped_dn[i] -= h
        jac[:, i] = (np.atleast_1d(func(bumped_up)) - np.atleast_1d(func(bumped_dn))) / (2.0 * h)
    var_out = jac @ np.diag(variances) @ jac.T
    return values, np.sqrt(np.clip(np.diag(var_out), 0.0, None))


# ---------------------------------------------------------------------------
# single-axis estimators
# ---------------------------------------------------------------------------


def invert_single_axis(exp_plus: float, exp_minus: float, duration: float) -> tuple[float, float]:
    """Closed-form (S+, S-) from the two x-drive expectations at one time."""
    diff = exp_plus - exp_minus
    if not (0.0 < diff <= 2.0 + 1e-12):
        raise EstimationError(
            f"expectation gap {diff:.3g} outside (0, 2]: decoherence floor reached"
        )
    s_plus = math.log(2.0 / diff) / duration
    mean = 0.5 * (exp_plus + exp_minus)
    s_minus = mean / _decay_weight(s_plus, duration)
    return s_plus, s_minus


def single_axis_forward(
    s_plus: float,
    s_minus: float,
    duration,
    sign: int,
    *,
    alpha_sp: float = 1.0,
    alpha_m: float = 1.0,
    delta: float = 0.0,
    rate_scale: float = 1.0,
) -> np.ndarray:
    """SPAM-corrupted x-drive expectation(s) for the |x_sign> preparation.

    ``rate_scale = 2`` reuses the same form for the z-drive populations,
    whose decay rate is twice the classical transverse spectrum.
    """
    t = np.asarray(duration, dtype=float)
    decay = np.exp(-rate_scale * s_plus * t)
    drift = (s_minus / s_plus) * (1.0 - decay) if s_plus != 0.0 else rate_scale * s_minus * t
    ideal = sign * alpha_sp * decay + drift
    return alpha_m * ideal + delta


def estimate_single_axis_standard(
    rec_plus: ShotRecord,
    rec_minus: ShotRecord,
    duration: float,
    omega: float,
) -> tuple[SpectralEstimate, SpectralEstimate]:
    """Protocol-1 inversion with shot-noise error bars."""

    def f(e):
        return np.array(invert_single_axis(e[0], e[1], duration))

    inputs = np.array([rec_plus.expectation, rec_minus.expectation])
    variances = np.array([expectation_std_error(rec_plus) ** 2, expectation_std_error(rec_minus) ** 2])
    values, errs = _propagate(f, inputs, variances)
    return (
        SpectralEstimate("S+_{0,0}", "Omega", omega, values[0], errs[0], Method.STANDARD),
        SpectralEstimate("S-_{0,0}", "Omega", omega, values[1], errs[1], Method.STANDARD),
    )


def _series(dataset: ShotDataset, drive_axis: str, omega: float, inits: tuple[str, str], observable: str):
    """Paired time series for the two preparations; times must match."""
    t_plus = dataset.times(drive_axis, omega, inits[0], observable)
    t_minus = dataset.times(drive_axis, omega, inits[1], observable)
    if not t_plus or t_plus != t_minus:
        raise EstimationError(
            f"dataset lacks matching {inits} time series for drive {drive_axis} at omega={omega}"
        )
    recs_plus = [dataset.get(drive_axis, omega, inits[0], observable, t) for t in t_plus]
    recs_minus = [dataset.get(drive_axis, omega, inits[1], observable, t) for t in t_plus]
    return np.asarray(t_plus, dtype=float), recs_plus, recs_minus


MIN_REGRESSION_POINTS = 3


class _TooFewPointsError(EstimationError):
    """A pair block keeps fewer than ``MIN_REGRESSION_POINTS`` times."""


@dataclass(frozen=True)
class _PairBlock:
    """One preparation pair's time series with its log-difference fit.

    The quantum fit is a method because its regressor depends on the
    fitted slope (and the linearized path checks its guard first).
    """

    times: np.ndarray
    means: np.ndarray      # (e+ + e-)/2
    var_sums: np.ndarray   # var(e+) + var(e-)
    keep: np.ndarray       # times with a positive expectation gap
    dropped: tuple
    analytic: bool
    half: bool
    fit: RegressionResult  # (1/2)^half ln(2/diff) against time

    def quantum_fit(self, regressor: np.ndarray) -> RegressionResult:
        """WLS of the preparation mean against ``regressor`` at the kept times."""
        keep = self.keep
        sigma = None if self.analytic else 0.5 * np.sqrt(self.var_sums[keep])
        return weighted_linreg(regressor[keep], self.means[keep], sigma)


def _pair_block(dataset, drive_axis, omega, inits, observable, *, half: bool = False) -> _PairBlock:
    """Fit (1/2)^half * ln(2/diff) against time, dropping non-positive gaps."""
    times, recs_plus, recs_minus = _series(dataset, drive_axis, omega, inits, observable)
    analytic = all(r.analytic for r in recs_plus + recs_minus)
    e_plus = np.array([r.expectation for r in recs_plus])
    e_minus = np.array([r.expectation for r in recs_minus])
    var_plus = np.array([expectation_std_error(r) ** 2 for r in recs_plus])
    var_minus = np.array([expectation_std_error(r) ** 2 for r in recs_minus])
    diffs, var_sums = e_plus - e_minus, var_plus + var_minus
    keep = diffs > 0.0
    dropped = tuple(float(t) for t in times[~keep])
    if keep.sum() < MIN_REGRESSION_POINTS:
        cause = f" after dropping non-positive expectation gaps at T = {list(dropped)}" if dropped else ""
        raise _TooFewPointsError(f"only {int(keep.sum())} usable time points{cause}")
    factor = 0.5 if half else 1.0
    y = factor * np.log(2.0 / diffs[keep])
    sigma = None
    if not analytic:
        sigma = factor * np.sqrt(var_sums[keep]) / diffs[keep]
    fit = weighted_linreg(times[keep], y, sigma)
    return _PairBlock(times, 0.5 * (e_plus + e_minus), var_sums, keep, dropped, analytic, half, fit)


# largest S+ T at which the linearized quantum line is trusted
LINEARIZATION_GUARD = 0.1


@dataclass(frozen=True)
class RobustLinearizedResult:
    s_plus: SpectralEstimate
    am_s_minus: SpectralEstimate  # alpha_m-scaled quantum spectrum
    alpha: float
    alpha_err: float
    delta: float
    delta_err: float
    classical_fit: RegressionResult
    quantum_fit: RegressionResult
    guard_value: float
    dropped_times: tuple = ()


def robust_single_axis_linearized(
    dataset: ShotDataset,
    omega: float,
    *,
    enforce_guard: bool = True,
) -> RobustLinearizedResult:
    """Small-decay robust estimation: two straight-line fits.

    Classical path: ``ln[2/(e+ - e-)]`` vs T gives the classical spectrum as
    the slope and ``-ln(alpha)`` as the intercept (this line is exact).
    Quantum path: ``(e+ + e-)/2`` vs T gives ``alpha_m S-`` as the slope and
    ``delta`` as the intercept, valid only while ``S+ T`` stays small; the
    guard rejects data outside that regime.
    """
    block = _pair_block(dataset, "x", omega, ("x+", "x-"), "x")
    classical_fit = block.fit
    s_plus_val = classical_fit.slope
    guard_value = float(np.max(s_plus_val * block.times))
    if enforce_guard and guard_value > LINEARIZATION_GUARD:
        raise LinearizationGuardError(
            f"max(S+ T) = {guard_value:.3g} exceeds the linearization guard "
            f"{LINEARIZATION_GUARD:g}; use robust_single_axis_nonlinear"
        )

    quantum_fit = block.quantum_fit(block.times)

    alpha = math.exp(-classical_fit.intercept)
    alpha_err = alpha * classical_fit.intercept_err
    return RobustLinearizedResult(
        s_plus=SpectralEstimate(
            "S+_{0,0}", "Omega", omega, s_plus_val, classical_fit.slope_err, Method.ROBUST_LINEAR
        ),
        am_s_minus=SpectralEstimate(
            "alpha_m*S-_{0,0}", "Omega", omega, quantum_fit.slope, quantum_fit.slope_err, Method.ROBUST_LINEAR
        ),
        alpha=alpha,
        alpha_err=alpha_err,
        delta=quantum_fit.intercept,
        delta_err=quantum_fit.intercept_err,
        classical_fit=classical_fit,
        quantum_fit=quantum_fit,
        guard_value=guard_value,
        dropped_times=block.dropped,
    )


@dataclass(frozen=True)
class NonlinearFitResult:
    """Joint fit; ``alpha_m`` absorbs ``alpha_sp`` since the model sets ``alpha = alpha_m``.

    ``iterations`` is the solver's ``nfev``: its residual evaluations, not
    counting those of the finite-difference Jacobian.
    """

    s_plus: SpectralEstimate
    s_minus: SpectralEstimate
    alpha_m: float
    alpha_m_err: float
    delta: float
    delta_err: float
    covariance: np.ndarray  # 4x4 over (S+, S-, alpha_m, delta)
    iterations: int


# xtol, ftol and gtol of the solver; scipy's 1e-8 default stops ~1e-7 short
# of the truth on exact data
FIT_TOLERANCE = 1e-12


def robust_single_axis_nonlinear(dataset: ShotDataset, omega: float) -> NonlinearFitResult:
    """Joint bounded least-squares fit of (S+, S-, alpha_m, delta).

    Models both preparation series with ``alpha approx alpha_m`` (negligible
    preparation errors) and minimises the standardised residuals with
    scipy's trust-region-reflective solver (Branch, Coleman & Li, SIAM J.
    Sci. Comput. 21, 1999), started from the unguarded linearized estimate.
    The bounds are independent: ``S+ >= 0`` and ``alpha_m, delta`` in
    [0, 1].  The joint physical region ``alpha_m + delta <= 1`` is not a box
    and is not imposed, so a noisy fit may exceed it slightly; clipping such
    fits would bias the estimate.
    """
    times, recs_plus, recs_minus = _series(dataset, "x", omega, ("x+", "x-"), "x")
    if times.size < 4:
        raise EstimationError("non-linear fit needs at least 4 time points")
    recs = recs_plus + recs_minus
    analytic = all(r.analytic for r in recs)
    y = np.array([r.expectation for r in recs])
    sig = np.ones_like(y) if analytic else np.array([expectation_std_error(r) for r in recs])

    def residuals(theta):
        s_plus, s_minus, alpha_m, delta = theta
        model = [
            single_axis_forward(s_plus, s_minus, times, sign, alpha_m=alpha_m, delta=delta)
            for sign in (+1, -1)
        ]
        return (np.concatenate(model) - y) / sig

    bounds = ([0.0, -np.inf, 0.0, 0.0], [np.inf, np.inf, 1.0, 1.0])
    lin = robust_single_axis_linearized(dataset, omega, enforce_guard=False)
    start = np.clip([lin.s_plus.value, lin.am_s_minus.value / lin.alpha, lin.alpha, lin.delta], *bounds)
    fit = least_squares(
        residuals, start, bounds=bounds,
        xtol=FIT_TOLERANCE, ftol=FIT_TOLERANCE, gtol=FIT_TOLERANCE,
    )
    if not fit.success:
        raise EstimationError(f"non-linear fit failed after {fit.nfev} evaluations: {fit.message}")
    try:
        covariance = np.linalg.inv(fit.jac.T @ fit.jac)
    except np.linalg.LinAlgError as exc:
        raise EstimationError("singular covariance in non-linear fit") from exc
    if analytic:
        dof = max(y.size - 4, 1)
        covariance = covariance * (2.0 * fit.cost / dof)
    errs = np.sqrt(np.clip(np.diag(covariance), 0.0, None))
    theta = fit.x

    return NonlinearFitResult(
        s_plus=SpectralEstimate("S+_{0,0}", "Omega", omega, theta[0], errs[0], Method.ROBUST_NONLINEAR),
        s_minus=SpectralEstimate("S-_{0,0}", "Omega", omega, theta[1], errs[1], Method.ROBUST_NONLINEAR),
        alpha_m=theta[2],
        alpha_m_err=errs[2],
        delta=theta[3],
        delta_err=errs[3],
        covariance=covariance,
        iterations=fit.nfev,
    )


# ---------------------------------------------------------------------------
# multi-axis estimators
# ---------------------------------------------------------------------------

_COMPONENTS = {
    "S+_{1,-1}": "Omega+omega_q",
    "S-_{-1,1}": "-Omega-omega_q",
    "S+_{-1,1}": "Omega-omega_q",
    "S-_{1,-1}": "-Omega+omega_q",
    "S_{0,0}": "0",
    "S+_{0,0}": "Omega",
    "S-_{0,0}": "Omega",
    "A": "Omega",
    "B": "Omega",
}


def _freq_value(label: str, omega: float, omega_q: float) -> float:
    return {
        "Omega+omega_q": omega + omega_q,
        "-Omega-omega_q": -omega - omega_q,
        "Omega-omega_q": omega - omega_q,
        "-Omega+omega_q": -omega + omega_q,
        "Omega": omega,
        "0": 0.0,
    }[label]


@dataclass(frozen=True)
class MultiAxisStandardResult:
    estimates: dict
    omega: float

    def __getitem__(self, component: str) -> SpectralEstimate:
        return self.estimates[component]


def invert_multi_axis(
    dataset: ShotDataset,
    omega: float,
    omega_q: float,
    duration: float,
    aligned_duration: float | None = None,
) -> MultiAxisStandardResult:
    """Single-time multi-axis inversion (no SPAM correction).

    Requires the six (or eight, with the aligned coherence pair) expectations
    of the three-drive protocol at one evolution time per drive.
    """
    rec = {
        "zp_p": dataset.get("z+", omega, "z+", "z", duration),
        "zp_m": dataset.get("z+", omega, "z-", "z", duration),
        "zm_p": dataset.get("z-", omega, "z+", "z", duration),
        "zm_m": dataset.get("z-", omega, "z-", "z", duration),
        "x_p": dataset.get("x", omega, "x+", "x", duration),
        "x_m": dataset.get("x", omega, "x-", "x", duration),
    }
    names = ["zp_p", "zp_m", "zm_p", "zm_m", "x_p", "x_m"]
    has_aligned = aligned_duration is not None
    if has_aligned:
        rec["c_p"] = dataset.get("z+", omega, "x+", "x", aligned_duration)
        rec["c_m"] = dataset.get("z+", omega, "x-", "x", aligned_duration)
        names += ["c_p", "c_m"]

    def f(e):
        vals = dict(zip(names, e))

        def log_pair(p, m, t, half):
            diff = vals[p] - vals[m]
            if diff <= 0.0:
                raise EstimationError(
                    f"expectation gap for ({p},{m}) is {diff:.3g} <= 0: decoherence floor"
                )
            return (0.5 if half else 1.0) * math.log(2.0 / diff) / t

        s_plus_up = log_pair("zp_p", "zp_m", duration, half=True)       # S+[1,-1](W+wq)
        s_plus_dn = log_pair("zm_p", "zm_m", duration, half=True)       # S+[-1,1](W-wq)
        a_rate = log_pair("x_p", "x_m", duration, half=False)           # A(W)

        mean_zp = 0.5 * (vals["zp_p"] + vals["zp_m"])
        mean_zm = 0.5 * (vals["zm_p"] + vals["zm_m"])
        mean_x = 0.5 * (vals["x_p"] + vals["x_m"])
        s_minus_up = -mean_zp / (2.0 * _decay_weight(2.0 * s_plus_up, duration))  # S-[-1,1](-W-wq)
        s_minus_dn = mean_zm / (2.0 * _decay_weight(2.0 * s_plus_dn, duration))   # S-[1,-1](-W+wq)
        b_rate = mean_x / _decay_weight(a_rate, duration)                          # B(W)

        s00_plus = a_rate - 0.5 * (s_plus_up + s_plus_dn)
        s00_minus = b_rate + 0.5 * (s_minus_up + s_minus_dn)

        out = [s_plus_up, s_minus_up, s_plus_dn, s_minus_dn, a_rate, b_rate, s00_plus, s00_minus]
        if has_aligned:
            # coherence rate is S+[1,-1](W+wq) + 2 S00(0)
            gamma_hat = log_pair("c_p", "c_m", aligned_duration, half=False)
            out.append(0.5 * (gamma_hat - s_plus_up))
        return np.array(out)

    inputs = np.array([rec[n].expectation for n in names])
    variances = np.array([expectation_std_error(rec[n]) ** 2 for n in names])
    values, errs = _propagate(f, inputs, variances)

    order = ["S+_{1,-1}", "S-_{-1,1}", "S+_{-1,1}", "S-_{1,-1}", "A", "B", "S+_{0,0}", "S-_{0,0}"]
    if has_aligned:
        order.append("S_{0,0}")
    estimates = {}
    for comp, value, err in zip(order, values, errs):
        label = _COMPONENTS[comp]
        estimates[comp] = SpectralEstimate(
            comp, label, _freq_value(label, omega, omega_q), value, err, Method.STANDARD
        )
    return MultiAxisStandardResult(estimates=estimates, omega=omega)


@dataclass(frozen=True)
class RobustMultiAxisResult:
    """Robust multi-axis estimates.

    ``alpha_m`` is the combined ``alpha = alpha_sp * alpha_m`` read off the
    intercepts; the two factors are not separately identifiable.
    """

    estimates: dict
    omega: float
    alpha_m: float
    alpha_m_err: float
    delta: float
    delta_err: float
    intercept_max_z: float
    intercept_consistent: bool
    fits: dict = field(repr=False, default_factory=dict)

    def __getitem__(self, component: str) -> SpectralEstimate:
        return self.estimates[component]


INTERCEPT_CONSISTENCY_Z = 3.0
# floor on an intercept std error in its z-score: on exact data the intercept
# spread and the fitted std errors are both float round-off
INTERCEPT_ROUND_OFF = 1e-12


def _combine_inverse_variance(values, variances):
    values = np.asarray(values, dtype=float)
    variances = np.asarray(variances, dtype=float)
    if np.all(variances == 0.0):
        return float(values.mean()), 0.0
    floor = max(np.min(variances[variances > 0.0], initial=1e-30), 1e-30)
    w = 1.0 / np.maximum(variances, floor)
    mean = float(np.sum(w * values) / np.sum(w))
    return mean, float(math.sqrt(1.0 / np.sum(w)))


def robust_multi_axis(
    dataset: ShotDataset,
    omega: float,
    omega_q: float,
) -> RobustMultiAxisResult:
    """Time-series SPAM-robust multi-axis estimation.

    Classical spectra come from the slopes of the log-difference lines (the
    z-drive lines are halved so their slopes are the spectra directly and
    their intercepts carry ``-(1/2) ln alpha``); alpha is combined across the
    available intercepts by inverse-variance weighting; quantum spectra come
    from regressing the preparation-averaged signals on their exact decay
    regressors and unscaling by ``alpha_m ~ alpha``.  The aligned-time
    coherence block is optional; without it, or with fewer than
    ``MIN_REGRESSION_POINTS`` aligned times of positive expectation gap
    (skipped with a warning), ``S[0,0](0)`` is not estimated.
    """
    blocks = {
        "zp": _pair_block(dataset, "z+", omega, ("z+", "z-"), "z", half=True),
        "zm": _pair_block(dataset, "z-", omega, ("z+", "z-"), "z", half=True),
        "x": _pair_block(dataset, "x", omega, ("x+", "x-"), "x"),
    }
    n_aligned = len(dataset.times("z+", omega, "x+", "x"))
    if n_aligned:
        try:
            blocks["aligned"] = _pair_block(dataset, "z+", omega, ("x+", "x-"), "x")
        except _TooFewPointsError as exc:
            warnings.warn(
                f"skipping the aligned coherence block: {n_aligned} aligned times, {exc} "
                f"(fewer than {MIN_REGRESSION_POINTS}); S_{{0,0}}(0) is not estimated",
                UserWarning,
                stacklevel=2,
            )

    # intercepts -> ln(alpha): halved lines carry -(1/2) ln alpha
    ln_alpha_vals, ln_alpha_vars = [], []
    for block in blocks.values():
        factor = 2.0 if block.half else 1.0
        ln_alpha_vals.append(-factor * block.fit.intercept)
        ln_alpha_vars.append((factor * block.fit.intercept_err) ** 2)
    ln_alpha, ln_alpha_err = _combine_inverse_variance(ln_alpha_vals, ln_alpha_vars)
    z_scores = [
        abs(v - ln_alpha) / max(math.sqrt(var), INTERCEPT_ROUND_OFF)
        for v, var in zip(ln_alpha_vals, ln_alpha_vars)
    ]
    max_z = max(z_scores)
    consistent = max_z <= INTERCEPT_CONSISTENCY_Z
    if not consistent:
        warnings.warn(
            f"SPAM intercepts disagree at z = {max_z:.2f} (> {INTERCEPT_CONSISTENCY_Z}); "
            "the combined alpha estimate may be unreliable",
            UserWarning,
            stacklevel=2,
        )
    alpha_m = math.exp(ln_alpha)
    alpha_m_err = alpha_m * ln_alpha_err

    zp, zm, x = blocks["zp"], blocks["zm"], blocks["x"]
    s_plus_up = zp.fit.slope      # S+[1,-1](W+wq)
    s_plus_dn = zm.fit.slope      # S+[-1,1](W-wq)
    a_rate = x.fit.slope          # A(W)
    s_plus_up_err = zp.fit.slope_err
    s_plus_dn_err = zm.fit.slope_err
    a_rate_err = x.fit.slope_err

    # quantum regressions on exact decay regressors
    qf_zp = zp.quantum_fit(np.expm1(-2.0 * s_plus_up * zp.times))
    qf_zm = zm.quantum_fit(-np.expm1(-2.0 * s_plus_dn * zm.times))
    qf_x = x.quantum_fit(-np.expm1(-a_rate * x.times))
    delta_vals = [qf_zp.intercept, qf_zm.intercept, qf_x.intercept]
    delta_vars = [qf_zp.intercept_err**2, qf_zm.intercept_err**2, qf_x.intercept_err**2]
    delta, delta_err = _combine_inverse_variance(delta_vals, delta_vars)

    def unscale(slope, slope_err, s_plus_val, s_plus_err):
        value = slope * s_plus_val / alpha_m
        if value == 0.0 or slope == 0.0:
            err = math.sqrt(
                (s_plus_val / alpha_m * slope_err) ** 2
                + (slope / alpha_m * s_plus_err) ** 2
            )
            return value, err
        rel = (
            (slope_err / slope) ** 2
            + (s_plus_err / s_plus_val) ** 2
            + (alpha_m_err / alpha_m) ** 2
        )
        return value, abs(value) * math.sqrt(rel)

    s_minus_up, s_minus_up_err = unscale(qf_zp.slope, qf_zp.slope_err, s_plus_up, s_plus_up_err)
    s_minus_dn, s_minus_dn_err = unscale(qf_zm.slope, qf_zm.slope_err, s_plus_dn, s_plus_dn_err)
    b_rate, b_rate_err = unscale(qf_x.slope, qf_x.slope_err, a_rate, a_rate_err)

    s00_plus = a_rate - 0.5 * (s_plus_up + s_plus_dn)
    s00_plus_err = math.sqrt(a_rate_err**2 + 0.25 * (s_plus_up_err**2 + s_plus_dn_err**2))
    s00_minus = b_rate + 0.5 * (s_minus_up + s_minus_dn)
    s00_minus_err = math.sqrt(b_rate_err**2 + 0.25 * (s_minus_up_err**2 + s_minus_dn_err**2))

    def est(comp, value, err):
        label = _COMPONENTS[comp]
        return SpectralEstimate(
            comp, label, _freq_value(label, omega, omega_q), value, err, Method.ROBUST_LINEAR
        )

    estimates = {
        "S+_{1,-1}": est("S+_{1,-1}", s_plus_up, s_plus_up_err),
        "S-_{-1,1}": est("S-_{-1,1}", s_minus_up, s_minus_up_err),
        "S+_{-1,1}": est("S+_{-1,1}", s_plus_dn, s_plus_dn_err),
        "S-_{1,-1}": est("S-_{1,-1}", s_minus_dn, s_minus_dn_err),
        "A": est("A", a_rate, a_rate_err),
        "B": est("B", b_rate, b_rate_err),
        "S+_{0,0}": est("S+_{0,0}", s00_plus, s00_plus_err),
        "S-_{0,0}": est("S-_{0,0}", s00_minus, s00_minus_err),
    }
    fits = {name: block.fit for name, block in blocks.items()}
    fits.update(q_zp=qf_zp, q_zm=qf_zm, q_x=qf_x)
    if "aligned" in blocks:
        # aligned-line slope is the coherence rate S+[1,-1](W+wq) + 2 S00(0)
        fit = blocks["aligned"].fit
        s00_zero = 0.5 * (fit.slope - s_plus_up)
        s00_zero_err = 0.5 * math.sqrt(fit.slope_err**2 + s_plus_up_err**2)
        estimates["S_{0,0}"] = est("S_{0,0}", s00_zero, s00_zero_err)

    return RobustMultiAxisResult(
        estimates=estimates,
        omega=omega,
        alpha_m=alpha_m,
        alpha_m_err=alpha_m_err,
        delta=delta,
        delta_err=delta_err,
        intercept_max_z=max_z,
        intercept_consistent=consistent,
        fits=fits,
    )
