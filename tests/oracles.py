"""Independent reference formulas the tests hold the program against.

No campaign runs these; each one exists so that a test can compare the
program's own output with a second route to the same number:

* :func:`discretized_z_drive`: a Trotterized z drive through the toy bath,
  against ``dynamics.simulate_trajectory`` under the continuous z drive
  (first-order convergence in the step) and against the exact rotation when
  the bath is silent.
* :func:`sequential_product`: the time-ordered product of a stack of step
  unitaries, one ``@`` at a time, against ``dynamics._product_in_order``,
  which reduces the stack as a tree with one ``np.einsum`` per level.
* :func:`stacked_matmul_product`: the same tree reduced with one
  broadcasting ``np.matmul`` per level (BLAS, one small product at a time)
  over (..., n, d, d) stacks, patched in for ``dynamics._product_in_order``
  to bound the drift of whole trajectory campaigns.
* :func:`matmul_pair_products`: one level of the x drive's column product
  as one broadcasting ``np.matmul`` of full 2x2 matrices into columns,
  patched in for ``dynamics._pair_products`` to bound the drift of whole
  trajectory campaigns.
* :func:`x_drive_blocks`: the x drive's two 2x2 parity blocks in full, as
  (d, d, ..., n) step storage for ``dynamics._product_in_order``, against
  ``dynamics._x_drive_unitaries_bath`` and, through their time-ordered
  products, against ``dynamics._x_drive_product``, which multiplies their
  first columns alone.
* :func:`x_drive_trajectory`: ``dynamics.simulate_trajectory`` under an x
  drive from the 4x4 step unitaries of ``dynamics._x_drive_unitaries_bath``
  and :func:`sequential_product`, whatever b_z, against the engine, which
  propagates the first columns of the two 2x2 parity blocks when b_z is
  zero.
* :func:`tcl_sinc_integrator`: the single-axis TCL with its sinc kernels
  kept, against ``dynamics.tcl_expectation_x_drive``, the closed form that
  the delta approximation gives.
* :func:`spam_corrupted_expectation` with :class:`SpamMode`: the paper's
  SPAM-corrupted expectation formulas, against the program's chain
  ``spam.faulty_state`` -> ``dynamics.tcl_evolve_state`` -> faulty POVM.
* :func:`povm_elements` / :func:`povm_probabilities`: the faulty POVM as
  matrices; the probabilities come from ``spam.outcome_probability``, so
  comparing them with the traces of the elements checks the program's formula.
* :func:`theoretical_autocorrelation`: the exact ensemble autocorrelation of
  the synthesis, against sample autocorrelations of
  ``noisegen.DSARealization`` trajectories.
* :func:`manifest_reference`: ``spam.ShotDataset.to_manifest`` as one
  ``json.dumps`` with an indent, against the program's text, which joins
  sorted text columns between the literal pieces of a record.
* :func:`csv_reference`: ``spam.ShotDataset.to_csv`` as a ``csv.writer``
  fed record by record, against the program's column-joined text.
* :func:`report_reference`: ``report.json`` as one ``json.dumps`` with an
  indent, against the program's text, which joins the estimates from text
  columns, encodes the SPAM rows one at a time and splices both lists in.
* :func:`estimates_csv_reference`: ``estimates.csv`` as a ``csv.writer`` fed
  row by row, against the program's text, which joins the same text columns
  as the estimates of ``report.json``.
* :func:`weighted_linreg_reference`: one straight-line fit with 2-D
  ``np.linalg.solve``/``inv`` calls, against every row of
  ``estimation._linreg_stack``, which fits a stack of lines at once.
* :func:`propagate_reference` with :func:`single_axis_inversion` and
  :func:`multi_axis_inversion`: the delta-method standard inversions one
  frequency at a time, through scalar ``math.log`` and
  ``dynamics._decay_weight`` calls and one bumped input at a time, against
  ``estimation._propagate``, which evaluates a grid of central and bumped
  inputs in one array pass.
* :func:`robust_single_axis_reference`: protocol 2's robust outcome at one
  frequency, the linearized fit of a one-frequency pair block and, where
  its guard trips, scipy's unbounded ``least_squares`` fit of the same
  model started from that block's lines, against
  ``estimation.robust_single_axis_linearized``, which fits the whole grid
  in one pair block, and ``robust_single_axis_nonlinear``, which takes
  Gauss-Newton steps with the model's analytic Jacobian at every guarded
  frequency at once.
* :func:`x_drive_coherence_rate`, :func:`z_drive_rates` and
  :func:`z_drive_coherence_rate`: one-amplitude readings of
  ``dynamics.DriveRates`` under the names of the paper's rates.
* :func:`binomial_quantile_reference`: the exact binomial quantile from a
  40-digit mpmath CDF, against ``spam.draw_shots`` where p or u is extreme
  and wherever ``draw_shots`` and ``scipy.stats.binom.ppf`` disagree.
* :func:`protocol_points`: the points of a plan at one drive frequency as
  (drive, init, observable, time, time index) tuples, built one at a time
  from ``plan.aligned_times(omega)``, against ``protocols._plan_points``,
  which builds a block's points as (frequencies, points) code and time
  arrays.
* :func:`pauli_expectations_reference` and :func:`check_states_reference`:
  <sigma_u> as the real part of tr(sigma_u rho) by a stacked matmul and
  trace, and the state check with ``np.linalg.eigvalsh`` on the Hermitian
  part, against ``dynamics.expectations`` and ``dynamics.check_states``,
  which read the same numbers from the 2x2 entries in closed form.
* :func:`series_index_reference`: a dataset's series as a dict from
  ``(drive_axis, omega, init, observable)`` to the rows ordered by time,
  built one row at a time, against ``spam.ShotDataset.series_rows``, which
  looks a grid of series up in sorted code arrays.
* :func:`dsa_sample` and :func:`rad_per_us_to_mhz`: one-line shorthands for
  ``DSARealization(config, seed).trajectory(grid)`` and the inverse of
  ``spectra.mhz_to_rad_per_us``.
"""

from __future__ import annotations

import bisect
import csv
import enum
import io
import itertools
import json
import math

import mpmath
import numpy as np

from slqns.dynamics import (
    _BATH_GROUND,
    _block_diagonal,
    _cos_sinc,
    _decay_weight,
    IDENTITY2,
    SIGMA,
    DriveAxis,
    DriveConfig,
    DriveRates,
    DynamicsError,
    EIGENVALUE_TOL,
    HERMITICITY_TOL,
    QubitState,
    TRACE_TOL,
    ToyBathNoise,
    _product_in_order,
    _reduce_system,
    _steps,
    _su2_steps,
    _x_drive_unitaries_bath,
    _z_drive_blocks,
)
from slqns.estimation import (
    LINEARIZATION_GUARD,
    EstimationError,
    EstimatorResult,
    Method,
    RegressionResult,
    _estimates,
    _pair_block,
    single_axis_forward,
)
from slqns.noisegen import DSAConfig, DSARealization, NoiseTrajectory
from slqns.spam import (
    DRIVE_AXES, INITS, OBSERVABLES, ShotDataset, SpamParams, expectation_std_error, outcome_probability,
)
from slqns.spectra import TWO_PI, DeviceParams, SphericalSpectraSet, Tabulated


def discretized_z_drive(
    omega: float,
    duration: float,
    steps: int,
    noise: ToyBathNoise,
    rho0: QubitState,
) -> QubitState:
    """Trotterized z drive: instantaneous z rotations between free noisy steps.

    Converges (first order in dt) to the continuous z drive; with zero noise
    the two are identical because all factors commute.
    """
    if steps < 100:
        raise DynamicsError(f"discretized z drive needs >= 100 steps, got {steps}")
    h = duration / steps
    # noise held at its step-start value (first-order scheme)
    starts = np.arange(steps) * h
    rz = np.diag([np.exp(-1j * 0.5 * omega * h), np.exp(1j * 0.5 * omega * h)])

    b = noise(starts)
    upper_free, lower_free = _z_drive_blocks(0.0, b, h)
    u_total = _block_diagonal(_product_in_order(np.stack([rz[0, 0] * upper_free, rz[1, 1] * lower_free])))
    rho_joint = np.kron(rho0.matrix, _BATH_GROUND)
    rho_joint = u_total @ rho_joint @ u_total.conj().T
    return QubitState(_reduce_system(rho_joint))


def sequential_product(mats: np.ndarray) -> np.ndarray:
    """U[n-1] @ ... @ U[1] @ U[0] of an (n, d, d) stack, one step at a time."""
    total = mats[0].copy()
    for u in mats[1:]:
        total = u @ total
    return total


def x_drive_trajectory(drive: DriveConfig, noise: ToyBathNoise, rho0: QubitState, dt: float) -> QubitState:
    """The reduced state after an x drive through the toy bath, from the 4x4
    step unitaries multiplied one step at a time, at the steps and
    coefficient samples of ``dynamics.simulate_trajectory``."""
    _, h, mids = _steps(drive.duration, dt)
    u_total = sequential_product(_x_drive_unitaries_bath(drive.effective_amplitude, noise(mids), h))
    rho_joint = u_total @ np.kron(rho0.matrix, _BATH_GROUND) @ u_total.conj().T
    return QubitState(_reduce_system(rho_joint))


def stacked_matmul_product(mats: np.ndarray) -> np.ndarray:
    """The pairwise tree of ``dynamics._product_in_order``, each level one
    broadcasting ``np.matmul`` on (..., n, d, d) arrays: the same pairs, an
    odd first step carried to the next level, one product per index of the
    leading axes."""
    while (n := mats.shape[-3]) > 1:
        head = n % 2
        pairs = np.matmul(mats[..., head + 1::2, :, :], mats[..., head::2, :, :])
        mats = np.concatenate([mats[..., :head, :, :], pairs], axis=-3)
    return mats[..., 0, :, :]


def matmul_pair_products(later: np.ndarray, earlier: np.ndarray, out: np.ndarray) -> None:
    """``dynamics._pair_products`` by one broadcasting ``np.matmul`` of the
    full later matrices, (..., 2, 2), into the earlier first columns,
    (..., 2, 1), after writing the later second columns as it does."""
    later[1, 0] = -np.conj(later[0, 1])
    later[1, 1] = np.conj(later[0, 0])
    full = np.moveaxis(later, (1, 0), (-2, -1))
    column = np.moveaxis(earlier, 0, -1)[..., None]
    out[...] = np.moveaxis((full @ column)[..., 0], -1, 0)


def x_drive_blocks(omega_eff: float, b: tuple, dt: float) -> np.ndarray:
    """The P = +1 and P = -1 blocks of the x drive's step unitaries through
    a toy bath with b_z = 0, in the columns of ``dynamics._X_PARITY_BASIS``,
    for coefficient arrays of shape (..., n), as the (2, ..., n, 2, 2) view
    of (2, 2, 2, ..., n) storage.  b_z is not read: with b_z != 0 the step
    does not conserve P."""
    # in the two blocks H = +-(W/2) sz + m_x sx + m_y sy, m = (bx, by)/2, with
    # the 4x4 step's lam, so U = cos(lam dt) I - i sinc H in each
    bx, by, _ = b
    cos, sinc = _cos_sinc(np.sqrt((0.5 * omega_eff) ** 2 + 0.25 * (bx**2 + by**2)), dt)
    u = np.empty((2, 2, 2) + cos.shape, dtype=complex)
    _su2_steps(cos, sinc, bx, by, (0.5 * omega_eff, -0.5 * omega_eff), u)
    return np.moveaxis(u, (0, 1), (-2, -1))


def tcl_sinc_integrator(
    spectrum: Tabulated,
    omega: float,
    initial,
    duration: float,
    n_steps: int | None = None,
) -> float:
    """<sigma_x(T)> from the single-axis TCL with the sinc kernels retained.

    Integrates the x-drive population equation with time-dependent rates

        R_out(t) = (1/pi) \\int dw S(w) sin((w + Omega) t) / (w + Omega)
        R_in(t)  = (1/pi) \\int dw S(w) sin((w - Omega) t) / (w - Omega)

    which tend to S(-Omega), S(Omega) in the long-time limit.
    """
    grid = np.asarray(spectrum.grid, dtype=float)
    values = np.asarray(spectrum.values, dtype=float)
    spacing = np.max(np.diff(grid))
    if spacing * duration > 0.5:
        raise DynamicsError(
            f"tabulated grid spacing {spacing:.3g} rad/us cannot resolve 1/T "
            f"features at T = {duration:.3g} us; refine the grid"
        )
    if n_steps is None:
        n_steps = max(400, int(40 * abs(omega) * duration / (2 * math.pi)))

    def rates(t: float) -> tuple[float, float]:
        if t == 0.0:
            return 0.0, 0.0
        x_out = grid + omega
        x_in = grid - omega
        k_out = np.where(np.abs(x_out) < 1e-12, t, np.sin(x_out * t) / np.where(np.abs(x_out) < 1e-12, 1.0, x_out))
        k_in = np.where(np.abs(x_in) < 1e-12, t, np.sin(x_in * t) / np.where(np.abs(x_in) < 1e-12, 1.0, x_in))
        r_out = np.trapezoid(values * k_out, grid) / math.pi
        r_in = np.trapezoid(values * k_in, grid) / math.pi
        return r_out, r_in

    def rhs(t: float, e: float) -> float:
        r_out, r_in = rates(t)
        return -(r_out + r_in) * e + (r_in - r_out)

    e = float(initial)
    h = duration / n_steps
    t = 0.0
    for _ in range(n_steps):
        k1 = rhs(t, e)
        k2 = rhs(t + 0.5 * h, e + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, e + 0.5 * h * k2)
        k4 = rhs(t + h, e + h * k3)
        e += h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return float(e)


class SpamMode(enum.Enum):
    """Which protocol observable the corrupted-expectation formula models."""

    X_DRIVE_X = "x_drive_x"    # x drive, x-prepared states, measure sigma_x
    Z_DRIVE_Z = "z_drive_z"    # z drive, z-prepared states, measure sigma_z
    Z_DRIVE_X = "z_drive_x"    # z drive, x-prepared states, measure sigma_x (aligned times)


def spam_corrupted_expectation(
    ideal: float,
    decay_factor: float,
    sign: int,
    params: SpamParams,
    mode: SpamMode,
) -> float:
    """Measured expectation for an ideal value under static SPAM errors.

    ``decay_factor`` is ``exp(-G T)`` with the mode's decay rate: A(Omega)
    for the x drive, twice the transverse classical spectrum for the z-drive
    populations, and the coherence rate for the z-drive/x-state mode.  For
    the population modes the preparation error enters as an extra
    ``-sign (1 - alpha_sp) decay_factor`` inside the measurement bias; for
    the coherence mode the whole signal is scaled by alpha = alpha_sp alpha_m.
    """
    if not (0.0 < decay_factor <= 1.0):
        raise ValueError(f"decay_factor must lie in (0, 1], got {decay_factor}")
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    if mode is SpamMode.Z_DRIVE_X:
        return params.alpha * ideal + params.delta
    return params.alpha_m * (ideal - sign * (1.0 - params.alpha_sp) * decay_factor) + params.delta


def povm_elements(basis: str, params: SpamParams) -> tuple[np.ndarray, np.ndarray]:
    """POVM pair (Pi_plus, Pi_minus) for a faulty measurement along ``basis``."""
    pi_plus = 0.5 * params.alpha_m * SIGMA[basis] + 0.5 * (1.0 + params.delta) * IDENTITY2
    return pi_plus, IDENTITY2 - pi_plus


def povm_probabilities(rho: QubitState, basis: str, params: SpamParams) -> tuple[float, float]:
    """Outcome probabilities (P+, P-) of the faulty measurement of sigma_basis."""
    p_plus = outcome_probability(rho.expectation(basis), params)
    return p_plus, 1.0 - p_plus


def manifest_reference(dataset: ShotDataset, **metadata) -> str:
    """The manifest text, encoded in one ``json.dumps`` call."""
    rows = [
        {
            "axis": k.drive_axis, "omega_rad_per_us": k.omega, "init": k.init,
            "obs": k.observable, "T_us": k.time, "n_shots": r.n_shots,
            "n_plus": r.n_plus, "expectation": r.expectation,
            "variance": r.variance, "analytic": r.analytic,
        }
        for k, r in dataset
    ]
    return json.dumps({"metadata": metadata, "records": rows}, sort_keys=True, indent=1)


def csv_reference(dataset: ShotDataset) -> str:
    """The ``datasets.csv`` text, written record by record with ``csv.writer``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(ShotDataset._FIELDS)
    for key, rec in dataset:
        writer.writerow([
            key.drive_axis, repr(key.omega), key.init, key.observable, repr(key.time),
            rec.n_shots, rec.n_plus, repr(rec.expectation), repr(rec.variance),
            int(rec.analytic),
        ])
    return buffer.getvalue()


def report_reference(report: dict) -> str:
    """The ``report.json`` text, encoded in one ``json.dumps`` call."""
    return json.dumps(report, sort_keys=True, indent=1)


def estimates_csv_reference(report: dict) -> str:
    """The ``estimates.csv`` text, written row by row with ``csv.writer``;
    numbers as the ``repr`` of a Python float (that of ``np.float64`` is not
    a number)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["component", "freq_label", "freq_rad_per_us", "omega_rad_per_us", "value", "std_error", "method"])
    for row in report["estimates"]:
        writer.writerow([
            row["component"], row["freq_label"], repr(float(row["freq_rad_per_us"])),
            repr(float(row["omega_rad_per_us"])), repr(float(row["value"])), repr(float(row["std_error"])),
            row["method"],
        ])
    return buffer.getvalue()


def _binomial_pmf(p, n_shots: int):
    """P(K = k) for k = 0..n - 1 by the ratio recurrence, at the working precision."""
    if p == 1:
        yield from itertools.repeat(mpmath.mpf(0), n_shots)
        return
    term, ratio = (1 - p) ** n_shots, p / (1 - p)
    for k in range(n_shots):
        yield term
        term = term * (n_shots - k) / (k + 1) * ratio


def binomial_quantile_reference(p_plus, n_shots: int, uniforms) -> np.ndarray:
    """The smallest k with F(k) >= u for each (P(+), u) pair, F the Bin(n, p)
    CDF summed exactly enough (40 digits) at the exact binary p and u."""
    p_plus, uniforms = np.broadcast_arrays(np.asarray(p_plus, dtype=float), np.asarray(uniforms, dtype=float))
    counts = np.empty(p_plus.shape, dtype=np.int64)
    cdfs = {}
    with mpmath.workdps(40):
        for index in np.ndindex(p_plus.shape):
            p = float(p_plus[index])
            if p not in cdfs:
                cdfs[p] = [*itertools.accumulate(_binomial_pmf(mpmath.mpf(p), n_shots)), mpmath.mpf(1)]
            counts[index] = bisect.bisect_left(cdfs[p], mpmath.mpf(float(uniforms[index])))
    return counts


def weighted_linreg_reference(x, y, sigma=None) -> RegressionResult:
    """Straight-line fit by normal equations, one line at a time."""
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
        with np.errstate(invalid="ignore"):  # 0 * inf of an underflowed normal matrix
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


def propagate_reference(func, inputs: np.ndarray, variances: np.ndarray):
    """First-order propagation of independent input variances through func,
    at one input vector."""
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


def single_axis_inversion(duration: float):
    """The protocol 1 inversion of (e+, e-) at one time, for propagate_reference."""

    def f(e):
        diff = e[0] - e[1]
        if not (0.0 < diff <= 2.0 + 1e-12):
            raise EstimationError(f"expectation gap {diff:.3g} outside (0, 2]: decoherence floor reached")
        s_plus = math.log(2.0 / diff) / duration
        mean = 0.5 * (e[0] + e[1])
        return np.array([s_plus, mean / _decay_weight(s_plus, duration)])

    return f


def multi_axis_inversion(duration: float, aligned_duration: float | None = None):
    """The multi-axis inversion of the six (eight with the coherence pair)
    expectations at one time, for propagate_reference."""
    names = ["zp_p", "zp_m", "zm_p", "zm_m", "x_p", "x_m"] + (["c_p", "c_m"] if aligned_duration is not None else [])

    def f(e):
        vals = dict(zip(names, e))

        def log_pair(p, m, t, half):
            diff = vals[p] - vals[m]
            if diff <= 0.0:
                raise EstimationError(f"expectation gap for ({p},{m}) is {diff:.3g} <= 0: decoherence floor")
            return (0.5 if half else 1.0) * math.log(2.0 / diff) / t

        s_plus_up = log_pair("zp_p", "zp_m", duration, half=True)
        s_plus_dn = log_pair("zm_p", "zm_m", duration, half=True)
        a_rate = log_pair("x_p", "x_m", duration, half=False)
        mean_zp = 0.5 * (vals["zp_p"] + vals["zp_m"])
        mean_zm = 0.5 * (vals["zm_p"] + vals["zm_m"])
        mean_x = 0.5 * (vals["x_p"] + vals["x_m"])
        s_minus_up = -mean_zp / (2.0 * _decay_weight(2.0 * s_plus_up, duration))
        s_minus_dn = mean_zm / (2.0 * _decay_weight(2.0 * s_plus_dn, duration))
        b_rate = mean_x / _decay_weight(a_rate, duration)
        s00_plus = a_rate - 0.5 * (s_plus_up + s_plus_dn)
        s00_minus = b_rate + 0.5 * (s_minus_up + s_minus_dn)
        out = [s_plus_up, s_minus_up, s_plus_dn, s_minus_dn, a_rate, b_rate, s00_plus, s00_minus]
        if aligned_duration is not None:
            gamma_hat = log_pair("c_p", "c_m", aligned_duration, half=False)
            out.append(0.5 * (gamma_hat - s_plus_up))
        return np.array(out)

    return f


def robust_single_axis_reference(dataset: ShotDataset, omega: float):
    """Protocol 2's robust outcome at ``omega``: the EstimatorResult of the
    linearized fit, or of the nonlinear fit where the guard rejects it, or
    the EstimationError that fails the frequency."""
    try:
        block = _pair_block(dataset, "x", [omega], ("x+", "x-"), "x")
        classical = block.fits.result(0)
        quantum = block.quantum_fits(lambda slope, times: times).result(0)
        guard_value = float(np.max(classical.slope * block.times[0]))
        if guard_value > LINEARIZATION_GUARD:
            return _nonlinear_reference(dataset, omega, classical, quantum)
        alpha = math.exp(-classical.intercept)
        rows = [
            ("S+_{0,0}", classical.slope, classical.slope_err),
            ("alpha_m*S-_{0,0}", quantum.slope, quantum.slope_err),
        ]
        return EstimatorResult(
            _estimates(Method.ROBUST_LINEAR, omega, rows), "linearized",
            alpha=alpha, alpha_err=alpha * classical.intercept_err,
            delta=quantum.intercept, delta_err=quantum.intercept_err,
            diagnostics={"guard_value": guard_value, "dropped_times": block.dropped[0],
                         "fits": {"classical": classical, "quantum": quantum}},
        )
    except EstimationError as exc:
        return exc


def _nonlinear_reference(dataset: ShotDataset, omega: float, classical, quantum) -> EstimatorResult:
    """The nonlinear fit at ``omega``: scipy's unbounded ``least_squares`` on
    its own three-point Jacobian, over both series gathered again from the
    dataset, started from the ``classical`` and ``quantum`` lines."""
    from scipy.optimize import least_squares

    plus, minus = (dataset.series("x", omega, init, "x") for init in ("x+", "x-"))
    times = dataset.column("time")[plus]
    if times.size < 4:
        raise EstimationError("non-linear fit needs at least 4 time points")
    values = dataset.take(np.concatenate((plus, minus)))
    analytic = bool(values.analytic.all())
    y = values.expectation
    sig = np.ones_like(y) if analytic else expectation_std_error(values)

    def residuals(theta):
        s_plus, s_minus, alpha_m, delta = theta
        model = single_axis_forward(s_plus, s_minus, times, np.array([[1], [-1]]), alpha_m=alpha_m, delta=delta)
        return (model.ravel() - y) / sig

    alpha = math.exp(-classical.intercept)
    theta0 = [classical.slope, quantum.slope / alpha, alpha, quantum.intercept]
    fit = least_squares(residuals, theta0, jac="3-point", xtol=1e-15, ftol=None, gtol=1e-15)
    if not fit.success:
        raise EstimationError(f"non-linear fit failed after {fit.nfev} evaluations: {fit.message}")
    covariance = np.linalg.inv(fit.jac.T @ fit.jac)
    if analytic:
        covariance = covariance * (2.0 * fit.cost / max(y.size - 4, 1))
    errs = np.sqrt(np.clip(np.diag(covariance), 0.0, None))
    theta = fit.x
    return EstimatorResult(
        _estimates(Method.ROBUST_NONLINEAR, omega, zip(("S+_{0,0}", "S-_{0,0}"), theta[:2], errs[:2])),
        "nonlinear", alpha=theta[2], alpha_err=errs[2], delta=theta[3], delta_err=errs[3],
        diagnostics={"covariance": covariance, "iterations": fit.nfev},
    )


def x_drive_coherence_rate(spectra: SphericalSpectraSet, omega: float, device: DeviceParams) -> float:
    """Decay rate of the x-basis coherence under a constant x drive."""
    return DriveRates(DriveAxis.X_PLUS, omega, spectra, device).coherence_rate()


def z_drive_rates(spectra: SphericalSpectraSet, omega_eff: float, device: DeviceParams) -> tuple[float, float]:
    """(rate_down, rate_up) transition-rate coefficients under a z drive.

    ``rate_down`` drives z+ -> z- and ``rate_up`` drives z- -> z+ ; the
    populations relax at ``2 (rate_down + rate_up)``.  ``omega_eff`` is the
    signed drive amplitude.
    """
    return DriveRates(DriveAxis.Z_PLUS, omega_eff, spectra, device).z_rates()


def z_drive_coherence_rate(spectra: SphericalSpectraSet, omega_eff: float, device: DeviceParams) -> float:
    """Decay rate of the z-basis coherence under a z drive."""
    return DriveRates(DriveAxis.Z_PLUS, omega_eff, spectra, device).coherence_rate()


def protocol_points(plan, omega: float) -> list[tuple]:
    """The (drive, init, observable, time, time index) of every point of
    ``plan`` at ``omega``, in plan order."""
    three_drive = plan.protocol_id in (3, 4)
    points = []
    for j, t in enumerate(plan.times):
        if three_drive:
            points.append(("z+", "z+", "z", t, j))
            points.append(("z+", "z-", "z", t, j))
            points.append(("z-", "z+", "z", t, j))
            points.append(("z-", "z-", "z", t, j))
        points.append(("x", "x+", "x", t, j))
        points.append(("x", "x-", "x", t, j))
    if three_drive:
        for j, t in enumerate(plan.aligned_times(omega)):
            points.append(("z+", "x+", "x", float(t), 1000 + j))
            points.append(("z+", "x-", "x", float(t), 1000 + j))
    return points


# the Pauli matrices in the order of the observable codes, x, y, z
PAULIS = np.array([SIGMA[axis] for axis in OBSERVABLES])


def pauli_expectations_reference(matrices: np.ndarray, axes) -> np.ndarray:
    """Re tr(sigma_axes[k] @ matrices[k]) of an (n, 2, 2) stack."""
    return np.real(np.trace(PAULIS[np.asarray(axes, dtype=np.intp)] @ matrices, axis1=-2, axis2=-1))


def check_states_reference(matrices: np.ndarray) -> None:
    """The state check of an (n, 2, 2) stack with the general 2x2 algebra:
    max |M - M^dagger| and ``np.linalg.eigvalsh`` of the Hermitian part."""
    if not np.isfinite(matrices).all():
        raise DynamicsError("state has non-finite entries")
    trace = np.trace(matrices, axis1=-2, axis2=-1)
    if np.max(np.abs(trace - 1.0)) > TRACE_TOL:
        raise DynamicsError(f"state trace {trace[np.argmax(np.abs(trace - 1.0))]} differs from 1 beyond tolerance")
    adjoint = np.conj(np.swapaxes(matrices, -1, -2))
    if np.max(np.abs(matrices - adjoint)) > HERMITICITY_TOL:
        raise DynamicsError("state is not Hermitian within tolerance")
    lowest = np.linalg.eigvalsh(0.5 * (matrices + adjoint))[..., 0].min()
    if lowest < -EIGENVALUE_TOL:
        raise DynamicsError(f"state has negative eigenvalue {lowest}")


def series_index_reference(dataset: ShotDataset) -> dict[tuple, list[int]]:
    """``(drive_axis, omega, init, observable)`` -> the dataset rows of that
    series, ordered by time, from the key columns one row at a time."""
    columns = [dataset.column(name).tolist() for name in ("drive", "omega", "init", "observable", "time")]
    index = {}
    for row, (drive, omega, init, observable, time) in enumerate(zip(*columns)):
        index.setdefault((DRIVE_AXES[drive], omega, INITS[init], OBSERVABLES[observable]), []).append((time, row))
    return {head: [row for _, row in sorted(points)] for head, points in index.items()}


def theoretical_autocorrelation(config: DSAConfig, tau) -> np.ndarray:
    """Exact ensemble autocorrelation ``sum_j G_j^2 cos(omega_j tau)``."""
    tau = np.asarray(tau, dtype=float)
    g2 = config.amplitudes**2
    out = np.cos(np.multiply.outer(tau, config.frequencies)) @ g2
    return float(out) if out.ndim == 0 else out


def dsa_sample(config: DSAConfig, time_grid, seed: int) -> NoiseTrajectory:
    """One seeded noise trajectory on ``time_grid``."""
    return DSARealization(config, seed).trajectory(time_grid)


def rad_per_us_to_mhz(omega):
    """Angular frequency in rad/us to ordinary frequency in MHz."""
    return np.asarray(omega, dtype=float) / TWO_PI if np.ndim(omega) else float(omega) / TWO_PI
