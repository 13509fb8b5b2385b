"""Independent reference formulas the tests hold the program against.

No campaign runs these; each one exists so that a test can compare the
program's own output with a second route to the same number:

* :func:`discretized_z_drive`: a Trotterized z drive through the toy bath,
  against ``dynamics.simulate_trajectory`` under the continuous z drive
  (first-order convergence in the step) and against the exact rotation when
  the bath is silent.
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
  ``json.dumps`` with an indent, against the program's text, which formats
  sorted columns with a ``%`` row template.
* :func:`csv_reference`: ``spam.ShotDataset.to_csv`` as a ``csv.writer``
  fed record by record, against the program's column-formatted text.
* :func:`report_reference`: ``report.json`` as one ``json.dumps`` with an
  indent, against the program's text, which encodes the estimate and SPAM
  rows one at a time and splices them in.
* :func:`x_drive_coherence_rate`, :func:`z_drive_rates` and
  :func:`z_drive_coherence_rate`: one-amplitude readings of
  ``dynamics.DriveRates`` under the names of the paper's rates.
* :func:`dsa_sample` and :func:`rad_per_us_to_mhz`: one-line shorthands for
  ``DSARealization(config, seed).trajectory(grid)`` and the inverse of
  ``spectra.mhz_to_rad_per_us``.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math

import numpy as np

from slqns.dynamics import (
    _BATH_GROUND,
    IDENTITY2,
    SIGMA,
    DriveAxis,
    DriveRates,
    DynamicsError,
    QubitState,
    ToyBathNoise,
    _product_in_order,
    _reduce_system,
    _z_drive_blocks,
)
from slqns.noisegen import DSAConfig, DSARealization, NoiseTrajectory
from slqns.spam import ShotDataset, SpamParams, outcome_probability
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
    upper = rz[0, 0] * upper_free
    lower = rz[1, 1] * lower_free
    u_total = np.zeros((4, 4), dtype=complex)
    u_total[0:2, 0:2] = _product_in_order(upper)
    u_total[2:4, 2:4] = _product_in_order(lower)
    rho_joint = np.kron(rho0.matrix, _BATH_GROUND)
    rho_joint = u_total @ rho_joint @ u_total.conj().T
    return _reduce_system(rho_joint)


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
