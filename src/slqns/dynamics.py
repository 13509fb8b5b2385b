"""Driven-qubit evolution engines and frame transformations.

Two independent routes to the same observables:

* closed-form solutions of the secular second-order TCL master equation for
  constant drives along x or +/-z (the estimation theory is built on these);
* an exact trajectory simulator propagating the joint system(+toy-bath)
  state by per-step matrix exponentials of the piecewise-constant
  rotating-frame Hamiltonian (used as an independent oracle).

Conventions.  Everything lives in the frame co-rotating with the qubit
splitting ``omega_q`` (the RWA has already been applied); a constant drive
``H_ctrl = (Omega/2) sigma_u`` defines a toggling frame in which populations
along the drive axis obey two-rate kinetics.  For a drive of effective
amplitude W along u the rates are, in terms of the spherical spectra::

    z drive:  rho'[z+z+] = -2 S[-1,1](-W-wq) rho[z+z+] + 2 S[1,-1](W+wq) rho[z-z-]
              coherence rate = S[-1,1](-W-wq) + S[1,-1](W+wq) + 2 S[0,0](0)

    x drive:  <sx>' = -A(W) <sx> + B(W)
              A(W) = S+[0,0](W) + (S+[1,-1](W+wq) + S+[-1,1](W-wq)) / 2
              B(W) = S-[0,0](W) + (S-[1,-1](W+wq) + S-[-1,1](W-wq)) / 2
              coherence rate = A(W)/2 + S+[1,-1](wq)

These coefficients are re-derived symbolically in the test suite from the
secular generator, which is the authority if doubt ever arises.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .seeding import derive_seed
from .spectra import DeviceParams, SphericalSpectraSet, Tabulated

__all__ = [
    "QubitState",
    "DriveAxis",
    "DriveConfig",
    "RateCoefficients",
    "DynamicsError",
    "SIGMA",
    "compute_AB",
    "x_drive_coherence_rate",
    "z_drive_rates",
    "z_drive_coherence_rate",
    "tcl_expectation_x_drive",
    "tcl_expectation_z_drive",
    "tcl_evolve_state",
    "frame_aligned_times",
    "toggling_to_rotating",
    "check_secular_validity",
    "ClassicalDephasingNoise",
    "ToyBathNoise",
    "simulate_trajectory",
    "ensemble_expectation",
    "discretized_z_drive",
    "tcl_sinc_integrator",
]


class DynamicsError(ValueError):
    """Invalid dynamics configuration or estimator-breaking input."""


# ---------------------------------------------------------------------------
# states and operators
# ---------------------------------------------------------------------------

IDENTITY2 = np.eye(2, dtype=complex)
SIGMA = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

TRACE_TOL = 1e-12
HERMITICITY_TOL = 1e-12
EIGENVALUE_TOL = 1e-10

# axis eigenvectors in the z representation, sigma_u |u,s> = s |u,s>
_EIGENVECTORS = {
    ("z", +1): np.array([1.0, 0.0], dtype=complex),
    ("z", -1): np.array([0.0, 1.0], dtype=complex),
    ("x", +1): np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    ("x", -1): np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0),
    ("y", +1): np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0),
    ("y", -1): np.array([1.0, -1.0j], dtype=complex) / math.sqrt(2.0),
}


class QubitState:
    """Validated 2x2 density matrix."""

    __slots__ = ("_matrix",)

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (2, 2):
            raise DynamicsError(f"qubit state must be 2x2, got shape {m.shape}")
        if abs(np.trace(m) - 1.0) > TRACE_TOL:
            raise DynamicsError(f"state trace {np.trace(m)} differs from 1 beyond tolerance")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise DynamicsError("state is not Hermitian within tolerance")
        eigs = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
        if eigs.min() < -EIGENVALUE_TOL:
            raise DynamicsError(f"state has negative eigenvalue {eigs.min()}")
        self._matrix = m

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix.copy()

    @classmethod
    def from_bloch(cls, rx: float, ry: float, rz: float) -> "QubitState":
        m = 0.5 * (IDENTITY2 + rx * SIGMA["x"] + ry * SIGMA["y"] + rz * SIGMA["z"])
        return cls(m)

    @classmethod
    def ket(cls, axis: str, sign: int) -> "QubitState":
        """Pure eigenstate |u_sign><u_sign| of sigma_axis."""
        vec = _EIGENVECTORS[(axis, int(sign))]
        return cls(np.outer(vec, vec.conj()))

    def bloch(self) -> tuple[float, float, float]:
        return tuple(self.expectation(u) for u in "xyz")

    def expectation(self, axis: str) -> float:
        return float(np.real(np.trace(SIGMA[axis] @ self._matrix)))

    def coherence_in_basis(self, axis: str) -> complex:
        """Upper coherence element <u+| rho |u-> in the sigma_axis eigenbasis."""
        plus = _EIGENVECTORS[(axis, +1)]
        minus = _EIGENVECTORS[(axis, -1)]
        return complex(plus.conj() @ self._matrix @ minus)

    def __repr__(self):
        rx, ry, rz = self.bloch()
        return f"QubitState(bloch=({rx:.6g}, {ry:.6g}, {rz:.6g}))"


def _state_from_basis_components(axis: str, population_diff: float, coherence: complex) -> QubitState:
    """Assemble a state from its sigma_axis populations and upper coherence."""
    plus = _EIGENVECTORS[(axis, +1)]
    minus = _EIGENVECTORS[(axis, -1)]
    p_plus = 0.5 * (1.0 + population_diff)
    p_minus = 0.5 * (1.0 - population_diff)
    m = (
        p_plus * np.outer(plus, plus.conj())
        + p_minus * np.outer(minus, minus.conj())
        + coherence * np.outer(plus, minus.conj())
        + np.conj(coherence) * np.outer(minus, plus.conj())
    )
    return QubitState(m)


# ---------------------------------------------------------------------------
# drive configuration
# ---------------------------------------------------------------------------


class DriveAxis(enum.Enum):
    X_PLUS = "x"
    Z_PLUS = "z+"
    Z_MINUS = "z-"


DEFAULT_LONG_TIME_THRESHOLD = 10.0


@dataclass(frozen=True)
class DriveConfig:
    """Constant drive along a fixed axis for a fixed duration.

    ``amplitude`` is signed for the x axis (the sign selects the sampled
    frequency); for the z axes it is a positive magnitude and the axis enum
    carries the sign.
    """

    axis: DriveAxis
    amplitude: float          # rad/us
    duration: float           # us
    long_time_threshold: float = DEFAULT_LONG_TIME_THRESHOLD

    def __post_init__(self):
        if not np.isfinite(self.amplitude) or self.amplitude == 0.0:
            raise DynamicsError(f"drive amplitude must be finite and nonzero, got {self.amplitude}")
        if self.axis is not DriveAxis.X_PLUS and self.amplitude <= 0.0:
            raise DynamicsError("z-axis drives take a positive magnitude; the axis carries the sign")
        if not (np.isfinite(self.duration) and self.duration > 0.0):
            raise DynamicsError(f"drive duration must be finite and > 0, got {self.duration}")
        if abs(self.amplitude) * self.duration < self.long_time_threshold:
            raise DynamicsError(
                f"|Omega| T = {abs(self.amplitude) * self.duration:.3g} violates the "
                f"long-time condition (threshold {self.long_time_threshold:g})"
            )

    @property
    def effective_amplitude(self) -> float:
        """Signed amplitude of the control Hamiltonian (Omega/2) sigma_u."""
        if self.axis is DriveAxis.Z_MINUS:
            return -self.amplitude
        return self.amplitude


# ---------------------------------------------------------------------------
# secular TCL rate coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateCoefficients:
    """Decay rate and drift of <sigma_x> under a constant x drive."""

    a_rate: float  # 1/us
    b_rate: float  # 1/us

    def __post_init__(self):
        if not (np.isfinite(self.a_rate) and np.isfinite(self.b_rate)):
            raise DynamicsError("rate coefficients must be finite")
        if self.a_rate < abs(self.b_rate) - 1e-12:
            warnings.warn(
                f"A = {self.a_rate:.3g} < |B| = {abs(self.b_rate):.3g}: spectra are not "
                "physically valid (steady state outside the Bloch ball)",
                UserWarning,
                stacklevel=2,
            )


_IMAG_TOL = 1e-12


def _real(value: complex, label: str) -> float:
    value = complex(value)
    scale = max(abs(value), 1.0)
    if abs(value.imag) > _IMAG_TOL * scale:
        raise DynamicsError(f"{label} has non-negligible imaginary part {value.imag}")
    return value.real


def _x_drive_in_out_rates(spectra: SphericalSpectraSet, omega: float, omega_q: float):
    """Dressed-frame feeding/removal rates of the x+ population.

    Both sample the carrier frequencies {0, -wq, +wq} shifted by +Omega (in)
    or -Omega (out).
    """
    def sideband(shift):
        return _real(
            spectra.value(0, 0, shift)
            + 0.5 * (spectra.value(-1, 1, shift - omega_q) + spectra.value(1, -1, shift + omega_q)),
            "x-drive rate",
        )

    return sideband(omega), sideband(-omega)


def compute_AB(spectra: SphericalSpectraSet, omega: float, device: DeviceParams) -> RateCoefficients:
    """Rate coefficients A(Omega), B(Omega) for a constant x drive."""
    r_in, r_out = _x_drive_in_out_rates(spectra, omega, device.omega_q)
    return RateCoefficients(a_rate=r_in + r_out, b_rate=r_in - r_out)


def x_drive_coherence_rate(spectra: SphericalSpectraSet, omega: float, device: DeviceParams) -> float:
    """Decay rate of the x-basis coherence under a constant x drive."""
    rates = compute_AB(spectra, omega, device)
    carrier = _real(spectra.s_plus(1, -1, device.omega_q), "transverse carrier spectrum")
    return 0.5 * rates.a_rate + carrier


def z_drive_rates(spectra: SphericalSpectraSet, omega_eff: float, device: DeviceParams) -> tuple[float, float]:
    """(rate_down, rate_up) transition-rate coefficients under a z drive.

    ``rate_down`` drives z+ -> z- and ``rate_up`` drives z- -> z+ ; the
    populations relax at ``2 (rate_down + rate_up)``.  ``omega_eff`` is the
    signed drive amplitude.
    """
    wq = device.omega_q
    rate_down = _real(spectra.value(-1, 1, -omega_eff - wq), "S[-1,1](-W-wq)")
    rate_up = _real(spectra.value(1, -1, omega_eff + wq), "S[1,-1](W+wq)")
    return rate_down, rate_up


def z_drive_coherence_rate(spectra: SphericalSpectraSet, omega_eff: float, device: DeviceParams) -> float:
    """Decay rate of the z-basis coherence under a z drive."""
    rate_down, rate_up = z_drive_rates(spectra, omega_eff, device)
    return rate_down + rate_up + 2.0 * _real(spectra.value(0, 0, 0.0), "S[0,0](0)")


SECULAR_RATIO_LIMIT = 0.05


def check_secular_validity(decay_rate: float, omega: float) -> None:
    """Warn when the sampled decay rate is not small against the drive."""
    if omega != 0.0 and abs(decay_rate / omega) > SECULAR_RATIO_LIMIT:
        warnings.warn(
            f"|rate/Omega| = {abs(decay_rate / omega):.3g} exceeds {SECULAR_RATIO_LIMIT}; "
            "the secular description of the driven dynamics is strained",
            UserWarning,
            stacklevel=2,
        )


# ---------------------------------------------------------------------------
# closed-form TCL solutions
# ---------------------------------------------------------------------------


def _decay_weight(rate: float, duration: float) -> float:
    """(1 - exp(-rate * duration)) / rate, stable through rate -> 0."""
    if rate == 0.0:
        return duration
    return -np.expm1(-rate * duration) / rate


def _extract_sx0(initial) -> float:
    if isinstance(initial, QubitState):
        return initial.expectation("x")
    return float(initial)


def tcl_expectation_x_drive(a_rate: float, b_rate: float, initial, duration: float) -> float:
    """<sigma_x(T)> under a constant x drive with rates (A, B).

    ``initial`` is either <sigma_x(0)> or a :class:`QubitState`.  The
    dephasing-only case is recovered with ``A = S+`` and ``B = S-``.
    """
    if not (np.isfinite(a_rate) and a_rate > 0.0):
        raise DynamicsError(f"decay rate A must be > 0, got {a_rate}")
    sx0 = _extract_sx0(initial)
    return math.exp(-a_rate * duration) * sx0 + b_rate * _decay_weight(a_rate, duration)


def tcl_expectation_z_drive(
    rate_down: float,
    rate_up: float,
    initial,
    duration: float,
    *,
    s00_zero: float = 0.0,
    coherence0: complex = 0.0j,
) -> tuple[float, float]:
    """(<sigma_z(T)>, |coherence(T)|) under a constant z drive.

    ``rate_down`` and ``rate_up`` are the z+ -> z- and z- -> z+ transition
    coefficients; populations relax at ``2 (rate_down + rate_up)`` toward
    ``(rate_up - rate_down) / (rate_up + rate_down)``.  Both rates zero
    freezes the populations.  The toggling-frame coherence magnitude decays
    at ``rate_down + rate_up + 2 s00_zero``.
    """
    for name, rate in (("rate_down", rate_down), ("rate_up", rate_up)):
        if not np.isfinite(rate) or rate < -1e-15:
            raise DynamicsError(f"{name} must be finite and >= 0, got {rate}")
    if isinstance(initial, QubitState):
        sz0 = initial.expectation("z")
        coherence0 = initial.coherence_in_basis("z")
    else:
        sz0 = float(initial)
    total = rate_down + rate_up
    if total == 0.0:
        sz = sz0
    else:
        decay = math.exp(-2.0 * total * duration)
        sz = decay * sz0 + (rate_up - rate_down) / total * (1.0 - decay)
    coherence_rate = total + 2.0 * s00_zero
    coherence_mag = abs(coherence0) * math.exp(-coherence_rate * duration)
    return sz, coherence_mag


def tcl_evolve_state(
    drive: DriveConfig,
    spectra: SphericalSpectraSet,
    device: DeviceParams,
    rho0: QubitState,
    duration: float | None = None,
) -> QubitState:
    """Closed-form secular-TCL evolution of a full state, rotating frame.

    Populations along the drive axis follow the two-rate kinetics; the
    drive-basis coherence decays at the derived rate and picks up the
    toggling-to-rotating phase ``exp(-i W t)``.
    """
    t = drive.duration if duration is None else float(duration)
    omega_eff = drive.effective_amplitude
    if drive.axis is DriveAxis.X_PLUS:
        rates = compute_AB(spectra, omega_eff, device)
        sx = tcl_expectation_x_drive(rates.a_rate, rates.b_rate, rho0.expectation("x"), t)
        gamma_c = x_drive_coherence_rate(spectra, omega_eff, device)
        coh = rho0.coherence_in_basis("x") * math.exp(-gamma_c * t) * np.exp(-1j * omega_eff * t)
        return _state_from_basis_components("x", sx, coh)

    rate_down, rate_up = z_drive_rates(spectra, omega_eff, device)
    s00_zero = _real(spectra.value(0, 0, 0.0), "S[0,0](0)")
    sz, _ = tcl_expectation_z_drive(rate_down, rate_up, rho0.expectation("z"), t)
    gamma_c = rate_down + rate_up + 2.0 * s00_zero
    coh = rho0.coherence_in_basis("z") * math.exp(-gamma_c * t) * np.exp(-1j * omega_eff * t)
    return _state_from_basis_components("z", sz, coh)


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------


def frame_aligned_times(omega: float, n_list) -> np.ndarray:
    """Times ``T = 2 pi n / |Omega|`` at which toggling and rotating frames align."""
    if omega == 0.0:
        raise DynamicsError("frame alignment requires a nonzero drive amplitude")
    n = np.asarray(sorted(set(int(k) for k in np.atleast_1d(n_list))), dtype=int)
    if n.size == 0 or n.min() < 1:
        raise DynamicsError("alignment indices must be integers >= 1")
    return 2.0 * math.pi * n / abs(omega)


def toggling_to_rotating(coherence: complex, omega: float, t: float) -> complex:
    """Map the upper drive-basis coherence from the toggling to the rotating frame.

    Populations are frame-invariant and pass through unchanged elsewhere.
    """
    return complex(coherence) * np.exp(-1j * omega * t)


# ---------------------------------------------------------------------------
# trajectory engine
# ---------------------------------------------------------------------------

STEP_DRIVE_FRACTION = 0.05
STEP_NOISE_FRACTION = 0.05

_BATH_GROUND = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)  # bath starts in z+


class ClassicalDephasingNoise:
    """Scalar classical process beta(t) coupled as beta(t) sigma_z."""

    dimension = 2

    def __init__(self, beta, *, correlation_time: float | None = None):
        self._beta = beta
        self.correlation_time = correlation_time
        if correlation_time is None:
            cfg = getattr(beta, "config", None)
            if cfg is not None:
                self.correlation_time = cfg.correlation_time

    def __call__(self, t):
        return np.asarray(self._beta(t), dtype=float)


class ToyBathNoise:
    """Bath-qubit coupling sigma_z x (b_x tau_x + b_y tau_y + b_z tau_z)/2."""

    dimension = 4

    def __init__(self, coefficients, *, correlation_time: float | None = None):
        self._coefficients = coefficients
        self.correlation_time = correlation_time
        if correlation_time is None:
            traj = getattr(coefficients, "trajectory", None)
            if traj is not None:
                self.correlation_time = traj.config.correlation_time

    def __call__(self, t):
        bx, by, bz = self._coefficients(t)
        return np.asarray(bx, float), np.asarray(by, float), np.asarray(bz, float)


def _validate_step(drive: DriveConfig, noise, dt: float) -> None:
    limit = STEP_DRIVE_FRACTION / abs(drive.effective_amplitude)
    reason = "0.05/|Omega|"
    t_corr = getattr(noise, "correlation_time", None)
    if t_corr is not None and STEP_NOISE_FRACTION * t_corr < limit:
        limit = STEP_NOISE_FRACTION * t_corr
        reason = "0.05 * noise correlation time"
    if dt > limit * (1.0 + 1e-9):
        raise DynamicsError(
            f"step dt = {dt:.3g} us exceeds {limit:.3g} us ({reason}); "
            "refusing to propagate with an under-resolved step"
        )


def _steps(duration: float, dt: float) -> tuple[int, float, np.ndarray]:
    n = max(1, int(math.ceil(duration / dt - 1e-12)))
    h = duration / n
    mids = (np.arange(n) + 0.5) * h
    return n, h, mids


def _product_in_order(mats: np.ndarray) -> np.ndarray:
    """Time-ordered product U[n-1] ... U[1] U[0] by pairwise tree reduction."""
    while mats.shape[0] > 1:
        if mats.shape[0] % 2 == 1:
            head, rest = mats[:1], mats[1:]
            rest = np.matmul(rest[1::2], rest[0::2])
            mats = np.concatenate([head, rest]) if rest.size else head
        else:
            mats = np.matmul(mats[1::2], mats[0::2])
    return mats[0]


def _rotation_from_hamiltonians(h_stack: np.ndarray, lam: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i H dt) for a stack of H with H^2 = lam^2 * identity."""
    dim = h_stack.shape[-1]
    phase = lam * dt
    cos = np.cos(phase)
    sinc = np.where(lam > 0.0, np.sin(phase) / np.where(lam > 0.0, lam, 1.0), dt)
    eye = np.eye(dim, dtype=complex)
    return cos[:, None, None] * eye - 1j * sinc[:, None, None] * h_stack


def _x_drive_unitaries_classical(omega_eff: float, beta: np.ndarray, dt: float) -> np.ndarray:
    # H = (W/2) sx + beta sz; sx and sz anticommute so H^2 = ((W/2)^2 + beta^2) I
    n = beta.shape[0]
    h = np.zeros((n, 2, 2), dtype=complex)
    h += 0.5 * omega_eff * SIGMA["x"]
    h += beta[:, None, None] * SIGMA["z"]
    lam = np.sqrt((0.5 * omega_eff) ** 2 + beta**2)
    return _rotation_from_hamiltonians(h, lam, dt)


def _bath_field(b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Stacks of m.tau and |m|^2 for the bath field m = (bx, by, bz)/2."""
    bx, by, bz = b
    m_tau = 0.5 * (
        bx[:, None, None] * SIGMA["x"]
        + by[:, None, None] * SIGMA["y"]
        + bz[:, None, None] * SIGMA["z"]
    )
    return m_tau, 0.25 * (bx**2 + by**2 + bz**2)


def _x_drive_unitaries_bath(omega_eff: float, b: tuple, dt: float) -> np.ndarray:
    # H = (W/2) sx x I + sz x m.tau; the two terms anticommute so
    # H^2 = ((W/2)^2 + |m|^2) I
    m_tau, m_norm2 = _bath_field(b)
    h = np.zeros((m_tau.shape[0], 4, 4), dtype=complex)
    h += 0.5 * omega_eff * np.kron(SIGMA["x"], IDENTITY2)
    h[:, 0:2, 0:2] += m_tau
    h[:, 2:4, 2:4] -= m_tau
    lam = np.sqrt((0.5 * omega_eff) ** 2 + m_norm2)
    return _rotation_from_hamiltonians(h, lam, dt)


def _z_drive_blocks(omega_eff: float, b: tuple, dt: float) -> tuple[np.ndarray, np.ndarray]:
    # H = sz x K with K = (W/2) I + m.tau; U = blockdiag(exp(-i K dt), exp(+i K dt))
    m_tau, m_norm2 = _bath_field(b)
    rot = _rotation_from_hamiltonians(m_tau, np.sqrt(m_norm2), dt)
    upper = np.exp(-1j * 0.5 * omega_eff * dt) * rot
    # exp(+i K dt) is the Hermitian conjugate of exp(-i K dt), phase included
    lower = np.conj(np.swapaxes(upper, -1, -2))
    return upper, lower


def _reduce_system(rho_joint: np.ndarray) -> QubitState:
    rho = rho_joint.reshape(2, 2, 2, 2)
    reduced = np.trace(rho, axis1=1, axis2=3)
    reduced = 0.5 * (reduced + reduced.conj().T)
    return QubitState(reduced)


def simulate_trajectory(
    drive: DriveConfig,
    noise,
    rho0: QubitState,
    dt: float,
) -> QubitState:
    """Propagate one noise realization exactly; returns the reduced state at T.

    The Hamiltonian is held constant on each step (coefficients sampled at
    the step midpoint) and exponentiated exactly, so every step is unitary
    to machine precision.
    """
    _validate_step(drive, noise, dt)
    n, h, mids = _steps(drive.duration, dt)
    omega_eff = drive.effective_amplitude

    if noise.dimension == 2:
        beta = np.asarray(noise(mids), dtype=float)
        if drive.axis is DriveAxis.X_PLUS:
            unitaries = _x_drive_unitaries_classical(omega_eff, beta, h)
            u_total = _product_in_order(unitaries)
        else:
            # drive and noise are both along z: exact diagonal propagator
            angle_up = -(0.5 * omega_eff * drive.duration + np.sum(beta) * h)
            u_total = np.diag([np.exp(1j * angle_up), np.exp(-1j * angle_up)])
        rho = u_total @ rho0.matrix @ u_total.conj().T
        return QubitState(0.5 * (rho + rho.conj().T))

    b = noise(mids)
    if drive.axis is DriveAxis.X_PLUS:
        unitaries = _x_drive_unitaries_bath(omega_eff, b, h)
        u_total = _product_in_order(unitaries)
    else:
        upper, lower = _z_drive_blocks(omega_eff, b, h)
        u_total = np.zeros((4, 4), dtype=complex)
        u_total[0:2, 0:2] = _product_in_order(upper)
        u_total[2:4, 2:4] = _product_in_order(lower)
    rho_joint = np.kron(rho0.matrix, _BATH_GROUND)
    rho_joint = u_total @ rho_joint @ u_total.conj().T
    return _reduce_system(rho_joint)


def ensemble_expectation(
    drive: DriveConfig,
    noise_factory,
    rho0: QubitState,
    observable: str,
    n_realizations: int,
    base_seed: int,
    dt: float,
) -> tuple[float, float]:
    """Monte-Carlo mean of <sigma_obs(T)> over seeded noise realizations.

    ``noise_factory(seed)`` must build the noise provider for one
    realization; realization ``k`` uses the child seed derived from
    ``(base_seed, k)`` so results are reproducible and order-independent.
    """
    if n_realizations < 2:
        raise DynamicsError("ensemble needs at least 2 realizations")
    values = np.empty(n_realizations)
    for k in range(n_realizations):
        noise = noise_factory(derive_seed(base_seed, k))
        state = simulate_trajectory(drive, noise, rho0, dt)
        values[k] = state.expectation(observable)
    mean = float(values.mean())
    std_error = float(values.std(ddof=1) / math.sqrt(n_realizations))
    return mean, std_error


def discretized_z_drive(
    omega: float,
    duration: float,
    steps: int,
    noise,
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

    if noise.dimension == 2:
        beta = np.asarray(noise(starts), dtype=float)
        # free evolution and control both diagonal: closed product
        angle_up = -(0.5 * omega * duration + np.sum(beta) * h)
        u_total = np.diag([np.exp(1j * angle_up), np.exp(-1j * angle_up)])
        rho = u_total @ rho0.matrix @ u_total.conj().T
        return QubitState(0.5 * (rho + rho.conj().T))

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


# ---------------------------------------------------------------------------
# pre-delta-approximation TCL oracle (retained frequency integral)
# ---------------------------------------------------------------------------


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

    which tend to S(-Omega), S(Omega) in the long-time limit.  Used only to
    validate the delta approximation behind the closed forms.
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

    e = _extract_sx0(initial)
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
