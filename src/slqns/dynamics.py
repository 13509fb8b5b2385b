"""Driven-qubit evolution engines and frame transformations.

Two independent routes to the same observables:

* closed-form solutions of the secular second-order TCL master equation for
  constant drives along x or +/-z (the estimation theory is built on these);
* an exact trajectory simulator propagating the joint system + toy-bath
  state by per-step matrix exponentials of the piecewise-constant
  rotating-frame Hamiltonian (used as an independent oracle).  The toy bath
  (one bath qubit, :class:`ToyBathNoise`) is the only noise model it
  propagates.  A z drive conserves sigma_z x I, and an x drive conserves the
  parity P = sigma_x x tau_z when b_z is zero at every step (the main-text
  bath), so both propagate two 2x2 blocks; an x drive with b_z != 0 (the
  three-axis bath) mixes the parity sectors and propagates 4x4 steps.  An
  ensemble propagates its realizations in chunks, each with one step build
  and one time-ordered product.

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
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .seeding import (
    derive_seed,  # noqa: F401 - resolved here by the benchmark tracer
    derive_seeds,
)
from .spectra import DeviceParams, SphericalSpectraSet

__all__ = [
    "QubitState",
    "DriveAxis",
    "DriveConfig",
    "RateCoefficients",
    "DynamicsError",
    "SIGMA",
    "compute_AB",
    "tcl_expectation_x_drive",
    "tcl_expectation_z_drive",
    "tcl_evolve_state",
    "tcl_evolve_states",
    "DriveRates",
    "closed_form_states",
    "check_states",
    "expectations",
    "frame_aligned_times",
    "toggling_to_rotating",
    "check_secular_validity",
    "ToyBathNoise",
    "step_limit",
    "ensemble_expectation",
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
# the Pauli matrices stacked in SIGMA's order, x, y, z: the order of the
# observable codes of spam.OBSERVABLES
_PAULIS = np.array(list(SIGMA.values()))
_PAULI_CODES = {axis: code for code, axis in enumerate(SIGMA)}

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


def check_states(matrices: np.ndarray) -> None:
    """Raise :class:`DynamicsError` unless every matrix of an (n, 2, 2) stack is a state."""
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


def expectations(matrices: np.ndarray, axes) -> np.ndarray:
    """<sigma_axes[k]> of matrix k of an (n, 2, 2) stack of states; ``axes``
    holds codes into SIGMA's order x, y, z."""
    return np.real(np.trace(_PAULIS[np.asarray(axes, dtype=np.intp)] @ matrices, axis1=-2, axis2=-1))


class QubitState:
    """Validated 2x2 density matrix."""

    __slots__ = ("_matrix",)

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (2, 2):
            raise DynamicsError(f"qubit state must be 2x2, got shape {m.shape}")
        check_states(m[None])
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
        return float(expectations(self._matrix[None], [_PAULI_CODES[axis]])[0])

    def coherence_in_basis(self, axis: str) -> complex:
        """Upper coherence element <u+| rho |u-> in the sigma_axis eigenbasis."""
        plus = _EIGENVECTORS[(axis, +1)]
        minus = _EIGENVECTORS[(axis, -1)]
        return complex(plus.conj() @ self._matrix @ minus)

    def __repr__(self):
        rx, ry, rz = self.bloch()
        return f"QubitState(bloch=({rx:.6g}, {ry:.6g}, {rz:.6g}))"


def _states_from_basis_components(axis: str, population_diff, coherence) -> np.ndarray:
    """Unchecked (n, 2, 2) states from their sigma_axis populations and upper coherences."""
    plus, minus = _EIGENVECTORS[(axis, +1)], _EIGENVECTORS[(axis, -1)]
    p_plus = (0.5 * (1.0 + population_diff))[:, None, None]
    p_minus = (0.5 * (1.0 - population_diff))[:, None, None]
    return (
        p_plus * np.outer(plus, plus.conj())
        + p_minus * np.outer(minus, minus.conj())
        + coherence[:, None, None] * np.outer(plus, minus.conj())
        + np.conj(coherence)[:, None, None] * np.outer(minus, plus.conj())
    )


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
# relative slack on the thresholds of DriveRates.flagged
_CHECK_SLACK = 1e-9


def _real(value: complex, label: str) -> float:
    value = complex(value)
    scale = max(abs(value), 1.0)
    if abs(value.imag) > _IMAG_TOL * scale:
        raise DynamicsError(f"{label} has non-negligible imaginary part {value.imag}")
    return value.real


def _sideband_samples(spectra: SphericalSpectraSet, omega, omega_q: float):
    """The samples (S[0,0], S[-1,1], S[1,-1]) at the carrier frequencies
    {0, -wq, +wq} shifted by +Omega and by -Omega; ``omega`` may be an array.

    Shifted by +Omega they give the dressed-frame feeding rate of the x+
    population, by -Omega its removal rate (the real parts of
    ``S[0,0] + (S[-1,1] + S[1,-1]) / 2``); a z drive's rates are two of them.
    """
    return tuple(
        (spectra.value(0, 0, shift), spectra.value(-1, 1, shift - omega_q), spectra.value(1, -1, shift + omega_q))
        for shift in (omega, -omega)
    )


def compute_AB(spectra: SphericalSpectraSet, omega: float, device: DeviceParams) -> RateCoefficients:
    """Rate coefficients A(Omega), B(Omega) for a constant x drive."""
    return DriveRates(DriveAxis.X_PLUS, omega, spectra, device).coefficients()


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


def _check_decay_rate(a_rate) -> None:
    """DynamicsError unless A, or every A of an array, is finite and > 0."""
    a_rate = np.asarray(a_rate)
    bad = ~(np.isfinite(a_rate) & (a_rate > 0.0))
    if bad.any():
        raise DynamicsError(f"decay rate A must be > 0, got {a_rate[bad][0]}")


def _check_z_rates(rate_down, rate_up) -> None:
    """DynamicsError unless both z rates (or arrays of them) are finite and >= 0."""
    for name, rate in (("rate_down", rate_down), ("rate_up", rate_up)):
        rate = np.asarray(rate)
        bad = ~(np.isfinite(rate) & (rate >= -1e-15))
        if bad.any():
            raise DynamicsError(f"{name} must be finite and >= 0, got {rate[bad][0]}")


class DriveRates:
    """Secular-TCL rates of one drive axis at every signed amplitude of an array.

    ``axis`` tells the x drive from a z drive; ``omega_eff`` carries the
    sign.  The six sideband samples are taken once, on the whole array, and
    every rate formula reads them.  ``a_rate`` and ``b_rate`` are the x-drive
    coefficients A(W) and B(W), which the secular check reads on every axis;
    ``population`` is the pair (A, B) of an x drive or (rate_down, rate_up)
    of a z drive, and ``coherence`` the decay rate of the drive-basis
    coherence.  These arrays are the real parts of complex
    spectral sums and are not checked: the methods that take an index ``k``
    read one amplitude's rates with their checks, so that a caller looping
    over its drive frequencies raises and warns in its own order.
    """

    def __init__(self, axis: DriveAxis, omega_eff, spectra: SphericalSpectraSet, device: DeviceParams):
        wq = device.omega_q
        self.axis = axis
        self.omega_eff = w = np.atleast_1d(np.asarray(omega_eff, dtype=float))
        inward, outward = _sideband_samples(spectra, w, wq)
        self._x_sums = tuple(s00 + 0.5 * (down + up) for s00, down, up in (inward, outward))
        rate_in, rate_out = (s.real for s in self._x_sums)
        self.a_rate, self.b_rate = rate_in + rate_out, rate_in - rate_out
        if axis is DriveAxis.X_PLUS:
            self._coherence_term = (spectra.s_plus(1, -1, wq), "transverse carrier spectrum")
            self.population = (self.a_rate, self.b_rate)
            self.coherence = 0.5 * self.a_rate + self._coherence_term[0].real
        else:
            # S[-1,1](-W-wq) and S[1,-1](W+wq)
            self._z_sums = (outward[1], inward[2])
            self._coherence_term = (spectra.value(0, 0, 0.0), "S[0,0](0)")
            self.population = tuple(s.real for s in self._z_sums)
            self.coherence = self.population[0] + self.population[1] + 2.0 * self._coherence_term[0].real

    def coefficients(self, k: int = 0) -> RateCoefficients:
        """A and B at amplitude ``k``."""
        for s in self._x_sums:
            _real(s[k], "x-drive rate")
        return RateCoefficients(a_rate=float(self.a_rate[k]), b_rate=float(self.b_rate[k]))

    def z_rates(self, k: int = 0) -> tuple[float, float]:
        """(rate_down, rate_up) of a z drive at amplitude ``k``."""
        down, up = self._z_sums
        return _real(down[k], "S[-1,1](-W-wq)"), _real(up[k], "S[1,-1](W+wq)")

    def coherence_rate(self, k: int = 0) -> float:
        """Decay rate of the drive-basis coherence at amplitude ``k``."""
        if self.axis is DriveAxis.X_PLUS:
            self.coefficients(k)
        else:
            self.z_rates(k)
        _real(*self._coherence_term)
        return float(self.coherence[k])

    @functools.cached_property
    def flagged(self) -> np.ndarray:
        """Whether :meth:`check` could warn or raise at each amplitude, in one
        array pass: each threshold tightened by a relative ``_CHECK_SLACK``
        and each non-finite rate flagged, a superset of where checks fire."""
        keep, a, b, x_axis = 1.0 - _CHECK_SLACK, self.a_rate, self.b_rate, self.axis is DriveAxis.X_PLUS
        with np.errstate(all="ignore"):
            fine = np.isfinite(a) & np.isfinite(b) & (a >= abs(b) - keep * 1e-12)
            fine &= np.abs(a / self.omega_eff) <= keep * SECULAR_RATIO_LIMIT
            fine &= (a > 0.0) if x_axis else np.all([np.isfinite(r) & (r >= -keep * 1e-15) for r in self.population], 0)
            for value in (*self._x_sums, self._coherence_term[0], *(() if x_axis else self._z_sums)):
                fine &= np.abs(np.imag(value)) <= keep * _IMAG_TOL * np.maximum(np.abs(value), 1.0)
        return ~fine

    def check(self, k: int) -> None:
        """Every check of amplitude ``k``, each run once, in the order the
        single-drive chain runs them: the coefficients and the secular strain,
        A > 0 or non-negative z rates, then the coherence rate's spectrum.
        An amplitude that is not :attr:`flagged` passes them all."""
        if not self.flagged[k]:
            return
        check_secular_validity(self.coefficients(k).a_rate, float(self.omega_eff[k]))
        if self.axis is DriveAxis.X_PLUS:
            _check_decay_rate(self.a_rate[k])
        else:
            _check_z_rates(*self.z_rates(k))
        _real(*self._coherence_term)


# ---------------------------------------------------------------------------
# closed-form TCL solutions
# ---------------------------------------------------------------------------


# math.exp elementwise: numpy's vectorised exp is not bit-equal to it
_exp = np.vectorize(math.exp, otypes=[float])


def _decay_weight(rate, duration):
    """(1 - exp(-rate * duration)) / rate of every rate, ``duration`` where a rate is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(rate == 0.0, duration, -np.expm1(-rate * duration) / rate)


def tcl_expectation_x_drive(a_rate, b_rate, initial, duration):
    """<sigma_x(T)> under a constant x drive with rates (A, B).

    Any argument may be an array.  The dephasing-only case is recovered with
    ``A = S+`` and ``B = S-``; ``initial`` is <sigma_x(0)>.
    """
    _check_decay_rate(a_rate)
    return _exp(-a_rate * duration) * initial + b_rate * _decay_weight(a_rate, duration)


def tcl_expectation_z_drive(rate_down, rate_up, initial, duration):
    """<sigma_z(T)> under a constant z drive.

    ``rate_down`` and ``rate_up`` are the z+ -> z- and z- -> z+ transition
    coefficients; populations relax at ``2 (rate_down + rate_up)`` toward
    ``(rate_up - rate_down) / (rate_up + rate_down)``.  Both rates zero
    freezes the populations.  ``initial`` is <sigma_z(0)>; any argument may
    be an array.  The coherence decays at ``DriveRates.coherence_rate``.
    """
    _check_z_rates(rate_down, rate_up)
    total = rate_down + rate_up
    decay = _exp(-2.0 * total * duration)
    with np.errstate(divide="ignore", invalid="ignore"):
        relaxed = decay * initial + np.divide(rate_up - rate_down, total) * (1.0 - decay)
    return np.where(total == 0.0, initial * np.ones_like(duration), relaxed)[()]


def closed_form_states(rates: DriveRates, rows, rho0s, which, durations) -> np.ndarray:
    """Rotating-frame states, (n, 2, 2), of each ``rho0s[which[k]]`` after
    ``durations[k]`` under the drive of amplitude ``rates.omega_eff[rows[k]]``.

    Populations along the drive axis follow the two-rate kinetics; the
    drive-basis coherence decays at the derived rate and picks up the
    toggling-to-rotating phase ``exp(-i W t)``.  Validate the result with
    :func:`check_states`.
    """
    rows, t = np.asarray(rows, dtype=int), np.asarray(durations, dtype=float)
    basis = "x" if rates.axis is DriveAxis.X_PLUS else "z"
    which = np.asarray(which, dtype=np.intp)
    population0 = np.array([rho.expectation(basis) for rho in rho0s])[which]
    coherence0 = np.array([rho.coherence_in_basis(basis) for rho in rho0s])[which]
    evolve = tcl_expectation_x_drive if basis == "x" else tcl_expectation_z_drive
    diff = evolve(*(rate[rows] for rate in rates.population), population0, t)
    coherence = toggling_to_rotating(coherence0 * _exp(-rates.coherence[rows] * t), rates.omega_eff[rows], t)
    return _states_from_basis_components(basis, diff, coherence)


def tcl_evolve_states(
    drive: DriveConfig, spectra: SphericalSpectraSet, device: DeviceParams, rho0s, durations
) -> np.ndarray:
    """Validated rotating-frame states, (n, 2, 2), of each ``rho0s[k]`` after
    ``durations[k]``: the one-drive case of :func:`closed_form_states`, with
    the drive's rate checks."""
    rates = DriveRates(drive.axis, [drive.effective_amplitude], spectra, device)
    rates.check(0)
    states = closed_form_states(rates, np.zeros(len(rho0s), dtype=int), rho0s, np.arange(len(rho0s)), durations)
    check_states(states)
    return states


def tcl_evolve_state(
    drive: DriveConfig, spectra: SphericalSpectraSet, device: DeviceParams, rho0: QubitState
) -> QubitState:
    """Closed-form secular-TCL evolution of one state for the drive's duration."""
    return QubitState(tcl_evolve_states(drive, spectra, device, [rho0], [drive.duration])[0])


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------


def frame_aligned_times(omega, n_list) -> np.ndarray:
    """Times ``T = 2 pi n / |Omega|`` at which toggling and rotating frames
    align, for each distinct ``n`` in increasing order; an array of
    amplitudes gives one row of times per amplitude."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega == 0.0):
        raise DynamicsError("frame alignment requires a nonzero drive amplitude")
    n = np.asarray(sorted(set(int(k) for k in np.atleast_1d(n_list))), dtype=int)
    if n.size == 0 or n.min() < 1:
        raise DynamicsError("alignment indices must be integers >= 1")
    return 2.0 * math.pi * n / np.abs(omega)[..., None]


def toggling_to_rotating(coherence, omega: float, t):
    """Map the upper drive-basis coherence from the toggling to the rotating frame.

    Populations are frame-invariant and pass through unchanged elsewhere.  The
    product is taken in real arithmetic so that arrays round as scalars do.
    """
    c, phase = np.asarray(coherence, dtype=complex), np.exp(-1j * omega * np.asarray(t))
    return (c.real * phase.real - c.imag * phase.imag) + 1j * (c.real * phase.imag + c.imag * phase.real)


# ---------------------------------------------------------------------------
# trajectory engine
# ---------------------------------------------------------------------------

STEP_DRIVE_FRACTION = 0.05
STEP_NOISE_FRACTION = 0.05

_BATH_GROUND = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)  # bath starts in z+


class ToyBathNoise:
    """Bath-qubit coupling sigma_z x (b_x tau_x + b_y tau_y + b_z tau_z)/2."""

    def __init__(self, coefficients, *, correlation_time: float | None = None):
        self._coefficients = coefficients
        self.correlation_time = correlation_time  # None: only the drive bounds the step

    def __call__(self, t):
        bx, by, bz = self._coefficients(t)
        return np.asarray(bx, float), np.asarray(by, float), np.asarray(bz, float)


def step_limit(omega_eff: float, correlation_time: float | None) -> tuple[float, str]:
    """Largest trajectory step, 0.05/|Omega| or 0.05 times the noise
    correlation time when that is smaller, with the name of the bound."""
    limit, reason = STEP_DRIVE_FRACTION / abs(omega_eff), "0.05/|Omega|"
    if correlation_time is not None and STEP_NOISE_FRACTION * correlation_time < limit:
        limit, reason = STEP_NOISE_FRACTION * correlation_time, "0.05 * noise correlation time"
    return limit, reason


def _validate_step(drive: DriveConfig, noise: ToyBathNoise, dt: float) -> None:
    limit, reason = step_limit(drive.effective_amplitude, noise.correlation_time)
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


# Step storage that one chunk of realizations may hold.  A realization stores
# at most one 4x4 complex step per step of its trajectory (the parity and z
# paths store two 2x2 blocks, half of that).  A chunk's peak working memory is
# its step storage and the first level of the product, half as much again;
# beyond a few MiB the chunk outgrows the cache and the product slows down.
CHUNK_STEP_BYTES = 3 << 20
_STEP_BYTES = 16 * np.dtype(complex).itemsize


def _chunk_size(n_steps: int) -> int:
    """Realizations per chunk at a point of ``n_steps`` steps: as many as
    :data:`CHUNK_STEP_BYTES` holds, and at least one."""
    return max(1, CHUNK_STEP_BYTES // (n_steps * _STEP_BYTES))


def _product_in_order(mats: np.ndarray) -> np.ndarray:
    """Time-ordered products U[n-1] ... U[1] U[0] of an (..., n, d, d) stack,
    one (d, d) product per index of the leading axes, by pairwise tree
    reduction.

    Each level multiplies neighbouring pairs, later @ earlier, for every
    leading index at once, in one ``np.einsum`` over (d, d, ..., n) storage,
    the step axis innermost, so no level calls BLAS; an odd first step is
    carried, unmultiplied, to the next level.  Each product has the bits that
    its own (n, d, d) stack gives alone.  The stack is read through
    ``np.moveaxis``, which is free for the (..., n, d, d) views of
    (d, d, ..., n) storage that the step builders return; any other layout
    works too.  The stack is released after the first level, so it is freed
    there unless the caller keeps a reference to it.
    """
    mats = np.moveaxis(mats, (-2, -1), (0, 1))
    while (n := mats.shape[-1]) > 1:
        head = n % 2
        level = np.empty(mats.shape[:-1] + (head + n // 2,), dtype=mats.dtype)
        level[..., :head] = mats[..., :head]
        np.einsum("il...k,lj...k->ij...k", mats[..., head + 1::2], mats[..., head::2], out=level[..., head:])
        mats = level
    return np.moveaxis(mats[..., 0], (0, 1), (-2, -1))


def _cos_sinc(lam: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """cos(lam dt) and sin(lam dt) / lam (-> dt at lam = 0)."""
    phase = lam * dt
    sinc = np.where(lam > 0.0, np.sin(phase) / np.where(lam > 0.0, lam, 1.0), dt)
    return np.cos(phase), sinc


def _x_drive_unitaries_bath(omega_eff: float, b: tuple, dt: float) -> np.ndarray:
    """Step unitaries of the x drive through the toy bath, for coefficient
    arrays of shape (..., n), as the (..., n, 4, 4) view of (4, 4, ..., n)
    storage: each entry is one contiguous row over the steps, which
    :func:`_product_in_order` reads without a copy."""
    # H = (W/2) sx x I + sz x m.tau with m = (bx, by, bz)/2; the two terms
    # anticommute so H^2 = ((W/2)^2 + |m|^2) I and U = cos(lam dt) I - i sinc H.
    # Its twelve nonzero entries are written directly.
    bx, by, bz = b
    lam = np.sqrt((0.5 * omega_eff) ** 2 + 0.25 * (bx**2 + by**2 + bz**2))
    cos, sinc = _cos_sinc(lam, dt)
    sx, sy, sz = sinc * (0.5 * bx), sinc * (0.5 * by), sinc * (0.5 * bz)
    sw = sinc * (0.5 * omega_eff)
    u = np.zeros((4, 4) + lam.shape, dtype=complex)
    re, im = u.real, u.imag
    for k in range(4):
        re[k, k] = cos
    im[0, 0] = im[3, 3] = -sz
    im[1, 1] = im[2, 2] = sz
    re[0, 1] = re[3, 2] = -sy
    re[1, 0] = re[2, 3] = sy
    im[0, 1] = im[1, 0] = -sx
    im[2, 3] = im[3, 2] = sx
    for i, j in ((0, 2), (1, 3), (2, 0), (3, 1)):
        im[i, j] = -sw
    return np.moveaxis(u, (0, 1), (-2, -1))


def _su2_steps(cos: np.ndarray, sinc: np.ndarray, bx, by, hzs: tuple, out: np.ndarray) -> None:
    """Write into ``out``, (2, 2, blocks, ..., n) storage with the step axis
    innermost, the 2x2 step unitaries cos I - i sinc (h_x sigma_x + h_y
    sigma_y + h_z sigma_z) of each block, with (h_x, h_y) = (b_x, b_y)/2 and
    the block's own h_z from ``hzs``; b_x, b_y and each h_z are arrays over
    (..., n) or scalars.  The products are written in place, so that the
    step storage is the only large array the build leaves."""
    re, im = out.real, out.imag
    re[0, 0] = re[1, 1] = cos
    np.multiply(sinc, 0.5 * by, out=re[1, 0])
    np.negative(re[1, 0], out=re[0, 1])
    np.multiply(sinc, 0.5 * bx, out=im[1, 0])
    np.negative(im[1, 0], out=im[1, 0])
    im[0, 1] = im[1, 0]
    for block, hz in enumerate(hzs):
        np.multiply(sinc, hz, out=im[1, 1, block])
        np.negative(im[1, 1, block], out=im[0, 0, block])


def _z_drive_blocks(omega_eff: float, b: tuple, dt: float) -> np.ndarray:
    """The two 2x2 blocks of the z drive's step unitaries through the toy
    bath, upper then lower, for coefficient arrays of shape (..., n), as the
    (2, ..., n, 2, 2) view of (2, 2, 2, ..., n) storage as in
    :func:`_x_drive_unitaries_bath`."""
    # H = sz x K with K = (W/2) I + m.tau, m = (bx, by, bz)/2, and (m.tau)^2 =
    # |m|^2 I, so U = blockdiag(exp(-i K dt), exp(+i K dt)) with
    # exp(-i m.tau dt) = cos(|m| dt) I - i sinc m.tau
    bx, by, bz = b
    cos, sinc = _cos_sinc(np.sqrt(0.25 * (bx**2 + by**2 + bz**2)), dt)
    u = np.empty((2, 2, 2) + cos.shape, dtype=complex)
    _su2_steps(cos, sinc, bx, by, (0.5 * bz,), u[:, :, :1])
    upper = u[:, :, 0]
    np.multiply(np.exp(-1j * 0.5 * omega_eff * dt), upper, out=upper)
    # exp(+i K dt) is the Hermitian conjugate of exp(-i K dt), phase included
    np.conj(upper.swapaxes(0, 1), out=u[:, :, 1])
    return np.moveaxis(u, (0, 1), (-2, -1))


# Columns |x+,0>, |x-,1> (P = +1) and |x-,0>, |x+,1> (P = -1) of the parity
# P = sx x tz, in the joint basis |s, bath> of the trajectory engine; real and
# orthogonal, so its transpose is its inverse.
_X_PARITY_BASIS = np.array(
    [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0], [1.0, 0.0, -1.0, 0.0], [0.0, -1.0, 0.0, 1.0]]
) / math.sqrt(2.0)


def _x_drive_blocks(omega_eff: float, b: tuple, dt: float) -> np.ndarray:
    """The P = +1 and P = -1 blocks of the x drive's step unitaries through
    a toy bath with b_z = 0, in the columns of :data:`_X_PARITY_BASIS`, for
    coefficient arrays of shape (..., n), as the (2, ..., n, 2, 2) view of
    (2, 2, 2, ..., n) storage.  b_z is not read: with b_z != 0 the step does
    not conserve P."""
    # in the two blocks H = +-(W/2) sz + m_x sx + m_y sy, m = (bx, by)/2, with
    # the 4x4 step's lam, so U = cos(lam dt) I - i sinc H in each
    bx, by, _ = b
    cos, sinc = _cos_sinc(np.sqrt((0.5 * omega_eff) ** 2 + 0.25 * (bx**2 + by**2)), dt)
    u = np.empty((2, 2, 2) + cos.shape, dtype=complex)
    _su2_steps(cos, sinc, bx, by, (0.5 * omega_eff, -0.5 * omega_eff), u)
    return np.moveaxis(u, (0, 1), (-2, -1))


def _block_diagonal(blocks: np.ndarray) -> np.ndarray:
    """(..., 4, 4) block diagonals of the pairs of 2x2 blocks of a
    (2, ..., 2, 2) stack, upper then lower."""
    upper, lower = blocks
    u = np.zeros(upper.shape[:-2] + (4, 4), dtype=complex)
    u[..., 0:2, 0:2] = upper
    u[..., 2:4, 2:4] = lower
    return u


def _reduce_system(rho_joint: np.ndarray) -> np.ndarray:
    """Hermitian parts of the system's reduced states of an (..., 4, 4)
    stack of joint states, unchecked."""
    rho = rho_joint.reshape(rho_joint.shape[:-2] + (2, 2, 2, 2))
    reduced = np.trace(rho, axis1=-3, axis2=-1)
    return 0.5 * (reduced + np.conj(np.swapaxes(reduced, -1, -2)))


def _propagate_chunk(drive: DriveConfig, noises, rho0: QubitState, dt: float) -> np.ndarray:
    """Propagate a chunk of toy-bath realizations exactly, all at once;
    returns their checked reduced states at T, (c, 2, 2).

    The Hamiltonian is held constant on each step (coefficients sampled at
    the step midpoint) and exponentiated exactly, so every step is unitary
    to machine precision.  The coefficients of the chunk are stacked as
    (c, n) arrays, and one step build and one time-ordered product serve the
    whole chunk.  A z drive's steps are block diagonal in the joint basis.
    Under an x drive, H = (W/2) sx x I + sz x (b_x tx + b_y ty + b_z tz)/2,
    and the parity P = sx x tz commutes with the drive term and with the b_x
    and b_y terms (two sign flips: sz against sx, tx or ty against tz) but
    anticommutes with the b_z term (one flip).  So when b_z is zero at every
    step of every realization (the main-text bath) the two P sectors are
    propagated as 2x2 blocks and mapped back through
    :data:`_X_PARITY_BASIS`; otherwise (the three-axis bath) P is not
    conserved and the 4x4 steps are multiplied.  A state differs from the
    one its realization gives alone only when the chunk mixes the two cases,
    and then by rounding.
    """
    n, h, mids = _steps(drive.duration, dt)
    b = np.empty((3, len(noises), n))  # (b_x, b_y, b_z) of each realization at each step
    for row, noise in enumerate(noises):
        _validate_step(drive, noise, dt)
        b[:, row] = noise(mids)
    omega_eff = drive.effective_amplitude
    # each step stack goes straight into _product_in_order, which frees it
    # after the first tree level: the chunk never holds a stack and two levels
    if drive.axis is not DriveAxis.X_PLUS:
        u_total = _block_diagonal(_product_in_order(_z_drive_blocks(omega_eff, b, h)))
    elif np.any(b[2]):
        u_total = _product_in_order(_x_drive_unitaries_bath(omega_eff, b, h))
    else:
        blocks = _block_diagonal(_product_in_order(_x_drive_blocks(omega_eff, b, h)))
        u_total = _X_PARITY_BASIS @ blocks @ _X_PARITY_BASIS.T
    rho_joint = u_total @ np.kron(rho0.matrix, _BATH_GROUND) @ np.conj(np.swapaxes(u_total, -1, -2))
    states = _reduce_system(rho_joint)
    check_states(states)
    return states


def simulate_trajectory(
    drive: DriveConfig,
    noise: ToyBathNoise,
    rho0: QubitState,
    dt: float,
) -> QubitState:
    """Propagate one toy-bath realization exactly; returns the reduced state
    at T.  This is the one-realization chunk of :func:`_propagate_chunk`:
    the tests' reference for the states of a chunk, and a binding of the
    benchmark tracer.  No campaign calls it, so it is not exported."""
    return QubitState(_propagate_chunk(drive, [noise], rho0, dt)[0])


def ensemble_expectation(
    drive: DriveConfig,
    noise_factory,
    rho0: QubitState,
    observable: str,
    n_realizations: int,
    base_seed: int,
    dt: float,
) -> tuple[float, float]:
    """Monte-Carlo mean of <sigma_obs(T)> over seeded noise realizations,
    with its standard error.

    ``noise_factory(seed)`` must build the noise provider for one
    realization; realization ``k`` uses the child seed
    ``derive_seed(base_seed, k)``, so results are reproducible and
    order-independent.  The seeds come from one ``derive_seeds`` pass.  The
    realizations are propagated in chunks of :func:`_chunk_size`, each with
    one :func:`_propagate_chunk` and one :func:`expectations` call; with
    either toy-bath variant each value has the bits that its realization
    gives alone.
    """
    if n_realizations < 2:
        raise DynamicsError("ensemble needs at least 2 realizations")
    seeds = derive_seeds(base_seed, np.arange(n_realizations)[:, None]).tolist()
    chunk = _chunk_size(_steps(drive.duration, dt)[0])
    code = _PAULI_CODES[observable]
    values = np.empty(n_realizations)
    for start in range(0, n_realizations, chunk):
        noises = [noise_factory(seed) for seed in seeds[start:start + chunk]]
        states = _propagate_chunk(drive, noises, rho0, dt)
        values[start:start + chunk] = expectations(states, [code] * len(noises))
    mean = float(values.mean())
    std_error = float(values.std(ddof=1) / math.sqrt(n_realizations))
    return mean, std_error
