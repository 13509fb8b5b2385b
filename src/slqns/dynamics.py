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
  bath), so both propagate two 2x2 blocks, the x drive's SU(2) blocks as
  their first columns alone; an x drive with b_z != 0 (the three-axis bath)
  mixes the parity sectors and propagates 4x4 steps.  One function writes
  every SU(2) step's entries, and one pairwise tree multiplies every stack.
  An ensemble reads its noise as one block, one row per realization (several
  blocks when it would outgrow ``ENSEMBLE_BLOCK_BYTES``), checks its step once
  per block, and propagates its realizations in chunks, each with one step
  build and one time-ordered product.  :func:`sized_expectation` sizes each
  ensemble's step between the floor and the ceiling of :func:`step_limit`: h
  passes when the mean at 2h, on every other noise sample, is within
  ``STEP_BIAS_BUDGET`` std errors (Richardson's h^2 law); its checks spend
  ``CHECK_BUDGET`` floor runs.

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
from dataclasses import dataclass

import numpy as np

from .seeding import (
    derive_seed,  # noqa: F401 - resolved here by the benchmark tracer
    derive_seeds,
)
from .spectra import DeviceParams, SphericalSpectraSet, _warn

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
    "sized_expectation",
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
# SIGMA's order, x, y, z, is the order of the observable codes of spam.OBSERVABLES
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
    """Raise :class:`DynamicsError` unless every matrix of an (n, 2, 2) stack is a state,
    in closed form: max|M - M^dagger| is max(2 |Im m00|, 2 |Im m11|, |m01 - conj m10|), and the
    lower eigenvalue of the Hermitian part [[a, h], [h*, d]] is (a + d)/2 - hypot((a - d)/2, |h|).
    An empty stack passes."""
    if not matrices.size:
        return
    if not np.isfinite(matrices).all():
        raise DynamicsError("state has non-finite entries")
    m00, m01, m10, m11 = (matrices[..., i, j] for i in (0, 1) for j in (0, 1))
    trace = m00 + m11
    if np.max(np.abs(trace - 1.0)) > TRACE_TOL:
        raise DynamicsError(f"state trace {trace[np.argmax(np.abs(trace - 1.0))]} differs from 1 beyond tolerance")
    skew = np.maximum(2.0 * np.maximum(np.abs(m00.imag), np.abs(m11.imag)), np.abs(m01 - np.conj(m10)))
    if np.max(skew) > HERMITICITY_TOL:
        raise DynamicsError("state is not Hermitian within tolerance")
    a, d = m00.real, m11.real
    lowest = np.min(0.5 * (a + d) - np.hypot(0.5 * (a - d), np.abs(0.5 * (m01 + np.conj(m10)))))
    if lowest < -EIGENVALUE_TOL:
        raise DynamicsError(f"state has negative eigenvalue {lowest}")


def expectations(matrices: np.ndarray, axes) -> np.ndarray:
    """<sigma_axes[k]> of matrix k of an (n, 2, 2) stack of states; ``axes``
    holds codes into SIGMA's order x, y, z.  Read from the entries with the
    one rounding of tr(sigma rho): Re m10 + Re m01, Im m10 - Im m01 and
    Re m00 - Re m11; adding 0.0 turns a -0.0 into the trace's 0.0."""
    m00, m01, m10, m11 = (matrices[..., i, j] for i in (0, 1) for j in (0, 1))
    values = m10.real + m01.real, m10.imag - m01.imag, m00.real - m11.real
    return np.choose(np.asarray(axes, dtype=np.intp), values) + 0.0


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
            _warn(f"A = {self.a_rate:.3g} < |B| = {abs(self.b_rate):.3g}: spectra are not "
                  "physically valid (steady state outside the Bloch ball)")


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
        _warn(f"|rate/Omega| = {abs(decay_rate / omega):.3g} exceeds {SECULAR_RATIO_LIMIT}; "
              "the secular description of the driven dynamics is strained")


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


def _mapped(fn, values) -> np.ndarray:
    """``fn(value)`` of every value as a float array of their shape, one Python call each: numpy's
    exp, log and square differ from ``math.exp``, ``math.log`` and Python's ``float ** 2`` (libm
    ``pow``, :data:`_square`) in the last bit for a few values in ten thousand."""
    values = np.asarray(values, dtype=float)
    return np.fromiter(map(fn, values.ravel().tolist()), float, values.size).reshape(values.shape)


# x -> x ** 2.0, which is Python's float ** 2
_square = (2.0).__rpow__


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
    return _mapped(math.exp, -a_rate * duration) * initial + b_rate * _decay_weight(a_rate, duration)


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
    decay = _mapped(math.exp, -2.0 * total * duration)
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
    decay = _mapped(math.exp, -rates.coherence[rows] * t)
    coherence = toggling_to_rotating(coherence0 * decay, rates.omega_eff[rows], t)
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

# steps times the fastest rate they resolve: the floor is the fixed step of
# earlier versions, and the ceiling resolves that rate's period in 8.7 steps
STEP_FLOOR, STEP_CEILING = 0.045, 0.72
STEP_BIAS_BUDGET = 0.1  # |y_2h - y_h| that a step h may leave, in Monte-Carlo std errors
CHECK_BUDGET = 0.6  # steps that a point's checks may propagate, in floor runs

_BATH_GROUND = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)  # bath starts in z+


class ToyBathNoise:
    """Bath-qubit coupling sigma_z x (b_x tau_x + b_y tau_y + b_z tau_z)/2."""

    def __init__(self, coefficients, *, correlation_time: float | None = None):
        self._coefficients = coefficients
        self.correlation_time = correlation_time  # None: only the drive bounds the step

    def __call__(self, t):
        bx, by, bz = self._coefficients(t)
        return np.asarray(bx, float), np.asarray(by, float), np.asarray(bz, float)

    def every_other(self) -> ToyBathNoise:
        """The noise read from every other sample of its coefficients' grid."""
        return ToyBathNoise(self._coefficients.every_other(), correlation_time=self.correlation_time)


def step_limit(omega_eff: float, correlation_time: float | None) -> tuple[float, float, str]:
    """The floor and the ceiling of :func:`sized_expectation`'s steps,
    :data:`STEP_FLOOR` and :data:`STEP_CEILING` over the fastest rate they
    resolve, |Omega| or 1/``correlation_time``, with the name of that rate."""
    rate, reason = abs(omega_eff), "|Omega|"
    if correlation_time is not None and correlation_time * rate < 1.0:
        rate, reason = 1.0 / correlation_time, "1/noise correlation time"
    return STEP_FLOOR / rate, STEP_CEILING / rate, reason


def _validate_step(drive: DriveConfig, noise: ToyBathNoise, dt: float) -> None:
    _, ceiling, reason = step_limit(drive.effective_amplitude, noise.correlation_time)
    if dt > ceiling * (1.0 + 1e-9):
        raise DynamicsError(
            f"step dt = {dt:.3g} us exceeds the ceiling {ceiling:.3g} us, {STEP_CEILING:g} over {reason}; "
            "refusing to propagate with an under-resolved step"
        )


def _steps(duration: float, dt: float) -> tuple[int, float, np.ndarray]:
    n = max(1, int(math.ceil(duration / dt - 1e-12)))
    h = duration / n
    mids = (np.arange(n) + 0.5) * h
    return n, h, mids


# Step storage that one chunk of realizations may hold.  A realization stores
# at most one 4x4 complex step, 16 complex numbers, per step of its trajectory.
# The z path stores two 2x2 blocks, 8, and its peak working memory is that and
# the first level of the product, half as much again.  The x drive's parity
# path stores the first columns of its two blocks, 4, and the first level, 2,
# of which _pair_products builds the full later matrices a block at a time.
# Beyond a few MiB the chunk outgrows the cache and the product slows down.  On
# a 2-vCPU Xeon VM, 2 MiB ran the bench's trajectory workload 3 % slower than
# 3 MiB, with 1.2 MB less peak memory.
CHUNK_STEP_BYTES = 2 << 20
_STEP_BYTES = 16 * np.dtype(complex).itemsize


def _chunk_size(n_steps: int) -> int:
    """Realizations per chunk at a point of ``n_steps`` steps: as many as
    :data:`CHUNK_STEP_BYTES` holds, and at least one."""
    return max(1, CHUNK_STEP_BYTES // (n_steps * _STEP_BYTES))


# Noise that one block of an ensemble's realizations may hold: its samples and
# its coefficients at the midpoints of steps of h and 2h, about 4 floats per
# step of h and realization.  A larger ensemble is taken block by block.
ENSEMBLE_BLOCK_BYTES = 4 << 20
_NOISE_STEP_BYTES = 4 * np.dtype(float).itemsize


def _block_size(n_steps: int) -> int:
    """Realizations per noise block at a point of ``n_steps`` steps: as many
    as :data:`ENSEMBLE_BLOCK_BYTES` holds, and at least one."""
    return max(1, ENSEMBLE_BLOCK_BYTES // (n_steps * _NOISE_STEP_BYTES))


def _product_in_order(mats: np.ndarray, pair=None) -> np.ndarray:
    """Time-ordered products U[n-1] ... U[1] U[0] of an (..., n, d, d) stack,
    one (d, d) product per index of the leading axes, by pairwise tree
    reduction; with ``pair`` = :func:`_pair_products`, the first columns
    (2, ...) of the products of SU(2) matrices that a (2, ..., n) stack gives
    by their first columns.

    Each level multiplies neighbouring pairs, later @ earlier, for every
    leading index at once, into a new array by ``pair(later, earlier, out=)``,
    an ``np.einsum`` over the step axis innermost, so no level calls BLAS; an
    odd first step is carried to the next level.  Each product has the bits
    that its own (n, d, d) stack gives alone.  The full stack is read through
    ``np.moveaxis``, free for the (..., n, d, d) views of (d, d, ..., n)
    storage that the step builders return; any other layout works too.  The
    stack is released after the first level, so it is freed there unless the
    caller keeps a reference to it.
    """
    full = pair is None
    if full:
        mats, pair = np.moveaxis(mats, (-2, -1), (0, 1)), functools.partial(np.einsum, "il...k,lj...k->ij...k")
    while (n := mats.shape[-1]) > 1:
        head = n % 2
        level = np.empty(mats.shape[:-1] + (head + n // 2,), dtype=mats.dtype)
        level[..., :head] = mats[..., :head]
        pair(mats[..., head + 1::2], mats[..., head::2], out=level[..., head:])
        mats = level
    return np.moveaxis(mats[..., 0], (0, 1), (-2, -1)) if full else mats[..., 0]


def _cos_sinc(lam: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """cos(lam dt) and sin(lam dt) / lam (-> dt at lam = 0), computed in
    place so that a chunk holds few temporaries of its size."""
    phase = lam * dt
    sinc = np.sin(phase)
    positive = lam > 0.0
    sinc /= np.where(positive, lam, 1.0)
    sinc[~positive] = dt
    return np.cos(phase, out=phase), sinc


def _su2_columns(cos: np.ndarray, sinc: np.ndarray, bx, by, hzs: tuple, out: np.ndarray) -> None:
    """Write into ``out``, (2, blocks, ..., n) storage with the step axis
    innermost, the first columns (a, b) of the 2x2 step unitaries cos I - i
    sinc (h_x sigma_x + h_y sigma_y + h_z sigma_z) of each block, with (h_x,
    h_y) = (b_x, b_y)/2 and the block's own h_z from ``hzs``: a = cos - i sinc
    h_z, and b = sinc (h_y - i h_x) in every block.  b_x, b_y and each h_z are
    arrays over (..., n) or scalars."""
    # Each entry is computed from fresh operands, never from another view of
    # ``out``: numpy 2.4 writes the wrong elements when a unary float ufunc
    # maps a (c, 1) view with 64-byte rows onto such a view or onto itself.
    # -(s x) is written as s (-x), which has the same bits.
    a, b = out
    a.real[...] = cos
    for block, hz in enumerate(hzs):
        np.multiply(sinc, -hz, out=a.imag[block])
    np.multiply(sinc, 0.5 * by, out=b.real[0])
    np.multiply(sinc, -0.5 * bx, out=b.imag[0])
    b[1:] = b[0]


def _second_columns(first: np.ndarray, out: np.ndarray) -> None:
    """Write into ``out`` the second columns (-conj b, conj a) of the SU(2)
    matrices [[a, -conj b], [b, conj a]] whose first columns (a, b) are
    ``first``, both (2, ...)."""
    np.conjugate(first[1], out=out[0])
    np.negative(out[0], out=out[0])
    np.conjugate(first[0], out=out[1])


def _su2_steps(cos: np.ndarray, sinc: np.ndarray, bx, by, hzs: tuple, out: np.ndarray) -> None:
    """Write into ``out``, (2, 2, blocks, ..., n) storage, the full 2x2 steps
    whose first columns :func:`_su2_columns` writes."""
    _su2_columns(cos, sinc, bx, by, hzs, out[:, 0])
    _second_columns(out[:, 0], out[:, 1])


def _x_drive_unitaries_bath(omega_eff: float, b: tuple, dt: float) -> np.ndarray:
    """Step unitaries of the x drive through the toy bath, for coefficient
    arrays of shape (..., n), as the (..., n, 4, 4) view of (4, 4, ..., n)
    storage: each entry is one contiguous row over the steps, which
    :func:`_product_in_order` reads without a copy."""
    # H = (W/2) sx x I + sz x m.tau with m = (bx, by, bz)/2; the two terms
    # anticommute so H^2 = ((W/2)^2 + |m|^2) I and U = cos(lam dt) I - i sinc H:
    # the SU(2) step of m.tau and its adjoint on the diagonal, and -i sinc W/2
    # where sx x I flips the system.
    bx, by, bz = b
    cos, sinc = _cos_sinc(np.sqrt((0.5 * omega_eff) ** 2 + 0.25 * (bx**2 + by**2 + bz**2)), dt)
    u = np.zeros((4, 4) + cos.shape, dtype=complex)
    _su2_steps(cos, sinc, bx, by, (0.5 * bz,), u[:2, :2, None])
    np.conj(u[:2, :2].swapaxes(0, 1), out=u[2:, 2:])
    u.imag[[0, 1, 2, 3], [2, 3, 0, 1]] = sinc * (-0.5 * omega_eff)
    return np.moveaxis(u, (0, 1), (-2, -1))


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


def _x_drive_columns(omega_eff: float, bx: np.ndarray, by: np.ndarray, dt: float) -> np.ndarray:
    """First columns (a, b), (2, 2, c, n) storage, of the P = +1 and P = -1
    blocks of the x drive's step unitaries through a toy bath with b_z = 0,
    in the columns of :data:`_X_PARITY_BASIS`, for (c, n) coefficient arrays."""
    # in the two blocks H = +-(W/2) sz + m_x sx + m_y sy, m = (bx, by)/2, with
    # the 4x4 step's lam, so U = cos(lam dt) I - i sinc H in each
    cos, sinc = _cos_sinc(np.sqrt((0.5 * omega_eff) ** 2 + 0.25 * (bx**2 + by**2)), dt)
    columns = np.empty((2, 2) + cos.shape, dtype=complex)
    _su2_columns(cos, sinc, bx, by, (0.5 * omega_eff, -0.5 * omega_eff), columns)
    return columns


# Bytes of the full later matrices that _pair_products builds at a time, so
# that a level of the column product holds little beyond its input and output.
_PAIR_BLOCK_BYTES = 1 << 16


def _su2_matrices(first: np.ndarray) -> np.ndarray:
    """SU(2) matrices [[a, -conj b], [b, conj a]] from their first columns
    (a, b), (2, ...): ``full[l, i]`` is entry (i, l)."""
    full = np.empty((2,) + first.shape, dtype=complex)
    full[0] = first
    _second_columns(full[0], full[1])
    return full


def _pair_products(later: np.ndarray, earlier: np.ndarray, out: np.ndarray) -> None:
    """First columns of later @ earlier for SU(2) matrices given by their
    first columns, (2, ...) each, into ``out``: one ``np.einsum`` of the full
    later matrices per block of steps (:data:`_PAIR_BLOCK_BYTES`), with the
    same arithmetic for each entry as the first column of the full product,
    at half its complex multiply-adds."""
    step = max(1, _PAIR_BLOCK_BYTES // (2 * later[..., :1].nbytes))
    for k in range(0, later.shape[-1], step):
        steps = slice(k, k + step)
        np.einsum("li...k,l...k->i...k", _su2_matrices(later[..., steps]), earlier[..., steps], out=out[..., steps])


def _x_drive_product(omega_eff: float, bx: np.ndarray, by: np.ndarray, dt: float) -> np.ndarray:
    """First columns (a, b), (2, 2, c), of the time-ordered products of the
    two parity blocks of the x drive's steps (:func:`_x_drive_columns`)."""
    return _product_in_order(_x_drive_columns(omega_eff, bx, by, dt), _pair_products)


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


def _propagate_chunk(drive: DriveConfig, b, h: float) -> np.ndarray:
    """The joint propagators, (c, 4, 4), of a chunk of toy-bath realizations
    whose coefficients ``b`` = (b_x, b_y, b_z) are (c, n) arrays at the step
    midpoints, for steps of ``h``.

    The Hamiltonian is held constant on each step and exponentiated exactly,
    so every step is unitary to machine precision.  One step build and one
    time-ordered product serve the whole chunk.  A z drive's steps are block
    diagonal in the joint basis.  Under an x drive, H = (W/2) sx x I + sz x
    (b_x tx + b_y ty + b_z tz)/2, and the parity P = sx x tz commutes with the
    drive term and with the b_x and b_y terms (two sign flips: sz against sx,
    tx or ty against tz) but anticommutes with the b_z term (one flip).  So
    when b_z is zero at every step of every realization (the main-text bath)
    the two P sectors are propagated as 2x2 SU(2) blocks, of which
    :func:`_x_drive_product` multiplies only the first columns, completed by
    :func:`_su2_matrices` and mapped back through
    :data:`_X_PARITY_BASIS`; otherwise (the three-axis bath) P
    is not conserved and the 4x4 steps are multiplied.  A state differs from
    the one its realization gives alone only when the chunk mixes the two
    cases, and then by rounding.
    """
    omega_eff = drive.effective_amplitude
    # each step stack goes straight into _product_in_order, which frees it
    # after the first tree level: the chunk never holds a stack and two levels
    if drive.axis is not DriveAxis.X_PLUS:
        return _block_diagonal(_product_in_order(_z_drive_blocks(omega_eff, b, h)))
    if np.any(b[2]):
        return _product_in_order(_x_drive_unitaries_bath(omega_eff, b, h))
    blocks = np.moveaxis(_su2_matrices(_x_drive_product(omega_eff, b[0], b[1], h)), (1, 0), (-2, -1))
    return _X_PARITY_BASIS @ _block_diagonal(blocks) @ _X_PARITY_BASIS.T


def _propagate(drive: DriveConfig, noise, rho0: QubitState, dt: float, rows: int) -> np.ndarray:
    """Propagate ``rows`` toy-bath realizations exactly, in chunks of
    :func:`_chunk_size`; returns their checked reduced states at T, (rows,
    2, 2).  ``noise(t)`` gives each coefficient with one row per realization,
    or one row that they share; the caller checks the step against it.
    Every state has the bits that its realization gives alone, whatever the
    chunks, unless a chunk mixes b_z = 0 and b_z != 0 (see
    :func:`_propagate_chunk`)."""
    n, h, mids = _steps(drive.duration, dt)
    b = [np.broadcast_to(coefficient, (rows, n)) for coefficient in noise(mids)]
    chunk = _chunk_size(n)
    u_total = np.empty((rows, 4, 4), dtype=complex)
    for start in range(0, rows, chunk):
        u_total[start:start + chunk] = _propagate_chunk(drive, [c[start:start + chunk] for c in b], h)
    rho_joint = u_total @ np.kron(rho0.matrix, _BATH_GROUND) @ np.conj(np.swapaxes(u_total, -1, -2))
    states = _reduce_system(rho_joint)
    check_states(states)
    return states


def simulate_trajectory(drive: DriveConfig, noise: ToyBathNoise, rho0: QubitState, dt: float) -> QubitState:
    """Propagate one toy-bath realization exactly; returns the reduced state
    at T.  This is the one-row case of :func:`_propagate`: the tests'
    reference for the states of an ensemble, and a binding of the benchmark
    tracer.  No campaign calls it, so it is not exported."""
    _validate_step(drive, noise, dt)
    return QubitState(_propagate(drive, noise, rho0, dt, 1)[0])


def ensemble_expectation(drive: DriveConfig, noise_factory, rho0: QubitState, observable: str, n_realizations: int,
                         base_seed: int, dt: float) -> tuple[float, float]:
    """Monte-Carlo mean of <sigma_obs(T)> over seeded noise realizations at
    the step ``dt``, with its std error: :func:`sized_expectation`'s floor run.

    ``noise_factory(seeds)`` must build the noise of a list of seeds'
    realizations, each coefficient with one row per seed in order (or one
    row that all share); realization ``k`` uses the child seed
    ``derive_seed(base_seed, k)``, so results are reproducible and
    order-independent.  The factory and :func:`_propagate` take blocks of
    :func:`_block_size` realizations.  With either toy-bath variant each
    value has the bits of its realization alone."""
    values = _ensemble_values(drive, noise_factory, rho0, observable, n_realizations, base_seed, dt)
    return _moments(values[0])


def _ensemble_values(drive, noise_factory, rho0, observable, n_realizations, base_seed, dt, runs=1):
    """(runs, n_realizations) values of :func:`ensemble_expectation`, run 1 at 2 dt on ``every_other()``."""
    if n_realizations < 2:
        raise DynamicsError("ensemble needs at least 2 realizations")
    seeds = derive_seeds(base_seed, np.arange(n_realizations)[:, None]).tolist()
    rows = _block_size(_steps(drive.duration, dt)[0])
    values = np.empty((runs, n_realizations))
    for start in range(0, n_realizations, rows):
        noise, block = noise_factory(seeds[start:start + rows]), values[:, start:start + rows]
        _validate_step(drive, noise, runs * dt)
        for run, row in enumerate(block):
            states = _propagate(drive, noise.every_other() if run else noise, rho0, (1 + run) * dt, row.size)
            row[:] = expectations(states, [_PAULI_CODES[observable]] * row.size)
    return values


def _moments(values: np.ndarray) -> tuple[float, float]:
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


def sized_expectation(drive: DriveConfig, noise_factory, rho0: QubitState, observable: str, n_realizations: int,
                      base_seed: int, correlation_time: float | None):
    """(mean, std error, step) of :func:`ensemble_expectation` at the step h
    that its Richardson check accepts (Phil. Trans. R. Soc. A 210, 307, 1911),
    from half the ceiling of :func:`step_limit`, with the noise of the factory
    ``noise_factory(h)``, sampled every h = T/n, n even.  A gap within
    :data:`TRACE_TOL` passes too (sigma_z conserved).  A check propagates
    1.5 floor/h floor runs' steps, and the checks stop within
    :data:`CHECK_BUDGET` floor runs: the floor then runs unchecked, so that
    no point propagates over 1.6 floor runs' steps.  A failed check aims the
    h^2 law at half the budget, or, when that is finer, at the last check
    that fits (``last`` steps) if the law passes it."""
    floor, ceiling, _ = step_limit(drive.effective_amplitude, correlation_time)
    h, spent, T = 0.5 * ceiling, 0.0, drive.duration
    while True:
        h = T / (2 * math.ceil(T / (2 * h) - 1e-12))
        if (spent := spent + 1.5 * floor / h) > CHECK_BUDGET:
            break
        fine, coarse = _ensemble_values(drive, noise_factory(h), rho0, observable, n_realizations, base_seed, h, runs=2)
        (mean, std_error), gap = _moments(fine), abs(coarse.mean() - fine.mean())
        if gap <= max(STEP_BIAS_BUDGET * std_error, TRACE_TOL):
            return mean, std_error, h
        scale, last = STEP_BIAS_BUDGET * std_error / gap, 2 * math.floor(T * (CHECK_BUDGET - spent) / (3.0 * floor))
        if last < 2 or h * math.sqrt(scale) < T / last:
            break
        h = max(h * math.sqrt(0.5 * scale), T / last)
    return *ensemble_expectation(drive, noise_factory(floor), rho0, observable, n_realizations, base_seed, floor), floor
