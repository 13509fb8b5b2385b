"""Synthesis of stationary Gaussian noise and the two-qubit toy bath.

A zero-mean stationary Gaussian trajectory with a prescribed generating
spectrum ``S~(omega)`` is built as a finite cosine/sine sum over a uniform
frequency grid ``omega_j = j * d_omega``::

    beta(t) = sum_j G_j [A_j cos(omega_j t) + B_j sin(omega_j t)],
    G_j = sqrt(d_omega * S~(omega_j) / pi),

with ``A_j, B_j`` i.i.d. standard normal.  The exact ensemble
autocorrelation is ``<beta(t) beta(s)> = sum_j G_j^2 cos(omega_j (t-s))``.

Evaluating the sum densely costs one ``cos`` and one ``sin`` per (time,
frequency) pair.  When a trajectory is requested on a grid with
``t_k = k * h`` exactly (what ``np.arange(0.0, H, h)`` produces, and what the
trajectory backend builds), the sum is evaluated in blocks of ``B = 64``
samples instead: with ``k = a B + b`` and ``g_j = G_j (A_j - i B_j)``::

    beta(t_k) = Re sum_j g_j exp(i omega_j a B h) exp(i omega_j b h),

one complex matrix product of a coarse (ceil(N_t / B) x N_omega) and a fine
(B x N_omega) phase table.  The tables depend only on the two grids, so they
are built once and shared, read-only, by every realization on that grid.
This is the spectral-representation method (Shinozuka & Deodatis, Appl. Mech.
Rev. 44, 191, 1991).  The blocked samples match the dense sum to rounding
(about 1e-15 of ``sum_j |G_j|``).  Any other grid, and
:meth:`DSARealization.evaluate` at arbitrary times, uses the dense sum.

An ensemble is sampled as one block, :func:`sample_ensemble`: the
realizations of a list of seeds as the rows of one :class:`NoiseTrajectory`
on their shared grid.  Each row is its own seed's product, so it has the bits
that :meth:`DSARealization.trajectory` gives alone; the grid and the samples
are checked once for the block.  A trajectory is read between its samples by
linear interpolation with the bits of ``np.interp``, every row at once from
one index computation.

Feeding a trajectory into a single bath qubit (:class:`BathCoefficients`)
with a time lag between two coupling axes produces a non-commuting (quantum)
dephasing environment whose spectra, :func:`target_spectra`, read the
one-sided ``S~`` at ``|omega|``, as the closed-form backend reads a model.
"""

from __future__ import annotations

import copy
import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from .seeding import spawn_rng
from .spectra import Lorentzian, SpectrumModel, SphericalSpectraSet, _warn, dephasing_spectra, evaluate_spectrum

__all__ = [
    "DSAConfig",
    "NoiseTrajectory",
    "DSARealization",
    "BathConfig",
    "BathCoefficients",
    "BathVariant",
    "target_spectra",
    "default_dsa_config",
    "sample_ensemble",
]

CUTOFF_ADEQUACY_RATIO = 1e-3
SYNTHESIS_BLOCK = 64  # samples per row of the blocked evaluation


@dataclass(frozen=True)
class DSAConfig:
    """Frequency-grid discretization for Gaussian noise synthesis."""

    spectrum: SpectrumModel
    omega_max: float       # cutoff angular frequency, rad/us
    n_omega: int = 512     # number of frequency bins

    def __post_init__(self):
        if not (np.isfinite(self.omega_max) and self.omega_max > 0.0):
            raise ValueError(f"omega_max must be finite and > 0, got {self.omega_max}")
        if self.n_omega < 2:
            raise ValueError(f"n_omega must be >= 2, got {self.n_omega}")
        if not self.cutoff_adequate():
            _warn("generating spectrum has not decayed to 1e-3 of its peak at the "
                  "cutoff omega_max; synthesized noise will miss spectral weight")

    @property
    def d_omega(self) -> float:
        return self.omega_max / self.n_omega

    @property
    def frequencies(self) -> np.ndarray:
        """Grid omega_j = j * d_omega, j = 0 .. n_omega - 1."""
        return self.d_omega * np.arange(self.n_omega)

    @functools.cached_property
    def amplitudes(self) -> np.ndarray:
        """Mode amplitudes G_j, evaluated once per config and read-only."""
        values = np.asarray(evaluate_spectrum(self.spectrum, self.frequencies), dtype=float)
        amplitudes = np.sqrt(self.d_omega * values / np.pi)
        amplitudes.flags.writeable = False
        return amplitudes

    def cutoff_adequate(self) -> bool:
        """True when the spectrum at the cutoff is <= 1e-3 of its grid maximum."""
        values = np.asarray(evaluate_spectrum(self.spectrum, self.frequencies), dtype=float)
        peak = float(values.max(initial=0.0))
        if peak == 0.0:
            return True
        tail = float(evaluate_spectrum(self.spectrum, self.omega_max))
        return tail <= CUTOFF_ADEQUACY_RATIO * peak

    @property
    def correlation_time(self) -> float:
        """Shortest timescale a simulator step must resolve (1/omega_max)."""
        tc = getattr(self.spectrum, "tc", None)
        fastest = 1.0 / self.omega_max
        return min(tc, fastest) if tc is not None else fastest


def default_dsa_config(spectrum: SpectrumModel, n_omega: int = 512) -> DSAConfig:
    """Config with a cutoff capturing essentially all spectral weight.

    For a Lorentzian the cutoff is ``omega0 + 32/tc``, 32 widths beyond the
    peak, where the tail is below 1e-3 of the maximum; a tabulated spectrum
    is cut at the end of its grid.  Any other model raises ``ValueError``.
    """
    if isinstance(spectrum, Lorentzian):
        omega_max = spectrum.omega0 + 32.0 / spectrum.tc
    elif hasattr(spectrum, "grid"):
        omega_max = float(spectrum.grid[-1])
    else:
        raise ValueError(
            "no natural cutoff for this spectrum model; construct DSAConfig explicitly"
        )
    return DSAConfig(spectrum=spectrum, omega_max=omega_max, n_omega=n_omega)


@dataclass(frozen=True)
class NoiseTrajectory:
    """Sampled noise beta(t_i) on one time grid, with its construction
    metadata: one realization, ``samples`` of shape (n,) and an int
    ``seed``, or an ensemble, (R, n) samples with one row per realization and
    the tuple of their seeds.  The grid is checked once for all rows."""

    times: np.ndarray
    samples: np.ndarray
    seed: int | tuple
    config: DSAConfig

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        samples = np.asarray(self.samples, dtype=float)
        if times.ndim != 1 or samples.ndim not in (1, 2) or samples.shape[-1] != times.size:
            raise ValueError("times/samples must be 1-D arrays of equal length")
        if times.size == 0:
            raise ValueError("time grid must be non-empty")
        if not np.all(np.diff(times) > 0.0):
            raise ValueError("time grid must be strictly increasing")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "samples", samples)

    def __call__(self, t) -> np.ndarray:
        """Linear interpolation between grid points, of shape
        ``samples.shape[:-1] + t.shape``; error outside coverage."""
        t = np.asarray(t, dtype=float)
        if np.any(t < self.times[0] - 1e-12) or np.any(t > self.times[-1] + 1e-12):
            raise ValueError(
                f"requested times outside trajectory coverage "
                f"[{self.times[0]}, {self.times[-1]}]"
            )
        return _interpolate(t, self.times, self.samples)


def _interpolate(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """``np.interp(x, xp, row)`` for every row of finite ``fp`` (..., n), bit
    for bit, with the index and the grid differences computed once for all rows;
    the result has shape ``fp.shape[:-1] + x.shape``.  As in ``np.interp``,
    ``x`` on a grid point, left of the grid or at or right of its last point
    takes that sample, and any other ``x`` in ``[xp[j], xp[j+1])`` takes
    ``slope (x - xp[j]) + fp[j]``, ``slope = (fp[j+1] - fp[j]) / (xp[j+1] - xp[j])``.
    The rows are read one at a time, so that no temporary outgrows a row."""
    shape, x, n = fp.shape[:-1] + x.shape, x.reshape(-1), xp.size
    fp = fp.reshape(-1, n)
    nearest = np.clip(np.searchsorted(xp, x, side="right") - 1, 0, n - 1)
    if n == 1:
        return fp[:, nearest].reshape(shape)
    left = np.minimum(nearest, n - 2)
    right = left + 1
    spacing, offset = xp[right] - xp[left], x - xp[left]
    values = np.empty((fp.shape[0], x.size))
    for row, samples in zip(values, fp):
        lower = samples[left]
        np.subtract(samples[right], lower, out=row)
        row /= spacing
        row *= offset
        row += lower
    on_sample = (xp[nearest] == x) | (x < xp[0]) | (x >= xp[-1])
    if on_sample.any():
        values[:, on_sample] = fp[:, nearest[on_sample]]
    return values.reshape(shape)


def _uniform_step(time_grid: np.ndarray) -> float:
    """``h`` when ``time_grid`` is exactly ``k * h``, k = 0 .. n - 1, with
    n >= 2 and h > 0, the grid that the blocked evaluation takes; else 0."""
    n = time_grid.size
    h = float(time_grid[1]) if time_grid.ndim == 1 and n >= 2 else 0.0
    return h if h > 0.0 and np.array_equal(time_grid, np.arange(n) * h) else 0.0


class DSARealization:
    """Frozen draw of the white-noise coefficients for one trajectory.

    The trajectory is an analytic function of time, so it can be evaluated on
    any grid; :meth:`trajectory` is the grid-sampled view.
    """

    def __init__(self, config: DSAConfig, seed: int):
        self.config = config
        self.seed = int(seed)
        # g = G (A - i B), so that the trajectory is Re(sum_j exp(i w_j t) g_j)
        a, b = spawn_rng(self.seed).standard_normal((2, config.n_omega))
        self._g = config.amplitudes * a - 1j * (config.amplitudes * b)

    def evaluate(self, t) -> np.ndarray:
        """Dense mode sum at arbitrary times."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return (np.exp(1j * np.outer(t, self.config.frequencies)) @ self._g).real

    def _samples(self, time_grid: np.ndarray, h: float) -> np.ndarray:
        """Samples on ``time_grid``, blocked when ``h`` is its
        :func:`_uniform_step`, else by the dense sum."""
        if not h:
            return self.evaluate(time_grid)
        coarse, fine = _phase_tables(self.config.d_omega, self.config.n_omega, time_grid.size, h)
        return ((coarse * self._g) @ fine.T).reshape(-1)[:time_grid.size].real

    def trajectory(self, time_grid) -> NoiseTrajectory:
        """Samples on ``time_grid``; blocked when ``t_k = k * h`` exactly."""
        time_grid = np.asarray(time_grid, dtype=float)
        return NoiseTrajectory(
            times=time_grid,
            samples=self._samples(time_grid, _uniform_step(time_grid)),
            seed=self.seed,
            config=self.config,
        )


def sample_ensemble(config: DSAConfig, seeds, time_grid) -> NoiseTrajectory:
    """The realizations of ``seeds`` on ``time_grid`` as the rows of one
    :class:`NoiseTrajectory`, in the order of ``seeds``: row ``k`` has the
    bits of ``DSARealization(config, seeds[k]).trajectory(time_grid)``."""
    time_grid = np.asarray(time_grid, dtype=float)
    h = _uniform_step(time_grid)
    samples = np.empty((len(seeds), time_grid.size))
    for row, seed in zip(samples, seeds):
        row[:] = DSARealization(config, seed)._samples(time_grid, h)
    return NoiseTrajectory(times=time_grid, samples=samples, seed=tuple(seeds), config=config)


@functools.lru_cache(maxsize=8)
def _phase_tables(d_omega: float, n_omega: int, n_t: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only tables exp(i omega_j a B h) (coarse) and exp(i omega_j b h) (fine).

    Shared by every caller on the same grids, hence read-only.
    """
    frequencies = d_omega * np.arange(n_omega)  # DSAConfig.frequencies
    n_blocks = -(-n_t // SYNTHESIS_BLOCK)
    coarse = np.exp(1j * np.outer(np.arange(n_blocks) * SYNTHESIS_BLOCK * h, frequencies))
    fine = np.exp(1j * np.outer(np.arange(SYNTHESIS_BLOCK) * h, frequencies))
    coarse.flags.writeable = False
    fine.flags.writeable = False
    return coarse, fine


class BathVariant(enum.Enum):
    """Coupling-axis assignment for the toy bath."""

    MAIN_TEXT = "main_text"    # b_x = beta(t), b_y = beta(t + gamma), b_z = 0
    THREE_AXIS = "three_axis"  # b_x = b_z = beta(t), b_y = beta(t + gamma)


@dataclass(frozen=True)
class BathConfig:
    """Single-bath-qubit coupling layout; the bath starts in its z+ state."""

    lag_gamma: float = 0.0
    variant: BathVariant = BathVariant.MAIN_TEXT

    def __post_init__(self):
        if self.lag_gamma < 0.0 or not np.isfinite(self.lag_gamma):
            raise ValueError(f"lag_gamma must be finite and >= 0, got {self.lag_gamma}")


@dataclass(frozen=True)
class BathCoefficients:
    """Time-indexed bath coefficient triple built from a trajectory, one
    realization or an ensemble, each coefficient of shape
    ``trajectory.samples.shape[:-1] + t.shape``.

    Valid for ``t`` in ``[t0, t_end - gamma]`` so the lagged access stays on
    the trajectory grid.
    """

    trajectory: NoiseTrajectory
    config: BathConfig
    t_min: float = field(init=False)
    t_max: float = field(init=False)

    def __post_init__(self):
        t0, t_end = self.trajectory.times[0], self.trajectory.times[-1]
        t_max = t_end - self.config.lag_gamma
        if t_max < t0:
            raise ValueError(
                f"lag {self.config.lag_gamma} us exceeds trajectory coverage "
                f"({t_end - t0} us)"
            )
        object.__setattr__(self, "t_min", float(t0))
        object.__setattr__(self, "t_max", float(t_max))

    def __call__(self, t):
        """Coefficients (b_x, b_y, b_z) at times ``t``; the main-text b_z is
        a read-only view of zeros."""
        t = np.asarray(t, dtype=float)
        if np.any(t < self.t_min - 1e-12) or np.any(t > self.t_max + 1e-12):
            raise ValueError(
                f"bath coefficients requested outside [{self.t_min}, {self.t_max}]"
            )
        # t and t + gamma are read in one interpolation, and t once when gamma is 0
        lag = self.config.lag_gamma
        beta = np.moveaxis(self.trajectory(np.stack((t, t + lag)) if lag else t[None]), -1 - t.ndim, 0)
        beta_t, beta_lag = beta[0], beta[-1]
        bz = beta_t if self.config.variant is BathVariant.THREE_AXIS else np.broadcast_to(0.0, beta_t.shape)
        return beta_t, beta_lag, bz

    def every_other(self) -> BathCoefficients:
        """The coefficients on every other sample, views of a grid checked already."""
        coarse = copy.copy(self.trajectory)
        object.__setattr__(coarse, "times", coarse.times[::2])
        object.__setattr__(coarse, "samples", coarse.samples[..., ::2])
        return BathCoefficients(coarse, self.config)


def target_spectra(config: DSAConfig, gamma: float, variant: BathVariant) -> SphericalSpectraSet:
    """Dephasing spherical spectra generated by the toy bath.

    Both variants give the quantum part ``S-(w) = S~(|w|) sin(gamma w)``;
    the classical part is ``S~(|w|)`` for the two-axis layout and
    ``1.5 S~(|w|)`` when the z coupling is added: the synthesis consumes only
    the ``w >= 0`` branch of the generating spectrum.
    """
    if gamma < 0.0:
        raise ValueError("gamma must be >= 0")
    classical_scale = {BathVariant.MAIN_TEXT: 1.0, BathVariant.THREE_AXIS: 1.5}[variant]
    return dephasing_spectra(config.spectrum, lag=gamma, classical_scale=classical_scale)
