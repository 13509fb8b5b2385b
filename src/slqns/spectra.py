"""Noise spectrum models and their spherical-basis representation.

All angular frequencies are in rad/us and spectral densities in 1/us
(hbar = 1); conversion to/from ordinary frequency in MHz happens only at
I/O boundaries via :func:`mhz_to_rad_per_us` / :func:`rad_per_us_to_mhz`.

A two-point bath correlator in the spherical basis indexed by
``(alpha, beta)`` with ``alpha, beta in {-1, 0, +1}`` is represented in the
frequency domain by ``S[alpha,beta](omega)``.  The symmetrized ("classical")
and antisymmetrized ("quantum") combinations are::

    S+[a,b](w) = S[a,b](w) + S[b,a](-w)
    S-[a,b](w) = S[a,b](w) - S[b,a](-w)

For commuting (classical) noise all ``S-`` vanish and self-spectra are even
in frequency; non-commuting baths give antisymmetric quantum self-spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Union

import numpy as np

__all__ = [
    "Lorentzian",
    "White",
    "Tabulated",
    "SpectrumModel",
    "DeviceParams",
    "SphericalSpectraSet",
    "SpectraError",
    "evaluate_spectrum",
    "split_classical_quantum",
    "spherical_from_cartesian",
    "mhz_to_rad_per_us",
    "rad_per_us_to_mhz",
]

TWO_PI = 2.0 * math.pi

# Drive amplitudes must stay far below the qubit splitting for the secular
# treatment; checked when protocols are configured.
MAX_DRIVE_TO_QUBIT_RATIO = 1e-2


class SpectraError(ValueError):
    """Invalid spectrum model or spherical-set configuration."""


def mhz_to_rad_per_us(f_mhz):
    """Ordinary frequency in MHz to angular frequency in rad/us."""
    return TWO_PI * np.asarray(f_mhz, dtype=float) if np.ndim(f_mhz) else TWO_PI * float(f_mhz)


def rad_per_us_to_mhz(omega):
    """Angular frequency in rad/us to ordinary frequency in MHz."""
    return np.asarray(omega, dtype=float) / TWO_PI if np.ndim(omega) else float(omega) / TWO_PI


@dataclass(frozen=True)
class Lorentzian:
    """Unit-peak Lorentzian centred at ``|omega| = omega0`` with width 1/tc."""

    omega0: float  # peak angular frequency, rad/us
    tc: float      # correlation time, us

    def __post_init__(self):
        if not (np.isfinite(self.omega0) and self.omega0 >= 0.0):
            raise SpectraError(f"Lorentzian omega0 must be finite and >= 0, got {self.omega0}")
        if not (np.isfinite(self.tc) and self.tc > 0.0):
            raise SpectraError(f"Lorentzian tc must be finite and > 0, got {self.tc}")

    def value(self, omega):
        w = np.abs(omega)
        return 1.0 / (1.0 + self.tc**2 * (w - self.omega0) ** 2)


@dataclass(frozen=True)
class White:
    """Frequency-independent spectrum at a constant level (1/us)."""

    level: float

    def __post_init__(self):
        if not (np.isfinite(self.level) and self.level >= 0.0):
            raise SpectraError(f"White level must be finite and >= 0, got {self.level}")

    def value(self, omega):
        return np.full_like(np.asarray(omega, dtype=float), self.level) if np.ndim(omega) else self.level


@dataclass(frozen=True)
class Tabulated:
    """Linearly interpolated spectrum; zero outside the tabulated grid."""

    grid: tuple    # sorted angular frequencies, rad/us
    values: tuple  # spectral densities, 1/us

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.size < 2 or grid.size != values.size:
            raise SpectraError("Tabulated grid/values must be 1-D with matching length >= 2")
        if not np.all(np.diff(grid) > 0.0):
            raise SpectraError("Tabulated grid must be strictly increasing")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
            raise SpectraError("Tabulated grid/values must be finite")
        if np.any(values < 0.0):
            raise SpectraError("Tabulated values must be >= 0")
        object.__setattr__(self, "grid", tuple(grid.tolist()))
        object.__setattr__(self, "values", tuple(values.tolist()))

    def value(self, omega):
        return np.interp(omega, self.grid, self.values, left=0.0, right=0.0)


SpectrumModel = Union[Lorentzian, White, Tabulated]


def evaluate_spectrum(model: SpectrumModel, omega) -> float:
    """Evaluate a spectrum model at angular frequency ``omega`` (rad/us)."""
    if not np.all(np.isfinite(omega)):
        raise SpectraError(f"spectrum evaluation requires finite omega, got {omega}")
    return model.value(omega)


def split_classical_quantum(s_value: complex, s_mirror_value: complex) -> tuple[complex, complex]:
    """Split ``S[a,b](w)`` and its mirror ``S[b,a](-w)`` into (S+, S-).

    The round trip ``S[a,b](w) == (S+ + S-) / 2`` is exact.
    """
    a, b = complex(s_value), complex(s_mirror_value)
    if not all(np.isfinite([a.real, a.imag, b.real, b.imag])):
        raise SpectraError("split requires finite inputs")
    return a + b, a - b


def spherical_from_cartesian(sxx, syy, sxy, syx, szz):
    """Map Cartesian spectra at one frequency to (S[0,0], S[-1,1], S[1,-1])."""
    s00 = szz
    s_m1p1 = sxx + syy + 1j * (sxy - syx)
    s_p1m1 = sxx + syy - 1j * (sxy - syx)
    return s00, s_m1p1, s_p1m1


@dataclass(frozen=True)
class DeviceParams:
    """Fixed qubit parameters."""

    omega_q: float  # qubit angular frequency, rad/us

    def __post_init__(self):
        if not (np.isfinite(self.omega_q) and self.omega_q > 0.0):
            raise SpectraError(f"omega_q must be finite and > 0, got {self.omega_q}")

    def check_drive_amplitude(self, omega: float) -> None:
        """Reject drive amplitudes too large for the secular treatment."""
        if abs(omega) / self.omega_q > MAX_DRIVE_TO_QUBIT_RATIO:
            raise SpectraError(
                f"|Omega|/omega_q = {abs(omega) / self.omega_q:.3g} exceeds "
                f"{MAX_DRIVE_TO_QUBIT_RATIO:g}; drive too strong for this device"
            )


Component = Callable[[float], complex]

_SPHERICAL_INDICES = (-1, 0, 1)


def _as_component(entry) -> Component:
    if callable(getattr(entry, "value", None)):
        return entry.value
    if callable(entry):
        return entry
    raise SpectraError(f"component {entry!r} is neither a SpectrumModel nor a callable")


class SphericalSpectraSet:
    """Collection of spherical spectra ``S[alpha,beta](omega)``.

    Components are callables (or :class:`SpectrumModel` instances) evaluated
    lazily.  Missing components are configuration errors rather than implicit
    zeros, so a dephasing-only set must register explicit zero transverse
    entries (see :meth:`dephasing_only`).
    """

    def __init__(self, components: Mapping[tuple[int, int], object], *, classical: bool = False):
        comps = {}
        for key, entry in components.items():
            alpha, beta = key
            if alpha not in _SPHERICAL_INDICES or beta not in _SPHERICAL_INDICES:
                raise SpectraError(f"spherical indices must be in {{-1,0,1}}, got {key}")
            comps[(int(alpha), int(beta))] = _as_component(entry)
        if not comps:
            raise SpectraError("spectra set must contain at least one component")
        self._components = comps
        self.classical = bool(classical)

    def has(self, alpha: int, beta: int) -> bool:
        return (alpha, beta) in self._components

    def value(self, alpha: int, beta: int, omega: float) -> complex:
        """``S[alpha,beta](omega)``; raises if the component is absent."""
        try:
            comp = self._components[(alpha, beta)]
        except KeyError:
            raise SpectraError(
                f"spectra set has no (alpha,beta)=({alpha},{beta}) component"
            ) from None
        return complex(comp(omega))

    def s_plus(self, alpha: int, beta: int, omega: float) -> complex:
        """Classical combination ``S[a,b](w) + S[b,a](-w)``."""
        return self.value(alpha, beta, omega) + self.value(beta, alpha, -omega)

    def s_minus(self, alpha: int, beta: int, omega: float) -> complex:
        """Quantum combination ``S[a,b](w) - S[b,a](-w)``."""
        if self.classical:
            return 0.0 + 0.0j
        return self.value(alpha, beta, omega) - self.value(beta, alpha, -omega)

    @classmethod
    def dephasing_only(cls, s00, *, classical: bool = False) -> "SphericalSpectraSet":
        """Set with a dephasing component and explicit zero transverse spectra."""
        zero = lambda omega: 0.0
        return cls(
            {(0, 0): s00, (1, -1): zero, (-1, 1): zero},
            classical=classical,
        )

    @classmethod
    def from_dephasing_plus_minus(cls, s_plus_fn, s_minus_fn=None) -> "SphericalSpectraSet":
        """Dephasing set from classical/quantum parts: ``S00 = (S+ + S-)/2``."""
        if s_minus_fn is None:
            s00 = lambda omega: 0.5 * s_plus_fn(omega)
            return cls.dephasing_only(s00, classical=True)
        s00 = lambda omega: 0.5 * (s_plus_fn(omega) + s_minus_fn(omega))
        return cls.dephasing_only(s00, classical=False)

    def with_transverse(self, s_p1m1, s_m1p1=None) -> "SphericalSpectraSet":
        """Copy of this set with transverse components replaced."""
        comps = dict(self._components)
        comps[(1, -1)] = _as_component(s_p1m1)
        comps[(-1, 1)] = _as_component(s_m1p1 if s_m1p1 is not None else s_p1m1)
        return SphericalSpectraSet(comps, classical=self.classical)

    def check_conjugation_symmetry(self, omega_grid, rtol: float = 1e-12) -> None:
        """Verify ``conj(S+[a,b](w)) == S+[-a,-b](w)`` on a sampled grid.

        Only checks pairs whose mirror component is present in the set.
        """
        for (alpha, beta) in list(self._components):
            if not self.has(-alpha, -beta):
                continue
            for omega in np.atleast_1d(omega_grid):
                for combo in ("s_plus", "s_minus"):
                    fn = getattr(self, combo)
                    lhs = np.conj(fn(alpha, beta, float(omega)))
                    rhs = fn(-alpha, -beta, float(omega))
                    scale = max(abs(lhs), abs(rhs), 1.0)
                    if abs(lhs - rhs) > rtol * scale:
                        raise SpectraError(
                            f"conjugation symmetry violated for ({alpha},{beta}) at omega={omega}"
                        )
