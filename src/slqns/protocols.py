"""Measurement-campaign orchestration for the four spin-locking protocols.

Protocols 1/2 drive along x and measure sigma_x from the two x preparations
(protocol 2 over a time series); protocols 3/4 add the two z drives with z
preparations plus an optional frame-aligned coherence block (x preparations
under the +z drive).  Each requested point is served by a backend:

* :class:`ClosedFormTclBackend` evaluates the secular-TCL closed forms with
  injected spherical spectra and SPAM parameters (optionally bypassing shot
  sampling in analytic mode);
* :class:`TrajectoryBackend` Monte-Carlo averages the exact piecewise-
  constant propagation of the dephasing toy bath.

Every measurement draws its shots from a child seed derived from the plan
seed and the point's address, so datasets are bit-reproducible and
independent of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .dynamics import (
    DriveAxis,
    DriveConfig,
    ToyBathNoise,
    check_secular_validity,
    compute_AB,
    frame_aligned_times,
    tcl_evolve_state,
)
from .noisegen import BathConfig, DSAConfig, DSARealization, build_toy_bath
from .seeding import derive_seed
from .spam import (
    MeasurementKey,
    ShotDataset,
    ShotRecord,
    SpamParams,
    faulty_state,
    povm_probabilities,
    sample_shots,
)
from .spectra import DeviceParams, SphericalSpectraSet, mhz_to_rad_per_us

__all__ = [
    "PlanError",
    "ProtocolPlan",
    "Backend",
    "ClosedFormTclBackend",
    "TrajectoryBackend",
    "run_plan",
    "LOW_FREQUENCY_CUTOFF",
]

# reported SL breakdown scale near DC: 2.3 kHz expressed as rad/us
LOW_FREQUENCY_CUTOFF = mhz_to_rad_per_us(2.3e-3)

# slack (us) on the noise horizon T + lag against rounding of the time grid
_GRID_MARGIN = 1e-9

_AXIS_ENUM = {"x": DriveAxis.X_PLUS, "z+": DriveAxis.Z_PLUS, "z-": DriveAxis.Z_MINUS}
_DRIVE_CODE = {"x": 0, "z+": 1, "z-": 2}
_INIT_CODE = {"x+": 0, "x-": 1, "z+": 2, "z-": 3}
_OBS_CODE = {"x": 0, "y": 1, "z": 2}


class PlanError(ValueError):
    """Protocol plan violates its invariants."""


@dataclass(frozen=True)
class ProtocolPlan:
    """Validated grid of drives, times, and shot counts for one protocol."""

    protocol_id: int
    omegas: tuple
    times: tuple
    aligned_n: tuple = ()
    n_shots: int = 1000
    seed: int = 0
    long_time_threshold: float = dynamics.DEFAULT_LONG_TIME_THRESHOLD
    allow_low_frequency: bool = False
    include_aligned: bool = True

    def __post_init__(self):
        if self.protocol_id not in (1, 2, 3, 4):
            raise PlanError(f"protocol_id must be 1..4, got {self.protocol_id}")
        omegas = tuple(float(w) for w in self.omegas)
        times = tuple(float(t) for t in self.times)
        if not omegas:
            raise PlanError("plan needs at least one drive amplitude")
        if len(set(omegas)) != len(omegas):
            raise PlanError("duplicate drive amplitudes in plan")
        if not times or len(set(times)) != len(times):
            raise PlanError("plan times must be non-empty and distinct")
        if any(t <= 0.0 for t in times):
            raise PlanError("plan times must be positive")
        if self.protocol_id in (1, 3) and len(times) != 1:
            raise PlanError(f"protocol {self.protocol_id} takes exactly one evolution time")
        if self.protocol_id in (2, 4) and len(times) < 3:
            raise PlanError(f"protocol {self.protocol_id} needs at least 3 distinct times")
        if self.n_shots < 1:
            raise PlanError("n_shots must be >= 1")
        aligned_n = tuple(int(n) for n in self.aligned_n)
        if self.protocol_id in (3, 4) and self.include_aligned and not aligned_n:
            raise PlanError(
                f"protocol {self.protocol_id} needs aligned_n (or include_aligned=False)"
            )
        if any(n < 1 for n in aligned_n):
            raise PlanError("aligned_n entries must be integers >= 1")
        for w in omegas:
            if w == 0.0:
                raise PlanError("drive amplitude must be nonzero")
            if abs(w) < LOW_FREQUENCY_CUTOFF and not self.allow_low_frequency:
                raise PlanError(
                    f"|Omega| = {abs(w)} rad/us is inside the low-frequency exclusion "
                    f"window (< {LOW_FREQUENCY_CUTOFF:.3g}); set allow_low_frequency "
                    "to override"
                )
            for t in times:
                if abs(w) * t < self.long_time_threshold:
                    raise PlanError(
                        f"|Omega| T = {abs(w) * t:.3g} violates the long-time condition "
                        f"(threshold {self.long_time_threshold:g})"
                    )
            for n in aligned_n:
                if 2.0 * math.pi * n < self.long_time_threshold:
                    raise PlanError(
                        f"aligned index n = {n} gives |Omega| T = {2 * math.pi * n:.3g} "
                        f"below the long-time threshold"
                    )
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "aligned_n", aligned_n)

    def aligned_times(self, omega: float) -> np.ndarray:
        if not self.aligned_n:
            return np.array([])
        return frame_aligned_times(omega, self.aligned_n)


class Backend:
    """Point evaluator contract: one measured expectation per request."""

    analytic: bool = False

    def measure(
        self,
        drive_axis: str,
        omega: float,
        init: str,
        observable: str,
        time: float,
        n_shots: int,
        seed: int,
    ) -> ShotRecord:  # pragma: no cover - interface
        raise NotImplementedError


def _drive_config(drive_axis: str, omega: float, time: float) -> DriveConfig:
    axis = _AXIS_ENUM[drive_axis]
    amplitude = omega if axis is DriveAxis.X_PLUS else abs(omega)
    # plan-level policy already enforced the long-time condition
    return DriveConfig(axis=axis, amplitude=amplitude, duration=time, long_time_threshold=0.0)


class ClosedFormTclBackend(Backend):
    """Secular-TCL closed forms with injected spectra and SPAM errors."""

    def __init__(
        self,
        spectra: SphericalSpectraSet,
        device: DeviceParams,
        spam: SpamParams | None = None,
        *,
        analytic: bool = False,
    ):
        self.spectra = spectra
        self.device = device
        self.spam = spam if spam is not None else SpamParams.ideal()
        self.analytic = analytic

    def measure(self, drive_axis, omega, init, observable, time, n_shots, seed) -> ShotRecord:
        self.device.check_drive_amplitude(omega)
        drive = _drive_config(drive_axis, omega, time)
        rates = compute_AB(self.spectra, drive.effective_amplitude, self.device)
        check_secular_validity(rates.a_rate, drive.effective_amplitude)
        rho0 = faulty_state(init[0], +1 if init[1] == "+" else -1, self.spam)
        final = tcl_evolve_state(drive, self.spectra, self.device, rho0)
        p_plus, _ = povm_probabilities(final, observable, self.spam)
        if self.analytic:
            return ShotRecord.exact(2.0 * p_plus - 1.0)
        return sample_shots(min(max(p_plus, 0.0), 1.0), n_shots, seed)


class TrajectoryBackend(Backend):
    """Monte-Carlo trajectory averaging over the dephasing toy bath."""

    def __init__(
        self,
        dsa_config: DSAConfig,
        bath_config: BathConfig,
        spam: SpamParams | None = None,
        *,
        n_realizations: int = 400,
        analytic: bool = False,
    ):
        self.dsa_config = dsa_config
        self.bath_config = bath_config
        self.spam = spam if spam is not None else SpamParams.ideal()
        self.n_realizations = int(n_realizations)
        self.analytic = analytic

    def _step(self, omega: float) -> float:
        limit = dynamics.STEP_DRIVE_FRACTION / abs(omega)
        t_corr = self.dsa_config.correlation_time
        return 0.9 * min(limit, dynamics.STEP_NOISE_FRACTION * t_corr)

    def _noise_factory(self, omega: float, time: float, dt: float):
        horizon = time + self.bath_config.lag_gamma + _GRID_MARGIN
        grid = np.arange(0.0, horizon + dt, dt)

        def factory(seed: int) -> ToyBathNoise:
            trajectory = DSARealization(self.dsa_config, seed).trajectory(grid)
            return ToyBathNoise(
                build_toy_bath(trajectory, self.bath_config),
                correlation_time=self.dsa_config.correlation_time,
            )

        return factory

    def measure(self, drive_axis, omega, init, observable, time, n_shots, seed) -> ShotRecord:
        drive = _drive_config(drive_axis, omega, time)
        dt = self._step(drive.effective_amplitude)
        rho0 = faulty_state(init[0], +1 if init[1] == "+" else -1, self.spam)
        mean, std_error = dynamics.ensemble_expectation(
            drive,
            self._noise_factory(omega, time, dt),
            rho0,
            observable,
            self.n_realizations,
            derive_seed(seed, 0),
            dt,
        )
        p_plus = 0.5 * ((1.0 + self.spam.delta) + self.spam.alpha_m * mean)
        if self.analytic:
            record = ShotRecord(
                n_shots=0,
                n_plus=0,
                expectation=2.0 * p_plus - 1.0,
                variance=(self.spam.alpha_m * std_error) ** 2,
                analytic=True,
            )
            return record
        return sample_shots(min(max(p_plus, 0.0), 1.0), n_shots, derive_seed(seed, 1))


def _protocol_points(plan: ProtocolPlan, omega: float):
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
    if three_drive and plan.include_aligned:
        for j, t in enumerate(plan.aligned_times(omega)):
            points.append(("z+", "x+", "x", float(t), 1000 + j))
            points.append(("z+", "x-", "x", float(t), 1000 + j))
    return points


def run_for_omega(backend: Backend, plan: ProtocolPlan, omega: float, omega_index: int = 0) -> ShotDataset:
    """Execute one protocol at one drive amplitude."""
    dataset = ShotDataset()
    for drive_axis, init, observable, time, time_index in _protocol_points(plan, omega):
        seed = derive_seed(
            plan.seed, plan.protocol_id, omega_index,
            _DRIVE_CODE[drive_axis], _INIT_CODE[init], _OBS_CODE[observable], time_index,
        )
        record = backend.measure(drive_axis, omega, init, observable, time, plan.n_shots, seed)
        dataset.add(MeasurementKey(drive_axis, omega, init, observable, float(time)), record)
    return dataset


def run_plan(backend: Backend, plan: ProtocolPlan, jobs: int = 1) -> ShotDataset:
    """Execute a plan over its full drive-amplitude grid.

    Frequencies are independent; with ``jobs > 1`` they are dispatched to a
    thread pool and merged by key, which cannot change the result.
    """
    merged = ShotDataset()
    if jobs <= 1:
        for i, omega in enumerate(plan.omegas):
            merged.merge(run_for_omega(backend, plan, omega, i))
        return merged
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [
            pool.submit(run_for_omega, backend, plan, omega, i)
            for i, omega in enumerate(plan.omegas)
        ]
        for future in futures:
            merged.merge(future.result())
    return merged
