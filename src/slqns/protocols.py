"""Measurement-campaign orchestration for the four spin-locking protocols.

Protocols 1/2 drive along x and measure sigma_x from the two x preparations
(protocol 2 over a time series); protocols 3/4 add the two z drives with z
preparations plus an optional frame-aligned coherence block (x preparations
under the +z drive).  A backend is handed every point of a block of drive
frequencies, the whole grid or, with ``--jobs``, a contiguous slice of it:

* :class:`ClosedFormTclBackend` evaluates the secular-TCL closed forms with
  injected spherical spectra in one array pass over the block's columns,
  after a loop over its frequencies has run each drive's checks once;
* :class:`TrajectoryBackend` Monte-Carlo averages the exact piecewise-
  constant propagation of the dephasing toy bath, one ensemble per point.

Both prepare the same faulty states and pass the block's ideal expectations
through one SPAM readout, :meth:`Backend._readout`: the faulty POVM, then
either exact values (analytic mode) or one binomial draw for the whole
block.  Either backend returns the block's values as one
``spam.ShotColumns`` in plan order, which the block's dataset takes as
columns in one ``ShotDataset.extend``.

Every point draws its shots from its own child seed, derived from the plan
seed and the point's key.  A block derives all its points' streams in one
array pass, but each is still addressed by its point's key alone, so
datasets are bit-reproducible whatever the blocking of frequencies, the
execution order or ``--jobs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .dynamics import (
    DriveAxis,
    DriveConfig,
    DriveRates,
    DynamicsError,
    ToyBathNoise,
    check_states,
    closed_form_states,
    compute_AB,  # noqa: F401 - resolved here by the benchmark tracer
    expectations,
    frame_aligned_times,
    tcl_evolve_state,  # noqa: F401 - resolved here by the benchmark tracer
)
from .noisegen import BathConfig, DSAConfig, DSARealization, build_toy_bath
from .seeding import derive_seed, derive_seeds, first_uniforms
from .spam import (
    INITS,
    ShotColumns,
    ShotDataset,
    ShotRecord,
    SpamParams,
    _codes,
    _squared,
    draw_shots,
    faulty_state,
    outcome_probability,
    sample_shots,  # noqa: F401 - resolved here by the benchmark tracer
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

    def __post_init__(self):
        if self.protocol_id not in (1, 2, 3, 4):
            raise PlanError(f"protocol_id must be 1..4, got {self.protocol_id}")
        omegas = tuple(float(w) for w in self.omegas)
        times = tuple(float(t) for t in self.times)
        threshold = (self.long_time_threshold,)
        for name, values in (("drive amplitudes", omegas), ("plan times", times), ("long_time_threshold", threshold)):
            for value in values:
                if not math.isfinite(value):
                    raise PlanError(f"{name} must be finite, got {value}")
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
        if self.seed < 0:
            raise PlanError(f"seed must be >= 0, got {self.seed}")
        aligned_n = tuple(int(n) for n in self.aligned_n)
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
    """Evaluator of a block of drive frequencies.  Its ``measure_block(omegas,
    points, n_shots, seeds)`` returns one :class:`ShotColumns` row for each
    point of ``points[i]`` at ``omegas[i]``, frequency by frequency, drawn from
    the point's own seed ``seeds[i][k]``, so values do not depend on the
    blocking or on ``--jobs``.  Both backends end in :meth:`_readout`."""

    def __init__(self, spam: SpamParams | None, analytic: bool):
        self.spam = spam if spam is not None else SpamParams.ideal()
        self.analytic = analytic
        self._prepared = {i: faulty_state(i[0], +1 if i[1] == "+" else -1, self.spam) for i in INITS}

    def measure_omega(self, omega: float, points, n_shots: int, seeds) -> list[ShotRecord]:
        """The records of the points of one frequency: the one-frequency block."""
        return self.measure_block([omega], [points], n_shots, [seeds]).records()

    def measure(self, drive_axis, omega, init, observable, time, n_shots, seed) -> ShotRecord:
        """The record of one point: the one-point block."""
        return self.measure_omega(omega, [(drive_axis, init, observable, time)], n_shots, [seed])[0]

    def _readout(self, expectations, variances, n_shots: int, shot_seeds) -> ShotColumns:
        """The faulty POVM on a block's ideal expectations: exact values that
        carry ``variances`` in analytic mode, else ``n_shots`` binomial shots
        per point, drawn from the first uniform of its shot seed."""
        p_plus = outcome_probability(expectations, self.spam)
        if self.analytic:
            return ShotColumns.exact(2.0 * p_plus - 1.0)._replace(variance=np.asarray(variances, dtype=float))
        uniforms = first_uniforms(shot_seeds)
        return ShotColumns.from_counts(n_shots, draw_shots(np.clip(p_plus, 0.0, 1.0), n_shots, uniforms))


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
        super().__init__(spam, analytic)
        self.spectra = spectra
        self.device = device

    def measure_block(self, omegas, points, n_shots, seeds) -> ShotColumns:
        rows = np.repeat(np.arange(len(points)), [len(row) for row in points])
        drive, init, observable, time = (np.array(column) for column in zip(*(p for row in points for p in row)))
        # each drive's effective amplitude at every frequency, as _drive_config gives it
        amplitudes = {"x": omegas, "z+": np.abs(omegas), "z-": -np.abs(omegas)}
        rates = {d: DriveRates(_AXIS_ENUM[d], amplitudes[d], self.spectra, self.device) for d in dict.fromkeys(drive)}
        # the checks of each frequency, drive axis by drive axis, in plan order
        for i, (omega, row) in enumerate(zip(omegas, points)):
            self.device.check_drive_amplitude(omega)
            first_times = {}
            for drive_axis, _, _, t in row:
                first_times.setdefault(drive_axis, t)
            for drive_axis, t in first_times.items():
                _drive_config(drive_axis, omega, t)
                rates[drive_axis].check(i)
        bad = ~(np.isfinite(time) & (time > 0.0))
        if bad.any():
            raise DynamicsError(f"drive duration must be finite and > 0, got {time[bad][0]}")
        states = np.empty((time.size, 2, 2), dtype=complex)
        for drive_axis, axis_rates in rates.items():
            k = np.flatnonzero(drive == drive_axis)
            states[k] = closed_form_states(axis_rates, rows[k], [self._prepared[i] for i in init[k]], time[k])
        check_states(states)
        return self._readout(expectations(states, observable), np.zeros(time.size), n_shots,
                             [seed for row in seeds for seed in row])

    measure = Backend.measure  # resolved here by the benchmark tracer


class TrajectoryBackend(Backend):
    """Monte-Carlo trajectory averaging over the dephasing toy bath: one
    ensemble per point, on the stream ``derive_seed(seed, 0)``, and the shots
    of the block's points from their streams ``derive_seed(seed, 1)``."""

    def __init__(
        self,
        dsa_config: DSAConfig,
        bath_config: BathConfig,
        spam: SpamParams | None = None,
        *,
        n_realizations: int = 400,
        analytic: bool = False,
    ):
        if not (float(n_realizations).is_integer() and n_realizations >= 2):
            raise DynamicsError(f"n_realizations must be an integer >= 2, got {n_realizations!r}")
        super().__init__(spam, analytic)
        self.dsa_config = dsa_config
        self.bath_config = bath_config
        self.n_realizations = int(n_realizations)

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

    def measure_block(self, omegas, points, n_shots, seeds) -> ShotColumns:
        ensembles = []
        for omega, row, row_seeds in zip(omegas, points, seeds):
            for (drive_axis, init, observable, time), seed in zip(row, row_seeds):
                drive = _drive_config(drive_axis, omega, time)
                dt = 0.9 * dynamics.step_limit(drive.effective_amplitude, self.dsa_config.correlation_time)[0]
                noise = self._noise_factory(omega, time, dt)
                ensembles.append(dynamics.ensemble_expectation(
                    drive, noise, self._prepared[init], observable, self.n_realizations, derive_seed(seed, 0), dt))
        means, std_errors = np.array(ensembles).T
        # squared by Python's float ** 2, whose bits the analytic variances have always had
        variances = _squared(self.spam.alpha_m * std_errors)
        return self._readout(means, variances, n_shots, [derive_seed(seed, 1) for row in seeds for seed in row])

    measure = Backend.measure  # resolved here by the benchmark tracer


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
    if three_drive:
        for j, t in enumerate(plan.aligned_times(omega)):
            points.append(("z+", "x+", "x", float(t), 1000 + j))
            points.append(("z+", "x-", "x", float(t), 1000 + j))
    return points


def _run_block(backend: Backend, plan: ProtocolPlan, omegas, omega_indices) -> ShotDataset:
    """Execute one protocol at a block of drive amplitudes, the ``omega_indices``
    of the plan's grid.  Each point draws its shots from the stream keyed by
    (protocol, frequency index, drive, init, observable, time index): the
    frequency enters only as its index, and the labels as the dataset's codes."""
    points = [_protocol_points(plan, omega) for omega in omegas]
    # every frequency has the same points but for the aligned times
    drives, inits, observables, _, time_indices = zip(*points[0])
    n = len(drives)
    pattern = _codes("drive", drives), _codes("init", inits), _codes("observable", observables), time_indices
    keys = np.column_stack((np.full(len(omegas) * n, plan.protocol_id), np.repeat(omega_indices, n),
                            *(np.tile(column, len(omegas)) for column in pattern)))
    seeds = derive_seeds(plan.seed, keys).reshape(len(omegas), n)
    values = backend.measure_block(omegas, [[point[:4] for point in row] for row in points], plan.n_shots, seeds)
    dataset = ShotDataset()
    dataset.extend(keys[:, 2], np.repeat(omegas, n), keys[:, 3], keys[:, 4],
                   [point[3] for row in points for point in row], values)
    return dataset


def run_for_omega(backend: Backend, plan: ProtocolPlan, omega: float, omega_index: int = 0) -> ShotDataset:
    """Execute one protocol at one drive amplitude: the one-frequency block."""
    return _run_block(backend, plan, [omega], [omega_index])


def run_plan(backend: Backend, plan: ProtocolPlan, jobs: int = 1) -> ShotDataset:
    """Execute a plan over its full drive-amplitude grid.  The grid is one
    block; with ``jobs > 1`` it is cut into ``jobs`` contiguous blocks of
    frequency indices that run in a thread pool and are merged in grid order,
    which cannot change the result."""
    blocks = [b for b in np.array_split(np.arange(len(plan.omegas)), max(jobs, 1)) if b.size]
    calls = [(backend, plan, [plan.omegas[i] for i in b], b) for b in blocks]
    if len(calls) == 1:
        return _run_block(*calls[0])
    from concurrent.futures import ThreadPoolExecutor

    merged = ShotDataset()
    with ThreadPoolExecutor(max_workers=len(calls)) as pool:
        for future in [pool.submit(_run_block, *call) for call in calls]:
            merged.merge(future.result())
    return merged
