"""Measurement-campaign orchestration for the four spin-locking protocols.

Protocols 1/2 drive along x and measure sigma_x from the two x preparations
(protocol 2 over a time series); protocols 3/4 add the two z drives with z
preparations plus an optional frame-aligned coherence block (x preparations
under the +z drive).  A backend is handed every point of a block of drive
frequencies (a campaign's block is its whole grid) as one
:class:`PointTable`.  A protocol measures the same points at every drive
amplitude, so the table holds one layout that every frequency of the block
shares (the drive, preparation and observable as the dataset's codes,
and the time index) and a (frequencies, points) array of durations, built
once per block with no per-point Python object.

* :class:`ClosedFormTclBackend` evaluates the secular-TCL closed forms with
  injected spherical spectra in one array pass over the block, after a loop
  over its frequencies has run each drive axis's rate checks once;
* :class:`TrajectoryBackend` Monte-Carlo averages the exact piecewise-
  constant propagation of the dephasing toy bath, one ensemble per point,
  reading the durations row by row.

Both prepare the same faulty states and pass the block's ideal expectations
through one SPAM readout, :meth:`Backend._readout`: the faulty POVM, then
either exact values (analytic mode) or one binomial draw for the whole
block.  Either backend returns the block's values as one
``spam.ShotColumns`` in plan order, which the block's dataset takes as
columns in one ``ShotDataset.extend``.

Every point draws its shots from its own child seed, derived from the plan
seed and the point's key.  A block derives all its points' streams in one
array pass, but each is still addressed by its point's key alone, so
datasets are bit-reproducible whatever the blocking of frequencies or the
execution order.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

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
    _mapped,
    _square,
)
from .noisegen import BathCoefficients, BathConfig, DSAConfig, sample_ensemble
from .seeding import derive_seed, derive_seeds, first_uniforms
from .spam import (
    DRIVE_AXES,
    INITS,
    OBSERVABLES,
    PAIRS,
    ShotColumns,
    ShotDataset,
    ShotRecord,
    SpamParams,
    _codes,
    draw_shots,
    faulty_state,
    outcome_probability,
    sample_shots,  # noqa: F401 - resolved here by the benchmark tracer
)
from .spectra import DeviceParams, SphericalSpectraSet, mhz_to_rad_per_us

__all__ = [
    "PlanError",
    "ProtocolPlan",
    "PointTable",
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

# the drive axis of each drive code
_AXES = tuple(DriveAxis(label) for label in DRIVE_AXES)


class PlanError(ValueError):
    """Protocol plan violates its invariants."""


def _integer(name: str, value) -> int:
    """``value`` as an int; PlanError naming ``name`` unless it is integral
    (an integral float such as 1000.0 is)."""
    try:
        return operator.index(value)
    except TypeError:
        if isinstance(value, float) and value.is_integer():
            return int(value)
    raise PlanError(f"{name} must be an integer, got {value!r}")


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
        n_shots, seed = _integer("n_shots", self.n_shots), _integer("seed", self.seed)
        if n_shots < 1:
            raise PlanError("n_shots must be >= 1")
        if seed < 0:
            raise PlanError(f"seed must be >= 0, got {seed}")
        aligned_n = tuple(_integer("aligned_n entry", n) for n in self.aligned_n)
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
        object.__setattr__(self, "n_shots", n_shots)
        object.__setattr__(self, "seed", seed)

    def aligned_times(self, omega) -> np.ndarray:
        """The frame-aligned times of ``omega``; one row per drive of an array."""
        if not self.aligned_n:
            return np.array([])
        return frame_aligned_times(omega, self.aligned_n)


class PointTable(NamedTuple):
    """The points of a block of drive frequencies: one layout of (points,)
    columns that every frequency shares, and the (frequencies, points)
    durations ``time``, row ``i`` those of the block's frequency ``i``.
    ``drive``, ``init`` and ``observable`` are codes into
    :data:`~slqns.spam.DRIVE_AXES`, :data:`~slqns.spam.INITS` and
    :data:`~slqns.spam.OBSERVABLES`; ``time`` is in us and ``time_index``
    keys the point's shot stream: ``j`` for the plan's time ``j`` and
    ``1000 + j`` for the frame-aligned time ``j``."""

    drive: np.ndarray
    init: np.ndarray
    observable: np.ndarray
    time: np.ndarray
    time_index: np.ndarray

    @classmethod
    def of(cls, labels, time, time_index) -> "PointTable":
        """The table of the (frequencies, points) durations ``time`` whose
        points have the (drive, init, observable) ``labels``, listed once for
        every frequency; ``time_index`` is broadcast to the points likewise."""
        time = np.asarray(time, dtype=float)
        drive, init, observable = (
            np.broadcast_to(np.array(_codes(name, column), dtype=np.int8), time.shape[1:])
            for name, column in zip(("drive", "init", "observable"), zip(*labels))
        )
        return cls(drive, init, observable, time, np.broadcast_to(time_index, time.shape[1:]))


class Backend:
    """Evaluator of a block of drive frequencies.  Its ``evaluate(omegas,
    table, n_shots, seeds)`` reads a :class:`PointTable` and returns one
    :class:`ShotColumns` row for each of its points, row after row, the
    point in row ``i`` measured at ``omegas[i]`` and drawn from its own seed
    ``seeds[i, k]``, a (frequencies, points) uint64 array; so values do not
    depend on the blocking.  Both backends end in :meth:`_readout`.
    ``measure`` is the one-point block; no campaign calls it."""

    def __init__(self, spam: SpamParams | None, analytic: bool):
        self.spam = spam if spam is not None else SpamParams.ideal()
        self.analytic = analytic
        # the faulty preparation of each init code
        self._prepared = tuple(faulty_state(i[0], +1 if i[1] == "+" else -1, self.spam) for i in INITS)

    def measure(self, drive_axis, omega, init, observable, time, n_shots, seed) -> ShotRecord:
        """The record of one point: the one-point block, time index -1."""
        table = PointTable.of([(drive_axis, init, observable)], [[time]], -1)
        return self.evaluate([omega], table, n_shots, np.array([[seed]], dtype=np.uint64)).records()[0]

    def _readout(self, expectations, variances, n_shots: int, shot_seeds) -> ShotColumns:
        """The faulty POVM on a block's ideal expectations: exact values that
        carry ``variances`` in analytic mode, else ``n_shots`` binomial shots
        per point, drawn from the first uniform of its shot seed."""
        p_plus = outcome_probability(expectations, self.spam)
        if self.analytic:
            return ShotColumns.exact(2.0 * p_plus - 1.0)._replace(variance=np.asarray(variances, dtype=float))
        uniforms = first_uniforms(shot_seeds)
        return ShotColumns.from_counts(n_shots, draw_shots(np.clip(p_plus, 0.0, 1.0), n_shots, uniforms))


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

    def evaluate(self, omegas, table: PointTable, n_shots: int, seeds) -> ShotColumns:
        omegas, time = np.asarray(omegas, dtype=float), np.ravel(table.time)
        n_omegas, n_points = table.time.shape
        # what a ProtocolPlan guarantees, checked once per block; the amplitude
        # is named as the block's first drive axis takes it
        codes = dict.fromkeys(table.drive.tolist())
        bad = np.isnan(omegas) | (omegas == 0.0)
        if bad.any():
            amplitude = abs(omegas[bad][0]) if next(iter(codes)) else omegas[bad][0]
            raise DynamicsError(f"drive amplitude must be finite and nonzero, got {amplitude}")
        # a drive too strong for the device is refused before the spectra are read there
        for omega in omegas.tolist():
            self.device.check_drive_amplitude(omega)
        bad = ~(np.isfinite(time) & (time > 0.0))
        if bad.any():
            raise DynamicsError(f"drive duration must be finite and > 0, got {time[bad][0]}")
        # each drive axis at its effective amplitudes, in the order of its first
        # point, and the rate checks of each frequency in that order
        amplitudes = omegas, np.abs(omegas), -np.abs(omegas)
        rates = {d: DriveRates(_AXES[d], amplitudes[d], self.spectra, self.device) for d in codes}
        for i in range(n_omegas):
            for axis_rates in rates.values():
                axis_rates.check(i)
        rows = np.repeat(np.arange(n_omegas), n_points)
        drive, init, observable = (np.tile(column, n_omegas) for column in table[:3])
        states = np.empty((time.size, 2, 2), dtype=complex)
        for d, axis_rates in rates.items():
            k = np.flatnonzero(drive == d)
            states[k] = closed_form_states(axis_rates, rows[k], self._prepared, init[k], time[k])
        check_states(states)
        return self._readout(expectations(states, observable), np.zeros(time.size), n_shots, np.ravel(seeds))

    measure = Backend.measure  # resolved here by the benchmark tracer


class TrajectoryBackend(Backend):
    """Monte-Carlo trajectory averaging over the dephasing toy bath: one
    ensemble per point, on the stream ``derive_seed(seed, 0)``, at the step
    that :func:`dynamics.sized_expectation` accepts from its own Richardson
    check, and the shots of the block's points from their streams
    ``derive_seed(seed, 1)``."""

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

    def _noise_factory(self, time: float, dt: float):
        horizon = time + self.bath_config.lag_gamma + _GRID_MARGIN
        grid = np.arange(0.0, horizon + dt, dt)

        def factory(seeds) -> ToyBathNoise:
            trajectories = sample_ensemble(self.dsa_config, seeds, grid)
            return ToyBathNoise(
                BathCoefficients(trajectories, self.bath_config),
                correlation_time=self.dsa_config.correlation_time,
            )

        return factory

    def evaluate(self, omegas, table: PointTable, n_shots: int, seeds) -> ShotColumns:
        points = []
        layout = list(zip(*(column.tolist() for column in table[:3])))
        for omega, times, row_seeds in zip(np.asarray(omegas, dtype=float).tolist(), table.time.tolist(), seeds):
            for (code, init, observable), time, seed in zip(layout, times, row_seeds):
                # a z drive takes |Omega|, and the plan enforced the long-time condition
                drive = DriveConfig(_AXES[code], abs(omega) if code else omega, time, long_time_threshold=0.0)
                floor = dynamics.step_limit(drive.effective_amplitude, self.dsa_config.correlation_time)[0]
                points.append((drive, init, observable, seed, floor))
        # one workspace for the block's checks, of steps over 1.5 floors / CHECK_BUDGET (a floor run sizes its
        # own); the points run longest first so that each one's arrays fit where a longer point's were freed
        n_steps = [dynamics._steps(d.duration, 1.5 / dynamics.CHECK_BUDGET * floor)[0] for d, *_, floor in points]
        workspace = dynamics._Workspace(n_steps, self.n_realizations)
        ensembles = np.empty((len(points), 3))
        for k in sorted(range(len(points)), key=n_steps.__getitem__, reverse=True):
            drive, init, observable, seed, _ = points[k]
            ensembles[k] = dynamics.sized_expectation(
                drive, functools.partial(self._noise_factory, drive.duration), self._prepared[init],
                OBSERVABLES[observable], self.n_realizations, derive_seed(seed, 0), self.dsa_config.correlation_time,
                workspace)
        means, std_errors, _ = ensembles.T
        # squared by Python's float ** 2, whose bits the analytic variances have always had
        variances = _mapped(_square, self.spam.alpha_m * std_errors)
        return self._readout(means, variances, n_shots, [derive_seed(seed, 1) for seed in np.ravel(seeds)])

    measure = Backend.measure  # resolved here by the benchmark tracer


def _plan_points(plan: ProtocolPlan, omegas) -> PointTable:
    """The points of ``plan`` at each of ``omegas``, each pair of
    :data:`~slqns.spam.PAIRS` + preparation first: at each plan time ``j``,
    the z-drive pairs of protocols 3 and 4 and then the x-drive pair; then,
    for protocols 3 and 4, the coherence pair at each frame-aligned time of
    its frequency, all of them from one :func:`frame_aligned_times` array."""
    pairs = {name: [(drive, init, obs) for init in inits] for name, (drive, inits, obs) in PAIRS.items()}
    timed, coherence = (pairs["zp"] + pairs["zm"] if plan.protocol_id in (3, 4) else []) + pairs["x"], pairs["c"]
    if plan.protocol_id in (3, 4) and plan.aligned_n:
        aligned = frame_aligned_times(omegas, plan.aligned_n)
    else:
        aligned = np.empty((len(omegas), 0))
    n_times, n_aligned = len(plan.times), aligned.shape[1]
    plan_times = np.repeat(plan.times, len(timed))
    time = np.hstack((np.broadcast_to(plan_times, (len(omegas), plan_times.size)),
                      np.repeat(aligned, len(coherence), axis=1)))
    time_index = np.concatenate((np.repeat(np.arange(n_times), len(timed)),
                                 np.repeat(1000 + np.arange(n_aligned), len(coherence))))
    return PointTable.of(timed * n_times + coherence * n_aligned, time, time_index)


def _run_block(backend: Backend, plan: ProtocolPlan, omegas, omega_indices) -> ShotDataset:
    """Execute one protocol at a block of drive amplitudes, the ``omega_indices``
    of the plan's grid.  Each point draws its shots from the stream keyed by
    (protocol, frequency index, drive, init, observable, time index): the
    frequency enters only as its index, and the labels as the dataset's codes."""
    table = _plan_points(plan, omegas)
    n_omegas, n = table.time.shape
    layout = (table.drive, table.init, table.observable, table.time_index)
    keys = np.column_stack((np.full(table.time.size, plan.protocol_id), np.repeat(omega_indices, n),
                            *(np.tile(column, n_omegas) for column in layout)))
    seeds = derive_seeds(plan.seed, keys).reshape(n_omegas, n)
    values = backend.evaluate(omegas, table, plan.n_shots, seeds)
    dataset = ShotDataset()
    dataset.extend(keys[:, 2], np.repeat(omegas, n), keys[:, 3], keys[:, 4], np.ravel(table.time), values)
    return dataset


def run_for_omega(backend: Backend, plan: ProtocolPlan, omega: float, omega_index: int = 0) -> ShotDataset:
    """Execute one protocol at one drive amplitude: the one-frequency block."""
    return _run_block(backend, plan, [omega], [omega_index])


def run_plan(backend: Backend, plan: ProtocolPlan) -> ShotDataset:
    """Execute a plan over its full drive-amplitude grid, as one block."""
    return _run_block(backend, plan, list(plan.omegas), np.arange(len(plan.omegas)))
