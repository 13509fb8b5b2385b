"""Per-layer tracing of a campaign from outside the program.

The tracer swaps the bindings that callers inside ``slqns`` actually resolve
(a module global such as ``slqns.harness.robust_multi_axis``, or a class
attribute such as ``ShotDataset.times``) for wrappers, and puts every
original back when the traced block ends.  All bindings live in one table,
:func:`bindings`.

A span wrapper records name, start, end, parent span and drive frequency;
a span's self time is its duration minus that of its direct children.  Calls
made ~10^5 times per campaign get count-only wrappers so that the tracing
overhead stays small next to the work measured.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import math
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, NamedTuple

SPAN = "span"
COUNT = "count"

# Public estimators the harness calls, with the position of their drive
# frequency argument.
ESTIMATORS = {
    "estimate_single_axis_standard": 3,
    "invert_multi_axis": 1,
    "robust_multi_axis": 1,
    "robust_single_axis_linearized": 1,
    "robust_single_axis_nonlinear": 1,
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    freq: float | None
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Binding(NamedTuple):
    owner: object  # module or class whose attribute the caller resolves
    attr: str
    name: str
    mode: str = SPAN
    freq_arg: int | None = None  # positional index of the drive frequency
    note: Callable | None = None  # note(tracer, args, kwargs, result)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _note_steps(tracer, args, kwargs, result):
    drive, dt = _arg(args, kwargs, 0, "drive"), _arg(args, kwargs, 3, "dt")
    tracer.totals["dynamics.trajectory_steps"] += math.ceil(drive.duration / dt)


def _note_samples(tracer, args, kwargs, result):
    tracer.totals["noisegen.samples"] += result.times.size


def _note_iterations(tracer, args, kwargs, result):
    tracer.samples["estimation.nonlinear_iterations"].append(result.iterations)


def bindings() -> tuple[Binding, ...]:
    """Every binding the tracer wraps, keyed by the name its caller uses."""
    from slqns import dynamics, estimation, harness, noisegen, protocols, spam, spectra

    estimators = tuple(
        Binding(harness, fn, f"estimation.{fn}", freq_arg=pos,
                note=_note_iterations if fn == "robust_single_axis_nonlinear" else None)
        for fn, pos in ESTIMATORS.items()
    )
    return (
        Binding(harness, "build_campaign", "harness.build_campaign"),
        Binding(harness, "run_plan", "protocols.run_plan"),
        Binding(protocols, "run_for_omega", "protocols.run_for_omega", freq_arg=2),
        Binding(protocols.ClosedFormTclBackend, "measure", "protocols.measure", freq_arg=2),
        Binding(protocols.TrajectoryBackend, "measure", "protocols.measure", freq_arg=2),
        Binding(protocols, "tcl_evolve_state", "dynamics.tcl_evolve_state"),
        Binding(protocols, "compute_AB", "dynamics.compute_AB", COUNT),
        Binding(dynamics, "compute_AB", "dynamics.compute_AB", COUNT),
        Binding(dynamics, "simulate_trajectory", "dynamics.simulate_trajectory", note=_note_steps),
        Binding(noisegen.DSARealization, "trajectory", "noisegen.trajectory", note=_note_samples),
        Binding(spectra.SphericalSpectraSet, "value", "spectra.value", COUNT),
        Binding(protocols, "sample_shots", "spam.sample_shots"),
        Binding(spam.ShotDataset, "times", "spam.dataset_times"),
        Binding(spam.ShotDataset, "get", "spam.dataset_get", COUNT),
        Binding(spam.ShotDataset, "to_csv", "spam.to_csv"),
        Binding(spam.ShotDataset, "to_manifest", "spam.to_manifest"),
        *estimators,
        # the nonlinear fit starts from the unguarded linearized fit
        Binding(estimation, "robust_single_axis_linearized", "estimation.robust_single_axis_linearized", freq_arg=1),
        Binding(estimation, "weighted_linreg", "estimation.weighted_linreg", COUNT),
        Binding(protocols, "derive_seed", "seeding.derive_seed", COUNT),
        Binding(dynamics, "derive_seed", "seeding.derive_seed", COUNT),
    )


class Tracer:
    """Spans and counters of one traced block."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: collections.Counter = collections.Counter()
        self.totals: collections.Counter = collections.Counter()
        self.samples: dict[str, list] = collections.defaultdict(list)
        self._stack: list[int] = []

    def _span_wrapper(self, binding: Binding, fn):
        spans, stack = self.spans, self._stack
        name, freq_arg, note = binding.name, binding.freq_arg, binding.note

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if freq_arg is not None and len(args) > freq_arg:
                freq = args[freq_arg]
            else:
                freq = spans[parent].freq if parent >= 0 else None
            span = Span(name, 0.0, 0.0, parent, freq)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if note is not None:
                note(self, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, binding: Binding, fn):
        counts, name = self.counts, binding.name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self, table=None):
        """Wrap every binding of ``table`` for the duration of the block."""
        table = bindings() if table is None else table
        originals = []
        try:
            for binding in table:
                original = vars(binding.owner)[binding.attr]
                wrap = self._span_wrapper if binding.mode == SPAN else self._count_wrapper
                setattr(binding.owner, binding.attr, wrap(binding, original))
                originals.append((binding, original))
            yield self
        finally:
            for binding, original in reversed(originals):
                setattr(binding.owner, binding.attr, original)

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, child)]

    def by_name(self) -> dict[str, list[tuple[Span, float]]]:
        """Spans grouped by name, each with its self time."""
        groups = collections.defaultdict(list)
        for span, self_time in zip(self.spans, self.self_times()):
            groups[span.name].append((span, self_time))
        return groups


def _pct(values, q: float) -> float:
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def layer_metrics(tracer: Tracer, *, frequencies: int, output_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced campaign, as name -> (value, unit)."""
    groups = tracer.by_name()

    def durations(name):
        return [span.duration for span, _ in groups.get(name, ())]

    def total(name):
        return math.fsum(durations(name))

    def self_total(name):
        return math.fsum(s for _, s in groups.get(name, ()))

    measure = durations("protocols.measure")
    tcl = durations("dynamics.tcl_evolve_state")
    traj = durations("dynamics.simulate_trajectory")
    synth = durations("noisegen.trajectory")
    shots = durations("spam.sample_shots")
    estimator_names = {f"estimation.{fn}" for fn in ESTIMATORS}
    top_level_estimation = math.fsum(
        span.duration
        for span in tracer.spans
        if span.name in estimator_names
        and (span.parent < 0 or tracer.spans[span.parent].name not in estimator_names)
    )
    linearized = groups.get("estimation.robust_single_axis_linearized", ())
    nonlinear_calls = len(groups.get("estimation.robust_single_axis_nonlinear", ()))

    metrics = {
        "protocols.run_plan_s": (total("protocols.run_plan"), "s"),
        "protocols.measure_calls": (len(measure), "count"),
        "protocols.measure_us_p50": (1e6 * _pct(measure, 0.50), "us"),
        "protocols.measure_us_p95": (1e6 * _pct(measure, 0.95), "us"),
        "dynamics.compute_AB_calls": (tracer.counts["dynamics.compute_AB"], "count"),
        "dynamics.tcl_evolve_calls": (len(tcl), "count"),
        "dynamics.tcl_evolve_us_p50": (1e6 * _pct(tcl, 0.50), "us"),
        "dynamics.simulate_trajectory_calls": (len(traj), "count"),
        "dynamics.simulate_trajectory_ms_p50": (1e3 * _pct(traj, 0.50), "ms"),
        "dynamics.trajectory_steps": (tracer.totals["dynamics.trajectory_steps"], "count"),
        "dynamics.propagate_self_s": (self_total("dynamics.simulate_trajectory"), "s"),
        "noisegen.realizations": (len(synth), "count"),
        "noisegen.samples": (tracer.totals["noisegen.samples"], "count"),
        "noisegen.trajectory_ms_p50": (1e3 * _pct(synth, 0.50), "ms"),
        "noisegen.synthesis_s": (math.fsum(synth), "s"),
        "spectra.value_calls": (tracer.counts["spectra.value"], "count"),
        "spam.sample_shots_calls": (len(shots), "count"),
        "spam.sample_shots_us_p50": (1e6 * _pct(shots, 0.50), "us"),
        "spam.dataset_times_calls": (len(durations("spam.dataset_times")), "count"),
        "spam.dataset_times_s": (total("spam.dataset_times"), "s"),
        "spam.dataset_get_calls": (tracer.counts["spam.dataset_get"], "count"),
        "spam.write_s": (total("spam.to_csv") + total("spam.to_manifest"), "s"),
    }
    for fn in ESTIMATORS:
        group = groups.get(f"estimation.{fn}", ())
        metrics[f"estimation.{fn}_calls"] = (len(group), "count")
        metrics[f"estimation.{fn}_ms_p50"] = (1e3 * _pct([s.duration for s, _ in group], 0.50), "ms")
        metrics[f"estimation.{fn}_failed"] = (sum(s.error is not None for s, _ in group), "count")
        metrics[f"estimation.{fn}_self_s"] = (math.fsum(t for _, t in group), "s")
    metrics.update({
        "estimation.total_s": (top_level_estimation, "s"),
        "estimation.guard_rejections": (
            sum(s.error == "LinearizationGuardError" for s, _ in linearized), "count"),
        "estimation.nonlinear_share": (nonlinear_calls / frequencies, "fits/freq"),
        "estimation.nonlinear_iterations_p50": (
            _pct(tracer.samples["estimation.nonlinear_iterations"], 0.50), "count"),
        "estimation.weighted_linreg_calls": (tracer.counts["estimation.weighted_linreg"], "count"),
        "harness.build_campaign_s": (total("harness.build_campaign"), "s"),
        "harness.output_bytes": (output_bytes, "bytes"),
        "seeding.derive_seed_calls": (tracer.counts["seeding.derive_seed"], "count"),
    })
    return metrics
