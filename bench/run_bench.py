#!/usr/bin/env python3
"""Campaign benchmark for ``slqns``.

Run from the root of a checkout::

    python3 bench/run_bench.py --workload cf-p4-wide --seed 1 --seconds 30 --trace 0

The benchmark treats ``slqns`` as a black box: it builds a campaign config
from the workload and seed (``workloads.py``), imports ``slqns`` from the
checkout's ``src/`` and calls ``build_campaign`` / ``run_campaign``.  The load
is a closed loop, one campaign at a time with ``jobs=1`` in one process.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over fresh
processes of ``import slqns`` plus ``build_campaign``), ``campaign_s``
(median time of ``run_campaign`` with all outputs written, repeated for
``--seconds``), ``peak_rss_mb`` and ``estimated_share``.  Both times are
wall times rescaled to a reference host speed (:func:`timed`).  ``--trace 1``
alternates untraced and traced campaigns and reports the per-layer metrics of
``tracer.py``.

Both modes check correctness, and report no number and exit 1 when a check
fails: the repetitions' outputs are byte-identical (traced ones included), a
few-frequency twin gives byte-identical outputs with ``jobs=1`` and
``jobs=2``, and on closed-form workloads an analytic twin recovers every
directly fitted classical rate to 1e-9 relative.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the run record, the gate checks and every metric with its unit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, analytic_twin, campaign_config, jobs_twin

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
MIN_REPETITIONS = 2
OUTPUT_FILES = ("report.json", "estimates.csv", "datasets.csv", "manifest.json")

# The host-speed probe: a fixed mix of interpreter work and small numpy calls,
# run every PROBE_INTERVAL_S while a timed call runs.  PROBE_REFERENCE_S is
# its duration on the reference machine (2-vCPU Xeon VM) in its fast state.
PROBE_INTERVAL_S = 0.1
PROBE_LOOPS = 400
PROBE_REFERENCE_S = 0.85e-3


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> None:
    """One BLAS thread; must run before numpy is imported.

    The load is one process running one campaign at a time.  On a 2-core
    machine a second BLAS thread made the trajectory workload slower and its
    timing noisier.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def probe_kernel() -> float:
    """Seconds the host takes right now for the probe's fixed work."""
    import numpy

    a = numpy.linspace(0.0, 1.0, 64)
    enabled = gc.isenabled()
    gc.disable()  # a collection of the timed call's garbage is not probe work
    try:
        start = perf_counter()
        acc = 0.0
        for k in range(PROBE_LOOPS):
            acc += float(numpy.exp(a).sum()) + k
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def timed(fn, *args, **kwargs):
    """Call ``fn``; return its result, its wall seconds and its normalized seconds.

    A shared virtual machine can switch between speed states that slow every
    process on it alike.  On the 2-vCPU VM of the baseline the states were
    1.6x apart and lasted seconds to minutes, so the same campaign's wall
    time changed by 1.6x from one minute to the next.  A SIGALRM timer runs
    ``probe_kernel`` every PROBE_INTERVAL_S during the call.  The normalized
    time is the wall time, less the probes' own time, times the mean of
    PROBE_REFERENCE_S / probe duration: the time the call would take on the
    reference host in its fast state.
    """
    rates, spent = [], [0.0]

    def probe(*_):
        start = perf_counter()
        rates.append(PROBE_REFERENCE_S / probe_kernel())
        spent[0] += perf_counter() - start

    probe()  # before the clock starts, so that even a short call has a rate
    spent[0] = 0.0
    previous = signal.signal(signal.SIGALRM, probe)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    start = perf_counter()
    try:
        result = fn(*args, **kwargs)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = perf_counter() - start - spent[0]
        signal.signal(signal.SIGALRM, previous)
    return result, wall, wall * statistics.fmean(rates)


def setup_probe(workload: str, seed: int) -> None:
    """Body of one fresh set-up process: time ``import slqns`` plus ``build_campaign``.

    numpy is imported first, by the host-speed probe, so its import is not timed.
    """
    config = campaign_config(workload, seed)
    sys.path.insert(0, str(SRC))

    def set_up():
        import slqns.harness

        slqns.harness.build_campaign(config)

    _, wall, normalized = timed(set_up)
    print(repr(wall), repr(normalized))


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall and normalized seconds of SETUP_PROBES fresh set-up processes."""
    walls, normalized = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        wall, norm = proc.stdout.split()[-2:]
        walls.append(float(wall))
        normalized.append(float(norm))
    return walls, normalized


def run_record(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import numpy
    import scipy

    def git(*args):
        try:
            proc = subprocess.run(["git", *args], capture_output=True, text=True, timeout=30, cwd=ROOT)
        except OSError:
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    # only a checkout that is itself a repository has a SHA of its own
    sha = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": sha,
        "git_dirty": bool(status) if sha else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "src_loc": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def outputs(directory: Path) -> dict[str, tuple[int, str]]:
    """Size and SHA-256 of each deterministic output file."""
    found = {}
    for name in OUTPUT_FILES:
        data = (directory / name).read_bytes()
        found[name] = (len(data), hashlib.sha256(data).hexdigest())
    return found


class Runner:
    """Runs the campaigns of one benchmark invocation inside a scratch directory."""

    def __init__(self, config: dict, work: Path):
        from slqns.harness import run_campaign

        self.run_campaign = run_campaign
        self.config = config
        self.work = work
        self.runs = 0

    def campaign(self, config=None, *, jobs=1):
        """One campaign with outputs written; returns (wall s, normalized s, result, outputs)."""
        out = self.work / f"run{self.runs}"
        self.runs += 1
        result, wall, normalized = timed(
            self.run_campaign, self.config if config is None else config, out_dir=out, jobs=jobs)
        files = outputs(out)
        shutil.rmtree(out)
        return wall, normalized, result, files


def check_jobs(runner: Runner) -> tuple[str, bool, str]:
    twin = jobs_twin(runner.config)
    *_, serial = runner.campaign(twin)
    *_, parallel = runner.campaign(twin, jobs=2)
    return (
        "jobs_identical", serial == parallel,
        f"{len(twin['plan']['omegas_MHz'])}-frequency twin, jobs=1 vs jobs=2",
    )


def check_analytic(runner: Runner, truth) -> tuple[str, bool, str]:
    from truth import ANALYTIC_REL_TOL, direct_rate_errors

    result = runner.run_campaign(analytic_twin(runner.config))
    errors = direct_rate_errors(result.report, truth)
    worst = max(errors, default=float("inf"))
    return (
        "analytic_recovery",
        not result.failures and worst <= ANALYTIC_REL_TOL,
        f"{len(errors)} rates, worst rel err {worst:.3g}, {len(result.failures)} failures",
    )


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    checks: list
    metrics: dict = field(default_factory=dict)  # what the last line reports
    shown: dict = field(default_factory=dict)  # metrics printed above it
    times: dict = field(default_factory=dict)  # every timed call's wall and normalized seconds


def measure(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> Outcome:
    """Run the workload, check its outputs and compute its metrics."""
    from slqns.harness import build_campaign
    from tracer import Tracer, layer_metrics
    from truth import TruthTable, quality

    config = campaign_config(workload, seed)
    setup_wall, setup = ([], []) if trace else measure_setup(workload, seed)
    campaign = build_campaign(config)
    truth = TruthTable(campaign)
    runner = Runner(config, work)

    # the small twin runs first, so that the timed campaigns start warm
    checks = [check_jobs(runner)]
    walls, untraced, traced_walls, traced, repetitions = [], [], [], [], []
    tracer, report = None, None
    begin = perf_counter()
    while True:
        wall, normalized, result, files = runner.campaign()
        report = report or result.report  # the first report; its dataset is dropped
        del result
        walls.append(wall)
        untraced.append(normalized)
        repetitions.append(files)
        if trace:
            candidate = Tracer()
            with candidate.installed():
                wall, normalized, _, files = runner.campaign()
            traced_walls.append(wall)
            traced.append(normalized)
            repetitions.append(files)
            tracer = tracer or candidate
        spent = perf_counter() - begin
        per_round = statistics.median(walls) + (statistics.median(traced_walls) if trace else 0.0)
        if (trace or len(walls) >= MIN_REPETITIONS) and spent + per_round > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks.append((
        "repetitions_identical",
        all(files == repetitions[0] for files in repetitions),
        f"{len(repetitions)} repetitions",
    ))
    if campaign.backend_kind == "closed_form":
        checks.append(check_analytic(runner, truth))
    try:
        quality_metrics = {name: (float(v), "ratio") for name, v in quality(report, truth).items()}
    except ValueError as exc:
        checks.append(("estimates_present", False, str(exc)))
    # The operations are the seed's frequencies.  Every repetition repeats them
    # with byte-identical outputs (checked above), so they are counted once and
    # the counts depend on the seed only, not on how many campaigns fit.
    attempted, failed = len(report["frequencies_rad_per_us"]), len(report["failures"])
    outcome = Outcome(True, attempted, failed, checks)
    outcome.times = {
        "setup_wall_s": setup_wall, "setup_s": setup,
        "campaign_wall_s": walls, "campaign_s": untraced,
        "traced_wall_s": traced_walls, "traced_s": traced,
    }
    if not all(passed for _, passed, _ in checks):
        outcome.correct = False
        return outcome

    if trace:
        metrics = layer_metrics(
            tracer,
            frequencies=len(campaign.plan.omegas),
            output_bytes=sum(size for size, _ in repetitions[0].values()),
        )
        # spans are wall times, so their base is the traced campaign's wall time
        metrics["trace.campaign_s"] = (traced_walls[0], "s")
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
        metrics.update(quality_metrics)
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "campaign_s": (statistics.median(untraced), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "estimated_share": (1.0 - failed / attempted, "ratio"),
        }
    outcome.metrics = metrics
    outcome.shown = {**metrics, **quality_metrics}
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "slqns" / "__init__.py").is_file():
        print(f"error: no slqns sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    pin_blas_threads()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    sys.path.insert(0, str(SRC))

    record = run_record(args.workload, args.seed, args.seconds, bool(args.trace))
    print("record " + json.dumps(record, sort_keys=True), flush=True)
    work = Path(tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT))
    try:
        outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, passed, detail in outcome.checks:
        print(f"check {name}: {'ok' if passed else 'FAILED'} ({detail})")
    print("times " + json.dumps(outcome.times))
    for name, (value, unit) in outcome.shown.items():
        print(f"metric {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
