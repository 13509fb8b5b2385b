"""Tests of the benchmark itself: tracer hygiene, truth rules, printed metrics.

Run from the root of a checkout with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import signal
import sys
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run_bench  # noqa: E402
import workloads  # noqa: E402
from slqns.harness import build_campaign, run_campaign  # noqa: E402
from tracer import Tracer, bindings  # noqa: E402
from truth import ANALYTIC_REL_TOL, TruthTable, direct_rate_errors  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


def small_config(workload: str, seed: int = 7) -> dict:
    return workloads.jobs_twin(workloads.campaign_config(workload, seed))


def test_traced_run_restores_every_binding(tmp_path):
    table = bindings()
    originals = [vars(b.owner)[b.attr] for b in table]
    tracer = Tracer()
    with tracer.installed(table):
        assert all(vars(b.owner)[b.attr] is not o for b, o in zip(table, originals))
        run_campaign(small_config("cf-p4-wide"), out_dir=tmp_path)
    assert tracer.spans and tracer.counts["spectra.value"] > 0
    assert all(vars(b.owner)[b.attr] is o for b, o in zip(table, originals))


def test_bindings_restored_when_the_traced_block_raises():
    table = bindings()
    originals = [vars(b.owner)[b.attr] for b in table]
    with pytest.raises(RuntimeError):
        with Tracer().installed(table):
            raise RuntimeError("boom")
    assert all(vars(b.owner)[b.attr] is o for b, o in zip(table, originals))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_outputs_are_byte_identical(workload, tmp_path):
    config = small_config(workload)
    run_campaign(config, out_dir=tmp_path / "plain")
    with Tracer().installed():
        run_campaign(config, out_dir=tmp_path / "traced")
    assert run_bench.outputs(tmp_path / "plain") == run_bench.outputs(tmp_path / "traced")


def test_truth_rules_on_two_frequency_analytic_protocol4():
    config = workloads.analytic_twin(workloads.campaign_config("cf-p4-wide", 3))
    config["plan"]["omegas_MHz"] = [5.0, 20.0]
    truth = TruthTable(build_campaign(config))
    report = run_campaign(config).report
    assert not report["failures"]
    errors = direct_rate_errors(report, truth)
    assert len(errors) == 2 * 4
    assert max(errors) <= ANALYTIC_REL_TOL
    # every row has a truth, and A agrees with its definition in spherical spectra
    spectra, wq = truth.spectra, truth.device.omega_q
    for row in report["estimates"]:
        value = truth(row)
        if row["component"] == "A":
            w = row["omega_rad_per_us"]
            expected = (spectra.s_plus(0, 0, w)
                        + 0.5 * (spectra.s_plus(1, -1, w + wq) + spectra.s_plus(-1, 1, w - wq))).real
            assert value == pytest.approx(expected, rel=1e-12)


def test_protocol2_x_drive_rows_take_truth_from_A_and_B():
    config = workloads.analytic_twin(workloads.campaign_config("cf-p2-series", 3))
    config["plan"]["omegas_MHz"] = [5.0]
    truth = TruthTable(build_campaign(config))
    rows = {(r["component"], r["method"]): r for r in run_campaign(config).report["estimates"]}
    a_row = rows[("S+_{0,0}", "robust_nonlinear")]
    assert a_row["value"] == pytest.approx(truth(a_row), rel=ANALYTIC_REL_TOL)
    b_truth = truth(dict(a_row, component="B"))
    assert truth(dict(a_row, component="alpha_m*S-_{0,0}")) == pytest.approx(0.95 * b_truth)
    assert truth(dict(a_row, component="S-_{0,0}")) == b_truth


def test_timed_restores_the_alarm_and_excludes_probe_time():
    previous = signal.getsignal(signal.SIGALRM)
    result, wall, normalized = run_bench.timed(sum, range(10))
    assert result == 45 and 0 < wall < 0.1 and normalized > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("trace", [0, 1])
def test_every_printed_metric_is_declared(trace, monkeypatch, capsys):
    monkeypatch.setattr(run_bench, "campaign_config", lambda w, s: small_config(w, s))
    code = run_bench.main(["--workload", "cf-p2-series", "--seed", "5", "--seconds", "1",
                           "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    result = json.loads(lines[-1])
    assert result["correct"] and 0 <= result["failed"] < result["attempted"]
    # each of the seed's frequencies counts once, however many campaigns ran
    assert result["attempted"] == workloads.JOBS_TWIN_FREQUENCIES
    declared = {**_declared("end_to_end"), **_declared("per_layer")}
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            name, rest = line[len("metric "):].split(" = ")
            printed[name] = rest.rsplit(" ", 1)[1]
    assert printed and all(declared.get(name) == unit for name, unit in printed.items())
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == _declared("per_layer" if trace else "end_to_end")


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run_bench, "SRC", tmp_path / "src")
    code = run_bench.main(["--workload", "traj-p2", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
