"""The five output files: ``report.json`` as one indented ``json.dumps``
gives it, ``estimates.csv`` as ``csv.writer`` writes it row by row,
byte-identical files at every ``--jobs``, the pinned bytes of the trajectory
path, and how often the writers format a column."""

from __future__ import annotations

import copy
import csv
import hashlib
import io
import json
import warnings

import numpy as np
import pytest

from slqns import harness, spam
from slqns.harness import _estimate_grid, _estimate_texts, _report_text, build_campaign, run_campaign
from slqns.protocols import run_plan

from oracles import estimates_csv_reference, report_reference
from test_harness import (
    CLOSED_FORM_P2,
    CLOSED_FORM_P4,
    CLOSED_FORM_P4_ANALYTIC,
    OUTPUT_FILES,
    TRAJECTORY,
)


def with_plan(config, seed, **plan):
    config = copy.deepcopy(config)
    config["seed"] = seed
    config["plan"].update(plan)
    return config


LOW = [1.0, 2.0, 14.0]
REPORTS = {
    "p1": dict(with_plan(CLOSED_FORM_P2, 1, times_us=[2.0]), protocol=1),
    "p2-standard-dropped": with_plan(CLOSED_FORM_P2, 1, omegas_MHz=LOW),
    "p3": dict(with_plan(CLOSED_FORM_P4, 1, times_us=[2.0], aligned_n=[20]), protocol=3),
    "p4-standard-dropped": with_plan(CLOSED_FORM_P4, 1, omegas_MHz=LOW),
    "p4-one-failure": with_plan(CLOSED_FORM_P4, 1, omegas_MHz=LOW, times_us=[10.0, 20.0, 30.0]),
    "p4-every-failure": with_plan(CLOSED_FORM_P4, 1, omegas_MHz=LOW, times_us=[30.0, 60.0, 90.0]),
    "p4-analytic": CLOSED_FORM_P4_ANALYTIC,
    "trajectory-p2": TRAJECTORY,
}


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """name -> (report, file name -> text of its report.json and
    estimates.csv) of every REPORTS campaign."""
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, config in REPORTS.items():
            path = tmp_path_factory.mktemp(name)
            report = run_campaign(config, out_dir=path).report
            out[name] = report, {f: (path / f).read_bytes().decode() for f in ("report.json", "estimates.csv")}
    return out


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_json_is_one_indented_json_dump(written, name):
    report, texts = written[name]
    assert texts["report.json"] == report_reference(report)


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_estimates_csv_is_written_row_by_row(written, name):
    report, texts = written[name]
    assert texts["estimates.csv"] == estimates_csv_reference(report)


def _estimate(component, freq, omega, value, std_error, method="robust_linear", freq_label="Omega"):
    return dict(component=component, method=method, freq_label=freq_label, freq_rad_per_us=freq,
                omega_rad_per_us=omega, value=value, std_error=std_error)


# hand-made estimates rows: 0.0 and -0.0 in every number column (a table keyed
# by value would merge them), np.float64 numbers, and labels that CSV quotes
EDGE_ROWS = [
    _estimate("S+_{1,-1}", 0.0, -0.0, -0.0, 0.0),
    _estimate("S+_{1,-1}", -0.0, 0.0, 0.0, -0.0, freq_label="Omega+omega_q"),
    _estimate("S-_{0,0}", np.float64(-0.0), np.float64(2.5), np.float64(0.1), np.float64(1e-300), "standard"),
    _estimate('say "x", twice', 2.5, 2.5, -1.5e300, 5e-324, 'a "quoted", label', "line\nbreak"),
    _estimate("S+_{1,-1}", 0.0, -0.0, np.float64(-0.0), np.float64(0.0)),
]
HAND_MADE_REPORT = {
    "analytic": False, "failures": {"0.5": "why"}, "protocol": 4, "seed": 3, "spam": None, "standard_dropped": {},
    "spam_per_frequency": [{"alpha_m": 0.9, "alpha_m_std_error": 0.0, "delta": -0.0, "delta_std_error": 1e-3,
                            "omega_rad_per_us": -0.0, "path": "multi_axis"}],
}


@pytest.mark.parametrize("rows", [EDGE_ROWS, []], ids=["edge-rows", "no-rows"])
def test_estimate_texts_of_hand_made_rows(rows):
    report = dict(HAND_MADE_REPORT, estimates=rows)
    estimates_json, estimates_csv = _estimate_texts(rows)
    assert _report_text(report, estimates_json) == report_reference(report)
    assert estimates_csv == estimates_csv_reference(report)


def _count_formatting(monkeypatch) -> list[tuple[str, int]]:
    """(function, column length) of every call that formats a column."""
    calls = []

    def counted(name, function):
        def wrapper(column, *args):
            calls.append((name, len(column)))
            return function(column, *args)
        return wrapper

    float_text = counted("_float_text", spam._float_text)
    monkeypatch.setattr(spam, "_float_text", float_text)
    monkeypatch.setattr(harness, "_float_text", float_text)
    monkeypatch.setattr(spam, "_distinct_text", counted("_distinct_text", spam._distinct_text))
    return calls


def test_each_column_is_formatted_once_for_both_files(tmp_path, monkeypatch):
    calls = _count_formatting(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_campaign(CLOSED_FORM_P4, out_dir=tmp_path)
    points, rows = len(result.dataset), len(result.report["estimates"])
    floats = [call for call in calls if call[0] == "_float_text"]
    # omega, T_us, expectation and variance for datasets.csv and manifest.json;
    # the frequency and omega for report.json and estimates.csv
    assert floats == [("_float_text", points)] * 4 + [("_float_text", rows)] * 2
    # each _float_text formats through _distinct_text, as do n_shots, n_plus
    # and analytic, the dataset's three other columns that are not labels
    assert len(calls) - len(floats) == len(floats) + 3


def test_a_run_without_out_dir_formats_nothing(monkeypatch):
    calls = _count_formatting(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_campaign(CLOSED_FORM_P4)
    assert calls == []


def test_the_report_cases_cover_failures_drops_and_no_spam(written):
    reports = {name: report for name, (report, _) in written.items()}
    assert {report["protocol"] for report in reports.values()} == {1, 2, 3, 4}
    assert reports["p2-standard-dropped"]["standard_dropped"]
    assert reports["p4-standard-dropped"]["standard_dropped"]
    assert reports["p4-one-failure"]["failures"] and reports["p4-one-failure"]["estimates"]
    assert reports["p4-every-failure"]["estimates"] == [] and reports["p4-every-failure"]["spam"] is None
    assert reports["p1"]["spam"] is None and reports["p3"]["spam"] is None


@pytest.mark.parametrize("config", [CLOSED_FORM_P4, TRAJECTORY, CLOSED_FORM_P2, CLOSED_FORM_P4_ANALYTIC],
                         ids=["closed-form-p4", "trajectory-p2", "closed-form-p2", "closed-form-p4-analytic"])
def test_all_five_files_are_identical_at_one_two_and_three_jobs(tmp_path, config):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for jobs in (1, 2, 3):
            run_campaign(config, out_dir=tmp_path / f"jobs{jobs}", jobs=jobs)
    for name in OUTPUT_FILES:
        serial = (tmp_path / "jobs1" / name).read_bytes()
        for jobs in (2, 3):
            assert (tmp_path / f"jobs{jobs}" / name).read_bytes() == serial, (name, jobs)


# The trajectory path: protocol 2 at 4 and 5 MHz with 2 realizations per
# point, seed 1, in shot mode (the benchmark's trajectory --jobs twin).  The
# digests were recorded at commit 32b94ce, before the dataset became
# columnar, with numpy 2.4 and scipy 1.17 on x86-64 Linux, and were the same
# with one and with two OpenBLAS threads.  The shot counts have not depended
# on scipy since they are drawn in numpy; protocol 2's nonlinear fit still
# uses ``scipy.optimize``.
TRAJECTORY_TWIN = dict(copy.deepcopy(TRAJECTORY), seed=1)
TRAJECTORY_DIGESTS = {
    "report.json": "44429b4c5b021920725c2034ef401b8586eeb83129944a8aa6636c4f04be5730",
    "datasets.csv": "3bcb338fa28afd93ea4b66f6e7c1fc9aabdb004b9d04d6fe2838b3800d970ab2",
    "estimates.csv": "e3268302b9ebafdbb75cc1453be0227dc159ebfb003406c2c67ae58c035cba00",
    "manifest.json": "874d7d36517517ee394f270f46d2f6e02f28c1f13c7419e48aff32fec404c495",
}


def test_trajectory_outputs_match_the_pinned_digests(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_campaign(TRAJECTORY_TWIN, out_dir=tmp_path)
    digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in TRAJECTORY_DIGESTS}
    assert digests == TRAJECTORY_DIGESTS


# The analytic twin of the same campaign: exact expectations that carry the
# Monte-Carlo variances (alpha_m * std_error) ** 2.  Recorded at commit
# 5010690, with numpy 2.4 and scipy 1.17 on x86-64 Linux, the same with one
# and with two OpenBLAS threads.
TRAJECTORY_ANALYTIC_TWIN = dict(TRAJECTORY_TWIN, backend=dict(TRAJECTORY["backend"], analytic=True))
TRAJECTORY_ANALYTIC_DIGESTS = {
    "report.json": "605087d2a181004069e62e9ec00127532a84a4f00d62bb4685d07dde2e83e102",
    "datasets.csv": "4a1d730ac14e77bbf4dccd2ec74bdb8ae12a3ee34169a3342b4c1fc524c9586d",
    "estimates.csv": "19af0bd43aebce1b99180e03a1e4b2da6802f2b27cfd7579c1ce2415fefdf955",
    "manifest.json": "cf0f9502839c78041e07db459d56256e57b23438b36d470ff475fcd8de78e499",
}


def test_analytic_trajectory_outputs_match_the_pinned_digests(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_campaign(TRAJECTORY_ANALYTIC_TWIN, out_dir=tmp_path)
    digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in TRAJECTORY_ANALYTIC_DIGESTS}
    assert digests == TRAJECTORY_ANALYTIC_DIGESTS


@pytest.mark.parametrize("name", ["p1", "p2-standard-dropped", "p3", "p4-standard-dropped"])
def test_estimates_csv_holds_plain_numbers(tmp_path, name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_campaign(REPORTS[name], out_dir=tmp_path)
    with open(tmp_path / "estimates.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["method"] for row in rows} >= {"standard"}
    for row in rows:
        float(row["value"]), float(row["std_error"])


# campaigns whose estimates columns are ragged (protocol 4's S_{0,0} is absent
# where its aligned block is skipped), drop a standard comparison, fail a
# frequency, or hold no row at all
COLUMN_CASES = {
    "p2": (with_plan(CLOSED_FORM_P2, 1, omegas_MHz=LOW), {"dropped"}),
    "p4-ragged": (with_plan(CLOSED_FORM_P4, 1, omegas_MHz=LOW), {"ragged", "dropped"}),
    "p4-one-failure": (with_plan(CLOSED_FORM_P4, 1, omegas_MHz=LOW, times_us=[10.0, 20.0, 30.0]),
                       {"ragged", "failed"}),
    "p4-every-failure": (with_plan(CLOSED_FORM_P4, 1, omegas_MHz=LOW, times_us=[30.0, 60.0, 90.0]),
                         {"failed", "no rows"}),
}


@pytest.mark.parametrize("name", sorted(COLUMN_CASES))
def test_estimate_texts_of_the_columns_equal_the_writers_on_the_rows(name):
    config, shapes = COLUMN_CASES[name]
    campaign = build_campaign(config)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dataset = run_plan(campaign.backend, campaign.plan)
        columns, _, failures, dropped = _estimate_grid(campaign, dataset)
    rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
    aligned = sum(row["component"] == "S_{0,0}" and row["method"] != "standard" for row in rows)
    assert {
        "ragged": 0 < aligned < len(LOW), "dropped": bool(dropped), "failed": bool(failures), "no rows": not rows,
    } == {shape: shape in shapes for shape in ("ragged", "dropped", "failed", "no rows")}
    estimates_json, estimates_csv = _estimate_texts(rows, columns)
    assert "{\n \"estimates\": " + estimates_json + "\n}" == json.dumps({"estimates": rows}, sort_keys=True, indent=1)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(harness._ESTIMATE_FIELDS)
    writer.writerows([repr(row[f]) if isinstance(row[f], float) else row[f] for f in harness._ESTIMATE_FIELDS]
                     for row in rows)
    assert estimates_csv == buffer.getvalue()
