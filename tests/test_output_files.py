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
import os
import subprocess
import sys
import warnings
from pathlib import Path

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
# with one and with two OpenBLAS threads.  Neither the shot counts, drawn in
# numpy, nor this twin's estimates, all on the linearized path, depend on
# scipy.  They held when each point's step became sized by its own
# Richardson check (after commit 14ba881): no shot count moved.
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
# Monte-Carlo variances (alpha_m * std_error) ** 2.  Re-recorded on top of
# commit 14ba881, when each point's step became sized by its own Richardson
# check (``dynamics.sized_expectation``), and again when its checks were
# bounded by CHECK_BUDGET floor runs, with numpy 2.4 on x86-64 Linux, the
# same with one and with two OpenBLAS threads.
TRAJECTORY_ANALYTIC_TWIN = dict(TRAJECTORY_TWIN, backend=dict(TRAJECTORY["backend"], analytic=True))
TRAJECTORY_ANALYTIC_DIGESTS = {
    "report.json": "4cbecc7d987b47f2884e3139361a57f307fa733f6ac750346c9210f0bc590448",
    "datasets.csv": "28a0d1a82c6380eebfc205806d0b075ac7aca7084d6e614e2764e242fe52bc1f",
    "estimates.csv": "b819529a49954f0890cec3927f881cdd6fc4d82840e3d368edcedc3684f023cf",
    "manifest.json": "9496a940e9caef07fe7a0a0b2e21cd650fdaa68354f23be3ee03f5ee9c972a40",
}


def test_analytic_trajectory_outputs_match_the_pinned_digests(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_campaign(TRAJECTORY_ANALYTIC_TWIN, out_dir=tmp_path)
    digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in TRAJECTORY_ANALYTIC_DIGESTS}
    assert digests == TRAJECTORY_ANALYTIC_DIGESTS


# Protocols 3 and 4 on the trajectory backend, which reach the engine's paths
# that the protocol 2 twins above do not: the z drives, the aligned coherence
# block and, under the three-axis bath, the x drive's 4x4 steps.  Protocol 4
# is TRAJECTORY with aligned_n [8, 10]; protocol 3 takes its one time, 2.5 us,
# and the same aligned block.  Seed 1, 7 realizations per point, both bath
# variants, shot and analytic mode.  All five files were recorded at commit
# 049039b, with numpy 2.4 on x86-64 Linux, the same at --jobs 1 and 2.  The
# six cases other than protocol 3 in shot mode were re-recorded on top of
# commit 14ba881, when each point's step became sized by its own Richardson
# check; run.log held in all of them.
def trajectory_p34(protocol: int, variant: str, mode: str) -> dict:
    times = [2.5] if protocol == 3 else TRAJECTORY["plan"]["times_us"]
    return dict(copy.deepcopy(TRAJECTORY_TWIN), protocol=protocol,
                backend=dict(TRAJECTORY["backend"], n_realizations=7, bath_variant=variant,
                             analytic=mode == "analytic"),
                plan=dict(TRAJECTORY["plan"], times_us=times, aligned_n=[8, 10]))


TRAJECTORY_P34_DIGESTS = {
    (3, "main_text", "shot"): {
        "report.json": "ac65bbf20ea0dcdfcf7188bf3e290c8a66705d72b171362a180e84d65226a0dd",
        "datasets.csv": "bdc6389bdb1ee86c8cbaa1667cefbdccf918c7fc0abcb7a8b2f552eee76712f5",
        "estimates.csv": "8a33b722a6d7610925425208849a25463919bd2d97f2161bbadf3ec4a43026e7",
        "manifest.json": "f6d69af757ac7926e84f6d79e95bd413150a38962d8026a0dcfe7de05f577dfe",
        "run.log": "aecdf52bcc07b3e7c0a03b4a383027299cfa792eea9b70ee7b22b9c26c49bddd",
    },
    (3, "main_text", "analytic"): {
        "report.json": "32ff201ca3435f682e7b4b4952c2f0d97261e8db8eed36c0c544305c7ab5eea5",
        "datasets.csv": "7cb55ab7e98a01f2f6defd11e28f71c8c14b7c71bd7c0802d70f696d36420b5c",
        "estimates.csv": "68e6929725e49e515ea1be604f3dc251092357dd3545964fbe2f03adae216e12",
        "manifest.json": "bb0999234f501a4fc3ea23641a9cbb70b52079cd5dabb71f6a53182aec995bc0",
        "run.log": "686f7f772e50344ddd031d4694638f4d812652c03e59e15bbc127c79aa8c07a3",
    },
    (3, "three_axis", "shot"): {
        "report.json": "7924394d5a52109680970ecd9ff09a38908335179c402de9d083f8deed47e1e4",
        "datasets.csv": "363214e60727c95db31e284bb29385e6450f50785ec22bf5fcee5c4fedbd400b",
        "estimates.csv": "dfd0fa42f549b9eff46a0bd4e8808f2ee22ac3174b82c8178ca5f762b13cada5",
        "manifest.json": "32eafadf14953cc21d52386e5f6806900315cd24a4015893ea2cdb9c28444bb0",
        "run.log": "c176198b309f10c742d630052eccc527f1a19385b56256674a7f964506e16ef5",
    },
    (3, "three_axis", "analytic"): {
        "report.json": "7a658161d81b88f18b0fdd23b304adf84019872e3f9932e78571b283412f2b68",
        "datasets.csv": "f3b01f02fc6eda179c6efb3f6b0000aec48f32f745d169c8b2d8acabed8ccffa",
        "estimates.csv": "736bf52a45ceb2bc0aaabfaa81c946754d95678a8ad1cc8be5d4fb23905a22e7",
        "manifest.json": "b189cf7f0bde163f5ba0db3060021afa31e37a5263832bb5f79082b8e0702236",
        "run.log": "e024a409680e592456e3b4336c13715f2f175c6b0e348dc9c42607930fe9fce0",
    },
    (4, "main_text", "shot"): {
        "report.json": "021141fef5caaf2fa89038e70b8d3bfdb6478abc7122e5584039bec60896e61f",
        "datasets.csv": "bb0ba9b7b938c811c2641361ca8fceea36947a8db75361ee59ba31bdf1d0a114",
        "estimates.csv": "325cc3b6e7b0bf4a90e84bfb446561560b7b0062e2991ac541780a7c713c36ba",
        "manifest.json": "b8db22f664d6219a5dd7ce883cf751fb24fe8091c4f192575ea011eb83bc6f14",
        "run.log": "cc13f2738bb2a1475cf40ac816ffe00c8b8b6fe8888e8dae0df4f1938c033810",
    },
    (4, "main_text", "analytic"): {
        "report.json": "7c8c820c6dadb0e29dad9ecac829359d3975d9cd87ab6c801d8f21b388176558",
        "datasets.csv": "ccd260cadf5c2444c79d06c16f9d11720bf406213b87b7a065788da1a2ec9e55",
        "estimates.csv": "66a65ae894acdf885c03c7cdc6ad4c696ab2dd69f9ef234f564076737e3a0f61",
        "manifest.json": "668a0962615d55ed6bd602404b34ea9ef858f6f2776dd1514bfef892accc0477",
        "run.log": "47805b2ee17737f3e823898bf461d4f3a8ae7442cb96b7351558f598c01b7c7d",
    },
    (4, "three_axis", "shot"): {
        "report.json": "d3c15f15adf69bc57289b9653e167583a52b42debfa6b06304c5e294a4693f3d",
        "datasets.csv": "8e74c319d9f7ee104d97aaf5ed6cedb213c3fd135dbbff278c6744524e448ac1",
        "estimates.csv": "dae337741e105655e9c9101772531e961c70015c9dd25f471f1f035b61ab60d3",
        "manifest.json": "5de34a4b573b137de3e6255ea80129ad944eef63c9dfdcfca95f51a1d6c1f656",
        "run.log": "d688fdba8e575ccaeb8f559b6260f7f8bc0504430752daf2d6fb6b6b6ecb52dc",
    },
    (4, "three_axis", "analytic"): {
        "report.json": "c72434ba0abffe12ae6c0403e33eac3ca245528bfdb6a96150884561291d73a5",
        "datasets.csv": "2a0f7a7210126d4a6ca4d2674250f7ff60e8db2e72deb03ffc97981358f6ddd2",
        "estimates.csv": "860644f44da003a2b32793d5b565e8e4ea32bce1ec3d114c49a96e5c2ce85338",
        "manifest.json": "8071af68a8f0ac0855f9f60087c725d019d356b8b5635d5ed4d4fc3bcd47a2cf",
        "run.log": "16e72e3f12ecdef6c968177a9f8b6cd09bcaa903f5786c0747a66475ea4c9a1f",
    },
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("key", sorted(TRAJECTORY_P34_DIGESTS), ids="p{0[0]}-{0[1]}-{0[2]}".format)
def test_trajectory_protocol_3_and_4_outputs_match_the_pinned_digests(tmp_path, key, jobs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_campaign(trajectory_p34(*key), out_dir=tmp_path, jobs=jobs)
    pinned = TRAJECTORY_P34_DIGESTS[key]
    assert {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in pinned} == pinned


ROOT = Path(__file__).resolve().parent.parent
# runs the analytic protocol 2 twin and the analytic three-axis protocol 4
# case into two directories, and writes the step that each point took
RUN_TRAJECTORY_TWINS = """
import json, sys, warnings
from pathlib import Path
from slqns import dynamics
from slqns.harness import run_campaign
from test_output_files import TRAJECTORY_ANALYTIC_TWIN, trajectory_p34
sized, steps = dynamics.sized_expectation, []
def recording(*args):
    steps.append(sized(*args))
    return steps[-1]
dynamics.sized_expectation = recording
warnings.simplefilter("ignore")
out = Path(sys.argv[1])
run_campaign(TRAJECTORY_ANALYTIC_TWIN, out_dir=out / "p2")
run_campaign(trajectory_p34(4, "three_axis", "analytic"), out_dir=out / "p4")
(out / "steps.json").write_text(json.dumps([step for *_, step in steps]))
"""


def test_trajectory_twins_and_their_steps_hold_at_one_and_two_blas_threads(tmp_path):
    """The step rule accepts a step by a threshold on computed floats, so a
    change of rounding could move an output by up to the bias budget: the
    analytic twins, which carry every bit of their means, give their pinned
    bytes and take the same steps in fresh processes at one and at two
    OpenBLAS threads."""
    steps = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
        subprocess.run([sys.executable, "-c", RUN_TRAJECTORY_TWINS, str(out)],
                       env=env, check=True, timeout=300, cwd=ROOT)
        for twin, pinned in (("p2", TRAJECTORY_ANALYTIC_DIGESTS),
                             ("p4", TRAJECTORY_P34_DIGESTS[(4, "three_axis", "analytic")])):
            assert {f: hashlib.sha256((out / twin / f).read_bytes()).hexdigest() for f in pinned} == pinned
        steps[threads] = json.loads((out / "steps.json").read_text())
    assert len(steps["1"]) == 16 + 56
    assert steps["1"] == steps["2"]


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
