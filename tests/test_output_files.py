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
# with one and with two OpenBLAS threads.  Neither the shot counts, drawn in
# numpy, nor this twin's estimates, all on the linearized path, depend on
# scipy.
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


# Protocols 3 and 4 on the trajectory backend, which reach the engine's paths
# that the protocol 2 twins above do not: the z drives, the aligned coherence
# block and, under the three-axis bath, the x drive's 4x4 steps.  Protocol 4
# is TRAJECTORY with aligned_n [8, 10]; protocol 3 takes its one time, 2.5 us,
# and the same aligned block.  Seed 1, 7 realizations per point, both bath
# variants, shot and analytic mode.  All five files were recorded at commit
# 049039b, with numpy 2.4 on x86-64 Linux, the same at --jobs 1 and 2.
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
        "report.json": "01a2dd809726604dc5a06166ab453369831d3cc8f5bcb6cc36e66c91dd830f16",
        "datasets.csv": "0645120cb4e85f022f3eddd7016329f4421cdd33b124bb1833ade0fe646ce96a",
        "estimates.csv": "5d8f04e5ea86fc9660ab2f5d8256382adcf2359e725b7ec850b9059c87afb0a8",
        "manifest.json": "01400ac49a2d576412fd329dc1590d59a4d8c20e2d3e6366922a30262425816f",
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
        "report.json": "dee7c159aee885de79180b2accdbc488d15b554aebceafb47ccdc09d5de36f77",
        "datasets.csv": "10966901e6c88cc957f554f835dbca706f8656a2e728e63e45df4db1b166b5e5",
        "estimates.csv": "9810499f469c2d300e6f08a2f24a2ce68835b57368e17ded9592908672c6bb13",
        "manifest.json": "cb766439d435a341f31394f525d77aecc85263e35e0bd37e673ec9a07b81e272",
        "run.log": "e024a409680e592456e3b4336c13715f2f175c6b0e348dc9c42607930fe9fce0",
    },
    (4, "main_text", "shot"): {
        "report.json": "d0c85fe91fd1bb320a2d42d8d32ea648276da7850d50d8ef7c2bb5906074ca15",
        "datasets.csv": "f55aad270090298a5b072781583400c79440c9be823f9fa80a144c0354695007",
        "estimates.csv": "e84bfcbe1e52df84dc63c0b8f6a64a2c8ffa249818bc1d29f7fd312a4f3dfe90",
        "manifest.json": "9e16133acb49b94dfab96f88bc5b4ba749276684037e3732477a9755d38f48d4",
        "run.log": "cc13f2738bb2a1475cf40ac816ffe00c8b8b6fe8888e8dae0df4f1938c033810",
    },
    (4, "main_text", "analytic"): {
        "report.json": "371d6058cefd0be2af59f10e92db900b9f6658b27ec49781b42b6f0e80b6cf36",
        "datasets.csv": "73a63d2ffb35bb71af3e04e634857685ad7ebb64cd042138ae57c016447d1cd4",
        "estimates.csv": "8a1f525e45cc6c959c4929242705b908b91220438cb3bf1bd2a486697994e7e4",
        "manifest.json": "0e7acb8f5eb527330e615596aa995450531ebe3a2fe1fe0ee62fd484ab67e451",
        "run.log": "47805b2ee17737f3e823898bf461d4f3a8ae7442cb96b7351558f598c01b7c7d",
    },
    (4, "three_axis", "shot"): {
        "report.json": "d87735b606a2c36c12df4d2de52e77909cea6e96576d54655565e09b26222658",
        "datasets.csv": "b57edd69218b7946b6f9fb9f7537fb48c96229dfd9ee813ed1c61244aae6c672",
        "estimates.csv": "2a344e409f3fee975ec99d665d4b77b4851a81cb2849d76911fa1c642ac86a7c",
        "manifest.json": "8ac025fc41fa641cad45d1816172ab5ce47ebf6410a2f44c9c55afcbcd46110c",
        "run.log": "d688fdba8e575ccaeb8f559b6260f7f8bc0504430752daf2d6fb6b6b6ecb52dc",
    },
    (4, "three_axis", "analytic"): {
        "report.json": "51cead318ad93cc7f9af8acbdef778f666f2ad348f1c0261104d3f6db074f289",
        "datasets.csv": "c7127d52bd797512dcd5dcb044201a45747fb903441a2e918c929ec30424614c",
        "estimates.csv": "5f056a28d0481a70d996ea7ee5100a6575d615cf013329816af6c8215aee5f29",
        "manifest.json": "576765de8085aac18099ecc3a8d1318c6e7c84bd9b813bd68274b873a982f3a9",
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
