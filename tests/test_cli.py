"""Exit codes of ``slqns run`` and ``slqns compare``."""

from __future__ import annotations

import copy
import json
import warnings

import pytest

from slqns.harness import EXIT_CONFIG, EXIT_ESTIMATION, EXIT_OK, main

from test_harness import CLOSED_FORM_P4, TRAJECTORY, write_config


def run(tmp_path, config, name="out") -> int:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(["run", write_config(tmp_path, config), "--out-dir", str(tmp_path / name)])


def test_run_exits_ok(tmp_path):
    assert run(tmp_path, TRAJECTORY) == EXIT_OK
    assert (tmp_path / "out" / "report.json").exists()


def test_run_exits_with_config_error_on_bad_plan(tmp_path, capsys):
    config = copy.deepcopy(TRAJECTORY)
    config["plan"]["times_us"] = [-1.0, 1.5, 2.0]
    assert run(tmp_path, config) == EXIT_CONFIG
    assert "plan times must be positive" in capsys.readouterr().err


def test_run_exits_with_estimation_error_when_every_frequency_fails(tmp_path, capsys):
    config = copy.deepcopy(CLOSED_FORM_P4)
    config["seed"] = 1
    config["plan"]["omegas_MHz"] = [1.0]
    config["plan"]["times_us"] = [30, 60, 90]
    assert run(tmp_path, config) == EXIT_ESTIMATION
    err = capsys.readouterr().err
    assert "only 1 usable time points" in err
    assert "estimation failed at every frequency" in err


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """report.json of two seeds on one frequency grid and of a third grid."""
    tmp_path = tmp_path_factory.mktemp("reports")
    other_seed = dict(copy.deepcopy(CLOSED_FORM_P4), seed=6)
    other_grid = copy.deepcopy(CLOSED_FORM_P4)
    other_grid["plan"]["omegas_MHz"] = [14.0, 27.0, 33.0]
    paths = {}
    for name, config in (("a", CLOSED_FORM_P4), ("b", other_seed), ("grid", other_grid)):
        assert run(tmp_path, config, name) == EXIT_OK
        paths[name] = str(tmp_path / name / "report.json")
    return paths


def test_compare_exits_ok(reports, capsys):
    assert main(["compare", reports["a"], reports["b"]]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    with open(reports["a"]) as handle:
        n_estimates = len(json.load(handle)["estimates"])
    assert lines[0] == "component,method,omega_rad_per_us,freq_rad_per_us,z"
    assert len(lines) == 1 + n_estimates


def test_compare_exits_with_config_error_on_missing_file(reports, tmp_path, capsys):
    assert main(["compare", reports["a"], str(tmp_path / "missing.json")]) == EXIT_CONFIG
    assert "compare error" in capsys.readouterr().err


def test_compare_exits_with_config_error_on_different_grids(reports, capsys):
    assert main(["compare", reports["a"], reports["grid"]]) == EXIT_CONFIG
    assert "different" in capsys.readouterr().err
