"""Exit codes of ``slqns run`` and ``slqns compare``."""

from __future__ import annotations

import copy
import json
import math
import warnings

import pytest

from slqns import harness
from slqns.harness import EXIT_CONFIG, EXIT_ESTIMATION, EXIT_OK, main
from slqns.protocols import LOW_FREQUENCY_CUTOFF
from slqns.spectra import mhz_to_rad_per_us

from test_harness import CLOSED_FORM_P4, CLOSED_FORM_P4_ANALYTIC, TRAJECTORY, write_config


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


def test_run_exits_with_config_error_on_a_measurement_error(tmp_path, capsys):
    # dephasing on 0.5-10.5 MHz alone: A = 0 at the 15 MHz drive, which only
    # measuring finds
    config = copy.deepcopy(CLOSED_FORM_P4_ANALYTIC)
    del config["spectra"]["transverse"]
    config["spectra"]["dephasing"]["model"] = {"kind": "Tabulated", "params": {
        "frequency_grid_MHz": [0.5, 1.0, 10.0, 10.5], "values_per_us": [0.0, 4.0, 4.0, 0.0]}}
    config["plan"]["omegas_MHz"] = [5.0, 15.0]
    assert main(["validate", write_config(tmp_path, config)]) == EXIT_OK
    capsys.readouterr()
    assert run(tmp_path, config) == EXIT_CONFIG
    assert capsys.readouterr().err == "measurement error: decay rate A must be > 0, got 0.0\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, cause", [
    ("file", "File exists"),
    ("file/out", "Not a directory"),
], ids=["a-file", "under-a-file"])
def test_run_exits_with_config_error_when_the_output_directory_cannot_be_made(tmp_path, capsys, name, cause):
    (tmp_path / "file").write_text("kept\n")
    assert run(tmp_path, CLOSED_FORM_P4_ANALYTIC, name) == EXIT_CONFIG
    assert capsys.readouterr().err == f"output error: {tmp_path / name}: {cause}\n"
    assert (tmp_path / "file").read_text() == "kept\n"


def test_run_refuses_an_output_directory_that_cannot_be_made_before_measuring(tmp_path, capsys, monkeypatch):
    measured = []
    monkeypatch.setattr(harness, "run_plan", lambda *args, **kwargs: measured.append(args))
    (tmp_path / "file").write_text("kept\n")
    assert run(tmp_path, CLOSED_FORM_P4_ANALYTIC, "file") == EXIT_CONFIG
    assert capsys.readouterr().err == f"output error: {tmp_path / 'file'}: File exists\n"
    assert measured == []


def test_a_measurement_error_removes_the_directories_the_run_made_and_keeps_the_others(tmp_path, capsys):
    config = copy.deepcopy(CLOSED_FORM_P4_ANALYTIC)
    del config["spectra"]["transverse"]
    config["spectra"]["dephasing"]["model"] = {"kind": "Tabulated", "params": {
        "frequency_grid_MHz": [0.5, 1.0, 10.0, 10.5], "values_per_us": [0.0, 4.0, 4.0, 0.0]}}
    config["plan"]["omegas_MHz"] = [5.0, 15.0]
    (tmp_path / "kept").mkdir()
    assert run(tmp_path, config, "kept/new/out") == EXIT_CONFIG
    assert "measurement error" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.rglob("*")) == ["config.json", "kept"]


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


@pytest.mark.parametrize("text, message", [
    ("[]", "not a report: no 'estimates' list"),
    ('{"estimates": 3}', "not a report: no 'estimates' list"),
    ('{"estimates": [{"method": "standard", "omega_rad_per_us": 6.0, "freq_rad_per_us": 6.0, '
     '"value": 1.0, "std_error": 0.1}]}', "not an estimates row: {'method': 'standard'"),
    ('{"estimates": [3]}', "not an estimates row: 3"),
    ('{"estimates": [{"component": "A", "method": "standard", "omega_rad_per_us": 6.0, "freq_rad_per_us": 6.0, '
     '"value": true, "std_error": 0.1}]}', "not an estimates row: {'component': 'A'"),
], ids=["a-list", "estimates-a-number", "row-without-component", "row-a-number", "value-a-boolean"])
def test_compare_exits_with_config_error_on_json_that_is_not_a_report(reports, tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    for pair in ([reports["a"], str(path)], [str(path), reports["a"]]):
        assert main(["compare", *pair]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"compare error: {message}")


@pytest.mark.parametrize("seed, message", [
    (-5, "seed must be >= 0"),
    (1.7, "seed must be an integer"),
], ids=["negative", "fractional"])
def test_validate_and_run_exit_with_config_error_on_a_bad_seed(tmp_path, capsys, seed, message):
    config = dict(copy.deepcopy(CLOSED_FORM_P4), seed=seed)
    assert main(["validate", write_config(tmp_path, config)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert run(tmp_path, config) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_exits_with_config_error_on_a_negative_seed_flag(tmp_path, capsys):
    path = write_config(tmp_path, CLOSED_FORM_P4)
    assert main(["run", path, "--seed", "-1", "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("base, path, value, message", [
    (CLOSED_FORM_P4, ("plan", "times_us"), ["a", 4, 6], "plan.times_us must be a number, got 'a'"),
    (CLOSED_FORM_P4, ("plan", "omegas_MHz"), ["x", 10], "plan.omegas_MHz must be a number, got 'x'"),
    (CLOSED_FORM_P4, ("plan", "omegas_MHz"), 5.0, "plan.omegas_MHz must be a list, got 5.0"),
    (CLOSED_FORM_P4, ("plan", "shots"), "many", "plan.shots must be an integer, got 'many'"),
    (CLOSED_FORM_P4, ("protocol",), "two", "protocol must be an integer, got 'two'"),
    (CLOSED_FORM_P4, ("spectra", "dephasing", "scale"), "big", "spectra.dephasing.scale must be a number"),
    (CLOSED_FORM_P4, ("plan", "shots"), 1.7, "plan.shots must be an integer, got 1.7"),
    (CLOSED_FORM_P4, ("plan", "aligned_n"), [20.9], "plan.aligned_n must be an integer, got 20.9"),
    (TRAJECTORY, ("backend", "n_realizations"), 2.9, "backend.n_realizations must be an integer, got 2.9"),
    (CLOSED_FORM_P4, ("backend", "analytic"), "false", "backend.analytic must be true or false, got 'false'"),
    (CLOSED_FORM_P4, ("plan", "times_us"), [2.0, math.nan, 6.0], "plan.times_us must be finite, got nan"),
    (CLOSED_FORM_P4, ("plan", "omegas_MHz"), [10.0, math.nan], "plan.omegas_MHz must be finite, got nan"),
    (CLOSED_FORM_P4, ("plan", "times_us"), [2.0, 4.0, math.inf], "plan.times_us must be finite, got inf"),
    (CLOSED_FORM_P4, ("spectra", "dephasing", "quantum_lag_us"), math.nan,
     "spectra.dephasing.quantum_lag_us must be finite, got nan"),
    (CLOSED_FORM_P4, ("plan", "long_time_threshold"), math.nan, "plan.long_time_threshold must be finite, got nan"),
    (CLOSED_FORM_P4, ("spectra", "dephasing", "scale"), 10**400, "spectra.dephasing.scale must be finite, got 1000"),
    (CLOSED_FORM_P4, ("plan", "shots"), 10**400, "plan.shots must be finite, got 1000"),
    (CLOSED_FORM_P4, ("plan", "aligned_n"), [20, 10**400], "plan.aligned_n must be finite, got 1000"),
    (TRAJECTORY, ("plan", "omegas_MHz"), [4.0, 20.0],
     "trajectory drive |Omega| = 20 MHz is at or above the noise synthesis cutoff 10.82 MHz"),
], ids=["time-string", "omega-string", "omegas-scalar", "shots-string", "protocol-string",
        "scale-string", "shots-fractional", "aligned-n-fractional", "realizations-fractional",
        "analytic-string", "time-nan", "omega-nan", "time-infinity", "lag-nan", "threshold-nan",
        "scale-huge-integer", "shots-huge-integer", "aligned-n-huge-integer", "trajectory-omega-out-of-band"])
def test_validate_exits_with_config_error_on_a_mistyped_value(tmp_path, capsys, base, path, value, message):
    config = copy.deepcopy(base)
    target = config
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    assert main(["validate", write_config(tmp_path, config)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("path, value", [
    (("plan", "times_us"), [2.0, math.nan, 6.0]),
    (("plan", "omegas_MHz"), [10.0, math.nan]),
    (("plan", "times_us"), [2.0, 4.0, math.inf]),
    (("spectra", "dephasing", "quantum_lag_us"), math.nan),
    (("plan", "long_time_threshold"), math.nan),
    (("plan", "shots"), 10**400),
], ids=["time-nan", "omega-nan", "time-infinity", "lag-nan", "threshold-nan", "shots-huge-integer"])
def test_run_exits_with_config_error_on_a_non_finite_number(tmp_path, capsys, path, value):
    config = copy.deepcopy(CLOSED_FORM_P4)
    target = config
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    assert run(tmp_path, config) == EXIT_CONFIG
    assert f"{'.'.join(path)} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("spam", 5),
    ("backend", "closed_form"),
    ("spam", [0.98, 0.95]),
    ("backend", None),
], ids=["spam-number", "backend-string", "spam-list", "backend-null"])
def test_validate_and_run_exit_with_config_error_on_a_block_that_is_not_an_object(tmp_path, capsys, key, value):
    config = dict(copy.deepcopy(CLOSED_FORM_P4), **{key: value})
    message = f"{key} must be a JSON object, got {value!r}"
    assert main(["validate", write_config(tmp_path, config)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert run(tmp_path, config) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_run_rejects_jobs_below_one_as_a_usage_error(tmp_path, capsys, jobs):
    path = write_config(tmp_path, CLOSED_FORM_P4)
    with pytest.raises(SystemExit) as exc:
        main(["run", path, "--jobs", jobs, "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == EXIT_CONFIG
    assert "--jobs: must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# every refusal of ProtocolPlan that a config reaches: (protocol, plan keys) -> message
PLAN_REFUSALS = {
    "protocol": (5, {}, "protocol_id must be 1..4, got 5"),
    "no-drives": (4, {"omegas_MHz": []}, "plan needs at least one drive amplitude"),
    "duplicate-drives": (4, {"omegas_MHz": [14.0, 14.0]}, "duplicate drive amplitudes in plan"),
    "no-times": (4, {"times_us": []}, "plan times must be non-empty and distinct"),
    "duplicate-times": (4, {"times_us": [2.0, 2.0, 4.0]}, "plan times must be non-empty and distinct"),
    "protocol1-times": (1, {}, "protocol 1 takes exactly one evolution time"),
    "protocol4-times": (4, {"times_us": [2.0, 4.0]}, "protocol 4 needs at least 3 distinct times"),
    "shots": (4, {"shots": 0}, "n_shots must be >= 1"),
    "aligned-n": (4, {"aligned_n": [20, 0]}, "aligned_n entries must be integers >= 1"),
    "zero-drive": (4, {"omegas_MHz": [14.0, 0.0]}, "drive amplitude must be nonzero"),
    "low-frequency": (4, {"omegas_MHz": [0.001]},
                      f"|Omega| = {mhz_to_rad_per_us(0.001)} rad/us is inside the low-frequency exclusion window "
                      f"(< {LOW_FREQUENCY_CUTOFF:.3g}); set allow_low_frequency to override"),
    "long-time": (4, {"omegas_MHz": [0.1]}, "|Omega| T = 1.26 violates the long-time condition (threshold 10)"),
    "aligned-long-time": (4, {"aligned_n": [1]},
                          "aligned index n = 1 gives |Omega| T = 6.28 below the long-time threshold"),
}


@pytest.mark.parametrize("name", PLAN_REFUSALS)
def test_validate_exits_with_config_error_on_each_plan_refusal(tmp_path, capsys, name):
    protocol, keys, message = PLAN_REFUSALS[name]
    config = dict(copy.deepcopy(CLOSED_FORM_P4), protocol=protocol)
    config["plan"].update(keys)
    assert main(["validate", write_config(tmp_path, config)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: invalid plan: {message}\n"


@pytest.mark.parametrize("value", [5, "elsewhere"])
def test_an_output_dir_config_key_writes_no_files(tmp_path, monkeypatch, capsys, value):
    # only --out-dir names the output directory
    monkeypatch.chdir(tmp_path)
    config = dict(copy.deepcopy(CLOSED_FORM_P4_ANALYTIC), output_dir=value)
    path = write_config(tmp_path, config)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["run", path]) == EXIT_OK
    assert "outputs written" not in capsys.readouterr().out
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
