"""Campaign front-end: config validation exit codes and ``--jobs`` determinism."""

from __future__ import annotations

import copy
import json
import warnings

import pytest

from slqns.harness import EXIT_CONFIG, EXIT_OK, main, run_campaign

OUTPUT_FILES = ("report.json", "estimates.csv", "datasets.csv", "manifest.json", "run.log")

PHYSICS = {
    "seed": 5,
    "device": {"qubit_frequency_MHz": 4970.0},
    "spam": {"alpha_sp": 0.98, "alpha_m": 0.95, "delta": 0.01},
    "spectra": {
        "dephasing": {
            "model": {
                "kind": "Lorentzian",
                "params": {"peak_frequency_MHz": 0.6366, "correlation_time_us": 0.5},
            },
            "scale": 1.0,
            "quantum_lag_us": 0.3,
        },
        "transverse": {"model": {"kind": "White", "params": {"level_per_us": 0.01}}},
    },
}

TRAJECTORY = dict(
    PHYSICS,
    protocol=2,
    backend={"type": "trajectory", "analytic": False, "n_realizations": 2,
             "n_omega": 256, "bath_variant": "main_text"},
    plan={"omegas_MHz": [4.0, 5.0], "times_us": [1.0, 1.5, 2.0, 2.5], "shots": 1000},
)

CLOSED_FORM_P4 = dict(
    PHYSICS,
    protocol=4,
    backend={"type": "closed_form", "analytic": False},
    plan={"omegas_MHz": [1.0, 14.0, 27.0, 40.0], "times_us": [2.0, 4.0, 6.0, 8.0, 10.0, 12.0],
          "aligned_n": [20, 40, 60], "shots": 1000},
)


# the series is long enough that every frequency takes the nonlinear fit
CLOSED_FORM_P2 = dict(
    PHYSICS,
    protocol=2,
    backend={"type": "closed_form", "analytic": False},
    plan={"omegas_MHz": [1.0, 14.0, 27.0, 40.0], "times_us": [2.0, 4.0, 6.0, 8.0, 10.0, 12.0],
          "shots": 1000},
)


def write_config(tmp_path, config) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_valid_trajectory_config_validates(tmp_path):
    assert main(["validate", write_config(tmp_path, TRAJECTORY)]) == EXIT_OK


@pytest.mark.parametrize("block, key, value", [
    ("dephasing", "quantum_lag_us", -0.1),
    ("dephasing", "scale", 0.0),
    ("dephasing", "scale", -1.5),
    ("backend", "n_omega", 1),
    ("backend", "n_realizations", 1),
])
def test_invalid_trajectory_config_exits_with_config_error(tmp_path, capsys, block, key, value):
    config = copy.deepcopy(TRAJECTORY)
    target = config["spectra"]["dephasing"] if block == "dephasing" else config["backend"]
    target[key] = value
    assert main(["validate", write_config(tmp_path, config)]) == EXIT_CONFIG
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("config", [CLOSED_FORM_P4, TRAJECTORY, CLOSED_FORM_P2],
                         ids=["closed-form-p4", "trajectory-p2", "closed-form-p2"])
def test_outputs_do_not_depend_on_jobs(tmp_path, config):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for jobs in (1, 2):
            run_campaign(config, out_dir=tmp_path / f"jobs{jobs}", jobs=jobs)
    for name in OUTPUT_FILES:
        assert (tmp_path / "jobs1" / name).read_bytes() == (tmp_path / "jobs2" / name).read_bytes(), name
