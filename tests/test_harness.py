"""Campaign front-end: config validation exit codes, the reading of spectrum
models and ``--jobs`` determinism."""

from __future__ import annotations

import copy
import json
import math
import warnings

import numpy as np
import pytest

from slqns.dynamics import compute_AB
from slqns.harness import EXIT_CONFIG, EXIT_OK, build_campaign, main, run_campaign
from slqns.noisegen import BathVariant, default_dsa_config, target_spectra
from slqns.spectra import Tabulated, mhz_to_rad_per_us

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


CLOSED_FORM_P4_ANALYTIC = dict(CLOSED_FORM_P4, backend={"type": "closed_form", "analytic": True})


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
    # a trajectory run does not simulate the transverse block, but validates it
    pytest.param("transverse", "model", {"kind": "Bogus", "params": {}}, id="transverse-model-Bogus"),
    ("transverse", "scale", -3),
])
def test_invalid_trajectory_config_exits_with_config_error(tmp_path, capsys, block, key, value):
    config = copy.deepcopy(TRAJECTORY)
    target = config["backend"] if block == "backend" else config["spectra"][block]
    target[key] = value
    assert main(["validate", write_config(tmp_path, config)]) == EXIT_CONFIG
    assert key in capsys.readouterr().err


# one-sided tables (grid in MHz, values in 1/us): a dephasing band and a
# transverse band that covers the qubit frequency plus and minus every drive
ONE_SIDED = {
    "dephasing": ([0.0, 20.0, 40.0], [0.03, 0.05, 0.0]),
    "transverse": ([0.0, 5000.0, 6000.0], [0.01, 0.02, 0.0]),
}


def campaign_with_table(block, grid_mhz, values, lag):
    config = copy.deepcopy(CLOSED_FORM_P4)
    config["spectra"][block]["model"] = {
        "kind": "Tabulated", "params": {"frequency_grid_MHz": grid_mhz, "values_per_us": values},
    }
    config["spectra"]["dephasing"]["quantum_lag_us"] = lag
    return build_campaign(config)


def test_a_one_sided_dephasing_table_gives_the_toy_bath_spectra():
    # the closed form reads a model as the trajectory oracle's truth does: at |omega|
    grid, values = ONE_SIDED["dephasing"]
    campaign = campaign_with_table("dephasing", grid, values, 0.3)
    model = Tabulated(grid=tuple(mhz_to_rad_per_us(f) for f in grid), values=tuple(values))
    target = target_spectra(default_dsa_config(model), 0.3, BathVariant.MAIN_TEXT)
    spectra = campaign.backend.spectra
    for omega in campaign.plan.omegas:
        for w in (omega, -omega):
            assert spectra.s_plus(0, 0, w) == pytest.approx(target.s_plus(0, 0, w), abs=1e-12)
            assert spectra.s_minus(0, 0, w) == pytest.approx(target.s_minus(0, 0, w), abs=1e-12)


@pytest.mark.parametrize("block", sorted(ONE_SIDED))
def test_a_one_sided_table_is_read_as_the_even_spectrum_it_describes(block):
    grid, values = ONE_SIDED[block]
    one_sided = campaign_with_table(block, grid, values, 0.0)
    mirrored = campaign_with_table(block, [-f for f in grid[:0:-1]] + grid, values[:0:-1] + values, 0.0)
    for omega in one_sided.plan.omegas:
        rates = compute_AB(one_sided.backend.spectra, omega, one_sided.device)
        assert rates.b_rate == 0.0
        assert rates.a_rate == pytest.approx(compute_AB(mirrored.backend.spectra, omega, mirrored.device).a_rate,
                                             rel=1e-12)


def test_the_trajectory_backend_folds_the_dephasing_scale_into_its_generating_spectrum():
    # a scale of 2 doubles the synthesized spectrum on the same grid and cutoff
    dsa = {}
    for scale in (1.0, 2.0):
        config = copy.deepcopy(TRAJECTORY)
        config["spectra"]["dephasing"]["scale"] = scale
        dsa[scale] = build_campaign(config).backend.dsa_config
    np.testing.assert_allclose(dsa[2.0].amplitudes, math.sqrt(2.0) * dsa[1.0].amplitudes, rtol=0.0, atol=1e-12)
    assert dsa[2.0].omega_max == dsa[1.0].omega_max
    assert dsa[2.0].correlation_time == dsa[1.0].correlation_time
    for f_mhz in (1.0, 4.0):
        omega = mhz_to_rad_per_us(f_mhz)
        one, two = (target_spectra(dsa[scale], 0.3, BathVariant.MAIN_TEXT).s_plus(0, 0, omega) for scale in dsa)
        assert two == pytest.approx(2.0 * one, rel=1e-4)


@pytest.mark.parametrize("config", [CLOSED_FORM_P4, TRAJECTORY, CLOSED_FORM_P2, CLOSED_FORM_P4_ANALYTIC],
                         ids=["closed-form-p4", "trajectory-p2", "closed-form-p2", "closed-form-p4-analytic"])
def test_outputs_do_not_depend_on_jobs(tmp_path, config):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for jobs in (1, 2):
            run_campaign(config, out_dir=tmp_path / f"jobs{jobs}", jobs=jobs)
    for name in OUTPUT_FILES:
        assert (tmp_path / "jobs1" / name).read_bytes() == (tmp_path / "jobs2" / name).read_bytes(), name
