"""Trajectory engine: blocked noise synthesis, direct bath unitaries, drift bound."""

from __future__ import annotations

import copy
import json
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from slqns import dynamics
from slqns.harness import run_campaign
from slqns.noisegen import (
    SYNTHESIS_BLOCK,
    DSARealization,
    NoiseTrajectory,
    _phase_tables,
    default_dsa_config,
)
from slqns.spectra import Lorentzian

from test_harness import OUTPUT_FILES, TRAJECTORY

# the dephasing model of the harness and bench configs, in rad/us
CONFIG = default_dsa_config(Lorentzian(omega0=2.0 * math.pi * 0.6366, tc=0.5), n_omega=256)
# the step the trajectory backend takes for it (0.9 * 0.05 / omega_max)
STEP = 0.9 * dynamics.STEP_NOISE_FRACTION / CONFIG.omega_max


def blocked_calls() -> int:
    info = _phase_tables.cache_info()
    return info.hits + info.misses


# ---------------------------------------------------------------------------
# blocked synthesis against the dense mode sum
# ---------------------------------------------------------------------------


def campaign_grid() -> np.ndarray:
    """Grid of the 2.5 us point of the bench trajectory campaign (lag 0.3 us)."""
    grid = np.arange(0.0, 2.5 + 0.3 + 1e-9 + STEP, STEP)
    assert grid.size == 4233
    return grid


@pytest.mark.parametrize("grid", [
    campaign_grid(),
    np.arange(40) * STEP,
    np.arange(2 * SYNTHESIS_BLOCK) * STEP,
], ids=["campaign", "shorter-than-block", "block-multiple"])
def test_blocked_synthesis_matches_dense_sum(grid):
    realization = DSARealization(CONFIG, seed=11)
    calls = blocked_calls()
    samples = realization.trajectory(grid).samples
    assert blocked_calls() == calls + 1
    tolerance = 1e-12 * np.sum(np.abs(CONFIG.amplitudes))
    assert np.max(np.abs(samples - realization.evaluate(grid))) < tolerance


def linspace_off_by_an_ulp() -> np.ndarray:
    grid = np.linspace(0.0, 3.0, 148)
    uniform = np.arange(grid.size) * grid[1]
    assert np.array_equal(grid[:-1], uniform[:-1]) and grid[-1] != uniform[-1]
    return grid


@pytest.mark.parametrize("grid", [
    np.sort(np.random.default_rng(3).uniform(0.0, 2.0, 300)),
    0.1 + np.arange(300) * STEP,
    linspace_off_by_an_ulp(),
], ids=["scattered", "offset-start", "linspace-last-ulp"])
def test_other_grids_use_the_dense_sum(grid):
    realization = DSARealization(CONFIG, seed=11)
    calls = blocked_calls()
    samples = realization.trajectory(grid).samples
    assert blocked_calls() == calls
    assert np.array_equal(samples, realization.evaluate(grid))


def test_phase_tables_are_read_only():
    grid = campaign_grid()
    DSARealization(CONFIG, seed=1).trajectory(grid)
    coarse, fine = _phase_tables(CONFIG.d_omega, CONFIG.n_omega, grid.size, float(grid[1]))
    assert coarse.shape == (math.ceil(grid.size / SYNTHESIS_BLOCK), CONFIG.n_omega)
    assert fine.shape == (SYNTHESIS_BLOCK, CONFIG.n_omega)
    for table in (coarse, fine):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0


# ---------------------------------------------------------------------------
# x-drive bath unitaries against the matrix exponential
# ---------------------------------------------------------------------------


def bath_hamiltonian(omega_eff, bx, by, bz):
    sigma = dynamics.SIGMA
    m_tau = 0.5 * (bx * sigma["x"] + by * sigma["y"] + bz * sigma["z"])
    return 0.5 * omega_eff * np.kron(sigma["x"], np.eye(2)) + np.kron(sigma["z"], m_tau)


@pytest.mark.parametrize("variant", ["main_text", "three_axis"])
@pytest.mark.parametrize("dt", [STEP, 0.05])
def test_x_drive_bath_unitaries_match_expm(variant, dt):
    rng = np.random.default_rng(7)
    beta, beta_lag = 3.0 * rng.standard_normal((2, 50))
    b = (beta, beta_lag, beta if variant == "three_axis" else np.zeros_like(beta))
    omega_eff = -2.0 * math.pi * 4.0
    unitaries = dynamics._x_drive_unitaries_bath(omega_eff, b, dt)
    for k, u in enumerate(unitaries):
        reference = expm(-1j * dt * bath_hamiltonian(omega_eff, *(c[k] for c in b)))
        assert np.max(np.abs(u - reference)) < 1e-13
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-13


# ---------------------------------------------------------------------------
# campaign drift against the dense synthesis
# ---------------------------------------------------------------------------


def dense_trajectory(self, time_grid):
    time_grid = np.asarray(time_grid, dtype=float)
    return NoiseTrajectory(
        times=time_grid, samples=self.evaluate(time_grid), seed=self.seed, config=self.config
    )


def assert_reports_close(a, b, path="report"):
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for key in a:
            assert_reports_close(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list):
        assert len(a) == len(b), path
        for k, (x, y) in enumerate(zip(a, b)):
            assert_reports_close(x, y, f"{path}[{k}]")
    elif isinstance(a, float):
        rel = 1e-9 if "std_error" in path else 1e-10
        assert abs(a - b) <= rel * max(abs(a), abs(b)), (path, a, b)
    else:
        assert a == b, path


@pytest.mark.parametrize("analytic", [False, True], ids=["shot", "analytic"])
def test_campaign_drift_against_dense_synthesis(tmp_path, monkeypatch, analytic):
    """Blocked synthesis moves a trajectory campaign by rounding only.

    Stated tolerance: in analytic mode every float of ``report.json`` (each
    estimate, each SPAM parameter) agrees with the dense-synthesis run to
    1e-10 relative, and every ``std_error`` to 1e-9 relative; in shot mode
    all five output files are byte-identical.
    """
    config = copy.deepcopy(TRAJECTORY)
    config["backend"]["analytic"] = analytic
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_campaign(config, out_dir=tmp_path / "blocked")
        with monkeypatch.context() as patch:
            patch.setattr(DSARealization, "trajectory", dense_trajectory)
            run_campaign(config, out_dir=tmp_path / "dense")
    blocked, dense = tmp_path / "blocked", tmp_path / "dense"
    if analytic:
        assert_reports_close(
            json.loads((blocked / "report.json").read_text()),
            json.loads((dense / "report.json").read_text()),
        )
    else:
        for name in OUTPUT_FILES:
            assert (blocked / name).read_bytes() == (dense / name).read_bytes(), name
