"""Trajectory engine: blocked noise synthesis, direct bath unitaries, the
time-ordered product and the x drive's column product, realizations in
chunks, the per-point structure of a campaign, drift bounds, and the step
rule with its bias budget and drift tolerance."""

from __future__ import annotations

import copy
import json
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import block_diag, expm

from slqns import dynamics
from slqns.harness import run_campaign
from slqns.noisegen import (
    SYNTHESIS_BLOCK,
    BathCoefficients,
    BathConfig,
    BathVariant,
    DSAConfig,
    DSARealization,
    NoiseTrajectory,
    _phase_tables,
    default_dsa_config,
    sample_ensemble,
)
from slqns.protocols import TrajectoryBackend
from slqns.seeding import derive_seed
from slqns.spectra import Lorentzian, Tabulated

from oracles import (
    matmul_pair_products,
    sequential_product,
    stacked_matmul_product,
    x_drive_blocks,
    x_drive_trajectory,
)
from test_harness import OUTPUT_FILES, TRAJECTORY

# the dephasing model of the harness and bench configs, in rad/us
CONFIG = default_dsa_config(Lorentzian(omega0=2.0 * math.pi * 0.6366, tc=0.5), n_omega=256)
# the floor of the trajectory step for it at 4 MHz, where omega_max binds
STEP = dynamics.step_limit(2.0 * math.pi * 4.0, CONFIG.correlation_time)[0]


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


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus", "minus"])
@pytest.mark.parametrize("dt", [STEP, 0.05])
def test_x_drive_parity_blocks_are_the_4x4_steps(sign, dt):
    rng = np.random.default_rng(7)
    beta, beta_lag = 3.0 * rng.standard_normal((2, 50))
    b = (beta, beta_lag, np.zeros_like(beta))
    omega_eff = sign * 2.0 * math.pi * 4.0
    plus, minus = x_drive_blocks(omega_eff, b, dt)
    unitaries = dynamics._x_drive_unitaries_bath(omega_eff, b, dt)
    basis = dynamics._X_PARITY_BASIS
    for k, u in enumerate(unitaries):
        mapped = basis @ block_diag(plus[k], minus[k]) @ basis.T
        reference = expm(-1j * dt * bath_hamiltonian(omega_eff, *(c[k] for c in b)))
        assert np.max(np.abs(mapped - u)) < 1e-13
        assert np.max(np.abs(mapped - reference)) < 1e-13


@pytest.mark.parametrize("variant", ["main_text", "three_axis"])
def test_simulate_trajectory_matches_the_4x4_x_drive(monkeypatch, variant):
    """The x drive propagates the parity blocks when b_z is zero and the
    4x4 steps otherwise; either way it agrees to 1e-12 with the 4x4 steps
    multiplied one at a time."""
    trajectory = DSARealization(CONFIG, seed=11).trajectory(campaign_grid())
    bath = BathConfig(lag_gamma=0.3, variant=BathVariant(variant))
    noise = dynamics.ToyBathNoise(BathCoefficients(trajectory, bath), correlation_time=CONFIG.correlation_time)
    builder, calls = dynamics._x_drive_unitaries_bath, []

    def counted(*args):
        calls.append(args[0])
        return builder(*args)

    monkeypatch.setattr(dynamics, "_x_drive_unitaries_bath", counted)
    cases = [(sign * 2.0 * math.pi * 4.0, axis, s) for sign in (1, -1) for axis, s in (("x", 1), ("x", -1), ("z", 1))]
    for omega, axis, s in cases:
        drive = dynamics.DriveConfig(dynamics.DriveAxis.X_PLUS, amplitude=omega, duration=2.5)
        dt = dynamics.step_limit(omega, CONFIG.correlation_time)[0]
        rho0 = dynamics.QubitState.ket(axis, s)
        state = dynamics.simulate_trajectory(drive, noise, rho0, dt)
        assert np.max(np.abs(state.matrix - x_drive_trajectory(drive, noise, rho0, dt).matrix)) <= 1e-12
    assert len(calls) == (len(cases) if variant == "three_axis" else 0)


# ---------------------------------------------------------------------------
# the time-ordered product against the sequential one
# ---------------------------------------------------------------------------


def random_unitaries(n, d, seed):
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d)))[0]


@pytest.mark.parametrize("layout", ["stack", "steps-innermost", "leading-axes"])
@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 2645, 2646])
def test_product_in_order_matches_the_sequential_product(n, d, layout):
    """Every (n, d, d) stack of the input, also one of a (2, 3) grid of
    stacks, reduces to its sequential product; a stack inside the grid gets
    the bits it gets alone."""
    leading = (2, 3) if layout == "leading-axes" else ()
    steps = random_unitaries(math.prod(leading) * n, d, seed=10 * n + d).reshape(leading + (n, d, d))
    if layout != "stack":
        # the (..., n, d, d) view of (d, d, ..., n) storage that the step builders return
        steps = np.moveaxis(np.ascontiguousarray(np.moveaxis(steps, (-2, -1), (0, 1))), (0, 1), (-2, -1))
        assert np.moveaxis(steps, (-2, -1), (0, 1)).flags.c_contiguous
    before = steps.copy()
    product = dynamics._product_in_order(steps)
    assert product.shape == leading + (d, d)
    for index in np.ndindex(leading):
        assert np.max(np.abs(product[index] - sequential_product(steps[index]))) <= 1e-13
        assert product[index].tobytes() == dynamics._product_in_order(steps[index]).tobytes()
    assert np.array_equal(steps, before)


def test_step_builders_store_the_steps_innermost():
    rng = np.random.default_rng(5)
    b = (*rng.standard_normal((2, 7)), np.zeros(7))
    stacks = [dynamics._x_drive_unitaries_bath(-25.0, b, STEP), *dynamics._z_drive_blocks(25.0, b, STEP)]
    for steps in stacks:
        assert steps.shape[0] == 7
        assert steps.strides[0] == steps.itemsize


# ---------------------------------------------------------------------------
# the x drive's column product against the 2x2-block product
# ---------------------------------------------------------------------------


def coefficient_stack(kind: str, n: int, rows: int = 3):
    """(b_x, b_y, b_z) of ``rows`` realizations at ``n`` steps, b_z = 0."""
    if kind == "random":
        bx, by = 3.0 * np.random.default_rng(n).standard_normal((2, rows, n))
    else:
        bx = by = np.full((rows, n), 1.7 if kind == "constant" else 0.0)
    return bx, by, np.zeros((rows, n))


def propagated_states(u_total):
    """Reduced states of every ket of SIGMA's axes under each (c, 4, 4) propagator."""
    kets = [dynamics.QubitState.ket(axis, s).matrix for axis in "xyz" for s in (1, -1)]
    u_dagger = np.conj(np.swapaxes(u_total, -1, -2))
    return [dynamics._reduce_system(u_total @ np.kron(rho0, dynamics._BATH_GROUND) @ u_dagger) for rho0 in kets]


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus", "minus"])
@pytest.mark.parametrize("kind", ["random", "zero", "constant"])
@pytest.mark.parametrize("n", [1, 2, 7, 3778])
def test_column_product_has_the_bits_of_the_2x2_block_product(n, kind, sign):
    """The first columns that the column product gives are those of
    _product_in_order on the full 2x2 parity blocks, bit for bit, and the
    chunk's reduced states are those of the 2x2-block path."""
    rows = min(3, dynamics._chunk_size(n))
    b = coefficient_stack(kind, n, rows)
    omega_eff = sign * 2.0 * math.pi * 4.0
    blocks = dynamics._product_in_order(x_drive_blocks(omega_eff, b, STEP))  # (2, c, 2, 2)
    columns = dynamics._x_drive_product(omega_eff, b[0], b[1], STEP)  # (2, 2, c)
    assert columns.tobytes() == np.ascontiguousarray(np.moveaxis(blocks[..., 0], -1, 0)).tobytes()
    drive = dynamics.DriveConfig(dynamics.DriveAxis.X_PLUS, amplitude=omega_eff, duration=1.0)
    program = dynamics._propagate_chunk(drive, b, STEP)
    reference = dynamics._X_PARITY_BASIS @ dynamics._block_diagonal(blocks) @ dynamics._X_PARITY_BASIS.T
    for state, expected in zip(propagated_states(program), propagated_states(reference)):
        assert state.tobytes() == expected.tobytes()


def test_column_product_of_a_chunk_is_that_of_each_realization_alone():
    rows = dynamics._chunk_size(2645)
    assert rows > 1
    b = coefficient_stack("random", 2645, rows)
    chunk = dynamics._x_drive_product(-25.0, b[0], b[1], STEP)
    for row in range(rows):
        alone = dynamics._x_drive_product(-25.0, b[0][row:row + 1], b[1][row:row + 1], STEP)
        assert alone[..., 0].tobytes() == chunk[..., row].tobytes()


# ---------------------------------------------------------------------------
# realizations propagated in chunks
# ---------------------------------------------------------------------------

# the drives of the bench trajectory workload, 4 MHz, on each path of the engine
DRIVES = {"x": dynamics.DriveAxis.X_PLUS, "z+": dynamics.DriveAxis.Z_PLUS, "z-": dynamics.DriveAxis.Z_MINUS}
PATHS = [("main_text", "x"), ("three_axis", "x"), ("main_text", "z+"), ("three_axis", "z-")]
PATH_IDS = ["x-parity", "x-4x4", "z-main-text", "z-three-axis"]


def campaign_point(variant: str, axis: str, duration: float):
    """The drive, step and noise factory of a trajectory-backend point, and
    the noise of one realization on its grid."""
    drive = dynamics.DriveConfig(DRIVES[axis], amplitude=2.0 * math.pi * 4.0, duration=duration)
    dt = dynamics.step_limit(drive.effective_amplitude, CONFIG.correlation_time)[0]
    bath = BathConfig(lag_gamma=0.3, variant=BathVariant(variant))
    grid = np.arange(0.0, duration + 0.3 + 1e-9 + dt, dt)

    def noise(trajectory):
        return dynamics.ToyBathNoise(BathCoefficients(trajectory, bath), correlation_time=CONFIG.correlation_time)

    def factory(seeds):
        return noise(sample_ensemble(CONFIG, seeds, grid))

    def alone(seed):
        return noise(DSARealization(CONFIG, seed).trajectory(grid))

    return drive, dt, factory, alone


@pytest.mark.parametrize("n_realizations", [3, 7], ids=["one-full-chunk", "two-chunks-and-a-part"])
@pytest.mark.parametrize("variant, axis", PATHS, ids=PATH_IDS)
def test_chunked_ensemble_equals_its_realizations_one_at_a_time(monkeypatch, variant, axis, n_realizations):
    """Chunks of three realizations give every state the bits that the
    realization gives alone, on each path of the engine."""
    drive, dt, factory, alone = campaign_point(variant, axis, duration=0.5)
    n_steps = dynamics._steps(drive.duration, dt)[0]
    monkeypatch.setattr(dynamics, "CHUNK_STEP_BYTES", 3 * n_steps * dynamics._STEP_BYTES)
    assert dynamics._chunk_size(n_steps) == 3
    propagate, chunks, states = dynamics._propagate_chunk, [], []

    def recorder(drive, b, h):
        chunks.append(len(b[0]))
        return propagate(drive, b, h)

    def checked(matrices):
        states.append(matrices.copy())

    rho0 = dynamics.QubitState.ket(axis[0], -1)
    monkeypatch.setattr(dynamics, "_propagate_chunk", recorder)
    monkeypatch.setattr(dynamics, "check_states", checked)
    mean, _ = dynamics.ensemble_expectation(drive, factory, rho0, axis[0], n_realizations, 9, dt)
    assert chunks == {3: [3], 7: [3, 3, 1]}[n_realizations]
    assert [len(checked_states) for checked_states in states] == [n_realizations]
    monkeypatch.undo()
    values = []
    for k, state in enumerate(states[0]):
        single = dynamics.simulate_trajectory(drive, alone(derive_seed(9, k)), rho0, dt)
        assert state.tobytes() == single.matrix.tobytes()
        values.append(single.expectation(axis[0]))
    assert mean == float(np.mean(values))


def test_ensemble_realization_k_gets_derive_seed_k():
    drive, dt, factory, _ = campaign_point("main_text", "x", duration=0.5)
    calls = []

    def recording_factory(seeds):
        calls.append(seeds)
        return factory(seeds)

    dynamics.ensemble_expectation(drive, recording_factory, dynamics.QubitState.ket("x", 1), "x", 5, 2**40 + 3, dt)
    assert calls == [[derive_seed(2**40 + 3, k) for k in range(5)]]
    assert all(type(seed) is int for seed in calls[0])


@pytest.mark.parametrize("variant, axis", PATHS, ids=PATH_IDS)
def test_an_ensemble_larger_than_a_block_is_sampled_block_by_block(monkeypatch, variant, axis):
    """With room for three realizations' noise, seven take three factory
    calls, of 3, 3 and 1 seeds, and give the mean and standard error of one
    block to the bit."""
    drive, dt, factory, _ = campaign_point(variant, axis, duration=0.5)
    rho0 = dynamics.QubitState.ket(axis[0], 1)
    whole = dynamics.ensemble_expectation(drive, factory, rho0, axis[0], 7, 21, dt)
    n_steps = dynamics._steps(drive.duration, dt)[0]
    monkeypatch.setattr(dynamics, "ENSEMBLE_BLOCK_BYTES", 3 * n_steps * dynamics._NOISE_STEP_BYTES)
    calls = []

    def recording_factory(seeds):
        calls.append(len(seeds))
        return factory(seeds)

    assert dynamics.ensemble_expectation(drive, recording_factory, rho0, axis[0], 7, 21, dt) == whole
    assert calls == [3, 3, 1]


@pytest.mark.parametrize("variant, axis", PATHS[:3], ids=PATH_IDS[:3])
def test_chunk_step_storage_stays_within_the_budget(monkeypatch, variant, axis):
    """At the longest point of the bench trajectory workload (2.5 us, 3,778
    steps) the chunks hold more than one realization, and no chunk's step
    storage exceeds CHUNK_STEP_BYTES: the stacks of the 4x4 and z paths, and
    the buffers that the x drive's column product allocates."""
    drive, dt, factory, _ = campaign_point(variant, axis, duration=2.5)
    n_steps = dynamics._steps(drive.duration, dt)[0]
    assert n_steps == 3778
    chunk = dynamics._chunk_size(n_steps)
    assert chunk > 1
    storage = []
    for name in ("_x_drive_unitaries_bath", "_z_drive_blocks"):
        def recorded(*args, _builder=getattr(dynamics, name)):
            steps = _builder(*args)
            assert steps.shape[-3] == n_steps
            storage.append(steps.nbytes)
            return steps

        monkeypatch.setattr(dynamics, name, recorded)
    build, columns = dynamics._x_drive_columns, []

    def recorded_columns(omega_eff, bx, by, dt, out):
        columns.append((bx.shape, out.base))
        build(omega_eff, bx, by, dt, out)

    monkeypatch.setattr(dynamics, "_x_drive_columns", recorded_columns)
    dynamics.ensemble_expectation(drive, factory, dynamics.QubitState.ket(axis[0], 1), axis[0], chunk + 1, 4, dt)
    if (variant, axis) == ("main_text", "x"):
        # each chunk builds its steps in three parts: an odd first step, and
        # the later and the earlier step of every pair, each into one of the
        # three buffers that the chunk's column product allocates
        assert [shape[0] for shape, _ in columns] == [chunk] * 3 + [1] * 3
        assert sum(shape[1] for shape, _ in columns[:3]) == n_steps
        storage = [sum(buffer.nbytes for _, buffer in columns[k:k + 3]) for k in (0, 3)]
    assert len(storage) == 2
    assert max(storage) <= dynamics.CHUNK_STEP_BYTES


def test_a_campaign_samples_checks_and_interpolates_once_per_point(tmp_path, monkeypatch):
    """A two-point trajectory campaign (protocol 1 at one frequency: the x
    drive from x+ and from x-) builds one noise block per point: its grid
    and samples are checked once, its step once, and no realization calls
    ``np.interp``."""
    config = dict(copy.deepcopy(TRAJECTORY), protocol=1,
                  plan=dict(TRAJECTORY["plan"], omegas_MHz=[4.0], times_us=[2.0]))
    config["backend"]["n_realizations"] = 5
    calls = {"interp": 0, "trajectory": 0, "step": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np, "interp", counted("interp", np.interp))
    monkeypatch.setattr(NoiseTrajectory, "__post_init__", counted("trajectory", NoiseTrajectory.__post_init__))
    monkeypatch.setattr(dynamics, "_validate_step", counted("step", dynamics._validate_step))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_campaign(config, out_dir=tmp_path)
    assert len(result.report["estimates"]) > 0
    assert calls == {"interp": 0, "trajectory": 2, "step": 2}


@pytest.mark.parametrize("n_realizations", [2.9, 1, 0, -3, float("nan")])
def test_trajectory_backend_refuses_a_bad_realization_count(n_realizations):
    with pytest.raises(dynamics.DynamicsError, match="n_realizations"):
        TrajectoryBackend(CONFIG, BathConfig(0.3), n_realizations=n_realizations)


def test_trajectory_backend_takes_an_integral_realization_count():
    assert TrajectoryBackend(CONFIG, BathConfig(0.3), n_realizations=24.0).n_realizations == 24


# ---------------------------------------------------------------------------
# campaign drift against the dense synthesis
# ---------------------------------------------------------------------------


def dense_samples(self, time_grid, h):
    return self.evaluate(time_grid)


def assert_reports_close(a, b, path="report", floor=0.0):
    """Equal keys and labels, and floats within 1e-10 relative (1e-9 for a
    ``std_error``) or within the absolute ``floor``."""
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for key in a:
            assert_reports_close(a[key], b[key], f"{path}.{key}", floor)
    elif isinstance(a, list):
        assert len(a) == len(b), path
        for k, (x, y) in enumerate(zip(a, b)):
            assert_reports_close(x, y, f"{path}[{k}]", floor)
    elif isinstance(a, float):
        rel = 1e-9 if "std_error" in path else 1e-10
        assert abs(a - b) <= max(rel * max(abs(a), abs(b)), floor), (path, a, b)
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
            patch.setattr(DSARealization, "_samples", dense_samples)
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


# ---------------------------------------------------------------------------
# campaign drift against the stacked-matmul product
# ---------------------------------------------------------------------------

# protocol 4 on the trajectory backend: the z drives and the aligned block
TRAJECTORY_P4 = dict(copy.deepcopy(TRAJECTORY), protocol=4, plan=dict(TRAJECTORY["plan"], aligned_n=[8, 10]))


def assert_campaign_drift(tmp_path, monkeypatch, config, analytic, name, replacement):
    """Run ``config`` as it is and with ``dynamics.<name>`` replaced, and
    compare the outputs: in shot mode all five files byte-identical; in
    analytic mode every float of ``report.json`` within 1e-10 relative (1e-9
    for a ``std_error``) or 1e-13 absolute, the floor for values of
    round-off size such as protocol 4's z-drive quantum rows."""
    config = copy.deepcopy(config)
    config["backend"]["analytic"] = analytic
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_campaign(config, out_dir=tmp_path / "program")
        with monkeypatch.context() as patch:
            patch.setattr(dynamics, name, replacement)
            run_campaign(config, out_dir=tmp_path / "reference")
    program, reference = tmp_path / "program", tmp_path / "reference"
    if analytic:
        assert_reports_close(
            json.loads((program / "report.json").read_text()),
            json.loads((reference / "report.json").read_text()),
            floor=1e-13,
        )
    else:
        for file_name in OUTPUT_FILES:
            assert (program / file_name).read_bytes() == (reference / file_name).read_bytes(), file_name


@pytest.mark.parametrize("config", [TRAJECTORY, TRAJECTORY_P4], ids=["p2", "p4"])
@pytest.mark.parametrize("analytic", [False, True], ids=["shot", "analytic"])
def test_campaign_drift_against_the_stacked_matmul_product(tmp_path, monkeypatch, config, analytic):
    """The einsum trees move a trajectory campaign by rounding only, within
    the tolerance of :func:`assert_campaign_drift`, against the same trees
    reduced with stacked ``np.matmul``: the full products of the z drives
    (protocol 4) and the column products of the x drive (protocol 2)."""
    calls = []

    def matmul_product(mats):
        calls.append(mats.shape[0])
        return stacked_matmul_product(mats)

    def matmul_pairs(later, earlier, out):
        calls.append(later.shape[-1])
        matmul_pair_products(later, earlier, out)

    if config["protocol"] == 2:
        assert_campaign_drift(tmp_path, monkeypatch, config, analytic, "_pair_products", matmul_pairs)
    else:
        assert_campaign_drift(tmp_path, monkeypatch, config, analytic, "_product_in_order", matmul_product)
    assert calls


@pytest.mark.parametrize("config", [TRAJECTORY, TRAJECTORY_P4], ids=["p2", "p4"])
@pytest.mark.parametrize("analytic", [False, True], ids=["shot", "analytic"])
def test_campaign_drift_against_the_4x4_x_drive(tmp_path, monkeypatch, config, analytic):
    """The x drive's parity blocks move a trajectory campaign by rounding
    only, within the tolerance of :func:`assert_campaign_drift`, against
    every x-drive realization propagated alone through the 4x4 steps, one
    step at a time."""
    propagate, calls = dynamics._propagate_chunk, []

    def reference(drive, b, h):
        if drive.axis is not dynamics.DriveAxis.X_PLUS:
            return propagate(drive, b, h)
        calls.append(drive.amplitude)
        return np.array([sequential_product(dynamics._x_drive_unitaries_bath(drive.effective_amplitude, row, h))
                         for row in zip(*b)])

    assert_campaign_drift(tmp_path, monkeypatch, config, analytic, "_propagate_chunk", reference)
    assert calls


# ---------------------------------------------------------------------------
# the step rule: a Richardson check of each ensemble against its own floor
# ---------------------------------------------------------------------------


def sized_point(omega_mhz: float, duration: float, variant: str = "main_text", axis: str = "x", seed=None):
    """The arguments of ``dynamics.sized_expectation`` for a point of the
    bench trajectory physics: the drive, its steps' noise factory (the
    backend's, or, with ``seed``, every realization that seed's noise) and
    the floor and the ceiling of its step."""
    backend = TrajectoryBackend(CONFIG, BathConfig(0.3, BathVariant(variant)))
    drive = dynamics.DriveConfig(DRIVES[axis], amplitude=2.0 * math.pi * omega_mhz, duration=duration)

    def noise_factory(h):
        factory = backend._noise_factory(duration, h)
        return factory if seed is None else lambda seeds: factory([seed] * len(seeds))

    floor, ceiling, _ = dynamics.step_limit(drive.effective_amplitude, CONFIG.correlation_time)
    return drive, noise_factory, floor, ceiling


@pytest.mark.parametrize("duration", [1.0, 2.5])
@pytest.mark.parametrize("omega_mhz", [4.0, 10.0])
def test_the_sized_step_stays_within_a_tenth_of_a_std_error_of_the_floor(omega_mhz, duration):
    """Stated bias budget: on the bench trajectory physics, 200 realizations
    at the step that the rule accepts give a mean within 0.1 of its
    Monte-Carlo std error of the same realizations at the floor step."""
    drive, noise_factory, floor, ceiling = sized_point(omega_mhz, duration)
    rho0 = dynamics.QubitState.ket("x", 1)
    mean, std_error, step = dynamics.sized_expectation(drive, noise_factory, rho0, "x", 200, 7,
                                                       CONFIG.correlation_time)
    assert floor <= step <= 0.5 * ceiling
    reference = dynamics.ensemble_expectation(drive, noise_factory(floor), rho0, "x", 200, 7, floor)[0]
    assert abs(mean - reference) <= 0.1 * std_error


@pytest.mark.parametrize("duration", [1.0, 2.5])
def test_the_checks_and_the_floor_run_after_them_cost_at_most_1_6_floor_runs(monkeypatch, duration):
    """At 10 MHz and 400 realizations the gap shrinks slower than h^2, so
    that the checks fail and the floor is taken: the steps that the rule
    propagates, counted in ``_propagate``, stay within 1 + CHECK_BUDGET
    times a floor run's (at 1 us an unbounded h^2 refinement took 1.78)."""
    drive, noise_factory, floor, _ = sized_point(10.0, duration)
    rho0 = dynamics.QubitState.ket("x", 1)
    propagate, steps = dynamics._propagate, []

    def counting(drive, noise, rho0, dt, rows):
        steps.append(dynamics._steps(drive.duration, dt)[0] * rows)
        return propagate(drive, noise, rho0, dt, rows)

    monkeypatch.setattr(dynamics, "_propagate", counting)
    dynamics.sized_expectation(drive, noise_factory, rho0, "x", 400, 3, CONFIG.correlation_time)
    sized = sum(steps)
    steps.clear()
    dynamics.ensemble_expectation(drive, noise_factory(floor), rho0, "x", 400, 3, floor)
    assert sized <= (1.0 + dynamics.CHECK_BUDGET) * sum(steps)


def test_the_first_step_is_half_the_ceiling_and_the_floor_is_16_times_finer():
    drive, noise_factory, floor, ceiling = sized_point(4.0, 2.5)
    assert ceiling == pytest.approx(16.0 * floor, rel=1e-15)
    assert floor == pytest.approx(0.045 / CONFIG.omega_max, rel=1e-15)
    steps = []

    def recording(h):
        steps.append(h)
        return noise_factory(h)

    *_, step = dynamics.sized_expectation(drive, recording, dynamics.QubitState.ket("x", 1), "x", 24, 3,
                                          CONFIG.correlation_time)
    # 2.5 us in 474 steps, the even count whose check step, 2.5 us / 237, first fits under the ceiling
    assert steps == [step] == [2.5 / 474]
    assert 2.5 / 237 <= ceiling < 2.5 / 236


def test_a_zero_noise_ensemble_is_accepted_at_its_first_check():
    """Without noise every realization is the same exact rotation: zero
    spread and a gap of rounding size, which the first check accepts."""
    silent = DSAConfig(spectrum=Tabulated(grid=(0.0, CONFIG.omega_max), values=(0.0, 0.0)),
                       omega_max=CONFIG.omega_max, n_omega=256)
    backend = TrajectoryBackend(silent, BathConfig(0.3))
    drive = dynamics.DriveConfig(dynamics.DriveAxis.X_PLUS, amplitude=2.0 * math.pi * 4.0, duration=2.5)
    steps = []

    def noise_factory(h):
        steps.append(h)
        return backend._noise_factory(2.5, h)

    mean, std_error, step = dynamics.sized_expectation(drive, noise_factory, dynamics.QubitState.ket("z", 1), "z",
                                                       5, 1, CONFIG.correlation_time)
    assert steps == [step] and std_error == 0.0
    assert mean == pytest.approx(math.cos(2.0 * math.pi * 4.0 * 2.5), abs=1e-12)


def test_a_zero_spread_ensemble_with_a_step_error_takes_the_floor_after_one_check():
    """Realizations that all read the same noise have zero spread, but the
    steps still err: the h^2 law then asks for a step of zero, and the rule
    takes the floor at once instead of refining without end."""
    drive, noise_factory, floor, _ = sized_point(4.0, 1.0, seed=derive_seed(5, 0))
    steps = []

    def recording(h):
        steps.append(h)
        return noise_factory(h)

    mean, std_error, step = dynamics.sized_expectation(drive, recording, dynamics.QubitState.ket("x", 1), "x", 4, 5,
                                                       CONFIG.correlation_time)
    assert std_error == 0.0 and step == floor
    assert len(steps) == 2 and steps[-1] == floor


@pytest.mark.parametrize("variant, axis", PATHS, ids=PATH_IDS)
def test_an_ensemble_of_two_realizations_takes_a_step_between_floor_and_ceiling(variant, axis):
    drive, noise_factory, floor, ceiling = sized_point(4.0, 1.5, variant, axis)
    mean, std_error, step = dynamics.sized_expectation(drive, noise_factory, dynamics.QubitState.ket("x", 1), "x", 2,
                                                       11, CONFIG.correlation_time)
    assert floor <= step <= ceiling
    assert math.isfinite(mean) and math.isfinite(std_error)


@pytest.mark.parametrize("variant", ["main_text", "three_axis"])
def test_an_ensemble_split_into_blocks_picks_the_steps_and_values_of_one_block(monkeypatch, variant):
    """With room for three realizations' noise at the first step, 40
    realizations are taken in blocks, and every check, the step chosen, the
    mean and the std error have the bits of one block.  At this drive the
    first check fails, so the runs after it are split too."""
    drive, noise_factory, floor, ceiling = sized_point(10.0, 1.0, variant)
    rho0 = dynamics.QubitState.ket("x", 1)
    checks = []
    ensemble = dynamics._ensemble_values

    def recording(*args, **kwargs):
        values = ensemble(*args, **kwargs)
        checks.append(values.tolist())
        return values

    def sized():
        checks.clear()
        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "_ensemble_values", recording)
            result = dynamics.sized_expectation(drive, noise_factory, rho0, "x", 40, 13, CONFIG.correlation_time)
        return result, checks[:]

    whole, whole_checks = sized()
    assert len(whole_checks) > 1
    first = 2 * math.ceil(1.0 / ceiling)
    monkeypatch.setattr(dynamics, "ENSEMBLE_BLOCK_BYTES", 3 * first * dynamics._NOISE_STEP_BYTES)
    assert dynamics._block_size(first) == 3
    assert sized() == (whole, whole_checks)


@pytest.mark.parametrize("variant", ["main_text", "three_axis"])
def test_every_point_of_a_protocol_4_campaign_meets_the_bias_budget(tmp_path, monkeypatch, variant):
    """The z drives, the aligned block and, under the three-axis bath, the x
    drive's 4x4 steps: at every point of TRAJECTORY_P4 the step lies between
    the floor and the ceiling, and the mean is within 0.1 of its std error
    (or within the states' rounding, where sigma_z is conserved) of the same
    realizations at the floor."""
    config = copy.deepcopy(TRAJECTORY_P4)
    config["backend"]["bath_variant"] = variant
    sized, points = dynamics.sized_expectation, []

    def recording(*args):
        points.append((args, sized(*args)))
        return points[-1][1]

    monkeypatch.setattr(dynamics, "sized_expectation", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_campaign(config, out_dir=tmp_path)
    monkeypatch.undo()
    assert {args[0].axis for args, _ in points} == set(DRIVES.values())
    for (drive, noise_factory, rho0, observable, n_realizations, base_seed, tau), (mean, std_error, step) in points:
        floor, ceiling, _ = dynamics.step_limit(drive.effective_amplitude, tau)
        assert floor <= step <= ceiling
        reference = dynamics.ensemble_expectation(drive, noise_factory(floor), rho0, observable, n_realizations,
                                                  base_seed, floor)[0]
        assert abs(mean - reference) <= max(0.1 * std_error, dynamics.TRACE_TOL), (drive, observable)


# the bench's trajectory workload: TRAJECTORY at one drive, 24 realizations
TRAJ_P2 = dict(copy.deepcopy(TRAJECTORY), plan=dict(TRAJECTORY["plan"], omegas_MHz=[4.0]),
               backend=dict(TRAJECTORY["backend"], n_realizations=24))


def estimate_rows(report: dict) -> dict:
    rows = {(e["component"], e["method"]): (e["value"], e["std_error"]) for e in report["estimates"]}
    return rows | {("spam", name): (v["value"], v["std_error"]) for name, v in report["spam"].items()}


def test_campaign_drift_against_the_floor_step():
    """Stated drift tolerance of the step rule: over seeds 1-3 of the bench
    trajectory workload, against every point run at its floor step on the
    same realizations, each estimate and SPAM parameter moves by at most
    0.05 of its std error in analytic mode and 0.15 in shot mode, where one
    flipped count moves an estimate by about 0.1.  An analytic row that
    reports no std error is measured against its shot-mode row's."""

    def floor_step(drive, noise_factory, rho0, observable, n_realizations, base_seed, tau):
        floor = dynamics.step_limit(drive.effective_amplitude, tau)[0]
        return *dynamics.ensemble_expectation(drive, noise_factory(floor), rho0, observable, n_realizations,
                                              base_seed, floor), floor

    def rows(config, analytic, step_rule):
        config = dict(config, backend=dict(config["backend"], analytic=analytic))
        with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            patch.setattr(dynamics, "sized_expectation", step_rule)
            return estimate_rows(run_campaign(config).report)

    for seed in (1, 2, 3):
        config = dict(TRAJ_P2, seed=seed)
        shot_scale = rows(config, False, floor_step)
        for analytic, tolerance in ((False, 0.15), (True, 0.05)):
            sized = rows(config, analytic, dynamics.sized_expectation)
            reference = rows(config, analytic, floor_step)
            assert sized.keys() == reference.keys() == shot_scale.keys()
            for key, (value, std_error) in reference.items():
                scale = std_error or shot_scale[key][1]
                assert abs(sized[key][0] - value) <= tolerance * scale, (seed, analytic, key)
