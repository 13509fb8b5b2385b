"""Gaussian noise synthesis and the toy-bath construction."""

import numpy as np
import pytest

from slqns import noisegen
from slqns.noisegen import (
    BathCoefficients,
    BathConfig,
    BathVariant,
    DSAConfig,
    DSARealization,
    NoiseTrajectory,
    default_dsa_config,
    sample_ensemble,
    target_spectra,
)
from slqns.spectra import Lorentzian, Tabulated, White, evaluate_spectrum

from oracles import dsa_sample, theoretical_autocorrelation

LOR = Lorentzian(omega0=4.0, tc=0.5)


@pytest.fixture(scope="module")
def lor_config():
    return default_dsa_config(LOR, n_omega=256)


def white_config(level=0.3, omega_max=6.0, n_omega=128):
    with pytest.warns(UserWarning, match="cutoff"):
        return DSAConfig(spectrum=White(level), omega_max=omega_max, n_omega=n_omega)


class TestDSAConfig:
    def test_default_lorentzian_cutoff_is_adequate(self, lor_config):
        assert lor_config.cutoff_adequate()

    def test_an_all_zero_spectrum_has_an_adequate_cutoff_and_does_not_warn(self, recwarn):
        config = DSAConfig(spectrum=White(0.0), omega_max=6.0, n_omega=16)
        assert config.cutoff_adequate()
        assert not recwarn.list

    def test_amplitudes_are_evaluated_once_and_read_only(self, monkeypatch):
        config = default_dsa_config(LOR, n_omega=64)
        values = evaluate_spectrum(config.spectrum, config.frequencies)
        expected = np.sqrt(config.d_omega * values / np.pi)
        calls = []

        def counted(*args):
            calls.append(args)
            return evaluate_spectrum(*args)

        monkeypatch.setattr(noisegen, "evaluate_spectrum", counted)
        amplitudes = config.amplitudes
        for seed in range(3):
            DSARealization(config, seed)
        assert config.amplitudes is amplitudes and len(calls) == 1
        assert amplitudes.tobytes() == expected.tobytes()
        assert not amplitudes.flags.writeable
        assert config == default_dsa_config(LOR, n_omega=64)
        assert hash(config) == hash(default_dsa_config(LOR, n_omega=64))

    def test_inadequate_cutoff_warns(self):
        with pytest.warns(UserWarning, match="cutoff"):
            DSAConfig(spectrum=LOR, omega_max=6.0, n_omega=64)

    def test_inadequate_cutoff_warning_names_the_calling_file(self):
        # not the "<string>" of the generated dataclass __init__
        with pytest.warns(UserWarning, match="cutoff") as caught:
            DSAConfig(spectrum=LOR, omega_max=6.0, n_omega=64)
        assert [warning.filename for warning in caught] == [__file__]

    def test_requires_at_least_two_bins(self):
        with pytest.raises(ValueError):
            DSAConfig(spectrum=LOR, omega_max=30.0, n_omega=1)

    def test_grid_layout(self, lor_config):
        freqs = lor_config.frequencies
        assert freqs[0] == 0.0
        assert len(freqs) == lor_config.n_omega
        assert np.allclose(np.diff(freqs), lor_config.d_omega)


class TestDsaSample:
    def test_deterministic_for_fixed_seed(self, lor_config):
        grid = np.linspace(0.0, 5.0, 200)
        a = dsa_sample(lor_config, grid, seed=42)
        b = dsa_sample(lor_config, grid, seed=42)
        assert np.array_equal(a.samples, b.samples)

    def test_different_seeds_differ(self, lor_config):
        grid = np.linspace(0.0, 5.0, 50)
        a = dsa_sample(lor_config, grid, seed=1)
        b = dsa_sample(lor_config, grid, seed=2)
        assert not np.allclose(a.samples, b.samples)

    def test_empty_grid_rejected(self, lor_config):
        with pytest.raises(ValueError):
            dsa_sample(lor_config, [], seed=0)

    def test_ensemble_mean_is_zero(self, lor_config):
        # fixed t, many seeds: mean within 4 standard errors of zero
        n = 3000
        values = np.array([DSARealization(lor_config, k).evaluate(1.3)[0] for k in range(n)])
        se = values.std(ddof=1) / np.sqrt(n)
        assert abs(values.mean()) < 4.0 * se

    def test_ensemble_variance_matches_theory(self, lor_config):
        # brute-force ensemble oracle for the tau = 0 autocorrelation
        n = 3000
        values = np.array([DSARealization(lor_config, k).evaluate(0.7)[0] for k in range(n)])
        target = theoretical_autocorrelation(lor_config, 0.0)
        sq = values**2
        se = sq.std(ddof=1) / np.sqrt(n)
        assert abs(sq.mean() - target) < 4.0 * se

    def test_trajectory_interpolation_domain(self, lor_config):
        traj = dsa_sample(lor_config, np.linspace(0.0, 2.0, 101), seed=5)
        with pytest.raises(ValueError):
            traj(2.5)


class TestTheoreticalAutocorrelation:
    def test_positive_at_zero_lag(self, lor_config):
        assert theoretical_autocorrelation(lor_config, 0.0) > 0.0

    def test_even_in_lag(self, lor_config):
        for tau in (0.1, 0.9, 2.3):
            assert theoretical_autocorrelation(lor_config, tau) == pytest.approx(
                theoretical_autocorrelation(lor_config, -tau), rel=1e-12
            )

    def test_white_closed_form(self):
        # flat level s and cutoff W: sum of G_j^2 telescopes to s W / pi
        config = white_config(level=0.3, omega_max=6.0)
        assert theoretical_autocorrelation(config, 0.0) == pytest.approx(
            0.3 * 6.0 / np.pi, rel=1e-12
        )


class TestToyBath:
    def test_zero_lag_makes_x_and_y_equal(self, lor_config):
        traj = dsa_sample(lor_config, np.linspace(0.0, 3.0, 301), seed=9)
        coeffs = BathCoefficients(traj, BathConfig(0.0))
        t = np.linspace(0.0, 3.0, 40)
        bx, by, bz = coeffs(t)
        assert np.array_equal(bx, by)

    def test_main_text_has_no_z_coupling(self, lor_config):
        traj = dsa_sample(lor_config, np.linspace(0.0, 3.0, 301), seed=9)
        coeffs = BathCoefficients(traj, BathConfig(0.2))
        _, _, bz = coeffs(np.linspace(0.0, 2.5, 17))
        assert np.all(bz == 0.0)

    def test_three_axis_constant_trajectory(self, lor_config):
        flat = dsa_sample(lor_config, np.linspace(0.0, 3.0, 31), seed=0)
        ones = type(flat)(
            times=flat.times, samples=np.ones_like(flat.samples), seed=0, config=lor_config
        )
        coeffs = BathCoefficients(ones, BathConfig(0.5, BathVariant.THREE_AXIS))
        bx, by, bz = coeffs(1.0)
        assert (bx, by, bz) == (1.0, 1.0, 1.0)

    def test_lag_beyond_coverage_rejected(self, lor_config):
        traj = dsa_sample(lor_config, np.linspace(0.0, 1.0, 11), seed=1)
        with pytest.raises(ValueError):
            BathCoefficients(traj, BathConfig(2.0))

    def test_lagged_access_outside_domain_rejected(self, lor_config):
        traj = dsa_sample(lor_config, np.linspace(0.0, 2.0, 201), seed=1)
        coeffs = BathCoefficients(traj, BathConfig(0.5))
        coeffs(1.5)
        with pytest.raises(ValueError):
            coeffs(1.8)


class TestTargetSpectra:
    def test_zero_lag_is_classical(self, lor_config):
        spectra = target_spectra(lor_config, 0.0, BathVariant.MAIN_TEXT)
        for omega in (-3.0, 1.0, 4.0):
            assert spectra.s_minus(0, 0, omega) == 0.0

    def test_quarter_period_lag(self, lor_config):
        # gamma * omega = pi / 2 makes the quantum part equal the classical one
        omega = 4.0
        gamma = np.pi / (2.0 * omega)
        spectra = target_spectra(lor_config, gamma, BathVariant.MAIN_TEXT)
        s_plus = spectra.s_plus(0, 0, omega).real
        s_minus = spectra.s_minus(0, 0, omega).real
        assert s_minus == pytest.approx(s_plus, rel=1e-12)
        assert s_plus == pytest.approx(LOR.value(omega), rel=1e-12)

    def test_three_axis_scales_classical_part(self, lor_config):
        spectra = target_spectra(lor_config, 0.2, BathVariant.THREE_AXIS)
        for omega in (0.5, 2.0, 4.0, 7.0):
            assert spectra.s_plus(0, 0, omega).real == pytest.approx(
                1.5 * LOR.value(omega), rel=1e-12
            )

    def test_symmetries_on_grid(self, lor_config):
        spectra = target_spectra(lor_config, 0.35, BathVariant.MAIN_TEXT)
        grid = np.linspace(0.1, 8.0, 23)
        for omega in grid:
            assert spectra.s_plus(0, 0, omega).real == pytest.approx(
                spectra.s_plus(0, 0, -omega).real, rel=1e-12
            )
            assert spectra.s_minus(0, 0, omega).real == pytest.approx(
                -spectra.s_minus(0, 0, -omega).real, rel=1e-12
            )


class TestGaussianityAndAutocorrelation:
    """Statistical fidelity of the synthesized ensemble."""

    N_TRAJ = 1200

    @pytest.fixture(scope="class")
    def ensemble(self):
        config = default_dsa_config(LOR, n_omega=256)
        t0, lags = 0.8, np.linspace(0.0, 2.0, 21)
        base = np.array(
            [DSARealization(config, seed).evaluate(np.concatenate([[t0], t0 + lags]))
             for seed in range(self.N_TRAJ)]
        )
        return config, lags, base[:, 0], base[:, 1:]

    def test_sample_autocorrelation_matches_theory(self, ensemble):
        config, lags, at_t0, at_lags = ensemble
        products = at_t0[:, None] * at_lags
        target = theoretical_autocorrelation(config, lags)
        se = products.std(axis=0, ddof=1) / np.sqrt(self.N_TRAJ)
        z = np.abs(products.mean(axis=0) - target) / se
        assert np.all(z < 4.0), f"worst z = {z.max():.2f}"

    def test_skewness_and_kurtosis_gaussian(self, ensemble):
        _, _, at_t0, _ = ensemble
        n = at_t0.size
        x = (at_t0 - at_t0.mean()) / at_t0.std(ddof=0)
        skew = np.mean(x**3)
        exkurt = np.mean(x**4) - 3.0
        assert abs(skew) < 5.0 * np.sqrt(6.0 / n)
        assert abs(exkurt) < 5.0 * np.sqrt(24.0 / n)


GOOD_TIMES = [0.0, 1.0, 2.0]
CUTOFF_CONFIG = DSAConfig(LOR, omega_max=100.0)


@pytest.mark.parametrize("call, message", [
    (lambda: noisegen.NoiseTrajectory(np.zeros((2, 2)), np.zeros((2, 2)), 0, CUTOFF_CONFIG),
     "times/samples must be 1-D arrays of equal length"),
    (lambda: noisegen.NoiseTrajectory(GOOD_TIMES, [0.0, 1.0], 0, CUTOFF_CONFIG),
     "times/samples must be 1-D arrays of equal length"),
    (lambda: noisegen.NoiseTrajectory([], [], 0, CUTOFF_CONFIG), "time grid must be non-empty"),
    (lambda: noisegen.NoiseTrajectory([0.0, 2.0, 1.0], [0.0] * 3, 0, CUTOFF_CONFIG),
     "time grid must be strictly increasing"),
    (lambda: noisegen.NoiseTrajectory(GOOD_TIMES, [0.0, np.nan, 1.0], 0, CUTOFF_CONFIG), "samples must be finite"),
    (lambda: DSAConfig(LOR, omega_max=0.0), "omega_max must be finite and > 0, got 0.0"),
    (lambda: DSAConfig(LOR, omega_max=np.inf), "omega_max must be finite and > 0, got inf"),
    (lambda: BathConfig(-0.1), "lag_gamma must be finite and >= 0, got -0.1"),
    (lambda: target_spectra(CUTOFF_CONFIG, -0.1, BathVariant.MAIN_TEXT), "gamma must be >= 0"),
], ids=["trajectory-2d", "trajectory-lengths", "trajectory-empty", "trajectory-not-increasing",
        "trajectory-non-finite", "omega-max-zero", "omega-max-infinite", "negative-lag", "negative-gamma"])
def test_the_noise_constructors_refuse_bad_input(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# an ensemble as one stacked block
# ---------------------------------------------------------------------------

SEEDS = [3, 2**40 + 1, 17, 5]
STEP = 0.9 * 0.05 / default_dsa_config(LOR, n_omega=256).omega_max


@pytest.mark.parametrize("grid", [
    np.arange(700) * STEP,
    np.sort(np.random.default_rng(3).uniform(0.0, 2.0, 90)),
], ids=["blocked", "dense"])
def test_each_row_of_an_ensemble_has_the_bits_of_its_realization_alone(lor_config, grid):
    ensemble = sample_ensemble(lor_config, SEEDS, grid)
    assert ensemble.samples.shape == (len(SEEDS), grid.size) and ensemble.seed == tuple(SEEDS)
    for row, seed in zip(ensemble.samples, SEEDS):
        assert row.tobytes() == DSARealization(lor_config, seed).trajectory(grid).samples.tobytes()


def interpolation_points(grid: np.ndarray, lag: float) -> np.ndarray:
    """Step midpoints of a 1 us point, each also read at the lag, with grid
    points among them: two interior ones and the last."""
    n = 1000
    mids = (np.arange(n) + 0.5) * (1.0 / n)
    mids[[10, 500]] = grid[[16, 755]]
    points = np.concatenate((mids, mids + lag, grid[[0, -1]]))
    assert np.isin(grid[[16, 755, -1]], points).all() and points.max() == grid[-1]
    return points


def test_the_shared_interpolation_has_the_bits_of_np_interp(lor_config):
    grid = np.arange(int(1.3 / STEP) + 2) * STEP
    ensemble = sample_ensemble(lor_config, SEEDS, grid)
    # a row of zeros with a -0.0 at a grid point that is read
    samples = np.vstack((ensemble.samples, np.zeros(grid.size)))
    samples[-1, 755] = -0.0
    block = NoiseTrajectory(grid, samples, (*SEEDS, 0), lor_config)
    points = interpolation_points(grid, 0.3)
    values = block(points)
    assert values.shape == (len(SEEDS) + 1, points.size)
    for value, row in zip(values, samples):
        assert value.tobytes() == np.interp(points, grid, row).tobytes()
    assert block(points.reshape(2, -1)).tobytes() == values.tobytes()


@pytest.mark.parametrize("variant", list(BathVariant))
def test_ensemble_bath_coefficients_are_each_realization_s_own(lor_config, variant):
    """One interpolation at t and t + gamma for all rows gives every row the
    coefficients of its own trajectory, bit for bit."""
    grid = np.arange(int(1.3 / STEP) + 2) * STEP
    bath = BathConfig(0.3, variant)
    points = interpolation_points(grid, 0.0)[:1000]
    stacked = BathCoefficients(sample_ensemble(lor_config, SEEDS, grid), bath)(points)
    for row, seed in enumerate(SEEDS):
        alone = BathCoefficients(DSARealization(lor_config, seed).trajectory(grid), bath)(points)
        for coefficient, expected in zip(stacked, alone):
            assert coefficient.shape == (len(SEEDS), points.size)
            assert coefficient[row].tobytes() == expected.tobytes()


def test_a_one_point_trajectory_takes_its_sample(lor_config):
    block = NoiseTrajectory([0.0], [[1.5], [-2.0]], (1, 2), lor_config)
    assert block(np.zeros(3)).tolist() == [[1.5] * 3, [-2.0] * 3]
    assert np.interp(np.zeros(3), [0.0], [1.5]).tolist() == [1.5] * 3
