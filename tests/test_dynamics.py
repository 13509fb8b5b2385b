"""Closed-form TCL solutions, frames, and the exact trajectory engine."""

import copy
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from slqns import dynamics
from slqns.dynamics import (
    DriveAxis,
    DriveConfig,
    DriveRates,
    DynamicsError,
    QubitState,
    RateCoefficients,
    ToyBathNoise,
    check_secular_validity,
    check_states,
    compute_AB,
    ensemble_expectation,
    frame_aligned_times,
    simulate_trajectory,
    step_limit,
    tcl_evolve_state,
    tcl_expectation_x_drive,
    tcl_expectation_z_drive,
    toggling_to_rotating,
)
from slqns.noisegen import BathCoefficients, BathConfig, BathVariant, DSAConfig, sample_ensemble, target_spectra
from slqns.seeding import spawn_rng
from slqns.spectra import DeviceParams, Lorentzian, SphericalSpectraSet, Tabulated

from slqns.harness import build_campaign

from oracles import discretized_z_drive, tcl_sinc_integrator, x_drive_coherence_rate, z_drive_rates
from test_harness import CLOSED_FORM_P4

DEVICE = DeviceParams(omega_q=2.0 * np.pi * 4970.0)


def zero_noise(correlation_time=None):
    def coefficients(t):
        zeros = np.zeros_like(np.asarray(t, float))
        return zeros, zeros, zeros

    return ToyBathNoise(coefficients, correlation_time=correlation_time)


class TestQubitState:
    def test_kets_are_valid_and_pure(self):
        for axis in "xyz":
            for sign in (+1, -1):
                state = QubitState.ket(axis, sign)
                assert state.expectation(axis) == pytest.approx(sign, abs=1e-14)

    def test_trace_violation_rejected(self):
        with pytest.raises(DynamicsError):
            QubitState(np.diag([0.6, 0.6]))

    def test_hermiticity_violation_rejected(self):
        with pytest.raises(DynamicsError):
            QubitState(np.array([[0.5, 0.1], [0.3, 0.5]]))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(DynamicsError):
            QubitState.from_bloch(1.2, 0.0, 0.0)

    @pytest.mark.parametrize("matrix", [
        np.full((2, 2), np.nan),
        np.array([[1.0, np.nan], [np.nan, 0.0]]),
    ], ids=["all-nan", "nan-coherence"])
    def test_non_finite_entries_rejected(self, matrix):
        with pytest.raises(DynamicsError, match="non-finite"):
            QubitState(matrix)

    def test_a_non_finite_state_does_not_hide_another_in_its_stack(self):
        # NaN compares false against every tolerance, so the stack's minimum
        # eigenvalue used to come out NaN and pass
        stack = np.stack([QubitState.ket("x", +1).matrix, np.full((2, 2), np.nan)])
        stack[0, 0, 0] += 0.5
        with pytest.raises(DynamicsError, match="non-finite"):
            check_states(stack)

    def test_bloch_round_trip(self):
        state = QubitState.from_bloch(0.3, -0.2, 0.5)
        assert state.bloch() == pytest.approx((0.3, -0.2, 0.5), abs=1e-14)


class TestDriveConfig:
    def test_long_time_condition_enforced(self):
        with pytest.raises(DynamicsError):
            DriveConfig(DriveAxis.X_PLUS, amplitude=1.0, duration=5.0)

    def test_zero_amplitude_rejected(self):
        with pytest.raises(DynamicsError):
            DriveConfig(DriveAxis.X_PLUS, amplitude=0.0, duration=100.0)

    def test_z_axes_take_positive_magnitude(self):
        with pytest.raises(DynamicsError):
            DriveConfig(DriveAxis.Z_MINUS, amplitude=-2.0, duration=50.0)
        drive = DriveConfig(DriveAxis.Z_MINUS, amplitude=2.0, duration=50.0)
        assert drive.effective_amplitude == -2.0

    def test_signed_x_amplitude_allowed(self):
        drive = DriveConfig(DriveAxis.X_PLUS, amplitude=-3.0, duration=10.0)
        assert drive.effective_amplitude == -3.0

    @pytest.mark.parametrize("duration", [0.0, -10.0, np.nan, np.inf])
    def test_a_duration_that_is_not_finite_and_positive_is_rejected(self, duration):
        with pytest.raises(DynamicsError) as error:
            DriveConfig(DriveAxis.X_PLUS, amplitude=2.0, duration=duration)
        assert str(error.value) == f"drive duration must be finite and > 0, got {duration}"


class TestTclXDrive:
    def test_pure_decay_without_drift(self):
        assert tcl_expectation_x_drive(0.2, 0.0, 1.0, 5.0) == pytest.approx(np.exp(-1.0), rel=1e-14)

    def test_steady_state_is_drift_ratio(self):
        assert tcl_expectation_x_drive(0.5, 0.1, 1.0, 500.0) == pytest.approx(0.2, rel=1e-12)

    def test_against_ode_oracle(self):
        a, b, t_final = 0.1, 0.02, 10.0

        def rhs(_, y):
            return [-a * y[0] + b]

        sol = solve_ivp(rhs, (0.0, t_final), [1.0], rtol=1e-12, atol=1e-14)
        assert tcl_expectation_x_drive(a, b, 1.0, t_final) == pytest.approx(
            sol.y[0, -1], rel=1e-9
        )

    def test_degenerate_rate_rejected(self):
        with pytest.raises(DynamicsError):
            tcl_expectation_x_drive(0.0, 0.0, 1.0, 1.0)


class TestTclZDrive:
    def test_balanced_rates_decay_to_zero(self):
        sz = tcl_expectation_z_drive(0.3, 0.3, 1.0, 100.0)
        assert sz == pytest.approx(0.0, abs=1e-12)

    def test_one_sided_decay(self):
        # no upward transitions: population relaxes toward -1 at rate 2*down
        rate_down, t_final = 0.05, 10.0
        sz = tcl_expectation_z_drive(rate_down, 0.0, 1.0, t_final)
        assert sz == pytest.approx(2.0 * np.exp(-2.0 * rate_down * t_final) - 1.0, rel=1e-12)

    def test_zero_rates_freeze_populations(self):
        sz = tcl_expectation_z_drive(0.0, 0.0, 0.7, 50.0)
        assert sz == 0.7

    def test_against_two_rate_ode(self):
        rd, ru, t_final = 0.08, 0.03, 6.0

        def rhs(_, y):
            return [-2.0 * (rd + ru) * y[0] + 2.0 * (ru - rd)]

        sol = solve_ivp(rhs, (0.0, t_final), [1.0], rtol=1e-12, atol=1e-14)
        sz = tcl_expectation_z_drive(rd, ru, 1.0, t_final)
        assert sz == pytest.approx(sol.y[0, -1], rel=1e-9)


def dephasing_set(s_plus, s_minus):
    return SphericalSpectraSet.from_dephasing_plus_minus(s_plus, s_minus)


class TestRateCoefficients:
    def test_dephasing_only_reduces_to_s_plus_minus(self):
        gamma = 0.3
        spectra = dephasing_set(
            lambda w: Lorentzian(4.0, 0.5).value(w),
            lambda w: Lorentzian(4.0, 0.5).value(w) * np.sin(gamma * w),
        )
        omega = 3.0
        rates = compute_AB(spectra, omega, DEVICE)
        assert rates.a_rate == pytest.approx(Lorentzian(4.0, 0.5).value(omega), rel=1e-12)
        assert rates.b_rate == pytest.approx(
            Lorentzian(4.0, 0.5).value(omega) * np.sin(gamma * omega), rel=1e-12
        )

    def test_all_white_components(self):
        s = 0.07
        spectra = SphericalSpectraSet(
            {(0, 0): lambda w: s, (1, -1): lambda w: s, (-1, 1): lambda w: s}
        )
        rates = compute_AB(spectra, 2.0, DEVICE)
        assert rates.a_rate == pytest.approx(4.0 * s, rel=1e-12)
        assert rates.b_rate == pytest.approx(0.0, abs=1e-15)

    def test_classical_mirror_symmetric_set_has_no_drift(self):
        # S[1,-1](w) = S[-1,1](-w) (classical transverse noise) kills B's
        # transverse part term by term
        rng = spawn_rng(7)
        grid = np.linspace(-2.0 * DEVICE.omega_q, 2.0 * DEVICE.omega_q, 41)
        values = rng.uniform(0.1, 1.0, grid.size)
        f = lambda w: np.interp(w, grid, values)
        spectra = SphericalSpectraSet(
            {(0, 0): lambda w: f(abs(w)), (1, -1): f, (-1, 1): lambda w: f(-w)}
        )
        rates = compute_AB(spectra, 1.5, DEVICE)
        assert rates.b_rate == pytest.approx(0.0, abs=1e-12 * rates.a_rate)

    def test_unphysical_rates_warn(self):
        with pytest.warns(UserWarning, match="Bloch"):
            RateCoefficients(a_rate=0.1, b_rate=0.5)

    def test_coherence_rate_dephasing_limit(self):
        spectra = dephasing_set(lambda w: 0.4, lambda w: 0.0)
        rate = x_drive_coherence_rate(spectra, 2.0, DEVICE)
        assert rate == pytest.approx(0.5 * 0.4, rel=1e-12)

    def test_secular_guard_warns(self):
        with pytest.warns(UserWarning, match="secular"):
            check_secular_validity(0.5, 2.0)


class TestFrames:
    def test_aligned_time_formula(self):
        assert frame_aligned_times(2.0 * np.pi, [3]) == pytest.approx([3.0])

    def test_aligned_times_are_integer_cycles(self):
        times = frame_aligned_times(1.7, [1, 4, 9])
        cycles = 1.7 * times / (2.0 * np.pi)
        assert np.allclose(cycles, np.round(cycles))

    def test_aligned_list_example(self):
        assert frame_aligned_times(1.0, [10, 20, 30]) == pytest.approx(
            [20.0 * np.pi, 40.0 * np.pi, 60.0 * np.pi]
        )

    def test_rotation_is_identity_at_aligned_times(self):
        omega = 2.3
        t = frame_aligned_times(omega, [5])[0]
        assert toggling_to_rotating(0.4 + 0.1j, omega, t) == pytest.approx(0.4 + 0.1j, abs=1e-12)

    def test_rotation_preserves_magnitude(self):
        out = toggling_to_rotating(0.3 + 0.2j, 1.1, 0.77)
        assert abs(out) == pytest.approx(abs(0.3 + 0.2j), rel=1e-14)

    def test_half_period_flips_real_coherence(self):
        omega, t = 2.0, np.pi / 2.0
        assert toggling_to_rotating(0.25, omega, t).real == pytest.approx(-0.25, abs=1e-12)


class TestTrajectoryEngine:
    def test_rabi_rotation(self):
        drive = DriveConfig(DriveAxis.X_PLUS, amplitude=2.0, duration=7.0)
        state = simulate_trajectory(drive, zero_noise(), QubitState.ket("z", +1), dt=0.02)
        assert state.expectation("z") == pytest.approx(np.cos(14.0), abs=1e-6)

    def test_step_size_refusal(self):
        drive = DriveConfig(DriveAxis.X_PLUS, amplitude=10.0, duration=2.0)
        with pytest.raises(DynamicsError, match="step"):
            simulate_trajectory(drive, zero_noise(), QubitState.ket("z", +1), dt=0.1)

    def test_noise_correlation_time_tightens_step(self):
        drive = DriveConfig(DriveAxis.X_PLUS, amplitude=2.0, duration=10.0)
        noise = zero_noise(correlation_time=0.1)
        with pytest.raises(DynamicsError, match="correlation"):
            simulate_trajectory(drive, noise, QubitState.ket("z", +1), dt=0.1)


@pytest.fixture(scope="module")
def band_config():
    tab = Tabulated(grid=(2.9, 3.0, 37.0, 37.1), values=(0.0, 0.05, 0.05, 0.0))
    return DSAConfig(spectrum=tab, omega_max=37.1, n_omega=512)


def toy_bath_factory(config, bath, horizon, dt):
    grid = np.arange(0.0, horizon + 2 * dt, dt)

    def factory(seeds):
        trajectories = sample_ensemble(config, seeds, grid)
        return ToyBathNoise(BathCoefficients(trajectories, bath), correlation_time=config.correlation_time)

    return factory


class TestEnsembleExpectation:
    def test_zero_noise_has_zero_spread(self):
        drive = DriveConfig(DriveAxis.X_PLUS, amplitude=2.0, duration=6.0)
        mean, se = ensemble_expectation(
            drive, lambda seed: zero_noise(), QubitState.ket("z", +1), "z", 4, 0, dt=0.02
        )
        assert se == 0.0
        assert mean == pytest.approx(np.cos(12.0), abs=1e-6)

    def test_clt_scaling(self, band_config):
        omega, t_final = 20.0, 0.5
        drive = DriveConfig(DriveAxis.X_PLUS, amplitude=omega, duration=t_final)
        dt = step_limit(omega, band_config.correlation_time)[0]
        factory = toy_bath_factory(band_config, BathConfig(0.0), t_final, dt)
        ses = {}
        for n in (60, 240):
            trial = [
                ensemble_expectation(
                    drive, factory, QubitState.ket("x", +1), "x", n, 1000 + 17 * rep + n, dt
                )[1]
                for rep in range(4)
            ]
            ses[n] = np.mean(trial)
        ratio = ses[240] / ses[60]
        assert 0.5 * 0.8 < ratio < 0.5 * 1.2  # quadrupling shrinks SE by ~1/2

    def test_weak_coupling_matches_tcl(self, band_config):
        # moderate-size version of the trajectory-vs-TCL oracle
        omega, t_final, gamma = 20.0, 1.25, 0.05
        bath = BathConfig(gamma)
        targets = target_spectra(band_config, gamma, BathVariant.MAIN_TEXT)
        s_plus = targets.s_plus(0, 0, omega).real
        s_minus = targets.s_minus(0, 0, omega).real
        drive = DriveConfig(DriveAxis.X_PLUS, amplitude=omega, duration=t_final)
        dt = step_limit(omega, band_config.correlation_time)[0]
        factory = toy_bath_factory(band_config, bath, t_final + gamma, dt)
        mean, se = ensemble_expectation(drive, factory, QubitState.ket("x", +1), "x", 200, 5, dt)
        tcl = tcl_expectation_x_drive(s_plus, s_minus, 1.0, t_final)
        assert abs(mean - tcl) < 3.0 * se
        # and the quantum drift is essential: the classical-only prediction fails
        tcl_classical = tcl_expectation_x_drive(s_plus, 0.0, 1.0, t_final)
        assert abs(mean - tcl_classical) > 10.0 * se


class TestTclEvolveState:
    def test_x_drive_matches_expectation_formula(self):
        gamma = 0.3
        spectra = dephasing_set(
            lambda w: 0.1 * Lorentzian(4.0, 0.5).value(w),
            lambda w: 0.1 * Lorentzian(4.0, 0.5).value(w) * np.sin(gamma * w),
        )
        omega, t_final = 4.0, 3.0
        drive = DriveConfig(DriveAxis.X_PLUS, amplitude=omega, duration=t_final)
        rho0 = QubitState.from_bloch(0.6, 0.1, -0.2)
        state = tcl_evolve_state(drive, spectra, DEVICE, rho0)
        rates = compute_AB(spectra, omega, DEVICE)
        expected = tcl_expectation_x_drive(rates.a_rate, rates.b_rate, 0.6, t_final)
        assert state.expectation("x") == pytest.approx(expected, rel=1e-12)

    def test_z_drive_coherence_at_aligned_time(self):
        spectra = dephasing_set(lambda w: 0.05, lambda w: 0.0)
        omega = 5.0
        t_final = frame_aligned_times(omega, [9])[0]
        drive = DriveConfig(DriveAxis.Z_PLUS, amplitude=omega, duration=t_final)
        state = tcl_evolve_state(drive, spectra, DEVICE, QubitState.ket("x", +1))
        # dephasing-only: coherence decays at 2 S00(0) = S+(0)
        expected = np.exp(-0.05 * t_final)
        assert state.expectation("x") == pytest.approx(expected, rel=1e-10)
        assert state.expectation("z") == pytest.approx(0.0, abs=1e-12)


class TestDiscretizedZDrive:
    def test_requires_minimum_steps(self):
        with pytest.raises(DynamicsError):
            discretized_z_drive(2.0, 10.0, 50, zero_noise(), QubitState.ket("x", +1))

    def test_zero_noise_equals_continuous(self):
        omega, t_final = 3.0, 5.0
        state = discretized_z_drive(omega, t_final, 100, zero_noise(), QubitState.ket("x", +1))
        assert state.expectation("x") == pytest.approx(np.cos(omega * t_final), abs=1e-12)
        assert state.expectation("y") == pytest.approx(np.sin(omega * t_final), abs=1e-12)

    def test_first_order_convergence_to_continuous(self):
        # deterministic smooth bath coefficients isolate the discretization error
        omega, t_final = 6.0, 2.0

        def coeffs(t):
            t = np.asarray(t, dtype=float)
            return 0.4 * np.cos(2.0 * t), 0.4 * np.sin(3.0 * t), 0.2 * np.cos(5.0 * t)

        noise = ToyBathNoise(coeffs, correlation_time=0.2)
        drive = DriveConfig(DriveAxis.Z_PLUS, amplitude=omega, duration=t_final)
        reference = simulate_trajectory(drive, noise, QubitState.ket("x", +1), dt=2e-4)
        errors = []
        steps_list = (100, 1000, 10000)
        for steps in steps_list:
            state = discretized_z_drive(omega, t_final, steps, noise, QubitState.ket("x", +1))
            errors.append(np.linalg.norm(state.matrix - reference.matrix))
        slope = np.polyfit(np.log(steps_list), np.log(errors), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.2)


SINC_AMPLITUDE = 0.02


@pytest.fixture(scope="module")
def smooth_tab():
    grid = np.arange(-30.0, 30.0001, 0.02)
    values = SINC_AMPLITUDE / (1.0 + 0.25**2 * (np.abs(grid) - 4.0) ** 2)
    return Tabulated(grid=tuple(grid), values=tuple(values))


class TestSincIntegrator:
    def test_long_time_agreement(self, smooth_tab):
        omega = 4.0
        t_final = 50.0 / omega
        s_plus = 2.0 * SINC_AMPLITUDE
        closed = tcl_expectation_x_drive(s_plus, 0.0, 1.0, t_final)
        sinc = tcl_sinc_integrator(smooth_tab, omega, 1.0, t_final)
        assert abs((1.0 - sinc) - (1.0 - closed)) / (1.0 - closed) < 0.02

    def test_short_time_disagreement_documented(self, smooth_tab):
        omega = 4.0
        t_final = 2.0 / omega
        s_plus = 2.0 * SINC_AMPLITUDE
        closed = tcl_expectation_x_drive(s_plus, 0.0, 1.0, t_final)
        sinc = tcl_sinc_integrator(smooth_tab, omega, 1.0, t_final)
        assert abs((1.0 - sinc) - (1.0 - closed)) / (1.0 - closed) > 0.02

    def test_flat_spectrum_pure_exponential(self):
        s = 0.02
        grid = np.arange(-40.0, 40.0001, 0.03)
        tab = Tabulated(grid=tuple(grid), values=tuple(np.full(grid.size, s)))
        omega, t_final = 4.0, 12.5
        closed = tcl_expectation_x_drive(2.0 * s, 0.0, 1.0, t_final)
        sinc = tcl_sinc_integrator(tab, omega, 1.0, t_final)
        assert abs(sinc - closed) / closed < 0.01

    def test_under_resolved_grid_refused(self):
        tab = Tabulated(grid=(-10.0, 0.0, 10.0), values=(0.0, 0.1, 0.0))
        with pytest.raises(DynamicsError, match="grid"):
            tcl_sinc_integrator(tab, 4.0, 1.0, 10.0)


# ---------------------------------------------------------------------------
# DriveRates.flagged: the array pass in front of the scalar check chain
# ---------------------------------------------------------------------------

ABOVE_5PCT = np.nextafter(0.05, 1.0)
ABOVE_IMAG = np.nextafter(1e-12, 1.0)
BELOW_Z_FLOOR = np.nextafter(-1e-15, -1.0)
# per amplitude: (|W|, S00 at +W, S00 at -W, the sidebands down and up at +W, then at -W)
RATE_CASES = [
    (100.0, 0.1, 0.1, 0.01, 0.01, 0.01, 0.01),              # nothing fires
    (1.0, 0.025, 0.025, 0.0, 0.0, 0.0, 0.0),                # |A/W| = 0.05 exactly
    (1.0, ABOVE_5PCT / 2, ABOVE_5PCT / 2, 0.0, 0.0, 0.0, 0.0),  # |A/W| just above 0.05
    (100.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),                  # A = 0
    (100.0, 0.3, -0.1, 0.0, 0.0, 0.0, 0.0),                 # A < |B|
    (100.0, 0.1, -5e-13, 0.0, 0.0, 0.0, 0.0),               # A = |B| - 1e-12, up to rounding
    (100.0, 0.1, 0.1, 0.0, 0.0, -1e-15, 0.0),               # a z rate at -1e-15
    (100.0, 0.1, 0.1, 0.0, 0.0, BELOW_Z_FLOOR, 0.0),        # a z rate just below it
    (100.0, 0.1 + 1e-12j, 0.1, 0.0, 0.0, 0.0, 0.0),         # an imaginary part at the tolerance
    (100.0, 0.1 + ABOVE_IMAG * 1j, 0.1, 0.0, 0.0, 0.0, 0.0),  # just above it
    (100.0, 0.1, 0.1, 0.0, 1e-12j, 0.0, 0.0),               # a z rate's imaginary part at it
    (100.0, 0.1, 0.1, 0.0, ABOVE_IMAG * 1j, 0.0, 0.0),      # just above it
    (100.0, np.nan, 0.1, 0.0, 0.0, 0.0, 0.0),               # NaN spectrum
    (100.0, 0.1, np.inf, 0.0, 0.0, 0.0, 0.0),               # infinite spectrum
    (100.0, 0.1, 0.1, 0.0, 0.0, np.inf, 0.0),               # an infinite z rate
]


class CarrierSpectra:
    """The two carrier samples that DriveRates reads from its spectra itself."""

    def __init__(self, value):
        self.carrier = value

    def s_plus(self, a, b, omega):
        return self.carrier

    def value(self, a, b, omega):
        return self.carrier


def fired(rates: DriveRates, k: int) -> bool:
    """Whether the scalar check chain of amplitude k warns or raises."""
    rates.flagged = np.ones(len(rates.omega_eff), dtype=bool)  # run the chain everywhere
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rates.check(k)
        except DynamicsError:
            return True
    return bool(caught)


@pytest.mark.parametrize("carrier", [0.01 + 0j, 0.01 + 1e-12j, 0.01 + ABOVE_IMAG * 1j], ids=["real", "at", "above"])
def test_drive_rates_flag_every_amplitude_at_which_a_check_fires(monkeypatch, carrier):
    cases = np.array(RATE_CASES, dtype=complex).T
    width = cases[0].real
    samples = (tuple(cases[[1, 3, 4]]), tuple(cases[[2, 5, 6]]))
    monkeypatch.setattr(dynamics, "_sideband_samples", lambda spectra, omega, omega_q: samples)
    spectra, firing = CarrierSpectra(carrier), {}

    def rates(axis, sign):
        with np.errstate(invalid="ignore"):  # complex arithmetic on an infinite sample
            return DriveRates(axis, sign * width, spectra, DEVICE)

    # a carrier sample past the tolerance fails every amplitude's coherence rate
    everywhere = carrier.imag > 1e-12
    for axis, sign in ((DriveAxis.X_PLUS, 1.0), (DriveAxis.Z_PLUS, 1.0), (DriveAxis.Z_MINUS, -1.0)):
        flagged = rates(axis, sign).flagged
        firing[axis] = [k for k in range(len(width)) if fired(rates(axis, sign), k)]
        assert flagged[firing[axis]].all(), axis
        # the slack flags a carrier at the tolerance too, where nothing fires
        assert flagged[0] == (carrier.imag > 0.0)
    z_firing = list(range(len(width))) if everywhere else [2, 4, 7, 9, 11, 12, 13, 14]
    assert firing == {
        DriveAxis.X_PLUS: list(range(len(width))) if everywhere else [2, 3, 4, 9, 12, 13, 14],
        DriveAxis.Z_PLUS: z_firing,
        DriveAxis.Z_MINUS: z_firing,
    }


def test_drive_rates_flag_exactly_the_three_strained_drives_of_the_wide_sweep():
    config = copy.deepcopy(CLOSED_FORM_P4)
    config["plan"]["omegas_MHz"] = np.linspace(1.0, 40.0, 256).tolist()
    campaign = build_campaign(config)
    omegas = np.asarray(campaign.plan.omegas)
    pairs, flagged = [], []
    for axis, amplitudes in ((DriveAxis.Z_PLUS, np.abs(omegas)), (DriveAxis.Z_MINUS, -np.abs(omegas)),
                             (DriveAxis.X_PLUS, omegas)):
        rates = DriveRates(axis, amplitudes, campaign.backend.spectra, campaign.device)
        flagged += [(axis, k) for k in np.flatnonzero(rates.flagged).tolist()]
        pairs += [(axis, k) for k in range(len(omegas)) if fired(rates, k)]
    assert len(pairs) == 3
    assert flagged == pairs


@pytest.mark.parametrize("call, message", [
    (lambda: ensemble_expectation(None, None, QubitState.ket("x", +1), "x", 1, 0, 0.01),
     "ensemble needs at least 2 realizations"),
    (lambda: frame_aligned_times(0.0, [1, 2]), "frame alignment requires a nonzero drive amplitude"),
    (lambda: frame_aligned_times([3.0, 0.0], [1]), "frame alignment requires a nonzero drive amplitude"),
    (lambda: frame_aligned_times(3.0, [0, 2]), "alignment indices must be integers >= 1"),
    (lambda: frame_aligned_times(3.0, []), "alignment indices must be integers >= 1"),
    (lambda: QubitState(np.eye(3) / 3.0), "qubit state must be 2x2, got shape (3, 3)"),
], ids=["one-realization", "zero-amplitude", "a-zero-amplitude", "n-zero", "no-n", "not-2x2"])
def test_the_dynamics_inputs_are_checked(call, message):
    with pytest.raises(DynamicsError) as exc:
        call()
    assert str(exc.value) == message
