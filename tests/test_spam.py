"""SPAM error injection: faulty states, POVM, sampling, corrupted forms."""

import io

import numpy as np
import pytest

from slqns.dynamics import (
    DriveAxis,
    DriveConfig,
    QubitState,
    compute_AB,
    frame_aligned_times,
    tcl_evolve_state,
    tcl_expectation_x_drive,
    tcl_expectation_z_drive,
    x_drive_coherence_rate,
    z_drive_coherence_rate,
    z_drive_rates,
)
from slqns.spam import (
    MeasurementKey,
    ShotDataset,
    ShotRecord,
    SpamMode,
    SpamParams,
    expectation_std_error,
    faulty_state,
    povm_elements,
    povm_probabilities,
    sample_shots,
    spam_corrupted_expectation,
)
from slqns.spectra import DeviceParams, Lorentzian, SphericalSpectraSet

DEVICE = DeviceParams(omega_q=2.0 * np.pi * 4970.0)


class TestSpamParams:
    def test_defaults_are_ideal(self):
        assert SpamParams.ideal().is_ideal

    def test_povm_positivity_constraint(self):
        with pytest.raises(ValueError, match="positive POVM"):
            SpamParams(alpha_m=0.9, delta=0.2)

    def test_state_positivity_constraint(self):
        with pytest.raises(ValueError, match="non-positive"):
            SpamParams(alpha_sp=0.9, c_u=0.6 + 0.3j)

    def test_combined_parameter(self):
        assert SpamParams(alpha_sp=0.98, alpha_m=0.94).alpha == pytest.approx(0.98 * 0.94)


class TestFaultyState:
    def test_error_free_preparation_is_pure(self):
        for axis in ("x", "z"):
            for sign in (+1, -1):
                state = faulty_state(axis, sign, SpamParams.ideal())
                ideal = QubitState.ket(axis, sign)
                assert np.allclose(state.matrix, ideal.matrix, atol=1e-14)

    @pytest.mark.parametrize(
        "alpha_sp,c", [(0.9, 0.0), (0.98, 0.0), (1.0, 0.0), (0.9, 0.05 + 0.02j), (0.98, 0.1j)]
    )
    def test_fidelity_is_half_one_plus_alpha(self, alpha_sp, c):
        params = SpamParams(alpha_sp=alpha_sp, c_u=c)
        state = faulty_state("x", +1, params)
        ideal = QubitState.ket("x", +1).matrix
        fidelity = float(np.real(np.trace(ideal @ state.matrix)))
        assert fidelity == pytest.approx((1.0 + alpha_sp) / 2.0, rel=1e-12)

    def test_diagonal_eigenvalues(self):
        state = faulty_state("z", +1, SpamParams(alpha_sp=0.98))
        assert np.linalg.eigvalsh(state.matrix) == pytest.approx([0.01, 0.99], abs=1e-14)

    def test_positivity_rejection(self):
        with pytest.raises(ValueError):
            faulty_state("x", +1, SpamParams(alpha_sp=0.999, c_u=0.9))


class TestPovm:
    def test_completeness_exact(self):
        params = SpamParams(alpha_m=0.85, delta=0.1)
        for basis in "xyz":
            plus, minus = povm_elements(basis, params)
            assert np.array_equal(plus + minus, np.eye(2))

    def test_elements_positive_for_admissible_params(self):
        params = SpamParams(alpha_m=0.85, delta=0.1)
        for basis in "xyz":
            for element in povm_elements(basis, params):
                assert np.linalg.eigvalsh(element).min() >= -1e-15

    def test_ideal_projective_limit(self):
        probs = povm_probabilities(QubitState.ket("z", +1), "z", SpamParams.ideal())
        assert probs == pytest.approx((1.0, 0.0), abs=1e-14)

    def test_maximally_mixed_sees_only_delta(self):
        params = SpamParams(alpha_m=0.4, delta=0.06)
        mixed = QubitState(np.eye(2) / 2.0)
        assert povm_probabilities(mixed, "x", params)[0] == pytest.approx(0.53, rel=1e-12)

    def test_reported_parameter_point(self):
        params = SpamParams(alpha_m=0.872, delta=0.038)
        p_plus, _ = povm_probabilities(QubitState.ket("z", +1), "z", params)
        assert p_plus == pytest.approx(0.955, abs=1e-12)

    def test_probabilities_consistent_with_elements(self):
        params = SpamParams(alpha_m=0.7, delta=0.15)
        rho = QubitState.from_bloch(0.2, -0.4, 0.3)
        for basis in "xyz":
            plus, _ = povm_elements(basis, params)
            from_elements = float(np.real(np.trace(plus @ rho.matrix)))
            assert povm_probabilities(rho, basis, params)[0] == pytest.approx(
                from_elements, rel=1e-12
            )


class TestSampleShots:
    def test_certain_outcome(self):
        record = sample_shots(1.0, 500, seed=3)
        assert record.n_plus == 500
        assert record.expectation == 1.0
        assert record.variance == 0.0

    def test_deterministic(self):
        a = sample_shots(0.6, 2000, seed=11)
        b = sample_shots(0.6, 2000, seed=11)
        assert a == b

    def test_binomial_mean_oracle(self):
        p = 0.37
        n = 1000
        values = np.array([sample_shots(p, n, seed=k).expectation for k in range(800)])
        se = values.std(ddof=1) / np.sqrt(values.size)
        assert abs(values.mean() - (2.0 * p - 1.0)) < 4.0 * se

    def test_variance_invariant(self):
        record = sample_shots(0.3, 400, seed=5)
        p_hat = record.n_plus / record.n_shots
        assert record.variance == pytest.approx(p_hat * (1.0 - p_hat) / record.n_shots)

    def test_std_error_never_zero_for_sampled(self):
        record = sample_shots(1.0, 100, seed=1)
        assert expectation_std_error(record) > 0.0


class TestSpamCorruptedExpectation:
    def test_ideal_params_identity(self):
        assert spam_corrupted_expectation(0.4, 0.9, +1, SpamParams.ideal(), SpamMode.X_DRIVE_X) == 0.4

    def test_reported_point(self):
        params = SpamParams(alpha_sp=0.98, alpha_m=0.94, delta=0.02)
        value = spam_corrupted_expectation(0.0, 1.0, +1, params, SpamMode.X_DRIVE_X)
        assert value == pytest.approx(0.0012, abs=1e-15)

    def test_z_drive_x_mode_scales_by_alpha(self):
        params = SpamParams(alpha_sp=0.95, alpha_m=0.9, delta=0.03)
        decayed = np.exp(-0.7)
        value = spam_corrupted_expectation(decayed, decayed, +1, params, SpamMode.Z_DRIVE_X)
        assert value == pytest.approx(params.alpha * decayed + 0.03, rel=1e-14)


GAMMA = 0.3
SPECTRA = SphericalSpectraSet.from_dephasing_plus_minus(
    lambda w: 0.08 * Lorentzian(4.0, 0.5).value(w),
    lambda w: 0.08 * Lorentzian(4.0, 0.5).value(w) * np.sin(GAMMA * w),
).with_transverse(lambda w: 0.012 + 0.004 * np.tanh(w / DEVICE.omega_q))

PARAMS = SpamParams(alpha_sp=0.97, c_u=0.05 - 0.02j, alpha_m=0.91, delta=0.04)


class TestEndToEndEquivalence:
    """faulty_state -> closed-form TCL -> POVM reproduces the corrupted forms."""

    OMEGA = 3.0

    def _backend_value(self, drive, init_axis, sign, observable):
        rho0 = faulty_state(init_axis, sign, PARAMS)
        final = tcl_evolve_state(drive, SPECTRA, DEVICE, rho0)
        p_plus, p_minus = povm_probabilities(final, observable, PARAMS)
        return p_plus - p_minus

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_x_drive_x_measurement(self, sign):
        t_final = 4.0
        drive = DriveConfig(DriveAxis.X_PLUS, self.OMEGA, t_final)
        rates = compute_AB(SPECTRA, self.OMEGA, DEVICE)
        ideal = tcl_expectation_x_drive(rates.a_rate, rates.b_rate, float(sign), t_final)
        formula = spam_corrupted_expectation(
            ideal, np.exp(-rates.a_rate * t_final), sign, PARAMS, SpamMode.X_DRIVE_X
        )
        assert self._backend_value(drive, "x", sign, "x") == pytest.approx(formula, abs=1e-10)

    @pytest.mark.parametrize("axis,omega_sign", [(DriveAxis.Z_PLUS, +1), (DriveAxis.Z_MINUS, -1)])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_z_drive_z_measurement(self, axis, omega_sign, sign):
        t_final = 5.0
        drive = DriveConfig(axis, self.OMEGA, t_final)
        rate_down, rate_up = z_drive_rates(SPECTRA, omega_sign * self.OMEGA, DEVICE)
        ideal, _ = tcl_expectation_z_drive(rate_down, rate_up, float(sign), t_final)
        decay = np.exp(-2.0 * (rate_down + rate_up) * t_final)
        formula = spam_corrupted_expectation(ideal, decay, sign, PARAMS, SpamMode.Z_DRIVE_Z)
        assert self._backend_value(drive, "z", sign, "z") == pytest.approx(formula, abs=1e-10)

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_z_drive_x_measurement_at_aligned_time(self, sign):
        t_final = float(frame_aligned_times(self.OMEGA, [4])[0])
        drive = DriveConfig(DriveAxis.Z_PLUS, self.OMEGA, t_final)
        gamma_c = z_drive_coherence_rate(SPECTRA, self.OMEGA, DEVICE)
        ideal = sign * np.exp(-gamma_c * t_final)
        formula = spam_corrupted_expectation(ideal, np.exp(-gamma_c * t_final), sign, PARAMS, SpamMode.Z_DRIVE_X)
        assert self._backend_value(drive, "x", sign, "x") == pytest.approx(formula, abs=1e-10)

    def test_coherence_parameter_never_enters_drive_axis_expectations(self):
        t_final = 4.0
        drive = DriveConfig(DriveAxis.X_PLUS, self.OMEGA, t_final)
        values = []
        for c in (0.0, 0.1, 0.2j, -0.15 + 0.1j):
            params = SpamParams(alpha_sp=0.95, c_u=c, alpha_m=0.9, delta=0.03)
            rho0 = faulty_state("x", +1, params)
            final = tcl_evolve_state(drive, SPECTRA, DEVICE, rho0)
            p_plus, p_minus = povm_probabilities(final, "x", params)
            values.append(p_plus - p_minus)
        assert np.ptp(values) < 1e-14

    def test_off_axis_diagnostics_expose_coherence(self):
        # y/z expectations under the x drive decay at the coherence rate and
        # carry the preparation coherence, not the drive-axis signal
        omega = self.OMEGA
        t_final = float(frame_aligned_times(omega, [3])[0])
        drive = DriveConfig(DriveAxis.X_PLUS, omega, t_final)
        params = SpamParams(alpha_sp=0.98, c_u=0.08 - 0.06j, alpha_m=1.0, delta=0.0)
        rho0 = faulty_state("x", +1, params)
        final = tcl_evolve_state(drive, SPECTRA, DEVICE, rho0)
        gamma_c = x_drive_coherence_rate(SPECTRA, omega, DEVICE)
        decay = np.exp(-gamma_c * t_final)
        assert final.expectation("z") == pytest.approx(0.08 * decay, rel=1e-9)
        assert final.expectation("y") == pytest.approx(0.06 * decay, rel=1e-9)


class TestShotDataset:
    def _dataset(self):
        ds = ShotDataset()
        key = MeasurementKey("x", 2.5, "x+", "x", 4.0)
        ds.add(key, ShotRecord.from_counts(1000, 700))
        ds.add(MeasurementKey("x", 2.5, "x-", "x", 4.0), ShotRecord.from_counts(1000, 300))
        ds.add(MeasurementKey("z+", 2.5, "z+", "z", 6.0), ShotRecord.exact(0.25))
        return ds

    def test_duplicate_keys_rejected(self):
        ds = self._dataset()
        with pytest.raises(ValueError):
            ds.add(MeasurementKey("x", 2.5, "x+", "x", 4.0), ShotRecord.from_counts(10, 5))

    def test_expectation_invariant_enforced(self):
        with pytest.raises(ValueError):
            ShotRecord(n_shots=100, n_plus=60, expectation=0.5, variance=0.0)

    def test_csv_round_trip(self):
        ds = self._dataset()
        buffer = io.StringIO(ds.csv_text())
        back = ShotDataset.from_csv(buffer)
        assert back.entries == ds.entries

    def test_manifest_contains_all_records(self):
        import json

        ds = self._dataset()
        manifest = json.loads(ds.to_manifest(run="demo"))
        assert manifest["metadata"] == {"run": "demo"}
        assert len(manifest["records"]) == len(ds)

    def test_times_lookup(self):
        ds = self._dataset()
        assert ds.times("x", 2.5, "x+", "x") == [4.0]

        for t in (9.0, 1.0, 6.5):
            ds.add(MeasurementKey("x", 2.5, "x+", "x", t), ShotRecord.exact(0.5))
        assert ds.times("x", 2.5, "x+", "x") == [1.0, 4.0, 6.5, 9.0]

        assert ds.times("x", 2.5, "z+", "x") == []
        assert ds.times("x", 3.5, "x+", "x") == []

        rebuilt = ShotDataset.from_csv(io.StringIO(ds.csv_text()))
        merged = ShotDataset().merge(ShotDataset()).merge(ds)
        for series in {key[:4] for key, _ in ds}:
            assert rebuilt.times(*series) == merged.times(*series) == ds.times(*series)
