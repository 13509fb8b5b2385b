"""SPAM error injection: faulty states, POVM, sampling, corrupted forms."""

import io
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

from slqns.dynamics import (
    DriveAxis,
    DriveConfig,
    QubitState,
    compute_AB,
    frame_aligned_times,
    tcl_evolve_state,
    tcl_expectation_x_drive,
    tcl_expectation_z_drive,
)
from slqns.spam import (
    MeasurementKey,
    ShotDataset,
    ShotRecord,
    SpamParams,
    draw_shots,
    expectation_std_error,
    faulty_state,
    sample_shots,
)
from slqns.spectra import DeviceParams, Lorentzian, SphericalSpectraSet

from oracles import (
    SpamMode,
    binomial_quantile_reference,
    manifest_reference,
    povm_elements,
    povm_probabilities,
    spam_corrupted_expectation,
    x_drive_coherence_rate,
    z_drive_coherence_rate,
    z_drive_rates,
)

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

    @pytest.mark.parametrize("fields, message", [
        ({"alpha_sp": np.nan}, "SPAM parameters must be finite"),
        ({"c_u": complex(0.0, np.inf)}, "SPAM parameters must be finite"),
        ({"delta": -np.inf}, "SPAM parameters must be finite"),
        ({"alpha_sp": -1.2}, "require |alpha_sp| <= 1 and |Re c|, |Im c| <= 1"),
        ({"alpha_sp": 0.0, "c_u": complex(0.0, 1.5)}, "require |alpha_sp| <= 1 and |Re c|, |Im c| <= 1"),
    ], ids=["nan-alpha_sp", "infinite-c", "infinite-delta", "alpha_sp", "im-c"])
    def test_non_finite_and_out_of_range_parameters_are_refused(self, fields, message):
        with pytest.raises(ValueError) as error:
            SpamParams(**fields)
        assert str(error.value) == message


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

    @pytest.mark.parametrize("axis, sign, message", [
        ("y", +1, "preparation axis must be 'x' or 'z', got 'y'"),
        ("x", 0, "preparation sign must be +1 or -1, got 0"),
    ], ids=["axis", "sign"])
    def test_an_unknown_axis_or_sign_is_refused(self, axis, sign, message):
        with pytest.raises(ValueError) as error:
            faulty_state(axis, sign, SpamParams.ideal())
        assert str(error.value) == message


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


def _edge_grid():
    """(P(+), uniforms) broadcast over 207 p values, the edges of [0, 1] among
    them, and 106 u values, the edges of (0, 1) among them."""
    rng = np.random.default_rng(20240219)
    p_plus = np.concatenate((
        [0.0, 1.0, 5e-324, 1e-300, 1e-12, 1.0 - 1e-12, np.nextafter(1.0, 0.0)],
        rng.uniform(0.0, 1e-6, 40),
        1.0 - rng.uniform(0.0, 1e-6, 40),
        rng.random(120),
    ))
    uniforms = np.concatenate((
        [[5e-324], [1e-300], [1e-12], [0.5], [1.0 - 1e-12], [np.nextafter(1.0, 0.0)]],
        rng.random((100, 1)),
    ))
    return p_plus, np.broadcast_to(uniforms, (uniforms.shape[0], p_plus.size))


def _refereed_scipy_counts(p_plus, n_shots, uniforms, counts):
    """``scipy.stats.binom.ppf``, with mpmath's exact count wherever it and
    ``counts`` disagree.

    Boost's quantile behind scipy misses the exact count on 71 pairs of the
    edge grid (at n = 1000, 33 with u = 5e-324, 11 with u = 1e-300 and 26
    with u = 1 - 2**-53; at n = 1, u = 1 - 1e-12 with p = 1e-12), and warns
    "Unable to bracket root" or "Unable to locate solution" at 21, two of
    which it gets right.  Its warnings are the oracle's, not the sampler's.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        expected = stats.binom.ppf(uniforms, n_shots, p_plus).astype(np.int64)
    p_plus, uniforms = np.broadcast_arrays(p_plus, uniforms)
    disputed = np.nonzero(counts != expected)
    expected[disputed] = binomial_quantile_reference(p_plus[disputed], n_shots, uniforms[disputed])
    return expected


class TestDrawShots:
    """``draw_shots`` is a numpy inverse CDF; ``scipy.stats.binom.ppf`` is its
    oracle on (0, 1), refereed by mpmath's exact CDF where the two disagree,
    and mpmath alone at the extremes of p and u."""

    @pytest.mark.parametrize("n_shots", [1, 7, 1000])
    def test_counts_equal_scipy_stats_on_the_open_unit_interval(self, n_shots):
        p_plus, uniforms = _edge_grid()
        assert ((uniforms > 0.0) & (uniforms < 1.0)).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = draw_shots(p_plus, n_shots, uniforms)
        np.testing.assert_array_equal(counts, _refereed_scipy_counts(p_plus, n_shots, uniforms, counts))

    def test_counts_equal_scipy_stats_on_a_million_pcg64_draws(self):
        rng = np.random.default_rng(20260219)
        half = 500_000
        p_plus = np.concatenate((rng.random(half), rng.beta(0.05, 0.05, half)))
        uniforms = rng.random(2 * half)
        counts = draw_shots(p_plus, 1000, uniforms)
        np.testing.assert_array_equal(counts, _refereed_scipy_counts(p_plus, 1000, uniforms, counts))

    @pytest.mark.parametrize("n_shots", [1, 7, 1000])
    def test_counts_equal_the_exact_quantile_at_the_edges(self, n_shots):
        p_plus = np.array([
            5e-324, 1e-300, 1e-15, 1e-12, 2e-12, 0.3, 0.5518052990852388, 0.9,
            1.0 - 2e-12, 1.0 - 1e-12, 1.0 - 1e-15, np.nextafter(1.0, 0.0),
        ])
        uniforms = np.array([[5e-324], [1e-300], [2.0**-53], [0.5], [1.0 - 2.0**-53]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = draw_shots(p_plus, n_shots, uniforms)
        np.testing.assert_array_equal(counts, binomial_quantile_reference(p_plus, n_shots, uniforms))

    def test_threads_filling_the_log_binomial_cache_draw_the_same_counts(self):
        # each n is new to the cache, so the threads race to fill it
        rng = np.random.default_rng(20260220)
        p_plus, uniforms = rng.random(500), rng.random(500)
        shots = [n for n in range(1001, 1009) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(draw_shots, p_plus, n, uniforms) for n in shots]
                counts = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for n, got in zip(shots, counts):
            np.testing.assert_array_equal(got, _refereed_scipy_counts(p_plus, n, uniforms, got))

    @pytest.mark.parametrize("n_shots", [1, 7, 1000])
    def test_a_zero_uniform_gives_no_plus_outcome(self, n_shots):
        p_plus = np.array([0.0, 1e-9, 0.5, 1.0 - 1e-9, 1.0])
        counts = draw_shots(p_plus, n_shots, np.zeros_like(p_plus))
        np.testing.assert_array_equal(counts, np.zeros(p_plus.size, dtype=np.int64))

    @pytest.mark.parametrize("n_shots", [1, 7, 1000])
    def test_a_unit_uniform_gives_every_shot_unless_p_is_zero(self, n_shots):
        p_plus = np.array([0.0, 5e-324, 0.5, 1.0])
        counts = draw_shots(p_plus, n_shots, np.ones_like(p_plus))
        np.testing.assert_array_equal(counts, [0, n_shots, n_shots, n_shots])

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5, -np.inf, np.inf])
    def test_uniforms_outside_the_unit_interval_are_refused(self, bad):
        with pytest.raises(ValueError, match=r"uniforms must lie in \[0, 1\], got"):
            draw_shots([0.5, 0.5], 1000, [0.25, bad])

    @pytest.mark.parametrize("n_shots", [0, -3])
    def test_fewer_than_one_shot_is_refused(self, n_shots):
        with pytest.raises(ValueError) as error:
            draw_shots([0.5, 0.5], n_shots, [0.25, 0.75])
        assert str(error.value) == f"n_shots must be >= 1, got {n_shots}"


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
        ideal = tcl_expectation_z_drive(rate_down, rate_up, float(sign), t_final)
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
        merged = ShotDataset()
        for other in (ShotDataset(), ds):
            merged.extend(*(other.column(name) for name in ("drive", "omega", "init", "observable", "time")),
                          other.take(slice(None)))
        for series in {key[:4] for key, _ in ds}:
            assert rebuilt.times(*series) == merged.times(*series) == ds.times(*series)


def _manifest_dataset(records):
    ds = ShotDataset()
    for k, record in enumerate(records):
        ds.add(MeasurementKey("x" if k % 2 else "z+", 2.5 + k, "x+", "x", 4.0 / (k + 1)), record)
    return ds


@pytest.mark.parametrize("records, metadata", [
    ([], {"config_digest": "ab", "protocol": 4, "seed": 1}),
    ([ShotRecord.from_counts(1000, 700), ShotRecord.from_counts(1000, 0), ShotRecord.from_counts(7, 7)],
     {"protocol": 2, "seed": 2**64 + 3}),
    ([ShotRecord.exact(0.25), ShotRecord.exact(-1.0 / 3.0), ShotRecord.from_counts(10, 3)], {}),
    ([ShotRecord.exact(1e-300)],
     {"nested": {"list": [1, 2.5, "s"], "empty": {}, "deep": {"b": [], "a": None}}, "records": True}),
], ids=["empty", "shots", "analytic-and-shots", "nested-metadata"])
def test_manifest_equals_one_indented_json_dump(records, metadata):
    ds = _manifest_dataset(records)
    assert ds.to_manifest(**metadata) == manifest_reference(ds, **metadata)
