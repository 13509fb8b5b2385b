"""Spectrum models, spherical representation, and symmetry laws."""

import numpy as np
import pytest

from slqns.spectra import (
    DeviceParams,
    Lorentzian,
    SphericalSpectraSet,
    SpectraError,
    Tabulated,
    White,
    evaluate_spectrum,
    mhz_to_rad_per_us,
)

from oracles import rad_per_us_to_mhz

LOR = Lorentzian(omega0=4.0, tc=0.5)


class TestSpectrumModels:
    def test_lorentzian_peak_value(self):
        assert evaluate_spectrum(LOR, 4.0) == pytest.approx(1.0, abs=1e-15)

    def test_lorentzian_at_zero(self):
        # 1 / (1 + (0.5 * 4)^2)
        assert evaluate_spectrum(LOR, 0.0) == pytest.approx(0.2, abs=1e-15)

    @pytest.mark.parametrize("omega", [0.3, 1.7, 4.0, 9.2])
    def test_lorentzian_even(self, omega):
        assert evaluate_spectrum(LOR, omega) == evaluate_spectrum(LOR, -omega)

    @pytest.mark.parametrize("omega", [0.0, 2.5, -2.5])
    def test_white_constant_and_even(self, omega):
        model = White(level=0.7)
        assert evaluate_spectrum(model, omega) == 0.7

    def test_tabulated_interpolation_and_zero_outside(self):
        model = Tabulated(grid=(1.0, 2.0, 3.0), values=(0.0, 2.0, 0.0))
        assert evaluate_spectrum(model, 1.5) == pytest.approx(1.0)
        assert evaluate_spectrum(model, 0.5) == 0.0
        assert evaluate_spectrum(model, 3.5) == 0.0

    def test_tabulated_grid_must_increase(self):
        with pytest.raises(SpectraError):
            Tabulated(grid=(1.0, 1.0, 2.0), values=(0.0, 1.0, 0.0))

    def test_tabulated_rejects_negative_values(self):
        with pytest.raises(SpectraError):
            Tabulated(grid=(1.0, 2.0), values=(0.1, -0.1))

    def test_nonfinite_omega_rejected(self):
        with pytest.raises(SpectraError):
            evaluate_spectrum(LOR, float("nan"))
        with pytest.raises(SpectraError):
            evaluate_spectrum(LOR, float("inf"))

    def test_invalid_params_rejected(self):
        with pytest.raises(SpectraError):
            Lorentzian(omega0=4.0, tc=0.0)
        with pytest.raises(SpectraError):
            White(level=-1.0)

    def test_unit_conversions(self):
        assert mhz_to_rad_per_us(1.0) == pytest.approx(2.0 * np.pi)
        assert rad_per_us_to_mhz(mhz_to_rad_per_us(0.37)) == pytest.approx(0.37)


class TestDeviceParams:
    def test_requires_positive_frequency(self):
        with pytest.raises(SpectraError):
            DeviceParams(omega_q=0.0)

    def test_drive_ratio_guard(self):
        device = DeviceParams(omega_q=1000.0)
        device.check_drive_amplitude(5.0)
        with pytest.raises(SpectraError):
            device.check_drive_amplitude(50.0)


def lorentzian_pair_set(gamma: float) -> SphericalSpectraSet:
    splus = lambda w: LOR.value(w)
    sminus = lambda w: LOR.value(w) * np.sin(gamma * w)
    return SphericalSpectraSet.from_dephasing_plus_minus(splus, sminus)


class TestSphericalSpectraSet:
    def test_missing_component_is_an_error(self):
        spectra = SphericalSpectraSet({(0, 0): LOR})
        with pytest.raises(SpectraError):
            spectra.value(1, -1, 0.3)

    def test_classical_flag_zeroes_quantum_part(self):
        spectra = SphericalSpectraSet.from_dephasing_plus_minus(lambda w: LOR.value(w))
        assert spectra.classical
        for omega in (-3.0, 0.5, 4.0):
            assert spectra.s_minus(0, 0, omega) == 0.0

    @pytest.mark.parametrize("omega", [0.4, 1.9, 4.0])
    def test_classical_self_spectra_even(self, omega):
        spectra = SphericalSpectraSet.from_dephasing_plus_minus(lambda w: LOR.value(w))
        assert spectra.value(0, 0, omega) == pytest.approx(spectra.value(0, 0, -omega), rel=1e-12)

    @pytest.mark.parametrize("omega", [0.4, 1.9, 4.0])
    def test_quantum_self_spectra_antisymmetric(self, omega):
        spectra = lorentzian_pair_set(gamma=0.3)
        lhs = spectra.s_minus(0, 0, omega)
        rhs = -spectra.s_minus(0, 0, -omega)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_round_trip_plus_minus(self):
        spectra = lorentzian_pair_set(gamma=0.3)
        for omega in (-2.0, 1.1, 4.0):
            plus = spectra.s_plus(0, 0, omega)
            minus = spectra.s_minus(0, 0, omega)
            assert (plus + minus) / 2.0 == pytest.approx(spectra.value(0, 0, omega), rel=1e-12)


@pytest.mark.parametrize("call, message", [
    (lambda: Lorentzian(omega0=-1.0, tc=0.5), "Lorentzian omega0 must be finite and >= 0, got -1.0"),
    (lambda: Lorentzian(omega0=np.nan, tc=0.5), "Lorentzian omega0 must be finite and >= 0, got nan"),
    (lambda: Tabulated(grid=(0.0, 1.0), values=(1.0,)), "Tabulated grid/values must be 1-D with matching length >= 2"),
    (lambda: Tabulated(grid=(0.0,), values=(1.0,)), "Tabulated grid/values must be 1-D with matching length >= 2"),
    (lambda: Tabulated(grid=((0.0, 1.0), (2.0, 3.0)), values=(1.0,) * 4),
     "Tabulated grid/values must be 1-D with matching length >= 2"),
    (lambda: Tabulated(grid=(0.0, 1.0, np.inf), values=(1.0,) * 3), "Tabulated grid/values must be finite"),
    (lambda: Tabulated(grid=(0.0, 1.0), values=(1.0, np.nan)), "Tabulated grid/values must be finite"),
    (lambda: SphericalSpectraSet({(0, 2): LOR}), "spherical indices must be in {-1,0,1}, got (0, 2)"),
    (lambda: SphericalSpectraSet({}), "spectra set must contain at least one component"),
    (lambda: SphericalSpectraSet({(0, 0): 5}), "component 5 is neither a SpectrumModel nor a callable"),
], ids=["omega0-negative", "omega0-nan", "lengths", "one-point", "two-dimensional", "grid-infinite",
        "values-nan", "bad-index", "no-components", "bad-component"])
def test_the_spectrum_constructors_refuse_bad_input(call, message):
    with pytest.raises(SpectraError) as exc:
        call()
    assert str(exc.value) == message
