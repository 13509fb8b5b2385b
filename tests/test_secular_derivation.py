"""Re-derive the secular-TCL rate combinations from first principles.

The constant-drive generator is assembled numerically from the second-order
TCL structure: the conjugated spherical operators are Fourier-decomposed
over one drive period into components ``P[alpha, m] e^{i m W t}``, the
omega_q- and drive-phase-secular terms are kept, and the one-sided
correlation integrals are replaced by half the spectra at the matching
frequencies.  The resulting differential-equation coefficients must agree
with the closed-form combinations hard-coded in the dynamics module for
arbitrary spectra, drive amplitude, and qubit splitting.
"""

import numpy as np
import pytest

from slqns.dynamics import (
    SIGMA,
    compute_AB,
)
from slqns.seeding import spawn_rng
from slqns.spectra import DeviceParams, SphericalSpectraSet

from oracles import x_drive_coherence_rate, z_drive_coherence_rate, z_drive_rates

SQRT2 = np.sqrt(2.0)
SPHERICAL = {
    1: (SIGMA["x"] + 1j * SIGMA["y"]) / SQRT2,
    0: SIGMA["z"],
    -1: (SIGMA["x"] - 1j * SIGMA["y"]) / SQRT2,
}

KET = {
    ("z", +1): np.array([1.0, 0.0], dtype=complex),
    ("z", -1): np.array([0.0, 1.0], dtype=complex),
    ("x", +1): np.array([1.0, 1.0], dtype=complex) / SQRT2,
    ("x", -1): np.array([1.0, -1.0], dtype=complex) / SQRT2,
}


def control_unitary(axis: str, theta: float) -> np.ndarray:
    # exp(-i (theta/2) sigma_axis), theta = W t
    return np.cos(theta / 2.0) * np.eye(2) - 1j * np.sin(theta / 2.0) * SIGMA[axis]


def fourier_components(axis: str, n_samples: int = 512) -> dict:
    """P[alpha, m] such that U^dag sigma_alpha U = sum_m P[alpha,m] e^{i m theta}."""
    thetas = 2.0 * np.pi * np.arange(n_samples) / n_samples
    comps = {}
    for alpha, op in SPHERICAL.items():
        samples = np.empty((n_samples, 2, 2), dtype=complex)
        for k, theta in enumerate(thetas):
            u = control_unitary(axis, theta)
            samples[k] = u.conj().T @ op @ u
        for m in (-2, -1, 0, 1, 2):
            coeff = (samples * np.exp(-1j * m * thetas)[:, None, None]).mean(axis=0)
            if np.max(np.abs(coeff)) > 1e-12:
                comps[(alpha, m)] = coeff
    return comps


def secular_generator(axis: str, lookup):
    """Linear map rho -> drho/dt from the secular TCL with spectra ``lookup``."""
    comps = fourier_components(axis)

    def generator(rho: np.ndarray) -> np.ndarray:
        out = np.zeros((2, 2), dtype=complex)
        for (alpha, m), p in comps.items():
            q = comps.get((-alpha, -m))
            if q is None:
                continue
            s1 = lookup(-alpha, alpha, (-alpha, -m))  # S[-a,a](-a wq - m W)
            s2 = lookup(alpha, -alpha, (alpha, m))    # S[a,-a](+a wq + m W)
            out -= 0.5 * s1 * (p @ q @ rho - q @ rho @ p)
            out -= 0.5 * s2 * (rho @ q @ p - p @ rho @ q)
        return out

    return generator


@pytest.fixture(params=[0, 1, 2])
def random_problem(request):
    rng = spawn_rng(314159, request.param)
    omega = float(rng.uniform(0.5, 3.0))
    omega_q = float(rng.uniform(50.0, 200.0))
    table = {}

    def freq_value(coef_wq: int, coef_w: int) -> float:
        return coef_wq * omega_q + coef_w * omega

    def lookup(mu, nu, freq_key):
        key = (mu, nu, round(freq_value(*freq_key), 9))
        if key not in table:
            table[key] = float(rng.uniform(0.05, 1.0))
        return table[key]

    # pre-populate every argument either path can request
    for mu, nu in ((0, 0), (1, -1), (-1, 1)):
        for cwq in (-1, 0, 1):
            for cw in (-1, 0, 1):
                lookup(mu, nu, (cwq, cw))

    def component(mu, nu):
        def value(w):
            key = (mu, nu, round(float(w), 9))
            if key not in table:
                raise KeyError(f"unexpected frequency request {key}")
            return table[key]
        return value

    spectra = SphericalSpectraSet(
        {(0, 0): component(0, 0), (1, -1): component(1, -1), (-1, 1): component(-1, 1)}
    )
    return omega, omega_q, lookup, spectra


class TestZDriveCoefficients:
    def test_population_rates(self, random_problem):
        omega, omega_q, lookup, spectra = random_problem
        gen = secular_generator("z", lookup)
        device = DeviceParams(omega_q=omega_q)
        rate_down, rate_up = z_drive_rates(spectra, omega, device)

        p_plus = np.outer(KET[("z", +1)], KET[("z", +1)].conj())
        p_minus = np.outer(KET[("z", -1)], KET[("z", -1)].conj())
        out_rate = np.real(KET[("z", +1)].conj() @ gen(p_plus) @ KET[("z", +1)])
        in_rate = np.real(KET[("z", +1)].conj() @ gen(p_minus) @ KET[("z", +1)])
        assert out_rate == pytest.approx(-2.0 * rate_down, rel=1e-10)
        assert in_rate == pytest.approx(2.0 * rate_up, rel=1e-10)

    def test_coherence_rate(self, random_problem):
        omega, omega_q, lookup, spectra = random_problem
        gen = secular_generator("z", lookup)
        device = DeviceParams(omega_q=omega_q)
        coh = np.outer(KET[("z", +1)], KET[("z", -1)].conj())
        rate = -np.real(KET[("z", +1)].conj() @ gen(coh) @ KET[("z", -1)])
        assert rate == pytest.approx(z_drive_coherence_rate(spectra, omega, device), rel=1e-10)


class TestXDriveCoefficients:
    def test_population_dynamics_give_A_and_B(self, random_problem):
        omega, omega_q, lookup, spectra = random_problem
        gen = secular_generator("x", lookup)
        device = DeviceParams(omega_q=omega_q)
        rates = compute_AB(spectra, omega, device)

        # d<sx>/dt = Tr[sx G(rho)] = -A <sx> + B
        drift = np.real(np.trace(SIGMA["x"] @ gen(0.5 * np.eye(2))))
        decay = np.real(np.trace(SIGMA["x"] @ gen(0.5 * SIGMA["x"])))
        assert decay == pytest.approx(-rates.a_rate, rel=1e-10)
        assert drift == pytest.approx(rates.b_rate, rel=1e-10)

        # populations do not couple to the orthogonal Bloch components
        for other in ("y", "z"):
            cross = np.real(np.trace(SIGMA["x"] @ gen(0.5 * SIGMA[other])))
            assert cross == pytest.approx(0.0, abs=1e-12)

    def test_coherence_rate(self, random_problem):
        omega, omega_q, lookup, spectra = random_problem
        gen = secular_generator("x", lookup)
        device = DeviceParams(omega_q=omega_q)
        coh = np.outer(KET[("x", +1)], KET[("x", -1)].conj())
        rate = -np.real(KET[("x", +1)].conj() @ gen(coh) @ KET[("x", -1)])
        assert rate == pytest.approx(x_drive_coherence_rate(spectra, omega, device), rel=1e-10)
