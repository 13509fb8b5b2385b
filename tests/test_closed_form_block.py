"""The closed-form backend evaluates a drive frequency at a time.

Its records must equal, bit for bit, those of the scalar per-point chain it
replaced: the faulty preparation, the secular-TCL closed forms at one
duration, the faulty POVM and one inverse-CDF binomial draw per point.  That
chain is spelled out below with Python scalars and ``math.exp``, and calls
none of the array code.  Errors and warnings must be those of the per-point
chain too.
"""

from __future__ import annotations

import copy
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from slqns.dynamics import (
    SIGMA,
    DriveAxis,
    DriveConfig,
    DynamicsError,
    check_secular_validity,
    compute_AB,
    tcl_evolve_states,
)
from slqns.harness import build_campaign
from slqns.protocols import ClosedFormTclBackend, PointTable, ProtocolPlan, run_for_omega, run_plan
from slqns.seeding import derive_seed, spawn_rng
from slqns.spam import ShotRecord, faulty_state
from slqns.spectra import DeviceParams, SpectraError, SphericalSpectraSet, mhz_to_rad_per_us
from oracles import x_drive_coherence_rate, z_drive_rates
from test_harness import PHYSICS, TRAJECTORY

OMEGAS_MHZ = np.linspace(1.0, 40.0, 12).tolist()
TIMES_US = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0]

# nonzero preparation coherence c puts weight on the drive-basis coherences
BLOCK_PHYSICS = copy.deepcopy(PHYSICS)
BLOCK_PHYSICS["spam"].update(c_re=0.05, c_im=-0.03)
assert BLOCK_PHYSICS["spectra"]["dephasing"]["quantum_lag_us"] > 0.0

CONFIGS = {
    "p2": dict(BLOCK_PHYSICS, protocol=2, plan={"omegas_MHz": OMEGAS_MHZ, "times_us": TIMES_US}),
    "p4-aligned": dict(
        BLOCK_PHYSICS, protocol=4,
        plan={"omegas_MHz": OMEGAS_MHZ, "times_us": TIMES_US, "aligned_n": [20, 40, 60]},
    ),
}

_DRIVE_CODE = {"x": 0, "z+": 1, "z-": 2}
_INIT_CODE = {"x+": 0, "x-": 1, "z+": 2, "z-": 3}
_OBS_CODE = {"x": 0, "y": 1, "z": 2}
_EIGENVECTORS = {
    ("z", +1): np.array([1.0, 0.0], dtype=complex),
    ("z", -1): np.array([0.0, 1.0], dtype=complex),
    ("x", +1): np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    ("x", -1): np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0),
}


def scalar_expectation(matrix, axis):
    return float(np.real(np.trace(SIGMA[axis] @ matrix)))


def scalar_final_state(backend, drive_axis, omega, init, t):
    """Closed-form final state of one point, in scalar arithmetic."""
    spectra, device = backend.spectra, backend.device
    omega_eff = {"x": omega, "z+": abs(omega), "z-": -abs(omega)}[drive_axis]
    rho0 = faulty_state(init[0], +1 if init[1] == "+" else -1, backend.spam).matrix
    if drive_axis == "x":
        basis = "x"
        rates = compute_AB(spectra, omega_eff, device)
        a_rate, b_rate = rates.a_rate, rates.b_rate
        weight = -np.expm1(-a_rate * t) / a_rate
        diff = math.exp(-a_rate * t) * scalar_expectation(rho0, "x") + b_rate * weight
        gamma_c = x_drive_coherence_rate(spectra, omega_eff, device)
    else:
        basis = "z"
        rate_down, rate_up = z_drive_rates(spectra, omega_eff, device)
        s00_zero = complex(spectra.value(0, 0, 0.0)).real
        total = rate_down + rate_up
        decay = math.exp(-2.0 * total * t)
        diff = decay * scalar_expectation(rho0, "z") + (rate_up - rate_down) / total * (1.0 - decay)
        gamma_c = rate_down + rate_up + 2.0 * s00_zero
    plus, minus = _EIGENVECTORS[(basis, +1)], _EIGENVECTORS[(basis, -1)]
    coh0 = complex(plus.conj() @ rho0 @ minus)
    assert coh0 != 0.0
    coh = coh0 * math.exp(-gamma_c * t) * np.exp(-1j * omega_eff * t)
    return (
        0.5 * (1.0 + diff) * np.outer(plus, plus.conj())
        + 0.5 * (1.0 - diff) * np.outer(minus, minus.conj())
        + coh * np.outer(plus, minus.conj())
        + np.conj(coh) * np.outer(minus, plus.conj())
    )


def scalar_record(backend, drive_axis, omega, init, observable, t, n_shots, seed):
    """One point of the per-point closed-form chain, in scalar arithmetic."""
    spam = backend.spam
    final = scalar_final_state(backend, drive_axis, omega, init, t)
    p_plus = 0.5 * ((1.0 + spam.delta) + spam.alpha_m * scalar_expectation(final, observable))
    if backend.analytic:
        return ShotRecord.exact(2.0 * p_plus - 1.0)
    u = spawn_rng(seed).random()
    return ShotRecord.from_counts(n_shots, int(stats.binom.ppf(u, n_shots, min(max(p_plus, 0.0), 1.0))))


def scalar_points(plan):
    """(omega index, drive, init, observable, time, time index) of every point."""
    for i, omega in enumerate(plan.omegas):
        for j, t in enumerate(plan.times):
            if plan.protocol_id == 4:
                for drive in ("z+", "z-"):
                    for init in ("z+", "z-"):
                        yield i, drive, init, "z", t, j
            for init in ("x+", "x-"):
                yield i, "x", init, "x", t, j
        if plan.protocol_id == 4:
            for j, t in enumerate(plan.aligned_times(omega)):
                for init in ("x+", "x-"):
                    yield i, "z+", init, "x", float(t), 1000 + j


@pytest.mark.parametrize("analytic", [False, True], ids=["shots", "analytic"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_block_records_equal_the_scalar_chain(name, analytic):
    campaign = build_campaign(CONFIGS[name], seed=7, analytic=analytic)
    backend, plan = campaign.backend, campaign.plan
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dataset = run_plan(backend, plan)
        expected = {}
        for i, drive, init, obs, t, j in scalar_points(plan):
            omega = plan.omegas[i]
            seed = derive_seed(plan.seed, plan.protocol_id, i, _DRIVE_CODE[drive], _INIT_CODE[init], _OBS_CODE[obs], j)
            expected[(drive, omega, init, obs, t)] = scalar_record(backend, drive, omega, init, obs, t, plan.n_shots, seed)
    assert len(dataset) == len(expected)
    for key, record in dataset:
        assert record == expected[tuple(key)], key


def test_block_states_equal_the_scalar_chain():
    campaign = build_campaign(CONFIGS["p4-aligned"])
    backend = campaign.backend
    # the 1 MHz drive strains the secular description
    with pytest.warns(UserWarning, match="secular description"):
        for omega in campaign.plan.omegas:
            for drive_axis, axis, amplitude in (
                ("x", DriveAxis.X_PLUS, omega),
                ("z+", DriveAxis.Z_PLUS, abs(omega)),
                ("z-", DriveAxis.Z_MINUS, abs(omega)),
            ):
                drive = DriveConfig(axis, amplitude, TIMES_US[0], long_time_threshold=0.0)
                points = [(init, t) for init in ("x+", "x-", "z+", "z-") for t in TIMES_US]
                rho0s = [faulty_state(init[0], +1 if init[1] == "+" else -1, backend.spam) for init, _ in points]
                states = tcl_evolve_states(drive, backend.spectra, backend.device, rho0s, [t for _, t in points])
                expected = [scalar_final_state(backend, drive_axis, omega, init, t) for init, t in points]
                assert np.array_equal(states, expected), (omega, drive_axis)


DEVICE = DeviceParams(omega_q=mhz_to_rad_per_us(4970.0))
ZERO = SphericalSpectraSet.dephasing_only(lambda w: 0.0)


def p4_plan(omegas_mhz):
    return ProtocolPlan(
        protocol_id=4, omegas=[mhz_to_rad_per_us(f) for f in omegas_mhz],
        times=TIMES_US, aligned_n=(20, 40), seed=3,
    )


def evaluate(backend, omegas, points, n_shots, seeds):
    """``backend.evaluate`` of the (drive, init, observable, time) ``points``
    that every one of ``omegas`` shares, drawn from ``seeds[i]`` at ``omegas[i]``."""
    table = PointTable.of([p[:3] for p in points], [[p[3] for p in points]] * len(omegas), -1)
    return backend.evaluate(omegas, table, n_shots, np.asarray(seeds, dtype=np.uint64))


def test_too_strong_a_drive_raises_spectra_error():
    # a configured model is read with no finiteness check of its own, so an
    # infinite drive meets the drive-strength check on a campaign's spectra
    # too (its quantum part sin(lag * inf) is NaN on the way)
    for backend, omegas in ((ClosedFormTclBackend(ZERO, DEVICE), (2.0 * DEVICE.omega_q, math.inf)),
                            (build_campaign(CONFIGS["p2"]).backend, (math.inf,))):
        for omega in omegas:
            with pytest.raises(SpectraError, match="drive too strong"), np.errstate(invalid="ignore"):
                evaluate(backend, [omega], [("x", "x+", "x", 2.0)], 100, [[1]])
            with pytest.raises(SpectraError, match="drive too strong"), np.errstate(invalid="ignore"):
                backend.measure("z+", omega, "z+", "z", 2.0, 100, 1)


@pytest.mark.parametrize("spectra, match", [
    (ZERO, "decay rate A must be > 0"),
    (SphericalSpectraSet({(0, 0): lambda w: 0.1, (1, -1): lambda w: 0.01, (-1, 1): lambda w: -0.01}),
     "rate_down must be finite and >= 0"),
])
def test_invalid_rates_raise_dynamics_error(spectra, match):
    backend = ClosedFormTclBackend(spectra, DEVICE)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(DynamicsError, match=match):
            run_for_omega(backend, p4_plan([10.0]), mhz_to_rad_per_us(10.0))


def test_secular_strain_warns_at_every_strained_frequency():
    # a strong Lorentzian strains the low drives only
    config = copy.deepcopy(CONFIGS["p4-aligned"])
    config["spectra"]["dephasing"]["scale"] = 20.0
    config["plan"]["omegas_MHz"] = np.linspace(1.0, 4.0, 7).tolist()
    campaign = build_campaign(config)
    backend, plan = campaign.backend, campaign.plan
    strained = 0
    for i, omega in enumerate(plan.omegas):
        # what the per-point chain warned about: the x-drive decay rate A
        # sampled at each drive's signed amplitude
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for omega_eff in (omega, abs(omega), -abs(omega)):
                check_secular_validity(compute_AB(backend.spectra, omega_eff, DEVICE).a_rate, omega_eff)
        expected = {str(w.message) for w in caught}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_for_omega(backend, plan, omega, i)
        seen = {str(w.message) for w in caught if "secular" in str(w.message)}
        assert seen == expected, omega
        strained += bool(expected)
    assert 0 < strained < len(plan.omegas)


def test_one_point_measure_is_the_block_case():
    # the trajectory drive stays inside its noise synthesis band
    trajectory = dict(TRAJECTORY, protocol=4, plan=dict(TRAJECTORY["plan"], omegas_MHz=[5.0]))
    points = [("x", "x-", "x", 4.0), ("z-", "z+", "z", 6.0), ("z+", "x+", "x", 2.0)]
    for config, omega_mhz in ((CONFIGS["p4-aligned"], 14.0), (trajectory, 5.0)):
        backend = build_campaign(config).backend
        omega = mhz_to_rad_per_us(omega_mhz)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            block = evaluate(backend, [omega], points, 500, [[11, 12, 13]]).records()
            single = [backend.measure(d, omega, i, o, t, 500, s) for (d, i, o, t), s in zip(points, [11, 12, 13])]
        assert block == single, type(backend).__name__


def test_states_outside_the_bloch_ball_fail_the_stacked_check():
    # S00 < 0 below zero frequency gives |B| > A: <sigma_x> relaxes to B/A > 1
    spectra = SphericalSpectraSet.dephasing_only(lambda w: 0.2 if w > 0 else -0.05)
    backend = ClosedFormTclBackend(spectra, DEVICE)
    points = [("x", "x+", "x", 1.0), ("x", "x+", "x", 100.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(DynamicsError, match="negative eigenvalue"):
            evaluate(backend, [mhz_to_rad_per_us(5.0)], points, 10, [[1, 2]])


@pytest.mark.parametrize("omega, duration, message", [
    pytest.param(mhz_to_rad_per_us(14.0), math.nan, "drive duration must be finite and > 0, got nan", id="nan"),
    pytest.param(mhz_to_rad_per_us(14.0), math.inf, "drive duration must be finite and > 0, got inf", id="inf"),
    pytest.param(0.0, 2.0, "drive amplitude must be finite and nonzero, got 0.0", id="zero-amplitude"),
    pytest.param(math.nan, 2.0, "drive amplitude must be finite and nonzero, got nan", id="nan-amplitude"),
])
def test_every_duration_of_the_block_is_checked(omega, duration, message):
    # the checks of a frequency's drive used to read only its first duration
    backend = build_campaign(CONFIGS["p2"], analytic=True).backend
    points = [("x", "x+", "x", 2.0), ("x", "x-", "x", duration)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(DynamicsError) as error:
            evaluate(backend, [omega], points, 10, [[1, 2]])
    assert str(error.value) == message


def test_invalid_rates_warn_once_per_frequency_and_drive_axis():
    # S00 < 0 below zero frequency gives A < |B| at every drive amplitude
    spectra = SphericalSpectraSet.dephasing_only(lambda w: 0.2 if w > 0 else -0.05)
    backend = ClosedFormTclBackend(spectra, DEVICE, analytic=True)
    omegas = [mhz_to_rad_per_us(5.0), mhz_to_rad_per_us(7.0)]
    points = [("x", "x+", "x", 1.0), ("x", "x-", "x", 2.0), ("z+", "z+", "z", 1.0), ("z-", "z-", "z", 1.0)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for omega in omegas:
            for omega_eff in (omega, abs(omega), -abs(omega)):
                compute_AB(spectra, omega_eff, DEVICE)
    expected = [str(w.message) for w in caught]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DynamicsError, match="negative eigenvalue"):
            evaluate(backend, omegas, points, 10, [[1, 2, 3, 4]] * 2)
    seen = [str(w.message) for w in caught if "< |B|" in str(w.message)]
    assert len(expected) == 6
    assert seen == expected
