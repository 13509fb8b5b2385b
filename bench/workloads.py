"""Campaign configs for the benchmark workloads.

Every workload shares the physics of the ROADMAP example config and differs
only in backend, protocol and plan.  A config is a plain JSON-ready dict, the
same document a user would hand to ``slqns run``; the workload seed becomes
the campaign seed and is the only input that varies between runs.

This module imports neither numpy nor ``slqns`` so that a set-up probe can
build its config before it starts timing ``import slqns``.
"""

from __future__ import annotations

import copy

PHYSICS = {
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

SHOTS = 1000


def linspace(lo: float, hi: float, n: int) -> list[float]:
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


WIDE_OMEGAS_MHZ = linspace(1.0, 40.0, 256)
WIDE_TIMES_US = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0]

# name -> (protocol, backend block, plan block, why)
WORKLOADS = {
    "cf-p4-wide": (
        4,
        {"type": "closed_form", "analytic": False},
        {"omegas_MHz": WIDE_OMEGAS_MHZ, "times_us": WIDE_TIMES_US, "aligned_n": [20, 40, 60]},
        "10,752 closed-form points: point evaluation, shot sampling, the dataset "
        "time scan in estimation and output writing; never touches noisegen",
    ),
    "cf-p2-series": (
        2,
        {"type": "closed_form", "analytic": False},
        {"omegas_MHz": WIDE_OMEGAS_MHZ, "times_us": WIDE_TIMES_US},
        "3,072 points; the linearization guard trips at every frequency, so the "
        "nonlinear Gauss-Newton fit dominates instead of the scan",
    ),
    "traj-p2": (
        2,
        {
            "type": "trajectory",
            "analytic": False,
            "n_realizations": 24,
            "n_omega": 256,
            "bath_variant": "main_text",
        },
        {"omegas_MHz": [4.0], "times_us": [1.0, 1.5, 2.0, 2.5]},
        "192 toy-bath trajectories: noise synthesis and propagation dominate, "
        "closed-form evaluation and estimation are nearly idle",
    ),
}

# Frequencies of the small twin on which jobs=1 and jobs=2 must agree.  The
# trajectory twin keeps the workload's physics but only two drives and two
# realizations per point, because its points cost ~50 ms per trajectory.
JOBS_TWIN_FREQUENCIES = 16
TRAJ_JOBS_TWIN = {"omegas_MHz": [4.0, 5.0], "n_realizations": 2}


def campaign_config(workload: str, seed: int) -> dict:
    """The campaign config a workload runs at ``seed``."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    protocol, backend, plan, _ = WORKLOADS[workload]
    config = copy.deepcopy(PHYSICS)
    config.update(
        protocol=protocol,
        seed=int(seed),
        backend=copy.deepcopy(backend),
        plan=dict(copy.deepcopy(plan), shots=SHOTS),
    )
    return config


def analytic_twin(config: dict) -> dict:
    """Same campaign with shot sampling bypassed."""
    twin = copy.deepcopy(config)
    twin["backend"]["analytic"] = True
    return twin


def jobs_twin(config: dict) -> dict:
    """A few-frequency copy of a campaign, cheap enough to run at two job counts."""
    twin = copy.deepcopy(config)
    if twin["backend"]["type"] == "trajectory":
        twin["plan"]["omegas_MHz"] = list(TRAJ_JOBS_TWIN["omegas_MHz"])
        twin["backend"]["n_realizations"] = TRAJ_JOBS_TWIN["n_realizations"]
        return twin
    omegas = twin["plan"]["omegas_MHz"]
    twin["plan"]["omegas_MHz"] = linspace(omegas[0], omegas[-1], JOBS_TWIN_FREQUENCIES)
    return twin
