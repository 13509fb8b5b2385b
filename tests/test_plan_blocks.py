"""``run_plan`` evaluates its whole drive grid as one block.

Neither the records, nor their insertion order, nor the warnings and the
first error may depend on that blocking: each must be what evaluating the
frequencies one at a time, in plan order, gives.
"""

from __future__ import annotations

import copy
import math
import warnings

import numpy as np
import pytest

from slqns import protocols, spam
from slqns.dynamics import DynamicsError, check_states
from slqns.harness import build_campaign
from slqns.protocols import ClosedFormTclBackend, PlanError, PointTable, ProtocolPlan, run_for_omega, run_plan
from slqns.spectra import DeviceParams, SphericalSpectraSet, Tabulated, mhz_to_rad_per_us
from test_harness import CLOSED_FORM_P4, TRAJECTORY

# 7 frequencies
P4_SEVEN = copy.deepcopy(CLOSED_FORM_P4)
P4_SEVEN["plan"]["omegas_MHz"] = np.linspace(1.0, 40.0, 7).tolist()


def one_at_a_time(backend, plan):
    """Entries of the plan measured a frequency at a time, in plan order."""
    entries = []
    for i, omega in enumerate(plan.omegas):
        entries += run_for_omega(backend, plan, omega, i).entries.items()
    return entries


@pytest.mark.parametrize("config", [P4_SEVEN, TRAJECTORY], ids=["closed-form-p4-7", "trajectory-p2-2"])
def test_entries_and_their_order_do_not_depend_on_the_blocking(config):
    campaign = build_campaign(config)
    backend, plan = campaign.backend, campaign.plan
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        entries = list(run_plan(backend, plan).entries.items())
        reference = one_at_a_time(backend, plan)
    assert len({key.omega for key, _ in reference}) == len(plan.omegas)
    assert entries == reference


def test_a_trajectory_block_draws_its_shots_in_one_call(monkeypatch):
    campaign = build_campaign(TRAJECTORY)
    draws = []

    def counted(draw_shots):
        def wrapper(p_plus, *args):
            draws.append(len(p_plus))
            return draw_shots(p_plus, *args)
        return wrapper

    # a draw may resolve the function through either module
    monkeypatch.setattr(spam, "draw_shots", counted(spam.draw_shots))
    monkeypatch.setattr(protocols, "draw_shots", counted(protocols.draw_shots))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dataset = run_plan(campaign.backend, campaign.plan)
    assert len(draws) == 1
    assert sum(draws) == len(dataset) == 16


DEVICE = DeviceParams(omega_q=mhz_to_rad_per_us(4970.0))
# dephasing of 4 /us on 1-10 MHz and none outside: A = 0 off the band, and
# |A / Omega| > 0.05 strains the drives inside it
BAND = Tabulated(
    grid=tuple(mhz_to_rad_per_us(f) for f in (0.5, 1.0, 10.0, 10.5)),
    values=(0.0, 4.0, 4.0, 0.0),
)
BAND_PLAN = ProtocolPlan(
    protocol_id=4,
    omegas=[mhz_to_rad_per_us(f) for f in (3.0, 7.0, 15.0, 5.0, 20.0)],
    times=[2.0, 4.0, 6.0],
    aligned_n=(20,),
    seed=4,
)


def test_first_error_and_the_warnings_before_it_follow_plan_order():
    backend = ClosedFormTclBackend(SphericalSpectraSet.dephasing_only(BAND), DEVICE)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DynamicsError) as first:
            for i, omega in enumerate(BAND_PLAN.omegas):
                run_for_omega(backend, BAND_PLAN, omega, i)
    expected = [str(w.message) for w in caught]
    # the 15 MHz drive, third in plan order, is the first off the band
    assert str(first.value) == "decay rate A must be > 0, got 0.0"
    assert len(set(expected)) == 2 and all("secular" in message for message in expected)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DynamicsError) as error:
            run_plan(backend, BAND_PLAN)
    assert str(error.value) == str(first.value)
    assert [str(w.message) for w in caught] == expected


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["omegas", "times", "long_time_threshold"])
def test_a_plan_refuses_a_non_finite_drive_time_or_threshold(field, value):
    grid = {"omegas": [mhz_to_rad_per_us(4.0)], "times": [2.0, 4.0, 6.0]}
    if field == "long_time_threshold":
        grid[field] = value
    else:
        grid[field] = [*grid[field][:1], value, *grid[field][1:]]
    with pytest.raises(PlanError, match=f"must be finite, got {value}"):
        ProtocolPlan(protocol_id=2, **grid)


@pytest.mark.parametrize("field, value", [
    ("n_shots", 10.5),
    ("seed", 1.5),
    ("aligned_n", (20.7,)),
    ("aligned_n", (20, math.nan)),
    ("n_shots", "1000"),
], ids=["n_shots", "seed", "aligned_n", "aligned_n-nan", "n_shots-text"])
def test_a_plan_refuses_a_non_integral_count_seed_or_aligned_index(field, value):
    name = "aligned_n entry" if field == "aligned_n" else field
    with pytest.raises(PlanError, match=f"^{name} must be an integer, got "):
        ProtocolPlan(protocol_id=4, omegas=[mhz_to_rad_per_us(4.0)], times=[2.0, 4.0, 6.0], **{field: value})


def test_a_plan_takes_integral_floats_as_integers():
    plan = ProtocolPlan(protocol_id=4, omegas=[mhz_to_rad_per_us(4.0)], times=[2.0, 4.0, 6.0],
                        n_shots=1000.0, seed=3.0, aligned_n=(20.0, np.int64(40)))
    assert (plan.n_shots, plan.seed, plan.aligned_n) == (1000, 3, (20, 40))
    assert all(type(n) is int for n in (plan.n_shots, plan.seed, *plan.aligned_n))
    backend = ClosedFormTclBackend(SphericalSpectraSet.dephasing_only(BAND), DEVICE, analytic=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert len(run_plan(backend, plan)) == 6 * 3 + 2 * 2


@pytest.mark.parametrize("analytic", [False, True], ids=["shot", "analytic"])
@pytest.mark.parametrize("config", [CLOSED_FORM_P4, TRAJECTORY], ids=["closed-form", "trajectory"])
def test_a_block_of_no_frequencies_gives_no_rows(config, analytic):
    check_states(np.empty((0, 2, 2)))
    backend = build_campaign(config, analytic=analytic).backend
    table = PointTable.of([("x", "x+", "x"), ("z+", "z-", "z")], np.empty((0, 2)), -1)
    values = backend.evaluate([], table, 100, np.empty((0, 2), dtype=np.uint64))
    assert isinstance(values, spam.ShotColumns)
    assert [column.shape for column in values] == [(0,)] * len(spam.ShotColumns._fields)
    dataset = spam.ShotDataset()
    dataset.extend([], [], [], [], [], values)
    assert len(dataset) == 0
