"""A block's points reach the evaluator as one table of columns.

``protocols._plan_points`` builds the (frequencies, points) code, time and
time-index arrays of a block once.  They must hold, bit for bit, the points
that building them one tuple at a time gives (``oracles.protocol_points``),
and a closed-form campaign must evaluate them without the tuple adapter,
running each frequency's checks once per drive axis and in plan order.
"""

from __future__ import annotations

import copy
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slqns import dynamics, protocols
from slqns.dynamics import DriveRates, DynamicsError
from slqns.estimation import (
    estimate_single_axis_standard,
    invert_multi_axis,
    robust_multi_axis,
    robust_single_axis_linearized,
    robust_single_axis_nonlinear,
)
from slqns.harness import build_campaign
from slqns.protocols import ClosedFormTclBackend, PointTable, ProtocolPlan, run_plan
from slqns.spam import DRIVE_AXES, INITS, OBSERVABLES, PAIRS
from slqns.spectra import DeviceParams, SphericalSpectraSet, Tabulated, mhz_to_rad_per_us
from oracles import protocol_points
from test_harness import CLOSED_FORM_P4_ANALYTIC


def table_row(table: PointTable) -> list[tuple]:
    """The layout that every row of a table shares, as (drive, init,
    observable) labels and time index."""
    return [
        (DRIVE_AXES[d], INITS[k], OBSERVABLES[o], j)
        for d, k, o, j in zip(*(column.tolist() for column in (table.drive, table.init, table.observable,
                                                               table.time_index)))
    ]


@st.composite
def plans(draw):
    protocol = draw(st.sampled_from([1, 2, 3, 4]))
    n_times = 1 if protocol in (1, 3) else draw(st.integers(3, 5))
    times = draw(st.lists(st.floats(2.0, 12.0), min_size=n_times, max_size=n_times, unique=True))
    mhz = draw(st.lists(st.floats(1.0, 40.0), min_size=1, max_size=5, unique=True))
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=len(mhz), max_size=len(mhz)))
    omegas = list(dict.fromkeys(s * mhz_to_rad_per_us(f) for s, f in zip(signs, mhz)))
    # duplicates and any order: the aligned times are the distinct n, increasing
    aligned_n = draw(st.lists(st.sampled_from([2, 3, 20, 60]), max_size=5))
    return ProtocolPlan(protocol_id=protocol, omegas=omegas, times=times, aligned_n=aligned_n)


@settings(max_examples=60, deadline=None)
@given(plans())
def test_the_block_table_holds_the_points_of_the_tuple_reference(plan):
    table = protocols._plan_points(plan, plan.omegas)
    assert table.time.shape[0] == len(plan.omegas)
    for i, omega in enumerate(plan.omegas):
        reference = protocol_points(plan, omega)
        assert table_row(table) == [(d, k, o, j) for d, k, o, _, j in reference]
        assert table.time[i].tobytes() == np.array([t for *_, t, _ in reference]).tobytes()
        aligned = table.time[i][table.time_index >= 1000]
        assert aligned[::2].tobytes() == aligned[1::2].tobytes()
        expected = plan.aligned_times(omega) if plan.protocol_id in (3, 4) else np.array([])
        assert aligned[::2].tobytes() == expected.tobytes()


def test_observable_codes_follow_the_order_of_the_pauli_matrices():
    # expectations() picks each point's value by observable code, in SIGMA's order x, y, z
    assert OBSERVABLES == tuple(dynamics.SIGMA)


def test_a_closed_form_campaign_skips_the_tuple_adapter_and_checks_each_drive_once(monkeypatch):
    config = copy.deepcopy(CLOSED_FORM_P4_ANALYTIC)
    config["plan"]["omegas_MHz"] = np.linspace(1.0, 40.0, 256).tolist()
    campaign = build_campaign(config)

    def adapter(*args, **kwargs):
        raise AssertionError("run_plan called the tuple adapter")

    checked = []
    check = DriveRates.check

    def counted(self, k):
        checked.append((self.axis, k))
        return check(self, k)

    monkeypatch.setattr(ClosedFormTclBackend, "measure", adapter)
    monkeypatch.setattr(DriveRates, "check", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dataset = run_plan(campaign.backend, campaign.plan)
    assert len(dataset) == 256 * 42
    assert len(checked) == 768
    # frequency by frequency, each drive axis in the order of its first point
    axes = dynamics.DriveAxis.Z_PLUS, dynamics.DriveAxis.Z_MINUS, dynamics.DriveAxis.X_PLUS
    assert checked == [(axis, k) for k in range(256) for axis in axes]


DEVICE = DeviceParams(omega_q=mhz_to_rad_per_us(4970.0))
# dephasing of 4 /us on 1-10 MHz and none outside: the drives inside the band
# strain the secular description, and A = 0 off it
BAND = Tabulated(
    grid=tuple(mhz_to_rad_per_us(f) for f in (0.5, 1.0, 10.0, 10.5)),
    values=(0.0, 4.0, 4.0, 0.0),
)
STRAIN_3MHZ = "|rate/Omega| = 0.212 exceeds 0.05; the secular description of the driven dynamics is strained"
STRAIN_7MHZ = "|rate/Omega| = 0.0909 exceeds 0.05; the secular description of the driven dynamics is strained"


def test_warnings_and_the_first_error_of_a_campaign_keep_their_order():
    # the 3 and -7 MHz drives warn once per drive axis, the 15 MHz drive raises
    # at its x drive, and the 5 MHz drive after it is never reached
    plan = ProtocolPlan(
        protocol_id=4,
        omegas=[mhz_to_rad_per_us(f) for f in (3.0, -7.0, 15.0, 5.0)],
        times=[2.0, 4.0, 6.0],
        aligned_n=(20, 20, 40),
        seed=4,
    )
    backend = ClosedFormTclBackend(SphericalSpectraSet.dephasing_only(BAND), DEVICE)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DynamicsError) as error:
            run_plan(backend, plan)
    assert str(error.value) == "decay rate A must be > 0, got 0.0"
    assert [(w.category, str(w.message)) for w in caught] == [(UserWarning, STRAIN_3MHZ)] * 3 + [
        (UserWarning, STRAIN_7MHZ)
    ] * 3


@pytest.mark.parametrize("protocol", [1, 2, 3, 4])
def test_a_plan_measures_the_pairs_that_the_estimators_read(protocol):
    # protocols 1 and 2 measure the x pair, 3 and 4 every pair, the coherence
    # pair at the frame-aligned times
    config = copy.deepcopy(CLOSED_FORM_P4_ANALYTIC)
    config["protocol"] = protocol
    if protocol in (1, 3):
        config["plan"]["times_us"] = [12.0]
    if protocol in (1, 2):
        del config["plan"]["aligned_n"]
    campaign = build_campaign(config)
    plan, omega_q = campaign.plan, campaign.device.omega_q
    omegas, t_max = list(plan.omegas), max(plan.times)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the secular strain of the 1 MHz drive
        dataset = run_plan(campaign.backend, plan)
        if protocol in (1, 2):
            tables = [estimate_single_axis_standard(dataset, omegas, t_max)]
            if protocol == 2:
                tables.append(robust_single_axis_nonlinear(robust_single_axis_linearized(dataset, omegas)))
        else:
            aligned = plan.aligned_times(omegas)[:, 0 if protocol == 3 else -1]
            tables = [invert_multi_axis(dataset, omegas, omega_q, t_max, aligned)]
            if protocol == 4:
                tables.append(robust_multi_axis(dataset, omegas, omega_q))
    measured = set(zip(*(dataset.column(name).tolist() for name in ("drive", "init", "observable"))))
    names = ["x"] if protocol in (1, 2) else list(PAIRS)
    pairs = {(DRIVE_AXES.index(drive), INITS.index(init), OBSERVABLES.index(observable))
             for drive, inits, observable in map(PAIRS.get, names) for init in inits}
    assert measured == pairs
    lacking = [str(error) for table in tables for error in table.errors if "dataset lacks" in str(error)]
    assert lacking == []
