"""The sorted series index of ``ShotDataset`` and the array path of a
closed-form campaign.

The index is three sorted arrays, and ``series_rows`` looks a whole grid of
series up in them at once.  It must find what a dict from each
``(drive_axis, omega, init, observable)`` head to its rows finds
(``oracles.series_index_reference``).  A wide closed-form campaign must run
with no general 2x2 eigensolver, no per-element numpy function object and no
``MeasurementKey``.
"""

from __future__ import annotations

import copy
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

import slqns
from slqns import estimation, spam
from slqns.harness import run_campaign
from slqns.spam import DRIVE_AXES, INITS, OBSERVABLES, MeasurementKey, ShotColumns, ShotDataset

from oracles import series_index_reference
from test_harness import CLOSED_FORM_P4_ANALYTIC
from test_shot_dataset import split_blocks

# the omegas that split_blocks draws, and one off its grid
OMEGAS = [-1.5, 2.5, 3.0, 7.0]
HEADS = [(d, k, o) for d in (*DRIVE_AXES, "y") for k in (*INITS, "y+") for o in OBSERVABLES]


def _dataset(blocks) -> ShotDataset:
    keys, values, cuts = blocks
    columns = [list(column) for column in zip(*keys)] if keys else [[]] * 5
    ds = ShotDataset()
    for lo, hi in zip([0, *cuts], [*cuts, len(keys)]):
        ds.extend(*(column[lo:hi] for column in columns), ShotColumns(*(v[lo:hi] for v in values)))
    return ds


@settings(max_examples=100, deadline=None)
@given(split_blocks())
def test_the_index_finds_what_a_dict_of_heads_finds(blocks):
    ds = _dataset(blocks)
    reference = series_index_reference(ds)
    table = ds.series_rows(HEADS, OMEGAS)
    assert table.shape[:2] == (len(HEADS), len(OMEGAS))
    assert table.shape[2] == max(map(len, reference.values()), default=0)
    for h, (drive_axis, init, observable) in enumerate(HEADS):
        for i, omega in enumerate(OMEGAS):
            rows = reference.get((drive_axis, omega, init, observable), [])
            assert ds.series(drive_axis, omega, init, observable).tolist() == rows
            assert table[h, i].tolist() == rows + [-1] * (table.shape[2] - len(rows))
    time = ds.column("time").tolist()
    for (drive_axis, omega, init, observable), rows in reference.items():
        for row in rows:
            assert ds.row(drive_axis, omega, init, observable, time[row]) == row


def test_an_unknown_label_or_an_omega_off_the_grid_has_no_rows():
    ds = ShotDataset()
    ds.extend([0, 0, 1], [2.5, 2.5, -1.5], [0, 1, 2], [0, 0, 2], [1.0, 1.0, 3.0], ShotColumns.exact([0.1, 0.2, 0.3]))
    for head in [("y", 2.5, "x+", "x"), ("x", 2.5, "y+", "x"), ("x", 2.5, "x+", "w"), ("x", 2.6, "x+", "x")]:
        assert ds.series(*head).size == 0
        with pytest.raises(KeyError) as error:
            ds.row(*head, 1.0)
        assert error.value.args == (MeasurementKey(*head, 1.0),)
    with pytest.raises(KeyError) as error:
        ds.row("x", 2.5, "x+", "x", 2.0)
    assert error.value.args == (MeasurementKey("x", 2.5, "x+", "x", 2.0),)
    assert ds.series_rows([("x", "x+", "x"), ("z+", "z+", "z")], [2.5, -1.5, 9.0]).tolist() == [
        [[0], [-1], [-1]], [[-1], [2], [-1]]]
    assert ShotDataset().series_rows([("x", "x+", "x")], [2.5]).shape == (1, 1, 0)
    assert ShotDataset().series("x", 2.5, "x+", "x").dtype == np.intp


def test_a_duplicate_key_names_the_key_in_full():
    ds = ShotDataset()
    ds.extend([0], [2.5], [0], [0], [4.0], ShotColumns.exact([0.1]))
    with pytest.raises(ValueError) as error:
        ds.extend([1, 0], [3.0, 2.5], [0, 0], [0, 0], [1.0, 4.0], ShotColumns.exact([0.2, 0.3]))
    assert str(error.value) == (
        "duplicate measurement key MeasurementKey(drive_axis='x', omega=2.5, init='x+', observable='x', time=4.0)")
    assert len(ds) == 1


def _refused(*args, **kwargs):
    raise AssertionError("the closed-form campaign left the array path")


_refused._make = _refused


@pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "shots"])
def test_a_wide_closed_form_campaign_stays_on_the_array_path(monkeypatch, tmp_path, analytic):
    # a per-element function object built at import would dodge the patches below
    for module in (getattr(slqns, name) for name in ("dynamics", "estimation", "harness", "protocols", "spam")):
        for value in vars(module).values():
            assert not isinstance(value, np.vectorize)
            assert not (isinstance(value, np.ufunc) and "O->O" in value.types)
    config = copy.deepcopy(CLOSED_FORM_P4_ANALYTIC)
    config["plan"]["omegas_MHz"] = np.linspace(1.0, 40.0, 256).tolist()
    config["backend"]["analytic"] = analytic
    for owner, name in [(np.linalg, "eigvalsh"), (np, "vectorize"), (np, "frompyfunc"),
                        (spam, "MeasurementKey"), (estimation, "MeasurementKey")]:
        monkeypatch.setattr(owner, name, _refused)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_campaign(config, out_dir=tmp_path)
    assert result.report["estimates"] and not result.failures
