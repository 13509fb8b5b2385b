"""The columnar ``ShotDataset``: its one vectorised row check, its series
index and its writers, which share sorted text columns instead of formatting
records."""

from __future__ import annotations

import hashlib
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slqns.harness import build_campaign
from slqns.protocols import run_plan
from slqns.spam import DRIVE_AXES, INITS, OBSERVABLES, MeasurementKey, ShotColumns, ShotDataset, ShotRecord

from oracles import csv_reference, manifest_reference
from test_fixed_seed_outputs import CAMPAIGNS, DIGESTS

GOOD_CSV = (
    "axis,omega_rad_per_us,init,obs,T_us,n_shots,n_plus,expectation,variance,analytic\r\n"
    "x,2.5,x+,x,4.0,1000,700,0.4,0.00021,0\r\n"
    "z+,2.5,z-,z,6.0,0,0,0.25,0.0,1\r\n"
)


@pytest.fixture(scope="module")
def twin_datasets():
    """The measured datasets of the shot and analytic protocol 4 twins."""
    datasets = {}
    for name in ("p4-wide-twin", "p4-wide-analytic-twin"):
        campaign = build_campaign(CAMPAIGNS[name])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            datasets[name] = run_plan(campaign.backend, campaign.plan)
    return datasets


def small_dataset() -> ShotDataset:
    ds = ShotDataset()
    ds.add(MeasurementKey("z+", 2.5, "z-", "z", 6.0), ShotRecord.exact(-1.0 / 3.0))
    ds.add(MeasurementKey("x", 2.5, "x+", "x", 4.0), ShotRecord.from_counts(1000, 700))
    ds.add(MeasurementKey("x", -1.5, "x-", "x", 2.0), ShotRecord.from_counts(7, 7))
    ds.add(MeasurementKey("x", 2.5, "x+", "x", 2.0), ShotRecord(0, 0, 0.5, 1e-300, True))
    # the writers format each distinct value once: -0.0 is not 0.0
    ds.add(MeasurementKey("z-", 2.5, "z+", "z", 6.0), ShotRecord.exact(-0.0))
    ds.add(MeasurementKey("z-", 2.5, "z-", "z", 6.0), ShotRecord.exact(0.0))
    return ds


@pytest.mark.parametrize("record, message", [
    (dict(n_shots=0, n_plus=0, expectation=-1.0, variance=0.0), "invalid shot counts"),
    (dict(n_shots=10, n_plus=11, expectation=1.2, variance=0.0), "invalid shot counts"),
    (dict(n_shots=100, n_plus=60, expectation=0.5, variance=0.0), "expectation inconsistent with shot counts"),
])
def test_the_row_check_rejects_bad_rows_through_add_and_extend(record, message):
    ds = small_dataset()
    with pytest.raises(ValueError, match=message):
        ds.add(MeasurementKey("x", 2.5, "x-", "x", 4.0), ShotRecord(**record))
    good = ShotColumns.from_counts(1000, [500, 400])
    columns = [np.append(column, value) for column, value in zip(good, record.values())] + [[False] * 3]
    with pytest.raises(ValueError, match=message):
        ds.extend([0, 0, 0], [9.0] * 3, [0, 1, 0], [0, 0, 0], [1.0, 1.0, 2.0], ShotColumns.of(*columns))
    # a rejected block adds nothing
    assert ds.csv_text() == small_dataset().csv_text()


@pytest.mark.parametrize("row, message", [
    ("x,2.5,x-,x,4.0,1000,1001,1.002,0.0,0", "invalid shot counts"),
    ("x,2.5,x-,x,4.0,-3,0,1.0,0.0,0", "invalid shot counts"),
    ("x,2.5,x-,x,4.0,1000,300,-0.39,0.00021,0", "expectation inconsistent with shot counts"),
])
def test_the_row_check_rejects_bad_rows_read_from_csv(row, message):
    assert len(ShotDataset.from_csv(io.StringIO(GOOD_CSV))) == 2
    with pytest.raises(ValueError, match=message):
        ShotDataset.from_csv(io.StringIO(GOOD_CSV + row + "\r\n"))


def test_unknown_labels_are_rejected():
    with pytest.raises(ValueError, match="unknown drive label 'y'"):
        ShotDataset().add(MeasurementKey("y", 2.5, "x+", "x", 4.0), ShotRecord.exact(0.0))
    with pytest.raises(ValueError, match="unknown observable label 'w'"):
        ShotDataset.from_csv(io.StringIO(GOOD_CSV.replace("x,4.0,1000", "w,4.0,1000")))


def test_a_duplicate_key_rejects_the_whole_block():
    ds = small_dataset()
    values = ShotColumns.exact([0.1, 0.2])
    with pytest.raises(ValueError, match=r"duplicate measurement key MeasurementKey\(drive_axis='x', omega=2.5"):
        ds.extend([0, 0], [2.5, 2.5], [0, 0], [0, 0], [9.0, 4.0], values)
    with pytest.raises(ValueError, match="omega=3.5, init='x\\+', observable='x', time=1.0"):
        ds.extend([0, 0], [3.5, 3.5], [0, 0], [0, 0], [1.0, 1.0], values)
    assert len(ds) == 6 and ds.times("x", 2.5, "x+", "x") == [2.0, 4.0]


def test_series_rows_are_ordered_by_time_across_blocks():
    ds = ShotDataset()
    ds.extend([0, 0, 1], [2.5, 2.5, 2.5], [0, 0, 2], [0, 0, 2], [9.0, 1.0, 3.0], ShotColumns.exact([0.9, 0.1, 0.3]))
    ds.extend([0, 0], [2.5, 2.5], [0, 1], [0, 0], [4.0, 4.0], ShotColumns.exact([0.4, -0.4]))
    rows = ds.series("x", 2.5, "x+", "x")
    assert ds.column("time")[rows].tolist() == [1.0, 4.0, 9.0]
    assert ds.take(rows).expectation.tolist() == [0.1, 0.4, 0.9]
    assert ds.get("x", 2.5, "x-", "x", 4.0) == ShotRecord.exact(-0.4)
    assert ds.row("z+", 2.5, "z+", "z", 3.0) == 2
    with pytest.raises(KeyError):
        ds.row("x", 2.5, "x+", "x", 2.0)
    assert ds.series("x", 3.5, "x+", "x").size == 0
    assert list(ds.entries) == [
        MeasurementKey("x", 2.5, "x+", "x", 9.0), MeasurementKey("x", 2.5, "x+", "x", 1.0),
        MeasurementKey("z+", 2.5, "z+", "z", 3.0), MeasurementKey("x", 2.5, "x+", "x", 4.0),
        MeasurementKey("x", 2.5, "x-", "x", 4.0),
    ]


@st.composite
def split_blocks(draw):
    """(key columns, values, cut points) of distinct rows cut into blocks anywhere."""
    keys = draw(st.lists(
        st.tuples(st.integers(0, len(DRIVE_AXES) - 1), st.sampled_from([-1.5, 2.5, 3.0]),
                  st.integers(0, len(INITS) - 1), st.integers(0, len(OBSERVABLES) - 1),
                  st.sampled_from([1.0, 2.0, 4.0, 6.5, 9.0])),
        max_size=30, unique=True))
    cuts = sorted(draw(st.lists(st.integers(0, len(keys)), max_size=5)))
    values = ShotColumns.exact(draw(st.lists(st.floats(-1.0, 1.0), min_size=len(keys), max_size=len(keys))))
    return keys, values, cuts


@settings(max_examples=100, deadline=None)
@given(split_blocks())
def test_extending_block_by_block_equals_one_extend(blocks):
    keys, values, cuts = blocks
    columns = [list(column) for column in zip(*keys)] if keys else [[]] * 5
    whole = ShotDataset()
    whole.extend(*columns, values)
    split = ShotDataset()
    for lo, hi in zip([0, *cuts], [*cuts, len(keys)]):
        split.extend(*(column[lo:hi] for column in columns), ShotColumns(*(v[lo:hi] for v in values)))
    assert split.entries == whole.entries
    for series in {key[:4] for key in whole.entries}:
        assert split.series(*series).tolist() == whole.series(*series).tolist()


def test_to_csv_equals_the_record_by_record_writer(twin_datasets):
    for ds in (ShotDataset(), small_dataset(), *twin_datasets.values()):
        assert ds.csv_text() == csv_reference(ds)
    assert ",-0.0,0.0,1\r\n" in small_dataset().csv_text()


def _grow(ds: ShotDataset, how: str) -> None:
    if how == "add":
        ds.add(MeasurementKey("x", 0.5, "x+", "y", 1.0), ShotRecord.from_counts(10, 4))
    elif how == "merge":
        other = ShotDataset()
        other.extend([2, 0], [-0.0, 7.0], [3, 1], [2, 0], [0.5, 2.0], ShotColumns.from_counts(20, [0, 20]))
        ds.extend(*(other.column(name) for name in ("drive", "omega", "init", "observable", "time")),
                  other.take(slice(None)))
    else:  # a block that the store rejects leaves it, and its texts, as they were
        with pytest.raises(ValueError, match="duplicate measurement key"):
            ds.extend([0], [2.5], [0], [0], [4.0], ShotColumns.exact([0.1]))


@pytest.mark.parametrize("how", ["add", "merge", "rejected"])
def test_the_writers_follow_the_store_after_a_write(how):
    ds = small_dataset()
    assert ds.csv_text() == csv_reference(ds) and ds.to_manifest(seed=1) == manifest_reference(ds, seed=1)
    _grow(ds, how)
    assert len(ds) == (6 if how == "rejected" else 7 if how == "add" else 8)
    assert ds.to_manifest(seed=2) == manifest_reference(ds, seed=2)
    assert ds.csv_text() == csv_reference(ds)


def test_from_csv_reproduces_the_pinned_datasets_csv(twin_datasets):
    text = twin_datasets["p4-wide-twin"].csv_text()
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS["p4-wide-twin"]["datasets.csv"]
    back = ShotDataset.from_csv(io.StringIO(text))
    assert back.csv_text() == text
    assert back.entries == twin_datasets["p4-wide-twin"].entries


@pytest.mark.parametrize("columns, message", [
    (([0, 0], [6.0], [2, 2], [2, 2], [1.0, 2.0]), "dataset columns must be 1-D and of equal length"),
    (([[0]], [[6.0]], [[2]], [[2]], [[1.0]]), "dataset columns must be 1-D and of equal length"),
    (([3], [6.0], [2], [2], [1.0]), "drive codes must lie in [0, 3)"),
    (([0], [6.0], [-1], [2], [1.0]), "init codes must lie in [0, 4)"),
    (([0], [6.0], [2], [3], [1.0]), "observable codes must lie in [0, 3)"),
], ids=["unequal-lengths", "two-dimensional", "drive-code", "init-code", "observable-code"])
def test_extend_refuses_a_block_of_bad_columns(columns, message):
    dataset = ShotDataset()
    with pytest.raises(ValueError) as exc:
        dataset.extend(*columns, ShotColumns.from_counts(1000, np.full(np.shape(columns[-1]), 500)))
    assert str(exc.value) == message
    assert len(dataset) == 0
