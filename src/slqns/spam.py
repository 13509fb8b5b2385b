"""Static state-preparation and measurement (SPAM) error injection.

Preparation of an intended eigenstate ``|u_s>`` produces the mixed state

    rho = [(1 + a_sp)|u_s><u_s| + (1 - a_sp)|u_-s><u_-s|
           + c |u_s><u_-s| + c* |u_-s><u_s|] / 2,

so the preparation fidelity is ``(1 + a_sp)/2`` and the Bloch component
along the intended axis is ``s * a_sp``.  A faulty measurement along u is
the two-outcome POVM (after an ideal basis change to z)

    Pi_plus = (a_m / 2) sigma_u + ((1 + delta) / 2) I,   Pi_minus = I - Pi_plus,

whose outcome probability is ``P(+) = [(1 + delta) + a_m <sigma_u>] / 2``.
Completeness is exact by construction; positivity of both elements requires
``a_m + delta <= 1``.

Shot data are columns.  :func:`draw_shots` turns an array of P(+) into counts
by an inverse CDF in numpy (inversion by search, as in Devroye, *Non-Uniform
Random Variate Generation*, 1986, ch. III.2 and X.4): each draw cumulates the
pmf over a window that a Chernoff tail bound sizes from its own uniform.  It
imports no scipy, whose ``scipy.special`` was most of a campaign's start-up.
:class:`ShotColumns` holds the :class:`ShotRecord` fields of a block of points
as arrays, and a :class:`ShotRecord` is the view of one point.
:class:`ShotDataset` stores a campaign's points as one set of columns with a
series index, and writes them without building a record; each block it takes
is concatenated onto the columns, and the index is rebuilt.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dynamics import SIGMA, IDENTITY2, QubitState, _mapped, _square
from .seeding import spawn_rng

__all__ = [
    "SpamParams",
    "ShotRecord",
    "ShotColumns",
    "MeasurementKey",
    "ShotDataset",
    "DRIVE_AXES",
    "INITS",
    "OBSERVABLES",
    "PAIRS",
    "faulty_state",
    "outcome_probability",
    "sample_shots",
    "draw_shots",
    "expectation_std_error",
]


@dataclass(frozen=True)
class SpamParams:
    """Static SPAM error parameters; defaults are error-free."""

    alpha_sp: float = 1.0
    c_u: complex = 0.0j
    alpha_m: float = 1.0
    delta: float = 0.0

    def __post_init__(self):
        c = complex(self.c_u)
        if not all(np.isfinite([self.alpha_sp, c.real, c.imag, self.alpha_m, self.delta])):
            raise ValueError("SPAM parameters must be finite")
        if abs(self.alpha_sp) > 1.0 or abs(c.real) > 1.0 or abs(c.imag) > 1.0:
            raise ValueError("require |alpha_sp| <= 1 and |Re c|, |Im c| <= 1")
        if self.alpha_sp**2 + abs(c) ** 2 > 1.0 + 1e-12:
            raise ValueError(
                "alpha_sp^2 + |c|^2 > 1 would make the prepared state non-positive"
            )
        if not (0.0 <= self.alpha_m <= 1.0 and 0.0 <= self.delta <= 1.0):
            raise ValueError("require alpha_m, delta in [0, 1]")
        if self.alpha_m + self.delta > 1.0 + 1e-12:
            raise ValueError("alpha_m + delta must be <= 1 for a positive POVM")
        object.__setattr__(self, "c_u", c)

    @property
    def alpha(self) -> float:
        """Combined SPAM parameter alpha_sp * alpha_m."""
        return self.alpha_sp * self.alpha_m

    @classmethod
    def ideal(cls) -> "SpamParams":
        return cls()

    @property
    def is_ideal(self) -> bool:
        return self.alpha_sp == 1.0 and self.c_u == 0.0 and self.alpha_m == 1.0 and self.delta == 0.0


# coherence directions appearing alongside the intended axis in the faulty
# state: the c term contributes Re(c), -Im(c) along these axes
_COHERENCE_AXES = {"x": ("z", "y"), "z": ("x", "y")}


def faulty_state(axis: str, sign: int, params: SpamParams) -> QubitState:
    """Mixed state actually prepared when |axis, sign> is intended."""
    if axis not in ("x", "z"):
        raise ValueError(f"preparation axis must be 'x' or 'z', got {axis!r}")
    if sign not in (+1, -1):
        raise ValueError(f"preparation sign must be +1 or -1, got {sign!r}")
    c = complex(params.c_u)
    re_axis, im_axis = _COHERENCE_AXES[axis]
    bloch = {axis: sign * params.alpha_sp, re_axis: c.real, im_axis: -sign * c.imag}
    m = 0.5 * (
        IDENTITY2
        + bloch.get("x", 0.0) * SIGMA["x"]
        + bloch.get("y", 0.0) * SIGMA["y"]
        + bloch.get("z", 0.0) * SIGMA["z"]
    )
    return QubitState(m)


def outcome_probability(expectation, params: SpamParams):
    """P(+) of the faulty measurement given the ideal <sigma_u> (scalar or array)."""
    return 0.5 * ((1.0 + params.delta) + params.alpha_m * expectation)


# The labels of the key columns, each tuple sorted, so that a label's code (its
# index) sorts as the label does.  Plans key their shot streams by the same
# codes: append a label, never reorder.
DRIVE_AXES = ("x", "z+", "z-")
INITS = ("x+", "x-", "z+", "z-")
OBSERVABLES = ("x", "y", "z")
# each preparation pair that the protocols measure, in plan order: name ->
# (drive, (+ preparation, - preparation), observable)
PAIRS = {"zp": ("z+", ("z+", "z-"), "z"), "zm": ("z-", ("z+", "z-"), "z"),
         "x": ("x", ("x+", "x-"), "x"), "c": ("z+", ("x+", "x-"), "x")}


class MeasurementKey(NamedTuple):
    """Addresses one (drive, frequency, preparation, observable, time) point."""

    drive_axis: str   # 'x', 'z+', 'z-'
    omega: float      # signed sampled frequency, rad/us
    init: str         # 'x+', 'x-', 'z+', 'z-'
    observable: str   # 'x', 'y', 'z'
    time: float       # us


def _moments(n_shots, n_plus):
    """(expectation, outcome-probability variance) of shot counts, scalar or array."""
    p_plus = n_plus / n_shots
    return (2.0 * n_plus - n_shots) / n_shots, p_plus * (1.0 - p_plus) / n_shots


def _check_values(values) -> None:
    """Range and consistency check of one ShotRecord or of every row of a
    ShotColumns; analytic rows are exempt, and the first bad row names the error."""
    n_shots, n_plus, expectation = (np.atleast_1d(v) for v in (values.n_shots, values.n_plus, values.expectation))
    counted = ~np.atleast_1d(values.analytic).astype(bool)
    bad_counts = counted & ((n_shots < 1) | (n_plus < 0) | (n_plus > n_shots))
    with np.errstate(divide="ignore", invalid="ignore"):
        bad_value = counted & (np.abs((2.0 * n_plus - n_shots) / n_shots - expectation) > 1e-12)
    bad = np.flatnonzero(bad_counts | bad_value)
    if bad.size:
        raise ValueError("invalid shot counts" if bad_counts[bad[0]] else "expectation inconsistent with shot counts")


@dataclass(frozen=True)
class ShotRecord:
    """Estimated expectation at one measurement point: one row of a dataset."""

    n_shots: int
    n_plus: int
    expectation: float
    variance: float
    analytic: bool = False

    def __post_init__(self):
        _check_values(self)

    @classmethod
    def from_counts(cls, n_shots: int, n_plus: int) -> "ShotRecord":
        expectation, variance = _moments(n_shots, n_plus)
        return cls(n_shots=n_shots, n_plus=n_plus, expectation=expectation, variance=variance)

    @classmethod
    def exact(cls, expectation: float) -> "ShotRecord":
        return cls(n_shots=0, n_plus=0, expectation=float(expectation), variance=0.0, analytic=True)


# dtype of each ShotRecord field as a column
_VALUE_DTYPES = {"n_shots": np.int64, "n_plus": np.int64, "expectation": float, "variance": float, "analytic": bool}


class ShotColumns(NamedTuple):
    """The ShotRecord fields of a block of points as arrays, one entry per point."""

    n_shots: np.ndarray
    n_plus: np.ndarray
    expectation: np.ndarray
    variance: np.ndarray
    analytic: np.ndarray

    @classmethod
    def of(cls, *columns) -> "ShotColumns":
        """The five columns, each as an array of its field's dtype."""
        return cls(*(np.asarray(c, dtype=d) for c, d in zip(columns, _VALUE_DTYPES.values())))

    @classmethod
    def from_counts(cls, n_shots: int, n_plus) -> "ShotColumns":
        n_plus = np.asarray(n_plus, dtype=np.int64)
        return cls.of(np.full(n_plus.size, n_shots), n_plus, *_moments(n_shots, n_plus), np.zeros(n_plus.size))

    @classmethod
    def exact(cls, expectation) -> "ShotColumns":
        expectation = np.asarray(expectation, dtype=float)
        zeros = np.zeros(expectation.size)
        return cls.of(zeros, zeros, expectation, zeros, np.ones(expectation.size))

    @classmethod
    def from_records(cls, records) -> "ShotColumns":
        rows = [(r.n_shots, r.n_plus, r.expectation, r.variance, r.analytic) for r in records]
        return cls.of(*(zip(*rows) if rows else [()] * len(cls._fields)))

    def records(self) -> list[ShotRecord]:
        return [ShotRecord(*row) for row in zip(*(column.tolist() for column in self))]


# A draw's window leaves out at most 2**-60 of min(u, 1 - u) of the mass, far
# below the rounding of the pmf; two Newton steps reach the Chernoff edge.
_TAIL_LOG2 = 60.0
_NEWTON_STEPS = 2
# pmf entries per chunk of rows: 32 KiB temporaries stay in the malloc heap
# and are reused chunk after chunk.
_CHUNK_ENTRIES = 4096


@functools.lru_cache(maxsize=8)
def _log_binomials(n_shots: int) -> np.ndarray:
    """log C(n, k) for k = 0..n from ``math.lgamma``, with n + 1 entries of -inf
    on each side, so that any window of at most n + 1 entries that starts in
    [0, n] reads zero mass outside the support.  Read-only and cached per n
    (a campaign has one)."""
    head = math.lgamma(n_shots + 1)
    inner = [head - math.lgamma(k + 1) - math.lgamma(n_shots - k + 1) for k in range(n_shots + 1)]
    pad = np.full(n_shots + 1, -np.inf)
    table = np.concatenate((pad, inner, pad))
    table.setflags(write=False)
    return table


def _tail_edge(n_shots: int, p, log_p, log_q, log_tail) -> np.ndarray:
    """Per row, an index m with P(K < m) <= exp(-log_tail) for K ~ Bin(n, p).

    Chernoff: P(K <= n a) <= exp(-n KL(a || p)) for a <= p.  The start point
    already meets the bound: Bernstein's, or the sub-Gaussian one where
    p <= 1/2 and the lower tail moves away from 1/2.  Newton steps on the
    convex KL from that side stay on it and close in on the edge.  ``log_p``
    and ``log_q`` are log p and log(1 - p), passed in so that a mirrored p
    keeps exact logs; m is 0 where the bound needs no cut.
    """
    variance = n_shots * p * (1.0 - p)
    t = log_tail / 3.0 + np.sqrt(log_tail * log_tail / 9.0 + 2.0 * log_tail * variance)
    t = np.where(p <= 0.5, np.minimum(t, np.sqrt(2.0 * log_tail * variance)), t)
    a = p - t / n_shots
    edge = np.zeros(a.size, dtype=np.int64)
    cut = np.flatnonzero(a > 0.0)
    a, log_p, log_q, log_tail = a[cut], log_p[cut], log_q[cut], log_tail[cut]
    for _ in range(_NEWTON_STEPS):
        log_a, log_b = np.log(a), np.log1p(-a)
        excess = n_shots * (a * (log_a - log_p) + (1.0 - a) * (log_b - log_q)) - log_tail
        a = a - excess / (n_shots * (log_a - log_p - log_b + log_q))
    edge[cut] = np.floor(n_shots * a)
    return edge


def draw_shots(p_plus, n_shots: int, uniforms) -> np.ndarray:
    """Binomial shot sampling by inverse CDF: the number of + outcomes for each
    (P(+), uniform) pair, as an int64 array of their broadcast shape.

    The count is the binomial quantile, the smallest k with F(k) >= u, which
    is the number of k with F(k) < u.  u = 0 and p = 0 give 0; p = 1 and
    u = 1 give n.  Otherwise the count is read from a window of the pmf,
    ``exp(log C(n, k) + k log p + (n - k) log(1 - p))`` with log C from a
    cached ``math.lgamma`` table:

    - u <= 1/2: the count lies below the median, so the window runs from an
      edge lo up to ceil(np) + 1, the pmf is cumulated from lo, and the count
      is lo plus the number of partial sums below u.
    - u > 1/2: the same from the top with the upper tail, P(K > k) > 1 - u
      (1 - u is exact there), over a window from hi down to floor(np) - 1.

    Each row's edge comes from its own u by the Chernoff bound
    ``exp(-n KL(k/n || p))``: the mass beyond it is at most 2**-60 of
    min(u, 1 - u), far below 2**-53 and below the pmf's own rounding.  A
    fixed multiple of sigma would not guarantee that at small p, where the
    upper tail is heavier than a Gaussian's.  An extreme u gets a wide
    window, up to the whole support on its side, and the pmf is divided by
    u (or 1 - u) before it is cumulated, so that the terms which decide the
    count stay normal doubles down to u = 5e-324.  Rows are sorted by window
    width and evaluated in chunks of about 4096 pmf entries.

    Exactness: the count is the exact quantile unless u lies within the
    pmf's rounding (about 1e-12 relative at n = 1000, from the lgamma table)
    of a CDF value, a chance of order 1e-11 per draw.  ``tests/test_spam.py``
    holds it to ``scipy.stats.binom.ppf`` on 10**6 random pairs and to
    mpmath's exact CDF at the edges of p and u, where Boost's quantile is
    off.  No floating-point warning is emitted.
    """
    p_plus, uniforms = _in_unit_interval(p_plus, "P(+)"), _in_unit_interval(uniforms, "uniforms")
    if n_shots < 1:
        raise ValueError(f"n_shots must be >= 1, got {n_shots}")
    p, u = (a.ravel() for a in np.broadcast_arrays(p_plus, uniforms))
    counts = np.where(((p == 1.0) | (u == 1.0)) & (p > 0.0) & (u > 0.0), n_shots, 0)
    rows = np.flatnonzero((p > 0.0) & (p < 1.0) & (u > 0.0) & (u < 1.0))
    if rows.size:
        counts[rows] = _inverse_cdf(n_shots, p[rows], u[rows])
    return counts.reshape(np.broadcast_shapes(p_plus.shape, uniforms.shape))


def _in_unit_interval(values, name: str) -> np.ndarray:
    """``values`` as a float array; ValueError naming the first one outside [0, 1], NaN included."""
    values = np.asarray(values, dtype=float)
    outside = values[~((values >= 0.0) & (values <= 1.0))]
    if outside.size:
        raise ValueError(f"{name} must lie in [0, 1], got {outside[0]}")
    return values


def _inverse_cdf(n: int, p, u) -> np.ndarray:
    """The counts of ``draw_shots`` for 0 < p < 1 and 0 < u < 1."""
    lower = u <= 0.5
    target = np.where(lower, u, 1.0 - u)
    log_target = np.log(target)
    log_p, log_q = np.log(p), np.log1p(-p)
    edge = _tail_edge(
        n, np.where(lower, p, 1.0 - p), np.where(lower, log_p, log_q), np.where(lower, log_q, log_p),
        _TAIL_LOG2 * math.log(2.0) - log_target,
    )
    mean = n * p
    start = np.where(lower, edge, n - edge)
    stop = np.where(lower, np.minimum(np.ceil(mean) + 1.0, n), np.maximum(np.floor(mean) - 1.0, 0.0))
    width = np.abs(stop.astype(np.int64) - start) + 1
    step = np.where(lower, 1, -1)
    # log pmf(start + step j) - log target = table[first + j] + base + slope j,
    # the table being symmetric, log C(n, k) = log C(n, n - k)
    first = np.where(lower, start, n - start) + (n + 1)
    base = start * log_p + (n - start) * log_q - log_target
    slope = step * (log_p - log_q)
    # lower rows count partial sums < 1, upper rows those <= 1
    limit = np.where(lower, 1.0, np.nextafter(1.0, 2.0))
    order = np.argsort(width, kind="stable")
    width, first, base, slope, limit = width[order], first[order], base[order], slope[order], limit[order]
    windows = sliding_window_view(_log_binomials(n), int(width[-1]))
    ramp = np.arange(width[-1], dtype=float)
    hits = np.empty(u.size, dtype=np.int64)
    begin = 0
    # a tiny target scales the bulk past the largest double; inf stays >= 1
    with np.errstate(over="ignore"):
        while begin < u.size:
            end = min(begin + max(1, _CHUNK_ENTRIES // int(width[begin])), u.size)
            w = int(width[end - 1])
            mass = windows[first[begin:end], :w]
            mass += base[begin:end, None]
            mass += slope[begin:end, None] * ramp[:w]
            np.exp(mass, out=mass)
            np.cumsum(mass, axis=1, out=mass)
            hits[order[begin:end]] = np.count_nonzero(mass < limit[begin:end, None], axis=1)
            begin = end
    return start + step * hits


def sample_shots(p_plus: float, n_shots: int, seed: int) -> ShotRecord:
    """Binomial shot sampling by inverse-CDF from the deterministic stream."""
    return ShotRecord.from_counts(n_shots, int(draw_shots([p_plus], n_shots, [spawn_rng(seed).random()])[0]))


def expectation_std_error(values):
    """Standard error of the expectation estimate: a float for one ShotRecord,
    an array for the rows of a ShotColumns; 0 for an analytic record, never
    exactly zero for shot counts.

    The expectation is ``2 P(+) - 1``, so its variance is four times the
    stored outcome-probability variance; a Laplace-smoothed probability
    keeps the weight finite when every shot agreed.
    """
    analytic = np.asarray(values.analytic, dtype=bool)
    n_shots = np.where(analytic, 1, values.n_shots)
    p_smooth = (values.n_plus + 1.0) / (n_shots + 2.0)
    error = np.where(analytic, 0.0, 2.0 * np.sqrt(p_smooth * (1.0 - p_smooth) / n_shots))
    return error if error.ndim else float(error)


def _opened(path_or_buffer, mode: str):
    """Open a path for CSV I/O, or pass an open buffer through unclosed."""
    if isinstance(path_or_buffer, (str, bytes)) or hasattr(path_or_buffer, "__fspath__"):
        return open(path_or_buffer, mode, newline="")
    return contextlib.nullcontext(path_or_buffer)


# the key columns, in MeasurementKey order, and the labels of the coded ones
_KEY_DTYPES = {"drive": np.int8, "omega": float, "init": np.int8, "observable": np.int8, "time": float}
_LABELS = {"drive": DRIVE_AXES, "init": INITS, "observable": OBSERVABLES}
_LABEL_ARRAYS = {name: np.array(labels, dtype=object) for name, labels in _LABELS.items()}
_CODES = {name: {label: code for code, label in enumerate(labels)} for name, labels in _LABELS.items()}
# every column of the store: the key columns, the ShotRecord fields and the
# variance that the estimators weight each expectation by
_COLUMN_DTYPES = {**_KEY_DTYPES, **_VALUE_DTYPES, "expectation_variance": float}


def _listed(name: str, column: np.ndarray) -> list:
    """A column as a list of Python values, a coded one as its labels."""
    return (_LABEL_ARRAYS[name][column] if name in _LABELS else column).tolist()


def _distinct_text(column: np.ndarray, text) -> np.ndarray:
    """``text`` of every value of a column, as an object array, each distinct
    value formatted once: a shot-count column holds at most n_shots + 1 of them."""
    values, inverse = np.unique(column, return_inverse=True)
    return np.array(list(map(text, values.tolist())), dtype=object)[inverse]


def _float_text(column: np.ndarray) -> list[str]:
    """The ``repr`` of every value of a float column, by :func:`_distinct_text`."""
    text = _distinct_text(column, repr)
    zero = column == 0.0  # np.unique merges -0.0 into 0.0
    text[zero] = np.where(np.signbit(column[zero]), "-0.0", "0.0")
    return text.tolist()


def _column_text(name: str, column: np.ndarray) -> list[str]:
    """A column's text in datasets.csv: coded columns as their labels, float
    columns by :func:`_float_text`, counts and flags as ``int`` text."""
    if name in _LABELS:
        return _LABEL_ARRAYS[name][column].tolist()
    return _float_text(column) if column.dtype == float else _distinct_text(column, int.__repr__).tolist()


def _joined(literals, columns, head: str = "", separator: str = "", tail: str = "") -> str:
    """``head + separator.join(rows) + tail``, row i being ``literals[0] +
    columns[0][i] + literals[1] + ... + columns[-1][i] + literals[-1]``.

    One list holds every piece: it repeats the row of literals and takes each
    text column by one slice assignment, so a row costs no Python call, and
    one ``"".join`` writes the text.
    """
    width = len(literals) + len(columns)
    row = [None] * width
    row[::2] = literals
    row[0] = separator + literals[0]
    pieces = [head] + row * len(columns[0]) + [tail]
    for k, column in enumerate(columns):
        pieces[2 * k + 2 :: width] = column
    if len(pieces) > 2:
        pieces[1] = literals[0]  # no separator before the first row
    return "".join(pieces)


def _json_row(fields, quoted=()) -> list[str]:
    """The literals of :func:`_joined` for the records of a list under a top-level key, as
    ``json.dumps(..., sort_keys=True, indent=1)`` lays them out around the texts of their
    ``fields``, sorted; the texts of the ``quoted`` fields stand between quotes."""
    names = sorted(fields)
    marks = ['"' if name in quoted else "" for name in names]
    keys = [f'\n   "{name}": {mark}' for name, mark in zip(names, marks)]
    return ["{" + keys[0], *(close + "," + key for close, key in zip(marks, keys[1:])), marks[-1] + "\n  }"]


def _csv_row(fields) -> tuple:
    """The literals of :func:`_joined` for the records of these ``fields`` as ``csv.writer``
    writes them, each text quoted already where it needs to be."""
    return ("", *[","] * (len(fields) - 1), "\r\n")


def _keys(columns: dict, rows) -> list[MeasurementKey]:
    """The keys of ``rows`` of the key ``columns``."""
    return list(map(MeasurementKey._make, zip(*(_listed(name, columns[name][rows]) for name in _KEY_DTYPES))))


def _series_codes(drive, omega_index, n_omegas: int, init, observable):
    """Each series' code in MeasurementKey order: its drive code, its omega's index among the
    ``n_omegas`` distinct omegas, its init and observable codes (int8 codes would overflow)."""
    return ((drive.astype(np.intp) * n_omegas + omega_index) * len(INITS) + init) * len(OBSERVABLES) + observable


def _series_index(columns: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct omegas of the key ``columns``, then every row's series code and index in
    series-then-time order, which is MeasurementKey order, from one sort of every row; ValueError
    naming a key that two rows share."""
    omegas, omega_index = np.unique(columns["omega"], return_inverse=True)
    series = _series_codes(columns["drive"], omega_index, omegas.size, columns["init"], columns["observable"])
    order = np.lexsort((columns["time"], series))
    series, times = series[order], columns["time"][order]
    repeated = np.flatnonzero((series[1:] == series[:-1]) & (times[1:] == times[:-1]))
    if repeated.size:
        raise ValueError(f"duplicate measurement key {_keys(columns, [order[repeated[0] + 1]])[0]}")
    return omegas, series, order


def _codes(name: str, labels) -> list[int]:
    try:
        return [_CODES[name][label] for label in labels]
    except KeyError as exc:
        raise ValueError(f"unknown {name} label {exc.args[0]!r}; expected one of {_LABELS[name]}") from None


class ShotDataset:
    """The measurement records of a campaign, stored as columns.

    Layout: one array per column, rows in insertion order.  The key columns
    are ``drive``, ``init`` and ``observable`` (int8 codes into
    :data:`DRIVE_AXES`, :data:`INITS` and :data:`OBSERVABLES`), ``omega`` and
    ``time``; the value columns are the :class:`ShotRecord` fields
    ``n_shots``, ``n_plus``, ``expectation``, ``variance`` and ``analytic``;
    ``expectation_variance``, the square of each row's
    :func:`expectation_std_error`, is derived from them on entry for the
    estimators to weight by.
    The series index is the sorted arrays of one ``lexsort``: the distinct
    omegas, and every row's series code and the rows, in series-then-time
    order.  A series code orders the drive, the omega, the init and the
    observable as :class:`MeasurementKey` does, so the index's rows are also
    in key order, the order that the writers and iteration use.
    :meth:`series_rows` looks a grid of series up in it by one
    ``searchsorted``; :meth:`series` is its one-key case.

    Rows enter a block at a time through :meth:`extend` (a campaign makes one
    call), and are read a column or a series at a time through
    :meth:`column`, :meth:`series`, :meth:`row` and :meth:`take`.  The
    writers share one text per column, formatted in key order at the first
    write after an :meth:`extend`, and join each file from those columns.
    The per-record interface is a set of views over the same store:
    :meth:`add` extends it; :meth:`get`, ``entries`` (key -> record, in
    insertion order), iteration (in key order) and :meth:`times` build their
    keys and records on demand.
    """

    def __init__(self):
        self._columns = {name: np.empty(0, dtype) for name, dtype in _COLUMN_DTYPES.items()}
        self._series = _series_index(self._columns)
        self._texts: dict[str, list[str]] = {}

    def __len__(self) -> int:
        return self._columns["time"].size

    def column(self, name: str) -> np.ndarray:
        """The ``name`` column of every row, in insertion order (do not write)."""
        return self._columns[name]

    def series(self, drive_axis: str, omega: float, init: str, observable: str) -> np.ndarray:
        """Row indices of one series, ordered by time; empty if it has no rows."""
        return self.series_rows([(drive_axis, init, observable)], [omega])[0, 0]

    def series_rows(self, heads, omegas) -> np.ndarray:
        """(heads, omegas, n) rows of each ``(drive_axis, init, observable)`` series at each omega, by
        time and -1 past its end, n the longest length; an unknown label or omega off the grid has none."""
        grid, codes, order = self._series
        omegas = np.asarray(omegas, dtype=float)
        index = np.searchsorted(grid, omegas)
        on_grid = np.append(grid, np.nan)[index] == omegas  # NaN past the end equals nothing
        labels = [[_CODES[name].get(label, -1) for name, label in zip(_LABELS, head)] for head in heads]
        drive, init, observable = np.array(labels, dtype=np.intp).reshape(-1, 3).T[..., None]
        wanted = _series_codes(drive, index, grid.size, init, observable)
        wanted[~(on_grid & (drive >= 0) & (init >= 0) & (observable >= 0))] = -1
        start, stop = np.searchsorted(codes, [wanted, wanted + 1])
        ramp = np.arange((stop - start).max(initial=0))
        return np.where(ramp < (stop - start)[..., None], order.take(start[..., None] + ramp, mode="clip"), -1)

    def row(self, drive_axis: str, omega: float, init: str, observable: str, time: float) -> int:
        """Index of the row with this key; KeyError if there is none."""
        rows = self.series(drive_axis, omega, init, observable)
        hit = rows[self.column("time")[rows] == time]
        if not hit.size:
            raise KeyError(MeasurementKey(drive_axis, float(omega), init, observable, float(time)))
        return int(hit[0])

    def take(self, rows) -> ShotColumns:
        """The value columns at ``rows`` (an index array, a list or a slice)."""
        return ShotColumns(*(self.column(name)[rows] for name in ShotColumns._fields))

    def extend(self, drive, omega, init, observable, time, values: ShotColumns) -> None:
        """Append one row per entry of the arrays, in their order.

        ``drive``, ``init`` and ``observable`` hold codes, ``omega`` and
        ``time`` floats, and ``values`` the same rows' ShotColumns.  Every row
        is checked as a ShotRecord is; a bad row, or a key that is already
        present, rejects the whole block.  The block is concatenated onto
        each column, and the series index is rebuilt from every row.
        """
        keys = zip(_KEY_DTYPES.items(), (drive, omega, init, observable, time))
        new = {name: np.asarray(column, dtype=dtype) for (name, dtype), column in keys}
        values = ShotColumns.of(*values)
        new.update(values._asdict())
        n = new["time"].size
        if any(column.shape != (n,) for column in new.values()):
            raise ValueError("dataset columns must be 1-D and of equal length")
        for name, labels in _LABELS.items():
            if n and not (new[name].min() >= 0 and new[name].max() < len(labels)):
                raise ValueError(f"{name} codes must lie in [0, {len(labels)})")
        _check_values(values)
        if not n:
            return
        # a std error takes at most n_shots + 1 values: square each once
        errors, inverse = np.unique(expectation_std_error(values), return_inverse=True)
        new["expectation_variance"] = _mapped(_square, errors)[inverse]
        # the dataset takes the block only once its keys pass
        columns = {name: np.concatenate((column, new[name])) for name, column in self._columns.items()}
        self._series = _series_index(columns)
        self._columns = columns
        self._texts = {}

    def add(self, key: MeasurementKey, record: ShotRecord) -> None:
        drive_axis, omega, init, observable, time = key
        self.extend(_codes("drive", [drive_axis]), [omega], _codes("init", [init]),
                    _codes("observable", [observable]), [time], ShotColumns.from_records([record]))

    def get(self, drive_axis: str, omega: float, init: str, observable: str, time: float) -> ShotRecord:
        return self.take([self.row(drive_axis, omega, init, observable, time)]).records()[0]

    def times(self, drive_axis: str, omega: float, init: str, observable: str) -> list[float]:
        return self.column("time")[self.series(drive_axis, omega, init, observable)].tolist()

    @property
    def entries(self) -> dict[MeasurementKey, ShotRecord]:
        """Every row as key -> record, in insertion order."""
        return dict(zip(_keys(self._columns, slice(None)), self.take(slice(None)).records()))

    def __iter__(self) -> Iterator[tuple[MeasurementKey, ShotRecord]]:
        order = self._series[2]
        return zip(_keys(self._columns, order), self.take(order).records())

    def _sorted(self) -> dict[str, list[str]]:
        """Every :func:`_column_text` in key order, in the field order of
        datasets.csv, formatted at the first call after an :meth:`extend`."""
        if not self._texts:
            order = self._series[2]
            self._texts = {name: _column_text(name, self.column(name)[order]) for name in _KEY_DTYPES | _VALUE_DTYPES}
        return self._texts

    _FIELDS = (
        "axis", "omega_rad_per_us", "init", "obs", "T_us",
        "n_shots", "n_plus", "expectation", "variance", "analytic",
    )

    def to_csv(self, path_or_buffer) -> None:
        text = _joined(_csv_row(self._FIELDS), list(self._sorted().values()), ",".join(self._FIELDS) + "\r\n")
        with _opened(path_or_buffer, "w") as buffer:
            buffer.write(text)

    @classmethod
    def from_csv(cls, path_or_buffer) -> "ShotDataset":
        with _opened(path_or_buffer, "r") as buffer:
            header, *rows = [row for row in csv.reader(buffer) if row] or [cls._FIELDS]
        fields = dict(zip(header, zip(*rows))) if rows else dict.fromkeys(header, ())

        def parsed(field, kind):
            return [kind(text) for text in fields[field]]

        dataset = cls()
        dataset.extend(
            _codes("drive", fields["axis"]), parsed("omega_rad_per_us", float), _codes("init", fields["init"]),
            _codes("observable", fields["obs"]), parsed("T_us", float),
            ShotColumns.of(parsed("n_shots", int), parsed("n_plus", int), parsed("expectation", float),
                           parsed("variance", float), [bool(int(text)) for text in fields["analytic"]]),
        )
        return dataset

    def to_manifest(self, **metadata) -> str:
        """JSON manifest: metadata plus every record, stably ordered; the text of
        ``json.dumps(..., sort_keys=True, indent=1)``.  The records are joined
        from the column texts that :meth:`to_csv` writes: the labels are plain
        ASCII, the counts ints and the values finite, and the ``repr`` of a
        float is JSON's text for it; a flag's ``0``/``1`` becomes a JSON bool."""
        head = json.dumps({"metadata": metadata, "records": []}, sort_keys=True, indent=1)
        if not len(self):
            return head
        columns = [texts for _, texts in sorted(zip(self._FIELDS, self._sorted().values()))]
        columns[1] = list(map({"0": "false", "1": "true"}.__getitem__, columns[1]))
        literals = _json_row(self._FIELDS, quoted=("axis", "init", "obs"))
        # the records list is the last key: open up its "[]" at the tail
        return _joined(literals, columns, head[: -len("[]\n}")] + "[\n  ", ",\n  ", "\n ]\n}")

    def csv_text(self) -> str:
        buffer = io.StringIO()
        self.to_csv(buffer)
        return buffer.getvalue()
