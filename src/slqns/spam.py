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
"""

from __future__ import annotations

import contextlib
import csv
import enum
import io
import json
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np
from scipy import stats

from .dynamics import SIGMA, IDENTITY2, QubitState
from .seeding import spawn_rng

__all__ = [
    "SpamParams",
    "SpamMode",
    "ShotRecord",
    "MeasurementKey",
    "ShotDataset",
    "faulty_state",
    "povm_elements",
    "povm_probabilities",
    "sample_shots",
    "spam_corrupted_expectation",
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


def povm_elements(basis: str, params: SpamParams) -> tuple[np.ndarray, np.ndarray]:
    """POVM pair (Pi_plus, Pi_minus) for a faulty measurement along ``basis``."""
    pi_plus = 0.5 * params.alpha_m * SIGMA[basis] + 0.5 * (1.0 + params.delta) * IDENTITY2
    return pi_plus, IDENTITY2 - pi_plus


def povm_probabilities(rho: QubitState, basis: str, params: SpamParams) -> tuple[float, float]:
    """Outcome probabilities (P+, P-) of the faulty measurement of sigma_basis."""
    p_plus = 0.5 * ((1.0 + params.delta) + params.alpha_m * rho.expectation(basis))
    return p_plus, 1.0 - p_plus


class SpamMode(enum.Enum):
    """Which protocol observable the corrupted-expectation formula models."""

    X_DRIVE_X = "x_drive_x"    # x drive, x-prepared states, measure sigma_x
    Z_DRIVE_Z = "z_drive_z"    # z drive, z-prepared states, measure sigma_z
    Z_DRIVE_X = "z_drive_x"    # z drive, x-prepared states, measure sigma_x (aligned times)


def spam_corrupted_expectation(
    ideal: float,
    decay_factor: float,
    sign: int,
    params: SpamParams,
    mode: SpamMode,
) -> float:
    """Measured expectation for an ideal value under static SPAM errors.

    ``decay_factor`` is ``exp(-G T)`` with the mode's decay rate: A(Omega)
    for the x drive, twice the transverse classical spectrum for the z-drive
    populations, and the coherence rate for the z-drive/x-state mode.  For
    the population modes the preparation error enters as an extra
    ``-sign (1 - alpha_sp) decay_factor`` inside the measurement bias; for
    the coherence mode the whole signal is scaled by alpha = alpha_sp alpha_m.
    """
    if not (0.0 < decay_factor <= 1.0):
        raise ValueError(f"decay_factor must lie in (0, 1], got {decay_factor}")
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    if mode is SpamMode.Z_DRIVE_X:
        return params.alpha * ideal + params.delta
    return params.alpha_m * (ideal - sign * (1.0 - params.alpha_sp) * decay_factor) + params.delta


class MeasurementKey(NamedTuple):
    """Addresses one (drive, frequency, preparation, observable, time) point."""

    drive_axis: str   # 'x', 'z+', 'z-'
    omega: float      # signed sampled frequency, rad/us
    init: str         # 'x+', 'x-', 'z+', 'z-'
    observable: str   # 'x', 'y', 'z'
    time: float       # us


@dataclass(frozen=True)
class ShotRecord:
    """Estimated expectation at one measurement point."""

    n_shots: int
    n_plus: int
    expectation: float
    variance: float
    analytic: bool = False

    def __post_init__(self):
        if self.analytic:
            return
        if self.n_shots < 1 or not (0 <= self.n_plus <= self.n_shots):
            raise ValueError("invalid shot counts")
        expected = (2.0 * self.n_plus - self.n_shots) / self.n_shots
        if abs(expected - self.expectation) > 1e-12:
            raise ValueError("expectation inconsistent with shot counts")

    @classmethod
    def from_counts(cls, n_shots: int, n_plus: int) -> "ShotRecord":
        p_plus = n_plus / n_shots
        return cls(
            n_shots=n_shots,
            n_plus=n_plus,
            expectation=(2.0 * n_plus - n_shots) / n_shots,
            variance=p_plus * (1.0 - p_plus) / n_shots,
        )

    @classmethod
    def exact(cls, expectation: float) -> "ShotRecord":
        return cls(n_shots=0, n_plus=0, expectation=float(expectation), variance=0.0, analytic=True)


def sample_shots(p_plus: float, n_shots: int, seed: int) -> ShotRecord:
    """Binomial shot sampling by inverse-CDF from the deterministic stream."""
    if not (0.0 <= p_plus <= 1.0):
        raise ValueError(f"P(+) must lie in [0, 1], got {p_plus}")
    if n_shots < 1:
        raise ValueError(f"n_shots must be >= 1, got {n_shots}")
    u = spawn_rng(seed).random()
    n_plus = int(stats.binom.ppf(u, n_shots, p_plus))
    return ShotRecord.from_counts(n_shots, n_plus)


def expectation_std_error(record: ShotRecord) -> float:
    """Standard error of the expectation estimate, never exactly zero.

    The expectation is ``2 P(+) - 1``, so its variance is four times the
    stored outcome-probability variance; a Laplace-smoothed probability
    keeps the weight finite when every shot agreed.
    """
    if record.analytic:
        return 0.0
    p_smooth = (record.n_plus + 1.0) / (record.n_shots + 2.0)
    return 2.0 * math.sqrt(p_smooth * (1.0 - p_smooth) / record.n_shots)


def _opened(path_or_buffer, mode: str):
    """Open a path for CSV I/O, or pass an open buffer through unclosed."""
    if isinstance(path_or_buffer, (str, bytes)) or hasattr(path_or_buffer, "__fspath__"):
        return open(path_or_buffer, mode, newline="")
    return contextlib.nullcontext(path_or_buffer)


class ShotDataset:
    """Keyed collection of measurement records with CSV/JSON persistence.

    Besides ``entries`` (key -> record), ``add`` files each key's time under
    its series, the ``(drive_axis, omega, init, observable)`` head of the key,
    so :meth:`times` is one lookup rather than a scan of every entry.
    """

    def __init__(self):
        self.entries: dict[MeasurementKey, ShotRecord] = {}
        self._series: dict[tuple, list[float]] = {}

    def add(self, key: MeasurementKey, record: ShotRecord) -> None:
        if key in self.entries:
            raise ValueError(f"duplicate measurement key {key}")
        self.entries[key] = record
        self._series.setdefault(key[:4], []).append(key.time)

    def get(self, drive_axis: str, omega: float, init: str, observable: str, time: float) -> ShotRecord:
        return self.entries[MeasurementKey(drive_axis, float(omega), init, observable, float(time))]

    def merge(self, other: "ShotDataset") -> "ShotDataset":
        for key, record in other.entries.items():
            self.add(key, record)
        return self

    def times(self, drive_axis: str, omega: float, init: str, observable: str) -> list[float]:
        return sorted(self._series.get((drive_axis, omega, init, observable), ()))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[MeasurementKey, ShotRecord]]:
        return iter(sorted(self.entries.items()))

    _FIELDS = (
        "axis", "omega_rad_per_us", "init", "obs", "T_us",
        "n_shots", "n_plus", "expectation", "variance", "analytic",
    )

    def to_csv(self, path_or_buffer) -> None:
        with _opened(path_or_buffer, "w") as buffer:
            writer = csv.writer(buffer)
            writer.writerow(self._FIELDS)
            for key, rec in self:
                writer.writerow([
                    key.drive_axis, repr(key.omega), key.init, key.observable, repr(key.time),
                    rec.n_shots, rec.n_plus, repr(rec.expectation), repr(rec.variance),
                    int(rec.analytic),
                ])

    @classmethod
    def from_csv(cls, path_or_buffer) -> "ShotDataset":
        with _opened(path_or_buffer, "r") as buffer:
            reader = csv.DictReader(buffer)
            ds = cls()
            for row in reader:
                key = MeasurementKey(
                    row["axis"], float(row["omega_rad_per_us"]), row["init"],
                    row["obs"], float(row["T_us"]),
                )
                rec = ShotRecord(
                    n_shots=int(row["n_shots"]),
                    n_plus=int(row["n_plus"]),
                    expectation=float(row["expectation"]),
                    variance=float(row["variance"]),
                    analytic=bool(int(row["analytic"])),
                )
                ds.add(key, rec)
            return ds

    def to_manifest(self, **metadata) -> str:
        """JSON manifest: metadata plus every record, stably ordered."""
        rows = [
            {
                "axis": k.drive_axis, "omega_rad_per_us": k.omega, "init": k.init,
                "obs": k.observable, "T_us": k.time, "n_shots": r.n_shots,
                "n_plus": r.n_plus, "expectation": r.expectation,
                "variance": r.variance, "analytic": r.analytic,
            }
            for k, r in self
        ]
        return json.dumps({"metadata": metadata, "records": rows}, sort_keys=True, indent=1)

    def csv_text(self) -> str:
        buffer = io.StringIO()
        self.to_csv(buffer)
        return buffer.getvalue()
