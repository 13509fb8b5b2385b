"""Campaign front-end: config loading, end-to-end runs, and report diffs.

A campaign config is a single JSON document with MHz/us units at the
boundary (internally everything is rad/us).  ``_SCHEMA`` lists its blocks and
their keys, each with its kind and default; a key that it does not list is a
config error at every level.  The ``backend`` block takes the keys of its
``type``, and a spectrum model's ``params`` block those of its ``kind``.

A model is a one-sided spectrum that both backends read at ``|omega|``: the
dephasing block defines ``S+ = scale * model(|omega|)`` and ``S- = S+ *
sin(lag * omega)``, a transverse block the classical (even) transverse spectra
``scale * model(|omega|)``.  A trajectory backend synthesizes noise from the
dephasing block instead of evaluating it analytically, and validates the
transverse block but does not simulate it.

Protocols 2 and 4 report SPAM parameters per frequency under
``spam_per_frequency`` and combined under ``spam``.  Each per-frequency row
copies the robust estimator's table row: ``path``
(``"linearized"``, ``"nonlinear"`` or ``"multi_axis"``), ``alpha_m`` and
``alpha_m_std_error`` (its ``alpha`` and ``alpha_err``), ``delta`` and
``delta_std_error``, with ``omega_rad_per_us``; protocol 4 adds
``intercepts_consistent`` from its diagnostics.  The ``alpha_m`` fields hold
the combined ``alpha = alpha_sp * alpha_m``: the estimators cannot separate
preparation from measurement contrast.  Next to their robust
rows, protocols 2 and 4 also emit ``standard`` comparison rows (the
single-time inversion at the longest plan time).  A frequency whose
comparison fails has none; ``report.json`` then names it, with the cause,
under ``standard_dropped`` (``{repr(omega): cause}``, ``{}`` when nothing was
dropped), and ``run.log`` gets a ``DROPPED standard omega=...: cause`` line.
These are not ``failures``: the frequency's robust estimates stand.

Estimation takes the whole drive grid at once.  The robust estimators of
protocols 2 and 4 and every protocol's standard inversion are one grid call
each per campaign, returning one table of estimates over the grid in plan
order, with the ``EstimationError`` of each failed frequency as a value (a
point the dataset lacks there, say); no grid call fails as a whole.  Where
protocol 2's linearization guard rejects frequencies, one nonlinear grid call
fits them all and puts their outcomes in those rows of the table.

``run_campaign`` writes ``datasets.csv``, ``estimates.csv``, ``report.json``,
``manifest.json`` and ``run.log`` into ``out_dir`` (``--out-dir``; no config
key names it) when one is given.  It creates the directory before measuring,
and removes it again if measuring or estimating fails.  The drive-frequency
grid is measured as one block, in the calling thread, so identical config and
seed give byte-identical outputs.  On a shared host, run trajectory campaigns
with ``OPENBLAS_NUM_THREADS=1``: a second OpenBLAS thread spins through the
numpy work between BLAS calls and shortens no run.

``slqns`` exits 0 (``EXIT_OK``) on success, 3 (``EXIT_ESTIMATION``) when
estimation fails at every frequency, and 2 (``EXIT_CONFIG``) when it cannot
run: on a config error, which ``validate`` finds too; on a bad ``compare``
input; on a ``measurement error``, a ``DynamicsError`` that only measuring
finds (a planned drive whose sampled decay rate A is 0, say), after which no
output is written; and on an ``output error``, an ``OSError`` from creating or
writing the output directory.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import numbers
import sys
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

import numpy as np

from .dynamics import DynamicsError
from .estimation import (
    _COMPONENTS,
    LinearizationGuardError,
    _combine_inverse_variance,
    estimate_single_axis_standard,
    invert_multi_axis,
    robust_multi_axis,
    robust_single_axis_linearized,
    robust_single_axis_nonlinear,
)
from .noisegen import BathConfig, BathVariant, default_dsa_config
from .protocols import (
    ClosedFormTclBackend,
    PlanError,
    ProtocolPlan,
    TrajectoryBackend,
    run_plan,
)
from .spam import SpamParams, _csv_row, _float_text, _joined, _json_row
from .spectra import (
    DeviceParams,
    Lorentzian,
    SpectraError,
    Tabulated,
    White,
    dephasing_spectra,
    even_spectrum,
    mhz_to_rad_per_us,
)

__all__ = [
    "ConfigError",
    "CampaignResult",
    "load_config",
    "build_campaign",
    "run_campaign",
    "compare_reports",
    "main",
    "EXIT_OK",
    "EXIT_CONFIG",
    "EXIT_ESTIMATION",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ESTIMATION = 3


class ConfigError(ValueError):
    """Campaign configuration is invalid."""


_KINDS = {int: "an integer", float: "a number", bool: "true or false"}


def _finite(value) -> bool:
    """Whether the real ``value`` is a finite float; an integer too large for
    a float (``10**400`` written as a JSON integer) is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _typed(value, kind, key):
    """``value`` as ``kind`` (int, float or bool), or a ConfigError naming ``key``.

    An integer may be written as an integral float (``2.0``); a boolean is
    not a number, ``NaN``, ``Infinity`` and numbers beyond the float range
    are refused, and nothing is parsed from a string.
    """
    finite = True
    if kind is bool:
        ok = isinstance(value, bool)
    else:
        ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
        finite = ok and _finite(value)
        if kind is int:
            ok = ok and (isinstance(value, numbers.Integral) or (finite and float(value).is_integer()))
    if not ok:
        raise ConfigError(f"{key} must be {_KINDS[kind]}, got {value!r}")
    if not finite:
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return kind(value)


# a spectrum model kind -> the keys of its params block, and the model that the read params give
_MODELS = {
    "Lorentzian": ({"peak_frequency_MHz": (float, ...), "correlation_time_us": (float, ...)},
                   lambda p: Lorentzian(omega0=mhz_to_rad_per_us(p["peak_frequency_MHz"]),
                                        tc=p["correlation_time_us"])),
    "White": ({"level_per_us": (float, ...)}, lambda p: White(level=p["level_per_us"])),
    "Tabulated": ({"frequency_grid_MHz": ([float], ...), "values_per_us": ([float], ...)},
                  lambda p: Tabulated(grid=tuple(map(mhz_to_rad_per_us, p["frequency_grid_MHz"])),
                                      values=p["values_per_us"])),
}
_SPECTRUM = {
    "model": ({
        "kind": (({kind: {"params": (params, ...)} for kind, (params, _) in _MODELS.items()},
                  "unknown spectrum kind {!r} in {}"), ...),
        "params": ({}, ...),  # its keys are those that the kind picks
    }, ...),
    "scale": (float, 1.0),
}

# Every key of a campaign config: block -> key -> (kind, default), where ``...``
# marks a required key.  A kind is int, float or bool, a list of one of these
# ([float]), a nested block, or a pair (choices, message) for a label: its
# value must be a key of choices, and picks choices[value], more keys of its
# block; any other value is refused with the message.
_SCHEMA = {
    "protocol": (int, ...),
    "seed": (int, 0),
    "device": ({"qubit_frequency_MHz": (float, ...)}, ...),
    "spam": ({"alpha_sp": (float, 1.0), "c_re": (float, 0.0), "c_im": (float, 0.0), "alpha_m": (float, 1.0),
              "delta": (float, 0.0)}, {}),
    "spectra": ({"dephasing": ({**_SPECTRUM, "quantum_lag_us": (float, 0.0)}, ...),
                 "transverse": (_SPECTRUM, None)}, ...),  # a null transverse block is no block
    "backend": ({
        "type": (({
            "closed_form": {},
            # synthesis frequency bins (>= 2), realizations averaged per point (>= 2)
            "trajectory": {"n_omega": (int, 512), "n_realizations": (int, 400), "bath_variant": (
                ({variant.value: {} for variant in BathVariant}, "unknown bath_variant {!r}"), "main_text")},
        }, "unknown backend type {!r}"), "closed_form"),
        "analytic": (bool, False),
    }, {}),
    "plan": ({
        "omegas_MHz": ([float], ...),
        "times_us": ([float], ...),
        # frame-aligned indices n, T = 2 pi n / |Omega|, of the protocol 3/4
        # coherence block, which runs exactly when the list is non-empty
        "aligned_n": ([int], ()),
        "shots": (int, 1000),
        "long_time_threshold": (float, 10.0),  # minimum |Omega| T
        "allow_low_frequency": (bool, False),  # admit drives inside the 2.3 kHz exclusion window
    }, ...),
}


def _read(block, schema, path=""):
    """The values of the config ``block`` at ``path`` ("" for the whole
    config) by ``schema``, with defaults filled in.  A ConfigError names a
    block that is not a JSON object, then a key that the block does not take,
    then a key that it lacks or that is of the wrong kind, in table order."""
    name = path or "config"
    if not isinstance(block, dict):
        raise ConfigError(f"{name} must be a JSON object, got {block!r}")
    schema, keys = dict(schema), list(schema)
    for key in keys:  # with the keys that labels add
        kind, default = schema[key]
        if isinstance(kind, tuple) and (key in block or default is not ...):
            label, (choices, unknown) = block.get(key, default), kind
            if not (isinstance(label, str) and label in choices):
                raise ConfigError(unknown.format(label, name))
            schema.update(choices[label])
            keys += choices[label]
    unknown = [key for key in block if key not in schema]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {name}; expected one of {', '.join(schema)}")
    values = {}
    for key, (kind, default) in schema.items():
        if key not in block and default is ...:
            # a model names itself, not its params block, as the one that lacks a param
            raise ConfigError(f"missing '{key}' in {name.removesuffix('.params')}")
        value, at = block.get(key, default), f"{path}.{key}" if path else key
        if isinstance(kind, dict):
            value = None if value is None and default is None else _read(value, kind, at)
        elif isinstance(kind, list):
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{at} must be a list, got {value!r}")
            value = tuple(_typed(item, kind[0], at) for item in value)
        elif kind in (int, float, bool):
            value = _typed(value, kind, at)
        values[key] = value
    return values


def _model(block, path):
    """The spectrum model of the read ``model`` block at ``path``."""
    try:
        return _MODELS[block["kind"]][1](block["params"])
    except SpectraError as exc:
        raise ConfigError(f"invalid spectrum in {path}: {exc}") from exc


@dataclass
class Campaign:
    protocol: int
    seed: int
    device: DeviceParams
    spam: SpamParams
    plan: ProtocolPlan
    backend: object
    backend_kind: str
    analytic: bool
    config_digest: str


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def build_campaign(config: dict, *, seed=None, analytic=None) -> Campaign:
    """Construct and validate every campaign component from a config dict.

    A trajectory plan is refused if any drive has |Omega| at or above the
    synthesis cutoff ``omega_max``, where the synthesized noise has no weight.
    The refusal has no margin beyond the cutoff: a drive just below it runs.
    """
    read = _read(config, _SCHEMA)
    master_seed = read["seed"] if seed is None else _typed(seed, int, "seed")

    try:
        device = DeviceParams(omega_q=mhz_to_rad_per_us(read["device"]["qubit_frequency_MHz"]))
    except SpectraError as exc:
        raise ConfigError(f"invalid device block: {exc}") from exc

    spam_cfg = read["spam"]
    try:
        spam = SpamParams(alpha_sp=spam_cfg["alpha_sp"], c_u=complex(spam_cfg["c_re"], spam_cfg["c_im"]),
                          alpha_m=spam_cfg["alpha_m"], delta=spam_cfg["delta"])
    except ValueError as exc:
        raise ConfigError(f"invalid spam block: {exc}") from exc

    plan_cfg = read["plan"]
    omegas = tuple(mhz_to_rad_per_us(f) for f in plan_cfg["omegas_MHz"])
    try:
        plan = ProtocolPlan(protocol_id=read["protocol"], omegas=omegas, times=plan_cfg["times_us"],
                            aligned_n=plan_cfg["aligned_n"], n_shots=plan_cfg["shots"], seed=master_seed,
                            long_time_threshold=plan_cfg["long_time_threshold"],
                            allow_low_frequency=plan_cfg["allow_low_frequency"])
    except PlanError as exc:
        raise ConfigError(f"invalid plan: {exc}") from exc
    if plan.protocol_id in (1, 2) and plan.aligned_n:
        raise ConfigError(f"invalid plan: aligned_n is read by protocols 3 and 4 only, "
                          f"and protocol {plan.protocol_id} measures no aligned point")

    for omega in omegas:
        try:
            device.check_drive_amplitude(omega)
        except SpectraError as exc:
            raise ConfigError(str(exc)) from exc

    backend_cfg = read["backend"]
    backend_kind = backend_cfg["type"]
    use_analytic = bool(backend_cfg["analytic"] if analytic is None else analytic)
    dephasing, transverse = read["spectra"]["dephasing"], read["spectra"]["transverse"]
    scale, lag = dephasing["scale"], dephasing["quantum_lag_us"]
    model = _model(dephasing["model"], "spectra.dephasing.model")
    if scale <= 0.0:
        raise ConfigError("spectra.dephasing.scale must be > 0")
    if lag < 0.0:
        raise ConfigError("spectra.dephasing.quantum_lag_us must be >= 0")
    if transverse is not None:
        transverse = _model(transverse["model"], "spectra.transverse.model"), transverse["scale"]
        if transverse[1] <= 0.0:
            raise ConfigError("spectra.transverse.scale must be > 0")

    if backend_kind == "closed_form":
        spectra = dephasing_spectra(model, scale, lag)
        if transverse is not None:
            spectra = spectra.with_transverse(even_spectrum(*transverse))
        backend = ClosedFormTclBackend(spectra, device, spam, analytic=use_analytic)
    else:
        if not isinstance(model, (Lorentzian, Tabulated)):
            raise ConfigError("the trajectory backend needs a Lorentzian or a Tabulated dephasing model, "
                              f"got {type(model).__name__}")
        n_omega, n_realizations = backend_cfg["n_omega"], backend_cfg["n_realizations"]
        if n_realizations < 2:
            raise ConfigError(f"backend.n_realizations must be >= 2, got {n_realizations}")
        try:
            if scale != 1.0:
                # fold the scale into a tabulated generating spectrum
                base = default_dsa_config(model, n_omega=n_omega)
                grid = np.linspace(0.0, base.omega_max, 2049)
                model = Tabulated(grid=tuple(grid), values=tuple(even_spectrum(model, scale)(grid)))
            dsa = default_dsa_config(model, n_omega=n_omega)
        except ValueError as exc:
            raise ConfigError(f"invalid trajectory backend: {exc}") from exc
        for f_mhz, omega in zip(plan_cfg["omegas_MHz"], omegas):
            if abs(omega) >= dsa.omega_max:
                raise ConfigError(
                    f"trajectory drive |Omega| = {abs(f_mhz):g} MHz is at or above the noise synthesis "
                    f"cutoff {dsa.omega_max / (2.0 * math.pi):.4g} MHz"
                )
        backend = TrajectoryBackend(
            dsa,
            BathConfig(lag, BathVariant(backend_cfg["bath_variant"])),
            spam,
            n_realizations=n_realizations,
            analytic=use_analytic,
        )

    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode() + str(master_seed).encode()
    ).hexdigest()
    return Campaign(protocol=read["protocol"], seed=master_seed, device=device, spam=spam, plan=plan, backend=backend,
                    backend_kind=backend_kind, analytic=use_analytic, config_digest=digest)


# ---------------------------------------------------------------------------
# estimation orchestration
# ---------------------------------------------------------------------------


_SPAM_ROW_FIELDS = ("omega_rad_per_us", "alpha_m", "alpha_m_std_error", "delta", "delta_std_error", "path")


def _estimate_grid(campaign: Campaign, dataset) -> tuple[dict, list, dict, dict]:
    """The report's estimates as columns (``_ESTIMATE_FIELDS``, in report
    order), its ``spam_per_frequency`` rows (``alpha_m`` holds the combined
    alpha), ``failures`` and ``standard_dropped``, in plan order; the last
    two map ``repr(omega)`` to the cause.

    Protocols 2 and 4 first run their SPAM-robust estimator in one grid call;
    where protocol 2's table holds a LinearizationGuardError, one more grid
    call fits every such frequency nonlinearly.  Every protocol then inverts its
    expectations at the longest plan time in one grid call: for protocols 1
    and 3 this is the estimate, for 2 and 4 a comparison that is dropped where
    it fails.  A frequency whose robust fit fails is failed and gets no
    comparison.  A kept frequency's rows are its robust estimates, then its
    standard ones: each column is read at the kept entries of each table.
    """
    plan, omega_q = campaign.plan, campaign.device.omega_q
    omegas, tables = list(plan.omegas), []
    if campaign.protocol == 2:
        tables.append(robust_single_axis_linearized(dataset, omegas))
        if any(isinstance(error, LinearizationGuardError) for error in tables[0].errors):
            tables[0] = robust_single_axis_nonlinear(tables[0])
    elif campaign.protocol == 4:
        tables.append(robust_multi_axis(dataset, omegas, omega_q))
    t_max = max(plan.times)
    if campaign.protocol in (1, 2):
        tables.append(estimate_single_axis_standard(dataset, omegas, t_max))
    else:
        aligned = plan.aligned_times(omegas)[:, 0 if campaign.protocol == 3 else -1] if plan.aligned_n else None
        tables.append(invert_multi_axis(dataset, omegas, omega_q, t_max, aligned))

    # the first table (robust, else standard) decides which frequencies fail
    ok = [np.equal(table.errors, None) for table in tables]
    failures = {repr(omegas[i]): str(tables[0].errors[i]) for i in np.flatnonzero(~ok[0]).tolist()}
    standard_dropped = {repr(omegas[i]): str(tables[-1].errors[i]) for i in np.flatnonzero(ok[0] & ~ok[-1]).tolist()}
    kept = [np.nonzero(t.present & (o & ok[0])[:, None]) for t, o in zip(tables, ok)]
    # frequency by frequency, the robust entries before the standard ones
    order = np.argsort(np.concatenate([i for i, _ in kept]), kind="stable")

    def gathered(column):
        """A report column: ``column(table, i, j)`` at each table's kept entries (i, j), in report order."""
        return np.concatenate([column(t, i, j) for t, (i, j) in zip(tables, kept)])[order].tolist()

    columns = {
        "component": gathered(lambda t, i, j: np.array(t.components, dtype=object)[j]),
        "method": gathered(lambda t, i, j: np.array([m.value for m in t.method], dtype=object)[i]),
        "freq_label": gathered(lambda t, i, j: np.array([_COMPONENTS[c][0] for c in t.components], dtype=object)[j]),
        "freq_rad_per_us": gathered(lambda t, i, j: t.freq[i, j]),
        "omega_rad_per_us": gathered(lambda t, i, j: t.omegas[i]),
        "value": gathered(lambda t, i, j: t.value[i, j]),
        "std_error": gathered(lambda t, i, j: t.std_error[i, j]),
    }
    spam_rows, robust = [], tables[0]
    for i in np.flatnonzero(ok[0]).tolist() if len(tables) == 2 else ():
        row = dict(zip(_SPAM_ROW_FIELDS, [omegas[i], *robust.spam[i].tolist(), robust.path[i]]))
        if robust.consistent is not None:
            row["intercepts_consistent"] = bool(robust.consistent[i])
        spam_rows.append(row)
    return columns, spam_rows, failures, standard_dropped


def _combine_spam(spam_rows: list[dict]) -> dict:
    out = {}
    for name in ("alpha_m", "delta"):
        value, err = _combine_inverse_variance(
            [r[name] for r in spam_rows], [r[f"{name}_std_error"] ** 2 for r in spam_rows]
        )
        out[name] = {"value": float(value), "std_error": float(err)}
    return out


# one report row as the C encoder writes it, its items on the lines that
# json.dumps(..., indent=1) gives a row of a top-level list
_ROW_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n   ", ": "))

# the fields of an estimates row in estimates.csv, and in report.json (sorted)
_ESTIMATE_FIELDS = ("component", "freq_label", "freq_rad_per_us", "omega_rad_per_us", "value", "std_error", "method")


def _csv_field(text: str) -> str:
    field = io.StringIO()
    csv.writer(field).writerow([text])
    return field.getvalue()[: -len("\r\n")]


def _estimate_texts(rows, columns=None) -> tuple[str, str]:
    """The ``estimates`` list as it stands in report.json, and the text of
    estimates.csv, from the rows or from their ``columns`` (field -> list).

    Each column is formatted once for both files.  Numbers are written by
    ``float.__repr__`` (some values are ``np.float64``, whose ``repr`` is not a
    number): estimates are finite, so this is also the JSON encoder's text.
    Labels, frequencies and omegas repeat from row to row, so each distinct
    one is formatted once; a label's CSV text comes from ``csv.writer``,
    which quotes labels such as ``S+_{1,-1}``.
    """
    header = ",".join(_ESTIMATE_FIELDS) + "\r\n"
    if not rows:
        return "[]", header
    columns = columns or dict(zip(_ESTIMATE_FIELDS, zip(*map(itemgetter(*_ESTIMATE_FIELDS), rows))))
    texts = {name: _float_text(np.array(columns[name], float)) for name in ("freq_rad_per_us", "omega_rad_per_us")}
    texts.update((name, list(map(float.__repr__, columns[name]))) for name in ("value", "std_error"))
    json_texts, csv_texts = dict(texts), texts
    for name in ("component", "freq_label", "method"):
        distinct = set(columns[name])
        json_texts[name] = list(map({label: json.dumps(label) for label in distinct}.__getitem__, columns[name]))
        csv_texts[name] = list(map({label: _csv_field(label) for label in distinct}.__getitem__, columns[name]))
    return (_joined(_json_row(_ESTIMATE_FIELDS), [json_texts[name] for name in sorted(_ESTIMATE_FIELDS)],
                    "[\n  ", ",\n  ", "\n ]"),
            _joined(_csv_row(_ESTIMATE_FIELDS), [csv_texts[name] for name in _ESTIMATE_FIELDS], header))


def _report_text(report: dict, estimates: str) -> str:
    """The text of ``json.dumps(report, sort_keys=True, indent=1)``.

    The lists ``estimates`` (its text, from :func:`_estimate_texts`) and
    ``spam_per_frequency``, thousands of rows on a wide sweep, are spliced
    into the indented rest of the report; the C encoder writes each
    ``spam_per_frequency`` row.
    """
    text = json.dumps({**report, "estimates": [], "spam_per_frequency": []}, sort_keys=True, indent=1)
    spam_rows = ["{\n   " + _ROW_ENCODER.encode(row)[1:-1] + "\n  }" for row in report["spam_per_frequency"]]
    spam = "[\n  " + ",\n  ".join(spam_rows) + "\n ]" if spam_rows else "[]"
    # a line that opens with one space and a quote holds a top-level key; "estimates" sorts first
    head, _, rest = text.partition('\n "estimates": []')
    middle, _, tail = rest.partition('\n "spam_per_frequency": []')
    return "".join((head, '\n "estimates": ', estimates, middle, '\n "spam_per_frequency": ', spam, tail))


@dataclass
class CampaignResult:
    report: dict
    dataset: object
    out_dir: Path | None
    failures: dict

    @property
    def total_failure(self) -> bool:
        return not self.report["estimates"] and bool(self.failures)


def run_campaign(config, *, out_dir=None, seed=None, analytic=None, jobs: int = 1) -> CampaignResult:
    """Run a full campaign from a config dict or path; write its outputs
    into ``out_dir`` when one is given."""
    # ``jobs`` changes nothing: the grid is one block.  It stays only because
    # bench/run_bench.py::check_jobs passes jobs=2; the benchmark change of
    # ROADMAP item 1 drops that call, and then this keyword.
    if not isinstance(config, dict):
        config = load_config(config)
    campaign = build_campaign(config, seed=seed, analytic=analytic)
    out_path, made = None, []
    if out_dir is not None:
        out_path = Path(out_dir)
        made = [path for path in (out_path, *out_path.parents) if not path.exists()]
        out_path.mkdir(parents=True, exist_ok=True)
    try:
        dataset = run_plan(campaign.backend, campaign.plan)
        columns, spam_rows, failures, standard_dropped = _estimate_grid(campaign, dataset)
    except BaseException:
        for path in made:  # deepest first, each still empty
            path.rmdir()
        raise

    rows = [{"component": c, "method": m, "freq_label": label, "freq_rad_per_us": f, "omega_rad_per_us": omega,
             "value": v, "std_error": e} for c, m, label, f, omega, v, e in zip(*columns.values())]
    report = {
        "protocol": campaign.protocol,
        "seed": campaign.seed,
        "analytic": campaign.analytic,
        "backend": campaign.backend_kind,
        "config_digest": campaign.config_digest,
        "omega_q_rad_per_us": campaign.device.omega_q,
        "frequencies_rad_per_us": list(campaign.plan.omegas),
        "estimates": rows,
        "spam_per_frequency": spam_rows,
        "spam": _combine_spam(spam_rows) if spam_rows else None,
        "failures": failures,
        "standard_dropped": standard_dropped,
    }

    if out_path is not None:
        dataset.to_csv(out_path / "datasets.csv")
        estimates_json, estimates_csv = _estimate_texts(rows, columns)
        (out_path / "estimates.csv").write_text(estimates_csv, newline="")
        (out_path / "report.json").write_text(_report_text(report, estimates_json))
        manifest = dataset.to_manifest(
            config_digest=campaign.config_digest,
            protocol=campaign.protocol,
            seed=campaign.seed,
        )
        (out_path / "manifest.json").write_text(manifest)
        lines = [
            f"protocol={campaign.protocol} backend={campaign.backend_kind} "
            f"analytic={campaign.analytic} seed={campaign.seed}",
            f"config_digest={campaign.config_digest}",
            f"frequencies={len(campaign.plan.omegas)} estimates={len(rows)} "
            f"failures={len(failures)}",
        ]
        for key, msg in failures.items():
            lines.append(f"FAILED omega={key}: {msg}")
        for key, msg in standard_dropped.items():
            lines.append(f"DROPPED standard omega={key}: {msg}")
        (out_path / "run.log").write_text("\n".join(lines) + "\n")

    return CampaignResult(report=report, dataset=dataset, out_dir=out_path, failures=failures)


# the fields of an estimates row that compare_reports reads, with their JSON types
_COMPARED_FIELDS = {
    "component": str, "method": str, "omega_rad_per_us": numbers.Real,
    "freq_rad_per_us": numbers.Real, "value": numbers.Real, "std_error": numbers.Real,
}


def compare_reports(report_a: dict, report_b: dict) -> list[dict]:
    """Per-(component, frequency) z-scores between two reconstructions.

    ``z = (value_a - value_b) / hypot(std_error_a, std_error_b)``: 0 where the
    values agree, and an infinity of the sign of the difference where they
    differ with both std errors 0 (as on analytic standard rows).  Refuses,
    with a ValueError, a report without an ``estimates`` list of rows that
    hold every compared field, each number within the finite float range
    and the std error >= 0, a report that lists a (component, method,
    omega, freq) twice, and reports whose grids differ.
    """
    def keyed(report):
        rows = report.get("estimates") if isinstance(report, dict) else None
        if not isinstance(rows, list):
            raise ValueError("not a report: no 'estimates' list")
        table = {}
        for row in rows:
            # NaN, the infinities and ints beyond the float range fail the range check
            if not (isinstance(row, dict) and all(
                    isinstance(value := row.get(name), kind) and not isinstance(value, bool)
                    and (kind is str or abs(value) <= sys.float_info.max) for name, kind in _COMPARED_FIELDS.items())
                    and row["std_error"] >= 0.0):
                raise ValueError(f"not an estimates row: {row!r}")
            key = (row["component"], row["method"], row["omega_rad_per_us"], row["freq_rad_per_us"])
            if key in table:
                raise ValueError(f"duplicate estimates row {key!r}")
            table[key] = (row["value"], row["std_error"])
        return table

    ta, tb = keyed(report_a), keyed(report_b)
    if set(ta) != set(tb):
        raise ValueError("reports cover different (component, method, frequency) grids")
    rows = []
    for key in sorted(ta):
        (va, ea), (vb, eb) = ta[key], tb[key]
        denom = math.hypot(ea, eb)
        z = 0.0 if va == vb else (math.copysign(math.inf, va - vb) if denom == 0.0 else (va - vb) / denom)
        rows.append({
            "component": key[0], "method": key[1], "omega_rad_per_us": key[2],
            "freq_rad_per_us": key[3], "value_a": va, "value_b": vb, "z": z,
        })
    return rows


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _cmd_run(args) -> int:
    try:
        result = run_campaign(
            args.config,
            out_dir=args.out_dir,
            seed=args.seed,
            analytic=True if args.analytic else None,
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DynamicsError as exc:
        print(f"measurement error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # a config that cannot be read is a ConfigError, so this is the output
        print(f"output error: {exc.filename or args.out_dir}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    n_est = len(result.report["estimates"])
    print(f"estimates: {n_est}, failures: {len(result.failures)}")
    for key, msg in result.failures.items():
        print(f"  omega={key}: {msg}", file=sys.stderr)
    if result.out_dir is not None:
        print(f"outputs written to {result.out_dir}")
    if result.total_failure:
        print("estimation failed at every frequency", file=sys.stderr)
        return EXIT_ESTIMATION
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        build_campaign(load_config(args.config))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print("config OK")
    return EXIT_OK


def _cmd_compare(args) -> int:
    try:
        report_a = json.loads(Path(args.report_a).read_text())
        report_b = json.loads(Path(args.report_b).read_text())
        rows = compare_reports(report_a, report_b)
    except (OSError, ValueError) as exc:
        print(f"compare error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print("component,method,omega_rad_per_us,freq_rad_per_us,z")
    for row in rows:
        print(
            f"{row['component']},{row['method']},{row['omega_rad_per_us']!r},"
            f"{row['freq_rad_per_us']!r},{row['z']:.4g}"
        )
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="slqns",
        description="Spin-locking QNS campaigns: simulate, estimate, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a campaign config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out-dir", default=None, help="write the outputs into this directory")
    p_run.add_argument("--analytic", action="store_true", help="bypass shot sampling")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="validate a campaign config")
    p_val.add_argument("config")
    p_val.set_defaults(func=_cmd_validate)

    p_cmp = sub.add_parser("compare", help="diff two report.json files")
    p_cmp.add_argument("report_a")
    p_cmp.add_argument("report_b")
    p_cmp.set_defaults(func=_cmd_compare)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
