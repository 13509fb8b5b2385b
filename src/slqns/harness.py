"""Campaign front-end: config loading, end-to-end runs, and report diffs.

A campaign config is a single JSON document with MHz/us units at the
boundary (internally everything is rad/us).  Schema sketch::

    {
      "protocol": 2,
      "seed": 1234,
      "device": {"qubit_frequency_MHz": 4970.0},
      "spam": {"alpha_sp": 1.0, "alpha_m": 0.96, "delta": 0.01},
      "spectra": {
        "dephasing": {
          "model": {"kind": "Lorentzian",
                    "params": {"peak_frequency_MHz": 0.6366, "correlation_time_us": 0.5}},
          "scale": 1.0,
          "quantum_lag_us": 0.3
        },
        "transverse": {"model": {"kind": "White", "params": {"level_per_us": 0.01}}}
      },
      "backend": {"type": "closed_form", "analytic": false},
      "plan": {"omegas_MHz": [...], "times_us": [...], "aligned_n": [...],
               "shots": 1000}
    }

Spectrum kinds: ``Lorentzian`` (peak_frequency_MHz, correlation_time_us),
``White`` (level_per_us), ``Tabulated`` (frequency_grid_MHz, values_per_us).
The dephasing block defines ``S+ = scale * model`` and
``S- = scale * model * sin(lag * omega)``; a transverse block adds classical
(even) transverse spectra.  A trajectory backend synthesizes noise from the
dephasing block instead of evaluating it analytically; its block also takes
``n_realizations`` (noise realizations averaged per point, >= 2, default
400), ``n_omega`` (synthesis frequency bins, >= 2, default 512) and
``bath_variant`` (``"main_text"``, the default, or ``"three_axis"``).

Optional plan keys: ``aligned_n`` (frame-aligned indices n, T = 2 pi n /
|Omega|, of the protocol 3/4 coherence block), ``include_aligned`` (run that
block; defaults to whether ``aligned_n`` is non-empty), ``allow_low_frequency``
(admit drives below the 2.3 kHz exclusion window, default false) and
``long_time_threshold`` (minimum |Omega| T, default 10).

The ``alpha_m`` fields that protocols 2 and 4 report (per frequency and
combined) hold the combined ``alpha = alpha_sp * alpha_m``: the estimators
cannot separate preparation from measurement contrast.  Next to their robust
rows, protocols 2 and 4 also emit ``standard`` comparison rows (the
single-time inversion at the longest plan time); a frequency whose
comparison fails has none.

``run_campaign`` writes ``datasets.csv``, ``estimates.csv``, ``report.json``,
``manifest.json`` and ``run.log`` into the output directory; identical config
and seed give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .estimation import (
    EstimationError,
    LinearizationGuardError,
    SpectralEstimate,
    estimate_single_axis_standard,
    invert_multi_axis,
    robust_multi_axis,
    robust_single_axis_linearized,
    robust_single_axis_nonlinear,
)
from .noisegen import BathConfig, default_dsa_config
from .protocols import (
    ClosedFormTclBackend,
    PlanError,
    ProtocolPlan,
    TrajectoryBackend,
    run_plan,
)
from .spam import SpamParams
from .spectra import (
    DeviceParams,
    Lorentzian,
    SphericalSpectraSet,
    SpectraError,
    Tabulated,
    White,
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


def _require(mapping, key, context):
    try:
        return mapping[key]
    except (KeyError, TypeError):
        raise ConfigError(f"missing '{key}' in {context}") from None


def _model_from_config(block, context):
    kind = _require(block, "kind", context)
    params = _require(block, "params", context)
    try:
        if kind == "Lorentzian":
            return Lorentzian(
                omega0=mhz_to_rad_per_us(_require(params, "peak_frequency_MHz", context)),
                tc=float(_require(params, "correlation_time_us", context)),
            )
        if kind == "White":
            return White(level=float(_require(params, "level_per_us", context)))
        if kind == "Tabulated":
            grid = [mhz_to_rad_per_us(f) for f in _require(params, "frequency_grid_MHz", context)]
            return Tabulated(grid=tuple(grid), values=tuple(_require(params, "values_per_us", context)))
    except SpectraError as exc:
        raise ConfigError(f"invalid spectrum in {context}: {exc}") from exc
    raise ConfigError(f"unknown spectrum kind {kind!r} in {context}")


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


def _dephasing(config):
    """(model, scale, lag) of the validated ``spectra.dephasing`` block."""
    deph = _require(_require(config, "spectra", "config"), "dephasing", "spectra")
    model = _model_from_config(_require(deph, "model", "spectra.dephasing"), "spectra.dephasing.model")
    scale = float(deph.get("scale", 1.0))
    lag = float(deph.get("quantum_lag_us", 0.0))
    if scale <= 0.0:
        raise ConfigError("spectra.dephasing.scale must be > 0")
    if lag < 0.0:
        raise ConfigError("spectra.dephasing.quantum_lag_us must be >= 0")
    return model, scale, lag


def _build_spectra(config) -> SphericalSpectraSet:
    model, scale, lag = _dephasing(config)

    def s_plus(omega):
        return scale * model.value(omega)

    if lag > 0.0:
        def s_minus(omega):
            return scale * model.value(omega) * np.sin(lag * omega)
        spectra = SphericalSpectraSet.from_dephasing_plus_minus(s_plus, s_minus)
    else:
        spectra = SphericalSpectraSet.from_dephasing_plus_minus(s_plus)

    trans = config["spectra"].get("transverse")
    if trans is not None:
        t_model = _model_from_config(_require(trans, "model", "spectra.transverse"), "spectra.transverse.model")
        t_scale = float(trans.get("scale", 1.0))
        if t_scale <= 0.0:
            raise ConfigError("spectra.transverse.scale must be > 0")
        spectra = spectra.with_transverse(lambda omega: t_scale * t_model.value(omega))
    return spectra


def build_campaign(config: dict, *, seed=None, analytic=None) -> Campaign:
    """Construct and validate every campaign component from a config dict."""
    protocol = int(_require(config, "protocol", "config"))
    master_seed = int(config.get("seed", 0) if seed is None else seed)

    device_cfg = _require(config, "device", "config")
    device = DeviceParams(omega_q=mhz_to_rad_per_us(_require(device_cfg, "qubit_frequency_MHz", "device")))

    spam_cfg = config.get("spam", {})
    try:
        spam = SpamParams(
            alpha_sp=float(spam_cfg.get("alpha_sp", 1.0)),
            c_u=complex(float(spam_cfg.get("c_re", 0.0)), float(spam_cfg.get("c_im", 0.0))),
            alpha_m=float(spam_cfg.get("alpha_m", 1.0)),
            delta=float(spam_cfg.get("delta", 0.0)),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid spam block: {exc}") from exc

    plan_cfg = _require(config, "plan", "config")
    omegas = tuple(mhz_to_rad_per_us(f) for f in _require(plan_cfg, "omegas_MHz", "plan"))
    times = tuple(float(t) for t in _require(plan_cfg, "times_us", "plan"))
    try:
        plan = ProtocolPlan(
            protocol_id=protocol,
            omegas=omegas,
            times=times,
            aligned_n=tuple(int(n) for n in plan_cfg.get("aligned_n", ())),
            n_shots=int(plan_cfg.get("shots", 1000)),
            seed=master_seed,
            long_time_threshold=float(plan_cfg.get("long_time_threshold", 10.0)),
            allow_low_frequency=bool(plan_cfg.get("allow_low_frequency", False)),
            include_aligned=bool(plan_cfg.get("include_aligned", bool(plan_cfg.get("aligned_n")))),
        )
    except PlanError as exc:
        raise ConfigError(f"invalid plan: {exc}") from exc

    for omega in omegas:
        try:
            device.check_drive_amplitude(omega)
        except SpectraError as exc:
            raise ConfigError(str(exc)) from exc

    backend_cfg = config.get("backend", {"type": "closed_form"})
    backend_kind = backend_cfg.get("type", "closed_form")
    use_analytic = bool(backend_cfg.get("analytic", False) if analytic is None else analytic)

    if backend_kind == "closed_form":
        spectra = _build_spectra(config)
        backend = ClosedFormTclBackend(spectra, device, spam, analytic=use_analytic)
    elif backend_kind == "trajectory":
        model, scale, lag = _dephasing(config)
        n_omega = int(backend_cfg.get("n_omega", 512))
        n_realizations = int(backend_cfg.get("n_realizations", 400))
        if n_realizations < 2:
            raise ConfigError(f"backend.n_realizations must be >= 2, got {n_realizations}")
        try:
            if scale != 1.0:
                # fold the scale into a tabulated generating spectrum
                base = default_dsa_config(model, n_omega=n_omega)
                grid = np.linspace(0.0, base.omega_max, 2049)
                model = Tabulated(grid=tuple(grid), values=tuple(scale * np.asarray(model.value(grid))))
            dsa = default_dsa_config(model, n_omega=n_omega)
        except ValueError as exc:
            raise ConfigError(f"invalid trajectory backend: {exc}") from exc
        variant = backend_cfg.get("bath_variant", "main_text")
        if variant == "main_text":
            bath = BathConfig.main_text(lag)
        elif variant == "three_axis":
            bath = BathConfig.three_axis(lag)
        else:
            raise ConfigError(f"unknown bath_variant {variant!r}")
        backend = TrajectoryBackend(
            dsa,
            bath,
            spam,
            n_realizations=n_realizations,
            analytic=use_analytic,
        )
    else:
        raise ConfigError(f"unknown backend type {backend_kind!r}")

    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode() + str(master_seed).encode()
    ).hexdigest()
    return Campaign(
        protocol=protocol,
        seed=master_seed,
        device=device,
        spam=spam,
        plan=plan,
        backend=backend,
        backend_kind=backend_kind,
        analytic=use_analytic,
        config_digest=digest,
    )


# ---------------------------------------------------------------------------
# estimation orchestration
# ---------------------------------------------------------------------------


def _estimate_to_row(omega: float, est: SpectralEstimate) -> dict:
    return {
        "component": est.component,
        "method": est.method.value,
        "freq_label": est.freq_label,
        "freq_rad_per_us": est.freq_value,
        "omega_rad_per_us": omega,
        "value": est.value,
        "std_error": est.std_error,
    }


def _spam_row(omega: float, path: str, alpha, alpha_err, delta, delta_err) -> dict:
    """Per-frequency SPAM record; ``alpha_m`` holds the combined alpha."""
    return {
        "omega_rad_per_us": omega, "alpha_m": alpha, "alpha_m_std_error": alpha_err,
        "delta": delta, "delta_std_error": delta_err, "path": path,
    }


def _estimate_frequency(campaign: Campaign, dataset, omega: float):
    """All estimates for one drive amplitude: (rows, spam_row or None).

    Protocols 2 and 4 first run their SPAM-robust estimator.  Every protocol
    then inverts its expectations at the longest plan time: for protocols 1
    and 3 this is the estimate, for 2 and 4 a comparison that is dropped when
    it fails.
    """
    plan, omega_q = campaign.plan, campaign.device.omega_q
    robust, spam_row = [], None
    if campaign.protocol == 2:
        try:
            lin = robust_single_axis_linearized(dataset, omega)
            robust = [lin.s_plus, lin.am_s_minus]
            spam_row = _spam_row(omega, "linearized", lin.alpha, lin.alpha_err, lin.delta, lin.delta_err)
        except LinearizationGuardError:
            fit = robust_single_axis_nonlinear(dataset, omega)
            robust = [fit.s_plus, fit.s_minus]
            spam_row = _spam_row(omega, "nonlinear", fit.alpha_m, fit.alpha_m_err, fit.delta, fit.delta_err)
    elif campaign.protocol == 4:
        result = robust_multi_axis(dataset, omega, omega_q)
        robust = result.estimates.values()
        spam_row = _spam_row(
            omega, "multi_axis", result.alpha_m, result.alpha_m_err, result.delta, result.delta_err
        )
        spam_row["intercepts_consistent"] = result.intercept_consistent

    t_max = max(plan.times)
    try:
        if campaign.protocol in (1, 2):
            rec_p = dataset.get("x", omega, "x+", "x", t_max)
            rec_m = dataset.get("x", omega, "x-", "x", t_max)
            standard = estimate_single_axis_standard(rec_p, rec_m, t_max, omega)
        else:
            aligned = plan.aligned_times(omega)
            aligned_t = None
            if plan.include_aligned and aligned.size:
                aligned_t = float(aligned[0] if campaign.protocol == 3 else aligned[-1])
            standard = invert_multi_axis(dataset, omega, omega_q, t_max, aligned_t).estimates.values()
    except EstimationError:
        if not robust:
            raise
        standard = ()
    rows = [_estimate_to_row(omega, est) for est in (*robust, *standard)]
    return rows, spam_row


def _combine_spam(spam_rows: list[dict]) -> dict:
    out = {}
    for name in ("alpha_m", "delta"):
        vals = np.array([r[name] for r in spam_rows])
        errs = np.array([r[f"{name}_std_error"] for r in spam_rows])
        if np.all(errs > 0.0):
            w = 1.0 / errs**2
            value = float(np.sum(w * vals) / np.sum(w))
            err = float(math.sqrt(1.0 / np.sum(w)))
        else:
            value, err = float(vals.mean()), 0.0
        out[name] = {"value": value, "std_error": err}
    return out


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
    """Run a full campaign from a config dict or path; optionally persist."""
    if not isinstance(config, dict):
        config = load_config(config)
    campaign = build_campaign(config, seed=seed, analytic=analytic)
    dataset = run_plan(campaign.backend, campaign.plan, jobs=jobs)

    rows: list[dict] = []
    spam_rows: list[dict] = []
    failures: dict[str, str] = {}
    for omega in campaign.plan.omegas:
        try:
            freq_rows, spam_row = _estimate_frequency(campaign, dataset, omega)
            rows.extend(freq_rows)
            if spam_row is not None:
                spam_rows.append(spam_row)
        except EstimationError as exc:
            failures[repr(omega)] = str(exc)

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
    }

    out_path = None
    if out_dir is not None or "output_dir" in config:
        out_path = Path(out_dir if out_dir is not None else config["output_dir"])
        out_path.mkdir(parents=True, exist_ok=True)
        dataset.to_csv(out_path / "datasets.csv")
        with open(out_path / "estimates.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["component", "freq_label", "freq_rad_per_us", "omega_rad_per_us",
                 "value", "std_error", "method"]
            )
            for row in rows:
                writer.writerow([
                    row["component"], row["freq_label"], repr(row["freq_rad_per_us"]),
                    repr(row["omega_rad_per_us"]), repr(row["value"]),
                    repr(row["std_error"]), row["method"],
                ])
        (out_path / "report.json").write_text(json.dumps(report, sort_keys=True, indent=1))
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
        (out_path / "run.log").write_text("\n".join(lines) + "\n")

    return CampaignResult(report=report, dataset=dataset, out_dir=out_path, failures=failures)


def compare_reports(report_a: dict, report_b: dict) -> list[dict]:
    """Per-(component, frequency) z-scores between two reconstructions.

    Refuses to compare reports whose (component, omega, freq) grids differ.
    """
    def keyed(report):
        table = {}
        for row in report["estimates"]:
            key = (row["component"], row["method"], row["omega_rad_per_us"], row["freq_rad_per_us"])
            table[key] = (row["value"], row["std_error"])
        return table

    ta, tb = keyed(report_a), keyed(report_b)
    if set(ta) != set(tb):
        raise ValueError("reports cover different (component, method, frequency) grids")
    rows = []
    for key in sorted(ta):
        (va, ea), (vb, eb) = ta[key], tb[key]
        denom = math.hypot(ea, eb)
        z = 0.0 if va == vb else (math.inf if denom == 0.0 else (va - vb) / denom)
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
            jobs=args.jobs,
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
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
    except (OSError, ValueError, KeyError) as exc:
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
    p_run.add_argument("--out-dir", default=None, help="override the output directory")
    p_run.add_argument("--analytic", action="store_true", help="bypass shot sampling")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel frequencies")
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
