"""Command-line front end: config-driven simulation, estimation, fringe
curves, and the classical-vs-quantum calibration comparison.

External boundaries use degrees; everything internal is radians.
Exit codes: 0 success, 2 config/validation error, 3 data-schema error,
4 numerical failure.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .classical import ClassicalInstrument, classical_psi_estimate
from .estimate import FitError, least_squares_fit, three_angle_from_counts, three_angle_invert
from .experiment import (
    AcquisitionPlan,
    CountRecord,
    DetectorModel,
    ExperimentScale,
    analyzer_terms,
    coincidence_rate,
    rate_shape,
    record_columns,
    simulate_counts,
)
from .samples import (
    FilmStack,
    SampleParams,
    film_stack_reflectance,
    fresnel_interface,
    psi_delta_from_coeffs,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

COUNTS_HEADER = "theta1_deg,theta2_deg,dwell_s,counts"
FRINGE_HEADER = "theta1_deg,expected_rate"


class ConfigError(Exception):
    """Malformed or out-of-range configuration; message names the field."""


class DataError(Exception):
    """Input data file does not match the expected schema."""


@dataclass(frozen=True)
class RunConfig:
    sample: SampleParams
    detector: DetectorModel
    scale: ExperimentScale
    plan: AcquisitionPlan
    seed: int
    instrument: ClassicalInstrument


def _get(d: dict, key: str, context: str, required=True, default=None):
    if key not in d:
        if required:
            raise ConfigError(f"{context}.{key}: missing required field")
        return default
    return d[key]


def _num(value, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context}: expected a number, got {value!r}")
    return float(value)


def _complex_index(d, context: str) -> complex:
    if not isinstance(d, dict):
        raise ConfigError(f"{context}: expected an object with n_re/n_im")
    re = _num(_get(d, "n_re", context), f"{context}.n_re")
    im = _num(_get(d, "n_im", context, required=False, default=0.0), f"{context}.n_im")
    return complex(re, im)


def _parse_sample(d, context="sample") -> SampleParams:
    if not isinstance(d, dict):
        raise ConfigError(f"{context}: expected an object")
    kind = _get(d, "type", context)
    try:
        if kind == "direct":
            psi = math.radians(_num(_get(d, "psi_deg", context), f"{context}.psi_deg"))
            delta = math.radians(_num(_get(d, "delta_deg", context), f"{context}.delta_deg"))
            return SampleParams(psi=psi, delta=delta)
        if kind == "mirror":
            return SampleParams.mirror()
        if kind == "interface":
            n_amb = _num(_get(d, "n_ambient", context), f"{context}.n_ambient")
            angle = math.radians(_num(_get(d, "angle_deg", context), f"{context}.angle_deg"))
            n_sub = _complex_index(_get(d, "substrate", context), f"{context}.substrate")
            return psi_delta_from_coeffs(fresnel_interface(n_amb, n_sub, angle))
        if kind == "stack":
            wavelength = _num(_get(d, "wavelength_nm", context), f"{context}.wavelength_nm") * 1e-9
            angle = math.radians(_num(_get(d, "angle_deg", context), f"{context}.angle_deg"))
            n_amb = _num(_get(d, "n_ambient", context), f"{context}.n_ambient")
            raw_layers = _get(d, "layers", context, required=False, default=[])
            if not isinstance(raw_layers, list):
                raise ConfigError(f"{context}.layers: expected a list")
            layers = []
            for i, layer in enumerate(raw_layers):
                lc = f"{context}.layers[{i}]"
                n = _complex_index(layer, lc)
                thickness = _num(_get(layer, "d_nm", lc), f"{lc}.d_nm") * 1e-9
                layers.append((n, thickness))
            n_sub = _complex_index(_get(d, "substrate", context), f"{context}.substrate")
            stack = FilmStack(
                wavelength=wavelength,
                incidence_angle=angle,
                n_ambient=n_amb,
                layers=tuple(layers),
                n_substrate=n_sub,
            )
            return psi_delta_from_coeffs(film_stack_reflectance(stack))
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc
    raise ConfigError(f"{context}.type: unknown sample type {kind!r}")


def _parse_plan(d, context="plan") -> AcquisitionPlan:
    if not isinstance(d, dict):
        raise ConfigError(f"{context}: expected an object")
    theta2 = math.radians(_num(_get(d, "theta2_deg", context), f"{context}.theta2_deg"))
    dwell = _num(_get(d, "dwell_s", context), f"{context}.dwell_s")
    if dwell <= 0:
        raise ConfigError(f"{context}.dwell_s: must be positive")
    if "theta1_list_deg" in d:
        lst = d["theta1_list_deg"]
        if not isinstance(lst, list) or not lst:
            raise ConfigError(f"{context}.theta1_list_deg: expected a non-empty list")
        angles = [_num(v, f"{context}.theta1_list_deg[{i}]") for i, v in enumerate(lst)]
    elif "sweep" in d:
        sw = d["sweep"]
        start = _num(_get(sw, "start", f"{context}.sweep"), f"{context}.sweep.start")
        stop = _num(_get(sw, "stop", f"{context}.sweep"), f"{context}.sweep.stop")
        step = _num(_get(sw, "step", f"{context}.sweep"), f"{context}.sweep.step")
        if step <= 0:
            raise ConfigError(f"{context}.sweep.step: must be positive")
        if stop < start:
            raise ConfigError(f"{context}.sweep.stop: must be >= start")
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        angles = [start + i * step for i in range(n)]
    else:
        raise ConfigError(f"{context}: needs theta1_list_deg or sweep")
    settings = tuple((math.radians(a), theta2, dwell) for a in angles)
    try:
        return AcquisitionPlan(settings)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")

    sample = _parse_sample(_get(raw, "sample", "config"))
    det_raw = _get(raw, "detector", "config", required=False, default={})
    try:
        detector = DetectorModel(
            eta1=_num(det_raw.get("eta1", 1.0), "detector.eta1"),
            eta2=_num(det_raw.get("eta2", 1.0), "detector.eta2"),
            accidental_rate=_num(det_raw.get("accidental_per_s", 0.0), "detector.accidental_per_s"),
            visibility=_num(det_raw.get("visibility", 1.0), "detector.visibility"),
        )
    except ValueError as exc:
        raise ConfigError(f"detector: {exc}") from exc
    scale_raw = _get(raw, "scale", "config")
    try:
        scale = ExperimentScale(pair_rate=_num(_get(scale_raw, "pairs_per_s", "scale"), "scale.pairs_per_s"))
    except ValueError as exc:
        raise ConfigError(f"scale.pairs_per_s: {exc}") from exc
    plan = _parse_plan(_get(raw, "plan", "config"))
    seed = _get(raw, "seed", "config", required=False, default=0)
    if isinstance(seed, bool) or not isinstance(seed, int) or not (0 <= seed < 2**64):
        raise ConfigError("seed: must be an unsigned 64-bit integer")
    inst_raw = _get(raw, "instrument", "config", required=False, default={})
    try:
        instrument = ClassicalInstrument(
            gain_drift=_num(inst_raw.get("gain_drift", 1.0), "instrument.gain_drift"),
            extinction=_num(inst_raw.get("extinction", 0.0), "instrument.extinction"),
        )
    except ValueError as exc:
        raise ConfigError(f"instrument: {exc}") from exc
    return RunConfig(
        sample=sample, detector=detector, scale=scale, plan=plan, seed=seed, instrument=instrument
    )


def _write_text(text: str, out_path):
    if out_path:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _round9(obj):
    """Round all floats to 9 significant digits for stable serialization."""
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    return obj


def _write_json(report: dict, out_path):
    _write_text(json.dumps(_round9(report), indent=2) + "\n", out_path)


def counts_csv(records) -> str:
    lines = [COUNTS_HEADER]
    for rec in records:
        lines.append(
            f"{math.degrees(rec.theta1):.6f},{math.degrees(rec.theta2):.6f},"
            f"{rec.duration:.6f},{rec.counts}"
        )
    return "\n".join(lines) + "\n"


def parse_counts_csv(text: str):
    """Parse the counts CSV into CountRecord objects (angles -> radians)."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != COUNTS_HEADER:
        raise DataError(f"expected header '{COUNTS_HEADER}'")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise DataError(f"line {lineno}: expected 4 comma-separated fields")
        try:
            t1 = float(parts[0])
            t2 = float(parts[1])
            dwell = float(parts[2])
            counts = int(parts[3])
        except ValueError as exc:
            raise DataError(f"line {lineno}: {exc}") from exc
        try:
            records.append(
                CountRecord(
                    theta1=math.radians(t1),
                    theta2=math.radians(t2),
                    duration=dwell,
                    counts=counts,
                )
            )
        except ValueError as exc:
            raise DataError(f"line {lineno}: {exc}") from exc
    if not records:
        raise DataError("no data rows")
    return records


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    records = simulate_counts(cfg.plan, cfg.scale, cfg.detector, cfg.sample, seed)
    _write_text(counts_csv(records), args.out)
    return EXIT_OK


def cmd_fringe(args) -> int:
    cfg = load_config(args.config)
    c_eff = cfg.scale.detected_rate(cfg.detector)
    lines = [FRINGE_HEADER]
    for t1, t2, _ in cfg.plan.settings:
        rate = coincidence_rate(c_eff, cfg.sample, t1, t2, cfg.detector.visibility)
        lines.append(f"{math.degrees(t1):.6f},{rate:.6f}")
    _write_text("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _estimate_report(estimate, records, det: DetectorModel, args) -> dict:
    deg = 180.0 / math.pi
    jac = np.diag([1.0, deg, deg])
    cov_deg = jac @ estimate.covariance @ jac
    t1, t2, dur, k = record_columns(records)
    shape = rate_shape(analyzer_terms(t1, t2), estimate.beta_hat, estimate.delta_mag_hat, det.visibility)
    residuals = k - (estimate.C_hat * shape + det.accidental_rate) * dur
    ground_truth = None
    if args.true_psi_deg is not None:
        ground_truth = {"psi_deg": args.true_psi_deg, "delta_deg": args.true_delta_deg}
    return {
        "version": __version__,
        "method": estimate.method,
        "psi_deg": math.degrees(estimate.psi_hat),
        "delta_deg": math.degrees(estimate.delta_mag_hat),
        "C_hat": estimate.C_hat,
        "cov": cov_deg.tolist(),
        "warnings": list(estimate.warnings),
        "residuals": residuals.tolist(),
        "detector": {
            "eta1": det.eta1,
            "eta2": det.eta2,
            "accidental_per_s": det.accidental_rate,
            "visibility": det.visibility,
        },
        "ground_truth": ground_truth,
    }


def cmd_estimate(args) -> int:
    try:
        with open(args.counts_csv) as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {args.counts_csv}: {exc}") from exc
    records = parse_counts_csv(text)
    # Canonical order makes the report independent of input row order.
    records.sort(key=lambda r: (r.theta1, r.theta2, r.duration, r.counts))
    try:
        det = DetectorModel(
            eta1=args.eta1,
            eta2=args.eta2,
            accidental_rate=args.accidental_per_s,
            visibility=args.visibility,
        )
    except ValueError as exc:
        raise ConfigError(f"detector flags: {exc}") from exc

    if args.method == "three-angle":
        try:
            estimate = three_angle_from_counts(records, det)
        except LookupError as exc:
            raise DataError(str(exc)) from exc
    else:
        try:
            estimate = least_squares_fit(records, det)
        except FitError as exc:
            if exc.estimate is not None:
                report = _estimate_report(exc.estimate, records, det, args)
                report["warnings"].append(str(exc))
                _write_json(report, args.out)
            else:
                print(f"error: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
    _write_json(_estimate_report(estimate, records, det, args), args.out)
    return EXIT_OK


def cmd_baseline(args) -> int:
    cfg = load_config(args.config)
    classical_psi = classical_psi_estimate(cfg.sample, cfg.instrument)
    c_eff = cfg.scale.detected_rate(cfg.detector)
    g = cfg.instrument.gain_drift
    rates = [
        g * coincidence_rate(c_eff, cfg.sample, math.radians(t1), math.radians(45.0),
                             cfg.detector.visibility)
        for t1 in (0.0, 45.0, 90.0)
    ]
    quantum = three_angle_invert(*rates)
    report = {
        "version": __version__,
        "classical_psi_deg": math.degrees(classical_psi),
        "quantum_psi_deg": math.degrees(quantum.psi_hat),
        "true_psi_deg": math.degrees(cfg.sample.psi),
        "gain_drift": g,
        "extinction": cfg.instrument.extinction,
    }
    _write_json(report, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qellip",
        description="Twin-photon quantum ellipsometry simulator and estimator",
    )
    parser.add_argument("--version", action="version", version=f"qellip {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate Poisson coincidence counts as CSV")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_fr = sub.add_parser("fringe", help="noiseless expected-rate curve as CSV")
    p_fr.add_argument("--config", required=True)
    p_fr.add_argument("--out", default=None)
    p_fr.set_defaults(func=cmd_fringe)

    p_est = sub.add_parser("estimate", help="recover (C, psi, delta) from a counts CSV")
    p_est.add_argument("counts_csv")
    p_est.add_argument("--method", choices=("three-angle", "fit"), default="fit")
    p_est.add_argument("--eta1", type=float, default=1.0)
    p_est.add_argument("--eta2", type=float, default=1.0)
    p_est.add_argument("--accidental-per-s", type=float, default=0.0)
    p_est.add_argument("--visibility", type=float, default=1.0)
    p_est.add_argument("--true-psi-deg", type=float, default=None)
    p_est.add_argument("--true-delta-deg", type=float, default=None)
    p_est.add_argument("--out", default=None)
    p_est.set_defaults(func=cmd_estimate)

    p_base = sub.add_parser("baseline", help="classical vs quantum psi under miscalibration")
    p_base.add_argument("--config", required=True)
    p_base.add_argument("--out", default=None)
    p_base.set_defaults(func=cmd_baseline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (FitError, ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
