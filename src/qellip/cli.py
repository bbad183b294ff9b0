"""Command-line front end: config-driven simulation, estimation, fringe
curves, and the classical-vs-quantum calibration comparison.

External boundaries use degrees; everything internal is radians.
Exit codes: 0 success, 2 config/validation error, 3 data-schema error,
4 numerical failure.
"""

import argparse
import functools
import json
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import __version__, _ascii
from .classical import ClassicalInstrument, classical_psi_estimate
from .estimate import (
    _THREE_ANGLE_THETA1_DEG,
    _THREE_ANGLE_THETA2_DEG,
    FitError,
    _fit,
    three_angle_from_counts,
    three_angle_invert,
)
from .experiment import (
    AcquisitionPlan,
    CountRecord,
    CountTable,
    DetectorModel,
    ExperimentScale,
    _is_seed,
    analyzer_terms,
    coincidence_rate,
    count_table,
    mean_counts,
    record_columns,
    simulate_counts,
)
from .samples import (
    FilmStack,
    SampleParams,
    film_stack_reflectance,
    psi_delta_from_coeffs,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

COUNTS_HEADER = "theta1_deg,theta2_deg,dwell_s,counts"
FRINGE_HEADER = "theta1_deg,expected_rate"
MAX_SWEEP_POINTS = 1_000_000  # checked before any sweep angle is made


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


def _get(d: dict, key: str, context: str):
    if key not in d:
        raise ConfigError(f"{context}.{key}: missing required field")
    return d[key]


def _build(context: str, make, **fields):
    """make(**fields), with its ValueError reported as a ConfigError naming context."""
    try:
        return make(**fields)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _obj(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{context}: expected an object")
    return value


def _finite(value, context: str) -> float:
    # json also reads NaN, Infinity and integers too large for a float
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{context}: expected a finite number, got {value!r}")
    return float(value)


def _num(d: dict, key: str, context: str, default=None) -> float:
    """d[key] as a finite float, named context.key; required unless a default is given."""
    return _finite(_get(d, key, context) if default is None else d.get(key, default), f"{context}.{key}")


def _seed(value, context: str) -> int:
    if not _is_seed(value):
        raise ConfigError(f"{context}: must be an unsigned 64-bit integer")
    return value


def _complex_index(d, context: str) -> complex:
    return complex(_num(_obj(d, context), "n_re", context), _num(d, "n_im", context, 0.0))


def _parse_sample(d, context="sample") -> SampleParams:
    kind = _get(d, "type", context)
    if kind == "direct":
        psi = math.radians(_num(d, "psi_deg", context))
        delta = math.radians(_num(d, "delta_deg", context))
        return _build(context, SampleParams, psi=psi, delta=delta)
    if kind == "mirror":
        return SampleParams.mirror()
    if kind not in ("interface", "stack"):
        raise ConfigError(f"{context}.type: unknown sample type {kind!r}")
    # An interface is a stack with no layers, where the wavelength drops out.
    wavelength = _num(d, "wavelength_nm", context) * 1e-9 if kind == "stack" else 1.0
    angle = math.radians(_num(d, "angle_deg", context))
    n_amb = _num(d, "n_ambient", context)
    raw_layers = d.get("layers", []) if kind == "stack" else []
    if not isinstance(raw_layers, list):
        raise ConfigError(f"{context}.layers: expected a list")
    layers = []
    for i, layer in enumerate(raw_layers):
        lc = f"{context}.layers[{i}]"
        layers.append((_complex_index(layer, lc), _num(layer, "d_nm", lc) * 1e-9))
    n_sub = _complex_index(_get(d, "substrate", context), f"{context}.substrate")
    stack = _build(context, FilmStack, wavelength=wavelength, incidence_angle=angle,
                   n_ambient=n_amb, layers=tuple(layers), n_substrate=n_sub)
    return _build(context, psi_delta_from_coeffs, pair=_build(context, film_stack_reflectance, stack=stack))


def _parse_plan(d, context="plan") -> AcquisitionPlan:
    theta2 = math.radians(_num(d, "theta2_deg", context))
    dwell = _num(d, "dwell_s", context)
    if dwell <= 0:
        raise ConfigError(f"{context}.dwell_s: must be positive")
    if "theta1_list_deg" in d:
        lst = d["theta1_list_deg"]
        if not isinstance(lst, list) or not lst:
            raise ConfigError(f"{context}.theta1_list_deg: expected a non-empty list")
        angles = [_finite(v, f"{context}.theta1_list_deg[{i}]") for i, v in enumerate(lst)]
    elif "sweep" in d:
        sw = _obj(d["sweep"], f"{context}.sweep")
        start, stop, step = (_num(sw, key, f"{context}.sweep") for key in ("start", "stop", "step"))
        if step <= 0:
            raise ConfigError(f"{context}.sweep.step: must be positive")
        if stop < start:
            raise ConfigError(f"{context}.sweep.stop: must be >= start")
        steps = (stop - start) / step  # inf where the ratio overflows
        if not steps + 1.0 <= MAX_SWEEP_POINTS:
            raise ConfigError(
                f"{context}.sweep.step: the sweep would have more than {MAX_SWEEP_POINTS} points"
            )
        angles = start + np.arange(int(math.floor(steps + 1e-9)) + 1) * step
    else:
        raise ConfigError(f"{context}: needs theta1_list_deg or sweep")
    theta1 = np.radians(angles)
    settings = np.column_stack((theta1, np.full_like(theta1, theta2), np.full_like(theta1, dwell)))
    return _build(context, AcquisitionPlan, settings=settings)


def _undecodable(exc: UnicodeDecodeError) -> str:
    """The byte of a whole-file read that is not UTF-8, named with its offset in the file."""
    return f"not UTF-8: byte 0x{exc.object[exc.start]:02x} at offset {exc.start}"


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {_undecodable(exc)}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: invalid JSON: nested too deeply") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")

    sample = _parse_sample(_obj(_get(raw, "sample", "config"), "sample"))
    det_raw = _obj(raw.get("detector", {}), "detector")
    detector = _build("detector", DetectorModel,
                      eta1=_num(det_raw, "eta1", "detector", 1.0),
                      eta2=_num(det_raw, "eta2", "detector", 1.0),
                      accidental_rate=_num(det_raw, "accidental_per_s", "detector", 0.0),
                      visibility=_num(det_raw, "visibility", "detector", 1.0))
    scale_raw = _obj(_get(raw, "scale", "config"), "scale")
    scale = _build("scale.pairs_per_s", ExperimentScale, pair_rate=_num(scale_raw, "pairs_per_s", "scale"))
    _build("scale.pairs_per_s", scale.detected_rate, det=detector)
    plan = _parse_plan(_obj(_get(raw, "plan", "config"), "plan"))
    seed = _seed(raw.get("seed", 0), "seed")
    inst_raw = _obj(raw.get("instrument", {}), "instrument")
    instrument = _build("instrument", ClassicalInstrument,
                        gain_drift=_num(inst_raw, "gain_drift", "instrument", 1.0),
                        extinction=_num(inst_raw, "extinction", "instrument", 0.0))
    return RunConfig(
        sample=sample, detector=detector, scale=scale, plan=plan, seed=seed, instrument=instrument
    )


def _write_text(text: str, out_path):
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"--out: cannot write {out_path}: {exc}") from exc


def _round9(obj):
    """Round all floats to 9 significant digits for stable serialization;
    a non-finite float becomes None (JSON null): NaN is not JSON.  An array
    is written as its list."""
    if isinstance(obj, float):
        return float(f"{obj:.9g}") if math.isfinite(obj) else None
    if isinstance(obj, np.ndarray):
        return _round9(obj.tolist())
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    return obj


def _write_json(report: dict, out_path):
    """Write json.dumps(_round9(report), indent=2, allow_nan=False) and a
    newline.

    A report's "residuals" (floats: an array or a list) are written by
    _ascii.residual_block where they lie in its domain (see there), spliced
    in where json wrote an empty list; the splice point cannot occur inside
    a string, where json escapes quotes.  Otherwise the definition writes
    the whole report.
    """
    residuals = report.get("residuals")
    block = None if residuals is None else _ascii.residual_block(np.asarray(residuals, dtype=np.float64))
    text = json.dumps(_round9(report if block is None else {**report, "residuals": []}), indent=2,
                      allow_nan=False)
    if block is not None:
        head, key, tail = text.partition('\n  "residuals": ')
        text = head + key + block + tail[len("[]"):]
    _write_text(text + "\n", out_path)


def _csv_text(header: str, formats, columns) -> str:
    """The header line, then one line per row of the equal-length column
    arrays, each field written by its % format and the fields joined by
    commas.

    _ascii.csv_text writes it where the columns lie in its domain (see
    there); otherwise this definition writes it, row by row.
    """
    text = _ascii.csv_text(header, formats, columns)
    if text is not None:
        return text
    row = ",".join(formats) + "\n"
    return header + "\n" + "".join([row % r for r in zip(*(c.tolist() for c in columns))])


def counts_csv(records) -> str:
    table = count_table(records)
    return _csv_text(COUNTS_HEADER, ("%.6f", "%.6f", "%.6f", "%d"),
                     (np.degrees(table.theta1), np.degrees(table.theta2), table.duration, table.counts))


def parse_counts_csv(text: str) -> CountTable:
    """Parse the counts CSV into a CountTable (angles -> radians).

    _read_lines defines the format and every message.  numpy's C reader is
    tried first on the same lines; what it refuses, _read_lines reads.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != COUNTS_HEADER:
        raise DataError(f"expected header '{COUNTS_HEADER}'")
    table = _read_in_c(text, lines)
    return _read_lines(lines) if table is None else table


def _read_in_c(text: str, lines: list):
    """The CountTable numpy's C reader gives from the lines after the header,
    or None where it or CountTable refuses them (a warning too: no rows warns).
    Only ASCII without \\x1f is tried: the reader strips it as a blank, where
    float() and int() refuse it.  (str.splitlines has already broken the
    lines at the other blanks it strips: \\v, \\f and \\x1c to \\x1e.)"""
    if not text.isascii() or "\x1f" in text:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta1, theta2, dwell, counts = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=1,
                                                       dtype="f8,f8,f8,i8", unpack=True)
            return CountTable(np.radians(theta1), np.radians(theta2), dwell, counts)
    except (ValueError, OverflowError, Warning):
        return None


def _read_lines(lines: list) -> CountTable:
    """The counts CSV's lines after the header read one at a time: the
    definition of the format.  Blank and whitespace-only lines are skipped,
    and a row is four fields, angles and dwell read by float() and counts by
    int(), made a CountRecord as it is read.  A DataError names the first bad
    line: the first that does not read or whose record is rejected."""
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        try:
            if len(parts) != 4:
                raise ValueError("expected 4 comma-separated fields")
            records.append(CountRecord(math.radians(float(parts[0])), math.radians(float(parts[1])),
                                       float(parts[2]), int(parts[3])))
        except ValueError as exc:
            raise DataError(f"line {lineno}: {exc}") from exc
    if not records:
        raise DataError("no data rows")
    return count_table(records)


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    seed = cfg.seed if args.seed is None else _seed(args.seed, "--seed")
    records = simulate_counts(cfg.plan, cfg.scale, cfg.detector, cfg.sample, seed)
    _write_text(counts_csv(records), args.out)
    return EXIT_OK


def cmd_fringe(args) -> int:
    cfg = load_config(args.config)
    plan = cfg.plan
    rates = coincidence_rate(cfg.scale.detected_rate(cfg.detector), cfg.sample, plan.theta1, plan.theta2,
                             cfg.detector.visibility)
    text = _csv_text(FRINGE_HEADER, ("%.6f", "%.6f"), (np.degrees(plan.theta1), rates))
    _write_text(text, args.out)
    return EXIT_OK


def _ground_truth(args):
    """The report's ground_truth: None, or both true angles, each finite."""
    psi, delta = args.true_psi_deg, args.true_delta_deg
    if psi is None and delta is None:
        return None
    context = "--true-psi-deg/--true-delta-deg"
    if psi is None or delta is None:
        raise ConfigError(f"{context}: give both or neither")
    if not (math.isfinite(psi) and math.isfinite(delta)):
        raise ConfigError(f"{context}: must be finite, got {psi!r} and {delta!r}")
    return {"psi_deg": psi, "delta_deg": delta}


def _estimate_report(estimate, terms, dur, k, det: DetectorModel, ground_truth) -> dict:
    to_deg = np.array([1.0, 180.0 / math.pi, 180.0 / math.pi])  # elementwise: no inf * 0 where var C overflows
    with np.errstate(over="ignore"):  # cmd_estimate reports a covariance that overflows in degrees
        cov_deg = estimate.covariance * to_deg[:, None] * to_deg
    residuals = k - mean_counts(terms, dur, estimate.C_hat, estimate.beta_hat, estimate.delta_mag_hat, det)
    return {
        "version": __version__,
        "method": estimate.method,
        "psi_deg": math.degrees(estimate.psi_hat),
        "delta_deg": math.degrees(estimate.delta_mag_hat),
        "C_hat": estimate.C_hat,
        "cov": cov_deg.tolist(),
        "warnings": list(estimate.warnings),
        "residuals": residuals,
        "detector": {
            "eta1": det.eta1,
            "eta2": det.eta2,
            "accidental_per_s": det.accidental_rate,
            "visibility": det.visibility,
        },
        "ground_truth": ground_truth,
    }


def cmd_estimate(args) -> int:
    # The flags are checked before the CSV is read: a bad flag is a config
    # error whatever the file holds, and costs no parse.
    det = _build("detector flags", DetectorModel, eta1=args.eta1, eta2=args.eta2,
                 accidental_rate=args.accidental_per_s, visibility=args.visibility)
    ground_truth = _ground_truth(args)
    try:
        with open(args.counts_csv, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {args.counts_csv}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{args.counts_csv}: {_undecodable(exc)}") from exc
    records = parse_counts_csv(text)
    # Canonical order makes the report independent of input row order.  A
    # strictly increasing theta1, as simulate writes, is that order already.
    if not (np.diff(records.theta1) > 0).all():
        records = records[np.lexsort((records.counts, records.duration, records.theta2, records.theta1))]

    # Built once: the fit and the report residuals of either method share these arrays.
    t1, t2, dur, k = record_columns(records)
    terms = analyzer_terms(t1, t2)
    try:
        if args.method == "three-angle":
            estimate, failures = three_angle_from_counts(records, det), []
        else:
            estimate, failures = _fit(terms, dur, k, det), []
    except LookupError as exc:
        raise DataError(str(exc)) from exc
    except FitError as exc:
        estimate, failures = exc.estimate, [str(exc)]
    report = _estimate_report(estimate, terms, dur, k, det, ground_truth)
    # The estimators raise on a non-finite covariance, but the scaling to degrees can overflow a finite one.
    if not (failures or np.isfinite(report["cov"]).all()):
        failures = ["covariance is not finite"]
    report["warnings"] += failures
    _write_json(report, args.out)
    return EXIT_NUMERIC if failures else EXIT_OK


def cmd_baseline(args) -> int:
    cfg = load_config(args.config)
    classical_psi = classical_psi_estimate(cfg.sample, cfg.instrument)
    g = cfg.instrument.gain_drift
    with np.errstate(over="ignore"):  # three_angle_invert reports an overflowing rate
        rates = g * coincidence_rate(cfg.scale.detected_rate(cfg.detector), cfg.sample,
                                     np.radians(_THREE_ANGLE_THETA1_DEG), math.radians(_THREE_ANGLE_THETA2_DEG),
                                     cfg.detector.visibility)
    try:
        quantum = three_angle_invert(*rates.tolist())
    except FitError as exc:  # the report carries psi alone, which needs no covariance
        quantum = exc.estimate
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


@functools.cache  # built on first use, then shared by every main() call
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a bad command line (2), --help or --version (0)
        return exc.code
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
