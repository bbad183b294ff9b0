import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qellip.cli
import qellip.estimate
from qellip import AcquisitionPlan, CountTable, DetectorModel, ExperimentScale, SampleParams, __version__
from qellip.cli import COUNTS_HEADER, FRINGE_HEADER, _round9, _write_json, counts_csv, load_config, main
from qellip.experiment import analyzer_terms, rate_shape

GOLDEN_DIR = Path(__file__).parent / "golden"

MIRROR_CONFIG = {
    "sample": {"type": "mirror"},
    "detector": {"eta1": 1.0, "eta2": 1.0, "accidental_per_s": 0.0, "visibility": 1.0},
    "scale": {"pairs_per_s": 10000},
    "plan": {"theta2_deg": 45.0, "sweep": {"start": 0, "stop": 180, "step": 15}, "dwell_s": 1.0},
    "seed": 7,
}

# pairs_per_s * b^2 / 2 at theta1 = 0, with b^2 = tan(psi) about 5.7e8, overflows.
RATE_OVERFLOW_CONFIG = dict(MIRROR_CONFIG, sample={"type": "direct", "psi_deg": 89.9999999, "delta_deg": 10.0},
                            scale={"pairs_per_s": 1e305})

# SiO2 100 nm on Si at 70 deg and 632.8 nm; tests/golden/sio2_on_si_fringe.csv
# is its `qellip fringe` output.
FILM_CONFIG = {
    "sample": {"type": "stack", "wavelength_nm": 632.8, "angle_deg": 70.0, "n_ambient": 1.0,
               "layers": [{"n_re": 1.457, "n_im": 0.0, "d_nm": 100.0}],
               "substrate": {"n_re": 3.882, "n_im": 0.019}},
    "detector": {"eta1": 0.2, "eta2": 0.3, "accidental_per_s": 5.0, "visibility": 0.97},
    "scale": {"pairs_per_s": 100000},
    "plan": {"theta2_deg": 45.0, "sweep": {"start": 0, "stop": 180, "step": 5}, "dwell_s": 1.0},
}


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def run(args):
    return main(args)


def package_env():
    """os.environ with the directory of the imported qellip first on
    PYTHONPATH, so that a subprocess runs the same package: src/ or the
    installed one."""
    src = str(Path(qellip.cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def record_answers(monkeypatch, writer):
    """The list that each later call of the digit-table writer
    _ascii.<writer> (residual_block or csv_text) appends its answer to: the
    text, or None where the % definition writes it."""
    real, answers = getattr(qellip.cli._ascii, writer), []

    def answered(*args):
        answers.append(real(*args))
        return answers[-1]

    monkeypatch.setattr(qellip.cli._ascii, writer, answered)
    return answers


class TestSimulate:
    def test_row_count_and_header(self, tmp_path):
        cfg = write_config(tmp_path, MIRROR_CONFIG)
        out = tmp_path / "counts.csv"
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta1_deg,theta2_deg,dwell_s,counts"
        assert len(lines) == 1 + 13  # 0:180:15 inclusive

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, MIRROR_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["simulate", "--config", cfg, "--out", str(out1)])
        run(["simulate", "--config", cfg, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_matches_committed_golden_fixture(self, tmp_path):
        cfg = write_config(tmp_path, MIRROR_CONFIG)
        out = tmp_path / "counts.csv"
        run(["simulate", "--config", cfg, "--out", str(out)])
        golden = (GOLDEN_DIR / "mirror_sweep_seed7.csv").read_bytes()
        assert out.read_bytes() == golden

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, MIRROR_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["simulate", "--config", cfg, "--out", str(out1), "--seed", "99"])
        run(["simulate", "--config", cfg, "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_seed_flag_is_a_config_error(self, tmp_path, capsys, seed):
        cfg = write_config(tmp_path, MIRROR_CONFIG)
        assert run(["simulate", "--config", cfg, "--seed", seed]) == 2
        assert "--seed: must be an unsigned 64-bit integer" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, -1, 2**64, 1.5, 1.0, True, "1", None])
    def test_config_seed_is_accepted_exactly_where_simulate_counts_accepts_it(self, tmp_path, seed):
        try:
            qellip.simulate_counts(AcquisitionPlan(((0.0, 0.0, 1.0),)), ExperimentScale(1.0), DetectorModel(),
                                   SampleParams.mirror(), seed)
            code = 0
        except ValueError:
            code = 2
        cfg = write_config(tmp_path, dict(MIRROR_CONFIG, seed=seed))
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "counts.csv")]) == code

    def test_analyzer_null_gives_zero_counts(self, tmp_path):
        # mirror rate ~ sin^2(t1 + t2) is exactly 0 at 165 + 15 deg; the
        # draw there must not see a negative mean from rounding
        config = dict(
            MIRROR_CONFIG,
            plan={"theta2_deg": 15, "theta1_list_deg": [0, 45, 90, 165], "dwell_s": 1.0},
        )
        cfg = write_config(tmp_path, config)
        out = tmp_path / "counts.csv"
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
        last = out.read_text().splitlines()[-1]
        assert last == "165.000000,15.000000,1.000000,0"

    def test_zero_dwell_exits_2_naming_field(self, tmp_path, capsys):
        bad = dict(MIRROR_CONFIG, plan=dict(MIRROR_CONFIG["plan"], dwell_s=0))
        cfg = write_config(tmp_path, bad)
        assert run(["simulate", "--config", cfg]) == 2
        assert "dwell_s" in capsys.readouterr().err

    def test_malformed_json_exits_2_with_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"sample": ???}')
        assert run(["simulate", "--config", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, value, field",
        [
            ("detector", [], "detector"),
            ("detector", 3, "detector"),
            ("scale", 5, "scale"),
            ("instrument", "x", "instrument"),
            ("plan", dict(MIRROR_CONFIG["plan"], sweep=5), "plan.sweep"),
            ("plan", dict(MIRROR_CONFIG["plan"], sweep={"start": 0, "stop": math.inf, "step": 15}),
             "plan.sweep.stop"),
            ("plan", dict(MIRROR_CONFIG["plan"], sweep={"start": 0, "stop": math.nan, "step": 15}),
             "plan.sweep.stop"),
            ("detector", dict(MIRROR_CONFIG["detector"], visibility=-math.inf), "detector.visibility"),
        ],
        ids=["detector-list", "detector-number", "scale-number", "instrument-string",
             "sweep-number", "sweep-infinity", "sweep-nan", "visibility-infinity"],
    )
    def test_malformed_section_exits_2_naming_field(self, tmp_path, capsys, section, value, field):
        cfg = write_config(tmp_path, dict(MIRROR_CONFIG, **{section: value}))
        assert run(["simulate", "--config", cfg]) == 2
        assert f"config error: {field}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sweep",
        [{"start": 0, "stop": 1e308, "step": 1e-308}, {"start": 0, "stop": 180, "step": 1e-9}],
        ids=["ratio-overflows", "ratio-huge"],
    )
    def test_sweep_beyond_point_limit_exits_2(self, tmp_path, capsys, sweep):
        cfg = write_config(tmp_path, dict(MIRROR_CONFIG, plan=dict(MIRROR_CONFIG["plan"], sweep=sweep)))
        assert run(["simulate", "--config", cfg]) == 2
        assert "config error: plan.sweep.step:" in capsys.readouterr().err

    @pytest.mark.parametrize("pairs_per_s, dwell_s", [(1e300, 1e10), (1e19, 1.0)],
                             ids=["overflow", "above-limit"])
    def test_mean_beyond_numpy_poisson_limit_exits_4(self, tmp_path, capsys, pairs_per_s, dwell_s):
        config = dict(MIRROR_CONFIG, scale={"pairs_per_s": pairs_per_s},
                      plan=dict(MIRROR_CONFIG["plan"], dwell_s=dwell_s))
        assert run(["simulate", "--config", write_config(tmp_path, config)]) == 4
        assert capsys.readouterr().err == (
            "numerical error: mean counts must be finite and at most 9.2e18 to draw\n")

    @pytest.mark.parametrize("limit, code", [(13, 0), (12, 2)])
    def test_sweep_point_limit_is_inclusive(self, tmp_path, monkeypatch, limit, code):
        monkeypatch.setattr(qellip.cli, "MAX_SWEEP_POINTS", limit)
        cfg = write_config(tmp_path, MIRROR_CONFIG)  # 0:180:15, 13 points
        assert run(["fringe", "--config", cfg, "--out", str(tmp_path / "fringe.csv")]) == code

    @pytest.mark.parametrize("method, report_digest", [
        ("fit", "f96636833fdeb1005aba0f3d1d576fe1cbe10dcf520b53c1ce5ae5481affefbf"),
        ("three-angle", "4bca6ae637b3106843b053a54a1e41bba639e8ff711637ad063fab0185d3973b"),
    ], ids=["fit", "three-angle"])
    def test_2000_row_sweep_and_fit_report_digests(self, tmp_path, monkeypatch, method, report_digest):
        # A film on silicon at the benchmark's detector, 2 000 rows and a seed
        # above 2**63; the CSV and fit digests were taken from the per-record
        # draw loop, the three-angle digest before the estimators and the
        # report residuals shared one build of the analyzer terms.
        config = {
            "sample": {"type": "stack", "wavelength_nm": 632.8, "angle_deg": 70.0, "n_ambient": 1.0,
                       "layers": [{"n_re": 1.457, "n_im": 0.0, "d_nm": 100.0}],
                       "substrate": {"n_re": 3.882, "n_im": 0.019}},
            "detector": {"eta1": 0.2, "eta2": 0.3, "accidental_per_s": 5.0, "visibility": 0.97},
            "scale": {"pairs_per_s": 1e5},
            "plan": {"theta2_deg": 45.0, "sweep": {"start": 0, "stop": 179.91, "step": 0.09},
                     "dwell_s": 1.0},
            "seed": 2**63 + 5,
        }
        answers = record_answers(monkeypatch, "residual_block")
        cfg = write_config(tmp_path, config)
        counts, report = tmp_path / "counts.csv", tmp_path / "report.json"
        assert run(["simulate", "--config", cfg, "--out", str(counts)]) == 0
        assert run(["estimate", str(counts), "--method", method, "--eta1", "0.2", "--eta2", "0.3",
                    "--accidental-per-s", "5", "--visibility", "0.97", "--out", str(report)]) == 0
        assert len(answers) == 1 and answers[0] is not None  # written by the digit tables
        assert counts.read_text().count("\n") == 1 + 2000
        assert hashlib.sha256(counts.read_bytes()).hexdigest() == (
            "1b27cb8a789c7de82db45188361e9e62161e1c6f3e5a7a6239fef59ae7d03d7f")
        assert hashlib.sha256(report.read_bytes()).hexdigest() == report_digest

    def test_zero_sweep_step_exits_2(self, tmp_path):
        bad = dict(
            MIRROR_CONFIG,
            plan={"theta2_deg": 45.0, "sweep": {"start": 0, "stop": 180, "step": 0}, "dwell_s": 1.0},
        )
        cfg = write_config(tmp_path, bad)
        assert run(["simulate", "--config", cfg]) == 2


class TestFringe:
    def test_mirror_fringe_shape(self, tmp_path):
        config = dict(
            MIRROR_CONFIG,
            plan={"theta2_deg": 45.0, "sweep": {"start": 0, "stop": 180, "step": 5}, "dwell_s": 1.0},
        )
        cfg = write_config(tmp_path, config)
        out = tmp_path / "fringe.csv"
        assert run(["fringe", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta1_deg,expected_rate"
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        rates = dict(rows)
        # rate proportional to 1 + sin(2 theta1): zero at 135, peak at 45
        assert rates[135.0] == pytest.approx(0.0, abs=1e-6)
        assert max(rates.values()) == pytest.approx(rates[45.0])
        for t, r in rows:
            expected = 5000.0 * (1.0 + math.sin(2 * math.radians(t)))
            assert r == pytest.approx(expected, abs=1e-4)

    def test_analyzer_null_prints_zero(self, tmp_path):
        # mirror null at 160 + 20 deg, where the unfloored rate rounds below 0
        config = dict(
            MIRROR_CONFIG, plan={"theta2_deg": 20, "theta1_list_deg": [160], "dwell_s": 1.0}
        )
        cfg = write_config(tmp_path, config)
        out = tmp_path / "fringe.csv"
        assert run(["fringe", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1] == "160.000000,0.000000"

    def test_zero_visibility_flattens_fringe(self, tmp_path):
        config = dict(
            MIRROR_CONFIG,
            detector={"eta1": 1.0, "eta2": 1.0, "accidental_per_s": 0.0, "visibility": 0.0},
        )
        cfg = write_config(tmp_path, config)
        out = tmp_path / "fringe.csv"
        run(["fringe", "--config", cfg, "--out", str(out)])
        rates = [float(ln.split(",")[1]) for ln in out.read_text().splitlines()[1:]]
        # mirror with V=0: constant rate, visibility zero
        assert max(rates) - min(rates) == pytest.approx(0.0, abs=1e-6)

    def test_detected_rate_that_underflows_is_a_config_error(self, tmp_path, capsys):
        # pair rate * eta1 * eta2 = 1e-320 * 1e-4 rounds to 0: no command has a rate to scale
        cfg = write_config(tmp_path, dict(MIRROR_CONFIG, scale={"pairs_per_s": 1e-320},
                                          detector={"eta1": 0.01, "eta2": 0.01}))
        for command in ("simulate", "fringe", "baseline"):
            assert run([command, "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "config error: scale.pairs_per_s: detected rate pair_rate * eta1 * eta2 rounds to 0\n" * 3)

    def test_rate_that_overflows_exits_4_writing_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, RATE_OVERFLOW_CONFIG)
        out = tmp_path / "fringe.csv"
        assert run(["fringe", "--config", cfg, "--out", str(out)]) == 4
        assert capsys.readouterr().err == "numerical error: coincidence rate is not finite\n"
        assert not out.exists()


class TestEstimate:
    def three_angle_csv(self, tmp_path, n0, n45, n90):
        path = tmp_path / "rates.csv"
        rows = ["theta1_deg,theta2_deg,dwell_s,counts"]
        for t, n in ((0.0, n0), (45.0, n45), (90.0, n90)):
            rows.append(f"{t:.6f},45.000000,1.000000,{n}")
        path.write_text("\n".join(rows) + "\n")
        return str(path)

    def test_noiseless_mirror(self, tmp_path):
        csv = self.three_angle_csv(tmp_path, 10000, 20000, 10000)
        out = tmp_path / "report.json"
        assert run(["estimate", csv, "--method", "three-angle", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["psi_deg"] == pytest.approx(45.0, abs=1e-6)
        assert report["delta_deg"] == pytest.approx(0.0, abs=1e-6)
        assert report["version"] == __version__

    def test_estimation_fixture(self, tmp_path):
        # forward rates at C=2, beta^2=2, delta=60 deg, scaled by 1e7 to
        # integer counts
        csv = self.three_angle_csv(tmp_path, 20000000, 22071068, 10000000)
        out = tmp_path / "report.json"
        assert run(["estimate", csv, "--method", "three-angle", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["psi_deg"] == pytest.approx(63.435, abs=1e-3)
        assert report["delta_deg"] == pytest.approx(60.000, abs=1e-3)

    def test_shuffled_rows_identical_report(self, tmp_path):
        cfg = write_config(tmp_path, MIRROR_CONFIG)
        counts = tmp_path / "counts.csv"
        run(["simulate", "--config", cfg, "--out", str(counts)])
        lines = counts.read_text().splitlines()
        shuffled = tmp_path / "shuffled.csv"
        body = lines[1:]
        random.Random(3).shuffle(body)
        shuffled.write_text("\n".join([lines[0]] + body) + "\n")
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run(["estimate", str(counts), "--method", "fit", "--out", str(out1)]) == 0
        assert run(["estimate", str(shuffled), "--method", "fit", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_tied_theta1_in_descending_theta2_gives_the_canonical_report(self, tmp_path):
        # Rows tied in theta1 fail the check that skips the sort, so they
        # are still put in canonical order.
        sweeps = []
        for theta2 in (45.0, 20.0):
            cfg = write_config(tmp_path, dict(MIRROR_CONFIG, plan=dict(MIRROR_CONFIG["plan"], theta2_deg=theta2)))
            counts = tmp_path / f"theta2_{theta2:g}.csv"
            assert run(["simulate", "--config", cfg, "--out", str(counts)]) == 0
            sweeps.append(counts.read_text().splitlines()[1:])
        descending, canonical = tmp_path / "descending.csv", tmp_path / "canonical.csv"
        descending.write_text("\n".join([COUNTS_HEADER, *(row for pair in zip(*sweeps) for row in pair)]) + "\n")
        canonical.write_text("\n".join([COUNTS_HEADER, *(row for pair in zip(*sweeps) for row in pair[::-1])]) + "\n")
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run(["estimate", str(descending), "--method", "fit", "--out", str(out1)]) == 0
        assert run(["estimate", str(canonical), "--method", "fit", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("method", ["fit", "three-angle"])
    def test_descending_theta1_sweep_gives_the_golden_report(self, tmp_path, method):
        lines = (GOLDEN_DIR / "mirror_sweep_seed7.csv").read_text().splitlines()
        reversed_csv = tmp_path / "reversed.csv"
        reversed_csv.write_text("\n".join([lines[0], *lines[:0:-1]]) + "\n")
        out = tmp_path / "report.json"
        assert run(["estimate", str(reversed_csv), "--method", method, "--out", str(out)]) == 0
        golden = GOLDEN_DIR / f"mirror_sweep_seed7_{method.replace('-', '_')}.json"
        assert out.read_bytes() == golden.read_bytes()

    def test_parser_is_built_once_and_keeps_no_state_between_calls(self, tmp_path):
        assert qellip.cli.build_parser() is qellip.cli.build_parser()
        csv, out = str(GOLDEN_DIR / "mirror_sweep_seed7.csv"), tmp_path / "report.json"
        truth = ["--true-psi-deg", "45", "--true-delta-deg", "0"]
        assert run(["estimate", csv, "--out", str(out), *truth]) == 0
        assert json.loads(out.read_text())["ground_truth"] == {"psi_deg": 45.0, "delta_deg": 0.0}
        assert run(["estimate", csv, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["ground_truth"] is None
        assert run(["estimate", csv, "--method", "none"]) == 2
        assert run(["estimate", csv, "--method", "fit", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / "mirror_sweep_seed7_fit.json").read_bytes()

    def test_version_prints_and_returns_0(self, capsys):
        assert run(["--version"]) == 0
        assert capsys.readouterr().out == f"qellip {__version__}\n"

    def test_report_keys_and_residuals(self, tmp_path):
        cfg = write_config(tmp_path, MIRROR_CONFIG)
        counts = tmp_path / "counts.csv"
        run(["simulate", "--config", cfg, "--out", str(counts)])
        out = tmp_path / "report.json"
        run([
            "estimate", str(counts), "--method", "fit", "--out", str(out),
            "--true-psi-deg", "45.0", "--true-delta-deg", "0.0",
        ])
        report = json.loads(out.read_text())
        for key in ("psi_deg", "delta_deg", "C_hat", "cov", "method", "warnings",
                    "residuals", "version", "ground_truth"):
            assert key in report
        assert len(report["residuals"]) == 13
        assert report["ground_truth"]["psi_deg"] == 45.0
        assert 0.0 <= report["delta_deg"] <= 180.0

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--true-psi-deg", "45"], "give both or neither"),
            (["--true-delta-deg", "3"], "give both or neither"),
            (["--true-psi-deg", "nan", "--true-delta-deg", "3"], "must be finite"),
            (["--true-psi-deg", "45", "--true-delta-deg=-inf"], "must be finite"),
        ],
        ids=["psi-alone", "delta-alone", "psi-nan", "delta-inf"],
    )
    def test_bad_ground_truth_flags_exit_2(self, tmp_path, capsys, flags, message):
        out = tmp_path / "report.json"
        csv = str(GOLDEN_DIR / "mirror_sweep_seed7.csv")
        assert run(["estimate", csv, "--method", "fit", "--out", str(out), *flags]) == 2
        assert f"config error: --true-psi-deg/--true-delta-deg: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_required_angle_exits_3(self, tmp_path, capsys):
        path = tmp_path / "partial.csv"
        path.write_text(
            "theta1_deg,theta2_deg,dwell_s,counts\n"
            "0.000000,45.000000,1.000000,100\n"
            "90.000000,45.000000,1.000000,100\n"
        )
        assert run(["estimate", str(path), "--method", "three-angle"]) == 3
        assert "45" in capsys.readouterr().err

    def test_bad_header_exits_3(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        assert run(["estimate", str(path), "--method", "fit"]) == 3

    def test_bad_counts_value_exits_3(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "theta1_deg,theta2_deg,dwell_s,counts\n0.0,45.0,1.0,notanumber\n"
        )
        assert run(["estimate", str(path), "--method", "fit"]) == 3

    @pytest.mark.parametrize(
        "bad_row",
        [
            "30.0,45.0,130",
            "30.0,45.0,1.0,130,1",
            "30.0,45.0,1.0,3.0",
            "30.0,45.0,1.0,-1",
            "30.0,45.0,1.0,x",
            "30.0,45.0,nan,130",
            "30.0,45.0,inf,130",
            "30.0,45.0,0,130",
        ],
        ids=["3-fields", "5-fields", "counts-3.0", "counts-minus-1", "counts-x",
             "dwell-nan", "dwell-inf", "dwell-0"],
    )
    def test_bad_row_exits_3_naming_its_line(self, tmp_path, capsys, bad_row):
        # line 1 header, 2 good, 3 and 4 blank, 5 bad
        path = tmp_path / "bad.csv"
        path.write_text(
            "theta1_deg,theta2_deg,dwell_s,counts\n0.0,45.0,1.0,100\n\n  \n"
            + bad_row + "\n45.0,45.0,1.0,145\n90.0,45.0,1.0,190\n"
        )
        assert run(["estimate", str(path), "--method", "fit"]) == 3
        assert "data error: line 5:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["30,45,0,130", "45,45,130", "90,45,1,x"], "duration must be finite and positive"),
            (["45,45,130", "30,45,0,130"], "expected 4 comma-separated fields"),
            (["30,45,1,x", "30,45,0,130"], "invalid literal for int() with base 10: 'x'"),
            (["30,45,1,-1", "30,45,0,130"], "counts must be non-negative integers below 2**63"),
        ],
        ids=["invalid-before-3-fields", "3-fields-before-invalid", "counts-x-before-invalid", "two-invalid"],
    )
    def test_first_bad_line_is_named_whatever_its_fault(self, rows, message):
        text = COUNTS_HEADER + "\n0,45,1,100\n" + "\n".join(rows) + "\n"
        with pytest.raises(qellip.cli.DataError) as caught:
            qellip.cli.parse_counts_csv(text)
        assert str(caught.value) == f"line 3: {message}"

    @pytest.mark.parametrize("position", [0, 1, 4999, 9998, 9999])
    def test_bad_row_of_a_long_file_is_named(self, position):
        rows = [f"{0.018 * j:.6f},45.000000,1.000000,{j}" for j in range(10_000)]
        rows[position] = rows[position].replace(",1.000000,", ",0,")
        for later in range(position + 1, len(rows), 1237):
            rows[later] = rows[later].rpartition(",")[0] + ",-1"
        with pytest.raises(qellip.cli.DataError) as caught:
            qellip.cli.parse_counts_csv(COUNTS_HEADER + "\n" + "\n".join(rows) + "\n")
        assert str(caught.value) == f"line {position + 2}: duration must be finite and positive"

    def test_blank_lines_skipped(self, tmp_path):
        cfg = write_config(tmp_path, MIRROR_CONFIG)
        counts = tmp_path / "counts.csv"
        run(["simulate", "--config", cfg, "--out", str(counts)])
        lines = counts.read_text().splitlines()
        spaced = tmp_path / "spaced.csv"
        spaced.write_text("\n".join(lines[:5] + ["", " \t"] + lines[5:] + ["", ""]) + "\n")
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run(["estimate", str(counts), "--method", "fit", "--out", str(out1)]) == 0
        assert run(["estimate", str(spaced), "--method", "fit", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_counts_beyond_int64_exit_3(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text(
            "theta1_deg,theta2_deg,dwell_s,counts\n"
            + "".join(f"{t},45.0,1.0,{k}\n" for t, k in ((0, 100), (45, 2**63), (90, 100), (135, 100)))
        )
        assert run(["estimate", str(path), "--method", "fit"]) == 3
        assert "line 3: counts must be below 2**63" in capsys.readouterr().err

    def test_all_zero_counts_exits_4(self, tmp_path, capsys):
        path = tmp_path / "zero.csv"
        path.write_text(
            "theta1_deg,theta2_deg,dwell_s,counts\n" + "".join(f"{t},45.0,1.0,0\n" for t in (0, 45, 90, 135))
        )
        out = tmp_path / "report.json"
        assert run(["estimate", str(path), "--method", "fit", "--out", str(out)]) == 4
        # the prefix every other numeric exit prints
        assert capsys.readouterr().err == "numerical error: cannot seed fit: no counts\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--true-psi-deg", "45"], "--true-psi-deg/--true-delta-deg: give both or neither"),
            (["--visibility", "1.5"], "detector flags: visibility must lie in [0, 1], got 1.5"),
        ],
        ids=["ground-truth", "visibility"],
    )
    def test_bad_flag_is_a_config_error_before_the_csv_is_read(self, tmp_path, capsys, flags, message):
        missing = tmp_path / "nonexistent.csv"
        assert run(["estimate", str(missing), *flags]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


    def test_psi_boundary_exits_4(self, tmp_path):
        path = tmp_path / "null.csv"
        path.write_text(
            "theta1_deg,theta2_deg,dwell_s,counts\n"
            + "".join(f"{t},45.0,1.0,{k}\n" for t, k in ((0, 1000), (45, 500), (90, 0), (135, 500)))
        )
        out = tmp_path / "report.json"
        assert run(["estimate", str(path), "--method", "fit", "--out", str(out)]) == 4
        report = json.loads(out.read_text())
        assert report["psi_deg"] == pytest.approx(90.0)
        assert report["warnings"] == ["psi ran to 90 deg: one polarization adds under one expected count"]

    @pytest.mark.parametrize("method", ["fit", "three-angle"])
    def test_overflowing_covariance_exits_4(self, tmp_path, capsys, method):
        # C is about 2e163/s at a 1e-160 s dwell, so var C overflows while
        # var psi and var delta do not; no RuntimeWarning may escape
        path = tmp_path / "fast.csv"
        path.write_text(COUNTS_HEADER + "\n" + "".join(
            f"{t},45.0,1e-160,{k}\n" for t, k in ((0, 900), (45, 1700), (90, 1000), (135, 300))))
        out = tmp_path / "report.json"
        assert run(["estimate", str(path), "--method", method, "--out", str(out)]) == 4
        assert capsys.readouterr().err == ""
        report = json.loads(out.read_text())
        assert report["warnings"] == ["covariance is not finite"]
        assert report["cov"][0][0] is None
        assert report["cov"][1][1] > 0 and report["cov"][2][2] > 0

    def test_covariance_that_overflows_in_degrees_exits_4(self, tmp_path, capsys, monkeypatch):
        # var psi = 1e305 rad^2 is finite, so the fit trusts it; times
        # (180/pi)^2 it overflows, and only the report's check can say so
        real = qellip.cli._fit

        def wide(*args):
            estimate = real(*args)
            cov = estimate.covariance.copy()
            cov[1, 1] = 1e305
            return dataclasses.replace(estimate, covariance=cov)

        monkeypatch.setattr(qellip.cli, "_fit", wide)
        out = tmp_path / "report.json"
        assert run(["estimate", str(GOLDEN_DIR / "mirror_sweep_seed7.csv"), "--out", str(out)]) == 4
        assert capsys.readouterr().err == ""
        report = json.loads(out.read_text())
        assert report["warnings"] == ["covariance is not finite"]
        assert [[v is None for v in row] for row in report["cov"]] == [
            [False, False, False], [False, True, False], [False, False, False]]

    def test_three_angle_rates_that_overflow_exit_4(self, tmp_path, capsys):
        path = tmp_path / "overflow.csv"
        path.write_text(COUNTS_HEADER + "\n" + "".join(
            f"{t},45.0,1e-300,{k}\n" for t, k in ((0, 9 * 10**18), (45, 5), (90, 7))))
        assert run(["estimate", str(path), "--method", "three-angle"]) == 4
        assert capsys.readouterr().err == "numerical error: three-angle inversion: rates must be finite\n"

    def test_three_angle_ratio_that_underflows_exits_4(self, tmp_path, capsys):
        # rates 4e-175, 3.7e183 and 7.7e259 are finite, but r_0 / r_90 rounds to 0
        path = tmp_path / "degenerate.csv"
        path.write_text(COUNTS_HEADER + "\n" + "".join(
            f"{t},45.0,{d},{k}\n" for t, d, k in ((0, 1e175, 4), (45, 1e-177, 3667006), (90, 1e-253, 7666004))))
        assert run(["estimate", str(path), "--method", "three-angle"]) == 4
        assert capsys.readouterr().err == "numerical error: eigenpolarization null: three-angle inversion undefined\n"

    def test_non_finite_linear_seed_exits_4(self, tmp_path, capsys):
        # A t = 1e310 overflows: no report of null estimates
        path = tmp_path / "seed.csv"
        path.write_text(COUNTS_HEADER + "\n" + "".join(f"{t},45.0,1e10,100\n" for t in (0, 45, 90, 135)))
        out = tmp_path / "report.json"
        assert run(["estimate", str(path), "--accidental-per-s", "1e300", "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            "numerical error: cannot seed fit: the linear model of the counts is not finite\n")
        assert not out.exists()

    def test_zero_visibility_fit_exits_4(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MIRROR_CONFIG)
        counts = tmp_path / "counts.csv"
        run(["simulate", "--config", cfg, "--out", str(counts)])
        out = tmp_path / "report.json"
        assert run(["estimate", str(counts), "--method", "fit", "--visibility", "0",
                    "--out", str(out)]) == 4
        assert "unidentifiable" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "rows",
        [
            ((0, 45, 1000), (90, 45, 700), (180, 45, 1010)),  # no cross term at any row
            ((0, 0, 100), (45, 0, 145), (90, 0, 190), (135, 0, 235)),  # theta2 = 0
        ],
        ids=["no-cross-term", "theta2-0"],
    )
    def test_unidentifiable_plan_exits_4(self, tmp_path, capsys, rows):
        path = tmp_path / "plan.csv"
        path.write_text(
            "theta1_deg,theta2_deg,dwell_s,counts\n" + "".join(f"{t1},{t2},1.0,{k}\n" for t1, t2, k in rows)
        )
        assert run(["estimate", str(path), "--method", "fit"]) == 4
        assert "unidentifiable" in capsys.readouterr().err

    def test_three_angle_reproduces_counts_with_visibility_and_accidentals(self, tmp_path):
        config = dict(
            MIRROR_CONFIG,
            sample={"type": "direct", "psi_deg": math.degrees(math.atan(1.44)), "delta_deg": 60.0},
            detector={"eta1": 1.0, "eta2": 1.0, "accidental_per_s": 50.0, "visibility": 0.9},
            plan={"theta2_deg": 45.0, "theta1_list_deg": [0, 45, 90], "dwell_s": 10.0},
        )
        cfg = write_config(tmp_path, config)
        counts = tmp_path / "counts.csv"
        assert run(["simulate", "--config", cfg, "--out", str(counts)]) == 0
        out = tmp_path / "report.json"
        assert run(["estimate", str(counts), "--method", "three-angle", "--visibility", "0.9",
                    "--accidental-per-s", "50", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["residuals"] == pytest.approx([0.0, 0.0, 0.0], abs=1e-6)
        assert report["delta_deg"] == pytest.approx(60.0, abs=1.0)

    def test_three_angle_zero_visibility_exits_4(self, tmp_path, capsys):
        csv = self.three_angle_csv(tmp_path, 10000, 15000, 10000)
        assert run(["estimate", csv, "--method", "three-angle", "--visibility", "0"]) == 4
        assert "unidentifiable" in capsys.readouterr().err

    def test_three_angle_matches_committed_golden_report(self, tmp_path, monkeypatch):
        answers = record_answers(monkeypatch, "residual_block")
        out = tmp_path / "report.json"
        csv = str(GOLDEN_DIR / "mirror_sweep_seed7.csv")
        assert run(["estimate", csv, "--method", "three-angle", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / "mirror_sweep_seed7_three_angle.json").read_bytes()
        assert len(answers) == 1 and answers[0] is not None  # its 0 and rounding noise are written by the digit tables

    def test_fit_matches_committed_golden_report(self, tmp_path):
        out = tmp_path / "report.json"
        csv = str(GOLDEN_DIR / "mirror_sweep_seed7.csv")
        assert run(["estimate", csv, "--method", "fit", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / "mirror_sweep_seed7_fit.json").read_bytes()

    def test_crlf_copy_gives_the_golden_fit_report(self, tmp_path):
        crlf, out = tmp_path / "crlf.csv", tmp_path / "report.json"
        crlf.write_bytes((GOLDEN_DIR / "mirror_sweep_seed7.csv").read_bytes().replace(b"\n", b"\r\n"))
        assert run(["estimate", str(crlf), "--method", "fit", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / "mirror_sweep_seed7_fit.json").read_bytes()

    @pytest.mark.parametrize("method", ["fit", "three-angle"])
    def test_estimate_builds_the_analyzer_terms_once(self, tmp_path, monkeypatch, method):
        # The estimator and the report residuals share one pass over the 13 rows.
        calls = []

        def counted(theta1, theta2):
            calls.append(len(theta1))
            return analyzer_terms(theta1, theta2)

        for module in (qellip.cli, qellip.estimate):
            monkeypatch.setattr(module, "analyzer_terms", counted)
        csv, out = str(GOLDEN_DIR / "mirror_sweep_seed7.csv"), tmp_path / "report.json"
        assert run(["estimate", csv, "--method", method, "--out", str(out)]) == 0
        assert calls == [13]

    def test_fit_never_loads_scipy(self, tmp_path):
        # In a fresh interpreter: anything else in this process may have imported scipy.
        code = (
            "import sys; import qellip, qellip.cli; "
            "rc = qellip.cli.main(['estimate', sys.argv[1], '--method', 'fit', '--out', sys.argv[2]]); "
            "print(rc, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
        )
        csv, out = str(GOLDEN_DIR / "mirror_sweep_seed7.csv"), str(tmp_path / "report.json")
        proc = subprocess.run([sys.executable, "-c", code, csv, out], env=package_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "[]"]

    def test_module_entry_point_exits_with_mains_code(self, tmp_path):
        # `python -m qellip.cli`, as the README documents it
        header_only = tmp_path / "header.csv"
        header_only.write_text(COUNTS_HEADER + "\n")
        out = tmp_path / "report.json"
        for args, code in (([str(GOLDEN_DIR / "mirror_sweep_seed7.csv"), "--out", str(out)], 0),
                           ([str(header_only)], 3)):
            proc = subprocess.run([sys.executable, "-m", "qellip.cli", "estimate", *args], cwd=tmp_path,
                                  env=package_env(), capture_output=True, text=True, timeout=120)
            assert proc.returncode == code, proc.stderr
        assert proc.stderr == "data error: no data rows\n"
        assert out.read_bytes() == (GOLDEN_DIR / "mirror_sweep_seed7_fit.json").read_bytes()

    def test_non_finite_hessian_exits_4_with_best_iterate(self, tmp_path, monkeypatch):
        real, calls, reports = qellip.estimate._nll_derivatives, [], []

        def poisoned(*args):
            calls.append(None)
            nll, grad, hess = real(*args)
            return nll, grad, (hess if len(calls) == 1 else np.full((3, 3), np.nan))

        def recorded(report, out_path):
            reports.append(report)
            _write_json(report, out_path)

        monkeypatch.setattr(qellip.estimate, "_nll_derivatives", poisoned)
        monkeypatch.setattr(qellip.cli, "_write_json", recorded)
        out = tmp_path / "report.json"
        csv = str(GOLDEN_DIR / "mirror_sweep_seed7.csv")
        assert run(["estimate", csv, "--method", "fit", "--out", str(out)]) == 4
        assert len(reports) == 1 and out.read_text() == reference_json(reports[0])

        def not_json(token):
            raise ValueError(f"{token} is not JSON")

        report = json.loads(out.read_text(), parse_constant=not_json)
        assert math.isfinite(report["psi_deg"]) and math.isfinite(report["C_hat"])
        assert report["cov"] == [[None] * 3] * 3
        assert report["warnings"] == ["fit did not converge: non-finite Hessian"]

    @pytest.mark.parametrize("method", ["fit", "three-angle"])
    @pytest.mark.parametrize("field", ["theta1", "theta2", "duration"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_value_exits_3(self, tmp_path, capsys, method, field, bad):
        rows = [[t, 45.0, 1.0, 100 + int(t)] for t in (0.0, 30.0, 45.0, 90.0)]
        rows[2][("theta1", "theta2", "duration").index(field)] = bad
        path = tmp_path / "bad.csv"
        path.write_text(
            "theta1_deg,theta2_deg,dwell_s,counts\n"
            + "".join(",".join(str(v) for v in row) + "\n" for row in rows)
        )
        assert run(["estimate", str(path), "--method", method]) == 3
        assert "line 4" in capsys.readouterr().err


class TestBaseline:
    def test_mirror_with_gain_drift(self, tmp_path):
        config = dict(MIRROR_CONFIG, instrument={"gain_drift": 1.02, "extinction": 0.0})
        cfg = write_config(tmp_path, config)
        out = tmp_path / "baseline.json"
        assert run(["baseline", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["classical_psi_deg"] == pytest.approx(44.433, abs=1e-3)
        assert report["quantum_psi_deg"] == pytest.approx(45.0, abs=1e-6)
        assert report["true_psi_deg"] == pytest.approx(45.0, abs=1e-9)

    def test_rates_that_overflow_exit_4(self, tmp_path, capsys):
        # gain_drift * rate overflows; numpy's overflow warning may not escape
        config = dict(MIRROR_CONFIG, scale={"pairs_per_s": 1e308}, instrument={"gain_drift": 2.0, "extinction": 0.0})
        out = tmp_path / "baseline.json"
        assert run(["baseline", "--config", write_config(tmp_path, config), "--out", str(out)]) == 4
        assert capsys.readouterr().err == "numerical error: three-angle inversion: rates must be finite\n"
        assert not out.exists()

    def test_untrusted_covariance_still_gives_psi(self, tmp_path):
        # the three-angle covariance is not finite at these rates; the report
        # carries psi alone, which needs none
        config = dict(MIRROR_CONFIG, sample={"type": "direct", "psi_deg": 1.0, "delta_deg": 10.0},
                      scale={"pairs_per_s": 1e307})
        out = tmp_path / "baseline.json"
        assert run(["baseline", "--config", write_config(tmp_path, config), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["quantum_psi_deg"] == 1.0

    def test_perfect_instrument_all_equal(self, tmp_path):
        cfg = write_config(tmp_path, MIRROR_CONFIG)
        out = tmp_path / "baseline.json"
        assert run(["baseline", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["classical_psi_deg"] == pytest.approx(report["true_psi_deg"], abs=1e-6)
        assert report["quantum_psi_deg"] == pytest.approx(report["true_psi_deg"], abs=1e-6)


class TestConfigSamples:
    def test_direct_sample(self, tmp_path):
        config = dict(MIRROR_CONFIG, sample={"type": "direct", "psi_deg": 30.0, "delta_deg": 100.0})
        cfg = write_config(tmp_path, config)
        out = tmp_path / "f.csv"
        assert run(["fringe", "--config", cfg, "--out", str(out)]) == 0

    def test_interface_sample(self, tmp_path):
        config = dict(
            MIRROR_CONFIG,
            sample={
                "type": "interface",
                "n_ambient": 1.0,
                "angle_deg": 45.0,
                "substrate": {"n_re": 1.5, "n_im": 0.0},
            },
        )
        cfg = write_config(tmp_path, config)
        out = tmp_path / "f.csv"
        assert run(["fringe", "--config", cfg, "--out", str(out)]) == 0

    def test_stack_sample(self, tmp_path):
        config = dict(
            MIRROR_CONFIG,
            sample={
                "type": "stack",
                "wavelength_nm": 633.0,
                "angle_deg": 70.0,
                "n_ambient": 1.0,
                "layers": [{"n_re": 1.46, "n_im": 0.0, "d_nm": 100.0}],
                "substrate": {"n_re": 3.875, "n_im": -0.016},
            },
        )
        cfg = write_config(tmp_path, config)
        out = tmp_path / "counts.csv"
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0

    @pytest.mark.parametrize("command", ["simulate", "fringe"])
    def test_interface_is_a_stack_without_layers(self, tmp_path, command):
        interface = {"type": "interface", "n_ambient": 1.0, "angle_deg": 70.0,
                     "substrate": {"n_re": 3.882, "n_im": 0.019}}
        stack = dict(interface, type="stack", wavelength_nm=632.8, layers=[])
        outputs = []
        for name, sample in (("interface", interface), ("stack", stack)):
            cfg = write_config(tmp_path, dict(FILM_CONFIG, sample=sample), name=f"{name}.json")
            out = tmp_path / f"{name}.csv"
            assert run([command, "--config", cfg, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("kind", ["stack", "interface"])
    def test_zero_substrate_index_exits_2(self, tmp_path, capsys, kind):
        sample = {"type": kind, "wavelength_nm": 633.0, "angle_deg": 70.0, "n_ambient": 1.0,
                  "substrate": {"n_re": 0.0, "n_im": 0.0}}
        cfg = write_config(tmp_path, dict(MIRROR_CONFIG, sample=sample))
        assert run(["simulate", "--config", cfg]) == 2
        assert "substrate index must be finite and non-zero" in capsys.readouterr().err

    @pytest.mark.parametrize("n_re, message", [(0.0, "layer indices must be finite and non-zero"),
                                               (1e-300, "stack reflectance is not representable")])
    def test_degenerate_layer_index_exits_2(self, tmp_path, capsys, n_re, message):
        sample = {"type": "stack", "wavelength_nm": 633.0, "angle_deg": 70.0, "n_ambient": 1.0,
                  "layers": [{"n_re": n_re, "n_im": 0.0, "d_nm": 100.0}],
                  "substrate": {"n_re": 1.5, "n_im": 0.0}}
        cfg = write_config(tmp_path, dict(MIRROR_CONFIG, sample=sample))
        assert run(["simulate", "--config", cfg]) == 2
        assert message in capsys.readouterr().err

    def test_unknown_sample_type_exits_2(self, tmp_path, capsys):
        config = dict(MIRROR_CONFIG, sample={"type": "hologram"})
        cfg = write_config(tmp_path, config)
        assert run(["simulate", "--config", cfg]) == 2
        assert "sample" in capsys.readouterr().err

    @pytest.mark.parametrize("n_im", [0.019, -0.019], ids=["n+ik", "n-ik"])
    def test_film_fringe_matches_committed_golden(self, tmp_path, n_im):
        # an n - i*kappa substrate is conjugated on entry: both signs give the golden bytes
        sample = dict(FILM_CONFIG["sample"], substrate={"n_re": 3.882, "n_im": n_im})
        cfg = write_config(tmp_path, dict(FILM_CONFIG, sample=sample))
        out = tmp_path / "fringe.csv"
        assert run(["fringe", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / "sio2_on_si_fringe.csv").read_bytes()


@pytest.mark.parametrize("command", ["simulate", "fringe", "estimate", "baseline"])
def test_unwritable_out_is_a_config_error(tmp_path, capsys, command):
    out = tmp_path / "missing" / "x.csv"
    if command == "estimate":
        argv = ["estimate", str(GOLDEN_DIR / "mirror_sweep_seed7.csv")]
    else:
        argv = [command, "--config", write_config(tmp_path, MIRROR_CONFIG)]
    assert run([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: --out: cannot write {out}: ")
    assert not out.parent.exists()


@pytest.mark.parametrize("command, code", [("simulate", 4), ("fringe", 4), ("estimate", 3), ("baseline", 4)])
def test_run_that_fails_leaves_existing_out_unchanged(tmp_path, command, code):
    # Output is written only after the work succeeds, so a failed run never
    # truncates an existing file.
    if command == "estimate":
        csv = tmp_path / "zero_dwell.csv"
        csv.write_text(COUNTS_HEADER + "\n0.000000,45.000000,0.000000,5\n")
        argv = ["estimate", str(csv)]
    else:
        config = {
            "simulate": dict(MIRROR_CONFIG, scale={"pairs_per_s": 1e300},
                             plan=dict(MIRROR_CONFIG["plan"], dwell_s=1e10)),
            "fringe": RATE_OVERFLOW_CONFIG,
            "baseline": dict(MIRROR_CONFIG, scale={"pairs_per_s": 1e308},
                             instrument={"gain_drift": 2.0, "extinction": 0.0}),
        }[command]
        argv = [command, "--config", write_config(tmp_path, config)]
    out = tmp_path / "out.txt"
    out.write_bytes(b"earlier output\n")
    assert run([*argv, "--out", str(out)]) == code
    assert out.read_bytes() == b"earlier output\n"


# Every numeric config read, as (config, path to the field, required).  The
# field's name in messages is the path written out.
WITH_INSTRUMENT = dict(MIRROR_CONFIG, instrument={"gain_drift": 1.0, "extinction": 0.0})
DIRECT = dict(WITH_INSTRUMENT, sample={"type": "direct", "psi_deg": 30.0, "delta_deg": 100.0})
INTERFACE = dict(WITH_INSTRUMENT, sample={"type": "interface", "n_ambient": 1.0, "angle_deg": 70.0,
                                          "substrate": {"n_re": 3.882, "n_im": 0.019}})
STACK = dict(WITH_INSTRUMENT, sample=FILM_CONFIG["sample"])
LISTED = dict(WITH_INSTRUMENT, plan={"theta2_deg": 45.0, "theta1_list_deg": [0.0, 45.0, 90.0], "dwell_s": 1.0})
NUMERIC_FIELDS = [
    (DIRECT, ("sample", "psi_deg"), True),
    (DIRECT, ("sample", "delta_deg"), True),
    (INTERFACE, ("sample", "n_ambient"), True),
    (INTERFACE, ("sample", "angle_deg"), True),
    (INTERFACE, ("sample", "substrate", "n_re"), True),
    (INTERFACE, ("sample", "substrate", "n_im"), False),
    (STACK, ("sample", "wavelength_nm"), True),
    (STACK, ("sample", "angle_deg"), True),
    (STACK, ("sample", "n_ambient"), True),
    (STACK, ("sample", "layers", 0, "n_re"), True),
    (STACK, ("sample", "layers", 0, "n_im"), False),
    (STACK, ("sample", "layers", 0, "d_nm"), True),
    (STACK, ("sample", "substrate", "n_re"), True),
    (STACK, ("sample", "substrate", "n_im"), False),
    (LISTED, ("plan", "theta2_deg"), True),
    (LISTED, ("plan", "dwell_s"), True),
    (LISTED, ("plan", "theta1_list_deg", 1), False),
    (WITH_INSTRUMENT, ("plan", "sweep", "start"), True),
    (WITH_INSTRUMENT, ("plan", "sweep", "stop"), True),
    (WITH_INSTRUMENT, ("plan", "sweep", "step"), True),
    (WITH_INSTRUMENT, ("detector", "eta1"), False),
    (WITH_INSTRUMENT, ("detector", "eta2"), False),
    (WITH_INSTRUMENT, ("detector", "accidental_per_s"), False),
    (WITH_INSTRUMENT, ("detector", "visibility"), False),
    (WITH_INSTRUMENT, ("scale", "pairs_per_s"), True),
    (WITH_INSTRUMENT, ("instrument", "gain_drift"), False),
    (WITH_INSTRUMENT, ("instrument", "extinction"), False),
]


def field_name(path):
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)[1:]


def with_field(config, path, value=None):
    """A copy of config with the field at path set to value, or deleted when value is None."""
    config = copy.deepcopy(config)
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    if value is None:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return config


BOUNDARY_CASES = {
    # id: (subcommand, config object, CSV text or raw bytes written to its input, exit code, stderr prefix)
    "scale-missing": ("simulate", {k: v for k, v in MIRROR_CONFIG.items() if k != "scale"}, 2,
                      "config error: config.scale: missing required field"),
    "layers-not-a-list": ("simulate", dict(MIRROR_CONFIG, sample=dict(FILM_CONFIG["sample"], layers={})), 2,
                          "config error: sample.layers: expected a list"),
    "empty-theta1-list": ("simulate", dict(MIRROR_CONFIG, plan={"theta2_deg": 45.0, "theta1_list_deg": [],
                                                                 "dwell_s": 1.0}),
                          2, "config error: plan.theta1_list_deg: expected a non-empty list"),
    "sweep-stop-below-start": (
        "simulate", dict(MIRROR_CONFIG, plan=dict(MIRROR_CONFIG["plan"], sweep={"start": 90, "stop": 0, "step": 15})),
        2, "config error: plan.sweep.stop: must be >= start"),
    "plan-without-angles": ("simulate", dict(MIRROR_CONFIG, plan={"theta2_deg": 45.0, "dwell_s": 1.0}), 2,
                            "config error: plan: needs theta1_list_deg or sweep"),
    "unreadable-config": ("simulate", None, 2, "config error: cannot read config {path}: "),
    "json-root-list": ("simulate", [MIRROR_CONFIG], 2, "config error: config root must be an object"),
    "detector-visibility": ("simulate", dict(MIRROR_CONFIG, detector={"visibility": 1.5}), 2,
                            "config error: detector: visibility must lie in [0, 1], got 1.5"),
    "scale-zero-rate": ("simulate", dict(MIRROR_CONFIG, scale={"pairs_per_s": 0}), 2,
                        "config error: scale.pairs_per_s: pair_rate must be positive"),
    "instrument-extinction": ("simulate", dict(MIRROR_CONFIG, instrument={"extinction": 1.0}), 2,
                              "config error: instrument: extinction must lie in [0, 1)"),
    "csv-blank-rows-only": ("estimate", COUNTS_HEADER + "\n\n   \n\n", 3, "data error: no data rows"),
    "csv-header-only": ("estimate", COUNTS_HEADER + "\n", 3, "data error: no data rows"),
    "csv-unit-separator-after-counts": (
        "estimate", COUNTS_HEADER + "\n0,45,1,100\x1f\n45,45,1,145\n90,45,1,190\n", 3,
        "data error: line 2: invalid literal for int() with base 10: '100\\x1f'"),
    "unreadable-csv": ("estimate", None, 3, "data error: cannot read {path}: "),
    "visibility-flag": ("estimate", (GOLDEN_DIR / "mirror_sweep_seed7.csv").read_text(), 2,
                        "config error: detector flags: visibility must lie in [0, 1], got 1.5"),
    "csv-byte-0xff": ("estimate", COUNTS_HEADER.encode() + b"\n0,45,1,\xff5\n", 3,
                      "data error: {path}: not UTF-8: byte 0xff at offset 44\n"),
    "config-byte-0xff": ("simulate", b'{"sample": "\xff"}', 2,
                         "config error: {path}: not UTF-8: byte 0xff at offset 12\n"),
    "config-nested-too-deeply": ("simulate", b"[" * 200_000 + b"]" * 200_000, 2,
                                 "config error: {path}: invalid JSON: nested too deeply\n"),
    **{f"{config['sample']['type']}:{field_name(path)}-string": (
        "simulate", with_field(config, path, "x"), 2,
        f"config error: {field_name(path)}: expected a finite number, got 'x'")
       for config, path, _ in NUMERIC_FIELDS},
    **{f"{config['sample']['type']}:{field_name(path)}-missing": (
        "simulate", with_field(config, path), 2, f"config error: {field_name(path)}: missing required field")
       for config, path, required in NUMERIC_FIELDS if required},
}


class TestBoundaryErrors:
    @pytest.mark.parametrize("case", list(BOUNDARY_CASES))
    def test_exit_code_and_message(self, tmp_path, capsys, case):
        command, content, code, message = BOUNDARY_CASES[case]
        path = tmp_path / "input"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif isinstance(content, str):
            path.write_text(content)
        elif content is not None:
            path.write_text(json.dumps(content))
        out = tmp_path / "out"
        if command == "estimate":
            visibility = "1.5" if case == "visibility-flag" else "1"
            argv = ["estimate", str(path), "--visibility", visibility, "--out", str(out)]
        else:
            argv = ["simulate", "--config", str(path), "--out", str(out)]
        assert run(argv) == code
        assert capsys.readouterr().err.startswith(message.format(path=path))
        assert not out.exists()


def reference_json(report):
    # The report contract written out: json's indent encoder over _round9,
    # which _write_json also writes wherever the digit tables decline.
    return json.dumps(_round9(report), indent=2, allow_nan=False) + "\n"


def written_json(report):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _write_json(report, None)
    return buf.getvalue()


def report_with(residuals, warnings=(), cov=None):
    return {
        "version": __version__,
        "method": "least_squares",
        "psi_deg": 37.1817310042,
        "delta_deg": 1e-7,
        "C_hat": 5999.0,
        "cov": [[1.0, 2.5e-9, math.nan], [2.5e-9, 1e16, 0.0], [math.nan, 0.0, -0.0]] if cov is None else cov,
        "warnings": list(warnings),
        "residuals": residuals,
        "detector": {"eta1": 0.2, "eta2": 0.3, "accidental_per_s": 5.0, "visibility": 0.97},
        "ground_truth": None,
    }


# Values where %.9g and repr part ways, or that are not JSON numbers.
EDGE_RESIDUALS = [
    0.0, -0.0, 3.0, -7.0, 0.999999999999, -12.0000000001, 999999999.9999,
    1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 123456789.4, 1.23456789e10,
    1e-4, 9.99999999999e-5, 1e-5, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    math.nan, math.inf, -math.inf,
]
SPLICE_WARNINGS = ['"residuals": []', '\n  "residuals": [],', 'say "no"\\', "two\nlines"]


class TestWriters:
    @settings(max_examples=300, deadline=None)
    @given(
        residuals=st.lists(
            st.one_of(
                st.floats(),  # any double: subnormals, +-0.0, +-inf and NaN included
                st.integers(-(2**60), 2**60).map(float),
                st.floats(1e9, 1e16) | st.floats(-1e16, -1e9),
                st.sampled_from(EDGE_RESIDUALS),
            ),
            max_size=50,
        ),
        warnings=st.lists(st.text() | st.sampled_from(SPLICE_WARNINGS), max_size=3),
        cov=st.lists(st.lists(st.floats(), min_size=3, max_size=3), min_size=3, max_size=3),
    )
    def test_report_matches_reference_encoder(self, residuals, warnings, cov):
        report = report_with(residuals, warnings, cov)
        assert written_json(report) == reference_json(report)

    @pytest.mark.parametrize("residuals", [EDGE_RESIDUALS, [], [math.nan], [-0.0], [1e16]])
    def test_edge_residuals_match_reference_encoder(self, residuals):
        report = report_with(residuals, SPLICE_WARNINGS)
        assert written_json(report) == reference_json(report)

    @pytest.mark.parametrize("method, report_digest", [
        ("fit", "80f0f2964729141c706a894f471e1998e8fa347560bb673393a48dc5b7498a9b"),
        ("three-angle", "39076b9686d0b5ab17ac926d50f2d111be95f6c5c8a14b5a3612182da0d4a4e6"),
    ], ids=["fit", "three-angle"])
    def test_benchmark_sweep_with_a_residual_under_1e_4_is_written_by_the_digit_tables(self, tmp_path,
                                                                                        monkeypatch, method,
                                                                                        report_digest):
        # The benchmark's 10 000-row plan, film and detector at a seed whose
        # fit leaves one residual of 3.7e-05, which %.9g writes in exponent
        # form; the three-angle method leaves 0 or rounding noise of about 1e-12 at
        # its three settings.
        config = dict(FILM_CONFIG, seed=7154488413573062585,
                      plan={"theta2_deg": 45.0, "dwell_s": 1.0,
                            "sweep": {"start": 0.0, "stop": 180.0 / 10_000 * 9_999, "step": 180.0 / 10_000}})
        answers, reports = record_answers(monkeypatch, "residual_block"), []

        def recorded(report, out_path):
            reports.append(report)
            _write_json(report, out_path)

        monkeypatch.setattr(qellip.cli, "_write_json", recorded)
        cfg = write_config(tmp_path, config)
        counts, report = tmp_path / "counts.csv", tmp_path / "report.json"
        assert run(["simulate", "--config", cfg, "--out", str(counts)]) == 0
        assert run(["estimate", str(counts), "--method", method, "--eta1", "0.2", "--eta2", "0.3",
                    "--accidental-per-s", "5", "--visibility", "0.97", "--out", str(report)]) == 0
        assert len(reports) == 1 and report.read_text() == reference_json(reports[0])
        assert np.abs(reports[0]["residuals"]).min() < 1e-4
        assert len(answers) == 1 and answers[0] is not None
        assert hashlib.sha256(counts.read_bytes()).hexdigest() == (
            "b43eed87268eb863b67ecd1dd2ebbc0be4702f29db2d147e159c244b28e5323c")
        assert hashlib.sha256(report.read_bytes()).hexdigest() == report_digest

    def test_mirror_at_1e9_pairs_per_s_is_written_by_the_digit_tables(self, tmp_path, monkeypatch):
        # counts up to 999 998 423; the digest was taken where the % definition wrote every row
        answers = record_answers(monkeypatch, "csv_text")
        cfg = write_config(tmp_path, dict(MIRROR_CONFIG, scale={"pairs_per_s": 1e9}))
        out = tmp_path / "counts.csv"
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert len(answers) == 1 and answers[0] is not None
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "634c7e477e86153511290e4073e4ae2c81db95e600b3c7df425b9bb040d452aa")

    def test_fringe_too_wide_for_the_digit_tables_is_written_by_the_definition(self, tmp_path, monkeypatch):
        # rates up to 1e303 are finite, but far beyond |x|*1e6 < 2**52: the
        # tables decline them, and no overflow warning may escape
        answers = record_answers(monkeypatch, "csv_text")
        cfg = write_config(tmp_path, dict(MIRROR_CONFIG, scale={"pairs_per_s": 1e303}))
        out = tmp_path / "fringe.csv"
        assert run(["fringe", "--config", cfg, "--out", str(out)]) == 0
        assert answers == [None]
        lines = out.read_text().splitlines()
        assert lines[0] == FRINGE_HEADER and len(lines) == 1 + 13
        assert float(lines[4].split(",")[1]) == pytest.approx(1e303)  # theta1 = 45 deg: C (1 + 1) / 2

    @pytest.mark.parametrize("n", [0, 1, 7, 2000])
    def test_counts_csv_matches_per_row_reference(self, n):
        rng = np.random.default_rng(n)
        theta1 = rng.uniform(-1, 1, n) * 10.0 ** rng.integers(-9, 4, n)
        theta1[::3] = -0.0
        theta2 = rng.uniform(-4, 4, n)
        dwell = 10.0 ** rng.uniform(-7, 7, n)
        counts = rng.integers(0, 2**63 - 1, n, endpoint=True)
        counts[::4] = 2**63 - 1
        counts[1::4] = 0
        table = CountTable(theta1, theta2, dwell, counts)
        rows = zip(np.degrees(table.theta1).tolist(), np.degrees(table.theta2).tolist(),
                   table.duration.tolist(), table.counts.tolist())
        want = COUNTS_HEADER + "\n" + "".join(map("%.6f,%.6f,%.6f,%d\n".__mod__, rows))
        assert counts_csv(table) == want
        assert counts_csv(list(table)) == want

    @pytest.mark.parametrize("n", [1, 3, 50])
    def test_counts_csv_with_constant_columns_matches_per_row_reference(self, n):
        # theta2, dwell and counts each hold one value; theta1 holds 0.0 and
        # -0.0, which are equal but print apart, so it is not one value
        theta1 = np.where(np.arange(n) % 2, 0.0, -0.0)
        for theta2, dwell, counts in ((-0.0, 1e-7, 0), (0.0, 2.5, 2**63 - 1), (1.0, 1e7, 12)):
            table = CountTable(theta1, np.full(n, theta2), np.full(n, dwell), np.full(n, counts))
            rows = zip(np.degrees(table.theta1).tolist(), np.degrees(table.theta2).tolist(),
                       table.duration.tolist(), table.counts.tolist())
            assert counts_csv(table) == COUNTS_HEADER + "\n" + "".join(map("%.6f,%.6f,%.6f,%d\n".__mod__, rows))

    def test_fringe_matches_per_row_reference(self, tmp_path):
        config = dict(
            MIRROR_CONFIG,
            sample={"type": "direct", "psi_deg": 30.0, "delta_deg": 100.0},
            detector={"eta1": 0.2, "eta2": 0.3, "accidental_per_s": 0.0, "visibility": 0.97},
            plan={"theta2_deg": 20.0, "sweep": {"start": -90, "stop": 90, "step": 0.25}, "dwell_s": 1.0},
        )
        cfg = write_config(tmp_path, config)
        out = tmp_path / "fringe.csv"
        assert run(["fringe", "--config", cfg, "--out", str(out)]) == 0
        c = load_config(cfg)
        shape = rate_shape(analyzer_terms(c.plan.theta1, c.plan.theta2), c.sample.beta, c.sample.delta,
                           c.detector.visibility)
        rates = c.scale.detected_rate(c.detector) * shape
        rows = zip(np.degrees(c.plan.theta1).tolist(), rates.tolist())
        assert out.read_text() == FRINGE_HEADER + "\n" + "".join(map("%.6f,%.6f\n".__mod__, rows))


# Counts CSV bodies on which numpy's C reader and the line reader could part
# ways, as (id, body after the header line, whether the C reader takes it).
GOOD_ROWS = "0,45,1,100\n30,45,1,130\n90,45,1,190\n"
READER_CORPUS = [
    ("lf", GOOD_ROWS, True),
    ("crlf", GOOD_ROWS.replace("\n", "\r\n"), True),
    ("lone-cr", "0,45,1,100\r30,45,1,130\n", True),
    ("cr-before-crlf", "0,45,1,100\r\r\n30,45,1,130\n", True),
    ("lone-cr-at-end", "0,45,1,100\n30,45,1,130\r", True),
    ("blank-lines", "\n0,45,1,100\n\n\n30,45,1,130\n\n", True),
    ("whitespace-only-line", "0,45,1,100\n \t \n30,45,1,130\n", False),
    ("no-final-newline", "0,45,1,100\n30,45,1,130", True),
    ("blanks-around-fields", " 0 ,\t45\t, 1 , 100 \n", True),
    ("signs-and-minus-zero", "-0,+45,1e0,+0\n-0.0,-45,.5,-0\n", True),
    ("subnormal-and-long-repr", "4.9e-324,0.1000000000000000055511151231257827,1e-300,1\n", True),
    ("hash-line", "0,45,1,100\n#30,45,1,130\n", False),
    ("hash-after-counts", "0,45,1,100#\n", False),
    ("underscore-angle", "1_0,45,1,100\n", False),
    ("underscore-counts", "0,45,1,1_0\n", False),
    ("leading-zero-underscore", "0,45,1,0_1\n", False),
    ("non-ascii-digit", "0,45,1,\u0661\u0660\u0660\n", False),
    ("fullwidth-digit", "\uff13\uff10,45,1,100\n", False),
    ("nbsp", "0,45,1,\xa0100\xa0\n", False),
    ("nbsp-inside", "0,45,1,1\xa000\n", False),
    # str.splitlines breaks lines at \v, \f and \x1c to \x1e, so neither reader sees them
    *((f"{name}-end-of-field", f"0,45,1,100{char}\n30,45,1,130\n", name != "us")
      for name, char in (("vt", "\v"), ("ff", "\f"), ("fs", "\x1c"), ("gs", "\x1d"), ("rs", "\x1e"),
                         ("us", "\x1f"))),
    *((f"{name}-inside-field", f"0,4{char}5,1,100\n", False)
      for name, char in (("vt", "\v"), ("ff", "\f"), ("fs", "\x1c"), ("gs", "\x1d"), ("rs", "\x1e"),
                         ("us", "\x1f"))),
    ("nul-in-field", "0,45,1,10\x000\n", False),
    ("nul-after-field", "0,45,1,100\x00\n", False),
    ("quoted-field", '"0",45,1,100\n', False),
    ("empty-field", "0,,1,100\n", False),
    ("empty-counts", "0,45,1,\n", False),
    ("3-fields", "0,45,1\n", False),
    ("5-fields", "0,45,1,100,1\n", False),
    ("trailing-comma", "0,45,1,100,\n", False),
    ("counts-2**63-1", f"0,45,1,{2**63 - 1}\n", True),
    ("counts-2**63", f"0,45,1,100\n30,45,1,{2**63}\n", False),
    ("counts-minus-2**63-1", f"0,45,1,{-2**63 - 1}\n", False),
    ("counts-minus-1", "0,45,1,100\n30,45,1,-1\n", False),
    ("counts-5.0", "0,45,1,5.0\n", False),
    ("counts-1e3", "0,45,1,1e3\n", False),
    ("nan-angle", "0,45,1,100\nnan,45,1,130\n", False),
    ("infinity-angle", "0,infinity,1,100\n", False),
    ("1e5000-dwell", "0,45,1e5000,100\n", False),
    ("dwell-underflows-to-0", "0,45,1e-400,100\n", False),
    ("dwell-0-then-3-fields", "0,45,0,130\n45,45,130\n", False),
    ("3-fields-then-dwell-0", "45,45,130\n30,45,0,130\n", False),
    ("counts-x-then-dwell-0", "30,45,1,x\n30,45,0,130\n", False),
    ("counts-minus-1-then-dwell-0", "30,45,1,-1\n30,45,0,130\n", False),
    ("header-only", "", False),
    ("header-and-blank-lines", "\n\n\n", False),
    ("header-and-whitespace-lines", "\n \n\t\n", False),
]


def assert_same_bits(table, other):
    for column in CountTable.__slots__:
        a, b = getattr(table, column), getattr(other, column)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), column


def assert_readers_agree(text):
    """The C reader takes only what the line reader reads, bit for bit, and
    parse_counts_csv gives the line reader's table or message."""
    lines = text.splitlines()
    fast = qellip.cli._read_in_c(text, lines)
    try:
        table = qellip.cli._read_lines(lines)
    except qellip.cli.DataError as exc:
        assert fast is None
        with pytest.raises(qellip.cli.DataError) as caught:
            qellip.cli.parse_counts_csv(text)
        assert str(caught.value) == str(exc)
        return None
    if fast is not None:
        assert_same_bits(fast, table)
    assert_same_bits(qellip.cli.parse_counts_csv(text), table)
    return fast


# Valid fields as repr gives them, and what may be spliced into a text:
# separators and characters the line reader reads but the C reader refuses,
# every ASCII control character, and bad tokens.
FIELD_ANGLES = st.floats(allow_nan=False, allow_infinity=False).map(repr)
FIELD_DWELLS = st.floats(5e-324, 1e300).map(repr)
FIELD_COUNTS = st.integers(0, 2**63 - 1).map(str)
SPLICES = st.one_of(
    st.sampled_from([*",\n\r \t#_.e+-0", "\r\n", "\n\n", " \n", "\t\n", "\xa0", "\u0661", "\u2028", "\x85"]),
    st.sampled_from([*map(chr, range(32)), "\x7f"]),
    st.sampled_from("\v\f\x1c\x1d\x1e\x1f"),  # blanks to numpy's reader
    st.sampled_from(["nan", "inf", "1e999", "1e-999", "1" * 19, ",0", "\n0,0,1,0"]),
)


class TestCountsReaders:
    @pytest.mark.parametrize("body, c_reads", [case[1:] for case in READER_CORPUS],
                             ids=[case[0] for case in READER_CORPUS])
    def test_c_reader_agrees_with_the_line_reader(self, body, c_reads):
        fast = assert_readers_agree(COUNTS_HEADER + "\n" + body)
        assert (fast is not None) == c_reads

    @pytest.mark.parametrize("header, good", [(COUNTS_HEADER + "\r\n", True), (f"  {COUNTS_HEADER}\t\n", True),
                                              (f"\n{COUNTS_HEADER}\n", False), (COUNTS_HEADER.upper() + "\n", False),
                                              ("", False), ("\r\n", False)])
    def test_header_is_checked_before_either_reader(self, header, good):
        if good:
            assert_same_bits(qellip.cli.parse_counts_csv(header + GOOD_ROWS),
                             qellip.cli.parse_counts_csv(COUNTS_HEADER + "\n" + GOOD_ROWS))
        else:
            with pytest.raises(qellip.cli.DataError, match="^expected header"):
                qellip.cli.parse_counts_csv(header + GOOD_ROWS)

    def test_golden_csv_is_read_in_c(self):
        assert assert_readers_agree((GOLDEN_DIR / "mirror_sweep_seed7.csv").read_text()) is not None

    def test_whitespace_only_lines_keep_the_line_readers_messages(self):
        text = COUNTS_HEADER + "\n0,45,1,100\n  \n30,45,0,130\n \n45,45,1,x\n"
        with pytest.raises(qellip.cli.DataError, match="^line 4: duration must be finite and positive$"):
            qellip.cli.parse_counts_csv(text)

    @settings(max_examples=400, deadline=None)
    @given(
        rows=st.lists(st.tuples(FIELD_ANGLES, FIELD_ANGLES, FIELD_DWELLS, FIELD_COUNTS).map(",".join), max_size=6),
        end=st.sampled_from(["\n", "\r\n"]),
        splices=st.lists(st.tuples(st.booleans(), st.integers(0, 10**6), SPLICES), max_size=4),
    )
    def test_c_reader_agrees_on_spliced_rows(self, rows, end, splices):
        text = end.join([COUNTS_HEADER, *rows]) + end
        for at_edge, k, piece in splices:
            # past the header line's break, so the header stays: anywhere, or where a field starts or ends
            places = range(len(COUNTS_HEADER) + 1, len(text) + 1)
            if at_edge:
                places = [j for j in places if text[j - 1] in ",\r\n" or text[j:j + 1] in (",", "\r", "\n")]
            position = places[k % len(places)]
            text = text[:position] + piece + text[position:]
        assert_readers_agree(text)
