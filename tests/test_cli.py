import json
import math
import random
from pathlib import Path

import pytest

from qellip import __version__
from qellip.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

MIRROR_CONFIG = {
    "sample": {"type": "mirror"},
    "detector": {"eta1": 1.0, "eta2": 1.0, "accidental_per_s": 0.0, "visibility": 1.0},
    "scale": {"pairs_per_s": 10000},
    "plan": {"theta2_deg": 45.0, "sweep": {"start": 0, "stop": 180, "step": 15}, "dwell_s": 1.0},
    "seed": 7,
}


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def run(args):
    return main(args)


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

    def test_three_angle_matches_committed_golden_report(self, tmp_path):
        out = tmp_path / "report.json"
        csv = str(GOLDEN_DIR / "mirror_sweep_seed7.csv")
        assert run(["estimate", csv, "--method", "three-angle", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / "mirror_sweep_seed7_three_angle.json").read_bytes()

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

    def test_perfect_instrument_all_equal(self, tmp_path):
        cfg = write_config(tmp_path, MIRROR_CONFIG)
        out = tmp_path / "baseline.json"
        run(["baseline", "--config", cfg, "--out", str(out)])
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

    def test_unknown_sample_type_exits_2(self, tmp_path, capsys):
        config = dict(MIRROR_CONFIG, sample={"type": "hologram"})
        cfg = write_config(tmp_path, config)
        assert run(["simulate", "--config", cfg]) == 2
        assert "sample" in capsys.readouterr().err
