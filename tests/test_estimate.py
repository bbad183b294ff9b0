import math

import numpy as np
import pytest

from qellip import (
    AcquisitionPlan,
    CountRecord,
    DetectorModel,
    ExperimentScale,
    FitError,
    FitOptions,
    SampleParams,
    coincidence_rate,
    expected_counts,
    least_squares_fit,
    simulate_counts,
    subtract_accidentals,
    three_angle_from_counts,
    three_angle_invert,
)
from qellip.estimate import _nll_hessian, fit_negative_log_likelihood
from qellip.experiment import analyzer_terms, record_columns

DET = DetectorModel()
THETA2 = math.pi / 4
FIXTURE_N45 = 2.207106781186548  # forward rate at C=2, beta^2=2, delta=60 deg


def forward_rates(scale, params, theta1_degs, theta2=THETA2, vis=1.0):
    return [
        coincidence_rate(scale, params, math.radians(t), theta2, vis)
        for t in theta1_degs
    ]


def noiseless_records(params, theta1_degs, scale=2.0, theta2=THETA2, vis=1.0):
    """Emulate noiseless data: rates scaled to huge integer counts."""
    big = 1e9
    recs = []
    for t in theta1_degs:
        rate = coincidence_rate(scale, params, math.radians(t), theta2, vis)
        recs.append(
            CountRecord(math.radians(t), theta2, big, int(round(rate * big)))
        )
    return recs


class TestThreeAngleInvert:
    def test_fixture_round_trip(self):
        truth = SampleParams.from_beta_delta(math.sqrt(2), math.radians(60))
        n0, n45, n90 = forward_rates(2.0, truth, [0, 45, 90])
        assert n45 == pytest.approx(FIXTURE_N45, abs=1e-9)
        est = three_angle_invert(n0, n45, n90)
        assert est.C_hat == pytest.approx(2.0, abs=1e-9)
        assert math.degrees(est.psi_hat) == pytest.approx(63.435, abs=1e-3)
        assert est.psi_hat == pytest.approx(truth.psi, abs=1e-9)
        assert est.delta_mag_hat == pytest.approx(math.radians(60), abs=1e-9)

    def test_symmetric_input(self):
        est = three_angle_invert(1.0, 1.0, 1.0)
        assert est.C_hat == pytest.approx(2.0)
        assert est.psi_hat == pytest.approx(math.pi / 4, abs=1e-12)
        assert est.delta_mag_hat == pytest.approx(math.pi / 2, abs=1e-12)

    def test_constructive_peak(self):
        est = three_angle_invert(1.0, 2.0, 1.0)
        assert est.delta_mag_hat == pytest.approx(0.0, abs=1e-12)
        assert est.C_hat == pytest.approx(2.0)
        assert est.psi_hat == pytest.approx(math.pi / 4, abs=1e-12)

    def test_random_round_trips(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            truth = SampleParams.from_beta_delta(
                10 ** rng.uniform(-1, 1), rng.uniform(0, math.pi)
            )
            c = 10 ** rng.uniform(-1, 3)
            est = three_angle_invert(*forward_rates(c, truth, [0, 45, 90]))
            assert est.C_hat == pytest.approx(c, rel=1e-9)
            assert math.tan(est.psi_hat) == pytest.approx(truth.beta**2, rel=1e-9)
            assert math.cos(est.delta_mag_hat) == pytest.approx(
                math.cos(truth.delta), abs=1e-9
            )

    def test_scale_invariance_is_exact(self):
        # dyadic rate triple: every k-scaling below is exactly representable,
        # so the ratio-based inversion must be bit-identical
        n0, n45, n90 = 4.0, 2.0, 1.0
        base = three_angle_invert(n0, n45, n90)
        for k in (0.1, 0.5, 2.0, 10.0):
            scaled = three_angle_invert(k * n0, k * n45, k * n90)
            assert scaled.psi_hat == base.psi_hat  # bit identical
            assert scaled.delta_mag_hat == base.delta_mag_hat
            assert scaled.C_hat == k * base.C_hat

    def test_scale_invariance_general_rates(self):
        # arbitrary rates: scaling by a non-dyadic k perturbs the inputs at
        # the representation level, so allow one-ulp-scale slack
        truth = SampleParams.from_beta_delta(math.sqrt(2), math.radians(60))
        n0, n45, n90 = forward_rates(2.0, truth, [0, 45, 90])
        base = three_angle_invert(n0, n45, n90)
        for k in (0.1, 0.5, 2.0, 10.0):
            scaled = three_angle_invert(k * n0, k * n45, k * n90)
            assert scaled.psi_hat == pytest.approx(base.psi_hat, rel=1e-14)
            assert scaled.delta_mag_hat == pytest.approx(base.delta_mag_hat, rel=1e-14)
            assert scaled.C_hat == pytest.approx(k * base.C_hat, rel=1e-15)

    def test_null_rejected(self):
        with pytest.raises(ValueError, match="eigenpolarization null"):
            three_angle_invert(0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="eigenpolarization null"):
            three_angle_invert(1.0, 1.0, 0.0)

    def test_inconsistent_rates_flagged(self):
        est = three_angle_invert(1.0, 3.0, 1.0)  # cos(delta) = 1.5
        assert "inconsistent rates" in est.warnings
        assert est.delta_mag_hat == 0.0

    def test_covariance_shape(self):
        est = three_angle_invert(2.0, FIXTURE_N45, 1.0)
        cov = est.covariance
        assert cov.shape == (3, 3)
        np.testing.assert_allclose(cov, cov.T, atol=1e-12)
        assert np.linalg.eigvalsh(cov).min() >= -1e-9

    def test_covariance_is_the_delta_method_at_unit_dwell(self):
        # var(rate) = rate, propagated through the closed form's Jacobian
        rng = np.random.default_rng(11)
        for _ in range(50):
            truth = SampleParams.from_beta_delta(10 ** rng.uniform(-0.5, 0.5), rng.uniform(0.2, 2.9))
            n0, n45, n90 = forward_rates(10 ** rng.uniform(1, 4), truth, [0, 45, 90])
            est = three_angle_invert(n0, n45, n90)
            x, root, cos_d = n0 / n90, math.sqrt(n0 * n90), math.cos(est.delta_mag_hat)
            d_cos = np.array(
                [-1 / (2 * root) - cos_d / (2 * n0), 1 / root, -1 / (2 * root) - cos_d / (2 * n90)]
            )
            jac = np.array([
                [0.0, 0.0, 2.0],
                [1 / ((1 + x * x) * n90), 0.0, -x / ((1 + x * x) * n90)],
                -d_cos / math.sin(est.delta_mag_hat),
            ])
            np.testing.assert_allclose(est.covariance, jac @ np.diag([n0, n45, n90]) @ jac.T, rtol=1e-9)

    @pytest.mark.parametrize("rate_45", [2.0, 2.0 - 1e-15, 2.0 + 1e-15])
    def test_edge_reports_widest_delta_variance(self, rate_45):
        # at |cos delta| = 1 (or within rounding of it) delta carries no
        # information; the widest variance on [0, pi] is (pi/2)^2
        est = three_angle_invert(1.0, rate_45, 1.0)
        assert est.delta_mag_hat == pytest.approx(0.0, abs=1e-7)
        assert est.covariance[2, 2] == math.pi**2 / 4
        assert np.linalg.eigvalsh(est.covariance).min() >= 0.0


class TestThreeAngleFromCounts:
    def test_matches_rates_at_unit_dwell(self):
        recs = [CountRecord(math.radians(t), THETA2, 1.0, k) for t, k in ((0, 900), (45, 1700), (90, 1000))]
        a = three_angle_from_counts(recs, DET)
        b = three_angle_invert(900.0, 1700.0, 1000.0)
        assert (a.C_hat, a.psi_hat, a.delta_mag_hat) == (b.C_hat, b.psi_hat, b.delta_mag_hat)
        np.testing.assert_array_equal(a.covariance, b.covariance)

    def test_visibility_and_accidentals(self):
        # noiseless counts at V 0.9 with a background; reading V cos(delta)
        # as cos(delta) would give 63.26 deg
        det = DetectorModel(accidental_rate=50.0, visibility=0.9)
        truth = SampleParams.from_beta_delta(1.2, math.radians(60))
        rates = [coincidence_rate(2.0, truth, math.radians(t), THETA2, 0.9) + 50.0 for t in (0, 45, 90)]
        recs = [CountRecord(math.radians(t), THETA2, 1e6, round(r * 1e6)) for t, r in zip((0, 45, 90), rates)]
        est = three_angle_from_counts(recs, det)
        assert est.C_hat == pytest.approx(2.0, rel=1e-6)
        assert est.psi_hat == pytest.approx(truth.psi, abs=1e-6)
        assert math.degrees(est.delta_mag_hat) == pytest.approx(60.0, abs=1e-4)

    def test_sums_rows_of_one_setting(self):
        split = [CountRecord(0.0, THETA2, 0.25, 200), CountRecord(0.0, THETA2, 0.75, 700)]
        rest = [CountRecord(math.radians(t), THETA2, 1.0, k) for t, k in ((45, 1700), (90, 1000), (30, 5))]
        a = three_angle_from_counts(split + rest, DET)
        b = three_angle_invert(900.0, 1700.0, 1000.0)
        assert (a.C_hat, a.psi_hat, a.delta_mag_hat) == (b.C_hat, b.psi_hat, b.delta_mag_hat)

    def test_missing_setting(self):
        recs = [CountRecord(math.radians(t), THETA2, 1.0, 100) for t in (0, 90)]
        with pytest.raises(LookupError, match="missing theta1 = 45 deg"):
            three_angle_from_counts(recs, DET)

    def test_zero_visibility_is_unidentifiable(self):
        recs = [CountRecord(math.radians(t), THETA2, 1.0, k) for t, k in ((0, 900), (45, 1700), (90, 1000))]
        with pytest.raises(ValueError, match="unidentifiable"):
            three_angle_from_counts(recs, DetectorModel(visibility=0.0))


class TestSubtractAccidentals:
    def test_basic(self):
        det = DetectorModel(accidental_rate=10.0)
        recs = [CountRecord(0.0, THETA2, 1.0, 100)]
        assert subtract_accidentals(recs, det)[0][2] == pytest.approx(90.0)

    def test_floor_at_zero(self):
        det = DetectorModel(accidental_rate=10.0)
        recs = [CountRecord(0.0, THETA2, 1.0, 5)]
        assert subtract_accidentals(recs, det)[0][2] == 0.0

    def test_no_accidentals(self):
        recs = [CountRecord(0.0, THETA2, 4.0, 100)]
        assert subtract_accidentals(recs, DET)[0][2] == pytest.approx(25.0)


class TestLeastSquaresFit:
    def test_noiseless_recovery(self):
        truth = SampleParams.from_beta_delta(math.sqrt(2), math.radians(60))
        recs = noiseless_records(truth, range(0, 180, 15))
        est = least_squares_fit(recs, DET)
        assert est.C_hat == pytest.approx(2.0, abs=1e-9)
        assert est.psi_hat == pytest.approx(truth.psi, abs=1e-9)
        assert est.delta_mag_hat == pytest.approx(truth.delta, abs=1e-9)

    def test_agrees_with_three_angle(self):
        truth = SampleParams.from_beta_delta(0.7, 1.9)
        recs = noiseless_records(truth, range(0, 180, 15), scale=3.0)
        fit = least_squares_fit(recs, DET)
        inv = three_angle_invert(*forward_rates(3.0, truth, [0, 45, 90]))
        assert fit.psi_hat == pytest.approx(inv.psi_hat, abs=1e-6)
        assert fit.delta_mag_hat == pytest.approx(inv.delta_mag_hat, abs=1e-6)

    def test_noisy_errors_within_fisher_bounds(self):
        truth = SampleParams.from_beta_delta(1.3, math.radians(70))
        plan = AcquisitionPlan(
            tuple((math.radians(t), THETA2, 1.0) for t in range(0, 180, 15))
        )
        scale = ExperimentScale(1e6 / 12)
        for seed in range(30):
            recs = simulate_counts(plan, scale, DET, truth, seed=seed)
            est = least_squares_fit(recs, DET)
            sd_psi = math.sqrt(est.covariance[1, 1])
            sd_delta = math.sqrt(est.covariance[2, 2])
            assert abs(est.psi_hat - truth.psi) < 4 * sd_psi
            assert abs(est.delta_mag_hat - truth.delta) < 4 * sd_delta

    def test_with_accidentals_and_visibility(self):
        det = DetectorModel(accidental_rate=50.0, visibility=0.95)
        truth = SampleParams.from_beta_delta(0.8, 1.2)
        plan = AcquisitionPlan(
            tuple((math.radians(t), THETA2, 1.0) for t in range(0, 180, 10))
        )
        recs = simulate_counts(plan, ExperimentScale(1e5), det, truth, seed=21)
        est = least_squares_fit(recs, det)
        assert abs(est.psi_hat - truth.psi) < 0.02
        assert abs(est.delta_mag_hat - truth.delta) < 0.05

    def test_unidentifiable_plan(self):
        recs = [CountRecord(0.3, THETA2, 1.0, 100) for _ in range(5)]
        with pytest.raises(ValueError, match="unidentifiable|at least"):
            least_squares_fit(recs, DET)

    @pytest.mark.parametrize(
        "theta1s, theta2, counts",
        [
            ((0, 90, 180), THETA2, (1000, 700, 1010)),  # cross term vanishes at every row
            ((0, 45, 90, 135), 0.0, (100, 145, 190, 235)),  # only the sin^2 cos^2 term survives
        ],
        ids=["no-cross-term", "theta2-0"],
    )
    def test_plan_that_cannot_separate_rate_terms(self, theta1s, theta2, counts):
        recs = [CountRecord(math.radians(t), theta2, 1.0, k) for t, k in zip(theta1s, counts)]
        with pytest.raises(ValueError, match="unidentifiable"):
            least_squares_fit(recs, DET)

    def test_nonconvergence_carries_best_iterate(self):
        truth = SampleParams.from_beta_delta(1.5, 1.0)
        plan = AcquisitionPlan(
            tuple((math.radians(t), THETA2, 1.0) for t in range(0, 180, 15))
        )
        recs = simulate_counts(plan, ExperimentScale(1e4), DET, truth, seed=9)
        with pytest.raises(FitError) as excinfo:
            least_squares_fit(recs, DET, opts=FitOptions(max_iterations=1))
        assert excinfo.value.estimate is not None

    @pytest.mark.parametrize("counts, psi_deg", [((1000, 500, 0, 500), 90.0), ((0, 500, 1000, 500), 0.0)])
    def test_psi_boundary_raises_with_best_iterate(self, counts, psi_deg):
        # the null at 90 (or 0) deg is fitted by letting one polarization
        # vanish, so psi runs to the edge of its domain
        recs = [CountRecord(math.radians(t), THETA2, 1.0, k) for t, k in zip((0, 45, 90, 135), counts)]
        with pytest.raises(FitError, match="psi ran to") as excinfo:
            least_squares_fit(recs, DET)
        assert math.degrees(excinfo.value.estimate.psi_hat) == pytest.approx(psi_deg, abs=1e-6)

    def test_gradient_matches_finite_differences(self):
        truth = SampleParams.from_beta_delta(1.1, 0.8)
        plan = AcquisitionPlan(
            tuple((math.radians(t), THETA2, 1.0) for t in range(0, 180, 15))
        )
        recs = simulate_counts(plan, ExperimentScale(1e4), DET, truth, seed=4)
        rng = np.random.default_rng(13)
        for _ in range(100):
            u = np.array(
                [rng.uniform(5, 8), rng.uniform(-1, 1), rng.uniform(0.2, 2.9)]
            )
            _, grad = fit_negative_log_likelihood(u, recs, DET)
            for i in range(3):
                h = 1e-6 * max(1.0, abs(u[i]))
                up, um = u.copy(), u.copy()
                up[i] += h
                um[i] -= h
                fd = (
                    fit_negative_log_likelihood(up, recs, DET)[0]
                    - fit_negative_log_likelihood(um, recs, DET)[0]
                ) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_hessian_matches_finite_differences_of_gradient(self):
        truth = SampleParams.from_beta_delta(1.1, 0.8)
        plan = AcquisitionPlan(
            tuple((math.radians(t), THETA2, 1.0) for t in range(0, 180, 15))
        )
        det = DetectorModel(accidental_rate=5.0, visibility=0.97)
        recs = simulate_counts(plan, ExperimentScale(1e4), det, truth, seed=4)
        t1, t2, dur, k = record_columns(recs)
        terms = analyzer_terms(t1, t2)
        rng = np.random.default_rng(17)
        for _ in range(100):
            u = np.array(
                [rng.uniform(5, 8), rng.uniform(-1, 1), rng.uniform(0.2, 2.9)]
            )
            hess = _nll_hessian(u, terms, dur, k, det)
            for i in range(3):
                h = 1e-6 * max(1.0, abs(u[i]))
                up, um = u.copy(), u.copy()
                up[i] += h
                um[i] -= h
                fd = (
                    fit_negative_log_likelihood(up, recs, det)[1]
                    - fit_negative_log_likelihood(um, recs, det)[1]
                ) / (2 * h)
                np.testing.assert_allclose(hess[:, i], fd, rtol=1e-5, atol=1e-7)

    def test_seed_is_not_stuck_on_the_delta_edge(self):
        # the grid node nearest the truth is delta = pi, where d nll/d delta
        # vanishes; a fit seeded there stayed at 180 deg with sigma 0
        truth = SampleParams(psi=math.radians(2.0), delta=math.radians(172.0))
        plan = AcquisitionPlan(
            tuple((math.radians(t), THETA2, 1.0) for t in range(0, 180, 15))
        )
        recs = simulate_counts(plan, ExperimentScale(6000), DET, truth, seed=13)
        est = least_squares_fit(recs, DET)
        assert math.degrees(est.delta_mag_hat) == pytest.approx(169.06, abs=0.01)
        assert est.covariance[2, 2] > 0
        at_edge = [math.log(est.C_hat), math.log(est.beta_hat), math.pi]
        u_hat = [math.log(est.C_hat), math.log(est.beta_hat), est.delta_mag_hat]
        assert (
            fit_negative_log_likelihood(u_hat, recs, DET)[0]
            < fit_negative_log_likelihood(at_edge, recs, DET)[0] - 0.4
        )

    def test_zero_visibility_is_unidentifiable(self):
        recs = [CountRecord(math.radians(t), THETA2, 1.0, 100 + t) for t in range(0, 180, 15)]
        with pytest.raises(ValueError, match="unidentifiable"):
            least_squares_fit(recs, DetectorModel(visibility=0.0))

    def test_rmse_scales_with_counts(self):
        truth = SampleParams.from_beta_delta(1.2, math.radians(75))
        normalized = []
        for total in (1e4, 1e5, 1e6):
            plan = AcquisitionPlan(
                tuple((math.radians(t), THETA2, 1.0) for t in range(0, 180, 15))
            )
            scale = ExperimentScale(total / 12)
            errs = []
            for seed in range(60):
                recs = simulate_counts(plan, scale, DET, truth, seed=seed)
                est = least_squares_fit(recs, DET)
                errs.append(est.psi_hat - truth.psi)
            rmse = float(np.sqrt(np.mean(np.square(errs))))
            normalized.append(rmse * math.sqrt(total))
        ratio = max(normalized) / min(normalized)
        assert ratio < 1.5


class TestCalibration:
    """Monte-Carlo check that the reported covariance matches the spread of
    the estimates: over fixed seeds, the z-scores (estimate - truth)/sigma
    of psi and |delta| must have a mean near 0 and a standard deviation
    near 1."""

    @staticmethod
    def check_z_scores(estimator, psi_deg, delta_deg, dwell, accidental, vis):
        truth = SampleParams(psi=math.radians(psi_deg), delta=math.radians(delta_deg))
        det = DetectorModel(accidental_rate=accidental, visibility=vis)
        plan = AcquisitionPlan(
            tuple((math.radians(t), THETA2, dwell) for t in range(0, 180, 15))
        )
        z = []
        for seed in range(200):
            recs = simulate_counts(plan, ExperimentScale(6000), det, truth, seed=seed)
            est = estimator(recs, det)
            sigma = np.sqrt(np.diag(est.covariance))
            z.append(
                [
                    (est.psi_hat - truth.psi) / sigma[1],
                    (est.delta_mag_hat - truth.delta) / sigma[2],
                ]
            )
        assert np.mean(z, axis=0) == pytest.approx([0.0, 0.0], abs=0.25)
        assert np.std(z, axis=0) == pytest.approx([1.0, 1.0], abs=0.2)

    @pytest.mark.parametrize(
        "psi_deg, delta_deg, dwell, accidental, vis",
        [
            (89.8, 130.0, 1.0, 5.0, 0.97),  # psi near 90 deg
            (37.0, 80.0, 10.0, 50.0, 0.97),  # long dwell, strong background
            (10.0, 150.0, 1.0, 0.0, 1.0),  # small psi, delta near pi
        ],
    )
    def test_z_scores_have_unit_spread(self, psi_deg, delta_deg, dwell, accidental, vis):
        self.check_z_scores(least_squares_fit, psi_deg, delta_deg, dwell, accidental, vis)

    @pytest.mark.parametrize(
        "psi_deg, delta_deg, dwell, accidental, vis",
        [
            (89.8, 130.0, 1.0, 5.0, 0.97),  # V < 1: the cross term is V cos(delta)
            (37.0, 80.0, 10.0, 50.0, 0.97),  # 10 s dwell: var(rate) = k / t^2, not k
        ],
    )
    def test_three_angle_z_scores_have_unit_spread(self, psi_deg, delta_deg, dwell, accidental, vis):
        self.check_z_scores(three_angle_from_counts, psi_deg, delta_deg, dwell, accidental, vis)
