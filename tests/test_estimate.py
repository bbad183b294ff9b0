import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qellip import (
    AcquisitionPlan,
    CountRecord,
    CountTable,
    DetectorModel,
    EllipsometricEstimate,
    ExperimentScale,
    FilmStack,
    FitError,
    SampleParams,
    coincidence_rate,
    expected_counts,
    film_stack_reflectance,
    least_squares_fit,
    psi_delta_from_coeffs,
    simulate_counts,
    subtract_accidentals,
    three_angle_from_counts,
    three_angle_invert,
)
import qellip.estimate
from qellip.cli import parse_counts_csv
from qellip.estimate import _at_optimum, _estimate_table, _nll_derivatives, fit_negative_log_likelihood
from qellip.experiment import analyzer_terms, mean_counts, record_columns

GOLDEN_CSV = Path(__file__).parent / "golden" / "mirror_sweep_seed7.csv"

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
        # r_0 / r_90 under- or overflows: log(0) or log(inf) reached eigh
        with pytest.raises(ValueError, match="eigenpolarization null"):
            three_angle_invert(1e-200, 1e100, 1e200)
        with pytest.raises(ValueError, match="eigenpolarization null"):
            three_angle_invert(1e200, 1e100, 1e-200)

    @pytest.mark.parametrize("rates", [(-1.0, 0.5, 1.0), (1.0, -0.5, 1.0), (1.0, 0.5, -1.0)])
    def test_negative_rates_rejected(self, rates):
        with pytest.raises(ValueError, match="rates must be non-negative"):
            three_angle_invert(*rates)

    def test_zero_cross_rate_accepted(self):
        est = three_angle_invert(1.0, 0.0, 1.0)  # cos(delta) = -1
        assert est.delta_mag_hat == pytest.approx(math.pi)

    @pytest.mark.parametrize(
        "rates",
        # the last: finite rates whose C = 2 r_90 overflows
        [(1.0, math.nan, 1.0), (1.0, math.inf, 1.0), (math.inf, 1.0, 1.0), (1.0, 1.0, math.inf),
         (1e308, 1e308, 1.7e308)],
    )
    def test_non_finite_rates_rejected(self, rates):
        with pytest.raises(ValueError, match="rates must be finite"):
            three_angle_invert(*rates)

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

    @pytest.mark.parametrize("shape", [(2, 2), (3,), (9,), (3, 3, 1)])
    def test_covariance_of_another_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="^covariance must be 3x3$"):
            EllipsometricEstimate(1.0, 0.5, 0.5, np.zeros(shape), method="three_angle")

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

    def test_rates_past_the_delta_edge_give_a_psd_rank_2_covariance(self):
        # cos(delta) = 5.2: the Hessian there is indefinite, and its negative
        # direction is dropped before the map to (C, psi, delta)
        est = three_angle_invert(0.65, 2.15, 0.17)
        assert "inconsistent rates" in est.warnings
        cov = est.covariance
        np.testing.assert_array_equal(cov, cov.T)
        w = np.linalg.eigvalsh(cov)
        assert w.min() >= -1e-15 * w.max()
        assert np.linalg.matrix_rank(cov) == 2
        np.testing.assert_allclose(np.diag(cov), [0.00773793, 0.0333476, 1.58668724], rtol=1e-5)

    def test_non_finite_hessian_gives_a_nan_covariance(self):
        # the Hessian at these rates is not finite; eigh gave a LinAlgError there,
        # and the delta edge rule may not fill in var delta
        with pytest.raises(FitError, match="^covariance is not finite$") as excinfo:
            three_angle_invert(1e-300, 1e150, 1e18)
        est = excinfo.value.estimate
        assert est.C_hat == 2e18
        assert np.isnan(est.covariance).all()

    @given(st.lists(st.floats(-320.0, 308.25), min_size=3, max_size=3))
    def test_estimate_has_a_finite_covariance_or_fails(self, exponents):
        # rates 10^U(-320, 308.25), subnormal to near the largest float: an
        # estimate with a finite covariance, no estimate (ValueError), or an
        # untrusted one (FitError) that carries finite (C, psi, |delta|)
        try:
            est, failed = three_angle_invert(*(10.0**e for e in exponents)), False
        except ValueError:
            return
        except FitError as exc:
            est, failed = exc.estimate, True
        assert np.isfinite([est.C_hat, est.psi_hat, est.delta_mag_hat]).all()
        assert np.isfinite(est.covariance).all() != failed

    def test_huge_rates_give_the_poisson_variances(self):
        # var(rate) = rate: var C = 4 r and var psi = 1 / (2 r) at equal rates r
        est = three_angle_invert(1e300, 1e300, 1e300)
        assert np.isfinite(est.covariance).all()
        assert est.covariance[0, 0] == pytest.approx(4e300, rel=1e-12)
        assert est.covariance[1, 1] == pytest.approx(5e-301, rel=1e-12)


class TestFisherCovariance:
    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
        st.lists(st.one_of(st.none(), st.floats(-10.0, 0.0)), min_size=3, max_size=3),
        st.floats(-50.0, 50.0),
        st.tuples(st.floats(-30.0, 30.0), st.floats(-5.0, 5.0), st.floats(0.0, math.pi)),
    )
    def test_is_the_mapped_pseudo_inverse_for_psd_hessians(self, basis, exponents, log_scale, u):
        # H = Q diag(w) Q^T with each eigenvalue 0 or within 1e-10 of the largest
        q = np.linalg.qr(np.reshape(basis, (3, 3)))[0]
        w = np.array([0.0 if e is None else 10.0 ** (log_scale + e) for e in exponents])
        hess = (q * w) @ q.T
        cov = _at_optimum(np.array(u), np.zeros(3), hess)[0]
        np.testing.assert_array_equal(cov, cov.T)
        jac = np.array([math.exp(u[0]), 1.0 / math.cosh(2.0 * u[1]), 1.0])
        hess_pinv = np.linalg.pinv(hess)
        expected = jac[:, None] * jac * hess_pinv
        if expected[2, 2] * hess[2, 2] < 0.5:  # the delta direction is cut: the widest spread on [0, pi]
            expected[2, 2] = math.pi**2 / 4
        # both are backward stable: they agree to rounding times the condition number
        cond = w.max() / w[w > 0].min() if w.any() else 1.0
        atol = 64 * np.finfo(float).eps * cond * np.abs(hess_pinv).max() * np.outer(jac, jac)
        np.testing.assert_array_less(np.abs(cov - expected), atol + 1e-300)


@pytest.mark.parametrize("estimator", [three_angle_from_counts, least_squares_fit])
def test_no_delta_information_reports_the_widest_delta_variance(estimator):
    # at V = 1e-12 the delta direction falls under the eigenvalue cutoff: both
    # estimators report (pi/2)^2, not the ~1e-50 the cut Hessian gives
    plan = AcquisitionPlan(np.column_stack([np.radians(np.arange(0, 166, 15.0)), np.full(12, THETA2), np.ones(12)]))
    det = DetectorModel(visibility=1e-12)
    recs = simulate_counts(plan, ExperimentScale(1e5), det, SampleParams(math.radians(37), math.radians(80)), 3)
    est = estimator(recs, det)
    assert est.covariance[2, 2] == math.pi**2 / 4
    assert np.isfinite(est.covariance).all()


@pytest.mark.parametrize("estimator", [three_angle_from_counts, least_squares_fit])
def test_overflowing_covariance_raises_with_the_estimate(estimator):
    # C is about 2e163/s at a 1e-160 s dwell, so var C overflows while var psi
    # and var delta do not
    recs = [CountRecord(math.radians(t), THETA2, 1e-160, k) for t, k in ((0, 900), (45, 1700), (90, 1000), (135, 300))]
    with pytest.raises(FitError, match="^covariance is not finite$") as excinfo:
        estimator(recs, DET)
    cov = excinfo.value.estimate.covariance
    assert cov[0, 0] == math.inf
    assert np.isfinite([cov[1, 1], cov[2, 2]]).all()


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

    def test_rates_that_overflow_rejected(self):
        # 9e18 counts in 1e-300 s: the rate is past the largest float
        recs = [CountRecord(math.radians(t), THETA2, 1e-300, k) for t, k in ((0, 9 * 10**18), (45, 5), (90, 7))]
        with pytest.raises(ValueError, match="rates must be finite"):
            three_angle_from_counts(recs, DET)


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

    def test_nonconvergence_carries_best_iterate(self, monkeypatch):
        truth = SampleParams.from_beta_delta(1.5, 1.0)
        plan = AcquisitionPlan(
            tuple((math.radians(t), THETA2, 1.0) for t in range(0, 180, 15))
        )
        recs = simulate_counts(plan, ExperimentScale(1e4), DET, truth, seed=9)
        far = EllipsometricEstimate(1e3, 0.2, 2.8, np.zeros((3, 3)), method="init")
        monkeypatch.setattr(qellip.estimate, "_MAX_ITERATIONS", 1)
        with pytest.raises(FitError, match="did not converge") as excinfo:
            least_squares_fit(recs, DET, init=far)
        assert excinfo.value.estimate is not None

    @pytest.mark.parametrize("method, estimator", [("fit", least_squares_fit),
                                                   ("three-angle", three_angle_from_counts)])
    @pytest.mark.parametrize("dwell", [None, 1e-160], ids=["converged", "fit-error"])
    def test_wrapper_adds_nothing_to_the_array_core(self, method, estimator, dwell):
        # The CLI's entry gives the public estimator's outcome.  At a 1e-160 s
        # dwell C is about 1e164, so var C overflows and both raise FitError.
        table = parse_counts_csv(GOLDEN_CSV.read_text())
        if dwell is not None:
            table = CountTable(table.theta1, table.theta2, np.full(len(table), dwell), table.counts)
        try:
            public, failures = estimator(table, DET), []
        except FitError as exc:
            public, failures = exc.estimate, [str(exc)]
        entry, residuals, entry_failures = _estimate_table(table, DET, method)
        assert entry_failures == failures and (failures == []) == (dwell is None)
        for field in dataclasses.fields(EllipsometricEstimate):
            a, b = getattr(entry, field.name), getattr(public, field.name)
            assert np.array_equal(a, b) if field.name == "covariance" else a == b
        t1, t2, dur, k = record_columns(table)
        mu = mean_counts(analyzer_terms(t1, t2), dur, public.C_hat, public.beta_hat, public.delta_mag_hat, DET)
        assert np.array_equal(residuals, k - mu)

    @pytest.mark.parametrize("shift_sigma, converged", [(0.5, False), (1e-4, True)])
    def test_newton_decrement_decides_convergence(self, monkeypatch, shift_sigma, converged):
        # An optimizer that stops shift_sigma standard deviations off in delta:
        # g^T H^+ g is then shift_sigma^2.  At 0.5 sigma max |g| (995) is
        # still under 1e-5 |sum(mu - k log mu)| (1239), the old acceptance rule.
        truth = SampleParams.from_beta_delta(1.5, 1.0)
        plan = AcquisitionPlan(
            tuple((math.radians(t), THETA2, 1.0) for t in range(0, 180, 15))
        )
        recs = simulate_counts(plan, ExperimentScale(1e6), DET, truth, seed=9)
        best = least_squares_fit(recs, DET)
        stop = np.array([math.log(best.C_hat), math.log(best.beta_hat), best.delta_mag_hat])
        stop[2] += shift_sigma * math.sqrt(best.covariance[2, 2])

        def stopped(u, terms, dur, k, det):
            return stop, _nll_derivatives(stop, terms, dur, k, det), "stopped"

        monkeypatch.setattr(qellip.estimate, "_damped_newton", stopped)
        if converged:
            assert least_squares_fit(recs, DET).delta_mag_hat == stop[2]
        else:
            with pytest.raises(FitError, match="did not converge") as excinfo:
                least_squares_fit(recs, DET)
            assert excinfo.value.estimate.delta_mag_hat == stop[2]

    def test_non_finite_hessian_fails_with_best_iterate(self, monkeypatch):
        # NaN Hessians from the second evaluation on, i.e. from the first trial step
        real, calls = _nll_derivatives, []

        def poisoned(*args):
            calls.append(None)
            nll, grad, hess = real(*args)
            return nll, grad, (hess if len(calls) == 1 else np.full((3, 3), np.nan))

        monkeypatch.setattr(qellip.estimate, "_nll_derivatives", poisoned)
        truth = SampleParams.from_beta_delta(1.5, 1.0)
        plan = AcquisitionPlan(
            tuple((math.radians(t), THETA2, 1.0) for t in range(0, 180, 15))
        )
        recs = simulate_counts(plan, ExperimentScale(1e4), DET, truth, seed=9)
        with pytest.raises(FitError, match="did not converge: non-finite Hessian") as excinfo:
            least_squares_fit(recs, DET)
        est = excinfo.value.estimate
        assert np.isfinite([est.C_hat, est.psi_hat, est.delta_mag_hat]).all()
        assert np.isnan(est.covariance).all()

    def test_all_zero_counts_cannot_seed(self):
        recs = [CountRecord(math.radians(t), THETA2, 1.0, 0) for t in range(0, 180, 15)]
        with pytest.raises(ValueError, match="cannot seed fit: no counts"):
            least_squares_fit(recs, DET)

    def test_non_finite_linear_seed_cannot_seed(self):
        # A t = 1e310 overflows, so the linear model's solution is NaN
        recs = [CountRecord(math.radians(t), THETA2, 1e10, 100) for t in (0, 45, 90, 135)]
        with pytest.raises(ValueError, match="cannot seed fit: the linear model of the counts is not finite"):
            least_squares_fit(recs, DetectorModel(accidental_rate=1e300))

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

    def test_nll_is_half_the_poisson_deviance(self):
        # sum(mu - k + k log(k/mu)): 0 where mu = k, so at 1e8 counts a change
        # of 1e-6 near the optimum is not lost to a ~1e9 offset
        rows = ((0, 0), (45, 1200), (90, 300_000_000), (135, 7))
        recs = [CountRecord(math.radians(t), THETA2, 2.0, k) for t, k in rows]
        det = DetectorModel(accidental_rate=3.0, visibility=0.9)
        c, beta, delta = 1.5e8, 0.8, 1.0
        params = SampleParams.from_beta_delta(beta, delta)
        want = 0.0
        for t, k in rows:
            mu = 2.0 * (coincidence_rate(c, params, math.radians(t), THETA2, 0.9) + 3.0)
            want += mu - k + (k * math.log(k / mu) if k else 0.0)
        nll, _ = fit_negative_log_likelihood([math.log(c), math.log(beta), delta], recs, det)
        assert nll == pytest.approx(want, rel=1e-9)

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
            with np.errstate(all="ignore"):
                _, _, hess = _nll_derivatives(u, terms, dur, k, det)
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


def reference_derivatives(u, terms, dur, k, det):
    """NLL, gradient and Hessian in u = (log C, log beta, delta) from the
    elementwise first and second derivatives of the rate, record by record:
    the reference for the one-pass kernel, which sums them through the
    analyzer-term matrix instead."""
    c, b, delta = math.exp(u[0]), math.exp(u[1]), u[2]
    a, bb, cross = terms
    vis, cos_d, sin_d = det.visibility, math.cos(delta), math.sin(delta)
    s = np.maximum(b * b * a + bb + 2.0 * vis * b * cos_d * cross, 0.0)
    ds_db = 2.0 * b * a + 2.0 * vis * cos_d * cross
    ds_dd = -2.0 * vis * b * sin_d * cross
    d2s_db2 = 2.0 * a
    d2s_dbd = -2.0 * vis * sin_d * cross
    d2s_dd2 = -2.0 * vis * b * cos_d * cross
    mu = (c * s + det.accidental_rate) * dur
    mu_safe = np.maximum(mu, 1e-300)
    nll = float(np.sum(mu - k - k * np.log(mu_safe / np.maximum(k, 1))))
    g = np.array([s, b * ds_db, ds_dd])  # dmu/du = C t g, d2mu/du2 = C t gg
    gg = np.array([g, [g[1], g[1] + b * b * d2s_db2, b * d2s_dbd], [ds_dd, b * d2s_dbd, d2s_dd2]])
    cd, r = c * dur, k / mu_safe
    grad = g @ ((1.0 - r) * cd)
    hess = gg @ ((1.0 - r) * cd) + (g * (r / mu_safe * cd * cd)) @ g.T
    return nll, grad, hess


class TestNllDerivatives:
    @pytest.mark.parametrize("theta2_degs", [(45.0,), (45.0, 20.0)])
    def test_matches_the_elementwise_reference(self, theta2_degs):
        rng = np.random.default_rng(len(theta2_degs))
        for _ in range(100):
            rows = [(math.radians(t1), math.radians(t2), rng.choice([0.5, 1.0, 3.0, 10.0]))
                    for t2 in theta2_degs for t1 in range(0, 180, 15)]
            plan = AcquisitionPlan(rows)
            det = DetectorModel(accidental_rate=rng.uniform(0.0, 500.0), visibility=rng.uniform(0.1, 1.0))
            truth = SampleParams(rng.uniform(0.05, 1.5), rng.uniform(0.0, math.pi))
            scale = ExperimentScale(10 ** rng.uniform(1.0, 6.0))
            recs = simulate_counts(plan, scale, det, truth, seed=int(rng.integers(2**32)))
            t1, t2, dur, k = record_columns(recs)
            terms = analyzer_terms(t1, t2)
            u = np.array([math.log(scale.pair_rate) + rng.normal(), math.log(truth.beta) + rng.normal(),
                          rng.uniform(-1.0, 4.0)])
            with np.errstate(all="ignore"):
                nll, grad, hess = _nll_derivatives(u, terms, dur, k, det)
            ref_nll, ref_grad, ref_hess = reference_derivatives(u, terms, dur, k, det)
            assert nll == pytest.approx(ref_nll, rel=1e-12)
            np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-12 * np.abs(ref_grad).max())
            np.testing.assert_allclose(hess, ref_hess, rtol=1e-12, atol=1e-12 * np.abs(ref_hess).max())

    @pytest.mark.parametrize("u", [(math.nan, 0.0, 1.0), (0.0, math.inf, 1.0), (0.0, 0.0, -math.inf),
                                   (0.0, 0.0, math.nan), (800.0, 0.0, 1.0), (0.0, 400.0, 1.0)])
    def test_non_finite_point_never_wins(self, u):
        recs = noiseless_records(SampleParams.from_beta_delta(1.5, 1.0), range(0, 180, 15))
        nll, grad = fit_negative_log_likelihood(u, recs, DetectorModel(accidental_rate=3.0))
        assert nll == 1e300
        assert np.isfinite(grad).all()


def _film(film_nm):
    """(psi, delta) of an SiO2 film on Si at 70 deg, 632.8 nm."""
    stack = FilmStack(wavelength=632.8e-9, incidence_angle=math.radians(70.0), n_ambient=1.0,
                      layers=((1.457, film_nm * 1e-9),), n_substrate=3.882 + 0.019j)
    return psi_delta_from_coeffs(film_stack_reflectance(stack))


def _degrees(psi_deg, delta_deg):
    return SampleParams(math.radians(psi_deg), math.radians(delta_deg))


FILM_PLAN = tuple((math.radians(t), THETA2, 1.0) for t in range(0, 180, 15))
FILM_DET = DetectorModel(0.2, 0.3, 5.0, 0.97)


class TestAgreementWith020:
    """The fit agrees with release 0.2.0 (scipy's trust-exact on the same
    NLL, gradient and Hessian) on fixed plans: estimates within 1e-3 sigma,
    NLL at the optimum at most 1e-9 above."""

    # name: (plan, pairs/s, detector, sample, seed)
    CASES = {
        "film-284nm-delta-180": (FILM_PLAN, 1e5, FILM_DET, lambda: _film(284.0), 1),
        "delta-near-0": (FILM_PLAN, 1e5, FILM_DET, lambda: _degrees(30.0, 2.0), 2),
        "film-150nm": (FILM_PLAN, 1e5, FILM_DET, lambda: _film(150.0), 3),
        "low-count": (
            tuple((math.radians(t), THETA2, 1.0) for t in range(0, 180, 30)),
            40.0, DET, lambda: _degrees(40.0, 70.0), 4,
        ),
        "two-theta2": (
            tuple((math.radians(t), math.radians(t2), 10.0) for t2 in (45, 20) for t in range(0, 180, 15)),
            1e4, DetectorModel(accidental_rate=50.0, visibility=0.9), lambda: _degrees(37.0, 30.0), 5,
        ),
        "mixed-dwell": (
            tuple((math.radians(6 * j), math.radians(45 - j), (0.1, 1.0, 10.0)[j % 3]) for j in range(30)),
            1e4, DetectorModel(accidental_rate=5.0, visibility=0.95), lambda: _degrees(80.0, 120.0), 6,
        ),
    }
    # name: (C, psi, |delta|, NLL at the optimum) from qellip 0.2.0
    RELEASE_020 = {
        "film-284nm-delta-180": (6105.1799661355135, 0.034626689176606724, 2.9400576376269543, 3.5224888230195126),
        "delta-near-0": (5996.695780383889, 0.5222641624831077, 0.0, 1.5102021225952766),
        "film-150nm": (5957.922362420371, 1.5056533405143306, 1.645682964867605, 8.198295588681162),
        "low-count": (37.603032188190184, 0.8680622299907824, 0.9315782004757585, 0.18348160614680156),
        "two-theta2": (10004.533831611394, 0.6463923858290683, 0.5177542293279064, 11.807265562327238),
        "mixed-dwell": (10021.243180132791, 1.3958669455838633, 2.0974961326930033, 8.0818758359261),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_matches_release_020(self, name):
        plan, pairs_per_s, det, sample, seed = self.CASES[name]
        recs = simulate_counts(AcquisitionPlan(plan), ExperimentScale(pairs_per_s), det, sample(), seed)
        est = least_squares_fit(recs, det)
        *x_020, nll_020 = self.RELEASE_020[name]
        x = [est.C_hat, est.psi_hat, est.delta_mag_hat]
        sigma = np.sqrt(np.diag(est.covariance))
        assert np.all(np.abs(np.subtract(x, x_020)) <= 1e-3 * sigma)
        nll, _ = fit_negative_log_likelihood([math.log(x[0]), math.log(est.beta_hat), x[2]], recs, det)
        assert nll <= nll_020 + 1e-9


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
