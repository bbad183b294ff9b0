import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qellip import (
    RATE_PROJECTION_FACTOR,
    AcquisitionPlan,
    DetectorModel,
    ExperimentScale,
    SampleParams,
    apply_local,
    coincidence_amplitude,
    coincidence_rate,
    entangled_state,
    expected_counts,
    sample_jones,
    simulate_counts,
    visibility,
)

I2 = np.eye(2)
MIRROR = SampleParams.mirror()


def projection_rate(params, t1, t2):
    """Quantum-projection oracle for the closed-form rate at V=1.

    The diagonal sample operator goes into the signal slot of the tensor
    product; on the (|HV>+|VH>)/sqrt(2) state this is equivalent to
    diag(1, b e^{i d}) acting on the idler and realizes the idler-arm
    reflection with the documented theta convention.
    """
    state = apply_local(entangled_state(), sample_jones(params), I2)
    return RATE_PROJECTION_FACTOR * abs(coincidence_amplitude(state, t1, t2)) ** 2


class TestCoincidenceRate:
    def test_cross_polarized_peak(self):
        assert coincidence_rate(2.0, MIRROR, 0.0, math.radians(45)) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_destructive_null(self):
        p = SampleParams(psi=math.pi / 4, delta=math.pi)
        rate = coincidence_rate(2.0, p, math.radians(45), math.radians(45))
        assert rate == pytest.approx(0.0, abs=1e-15)

    def test_mirror_sum_angle_form(self):
        rate = coincidence_rate(1.0, MIRROR, math.radians(30), math.radians(60))
        assert rate == pytest.approx(1.0, abs=1e-12)
        assert rate == pytest.approx(projection_rate(MIRROR, math.radians(30), math.radians(60)), abs=1e-12)

    def test_projection_oracle_equivalence(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = SampleParams.from_beta_delta(
                10 ** rng.uniform(-1, 1), rng.uniform(-math.pi, math.pi)
            )
            t1, t2 = rng.uniform(0, 2 * math.pi, 2)
            assert coincidence_rate(1.0, p, t1, t2) == pytest.approx(
                projection_rate(p, t1, t2), abs=1e-12
            )

    def test_theta2_45_reduction(self):
        # at theta2 = 45 deg the rate collapses to (C/2)|b e^{i d} cos t1 + sin t1|^2
        p = SampleParams.from_beta_delta(1.7, 1.1)
        for t1 in np.linspace(0, 2 * math.pi, 37):
            reduced = 0.5 * abs(
                p.beta * np.exp(1j * p.delta) * np.cos(t1) + np.sin(t1)
            ) ** 2
            assert coincidence_rate(1.0, p, float(t1), math.pi / 4) == pytest.approx(
                reduced, abs=1e-12
            )

    @given(t1=st.floats(0, 2 * math.pi))
    def test_pi_periodicity(self, t1):
        p = SampleParams.from_beta_delta(0.6, 2.0)
        assert coincidence_rate(1.0, p, t1 + math.pi, 0.9) == pytest.approx(
            coincidence_rate(1.0, p, t1, 0.9), abs=1e-12
        )

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            coincidence_rate(0.0, MIRROR, 0.0, 0.0)
        with pytest.raises(ValueError):
            coincidence_rate(1.0, MIRROR, 0.0, 0.0, visibility=1.5)


class TestExpectedCounts:
    def test_plain_rate_times_duration(self):
        plan = AcquisitionPlan(((0.0, math.pi / 4, 2.0),))
        means = expected_counts(plan, ExperimentScale(100.0), DetectorModel(), MIRROR)
        assert means[0] == pytest.approx(
            coincidence_rate(100.0, MIRROR, 0.0, math.pi / 4) * 2.0, rel=1e-12
        )

    def test_linear_in_eta2(self):
        plan = AcquisitionPlan(
            tuple((t, math.pi / 4, 1.0) for t in np.linspace(0, math.pi, 9))
        )
        full = expected_counts(plan, ExperimentScale(1e4), DetectorModel(eta2=1.0), MIRROR)
        half = expected_counts(plan, ExperimentScale(1e4), DetectorModel(eta2=0.5), MIRROR)
        np.testing.assert_allclose(half, full / 2, rtol=1e-12)

    def test_hand_computed_example(self):
        # 1e4/s pairs, both efficiencies 0.5, mirror at 45/45, 1 s, 10/s accidentals
        plan = AcquisitionPlan(((math.pi / 4, math.pi / 4, 1.0),))
        det = DetectorModel(eta1=0.5, eta2=0.5, accidental_rate=10.0)
        means = expected_counts(plan, ExperimentScale(1e4), det, MIRROR)
        assert means[0] == pytest.approx(2510.0, rel=1e-12)


    def test_matches_closed_form_per_setting(self):
        # reference: the rate written out per setting, not through the kernel
        def closed_form(c_eff, b, delta, vis, t1, t2):
            c1, s1, c2, s2 = math.cos(t1), math.sin(t1), math.cos(t2), math.sin(t2)
            return c_eff * (
                b * b * c1 * c1 * s2 * s2
                + s1 * s1 * c2 * c2
                + 2.0 * vis * b * math.cos(delta) * c1 * s1 * c2 * s2
            )

        rng = np.random.default_rng(5)
        for _ in range(20):
            params = SampleParams.from_beta_delta(
                10 ** rng.uniform(-1, 1), rng.uniform(-math.pi, math.pi)
            )
            det = DetectorModel(
                eta1=rng.uniform(0.1, 1.0),
                eta2=rng.uniform(0.1, 1.0),
                accidental_rate=rng.uniform(0.0, 50.0),
                visibility=rng.uniform(0.0, 1.0),
            )
            scale = ExperimentScale(10 ** rng.uniform(2, 6))
            settings = tuple(
                (t1, t2, dur)
                for t1, t2, dur in zip(
                    rng.uniform(0, 2 * math.pi, 50),
                    rng.uniform(0, 2 * math.pi, 50),
                    rng.uniform(0.1, 10.0, 50),
                )
            )
            c_eff = scale.pair_rate * det.eta1 * det.eta2
            b, vis = params.beta, det.visibility
            rates = [closed_form(c_eff, b, params.delta, vis, t1, t2) for t1, t2, _ in settings]
            want = np.array([(r + det.accidental_rate) * dur for r, (_, _, dur) in zip(rates, settings)])
            got = expected_counts(AcquisitionPlan(settings), scale, det, params)
            # rounding in the fringe terms is relative to the largest term, C * dwell
            atol = 1e-12 * c_eff * max(dur for _, _, dur in settings)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=atol)
            scalar = [coincidence_rate(c_eff, params, t1, t2, vis) for t1, t2, _ in settings]
            np.testing.assert_allclose(scalar, rates, rtol=1e-12, atol=1e-12 * c_eff)

    def test_floored_at_exact_null(self):
        # mirror rate ~ sin^2(t1 + t2) vanishes at t1 = 180 deg - t2; at
        # several of these nulls the unfloored sum rounds to about -1e-17
        t2s = [math.radians(d) for d in range(1, 90)]
        settings = tuple((math.pi - t2, t2, 1.0) for t2 in t2s)
        means = expected_counts(AcquisitionPlan(settings), ExperimentScale(1e4), DetectorModel(), MIRROR)
        assert np.all(means >= 0.0)
        assert all(coincidence_rate(1e4, MIRROR, t1, t2) >= 0.0 for t1, t2, _ in settings)
        np.testing.assert_allclose(means, 0.0, atol=1e-9)


class TestSimulateCounts:
    def test_deterministic(self):
        plan = AcquisitionPlan(
            tuple((t, math.pi / 4, 1.0) for t in np.linspace(0, math.pi, 13))
        )
        a = simulate_counts(plan, ExperimentScale(1e4), DetectorModel(), MIRROR, seed=7)
        b = simulate_counts(plan, ExperimentScale(1e4), DetectorModel(), MIRROR, seed=7)
        assert a == b
        c = simulate_counts(plan, ExperimentScale(1e4), DetectorModel(), MIRROR, seed=8)
        assert a != c

    def test_zero_mean_gives_zero_counts(self):
        p = SampleParams(psi=math.pi / 4, delta=math.pi)
        plan = AcquisitionPlan(((math.pi / 4, math.pi / 4, 1.0),))
        recs = simulate_counts(plan, ExperimentScale(1e6), DetectorModel(), p, seed=3)
        assert recs[0].counts == 0

    def test_poisson_moments(self):
        # 1e4 replicate draws at mean 100: mean within [97, 103] and
        # variance within [85, 115] (3-sigma Poisson bounds)
        plan = AcquisitionPlan(
            tuple((0.0, math.pi / 2, 1.0) for _ in range(10_000))
        )
        recs = simulate_counts(plan, ExperimentScale(100.0), DetectorModel(), MIRROR, seed=11)
        counts = np.array([r.counts for r in recs], dtype=float)
        assert 97.0 < counts.mean() < 103.0
        assert 85.0 < counts.var() < 115.0

    def test_bad_seed_rejected(self):
        plan = AcquisitionPlan(((0.0, math.pi / 4, 1.0),))
        with pytest.raises(ValueError):
            simulate_counts(plan, ExperimentScale(1.0), DetectorModel(), MIRROR, seed=-1)


class TestVisibility:
    def test_mirror_full_visibility(self):
        thetas = np.linspace(0, math.pi, 181)
        rates = [(t, coincidence_rate(1.0, MIRROR, float(t), math.pi / 4)) for t in thetas]
        assert visibility(rates) == pytest.approx(1.0, abs=1e-12)

    def test_reduced_visibility_parameter(self):
        thetas = np.linspace(0, math.pi, 181)
        rates = [
            (t, coincidence_rate(1.0, MIRROR, float(t), math.pi / 4, visibility=0.9))
            for t in thetas
        ]
        assert visibility(rates) == pytest.approx(0.9, abs=1e-12)

    def test_constant_rates(self):
        rates = [(t, 5.0) for t in np.linspace(0, math.pi, 9)]
        assert visibility(rates) == 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            visibility([(t, 1.0) for t in np.linspace(0, math.pi, 5)])
        with pytest.raises(ValueError):
            visibility([(t, 1.0) for t in np.linspace(0, 1.0, 9)])
        with pytest.raises(ValueError):
            visibility([(t, 0.0) for t in np.linspace(0, math.pi, 9)])


def test_detector_model_validation():
    with pytest.raises(ValueError):
        DetectorModel(eta1=0.0)
    with pytest.raises(ValueError):
        DetectorModel(eta2=1.5)
    with pytest.raises(ValueError):
        DetectorModel(accidental_rate=-1.0)
    with pytest.raises(ValueError):
        DetectorModel(visibility=1.2)


def test_plan_validation():
    with pytest.raises(ValueError):
        AcquisitionPlan(())
    with pytest.raises(ValueError):
        AcquisitionPlan(((0.0, 0.0, 0.0),))
