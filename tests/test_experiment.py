import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qellip import (
    AcquisitionPlan,
    CountRecord,
    CountTable,
    DetectorModel,
    ExperimentScale,
    SampleParams,
    coincidence_rate,
    expected_counts,
    simulate_counts,
    visibility,
)
from qellip import _draws
from qellip.experiment import record_columns

from oracle import projection_rate

MIRROR = SampleParams.mirror()
SEEDS = [0, 7, 2**63 + 5, 2**64 - 1]


def new_philox_draws(seed, means):
    """The draw contract written out: record i draws from a new
    Generator(Philox(key=[seed, i])), and a record of mean 0 draws nothing."""
    return [
        0 if mean == 0 else
        np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64))).poisson(mean)
        for i, mean in enumerate(means)
    ]


def state_reset_draws(seed, means):
    """The contract as a loop: one Philox reset to key (seed, i), counter 0
    and an empty buffer (the state of a new Philox) for each record."""
    bit_generator = np.random.Philox(key=0)
    rng = np.random.Generator(bit_generator)
    key = [int(seed), 0]
    state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": key},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    counts = np.zeros(len(means), dtype=np.int64)
    for i in np.flatnonzero(means).tolist():
        key[1] = i
        bit_generator.state = state
        counts[i] = rng.poisson(means[i])
    return counts


def mirror_plan(dwell, zero):
    """A plan whose mean counts at pair rate 1 are exactly dwell, or exactly 0
    where zero is set: the analyzers at (90, 0 deg), or at (0, 0)."""
    theta1 = np.where(zero, 0.0, math.pi / 2)
    return AcquisitionPlan(np.column_stack((theta1, np.zeros(len(dwell)), dwell)))


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

    def test_rate_that_overflows_is_rejected(self):
        # b^2 = tan(psi) is about 5.7e8, so 1e305 * b^2 / 2 at theta1 = 0 overflows
        p = SampleParams(psi=math.radians(89.9999999), delta=math.radians(10.0))
        with pytest.raises(ValueError, match="^coincidence rate is not finite$"):
            coincidence_rate(1e305, p, np.radians([0.0, 45.0, 90.0]), math.pi / 4)


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

    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, 2**64 - 1])
    def test_draws_match_a_new_philox_per_record(self, seed):
        # The reference is the draw contract written out: record i draws from
        # a new Generator(Philox(key=[seed, i])), and a record of mean 0 draws
        # nothing.  With the analyzers at (0, 90 deg) the mean is
        # pair_rate * dwell; at (0, 0) it is exactly 0.
        rng = np.random.default_rng(1)
        dwell = np.concatenate([
            np.geomspace(1e-3, 9.9, 80),  # Poisson by inversion
            np.geomspace(11.0, 1e9, 80),  # Poisson by PTRS
            np.ones(20),
        ])
        theta2 = np.where(np.arange(dwell.size) < 160, math.pi / 2, 0.0)
        order = rng.permutation(dwell.size)
        plan = AcquisitionPlan(np.column_stack((np.zeros(dwell.size), theta2[order], dwell[order])))
        means = expected_counts(plan, ExperimentScale(1.0), DetectorModel(), MIRROR)
        assert np.sum(means == 0) == 20 and np.sum((means > 0) & (means < 10)) == 80
        assert np.max(means) == pytest.approx(1e9)

        want = [
            0 if mean == 0 else
            np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64))).poisson(mean)
            for i, mean in enumerate(means)
        ]
        got = simulate_counts(plan, ExperimentScale(1.0), DetectorModel(), MIRROR, seed=seed)
        assert got.counts.dtype == np.int64
        np.testing.assert_array_equal(got.counts, want)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_first_block_is_a_new_philox_first_four_words(self, seed):
        index = np.array([0, 1, 12345, 2**32 + 1, 2**63, 2**64 - 1], dtype=np.uint64)
        want = [np.random.Philox(key=np.array([seed, i], dtype=np.uint64)).random_raw(4) for i in index.tolist()]
        np.testing.assert_array_equal(np.column_stack(_draws.first_block(seed, index)), want)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_array_path_matches_a_new_philox_per_record(self, seed):
        # 2 000 records of mean 10 to 1e9 take the array path, and each of its
        # outcomes occurs: a count decided by a try in the first block, a record
        # whose two tries both failed, and a log test too close to call.  numpy
        # draws each record the first block does not decide from a new Philox.
        dwell = np.concatenate([np.geomspace(1e-3, 9.9, 400), np.geomspace(10.0, 1e9, 2000), np.ones(100)])
        order = np.random.default_rng(2).permutation(dwell.size)
        plan = mirror_plan(dwell[order], order >= 2400)
        means = expected_counts(plan, ExperimentScale(1.0), DetectorModel(), MIRROR)
        ptrs = np.flatnonzero(means >= 10)
        np.testing.assert_array_equal(means, np.where(order >= 2400, 0.0, dwell[order]))
        assert ptrs.size == 2000 >= _draws._VECTOR_FROM
        outcomes = _draws.first_block_ptrs(seed, ptrs, means[ptrs])[1]
        assert set(outcomes.tolist()) == {_draws.DECIDED, _draws.FAILED, _draws.TIE}
        got = simulate_counts(plan, ExperimentScale(1.0), DetectorModel(), MIRROR, seed=seed)
        np.testing.assert_array_equal(got.counts, new_philox_draws(seed, means))

    @pytest.mark.parametrize("seed", [7, 2**64 - 1])
    @pytest.mark.parametrize("n_ptrs", [_draws._VECTOR_FROM - 1, _draws._VECTOR_FROM], ids=["loop", "arrays"])
    def test_draws_at_the_array_path_threshold_match_a_new_philox_per_record(self, seed, n_ptrs):
        # One PTRS record fewer than the threshold is drawn by the loop alone,
        # exactly the threshold by the array path; zero and sub-10 means mixed in.
        rng = np.random.default_rng(4)
        means = np.concatenate([10.0 ** rng.uniform(1, 9, n_ptrs), rng.uniform(1e-3, 9.9, 150), np.zeros(50)])
        means = means[rng.permutation(means.size)]
        assert np.sum(means >= 10) == n_ptrs
        got = simulate_counts(mirror_plan(np.where(means == 0, 1.0, means), means == 0), ExperimentScale(1.0),
                              DetectorModel(), MIRROR, seed=seed)
        np.testing.assert_array_equal(got.counts, new_philox_draws(seed, means))

    def test_array_path_matches_the_state_reset_loop_over_many_records(self):
        rng = np.random.default_rng(3)
        n = 200_000
        means = np.concatenate([rng.uniform(1e-3, 10.0, n // 5), 10.0 ** rng.uniform(1, 9, n - n // 5)])
        means[rng.random(n) < 0.05] = 0.0
        got = simulate_counts(mirror_plan(np.where(means == 0, 1.0, means), means == 0), ExperimentScale(1.0),
                              DetectorModel(), MIRROR, seed=2**63 + 5)
        np.testing.assert_array_equal(got.counts, state_reset_draws(2**63 + 5, means))

    @pytest.mark.parametrize("seed", [1.5, True, np.float64(1.9), "1", -1, 2**64, np.int64(-1)])
    def test_seed_that_is_not_an_unsigned_64_bit_integer_is_rejected(self, seed):
        # the CLI's seed rule: an integer, Python or numpy, not a bool, in [0, 2**64)
        with pytest.raises(ValueError, match="seed must be an unsigned 64-bit integer"):
            simulate_counts(mirror_plan(np.ones(3), np.zeros(3, bool)), ExperimentScale(1.0), DetectorModel(), MIRROR,
                            seed)

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint64(2**64 - 1)])
    def test_numpy_integer_seed_draws_as_its_python_int(self, seed):
        plan = mirror_plan(np.geomspace(0.5, 1e6, 40), np.zeros(40, bool))  # numpy's draws and the array path
        got = simulate_counts(plan, ExperimentScale(1.0), DetectorModel(), MIRROR, seed)
        assert got == simulate_counts(plan, ExperimentScale(1.0), DetectorModel(), MIRROR, int(seed))

    @pytest.mark.parametrize("pair_rate, dwell", [(1e300, 1e10), (1e19, 1.0)], ids=["overflow", "above-limit"])
    def test_mean_beyond_numpy_poisson_limit_is_rejected(self, pair_rate, dwell):
        # 1e300 * 1e10 overflows to inf; 1e19 is finite but above numpy's limit
        plan = AcquisitionPlan(tuple((t, 0.0, dwell) for t in np.radians(np.arange(0.0, 181.0, 15.0))))
        with pytest.raises(ValueError, match=r"^mean counts must be finite and at most 9\.2e18 to draw$"):
            simulate_counts(plan, ExperimentScale(pair_rate), DetectorModel(), MIRROR, seed=0)

    def test_mean_at_numpy_poisson_limit_is_drawn(self):
        limit = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10  # numpy's own bound
        got = simulate_counts(mirror_plan([limit], [False]), ExperimentScale(1.0), DetectorModel(), MIRROR, seed=0)
        assert got.counts.tolist() == new_philox_draws(0, [limit])
        with pytest.raises(ValueError, match="^mean counts must be finite"):
            simulate_counts(mirror_plan([np.nextafter(limit, math.inf)], [False]), ExperimentScale(1.0),
                            DetectorModel(), MIRROR, seed=0)

    def test_bad_seed_rejected(self):
        plan = AcquisitionPlan(((0.0, math.pi / 4, 1.0),))
        with pytest.raises(ValueError):
            simulate_counts(plan, ExperimentScale(1.0), DetectorModel(), MIRROR, seed=-1)

    def test_detected_rate_that_rounds_to_0_is_rejected(self):
        # 1e-320 * 0.01 * 0.01 underflows: no plan of zero counts from a positive pair rate
        plan = AcquisitionPlan(((0.0, math.pi / 2, 1.0),))
        scale, det = ExperimentScale(1e-320), DetectorModel(eta1=0.01, eta2=0.01)
        message = r"^detected rate pair_rate \* eta1 \* eta2 rounds to 0$"
        for call in (lambda: scale.detected_rate(det), lambda: expected_counts(plan, scale, det, MIRROR),
                     lambda: simulate_counts(plan, scale, det, MIRROR, seed=0)):
            with pytest.raises(ValueError, match=message):
                call()


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

    @pytest.mark.parametrize(
        "bad",
        [
            {0: (0.0, math.nan)},  # NaN rate first, where max/min would return it
            {4: (0.5, math.nan)},  # NaN rate later, where max/min would skip it
            {2: (0.3, -1.0)},
            {1: (0.1, math.inf)},
            {i: (math.nan, 1.0 + i) for i in range(9)},  # NaN angles would pass the span check
            {8: (math.inf, 1.0)},
        ],
    )
    def test_non_finite_or_negative_input_rejected(self, bad):
        rates = [(t, 1.0 + 0.1 * i) for i, t in enumerate(np.linspace(0, math.pi, 9))]
        for i, row in bad.items():
            rates[i] = row
        with pytest.raises(ValueError, match="finite angles and finite, non-negative rates"):
            visibility(rates)


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
    with pytest.raises(ValueError, match="finite"):
        AcquisitionPlan(((0.0, math.nan, 1.0),))
    with pytest.raises(ValueError, match="triples"):
        AcquisitionPlan(((0.0, 1.0),))


def test_plan_columns_and_settings_view():
    plan = AcquisitionPlan(((0.1, 0.2, 1.0), (0.3, 0.4, 2)))
    assert len(plan) == 2
    from_iter = AcquisitionPlan(iter([(0.1, 0.2, 1.0), (0.3, 0.4, 2)]))
    for name, want in (("theta1", [0.1, 0.3]), ("theta2", [0.2, 0.4]), ("duration", [1.0, 2.0])):
        assert getattr(plan, name).dtype == np.float64
        np.testing.assert_array_equal(getattr(plan, name), want)
        np.testing.assert_array_equal(getattr(from_iter, name), want)
    with pytest.raises(ValueError):
        plan.theta1[0] = 1.0
    with pytest.raises(AttributeError):
        plan.theta1 = np.zeros(2)


class TestCountTable:
    ROWS = ((0.1, 0.2, 1.0, 5), (0.3, 0.4, 2.0, 0), (0.5, 0.6, 0.5, 7))

    def table(self):
        return CountTable(*zip(*self.ROWS))

    def test_sequence_of_records(self):
        table = self.table()
        records = [CountRecord(*row) for row in self.ROWS]
        assert len(table) == 3
        assert table[0] == records[0] and table[-1] == records[-1]
        assert list(table) == records
        assert isinstance(table[1].counts, int)
        with pytest.raises(IndexError):
            table[3]

    def test_index_arrays_and_slices_give_tables(self):
        table = self.table()
        assert list(table[np.array([2, 0])]) == [table[2], table[0]]
        assert table[1:] == CountTable(*zip(*self.ROWS[1:]))

    def test_equality_compares_every_column(self):
        assert self.table() == self.table()
        other = CountTable(*zip(*(self.ROWS[:2] + ((0.5, 0.6, 0.5, 8),))))
        assert self.table() != other
        # not a table: CountTable leaves the comparison to the other operand
        assert self.table() != list(self.table()) and self.table() != "counts"

    def test_columns_are_read_only(self):
        table = self.table()
        assert table.counts.dtype == np.int64
        with pytest.raises(ValueError):
            table.counts[0] = 1
        with pytest.raises(AttributeError):
            table.counts = np.zeros(3)

    def test_record_columns_same_from_table_and_records(self):
        table = self.table()
        for a, b in zip(record_columns(table), record_columns(list(table))):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == np.float64

    @pytest.mark.parametrize(
        "column, value",
        [(0, math.nan), (1, math.inf), (2, 0.0), (2, -1.0), (3, -1), (3, 2.5), (3, 2**63),
         (3, True), (3, math.inf), (3, math.nan)],
    )
    def test_invalid_rows_rejected(self, column, value):
        rows = [list(row) for row in self.ROWS]
        rows[1][column] = value
        with pytest.raises(ValueError):
            CountTable(*zip(*rows))
        with pytest.raises(ValueError):
            CountRecord(*rows[1])

    @pytest.mark.parametrize("columns", [
        ([0.1, 0.2], [0.1, 0.2], [1.0, 1.0], [5]),
        ([0.1], [0.1, 0.2], [1.0, 1.0], [5, 7]),
        ([[0.1, 0.2]], [[0.1, 0.2]], [[1.0, 1.0]], [[5, 7]]),
        (0.1, 0.2, 1.0, 5),
    ], ids=["short-counts", "short-theta1", "2-d", "0-d"])
    def test_columns_of_unequal_length_or_not_1d_rejected(self, columns):
        with pytest.raises(ValueError, match="^columns must be one-dimensional and of equal length$"):
            CountTable(*columns)

    def test_bad_angle_is_reported_before_a_bad_count(self):
        # the order CountRecord checks in: angles, dwell, then counts
        rows = [list(row) for row in self.ROWS]
        rows[1][0], rows[1][3] = math.nan, -1
        for make in (lambda: CountTable(*zip(*rows)), lambda: CountRecord(*rows[1])):
            with pytest.raises(ValueError, match="^analyzer angles must be finite$"):
                make()


@pytest.mark.parametrize(
    "column, value, message",
    [(0, math.nan, "analyzer angles must be finite"), (1, math.inf, "analyzer angles must be finite"),
     (1, -math.inf, "analyzer angles must be finite"), (2, 0.0, "duration must be finite and positive"),
     (2, -1.0, "duration must be finite and positive"), (2, math.nan, "duration must be finite and positive"),
     (2, math.inf, "duration must be finite and positive")],
)
def test_plan_and_table_reject_a_bad_setting_alike(column, value, message):
    settings = [[0.1, 0.2, 1.0], [0.3, 0.4, 2.0]]
    settings[1][column] = value
    with pytest.raises(ValueError, match=f"^{message}$"):
        AcquisitionPlan(settings)
    with pytest.raises(ValueError, match=f"^{message}$"):
        CountTable(*zip(*settings), [5, 7])
