"""Tests of the benchmark's own statistics: run with

    python3 -m pytest perfbench

They need neither qellip nor numpy.
"""

import sys
import types

import pytest

import run
from spans import Tracer
from stats import Tally, block_rate, negative_names, percentile, remainder, tail_percentile


def test_percentile_interpolates_linearly():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([7.0], 99) == 7.0
    assert percentile(range(101), 99) == 99.0


def test_p99_resolved_only_with_ten_samples_beyond():
    value, resolved = tail_percentile(range(1, 1001))
    assert value == pytest.approx(990.01)
    assert resolved  # 991..1000 lie above it
    value, resolved = tail_percentile(range(1, 101))
    assert value == pytest.approx(99.01)
    assert not resolved  # only 100 lies above it


def test_ties_at_the_tail_leave_p99_unresolved():
    _, resolved = tail_percentile([1.0] * 5000)
    assert not resolved


def test_block_rate_is_the_median_block_and_ignores_a_burst():
    # Blocks of 1 s: two ops at 0.5 s, one 3 s op (a burst), two at 0.5 s.
    assert block_rate([0.5, 0.5, 3.0, 0.5, 0.5], 1.0) == pytest.approx(2.0)
    assert block_rate([0.25, 0.25], 1.0) == pytest.approx(4.0)  # no full block
    assert block_rate([0.5, 0.5, 0.1], 1.0) == pytest.approx(2.0)  # partial tail dropped


def test_tally_counts_failures_against_attempts():
    tally = Tally()
    for _ in range(3):
        tally.ok()
    for i in range(Tally.KEEP_REASONS + 2):
        tally.fail(f"reason {i}", wrong=i == 0)
    assert tally.attempted == 3 + Tally.KEEP_REASONS + 2
    assert tally.failed == Tally.KEEP_REASONS + 2
    assert tally.wrong == 1
    assert tally.failed_frac == pytest.approx(tally.failed / tally.attempted)
    assert tally.reasons == [f"reason {i}" for i in range(Tally.KEEP_REASONS)]
    assert Tally().failed_frac == 0.0


class _FlakyWorkload:
    """Op 1 raises, op 2 returns a wrong output, the others are fine."""

    def op(self, i):
        if i == 1:
            raise RuntimeError("boom")
        return i

    def check(self, i, out):
        if out == 2:
            raise ValueError("wrong output")


def test_measure_counts_raising_ops_and_failed_checks():
    tally, untraced, traced = run.measure(_FlakyWorkload(), 0.05, None)
    assert tally.attempted == len(untraced) >= 3
    assert traced == []
    assert tally.failed == 2
    assert tally.wrong == 1  # only the failed check is a wrong output
    assert tally.reasons == ["op 1: RuntimeError: boom", "op 2: ValueError: wrong output"]


def test_remainder_is_never_clipped_and_negative_is_flagged():
    assert remainder(1.0, [0.25, 0.5]) == pytest.approx(0.25)
    assert remainder(1.0, [0.75, 0.5]) == pytest.approx(-0.25)
    assert negative_names({"a.derived_s": -0.25, "b.derived_s": 0.0, "c.derived_s": 0.1}) == [
        "a.derived_s"
    ]


def test_tracer_self_time_subtracts_direct_children(monkeypatch):
    mod = types.ModuleType("qellip.benchtest")

    def inner():
        return "xyz"

    def outer():
        return mod.inner() + mod.inner()

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "qellip.benchtest", mod)
    tracer = Tracer([
        ("qellip.benchtest", "outer", "outer", None),
        ("qellip.benchtest", "inner", "inner", len),
    ])
    with tracer.recording(0):
        assert mod.outer() == "xyzxyz"
    assert mod.outer is outer and mod.inner is inner  # originals restored
    spans = tracer.ops[0]
    assert [s.name for s in spans] == ["outer", "inner", "inner"]
    assert [s.parent for s in spans] == [None, 0, 0]
    assert tracer.count(0, "inner") == 6
    assert tracer.self_time(0, "outer") == pytest.approx(
        tracer.busy(0, "outer") - tracer.busy(0, "inner"))
    assert len(tracer.self_times(0, "inner")) == 2  # one per call, in call order
    assert mod.outer() == "xyzxyz"  # untraced calls leave no spans
    assert len(tracer.ops[0]) == 3
