"""qellip._ascii against the % formatting it stands in for: cli._csv_text
and cli._residual_block with the kernel switched off are the definition,
and the kernel must equal them byte for byte wherever it answers."""

import math
import warnings
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qellip.cli
from qellip import _ascii

FIXED_COUNTS = ("%.6f", "%d")
BELOW_2_52 = 2**52 / 1e6  # |x| where |x|·1e6 reaches 2**52
LOWEST = math.nextafter(1e-14, 1.0)  # the least double >= 10^-14; 1e-14 itself lies below


def by_percent_csv(formats, columns):
    with mock.patch.object(_ascii, "csv_text", return_value=None):
        return qellip.cli._csv_text("h", formats, columns)


def by_percent_residuals(r):
    with mock.patch.object(_ascii, "residual_block", return_value=None):
        return qellip.cli._residual_block(r)


def kernel_csv(formats, columns):
    """The kernel's text, asserted equal to the % text where it answers."""
    columns = tuple(np.asarray(c) for c in columns)
    text = _ascii.csv_text("h", formats, columns)
    if text is not None:
        assert text == by_percent_csv(formats, columns)
    return text


def kernel_residuals(r):
    r = np.asarray(r, dtype=np.float64)
    text = _ascii.residual_block(r)
    if text is not None:
        assert text == by_percent_residuals(r)
    return text


def fixed_midpoint(x: float) -> bool:
    """|x|·1e6 rounds onto m + 1/2, where the kernel cannot tell which way."""
    return abs(x) * 1e6 % 1 == 0.5


def residual_midpoint(r: float) -> bool:
    """|r|·10^(8 - e) rounds onto m + 1/2, with e the decimal exponent of |r|
    (before %.9g's rounding, which may carry it into the next power of ten)."""
    return abs(r) * 10.0 ** (8 - Decimal(abs(r)).adjusted()) % 1 == 0.5


class TestCsvCorpus:
    @pytest.mark.parametrize("values", [
        [0.0, -0.0], [-0.0, 0.0, 1.0], [1e-9, -1e-9], [0.0000004, 0.0000006, -0.0000004],
        [179.9999994, 179.9999996, 0.5, 1.25, 359.999999], [1e3, -999.9999999, 12345.6789],
        [BELOW_2_52 / 2, 1.0], [np.nextafter(BELOW_2_52, 0.0), 1.0],
    ], ids=["zeros", "minus-zero-first", "signs-round-to-zero", "sub-micro", "near-carry",
            "wide", "2**51", "just-below-2**52"])
    def test_fixed_column_is_answered_and_exact(self, values):
        columns = (np.array(values), np.arange(len(values)))
        assert kernel_csv(FIXED_COUNTS, columns) is not None

    @pytest.mark.parametrize("x", [179.9999995, 0.0078125, 2.5e-6, 5e-7, -0.0000015])
    def test_midpoint_returns_none(self, x):
        assert fixed_midpoint(x)
        assert kernel_csv(FIXED_COUNTS, ([x, 1.0], [0, 1])) is None
        assert by_percent_csv(FIXED_COUNTS, (np.array([x, 1.0]), np.array([0, 1])))

    @pytest.mark.parametrize("x", [BELOW_2_52, np.nextafter(BELOW_2_52, math.inf), 1e303, -1e303,
                                   math.inf, -math.inf, math.nan, 1.7976931348623157e308])
    def test_out_of_range_returns_none_without_warnings(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _ascii.csv_text("h", FIXED_COUNTS, (np.array([x, 1.0]), np.array([0, 1]))) is None

    @pytest.mark.parametrize("counts, answered", [
        ([0, 1], True), ([9_999, 10_000], True), ([0, 10**8 - 1], True), ([10**7, 10**3, 7], True),
        ([0, 10**8], True), ([5, -1], False), ([0, 2**63 - 1], True), ([-(2**63), 0], False),
        ([10**9 - 1, 10**9, 10**12, 10**18 - 1, 10**18], True), ([2**63 - 1, -1], False),
    ])
    def test_counts_domain(self, counts, answered):
        columns = (np.array([1.5] * len(counts)), np.array(counts))
        assert (kernel_csv(FIXED_COUNTS, columns) is not None) == answered

    def test_constant_columns_are_baked_by_their_format(self):
        # a constant column is written by % once, whatever its value or format
        n = 5
        columns = (np.arange(n) / 7.0, np.full(n, -0.0), np.full(n, 1e303), np.full(n, math.nan),
                   np.full(n, 2**63 - 1), np.arange(n))
        formats = ("%.6f", "%.6f", "%.6f", "%.3e", "%d", "%d")
        assert kernel_csv(formats, columns) is not None

    def test_other_formats_return_none(self):
        columns = (np.array([1.0, 2.0]), np.array([0, 1]))
        assert _ascii.csv_text("h", ("%.3f", "%d"), columns) is None
        assert _ascii.csv_text("h", ("%.6f", "%5d"), columns) is None

    def test_empty_table_is_the_header(self):
        empty = (np.array([]), np.array([], dtype=np.int64))
        assert _ascii.csv_text("h", FIXED_COUNTS, empty) == by_percent_csv(FIXED_COUNTS, empty) == "h\n"

    def test_single_row(self):
        assert kernel_csv(FIXED_COUNTS, ([-3.25], [42])) == "h\n-3.250000,42\n"


class TestResidualCorpus:
    @pytest.mark.parametrize("r, token", [
        (1e-4, "0.0001"), (-1e-4, "-0.0001"), (99999999.99999, "100000000.0"),
        (9.9999999995, "10.0"), (-9.99999999449, "-9.99999999"), (12.0, "12.0"), (1.5, "1.5"),
        (0.1, "0.1"), (0.123456789012, "0.123456789"), (-3.14159265358979, "-3.14159265"),
        (12345678.9, "12345678.9"), (0.000999999999999, "0.001"), (1e7, "10000000.0"),
        # exact zeros, as the three-angle method's residuals are; json writes -0.0 with its sign
        (0.0, "0.0"), (-0.0, "-0.0"),
        # carried from e = -5 up to e = -4, which is written in fixed form
        (9.99999999999e-5, "0.0001"),
        # %.9g's exponent form, which is also repr's
        (2.57908974e-05, "2.57908974e-05"), (-9.87654321e-05, "-9.87654321e-05"), (1e-05, "1e-05"),
        (-1e-05, "-1e-05"), (1.2e-08, "1.2e-08"), (1.5e-10, "1.5e-10"), (1.00000001e-09, "1.00000001e-09"),
        (1.23456789e-14, "1.23456789e-14"), (LOWEST, "1e-14"),
        # carries within the exponent form, and a near miss
        (9.9999999996e-06, "1e-05"), (-9.99999999949e-13, "-1e-12"), (-9.99999999449e-13, "-9.99999999e-13"),
        # literals that round below their power of ten, and the double above each
        (1e-06, "1e-06"), (1e-07, "1e-07"), (1e-11, "1e-11"), (1e-12, "1e-12"),
        (math.nextafter(1e-06, 1.0), "1e-06"), (math.nextafter(1e-07, 1.0), "1e-07"),
        (math.nextafter(1e-11, 1.0), "1e-11"), (math.nextafter(1e-12, 1.0), "1e-12"),
    ])
    def test_answered_token(self, r, token):
        assert kernel_residuals([r, 2.0]) == f"[\n    {token},\n    2.0\n  ]"

    @pytest.mark.parametrize("r", [12345678.25, 1234567.125, 123456.0625, -1.001953125,
                                   # 999999999.5, where the carry is decided; %.9g does not carry
                                   99999.99995, -999.9999995, 9.999999995,
                                   # in the exponent form
                                   1.234567895e-07, -1.000000005e-10, 9.876543215e-14])
    def test_midpoint_returns_none(self, r):
        assert residual_midpoint(r)
        assert kernel_residuals([1.0, r]) is None

    @pytest.mark.parametrize("r", [5e-324, 1e8, -1e8, 123456789.4, 1e303,
                                   math.inf, -math.inf, math.nan, 1e-14, -1e-14, 9.99999999e-15])
    def test_out_of_range_returns_none_without_warnings(self, r):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _ascii.residual_block(np.array([1.0, r])) is None

    def test_empty_returns_none(self):
        assert _ascii.residual_block(np.array([])) is None

    def test_exponent_table_is_exact(self):
        # searchsorted over the literals gives the decimal exponent of |r| itself
        assert _ascii._EXP_FROM[0] == LOWEST
        for k, x in enumerate(_ascii._EXP_FROM.tolist(), start=-14):
            assert Decimal(math.nextafter(x, 0.0)) < Decimal(10) ** k <= Decimal(x)

    def test_mixed_exponents_share_one_layout(self):
        r = [1e-4, -0.00123, 0.5, 7.0, -42.125, 999.0, 123456.7, -99999999.9]
        assert kernel_residuals(r) is not None
        assert kernel_residuals(r + [2.5e-05, -3e-14, 1e-05]) is not None


FIXED_VALUES = st.one_of(
    st.floats(-BELOW_2_52, BELOW_2_52, exclude_min=True, exclude_max=True),
    st.floats(-1e4, 1e4),
    st.integers(-10**9, 10**9).map(lambda k: k / 64),  # midpoints among them
    st.sampled_from([0.0, -0.0, 179.9999995, 0.0000005, 1e-300]),
)


def near_carry(k, below, ulps):
    """A value some ulps from 10^k·(1 - below), where %.9g may or may not
    round up to 10^k."""
    base = 10.0**k * (1 - below)
    return base + ulps * math.ulp(base)


RESIDUALS = st.one_of(
    st.floats(LOWEST, 1e8, exclude_max=True),
    st.floats(-1e8, -LOWEST, exclude_min=True),
    st.integers(10**4, 10**12 - 1).map(lambda k: k / 10**4),  # decimal-looking values
    st.integers(1, 10**8 - 1).map(lambda k: k / 8),  # midpoints among them
    st.builds(lambda m, k: float(f"{m}e{k}"), st.integers(1, 999), st.integers(-13, -5)),  # exponent forms
    st.builds(near_carry, st.integers(-13, 7), st.sampled_from([5e-10, 5e-9]), st.integers(-40, 40)),
    st.sampled_from([0.0, -0.0]),
)


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(FIXED_VALUES, FIXED_VALUES, st.integers(0, 2**63 - 1)), min_size=1,
                         max_size=40))
    def test_csv_answers_exactly_off_the_midpoints(self, rows):
        x, x2, k = (np.array(c) for c in zip(*rows))
        # a column of one value (bitwise) is written by % itself
        varying = [c.tolist() for c in (x, x2) if len(set(c.view(np.uint64).tolist())) > 1]
        text = kernel_csv(("%.6f", "%.6f", "%d"), (x, x2, k))
        assert (text is None) == any(fixed_midpoint(v) for c in varying for v in c)

    @settings(max_examples=300, deadline=None)
    @given(r=st.lists(RESIDUALS, min_size=1, max_size=40))
    def test_residuals_answer_exactly_off_the_midpoints(self, r):
        text = kernel_residuals(r)
        assert (text is None) == any(map(residual_midpoint, r))
