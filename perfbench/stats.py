"""Order statistics, failure tallies and span remainders for the benchmark.

Pure Python, no numpy: the benchmark's own arithmetic must not depend on
the library it measures.
"""

import math

# A tail percentile is trusted only with this many samples strictly above it.
TAIL_MIN_BEYOND = 10


def percentile(samples, q: float) -> float:
    """q-th percentile (0..100) by linear interpolation between order
    statistics, the same rule as numpy's default "linear" method."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(samples) -> float:
    return percentile(samples, 50.0)


def tail_percentile(samples, q: float = 99.0):
    """(value, resolved): the q-th percentile and whether at least
    TAIL_MIN_BEYOND samples lie strictly above it.

    An unresolved value is still the interpolated order statistic; with few
    samples it sits next to the maximum and says little about the tail.
    """
    value = percentile(samples, q)
    beyond = sum(1 for x in samples if x > value)
    return value, beyond >= TAIL_MIN_BEYOND


def block_rate(latencies, block_s: float) -> float:
    """Ops per second of op time: the median over consecutive blocks of ops,
    each closed once its summed latency reaches `block_s`.

    A burst of interference from outside the program slows the blocks it
    falls in, not the figure. A trailing partial block counts only when the
    run holds no full one.
    """
    rates, n, busy = [], 0, 0.0
    for x in latencies:
        n += 1
        busy += x
        if busy >= block_s:
            rates.append(n / busy)
            n, busy = 0, 0.0
    if not rates and n:
        rates.append(n / busy)
    return median(rates)


class Tally:
    """Attempted and failed operations, with the first few failure reasons.

    A failed op either reported failure itself (raised, or a non-zero exit
    code) or returned an output that a check found wrong; only the latter
    counts in `wrong`.
    """

    KEEP_REASONS = 5

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons = []

    def ok(self):
        self.attempted += 1

    def fail(self, reason: str, wrong: bool = False):
        self.attempted += 1
        self.failed += 1
        self.wrong += wrong
        if len(self.reasons) < self.KEEP_REASONS:
            self.reasons.append(reason)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def remainder(total: float, parts) -> float:
    """Time of `total` not covered by `parts`. Never clipped: a negative
    value means the parts overlap or were mis-attributed, and must show."""
    return total - sum(parts)


def negative_names(values: dict) -> list:
    """Names of the derived values that came out negative, for flagging."""
    return sorted(name for name, v in values.items() if v < 0.0)


def rms(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("rms of no values")
    return math.sqrt(sum(v * v for v in values) / len(values))
