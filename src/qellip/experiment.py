"""Forward model of the coincidence experiment.

Closed-form twin-photon coincidence rate through two linear analyzers and
a reflective sample in the signal arm, detector/accidental effects, and
shot-noise (Poisson) count generation with a counter-based RNG so every
record is reproducible independently of the others.  `_draws` draws the
counts over arrays, equal to numpy's draw from a new Philox per record.

The rate formula lives in `analyzer_terms` and `rate_shape` only, the mean
count in `mean_counts` only and the settings rule in `_settings_columns`;
the simulator, the estimators and the CLI report all evaluate them there.
`CountRecord.__post_init__` keeps a scalar copy of the settings rule,
because records are built one at a time (each `CountTable.__getitem__`
builds one, and the CLI's line reader checks each row it reads as one):
the copy checks a record in about 1 µs, the array rule in about 15–17 µs
(2-vCPU Xeon, Python 3.11).
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import _draws
from .samples import SampleParams


@dataclass(frozen=True)
class DetectorModel:
    """Detection chain: arm efficiencies, accidental background, fringe visibility."""

    eta1: float = 1.0
    eta2: float = 1.0
    accidental_rate: float = 0.0
    visibility: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.eta1 <= 1.0):
            raise ValueError(f"eta1 must lie in (0, 1], got {self.eta1}")
        if not (0.0 < self.eta2 <= 1.0):
            raise ValueError(f"eta2 must lie in (0, 1], got {self.eta2}")
        if not (np.isfinite(self.accidental_rate) and self.accidental_rate >= 0.0):
            raise ValueError("accidental_rate must be >= 0")
        if not (0.0 <= self.visibility <= 1.0):
            raise ValueError(f"visibility must lie in [0, 1], got {self.visibility}")


@dataclass(frozen=True)
class ExperimentScale:
    """Source pair rate into the collection apertures, before efficiencies."""

    pair_rate: float

    def __post_init__(self):
        if not (np.isfinite(self.pair_rate) and self.pair_rate > 0):
            raise ValueError("pair_rate must be positive")

    def detected_rate(self, det: DetectorModel) -> float:
        """Effective rate constant C = pair_rate * eta1 * eta2, which must not round to 0."""
        rate = self.pair_rate * det.eta1 * det.eta2
        if rate == 0.0:
            raise ValueError("detected rate pair_rate * eta1 * eta2 rounds to 0")
        return rate


def _read_only(values) -> np.ndarray:
    arr = np.array(values)
    arr.setflags(write=False)
    return arr


def _settings_columns(theta1, theta2, duration):
    """theta1, theta2 and duration as float arrays, by the rule AcquisitionPlan
    and CountTable share: finite angles, and a finite dwell above 0."""
    theta1, theta2, duration = (np.array(c, dtype=float) for c in (theta1, theta2, duration))
    if not (np.all(np.isfinite(theta1)) and np.all(np.isfinite(theta2))):
        raise ValueError("analyzer angles must be finite")
    if not np.all(np.isfinite(duration) & (duration > 0)):
        raise ValueError("duration must be finite and positive")
    return theta1, theta2, duration


class AcquisitionPlan:
    """Ordered analyzer settings: (theta1, theta2, duration_seconds).

    Built from an iterable of such triples or an (n, 3) array, and held as
    the read-only float columns theta1, theta2 and duration.
    """

    __slots__ = ("theta1", "theta2", "duration")

    def __init__(self, settings):
        cols = np.array(settings if isinstance(settings, np.ndarray) else list(settings), dtype=float)
        if cols.size == 0:
            raise ValueError("acquisition plan must be non-empty")
        if cols.ndim != 2 or cols.shape[1] != 3:
            raise ValueError("settings must be (theta1, theta2, duration) triples")
        for name, col in zip(self.__slots__, _settings_columns(*cols.T)):
            object.__setattr__(self, name, _read_only(col))

    def __setattr__(self, name, value):
        raise AttributeError("AcquisitionPlan is immutable")

    def __len__(self) -> int:
        return len(self.theta1)


def _checked_counts(counts) -> np.ndarray:
    """Counts as int64, by the rule CountRecord and CountTable share: each a
    non-negative integer below 2**63, and not a bool (np.array makes it 1)."""
    col = np.array(counts)
    listed = counts if col.ndim == 1 and not isinstance(counts, np.ndarray) else ()
    if (col.dtype.kind not in "iuf" or any(isinstance(k, (bool, np.bool_)) for k in listed)
            or not np.all((col >= 0) & (col == np.floor(col)))):
        raise ValueError("counts must be non-negative integers below 2**63")
    if not np.all(col < 2**63):
        raise ValueError("counts must be below 2**63")
    return col.astype(np.int64)


@dataclass(frozen=True)
class CountRecord:
    """One acquisition: analyzer angles (radians), dwell time, integer coincidences."""

    theta1: float
    theta2: float
    duration: float
    counts: int

    def __post_init__(self):
        if not (math.isfinite(self.theta1) and math.isfinite(self.theta2)):
            raise ValueError("analyzer angles must be finite")
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValueError("duration must be finite and positive")
        if type(self.counts) is not int or not 0 <= self.counts < 2**63:  # an in-range int is valid as is
            object.__setattr__(self, "counts", int(_checked_counts(self.counts)))


class CountTable(Sequence):
    """Count records as columns: theta1, theta2 (radians) and duration as
    read-only float arrays, counts as a read-only int64 array.

    A sequence of CountRecord: len() is the number of rows, indexing with an
    integer and iteration give records, and an index array or a slice gives
    the table of those rows.  Tables compare equal when every column does.
    """

    __slots__ = ("theta1", "theta2", "duration", "counts")

    def __new__(cls, theta1, theta2, duration, counts):
        theta1, theta2, duration = _settings_columns(theta1, theta2, duration)
        counts = _checked_counts(counts)
        if not theta1.shape == theta2.shape == duration.shape == counts.shape or theta1.ndim != 1:
            raise ValueError("columns must be one-dimensional and of equal length")
        return cls._trusted(theta1, theta2, duration, counts)

    @classmethod
    def _trusted(cls, theta1, theta2, duration, counts):
        """A table of columns already known to be valid."""
        table = object.__new__(cls)
        for name, col in zip(cls.__slots__, (theta1, theta2, duration, counts)):
            object.__setattr__(table, name, _read_only(col))
        return table

    def __setattr__(self, name, value):
        raise AttributeError("CountTable is immutable")

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            j = range(len(self))[index]  # bounds check, negative indices
            return CountRecord(
                float(self.theta1[j]), float(self.theta2[j]), float(self.duration[j]), int(self.counts[j])
            )
        return self._trusted(self.theta1[index], self.theta2[index], self.duration[index], self.counts[index])

    def __iter__(self):
        for row in zip(self.theta1.tolist(), self.theta2.tolist(), self.duration.tolist(),
                       self.counts.tolist()):
            yield CountRecord(*row)

    def __eq__(self, other):
        if not isinstance(other, CountTable):
            return NotImplemented
        return all(np.array_equal(getattr(self, c), getattr(other, c)) for c in self.__slots__)

    __hash__ = None


def count_table(records) -> CountTable:
    """Count records as a CountTable; a CountTable is returned as it is."""
    if isinstance(records, CountTable):
        return records
    records = list(records)
    return CountTable(
        [r.theta1 for r in records],
        [r.theta2 for r in records],
        [r.duration for r in records],
        [r.counts for r in records],
    )


def record_columns(records):
    """(theta1, theta2, duration, counts) of count records as float arrays."""
    table = count_table(records)
    return table.theta1, table.theta2, table.duration, table.counts.astype(float)


def analyzer_terms(theta1, theta2):
    """Analyzer factors of the rate, elementwise over arrays, stacked as the
    (3, ...) array of cos^2(t1) sin^2(t2), sin^2(t1) cos^2(t2) and
    cos(t1) sin(t1) cos(t2) sin(t2)."""
    c1, s1 = np.cos(theta1), np.sin(theta1)
    c2, s2 = np.cos(theta2), np.sin(theta2)
    return np.array((c1 * c1 * s2 * s2, s1 * s1 * c2 * c2, c1 * s1 * c2 * s2))


def rate_shape(terms, beta, delta, visibility):
    """Rate per unit scale, b^2 a + bb + 2 V b cos(delta) cross, for the
    `analyzer_terms` (a, bb, cross), broadcast against beta and delta.

    For V <= 1 this is a squared modulus (cross^2 = a bb), so it is floored
    at 0 where rounding leaves an analyzer null slightly negative.
    """
    a, bb, cross = terms
    return np.maximum(beta * beta * a + bb + 2.0 * visibility * beta * np.cos(delta) * cross, 0.0)


def mean_counts(terms, duration, c, beta, delta, det: DetectorModel):
    """Mean counts (c s + A) t: s the `rate_shape` of the `analyzer_terms`, A the
    accidental rate.  Simulation, the fit and the report residuals all use it."""
    return (c * rate_shape(terms, beta, delta, det.visibility) + det.accidental_rate) * duration


def coincidence_rate(
    scale: float,
    params: SampleParams,
    theta1: float,
    theta2: float,
    visibility: float = 1.0,
) -> float:
    """Mean coincidence rate for analyzers at theta1 (signal) and theta2 (idler).

    rate = scale * [ b^2 cos^2(t1) sin^2(t2) + sin^2(t1) cos^2(t2)
                     + 2 V b cos(delta) cos(t1) sin(t1) cos(t2) sin(t2) ]

    with b = sqrt(tan psi).  At V = 1 this is exactly the squared modulus
    |b e^{i delta} cos(t1) sin(t2) + sin(t1) cos(t2)|^2 times `scale`.
    A rate that is not finite (a large scale times the shape overflows)
    raises ValueError.
    """
    if not (np.isfinite(scale) and scale > 0):
        raise ValueError("scale must be positive")
    if not (0.0 <= visibility <= 1.0):
        raise ValueError("visibility must lie in [0, 1]")
    with np.errstate(over="ignore"):  # an overflowing rate is rejected below
        rate = scale * rate_shape(analyzer_terms(theta1, theta2), params.beta, params.delta, visibility)
    if not np.all(np.isfinite(rate)):
        raise ValueError("coincidence rate is not finite")
    return rate


def expected_counts(
    plan: AcquisitionPlan,
    scale: ExperimentScale,
    det: DetectorModel,
    params: SampleParams,
) -> np.ndarray:
    """Mean coincidence counts per plan entry.

    The effective rate constant is pair_rate * eta1 * eta2; accidentals add
    a constant background rate.  Means are >= 0, and exactly 0 at an
    analyzer null without accidentals.
    """
    return mean_counts(analyzer_terms(plan.theta1, plan.theta2), plan.duration, scale.detected_rate(det),
                       params.beta, params.delta, det)


def simulate_counts(
    plan: AcquisitionPlan,
    scale: ExperimentScale,
    det: DetectorModel,
    params: SampleParams,
    seed: int,
) -> CountTable:
    """Draw one Poisson realization of the plan.

    Each record uses its own counter-based Philox stream keyed by
    (seed, record index), so identical inputs give bit-identical outputs
    and records can be generated independently in any order: count i is
    Generator(Philox(key=[seed, i])).poisson(mean i), and a record of mean 0
    draws nothing and counts 0.  Most records of mean 10 and above are
    decided at once from their first Philox block, computed over arrays;
    numpy draws each of the rest from a new Philox(key=[seed, i]) (see
    `_draws`).  The means must be finite and at most numpy's Poisson limit
    (about 9.2e18).
    """
    if not (0 <= int(seed) < 2**64):
        raise ValueError("seed must be an unsigned 64-bit integer")
    with np.errstate(over="ignore"):  # an overflowing mean is rejected below
        means = expected_counts(plan, scale, det, params)
    if not np.all(means <= _draws.LAM_MAX):  # NaN fails too
        raise ValueError("mean counts must be finite and at most 9.2e18 to draw")
    counts = _draws.poisson(int(seed), means)
    return CountTable._trusted(plan.theta1, plan.theta2, plan.duration, counts)


def visibility(rates) -> float:
    """Fringe visibility (max - min)/(max + min) of a theta1 sweep.

    Needs at least 8 samples spanning at least pi of theta1, with finite
    angles and finite, non-negative rates.
    """
    thetas, values = np.array([(float(t), float(r)) for t, r in rates]).reshape(-1, 2).T
    if len(thetas) < 8:
        raise ValueError("visibility needs at least 8 samples")
    if not (np.isfinite(thetas).all() and np.isfinite(values).all() and values.min() >= 0.0):
        raise ValueError("visibility needs finite angles and finite, non-negative rates")
    if thetas.max() - thetas.min() < np.pi - 1e-9:
        raise ValueError("theta1 sweep must span at least pi")
    lo, hi = values.min(), values.max()
    if hi <= 0.0:
        raise ValueError("all rates are zero; visibility undefined")
    return float((hi - lo) / (hi + lo))
