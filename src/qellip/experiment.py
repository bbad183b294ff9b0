"""Forward model of the coincidence experiment.

Closed-form twin-photon coincidence rate through two linear analyzers and
a reflective sample in the signal arm, detector/accidental effects, and
shot-noise (Poisson) count generation with a counter-based RNG so every
record is reproducible independently of the others.

The rate formula lives in `analyzer_terms` and `rate_shape` only; the
simulator, the estimators and the CLI report all evaluate it there.
"""

import math
from dataclasses import dataclass

import numpy as np

from .samples import SampleParams

# coincidence_rate(scale=1, V=1) equals RATE_PROJECTION_FACTOR times the
# squared projection amplitude of the entangled state: the 1/sqrt(2) state
# normalization contributes a factor 1/2 that the closed form does not carry.
RATE_PROJECTION_FACTOR = 2.0


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
        """Effective rate constant C = pair_rate * eta1 * eta2."""
        return self.pair_rate * det.eta1 * det.eta2


@dataclass(frozen=True)
class AcquisitionPlan:
    """Ordered analyzer settings: (theta1, theta2, duration_seconds)."""

    settings: tuple

    def __post_init__(self):
        settings = tuple(
            (float(t1), float(t2), float(dur)) for t1, t2, dur in self.settings
        )
        if not settings:
            raise ValueError("acquisition plan must be non-empty")
        for t1, t2, dur in settings:
            if not (np.isfinite(t1) and np.isfinite(t2)):
                raise ValueError("analyzer angles must be finite")
            if not (np.isfinite(dur) and dur > 0):
                raise ValueError("durations must be positive")
        object.__setattr__(self, "settings", settings)

    def __len__(self) -> int:
        return len(self.settings)


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
        if self.counts < 0 or self.counts != int(self.counts):
            raise ValueError("counts must be a non-negative integer")
        object.__setattr__(self, "counts", int(self.counts))


def record_columns(records):
    """(theta1, theta2, duration, counts) of count records as float arrays."""
    records = list(records)
    return (
        np.array([r.theta1 for r in records]),
        np.array([r.theta2 for r in records]),
        np.array([r.duration for r in records]),
        np.array([r.counts for r in records], dtype=float),
    )


def analyzer_terms(theta1, theta2):
    """Analyzer factors of the rate, elementwise over arrays:
    cos^2(t1) sin^2(t2), sin^2(t1) cos^2(t2) and cos(t1) sin(t1) cos(t2) sin(t2)."""
    c1, s1 = np.cos(theta1), np.sin(theta1)
    c2, s2 = np.cos(theta2), np.sin(theta2)
    return c1 * c1 * s2 * s2, s1 * s1 * c2 * c2, c1 * s1 * c2 * s2


def rate_shape(terms, beta, delta, visibility, order=0):
    """Rate per unit scale, b^2 a + bb + 2 V b cos(delta) cross, for the
    `analyzer_terms` (a, bb, cross), broadcast against beta and delta.

    For V <= 1 this is a squared modulus (cross^2 = a bb), so it is floored
    at 0 where rounding leaves an analyzer null slightly negative.  With
    order=1, returns (shape, d/d beta, d/d delta); with order=2, also
    (d2/d beta2, d2/d beta d delta, d2/d delta2).
    """
    a, bb, cross = terms
    cos_d = np.cos(delta)
    shape = np.maximum(beta * beta * a + bb + 2.0 * visibility * beta * cos_d * cross, 0.0)
    if order == 0:
        return shape
    sin_d = np.sin(delta)
    ds_db = 2.0 * beta * a + 2.0 * visibility * cos_d * cross
    ds_dd = -2.0 * visibility * beta * sin_d * cross
    if order == 1:
        return shape, ds_db, ds_dd
    d2s_dbd = -2.0 * visibility * sin_d * cross
    return shape, ds_db, ds_dd, 2.0 * a, d2s_dbd, -2.0 * visibility * beta * cos_d * cross


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
    """
    if not (np.isfinite(scale) and scale > 0):
        raise ValueError("scale must be positive")
    if not (0.0 <= visibility <= 1.0):
        raise ValueError("visibility must lie in [0, 1]")
    return scale * rate_shape(analyzer_terms(theta1, theta2), params.beta, params.delta, visibility)


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
    t1, t2, dur = np.array(plan.settings).T
    shape = rate_shape(analyzer_terms(t1, t2), params.beta, params.delta, det.visibility)
    return (scale.detected_rate(det) * shape + det.accidental_rate) * dur


def simulate_counts(
    plan: AcquisitionPlan,
    scale: ExperimentScale,
    det: DetectorModel,
    params: SampleParams,
    seed: int,
) -> list:
    """Draw one Poisson realization of the plan.

    Each record uses its own counter-based Philox stream keyed by
    (seed, record index), so identical inputs give bit-identical outputs
    and records can be generated independently in any order.
    """
    if not (0 <= int(seed) < 2**64):
        raise ValueError("seed must be an unsigned 64-bit integer")
    means = expected_counts(plan, scale, det, params)
    records = []
    for i, (t1, t2, dur) in enumerate(plan.settings):
        if means[i] == 0.0:
            k = 0
        else:
            key = np.array([seed, i], dtype=np.uint64)
            rng = np.random.Generator(np.random.Philox(key=key))
            k = int(rng.poisson(means[i]))
        records.append(CountRecord(theta1=t1, theta2=t2, duration=dur, counts=k))
    return records


def visibility(rates) -> float:
    """Fringe visibility (max - min)/(max + min) of a theta1 sweep.

    Needs at least 8 samples spanning at least pi of theta1.
    """
    pts = [(float(t), float(r)) for t, r in rates]
    if len(pts) < 8:
        raise ValueError("visibility needs at least 8 samples")
    thetas = [t for t, _ in pts]
    if max(thetas) - min(thetas) < np.pi - 1e-9:
        raise ValueError("theta1 sweep must span at least pi")
    values = [r for _, r in pts]
    lo, hi = min(values), max(values)
    if hi <= 0.0:
        raise ValueError("all rates are zero; visibility undefined")
    return (hi - lo) / (hi + lo)
