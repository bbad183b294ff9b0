"""Quantum ellipsometry with polarization-entangled photon pairs.

Simulates coincidence counting of a type-II down-conversion twin-photon
source through a reflective sample and recovers the ellipsometric
parameters (psi, delta) absolutely, i.e. without source or detector
calibration.  The coincidence rate is evaluated in closed form only
(`experiment.analyzer_terms` and `rate_shape`).  A minimal classical
intensity-ratio ellipsometer is included as a comparison baseline.
"""

__version__ = "0.6.0"

from .samples import (
    SampleParams,
    ReflectionPair,
    FilmStack,
    fresnel_interface,
    film_stack_reflectance,
    psi_delta_from_coeffs,
)
from .experiment import (
    DetectorModel,
    ExperimentScale,
    AcquisitionPlan,
    CountRecord,
    CountTable,
    coincidence_rate,
    expected_counts,
    simulate_counts,
    visibility,
)
from .estimate import (
    EllipsometricEstimate,
    FitError,
    three_angle_invert,
    three_angle_from_counts,
    least_squares_fit,
    subtract_accidentals,
)
from .classical import (
    ClassicalInstrument,
    classical_psi_estimate,
)

__all__ = [
    "__version__",
    "SampleParams",
    "ReflectionPair",
    "FilmStack",
    "fresnel_interface",
    "film_stack_reflectance",
    "psi_delta_from_coeffs",
    "DetectorModel",
    "ExperimentScale",
    "AcquisitionPlan",
    "CountRecord",
    "CountTable",
    "coincidence_rate",
    "expected_counts",
    "simulate_counts",
    "visibility",
    "EllipsometricEstimate",
    "FitError",
    "three_angle_invert",
    "three_angle_from_counts",
    "least_squares_fit",
    "subtract_accidentals",
    "ClassicalInstrument",
    "classical_psi_estimate",
]
