"""Quantum ellipsometry with polarization-entangled photon pairs.

Simulates coincidence counting of a type-II down-conversion twin-photon
source through a reflective sample and recovers the ellipsometric
parameters (psi, delta) absolutely, i.e. without source or detector
calibration.  A minimal classical intensity-ratio ellipsometer is
included as a comparison baseline.
"""

__version__ = "0.1.0"

from .polarization import (
    BASIS,
    TwoPhotonState,
    entangled_state,
    apply_local,
    coincidence_amplitude,
    reduced_density,
    is_unitary,
)
from .samples import (
    SampleParams,
    ReflectionPair,
    FilmStack,
    sample_jones,
    fresnel_interface,
    film_stack_reflectance,
    psi_delta_from_coeffs,
)
from .experiment import (
    RATE_PROJECTION_FACTOR,
    DetectorModel,
    ExperimentScale,
    AcquisitionPlan,
    CountRecord,
    coincidence_rate,
    expected_counts,
    simulate_counts,
    visibility,
)
from .estimate import (
    EllipsometricEstimate,
    FitOptions,
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
    "BASIS",
    "TwoPhotonState",
    "entangled_state",
    "apply_local",
    "coincidence_amplitude",
    "reduced_density",
    "is_unitary",
    "SampleParams",
    "ReflectionPair",
    "FilmStack",
    "sample_jones",
    "fresnel_interface",
    "film_stack_reflectance",
    "psi_delta_from_coeffs",
    "RATE_PROJECTION_FACTOR",
    "DetectorModel",
    "ExperimentScale",
    "AcquisitionPlan",
    "CountRecord",
    "coincidence_rate",
    "expected_counts",
    "simulate_counts",
    "visibility",
    "EllipsometricEstimate",
    "FitOptions",
    "FitError",
    "three_angle_invert",
    "three_angle_from_counts",
    "least_squares_fit",
    "subtract_accidentals",
    "ClassicalInstrument",
    "classical_psi_estimate",
]
