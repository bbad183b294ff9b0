import qellip

PUBLIC_NAMES = [
    "AcquisitionPlan",
    "ClassicalInstrument",
    "CountRecord",
    "CountTable",
    "DetectorModel",
    "EllipsometricEstimate",
    "ExperimentScale",
    "FilmStack",
    "FitError",
    "ReflectionPair",
    "SampleParams",
    "__version__",
    "classical_psi_estimate",
    "coincidence_rate",
    "expected_counts",
    "film_stack_reflectance",
    "fresnel_interface",
    "least_squares_fit",
    "psi_delta_from_coeffs",
    "simulate_counts",
    "subtract_accidentals",
    "three_angle_from_counts",
    "three_angle_invert",
    "visibility",
]


def test_public_names_are_pinned():
    assert sorted(qellip.__all__) == PUBLIC_NAMES
    for name in qellip.__all__:
        getattr(qellip, name)
