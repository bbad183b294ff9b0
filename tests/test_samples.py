import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qellip import (
    FilmStack,
    ReflectionPair,
    SampleParams,
    film_stack_reflectance,
    fresnel_interface,
    psi_delta_from_coeffs,
)
from qellip.samples import _cos_transmitted

from oracle import sample_jones

# Independent-oracle values (direct textbook Fresnel / Airy formulas,
# evaluated separately and frozen here).
FRESNEL_45_RS = -0.30333704529042343
FRESNEL_45_RP = 0.09201336304552436
GOLDEN_STACK_PSI_DEG = 37.426296679510905
GOLDEN_STACK_DELTA_DEG = -79.48955820732466


def bits(pair):
    return np.array([pair.r_p, pair.r_s]).tobytes()


def golden_stack():
    # air / SiO2 (n=1.46, 100 nm) / Si (n=3.875-0.016i) at 633 nm, 70 deg
    return FilmStack(
        wavelength=633e-9,
        incidence_angle=math.radians(70),
        n_ambient=1.0,
        layers=((1.46 + 0j, 100e-9),),
        n_substrate=3.875 - 0.016j,
    )


class TestSampleParams:
    def test_beta_definition(self):
        p = SampleParams(psi=math.radians(63.4349488), delta=0.0)
        assert p.beta**2 == pytest.approx(math.tan(p.psi), rel=1e-12)

    @given(st.floats(0.1, 10.0))
    def test_psi_beta_round_trip(self, beta):
        p = SampleParams.from_beta_delta(beta, 0.3)
        assert p.beta == pytest.approx(beta, rel=1e-12)
        q = SampleParams(psi=p.psi, delta=p.delta)
        assert q.psi == pytest.approx(p.psi, abs=1e-12)

    def test_delta_wrapped(self):
        assert SampleParams(psi=0.5, delta=3 * math.pi).delta == pytest.approx(math.pi)
        assert SampleParams(psi=0.5, delta=-math.pi).delta == pytest.approx(math.pi)

    def test_psi_range_enforced(self):
        with pytest.raises(ValueError):
            SampleParams(psi=math.pi / 2, delta=0.0)
        with pytest.raises(ValueError):
            SampleParams(psi=-0.1, delta=0.0)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_non_finite_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="^delta must be finite$"):
            SampleParams(psi=0.5, delta=delta)

    @pytest.mark.parametrize("beta", [-1e-300, -1.0, math.nan, math.inf])
    def test_bad_beta_rejected(self, beta):
        with pytest.raises(ValueError, match="^beta must be finite and >= 0"):
            SampleParams.from_beta_delta(beta, 0.3)


class TestSampleJones:
    def test_mirror_is_identity(self):
        np.testing.assert_allclose(sample_jones(SampleParams.mirror()), np.eye(2), atol=1e-15)

    def test_half_wave_sample(self):
        op = sample_jones(SampleParams(psi=math.pi / 4, delta=math.pi))
        np.testing.assert_allclose(op, np.diag([-1.0, 1.0]), atol=1e-15)

    def test_general_sample(self):
        op = sample_jones(SampleParams.from_beta_delta(math.sqrt(2), math.radians(60)))
        expected = math.sqrt(2) * (0.5 + 0.8660254j)
        assert op[0, 0] == pytest.approx(expected, abs=1e-7)
        assert op[1, 1] == 1.0
        assert op[0, 1] == op[1, 0] == 0.0


class TestFresnelInterface:
    def test_brewster_null(self):
        pair = fresnel_interface(1.0, 1.5, math.atan(1.5))
        assert abs(pair.r_p) < 1e-12

    def test_air_glass_45(self):
        pair = fresnel_interface(1.0, 1.5, math.radians(45))
        assert pair.r_s == pytest.approx(FRESNEL_45_RS, abs=1e-10)
        assert pair.r_p == pytest.approx(FRESNEL_45_RP, abs=1e-10)

    def test_normal_incidence_opposite_signs(self):
        pair = fresnel_interface(1.0, 1.5, 0.0)
        assert pair.r_s == pytest.approx(-0.2, abs=1e-12)
        assert pair.r_p == pytest.approx(+0.2, abs=1e-12)

    def test_negative_index_past_its_critical_angle_decays(self):
        # a lossless n = -0.14 at sin(theta) = 0.363: the principal root gives
        # Im(n cos) < 0, so the branch is flipped to the decaying wave
        n, sin_inc = -0.14, 0.363
        ct = _cos_transmitted(n, sin_inc)
        assert ct == -np.sqrt(complex(1.0) - (sin_inc / n) ** 2)
        assert (n * ct).imag > 0

    def test_grazing_rejected(self):
        with pytest.raises(ValueError):
            fresnel_interface(1.0, 1.5, math.pi / 2)

    def test_lossless_conservation_on_grid(self):
        for angle in np.linspace(0.0, math.pi / 2 * 0.999, 90):
            pair = fresnel_interface(1.0, 1.5, float(angle))
            assert abs(pair.r_p) <= 1 + 1e-12
            assert abs(pair.r_s) <= 1 + 1e-12


class TestFilmStack:
    def test_zero_layer_equals_interface_exactly(self):
        # n - i*kappa substrates included: both signs give the same
        # coefficients, bit for bit
        for n_substrate in (1.5, 3.882 + 0.019j, 3.882 - 0.019j, 0.2 - 3.4j, 1.5 - 0j):
            for angle in map(math.radians, (0.0, 45.0, 70.0, 85.0)):
                stack = FilmStack(
                    wavelength=633e-9,
                    incidence_angle=angle,
                    n_ambient=1.0,
                    layers=(),
                    n_substrate=n_substrate,
                )
                got = film_stack_reflectance(stack)
                want = fresnel_interface(1.0, n_substrate, angle)
                conjugate = fresnel_interface(1.0, complex(n_substrate).conjugate(), angle)
                assert bits(got) == bits(want) == bits(conjugate)

    def test_index_is_stored_in_canonical_form(self):
        minus = FilmStack(633e-9, 1.2, 1.0, ((1.46 - 0.002j, 100e-9),), n_substrate=3.882 - 0.019j)
        plus = FilmStack(633e-9, 1.2, 1.0, ((1.46 + 0.002j, 100e-9),), n_substrate=3.882 + 0.019j)
        assert minus.n_substrate == 3.882 + 0.019j
        assert minus.layers == plus.layers
        assert bits(film_stack_reflectance(minus)) == bits(film_stack_reflectance(plus))

    def test_full_period_layer_is_transparent(self):
        n, angle = 1.46, math.radians(30)
        cos_t = math.sqrt(1 - (math.sin(angle) / n) ** 2)
        d_full = 633e-9 / (n * cos_t)  # one full round-trip phase period
        stack = FilmStack(
            wavelength=633e-9,
            incidence_angle=angle,
            n_ambient=1.0,
            layers=((n, d_full),),
            n_substrate=1.5,
        )
        got = film_stack_reflectance(stack)
        want = fresnel_interface(1.0, 1.5, angle)
        assert got.r_p == pytest.approx(want.r_p, abs=1e-10)
        assert got.r_s == pytest.approx(want.r_s, abs=1e-10)

    def test_golden_sio2_on_si(self):
        params = psi_delta_from_coeffs(film_stack_reflectance(golden_stack()))
        assert math.degrees(params.psi) == pytest.approx(GOLDEN_STACK_PSI_DEG, abs=1e-9)
        assert math.degrees(params.delta) == pytest.approx(GOLDEN_STACK_DELTA_DEG, abs=1e-9)

    def test_lossless_stack_conservation(self):
        for angle in np.linspace(0.0, math.pi / 2 * 0.999, 90):
            stack = FilmStack(
                wavelength=500e-9,
                incidence_angle=float(angle),
                n_ambient=1.0,
                layers=((1.38, 120e-9), (2.3, 60e-9)),
                n_substrate=1.52,
            )
            pair = film_stack_reflectance(stack)
            assert abs(pair.r_p) <= 1 + 1e-12
            assert abs(pair.r_s) <= 1 + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            FilmStack(wavelength=-1.0, incidence_angle=0.0, n_ambient=1.0, layers=(), n_substrate=1.5)
        with pytest.raises(ValueError):
            FilmStack(wavelength=633e-9, incidence_angle=0.0, n_ambient=1.0,
                      layers=((1.5, -1e-9),), n_substrate=1.5)
        for n_ambient in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^n_ambient must be positive$"):
                FilmStack(wavelength=633e-9, incidence_angle=0.0, n_ambient=n_ambient, layers=(), n_substrate=1.5)

    @pytest.mark.parametrize("thickness", [math.nan, math.inf, 100e-9 + 0j])
    def test_non_finite_thickness_rejected(self, thickness):
        # NaN slipped past a d < 0 test and reached the Airy sum
        with pytest.raises(ValueError, match="thicknesses must be finite"):
            FilmStack(wavelength=633e-9, incidence_angle=0.0, n_ambient=1.0,
                      layers=((1.5, thickness),), n_substrate=1.5)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"n_ambient": 1 + 0j}, "n_ambient must be a real number"),
            ({"incidence_angle": "0.5"}, "incidence_angle must be a real number"),
            ({"wavelength": "633e-9"}, "wavelength must be a real number"),
            ({"layers": ((1.5,),)}, "each layer must be an"),
            ({"layers": (1.5,)}, "each layer must be an"),
            ({"layers": ((None, 100e-9),)}, "layer indices must be a number"),
            ({"n_substrate": "1.5"}, "substrate index must be a number"),
        ],
        ids=["complex-ambient", "string-angle", "string-wavelength", "one-value-layer", "bare-number-layer",
             "none-layer-index", "string-substrate"],
    )
    def test_wrong_types_rejected(self, fields, message):
        # each raised a bare TypeError, an unlabelled unpacking error, or was parsed from a string
        kwargs = dict(wavelength=633e-9, incidence_angle=0.5, n_ambient=1.0, layers=(), n_substrate=1.5)
        with pytest.raises(ValueError, match=message):
            FilmStack(**dict(kwargs, **fields))

    @pytest.mark.parametrize("n_substrate", [math.nan, complex(1.5, math.inf), 0.0, 0j])
    def test_bad_substrate_index_rejected(self, n_substrate):
        # the admittances divide by it: NaN and 0 warned in the Airy sum
        with pytest.raises(ValueError, match="substrate index must be finite and non-zero"):
            FilmStack(wavelength=633e-9, incidence_angle=0.0, n_ambient=1.0,
                      layers=((1.5, 100e-9),), n_substrate=n_substrate)
        with pytest.raises(ValueError, match="substrate index must be finite and non-zero"):
            fresnel_interface(1.0, n_substrate, 0.5)

    @pytest.mark.parametrize("n_layer", [math.nan, complex(1.5, math.inf), 0.0, 0j])
    def test_bad_layer_index_rejected(self, n_layer):
        # 0 warned "invalid value" at normal incidence, "divide by zero" at 1.2 rad
        with pytest.raises(ValueError, match="layer indices must be finite and non-zero"):
            FilmStack(wavelength=633e-9, incidence_angle=1.2, n_ambient=1.0,
                      layers=((n_layer, 100e-9),), n_substrate=1.5)

    @pytest.mark.parametrize("layers, n_substrate", [(((1e-300, 100e-9),), 1.5), ((), 1e-300),
                                                     (((1.5 + 0.1j, 1e-2),), 1.5)],
                             ids=["tiny-layer-index", "tiny-substrate-index", "thick-absorbing-layer"])
    def test_overflow_in_the_stack_is_rejected(self, layers, n_substrate):
        # (sin / n)^2 overflowed, and cos of a 1 cm absorbing layer's phase:
        # numpy warned and the Airy sum carried inf
        stack = FilmStack(wavelength=633e-9, incidence_angle=1.2, n_ambient=1.0,
                          layers=layers, n_substrate=n_substrate)
        with pytest.raises(ValueError, match="stack reflectance is not representable: overflow"):
            film_stack_reflectance(stack)


class TestPsiDeltaFromCoeffs:
    def test_mirror_like_equality(self):
        p = psi_delta_from_coeffs(ReflectionPair(r_p=-0.5, r_s=-0.5))
        assert p.psi == pytest.approx(math.pi / 4, abs=1e-12)
        assert p.delta == pytest.approx(0.0, abs=1e-12)

    def test_air_glass_45_mapping(self):
        p = psi_delta_from_coeffs(ReflectionPair(r_p=FRESNEL_45_RP, r_s=FRESNEL_45_RS))
        assert p.beta == pytest.approx(0.30333, abs=1e-4)
        assert math.degrees(p.psi) == pytest.approx(5.252, abs=1e-2)
        assert p.delta == pytest.approx(math.pi, abs=1e-12)  # -180 wraps to +180

    def test_pure_phase_difference(self):
        p = psi_delta_from_coeffs(ReflectionPair(r_p=0.5j, r_s=0.5))
        assert p.psi == pytest.approx(math.pi / 4, abs=1e-12)
        assert p.delta == pytest.approx(math.pi / 2, abs=1e-12)

    def test_degenerate_errors(self):
        with pytest.raises(ValueError, match="degenerate"):
            psi_delta_from_coeffs(ReflectionPair(r_p=0.0, r_s=0.5))
        with pytest.raises(ValueError, match="V-null"):
            psi_delta_from_coeffs(ReflectionPair(r_p=0.5, r_s=0.0))

    @pytest.mark.parametrize("r_p, r_s, name", [(math.nan, 1.0, "r_p"), (complex(0.5, math.inf), 1.0, "r_p"),
                                                (0.5, complex(math.nan, 0.0), "r_s"), (0.5, -math.inf, "r_s")])
    def test_non_finite_coefficient_rejected(self, r_p, r_s, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            ReflectionPair(r_p=r_p, r_s=r_s)

    @given(beta=st.floats(0.05, 5.0), delta=st.floats(-3.1, math.pi))
    def test_round_trip_from_beta_delta(self, beta, delta):
        pair = ReflectionPair(r_p=beta * cmath.exp(1j * delta), r_s=1.0)
        p = psi_delta_from_coeffs(pair)
        assert p.beta == pytest.approx(beta, rel=1e-12)
        assert p.delta == pytest.approx(delta, abs=1e-12)
