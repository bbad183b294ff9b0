import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracle import (
    HH,
    HV,
    VH,
    VV,
    TwoPhotonState,
    apply_local,
    coincidence_amplitude,
    entangled_state,
    is_unitary,
    reduced_density,
)

I2 = np.eye(2)
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


class TestEntangledState:
    def test_amplitudes(self):
        s = entangled_state()
        assert s.amp[HV] == pytest.approx(0.7071068, abs=1e-7)
        assert s.amp[VH] == pytest.approx(0.7071068, abs=1e-7)
        assert s.amp[HH] == 0
        assert s.amp[VV] == 0

    def test_normalized(self):
        assert entangled_state().norm() == pytest.approx(1.0, abs=1e-15)

    def test_amplitudes_immutable(self):
        s = entangled_state()
        with pytest.raises(ValueError):
            s.amp[0] = 1.0

    def test_bad_norm_flag_rejected(self):
        with pytest.raises(ValueError):
            TwoPhotonState(np.array([1.0, 1.0, 0.0, 0.0]), normalized=True)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            TwoPhotonState(np.array([np.nan, 0, 0, 0]), normalized=False)


class TestApplyLocal:
    def test_identity(self):
        psi = entangled_state()
        out = apply_local(psi, I2, I2)
        np.testing.assert_allclose(out.amp, psi.amp, atol=1e-15)
        assert out.normalized

    def test_global_phase_preserves_moduli(self):
        psi = entangled_state()
        out = apply_local(psi, I2, np.exp(1j * 0.7) * I2)
        np.testing.assert_allclose(np.abs(out.amp), np.abs(psi.amp), atol=1e-15)
        assert out.normalized

    def test_sample_operator_tensor_expansion(self):
        # idler-arm diag(b e^{i d}, 1): HV keeps the idler-V coefficient 1,
        # VH picks up b e^{i d}; matches a brute 4x4 kron oracle.
        b, d = 1.0, math.pi
        op = np.diag([b * np.exp(1j * d), 1.0])
        out = apply_local(entangled_state(), I2, op)
        np.testing.assert_allclose(
            out.amp, [0, INV_SQRT2, -INV_SQRT2, 0], atol=1e-15
        )
        oracle = np.kron(I2, op) @ entangled_state().amp
        np.testing.assert_allclose(out.amp, oracle, atol=1e-15)

    def test_lossy_operator_clears_flag(self):
        out = apply_local(entangled_state(), I2, np.diag([0.5, 1.0]))
        assert not out.normalized

    @given(
        a1=st.floats(0, 2 * math.pi),
        a2=st.floats(0, 2 * math.pi),
        p1=st.floats(0, 2 * math.pi),
        p2=st.floats(0, 2 * math.pi),
    )
    def test_unitary_ops_preserve_norm(self, a1, a2, p1, p2):
        u1 = rotation(a1) @ np.diag([1.0, np.exp(1j * p1)])
        u2 = rotation(a2) @ np.diag([1.0, np.exp(1j * p2)])
        out = apply_local(entangled_state(), u1, u2)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)
        assert out.normalized


class TestCoincidenceAmplitude:
    def test_hh_projection_is_zero(self):
        assert coincidence_amplitude(entangled_state(), 0.0, 0.0) == 0

    def test_hv_projection(self):
        amp = coincidence_amplitude(entangled_state(), 0.0, math.pi / 2)
        assert amp == pytest.approx(INV_SQRT2, abs=1e-15)

    def test_mirror_sample_gives_sum_angle(self):
        # b=1, d=0 collapses the amplitude to sin(t1 + t2)/sqrt(2)
        out = apply_local(entangled_state(), I2, np.diag([1.0, 1.0]))
        amp = coincidence_amplitude(out, math.radians(30), math.radians(60))
        assert amp == pytest.approx(0.7071068, abs=1e-7)

    @pytest.mark.parametrize("phi", [0.0, math.pi / 7, math.pi / 2, math.pi, 3 * math.pi / 2])
    def test_arm_phase_mismatch_invariance(self, phi):
        psi = entangled_state()
        base = abs(coincidence_amplitude(psi, 0.3, 1.1)) ** 2
        shifted = apply_local(psi, I2, np.exp(1j * phi) * I2)
        assert abs(coincidence_amplitude(shifted, 0.3, 1.1)) ** 2 == pytest.approx(
            base, abs=1e-15
        )

    def test_bilinear_in_idler_operator(self):
        psi = entangled_state()
        c = 0.3 - 0.4j
        out1 = apply_local(psi, I2, c * I2)
        a1 = coincidence_amplitude(out1, 0.5, 0.9)
        a0 = coincidence_amplitude(psi, 0.5, 0.9)
        assert a1 == pytest.approx(c * a0, abs=1e-15)


class TestReducedDensity:
    @pytest.mark.parametrize("arm", ["signal", "idler"])
    def test_entangled_marginals_unpolarized(self, arm):
        rho = reduced_density(entangled_state(), arm)
        np.testing.assert_allclose(rho, I2 / 2, atol=1e-12)

    def test_product_state(self):
        hv = TwoPhotonState(np.array([0, 1.0, 0, 0]))
        np.testing.assert_allclose(
            reduced_density(hv, "signal"), np.diag([1.0, 0.0]), atol=1e-15
        )
        np.testing.assert_allclose(
            reduced_density(hv, "idler"), np.diag([0.0, 1.0]), atol=1e-15
        )

    def test_rejects_unnormalized(self):
        lossy = apply_local(entangled_state(), I2, np.diag([0.5, 1.0]))
        with pytest.raises(ValueError):
            reduced_density(lossy, "signal")

    @given(a=st.floats(0, 2 * math.pi), p=st.floats(0, 2 * math.pi))
    def test_density_invariants(self, a, p):
        u = rotation(a) @ np.diag([1.0, np.exp(1j * p)])
        state = apply_local(entangled_state(), u, I2)
        rho = reduced_density(state, "idler")
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho).min() >= -1e-12


def test_is_unitary():
    assert is_unitary(rotation(0.3))
    assert not is_unitary(np.diag([0.5, 1.0]))
    assert not is_unitary(np.full((2, 2), np.nan))
