import math

import pytest

from qellip import (
    ClassicalInstrument,
    SampleParams,
    classical_psi_estimate,
    three_angle_invert,
    coincidence_rate,
)

MIRROR = SampleParams.mirror()


class TestClassicalPsiEstimate:
    def test_perfect_instrument(self):
        psi = classical_psi_estimate(MIRROR, ClassicalInstrument())
        assert psi == pytest.approx(math.pi / 4, abs=1e-12)

    def test_gain_drift_bias(self):
        psi = classical_psi_estimate(MIRROR, ClassicalInstrument(gain_drift=1.02))
        assert math.degrees(psi) == pytest.approx(44.433, abs=1e-3)
        assert math.degrees(math.pi / 4 - psi) == pytest.approx(0.567, abs=1e-3)

    def test_leakage_floor(self):
        # a pure s-reflector still reads nonzero psi through a leaky polarizer
        dark = SampleParams(psi=0.0, delta=0.0)
        psi = classical_psi_estimate(dark, ClassicalInstrument(extinction=0.01))
        assert psi == pytest.approx(math.atan(0.01 / 0.99), abs=1e-12)
        assert psi > 0

    def test_bias_closed_form(self):
        # with zero leakage the bias is exactly atan(tan(psi)/g) - psi
        for psi_deg in (10.0, 30.0, 45.0, 70.0):
            for g in (0.9, 1.0, 1.05):
                p = SampleParams(psi=math.radians(psi_deg), delta=0.3)
                est = classical_psi_estimate(p, ClassicalInstrument(gain_drift=g))
                assert est == pytest.approx(math.atan(math.tan(p.psi) / g), abs=1e-12)

    def test_quantum_contrast_gain_immunity(self):
        # the same multiplicative drift leaves the coincidence estimate alone
        g = 1.02
        rates = [
            g * coincidence_rate(2.0, MIRROR, math.radians(t), math.pi / 4)
            for t in (0, 45, 90)
        ]
        quantum = three_angle_invert(*rates)
        assert quantum.psi_hat == pytest.approx(math.pi / 4, abs=1e-9)
        classical = classical_psi_estimate(MIRROR, ClassicalInstrument(gain_drift=g))
        assert abs(classical - math.pi / 4) > math.radians(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClassicalInstrument(gain_drift=0.0)
        with pytest.raises(ValueError):
            ClassicalInstrument(extinction=1.0)

