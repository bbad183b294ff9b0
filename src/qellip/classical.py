"""Minimal classical intensity-ratio ellipsometer for comparison.

Two sequential intensity measurements (H then V analyzer) estimate
tan(psi) as an intensity ratio, so any multiplicative drift of the
source/detector chain between the two measurements, or polarizer
leakage, biases psi directly.  The quantum coincidence scheme is immune
to exactly this class of error.
"""

from dataclasses import dataclass

import numpy as np

from .samples import SampleParams


@dataclass(frozen=True)
class ClassicalInstrument:
    """gain_drift: multiplicative source/detector drift between the two
    measurements (nominal 1.0); extinction: polarizer intensity leakage."""

    gain_drift: float = 1.0
    extinction: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.gain_drift) and self.gain_drift > 0):
            raise ValueError("gain_drift must be positive")
        if not (0.0 <= self.extinction < 1.0):
            raise ValueError("extinction must lie in [0, 1)")


def classical_psi_estimate(params: SampleParams, inst: ClassicalInstrument) -> float:
    """psi estimated from two sequential intensity measurements.

    With intensity reflectances R_H = tan(psi) and R_V = 1 and leakage eps:

        I_H = (1 - eps) R_H + eps R_V
        I_V = g [ (1 - eps) R_V + eps R_H ]

    and the instrument reports atan(I_H / I_V).  For eps = 0 the bias is
    exactly atan(tan(psi)/g) - psi.
    """
    r_h = np.tan(params.psi)
    r_v = 1.0
    eps = inst.extinction
    i_h = (1.0 - eps) * r_h + eps * r_v
    i_v = inst.gain_drift * ((1.0 - eps) * r_v + eps * r_h)
    return float(np.arctan(i_h / i_v))

