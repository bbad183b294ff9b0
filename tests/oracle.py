"""Two-photon Jones calculus: the independent oracle for the closed-form rate.

The library evaluates the coincidence rate only in closed form
(`qellip.experiment.analyzer_terms` and `rate_shape`).  This module derives
the same rate from the entangled pair state, as the squared projection onto
the two analyzers, so the tests can check the closed form against it.

The four-dimensional amplitude vector is ordered (HH, HV, VH, VV) with
the *signal* photon's polarization written first, so index = 2*s + i
where s, i are 0 for H and 1 for V.  All angles are radians.
"""

from dataclasses import dataclass

import numpy as np

from qellip import SampleParams

BASIS = ("HH", "HV", "VH", "VV")
HH, HV, VH, VV = 0, 1, 2, 3

_NORM_TOL = 1e-12

# coincidence_rate(scale=1, V=1) equals RATE_PROJECTION_FACTOR times the
# squared projection amplitude of the entangled state: the 1/sqrt(2) state
# normalization contributes a factor 1/2 that the closed form does not carry.
RATE_PROJECTION_FACTOR = 2.0


def is_unitary(op: np.ndarray, tol: float = 1e-12) -> bool:
    """True if the 2x2 Jones operator is unitary to within `tol`."""
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2) or not np.all(np.isfinite(op.view(float))):
        return False
    return bool(np.max(np.abs(op.conj().T @ op - np.eye(2))) <= tol)


def _as_jones(op) -> np.ndarray:
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2):
        raise ValueError(f"Jones operator must be 2x2, got shape {op.shape}")
    if not np.all(np.isfinite(op.view(float))):
        raise ValueError("Jones operator entries must be finite")
    return op


@dataclass(frozen=True)
class TwoPhotonState:
    """Two-photon polarization state over the (HH, HV, VH, VV) basis.

    `normalized` marks whether the amplitudes carry unit norm; states
    that went through a lossy (non-unitary) operator keep their physical
    sub-unit scale and are flagged un-normalized.
    """

    amp: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        amp = np.array(self.amp, dtype=complex).reshape(-1)
        if amp.shape != (4,):
            raise ValueError("state needs exactly 4 complex amplitudes")
        if not np.all(np.isfinite(amp.view(float))):
            raise ValueError("state amplitudes must be finite")
        if self.normalized and abs(np.vdot(amp, amp).real - 1.0) > _NORM_TOL:
            raise ValueError("state flagged normalized but norm != 1")
        amp.setflags(write=False)
        object.__setattr__(self, "amp", amp)

    def norm(self) -> float:
        return float(np.sqrt(np.vdot(self.amp, self.amp).real))


def entangled_state() -> TwoPhotonState:
    """The polarization-entangled twin-photon source state (|HV> + |VH>)/sqrt(2)."""
    amp = np.zeros(4, dtype=complex)
    amp[HV] = amp[VH] = 1.0 / np.sqrt(2.0)
    return TwoPhotonState(amp, normalized=True)


def apply_local(
    state: TwoPhotonState, op_signal, op_idler, unitary_tol: float = 1e-12
) -> TwoPhotonState:
    """Apply one Jones operator per arm: amp' = (op_signal (x) op_idler) amp.

    The result keeps the `normalized` flag only when both operators are
    unitary; a lossy sample reflection yields an un-normalized state whose
    scale is physical (it is absorbed into the rate constant downstream).
    """
    op_s = _as_jones(op_signal)
    op_i = _as_jones(op_idler)
    amp = np.kron(op_s, op_i) @ state.amp
    keep_norm = (
        state.normalized
        and is_unitary(op_s, unitary_tol)
        and is_unitary(op_i, unitary_tol)
    )
    return TwoPhotonState(amp, normalized=keep_norm)


def analyzer_vector(theta: float) -> np.ndarray:
    """Transmission axis of a linear analyzer at angle theta from H."""
    return np.array([np.cos(theta), np.sin(theta)])


def coincidence_amplitude(state: TwoPhotonState, theta1: float, theta2: float) -> complex:
    """Projection amplitude onto linear analyzers at theta1 (signal) and theta2 (idler)."""
    proj = np.kron(analyzer_vector(theta1), analyzer_vector(theta2))
    return complex(proj @ state.amp)


def reduced_density(state: TwoPhotonState, arm: str) -> np.ndarray:
    """Single-arm 2x2 density matrix (partial trace over the other arm).

    Requires a normalized state; for the entangled source state both arms
    come out maximally mixed (I/2), i.e. each photon alone is unpolarized.
    """
    if not state.normalized or abs(state.norm() - 1.0) > _NORM_TOL:
        raise ValueError("reduced_density requires a normalized state")
    m = state.amp.reshape(2, 2)  # rows: signal, cols: idler
    if arm == "signal":
        rho = m @ m.conj().T
    elif arm == "idler":
        rho = m.T @ m.conj()
    else:
        raise ValueError(f"arm must be 'signal' or 'idler', got {arm!r}")
    return 0.5 * (rho + rho.conj().T)


def sample_jones(params: SampleParams) -> np.ndarray:
    """Jones operator of the sample reflection, diag(beta e^{i delta}, 1).

    The V (s) coefficient is normalized to 1; the absolute reflectance is
    absorbed into the experiment's rate constant.
    """
    return np.array(
        [[params.beta * np.exp(1j * params.delta), 0.0], [0.0, 1.0]], dtype=complex
    )


def projection_rate(params: SampleParams, theta1: float, theta2: float) -> float:
    """The coincidence rate at scale 1 and V = 1, from the state's projection.

    `sample_jones(params)` acts on the signal photon, the one analysed at
    theta1, and the idler passes unchanged to its analyzer at theta2: the
    sample sits in the signal arm, as in `qellip.experiment`.
    """
    state = apply_local(entangled_state(), sample_jones(params), np.eye(2))
    return RATE_PROJECTION_FACTOR * abs(coincidence_amplitude(state, theta1, theta2)) ** 2
