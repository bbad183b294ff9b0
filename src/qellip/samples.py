"""Ground-truth sample models: direct (psi, delta), Fresnel interfaces and
thin-film stacks, and the mapping between reflection coefficients and the
(beta, psi, delta) parameters used by the coincidence-rate model.

Conventions (see README for the interop notes):
  * tan(psi) is the *intensity*-reflectance ratio R_H / R_V of the p- and
    s-polarized waves, so beta = sqrt(tan psi) = |r_p| / |r_s| is the
    amplitude ratio.  The mainstream ellipsometry angle is atan(beta).
  * delta = arg(r_p) - arg(r_s), wrapped to (-pi, pi].
  * Fresnel signs: at normal incidence r_p and r_s have opposite signs
    (r_p = +(n2-n1)/(n2+n1) for light going from n1 into n2).
  * Time convention e^{-i omega t}: absorbing indices carry a positive
    imaginary part internally.  Inputs written as n - i*kappa are
    conjugated on entry; this flips the sign of delta (unobservable in
    the coincidence scheme, which sees cos(delta) only) and leaves psi
    and all magnitudes unchanged.
"""

import numbers
from dataclasses import dataclass

import numpy as np

_TWO_PI = 2.0 * np.pi


def wrap_phase(delta: float) -> float:
    """Wrap a phase to the canonical interval (-pi, pi]."""
    d = float(delta) % _TWO_PI
    if d > np.pi:
        d -= _TWO_PI
    return d


@dataclass(frozen=True)
class SampleParams:
    """Ellipsometric sample description: psi in [0, pi/2), delta in (-pi, pi]."""

    psi: float
    delta: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.psi) or not (0.0 <= self.psi < np.pi / 2):
            raise ValueError(f"psi must lie in [0, pi/2), got {self.psi}")
        if not np.isfinite(self.delta):
            raise ValueError("delta must be finite")
        object.__setattr__(self, "delta", wrap_phase(self.delta))

    @property
    def beta(self) -> float:
        """Amplitude-reflectance ratio sqrt(tan psi)."""
        return float(np.sqrt(np.tan(self.psi)))

    @classmethod
    def from_beta_delta(cls, beta: float, delta: float) -> "SampleParams":
        if not (np.isfinite(beta) and beta >= 0.0):
            raise ValueError(f"beta must be finite and >= 0, got {beta}")
        return cls(psi=float(np.arctan(beta * beta)), delta=delta)

    @classmethod
    def mirror(cls) -> "SampleParams":
        """Perfect mirror: equal reflection of both polarizations, no phase shift."""
        return cls(psi=np.pi / 4, delta=0.0)


@dataclass(frozen=True)
class ReflectionPair:
    """Amplitude reflection coefficients: r_p (H, in-plane) and r_s (V, out-of-plane)."""

    r_p: complex
    r_s: complex

    def __post_init__(self):
        for name in ("r_p", "r_s"):
            v = complex(getattr(self, name))
            if not (np.isfinite(v.real) and np.isfinite(v.imag)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class FilmStack:
    """Planar multilayer: ambient / layers (top to bottom) / substrate.

    layers is a sequence of (complex refractive index, thickness in meters);
    wavelength is the vacuum wavelength in meters.  Indices are stored in
    the e^{-i omega t} convention, Im(n) >= 0: n - i*kappa becomes n + i*kappa.
    """

    wavelength: float
    incidence_angle: float
    n_ambient: float
    layers: tuple
    n_substrate: complex

    def __post_init__(self):
        for name in ("wavelength", "incidence_angle", "n_ambient"):
            if not isinstance(getattr(self, name), numbers.Real):
                raise ValueError(f"{name} must be a real number, got {getattr(self, name)!r}")
        if not (np.isfinite(self.wavelength) and self.wavelength > 0):
            raise ValueError("wavelength must be positive")
        if not (0.0 <= self.incidence_angle < np.pi / 2):
            raise ValueError("incidence_angle must lie in [0, pi/2)")
        if not (np.isfinite(self.n_ambient) and self.n_ambient > 0):
            raise ValueError("n_ambient must be positive")
        try:
            pairs = [(n, d) for n, d in self.layers]
        except (TypeError, ValueError):  # a layer, or layers itself, that does not unpack into two
            raise ValueError("each layer must be an (index, thickness) pair") from None
        for _, d in pairs:
            if not (isinstance(d, numbers.Real) and np.isfinite(d) and d >= 0):
                raise ValueError("layer thicknesses must be finite and >= 0")
        object.__setattr__(self, "layers", tuple((_index(n, "layer indices"), float(d)) for n, d in pairs))
        object.__setattr__(self, "n_substrate", _index(self.n_substrate, "substrate index"))


def _index(n, name: str) -> complex:
    """A layer or substrate index as a complex with Im(n) >= 0; the stack's
    admittances divide by it."""
    if not isinstance(n, numbers.Number):
        raise ValueError(f"{name} must be a number, got {n!r}")
    n = complex(n)
    if not (np.isfinite(n.real) and np.isfinite(n.imag)) or n == 0:
        raise ValueError(f"{name} must be finite and non-zero")
    return n.conjugate() if n.imag < 0 else n


def _cos_transmitted(n: complex, sin_inc: float) -> complex:
    """Cosine of the propagation angle inside a medium of index n.

    Branch: Im(n cos) >= 0, so the transmitted wave decays into the
    medium; this also gives the evanescent decay beyond the critical
    angle of a lossless interface.
    """
    ct = np.sqrt(complex(1.0) - (sin_inc / n) ** 2)
    if (n * ct).imag < 0:
        ct = -ct
    return ct


def film_stack_reflectance(stack: FilmStack) -> ReflectionPair:
    """Characteristic-matrix reflection coefficients of the multilayer stack.

    Raises ValueError where a step overflows, divides by zero or gives NaN
    (an index so small that (sin / n)^2 overflows, an absorbing or
    evanescent layer thick enough that cos(phase) overflows), where numpy
    would only warn and carry inf or NaN on.
    """
    n_ambient, n_sub = stack.n_ambient, stack.n_substrate
    sin_inc = n_ambient * np.sin(stack.incidence_angle)
    cos_inc = np.cos(stack.incidence_angle)

    out = {}
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            cos_sub = _cos_transmitted(n_sub, sin_inc)
            for pol in ("s", "p"):
                if pol == "s":
                    eta0 = n_ambient * cos_inc
                    eta_sub = n_sub * cos_sub
                else:
                    eta0 = n_ambient / cos_inc
                    eta_sub = n_sub / cos_sub
                m = np.eye(2, dtype=complex)
                for n, d in stack.layers:
                    ct = _cos_transmitted(n, sin_inc)
                    phase = _TWO_PI * n * d * ct / stack.wavelength
                    eta = n * ct if pol == "s" else n / ct
                    c, s = np.cos(phase), np.sin(phase)
                    m = m @ np.array([[c, -1j * s / eta], [-1j * eta * s, c]])
                b, cc = m @ np.array([1.0, eta_sub])
                out[pol] = (eta0 * b - cc) / (eta0 * b + cc)
    except FloatingPointError as exc:
        raise ValueError(f"stack reflectance is not representable: {exc}") from exc
    # Admittance form gives r_p and r_s the same sign at normal incidence;
    # flip p to the opposite-sign convention documented above.
    return ReflectionPair(r_p=-out["p"], r_s=out["s"])


def fresnel_interface(n_ambient: float, n_substrate: complex, angle: float) -> ReflectionPair:
    """Amplitude reflection coefficients of a single ambient/substrate
    interface: a stack with no layers, where the wavelength drops out."""
    return film_stack_reflectance(FilmStack(1.0, angle, n_ambient, (), n_substrate))


def psi_delta_from_coeffs(pair: ReflectionPair) -> SampleParams:
    """Map reflection coefficients to (psi, delta).

    tan(psi) = |r_p|^2 / |r_s|^2 (intensity ratio), so beta = |r_p|/|r_s|;
    delta = arg(r_p) - arg(r_s) wrapped to (-pi, pi].
    """
    if pair.r_s == 0:
        raise ValueError("V-null sample: r_s = 0, psi/delta undefined")
    if pair.r_p == 0:
        raise ValueError("degenerate: psi=0, delta undefined (r_p = 0)")
    beta = abs(pair.r_p) / abs(pair.r_s)
    delta = wrap_phase(np.angle(pair.r_p) - np.angle(pair.r_s))
    return SampleParams(psi=float(np.arctan(beta * beta)), delta=delta)
