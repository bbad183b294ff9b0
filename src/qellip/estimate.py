"""Recovery of (C, psi, delta) from coincidence count data.

Two estimators are provided:

  * the three-angle closed form — with the idler analyzer fixed at 45 deg,
    rates at signal angles 0/45/90 deg determine all three parameters.
    Scaling every rate by a common factor k leaves psi and delta untouched
    and scales C by k, which is what makes the scheme self-calibrating.
    three_angle_from_counts takes count records (any dwell, accidentals and
    visibility from the detector model); three_angle_invert takes three
    rates, as counts in a 1 s dwell at visibility 1.
  * least_squares_fit — Poisson maximum likelihood over an arbitrary plan,
    parameterized internally in (log C, log beta, delta) so positivity
    needs no constraint handling.

Both report the inverse observed Fisher information over (C, psi, delta),
from the exact Hessian of the Poisson negative log-likelihood: inside its
domain the closed form reproduces the three counts exactly, so it is the
maximum-likelihood point of those counts.

Both fail the same way.  ValueError: the counts admit no estimate (a null,
visibility 0, an unidentifiable plan, non-finite rates, no counts).
FitError: an estimate exists but is not trusted, and the error carries it;
both estimators raise it where the covariance is not finite.

Only |delta| is identifiable: the rate depends on delta through cos(delta)
alone, so estimates report delta_mag_hat in [0, pi].
"""

import math
from dataclasses import dataclass

import numpy as np

from .experiment import DetectorModel, analyzer_terms, mean_counts, record_columns

_COS_OVERSHOOT = 0.05  # tolerated |cos delta| excess before flagging
ANGLE_TOL_DEG = 1e-6  # how far a row's analyzer angle may sit from a three-angle setting
_THREE_ANGLE_THETA1_DEG = (0.0, 45.0, 90.0)  # the three-angle settings: these signal angles,
_THREE_ANGLE_THETA2_DEG = 45.0  # each with the idler analyzer at this angle
_THREE_ANGLE_TERMS = analyzer_terms(np.radians(_THREE_ANGLE_THETA1_DEG), math.radians(_THREE_ANGLE_THETA2_DEG))
_UNIT_DETECTOR = DetectorModel()  # three_angle_invert's rates: no accidentals, visibility 1
_MAX_ITERATIONS = 500  # trial Newton steps before the fit gives up
_DECREMENT_TOL = 1e-6  # Newton decrement at an accepted optimum: within 1e-3 sigma of it
_EIG_CUTOFF = 1e-15  # Hessian eigenvalues up to this times max|w| count as 0, as in numpy's pseudo-inverse


@dataclass(frozen=True)
class EllipsometricEstimate:
    """Recovered rate constant and ellipsometric angles, with 3x3 covariance
    over (C, psi, delta)."""

    C_hat: float
    psi_hat: float
    delta_mag_hat: float
    covariance: np.ndarray
    method: str
    warnings: tuple = ()

    def __post_init__(self):
        cov = np.array(self.covariance, dtype=float)
        if cov.shape != (3, 3):
            raise ValueError("covariance must be 3x3")
        cov.setflags(write=False)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "warnings", tuple(self.warnings))

    @property
    def beta_hat(self) -> float:
        return float(np.sqrt(np.tan(self.psi_hat)))


class FitError(RuntimeError):
    """Raised where an estimate exists but is not trusted; carries it."""

    def __init__(self, message: str, estimate: EllipsometricEstimate):
        super().__init__(message)
        self.estimate = estimate


def _trusted(estimate: EllipsometricEstimate) -> EllipsometricEstimate:
    """estimate, or FitError carrying it where its covariance is not finite."""
    if not np.isfinite(estimate.covariance).all():
        raise FitError("covariance is not finite", estimate=estimate)
    return estimate


def _three_angle(k, dur, det: DetectorModel) -> EllipsometricEstimate:
    """Closed form from counts k over dwells dur at theta1 = 0, 45, 90 deg
    with theta2 = 45 deg.  With accidental-subtracted rates r = max(k/t - A, 0):

      C = 2 * r_90
      tan(psi) = beta^2 = r_0 / r_90
      V cos(delta) = (2*r_45 - r_0 - r_90) / (2*sqrt(r_0*r_90))

    Where |cos delta| < 1 the model then reproduces the three counts exactly,
    so this is the Poisson maximum-likelihood point and its covariance is
    the inverse observed information, as for least_squares_fit.  Raises
    ValueError where a rate k/t - A, or C, is not finite, and FitError
    where the covariance is not finite.
    """
    with np.errstate(all="ignore"):
        rates = k / dur - det.accidental_rate
        rate_0, rate_45, rate_90 = np.maximum(rates, 0.0)
        x, c = rate_0 / rate_90, 2.0 * rate_90
        if not (np.isfinite(rates).all() and np.isfinite(c)):
            raise ValueError("three-angle inversion: rates must be finite")
        if not 0 < x < np.inf:  # a null, or a ratio that under- or overflows
            raise ValueError("eigenpolarization null: three-angle inversion undefined")
        if det.visibility == 0.0:
            raise ValueError("unidentifiable: delta does not enter the rate at visibility 0")
        y = rate_45 / rate_90
        cos_d = (2.0 * y - x - 1.0) / (2.0 * np.sqrt(x)) / det.visibility
        warnings = ()
        if abs(cos_d) > 1.0 + _COS_OVERSHOOT:
            warnings = ("inconsistent rates",)
        delta = float(np.arccos(min(max(cos_d, -1.0), 1.0)))
        u = np.array([np.log(c), 0.5 * np.log(x), delta])
        _, grad, hess = _nll_derivatives(u, _THREE_ANGLE_TERMS, dur, k, det)
        cov = _at_optimum(u, grad, hess)[0]
        if cov[2, 2] * hess[2, 2] < 0.5:
            # Were the delta direction kept, var * information would be >= 1. It
            # falls under the eigenvalue cutoff where delta carries no information
            # (|cos delta| = 1, or within rounding): report the widest spread on [0, pi].
            # The NaN covariance of a non-finite Hessian fails the test and stays NaN.
            cov[2, 2] = np.pi**2 / 4
    return _trusted(EllipsometricEstimate(C_hat=float(c), psi_hat=float(np.arctan(x)), delta_mag_hat=delta,
                                          covariance=cov, method="three_angle", warnings=warnings))


def three_angle_invert(rate_0: float, rate_45: float, rate_90: float) -> EllipsometricEstimate:
    """Closed-form inversion from accidental-subtracted (finite,
    non-negative) rates at theta1 = 0, 45, 90 deg with theta2 = 45 deg,
    taken as counts in a 1 s dwell at visibility 1.

    psi and delta are computed from the rate ratios only, so a common
    scale factor on all three inputs cannot move them.  Raises ValueError
    where no estimate exists (a null, a non-finite rate) and FitError,
    carrying the estimate, where its covariance is not finite.
    """
    if min(rate_0, rate_45, rate_90) < 0:
        raise ValueError("three-angle inversion: rates must be non-negative")
    return _three_angle(np.array([rate_0, rate_45, rate_90], dtype=float), 1.0, _UNIT_DETECTOR)


def three_angle_from_counts(records, det: DetectorModel) -> EllipsometricEstimate:
    """Three-angle closed form from count records.

    Counts and dwell are summed over the rows at theta1 = 0, 45, 90 deg with
    theta2 = 45 deg (to within ANGLE_TOL_DEG); other rows are ignored.
    Accidentals are subtracted and the interference term divided by the
    visibility, both taken from `det`.  Raises LookupError when a setting
    has no rows, ValueError at an eigenpolarization null or visibility 0,
    and FitError, carrying the estimate, where its covariance is not finite.
    """
    t1, t2, dur, k = record_columns(records)
    t1_deg = np.degrees(t1)
    at_theta2 = np.abs(np.degrees(t2) - _THREE_ANGLE_THETA2_DEG) <= ANGLE_TOL_DEG
    k3, dur3 = np.zeros(3), np.zeros(3)
    for i, target in enumerate(_THREE_ANGLE_THETA1_DEG):
        rows = at_theta2 & (np.abs(t1_deg - target) <= ANGLE_TOL_DEG)
        if not rows.any():
            raise LookupError(
                "three-angle method needs rows at theta1 = 0/45/90 deg with theta2 = 45 deg; "
                f"missing theta1 = {target:g} deg"
            )
        k3[i], dur3[i] = k[rows].sum(), dur[rows].sum()
    return _three_angle(k3, dur3, det)


def subtract_accidentals(records, det: DetectorModel) -> list:
    """Convert counts to accidental-subtracted rates k/t - A, floored at zero.
    They carry no visibility: three_angle_invert on them reads Delta at V = 1,
    whatever det.visibility is; three_angle_from_counts(records, det) applies V."""
    out = []
    for rec in records:
        rate = max(rec.counts / rec.duration - det.accidental_rate, 0.0)
        out.append((rec.theta1, rec.theta2, rate))
    return out


def fit_negative_log_likelihood(u, records, det: DetectorModel):
    """Poisson negative log-likelihood and its gradient.

    u = (log C, log beta, delta).  The fringe visibility is taken from
    `det`.  It is offset by a constant so that it is 0 where every record's
    mean equals its count (it is half the Poisson deviance): near the
    optimum its value is then of the order of the number of records, not of
    the counts, and a change of 1e-6 in it is not lost to rounding.
    """
    t1, t2, dur, k = record_columns(records)
    with np.errstate(all="ignore"):
        nll, grad, _ = _nll_derivatives(np.asarray(u, dtype=float), analyzer_terms(t1, t2), dur, k, det)
    return nll, grad


def _nll_derivatives(u, terms, dur, k, det: DetectorModel):
    """NLL, gradient and exact Hessian in u = (log C, log beta, delta), from
    one pass over the records.

    `terms` is the (3, n) array T of `analyzer_terms`; mu = (C s + A) t with
    s = rate_shape.  The rows g = (s, b ds/db, ds/ddelta) = M T are linear in
    T, and so are the second derivatives b d(b ds/db)/db = g_1 + 2 b^2 a,
    b d2s/db ddelta = g_2 and d2s/ddelta2 = -2 V b cos(delta) cross.  With the
    weights w = (1 - k/mu) C t and q = k (C t / mu)^2, grad = M (T w) and
    hess = (g q) g^T plus those second derivatives summed against w.

    A non-finite NLL comes back as 1e300, so a step there never wins, and a
    non-finite gradient entry as 0 or +-1e300.  Call it under
    np.errstate(all="ignore").
    """
    try:
        c, b = math.exp(u[0]), math.exp(u[1])
        cos_d, sin_d = math.cos(u[2]), math.sin(u[2])
    except (OverflowError, ValueError):  # C or beta overflows, or delta is infinite
        return 1e300, np.zeros(3), np.full((3, 3), np.nan)
    b2, x = b * b, 2.0 * det.visibility * b * cos_d
    m = np.array([[b2, 1.0, x], [2.0 * b2, 0.0, x], [0.0, 0.0, -2.0 * det.visibility * b * sin_d]])

    mu = mean_counts(terms, dur, c, b, u[2], det)
    mu_safe = np.maximum(mu, 1e-300)
    nll = float((mu - k - k * np.log(mu_safe / np.maximum(k, 1))).sum())
    cd = c * dur
    e = cd / mu_safe
    ke = k * e
    tw = terms @ (cd - ke)
    g = m @ terms
    grad = m @ tw
    g0, g1, g2 = grad.tolist()
    second = np.array([[g0, g1, g2], [g1, g1 + 2.0 * b2 * tw[0], g2], [g2, g2, -x * tw[2]]])
    hess = (g * (ke * e)) @ g.T + second
    if not math.isfinite(nll):
        nll = 1e300
    if not math.isfinite(g0 + g1 + g2):
        grad = np.nan_to_num(grad, nan=0.0, posinf=1e300, neginf=-1e300)
    return nll, grad, hess


def _linear_seed(terms, dur, k, det: DetectorModel) -> np.ndarray:
    """Seed u = (log C, log beta, delta) from the linear model of the counts.

    The rate is linear in x = (C beta^2, C, 2 C V beta cos delta) over the
    three analyzer terms, so one least-squares solve of k - A t on the
    dwell-weighted terms gives x, and its rank says whether the plan
    separates the terms at all (same tolerance as matrix_rank).
    """
    if not k.sum() > 0:
        raise ValueError("cannot seed fit: no counts")
    design = terms.T * dur[:, None]
    x, _, rank, _ = np.linalg.lstsq(design, k - det.accidental_rate * dur, rcond=None)
    if rank < 3:
        raise ValueError("unidentifiable: the plan's analyzer settings cannot separate the rate terms")
    if det.visibility == 0.0:
        raise ValueError("unidentifiable: delta does not enter the rate at visibility 0")
    # Each polarization at >= 1 % of the larger (or of the mean rate, when
    # accidentals swamp both), so psi starts within [0.6, 89.4] deg and C on
    # the scale of the counts: the likelihood goes flat as either runs to 0.
    cb2, c = np.maximum(x[:2], 1e-2 * max(x[0], x[1], k.sum() / dur.sum()))
    cos_d = x[2] / (2.0 * np.sqrt(cb2 * c) * det.visibility)
    # Not near delta = 0 or pi: d nll/d delta goes as sin delta there.
    delta = min(max(np.arccos(min(max(cos_d, -1.0), 1.0)), np.pi / 12), 11 * np.pi / 12)
    u = np.array([np.log(c), 0.5 * np.log(cb2 / c), delta])
    if not np.isfinite(u).all():  # e.g. A t overflows
        raise ValueError("cannot seed fit: the linear model of the counts is not finite")
    return u


def _at_optimum(u, grad, hess):
    """Covariance over (C, psi, delta) and Newton decrement at the optimum u,
    from one eigendecomposition (w, V) of the NLL's Hessian H in u.  The
    covariance is S S^T with S = J V / sqrt(w) over w > _EIG_CUTOFF max|w|
    and J = d(C, psi, delta)/du = diag(C, sin 2psi, 1) (its gradient term is
    0 at an optimum): J H^+ J where H is PSD, with the negative directions of
    an indefinite H (a model that does not fit the counts) dropped before J.
    The decrement is sum (v^T grad)^2 / |w| over |w| > _EIG_CUTOFF max|w|.
    A non-finite H gives a NaN covariance and an infinite decrement."""
    if not np.isfinite(hess).all():
        return np.full((3, 3), np.nan), np.inf
    w, v = np.linalg.eigh(hess)
    cutoff = _EIG_CUTOFF * np.abs(w).max()
    jac = np.array([np.exp(u[0]), 1.0 / np.cosh(2.0 * u[1]), 1.0])
    kept = w > cutoff
    s = jac[:, None] * v[:, kept] / np.sqrt(w[kept])
    nonzero = np.abs(w) > cutoff
    return s @ s.T, ((v.T @ grad)[nonzero] ** 2 / np.abs(w[nonzero])).sum()


def _damped_newton(u, terms, dur, k, det: DetectorModel):
    """Damped Newton steps on the exact Hessian from u; returns the last
    accepted u, the (nll, grad, hess) of _nll_derivatives there, and why the
    steps stopped.

    A trial step is -V diag(1 / (|w| + lam)) V^T g over the eigenpairs
    (w, V) of the Hessian: |w| keeps it a descent direction where the
    Hessian is indefinite, and the Levenberg damping lam grows while trial
    steps fail to lower the NLL (a non-finite one never does) and shrinks
    once one does.  Each trial point is evaluated once.  The steps end where
    the quadratic model predicts a fall too small to change the NLL
    (f + pred >= f), at a non-finite Hessian, or after _MAX_ITERATIONS trial
    steps; the caller judges the point by its Newton decrement.  Call it
    under np.errstate(all="ignore").
    """
    best = f, g, hess = _nll_derivatives(u, terms, dur, k, det)
    lam, w = 0.0, None
    for _ in range(_MAX_ITERATIONS):
        if w is None:
            if not np.isfinite(hess).all():
                return u, best, "non-finite Hessian"
            w, v = np.linalg.eigh(hess)
        gv = v.T @ g
        step = gv / (np.abs(w) + lam)
        pred = step @ (0.5 * w * step - gv)  # g.p + p.H.p / 2 at p = -V step
        if f + pred >= f:
            return u, best, "the predicted fall in the NLL is below its rounding"
        trial = u - v @ step
        evaluated = _nll_derivatives(trial, terms, dur, k, det)
        if evaluated[0] < f:
            u, best, w = trial, evaluated, None
            f, g, hess = best
            lam *= 0.25
        else:
            lam = max(4.0 * lam, 1e-3 * np.abs(w).max())
    return u, best, f"no convergence in {_MAX_ITERATIONS} steps"


def least_squares_fit(
    records,
    det: DetectorModel,
    init: EllipsometricEstimate | None = None,
) -> EllipsometricEstimate:
    """Poisson maximum-likelihood fit of (C, beta, delta) to count records.

    The fringe visibility is taken from `det`: V enters the rate only as
    V cos(delta), so it cannot be fitted alongside delta.

    Seeded from the linear model of the counts (or from `init`), stepped
    by _damped_newton on the exact Hessian, and accepted when the Newton
    decrement of _at_optimum is at most _DECREMENT_TOL; the covariance is
    _at_optimum's there.
    Raises FitError (carrying the best iterate) on non-convergence, when
    psi runs to 0 or 90 deg, where one polarization adds under one
    expected count and the covariance means nothing, and where the
    covariance is not finite; raises ValueError on no counts, a non-finite
    linear seed, unidentifiable plans and at visibility 0.
    """
    t1, t2, dur, k = record_columns(records)
    return _fit(analyzer_terms(t1, t2), dur, k, det, init)


def _fit(terms, dur, k, det: DetectorModel, init=None) -> EllipsometricEstimate:
    """least_squares_fit (see its docstring) on the (3, n) analyzer terms, dwells and float counts."""
    with np.errstate(all="ignore"):
        u0 = _linear_seed(terms, dur, k, det)  # also the identifiability checks
        if init is not None:
            beta0 = max(init.beta_hat, 1e-6)
            u0 = np.array([np.log(max(init.C_hat, 1e-12)), np.log(beta0), init.delta_mag_hat])
        u, (_, grad, hess), stop = _damped_newton(u0, terms, dur, k, det)
        delta = float(np.arccos(min(max(np.cos(u[2]), -1.0), 1.0)))
        if delta != u[2]:  # re-evaluated where folding onto [0, pi] moved it
            u = np.array([u[0], u[1], delta])
            _, grad, hess = _nll_derivatives(u, terms, dur, k, det)
        covariance, decrement = _at_optimum(u, grad, hess)

    c_hat = float(np.exp(u[0]))
    beta = float(np.exp(u[1]))
    psi = float(np.arctan(beta * beta))
    estimate = EllipsometricEstimate(C_hat=c_hat, psi_hat=psi, delta_mag_hat=delta, covariance=covariance,
                                     method="least_squares")
    if not decrement <= _DECREMENT_TOL:
        raise FitError(f"fit did not converge: {stop}", estimate=estimate)
    a, bb, _ = terms
    if not (min(beta * beta * np.dot(a, dur), np.dot(bb, dur)) * c_hat >= 1.0):
        msg = f"psi ran to {np.degrees(psi):.6g} deg: one polarization adds under one expected count"
        raise FitError(msg, estimate=estimate)
    return _trusted(estimate)
