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

Only |delta| is identifiable: the rate depends on delta through cos(delta)
alone, so estimates report delta_mag_hat in [0, pi].
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .experiment import DetectorModel, analyzer_terms, rate_shape, record_columns

_COS_OVERSHOOT = 0.05  # tolerated |cos delta| excess before flagging
ANGLE_TOL_DEG = 1e-6  # how far a row's analyzer angle may sit from a three-angle setting
_THREE_ANGLE_TERMS = analyzer_terms(np.radians([0.0, 45.0, 90.0]), np.pi / 4)


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


@dataclass(frozen=True)
class FitOptions:
    max_iterations: int = 500
    gradient_tolerance: float = 1e-10

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (self.gradient_tolerance > 0):
            raise ValueError("gradient_tolerance must be positive")


class FitError(RuntimeError):
    """Raised when the fit gives no usable estimate; carries the best iterate."""

    def __init__(self, message: str, estimate: EllipsometricEstimate | None = None):
        super().__init__(message)
        self.estimate = estimate


def _psd_covariance(cov: np.ndarray) -> np.ndarray:
    """Symmetrize and clip tiny negative eigenvalues from numerical noise."""
    cov = 0.5 * (cov + cov.T)
    w, v = np.linalg.eigh(cov)
    w = np.clip(w, 0.0, None)
    return 0.5 * ((v * w) @ v.T + ((v * w) @ v.T).T)


def _three_angle(k, dur, det: DetectorModel) -> EllipsometricEstimate:
    """Closed form from counts k over dwells dur at theta1 = 0, 45, 90 deg
    with theta2 = 45 deg.  With accidental-subtracted rates r = max(k/t - A, 0):

      C = 2 * r_90
      tan(psi) = beta^2 = r_0 / r_90
      V cos(delta) = (2*r_45 - r_0 - r_90) / (2*sqrt(r_0*r_90))

    Where |cos delta| < 1 the model then reproduces the three counts exactly,
    so this is the Poisson maximum-likelihood point and its covariance is
    the inverse observed information, as for least_squares_fit.
    """
    rate_0, rate_45, rate_90 = np.maximum(k / dur - det.accidental_rate, 0.0)
    if not (rate_0 > 0 and rate_90 > 0):
        raise ValueError("eigenpolarization null: three-angle inversion undefined")
    if det.visibility == 0.0:
        raise ValueError("unidentifiable: delta does not enter the rate at visibility 0")
    x = rate_0 / rate_90
    y = rate_45 / rate_90
    cos_d = (2.0 * y - x - 1.0) / (2.0 * np.sqrt(x)) / det.visibility
    warnings = ()
    if abs(cos_d) > 1.0 + _COS_OVERSHOOT:
        warnings = ("inconsistent rates",)
    delta = float(np.arccos(np.clip(cos_d, -1.0, 1.0)))
    u = np.array([np.log(2.0 * rate_90), 0.5 * np.log(x), delta])
    hess = _nll_hessian(u, _THREE_ANGLE_TERMS, dur, k, det)
    cov = _fisher_covariance(u, hess)
    if not cov[2, 2] * hess[2, 2] >= 0.5:
        # Were the delta direction kept, var * information would be >= 1.
        # pinv drops it where delta carries no information (|cos delta| = 1,
        # or within rounding of it): report the widest spread on [0, pi].
        cov[2, 2] = np.pi**2 / 4
    return EllipsometricEstimate(
        C_hat=float(2.0 * rate_90),
        psi_hat=float(np.arctan(x)),
        delta_mag_hat=delta,
        covariance=cov,
        method="three_angle",
        warnings=warnings,
    )


def three_angle_invert(rate_0: float, rate_45: float, rate_90: float) -> EllipsometricEstimate:
    """Closed-form inversion from accidental-subtracted rates at
    theta1 = 0, 45, 90 deg with theta2 = 45 deg, taken as counts in a 1 s
    dwell at visibility 1.

    psi and delta are computed from the rate ratios only, so a common
    scale factor on all three inputs cannot move them.
    """
    if rate_45 < 0:
        raise ValueError("eigenpolarization null: three-angle inversion undefined")
    return _three_angle(np.array([rate_0, rate_45, rate_90], dtype=float), 1.0, DetectorModel())


def three_angle_from_counts(records, det: DetectorModel) -> EllipsometricEstimate:
    """Three-angle closed form from count records.

    Counts and dwell are summed over the rows at theta1 = 0, 45, 90 deg with
    theta2 = 45 deg (to within ANGLE_TOL_DEG); other rows are ignored.
    Accidentals are subtracted and the interference term divided by the
    visibility, both taken from `det`.  Raises LookupError when a setting
    has no rows, ValueError at an eigenpolarization null or visibility 0.
    """
    t1, t2, dur, k = record_columns(records)
    at_45 = np.abs(np.degrees(t2) - 45.0) <= ANGLE_TOL_DEG
    k3, dur3 = np.zeros(3), np.zeros(3)
    for i, target in enumerate((0.0, 45.0, 90.0)):
        rows = at_45 & (np.abs(np.degrees(t1) - target) <= ANGLE_TOL_DEG)
        if not rows.any():
            raise LookupError(
                "three-angle method needs rows at theta1 = 0/45/90 deg with theta2 = 45 deg; "
                f"missing theta1 = {target:g} deg"
            )
        k3[i], dur3[i] = k[rows].sum(), dur[rows].sum()
    return _three_angle(k3, dur3, det)


def subtract_accidentals(records, det: DetectorModel) -> list:
    """Convert counts to accidental-subtracted rates, floored at zero."""
    out = []
    for rec in records:
        rate = max(rec.counts / rec.duration - det.accidental_rate, 0.0)
        out.append((rec.theta1, rec.theta2, rate))
    return out


def fit_negative_log_likelihood(u, records, det: DetectorModel):
    """Poisson negative log-likelihood and its gradient.

    u = (log C, log beta, delta).  The fringe visibility is taken from
    `det`.  The constant sum(log k!) term is dropped.
    """
    t1, t2, dur, k = record_columns(records)
    return _nll_and_grad(np.asarray(u, dtype=float), analyzer_terms(t1, t2), dur, k, det)


def _nll_and_grad(u, terms, dur, k, det: DetectorModel):
    log_c, log_b, delta = u[0], u[1], u[2]
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.exp(log_c)
        b = np.exp(log_b)
        shape, ds_db, ds_dd = rate_shape(terms, b, delta, det.visibility, order=1)
        mu = (c * shape + det.accidental_rate) * dur
        mu_safe = np.maximum(mu, 1e-300)

        nll = float(np.sum(mu - k * np.log(mu_safe)))
        w = 1.0 - k / mu_safe  # d nll / d mu
        grad = np.array(
            [
                np.sum(w * (c * shape * dur)),
                np.sum(w * (c * b * ds_db * dur)),
                np.sum(w * (c * ds_dd * dur)),
            ]
        )
    if not np.isfinite(nll):
        nll = 1e300
    return nll, np.nan_to_num(grad, nan=0.0, posinf=1e300, neginf=-1e300)


def _grid_init(terms, dur, k, det: DetectorModel) -> np.ndarray:
    """Coarse (beta, delta) grid seed; C from the zero-accidental closed form.

    One beta at a time against all deltas, so the largest temporary is
    (deltas x records), never (grid x records).
    """
    total = float(np.sum(k))
    # Not delta = 0 or pi: d nll/d delta goes as sin delta, so BFGS never leaves them.
    deltas = np.linspace(0.0, np.pi, 13)[1:-1]
    best = (np.inf,)
    for b in np.logspace(-1.0, 1.0, 15):
        shape = rate_shape(terms, b, deltas[:, None], det.visibility)
        denom = np.sum(shape * dur, axis=1)
        ok = (denom > 0) & (total > 0)
        c = np.divide(total, denom, out=np.zeros_like(denom), where=ok)
        mu = np.maximum((c[:, None] * shape + det.accidental_rate) * dur, 1e-300)
        nll = np.where(ok, np.sum(mu - k * np.log(mu), axis=1), np.inf)
        j = int(np.argmin(nll))
        if nll[j] < best[0]:
            best = (nll[j], np.log(c[j]), np.log(b), deltas[j])
    if not np.isfinite(best[0]):
        raise FitError("cannot seed fit: no counts or degenerate plan")
    return np.array(best[1:])


def _nll_hessian(u, terms, dur, k, det: DetectorModel) -> np.ndarray:
    """Exact Hessian of the negative log-likelihood in u = (log C, log beta, delta):
    sum of (1 - k/mu) d2mu/du2 + (k/mu^2) dmu/du dmu/du^T over the records."""
    with np.errstate(over="ignore", invalid="ignore"):
        c, b = np.exp(u[0]), np.exp(u[1])
        s, s_b, s_d, s_bb, s_bd, s_dd = rate_shape(terms, b, u[2], det.visibility, order=2)
        mu = np.maximum((c * s + det.accidental_rate) * dur, 1e-300)
        g = np.array([s, b * s_b, s_d])  # dmu/du = C t g, d2mu/du2 = C t gg
        gg = np.array([g, [g[1], g[1] + b * b * s_bb, b * s_bd], [s_d, b * s_bd, s_dd]])
        cd, r = c * dur, k / mu
        return gg @ ((1.0 - r) * cd) + (g * (r / mu * cd * cd)) @ g.T


def _fisher_covariance(u, hess) -> np.ndarray:
    """Inverse observed Fisher information over (C, psi, delta) at the optimum u,
    from the `_nll_hessian` there mapped by J = d(C, psi, delta)/du =
    diag(C, sin 2psi, 1).  The gradient term of the change of coordinates is
    dropped; it is 0 there."""
    jac = np.array([np.exp(u[0]), 1.0 / np.cosh(2.0 * u[1]), 1.0])
    return _psd_covariance(np.outer(jac, jac) * np.linalg.pinv(hess))


def least_squares_fit(
    records,
    det: DetectorModel,
    init: EllipsometricEstimate | None = None,
    opts: FitOptions | None = None,
) -> EllipsometricEstimate:
    """Poisson maximum-likelihood fit of (C, beta, delta) to count records.

    The fringe visibility is taken from `det`: V enters the rate only as
    V cos(delta), so it cannot be fitted alongside delta.

    The covariance is the inverse observed Fisher information over
    (C, psi, delta).  Raises FitError (carrying the best iterate) on
    non-convergence or when psi runs to 0 or 90 deg, where one polarization
    adds under one expected count and the covariance means nothing; raises
    ValueError on unidentifiable plans and at visibility 0.
    """
    opts = opts or FitOptions()
    t1, t2, dur, k = record_columns(records)
    terms = analyzer_terms(t1, t2)
    # The rate is linear in (C beta^2, C, C V beta cos delta) over the three
    # terms, so the plan identifies them exactly when the terms have rank 3.
    if np.linalg.matrix_rank(np.column_stack(terms)) < 3:
        raise ValueError("unidentifiable: the plan's analyzer settings cannot separate the rate terms")
    if det.visibility == 0.0:
        raise ValueError("unidentifiable: delta does not enter the rate at visibility 0")

    if init is not None:
        beta0 = max(init.beta_hat, 1e-6)
        u0 = np.array([np.log(max(init.C_hat, 1e-12)), np.log(beta0), init.delta_mag_hat])
    else:
        u0 = _grid_init(terms, dur, k, det)

    res = minimize(
        _nll_and_grad,
        u0,
        args=(terms, dur, k, det),
        jac=True,
        method="BFGS",
        options={"maxiter": opts.max_iterations, "gtol": opts.gradient_tolerance},
    )

    c_hat = float(np.exp(res.x[0]))
    beta = float(np.exp(res.x[1]))
    delta = float(np.arccos(np.clip(np.cos(res.x[2]), -1.0, 1.0)))
    psi = float(np.arctan(beta * beta))

    u = np.array([res.x[0], res.x[1], delta])
    cov = _fisher_covariance(u, _nll_hessian(u, terms, dur, k, det))
    estimate = EllipsometricEstimate(
        C_hat=c_hat,
        psi_hat=psi,
        delta_mag_hat=delta,
        covariance=cov,
        method="least_squares",
    )
    grad_ok = np.max(np.abs(res.jac)) <= 1e-5 * max(1.0, abs(res.fun))
    if not (res.success or grad_ok):
        raise FitError(f"fit did not converge: {res.message}", estimate=estimate)
    a, bb, _ = terms
    if not (min(beta * beta * np.dot(a, dur), np.dot(bb, dur)) * c_hat >= 1.0):
        msg = f"psi ran to {np.degrees(psi):.6g} deg: one polarization adds under one expected count"
        raise FitError(msg, estimate=estimate)
    return estimate
