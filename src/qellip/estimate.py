"""Recovery of (C, psi, delta) from coincidence count data.

Two estimators are provided:

  * three_angle_invert — the closed-form protocol: with the idler analyzer
    fixed at 45 deg, rates at signal angles 0/45/90 deg determine all three
    parameters.  Scaling every rate by a common factor k leaves psi and
    delta untouched and scales C by k, which is what makes the scheme
    self-calibrating.
  * least_squares_fit — Poisson maximum likelihood over an arbitrary plan,
    parameterized internally in (log C, log beta, delta) so positivity
    needs no constraint handling.

Only |delta| is identifiable: the rate depends on delta through cos(delta)
alone, so estimates report delta_mag_hat in [0, pi].
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .experiment import DetectorModel, analyzer_terms, rate_shape, record_columns

_COS_OVERSHOOT = 0.05  # tolerated |cos delta| excess before flagging


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


def three_angle_invert(rate_0: float, rate_45: float, rate_90: float) -> EllipsometricEstimate:
    """Closed-form inversion from accidental-subtracted rates at
    theta1 = 0, 45, 90 deg with theta2 = 45 deg.

      C = 2 * rate_90
      tan(psi) = beta^2 = rate_0 / rate_90
      cos(delta) = (2*rate_45 - rate_0 - rate_90) / (2*sqrt(rate_0*rate_90))

    psi and delta are computed from the rate ratios only, so a common
    scale factor on all three inputs cannot move them.
    """
    if not (rate_0 > 0 and rate_90 > 0) or rate_45 < 0:
        raise ValueError("eigenpolarization null: three-angle inversion undefined")
    x = rate_0 / rate_90
    y = rate_45 / rate_90
    c_hat = 2.0 * rate_90
    beta2 = x
    cos_d = (2.0 * y - x - 1.0) / (2.0 * np.sqrt(x))
    warnings = ()
    if abs(cos_d) > 1.0 + _COS_OVERSHOOT:
        warnings = ("inconsistent rates",)
    cos_d = float(np.clip(cos_d, -1.0, 1.0))
    delta = float(np.arccos(cos_d))
    psi = float(np.arctan(beta2))

    # Delta-method covariance assuming unit-time Poisson rates (var = rate).
    n0, n45, n90 = rate_0, rate_45, rate_90
    root = np.sqrt(n0 * n90)
    u = cos_d
    du = np.array(
        [
            -1.0 / (2.0 * root) - u / (2.0 * n0),
            1.0 / root,
            -1.0 / (2.0 * root) - u / (2.0 * n90),
        ]
    )
    sin_d = max(np.sqrt(max(1.0 - u * u, 0.0)), 1e-6)
    jac = np.array(
        [
            [0.0, 0.0, 2.0],
            [1.0 / ((1.0 + beta2**2) * n90), 0.0, -n0 / ((1.0 + beta2**2) * n90**2)],
            -du / sin_d,
        ]
    )
    cov = _psd_covariance(jac @ np.diag([n0, n45, n90]) @ jac.T)
    return EllipsometricEstimate(
        C_hat=c_hat,
        psi_hat=psi,
        delta_mag_hat=delta,
        covariance=cov,
        method="three_angle",
        warnings=warnings,
    )


def choose_theta2(beta_guess: float) -> float:
    """Idler analyzer angle that balances the two non-interference rate terms.

    atan(1/beta) makes beta^2 cos^2 sin^2 and sin^2 cos^2 equal at
    theta1 = 45 deg; useful when beta is far from 1.
    """
    if not (np.isfinite(beta_guess) and beta_guess > 0):
        raise ValueError("beta_guess must be positive")
    return float(np.arctan2(1.0, beta_guess))


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
        shape, ds_db, ds_dd = rate_shape(terms, b, delta, det.visibility, jacobian=True)
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
    deltas = np.linspace(0.0, np.pi, 13)
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


def _fisher_covariance(terms, dur, k, det, c_hat, psi_hat, delta_hat):
    """Inverse observed Fisher information over (C, psi, delta) by central
    second differences of the negative log-likelihood."""

    def nll_cpd(c, psi, delta):
        psi = np.clip(psi, 1e-12, np.pi / 2 - 1e-12)
        u = [np.log(max(c, 1e-300)), 0.5 * np.log(np.tan(psi)), delta]
        return _nll_and_grad(np.array(u), terms, dur, k, det)[0]

    x0 = np.array([c_hat, psi_hat, delta_hat])
    h = np.array([1e-4 * max(abs(c_hat), 1e-6), 1e-5, 1e-5])
    hess = np.empty((3, 3))
    f0 = nll_cpd(*x0)
    for i in range(3):
        for j in range(i, 3):
            ei = np.zeros(3)
            ej = np.zeros(3)
            ei[i] = h[i]
            ej[j] = h[j]
            if i == j:
                val = (nll_cpd(*(x0 + ei)) - 2.0 * f0 + nll_cpd(*(x0 - ei))) / h[i] ** 2
            else:
                val = (
                    nll_cpd(*(x0 + ei + ej))
                    - nll_cpd(*(x0 + ei - ej))
                    - nll_cpd(*(x0 - ei + ej))
                    + nll_cpd(*(x0 - ei - ej))
                ) / (4.0 * h[i] * h[j])
            hess[i, j] = hess[j, i] = val
    return _psd_covariance(np.linalg.pinv(0.5 * (hess + hess.T)))


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
    ValueError on unidentifiable plans.
    """
    opts = opts or FitOptions()
    records = list(records)
    if len(records) < 3:
        raise ValueError("need at least 3 records")
    if len({(r.theta1, r.theta2) for r in records}) < 3:
        raise ValueError("unidentifiable: too few distinct analyzer settings")

    t1, t2, dur, k = record_columns(records)
    terms = analyzer_terms(t1, t2)

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

    cov = _fisher_covariance(terms, dur, k, det, c_hat, psi, delta)
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
