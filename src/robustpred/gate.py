"""Outlier region over the missing block z and the logistic gate.

The region collects the tails of z under the Mahalanobis-type quadratic form
built from the training second moment of z; its probability mass is at most
alpha by a Chebyshev-type bound. The gate models the conditional outlier
probability as a logistic function of the scalar statistic delta(x), the
Mahalanobis norm of the regression-imputed z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import ShapeError, ValidationError, _as_rows
from .predictors import Imputer

MAX_GATE_PARAM = 1e3
GATE_GRAD_TOL = 1e-8
GATE_MAX_ITER = 500
_TINY = np.finfo(float).tiny


class SingleClassError(ValueError):
    """All training labels fell in one class; advise a larger alpha."""


@dataclass(frozen=True)
class OutlierRegion:
    """Tail region {z : (z - center)' minv (z - center) >= q / alpha}."""

    minv: np.ndarray
    alpha: float
    center: np.ndarray = None

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValidationError("alpha must be in (0, 1]")
        if self.center is None:
            object.__setattr__(self, "center", np.zeros(self.minv.shape[0]))

    @property
    def q(self) -> int:
        return self.minv.shape[0]

    @property
    def threshold(self) -> float:
        return self.q / self.alpha


def _quadratic_form(Z, m):
    return np.einsum("...j,jk,...k->...", Z, m, Z)


def mahalanobis_stat(region: OutlierRegion, z) -> float | np.ndarray:
    """Quadratic form of z (single q-vector or n x q batch) in the region metric."""
    return _quadratic_form(_as_rows(z, region.q) - region.center, region.minv)


def is_outlier(region: OutlierRegion, z) -> bool | np.ndarray:
    """Region membership; ties at the boundary count as outliers."""
    return mahalanobis_stat(region, z) >= region.threshold


def delta_stat(region: OutlierRegion, imputer: Imputer, x_centered) -> float | np.ndarray:
    """Mahalanobis norm of the imputed z at centered x (vector or batch).

    Tiny negative quadratic forms from roundoff are clamped to zero; anything
    below -1e-12 indicates a broken metric and raises.
    """
    form = _quadratic_form(imputer.impute(x_centered), region.minv)
    if (form < -1e-12).any():
        raise ValidationError("negative Mahalanobis quadratic form; metric not PSD")
    return np.sqrt(np.maximum(form, 0.0))


@dataclass(frozen=True)
class LogisticGate:
    """Two-parameter logistic model of Pr{outlier | delta}.

    Internally parameterized as sigmoid(b0 + b1 * delta), which stays convex
    to fit and well defined at zero slope; the (kappa, delta0) form with
    probability 1 / (1 + exp(kappa * (delta - delta0))) is recovered as
    kappa = -b1, delta0 = -b0 / b1 whenever b1 != 0.
    """

    b0: float
    b1: float
    cross_entropy: float = float("nan")
    iterations: int = 0
    converged: bool = False
    n_outliers: int = 0  # training rows labelled outlier; not kept in the model file

    @property
    def kappa(self) -> float | None:
        return -self.b1 if abs(self.b1) > 1e-12 else None

    @property
    def delta0(self) -> float | None:
        return -self.b0 / self.b1 if abs(self.b1) > 1e-12 else None


def _sigmoid(t):
    # exp of -|t| never overflows; each branch is the stable form for its sign
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _gate_terms(b0: float, b1: float, deltas: np.ndarray, labels: np.ndarray) -> tuple:
    """Logit t = b0 + b1 * delta, e = exp(-|t|), and the mean cross-entropy.

    ``labels`` is a boolean mask. Per row the loss is softplus(t) - y * t,
    with softplus(t) = max(t, 0) + log1p(e) computed stably; the Newton step
    reads the sigmoid and its derivative from the same t and e.
    """
    t = deltas * b1
    t += b0
    e = np.abs(t)
    np.negative(e, out=e)
    np.exp(e, out=e)
    loss = np.log1p(e)
    loss += np.maximum(t, 0.0)
    # per-row subtraction before the sum keeps the rounding of the mean small
    np.subtract(loss, t, out=loss, where=labels)
    return t, e, float(np.mean(loss))


def gate_cross_entropy(b0: float, b1: float, deltas, labels) -> float:
    """Mean binary cross-entropy of the gate on (delta, label) pairs; labels
    are read as booleans, as ``fit_gate`` reads them."""
    deltas = np.asarray(deltas, dtype=float)
    return _gate_terms(b0, b1, deltas, np.asarray(labels, dtype=bool))[2]


def _gradient_and_hessian(t, e, deltas, labels) -> tuple:
    """Mean gradient and 2 x 2 Hessian of the cross-entropy in (b0, b1), from
    the logit t and e = exp(-|t|) of the current parameters."""
    n = len(t)
    s = 1.0 + e
    np.reciprocal(s, out=s)
    r = e * s  # sigmoid(t) where t < 0
    np.copyto(r, s, where=t >= 0.0)  # sigmoid(t) where t >= 0
    r[labels] -= 1.0  # residual p - y
    grad = (r.sum() / n, (deltas @ r) / n)
    w = np.multiply(e, s, out=r)
    w *= s  # p (1 - p) = e / (1 + e)^2
    np.maximum(w, 1e-12, out=w)
    h00, h01 = w.sum() / n, (w @ deltas) / n
    w *= deltas
    return grad, (h00, h01, (w @ deltas) / n)


def _newton_step(grad, hess, constant_delta: bool) -> tuple:
    """Solve hess @ step = grad for the symmetric 2 x 2 Hessian.

    The Hessian is a positive mix of (1, delta)(1, delta)', so it is singular
    exactly when every delta is equal, and then of rank one: H = lam v v'
    with lam = trace(H). Its minimum-norm solution is H g / lam^2, the step a
    least-squares solve returns.
    """
    (g0, g1), (h00, h01, h11) = grad, hess
    det = h00 * h11 - h01 * h01
    if constant_delta or not det > 0.0:
        lam2 = (h00 + h11) ** 2
        return (h00 * g0 + h01 * g1) / lam2, (h01 * g0 + h11 * g1) / lam2
    return (h11 * g0 - h01 * g1) / det, (h00 * g1 - h01 * g0) / det


def fit_gate(deltas, labels) -> LogisticGate:
    """Fit the logistic gate by Newton's method on the cross-entropy.

    ``deltas`` and ``labels`` are equal-length 1-D arrays; labels are read as
    booleans. Requires both classes present; a single class means the chosen
    alpha produced no (or only) outliers, so the error advises raising it.
    Perfect separation has no finite minimizer: parameters are capped at
    magnitude 1e3 and the gate marked not converged.
    """
    deltas = np.asarray(deltas, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    if deltas.ndim != 1 or deltas.shape != labels.shape:
        raise ShapeError("deltas and labels must be 1-D arrays of equal length")
    if not np.all(np.isfinite(deltas)) or np.any(deltas < 0):
        raise ValidationError("deltas must be finite and nonnegative")
    n_pos = int(np.count_nonzero(labels))
    if n_pos == 0 or n_pos == len(labels):
        raise SingleClassError(
            "outlier labels are single-class; increase alpha so the training "
            "sample contains both inliers and outliers"
        )

    constant_delta = bool(deltas.min() == deltas.max())
    b0 = b1 = 0.0
    t, e, ce = _gate_terms(b0, b1, deltas, labels)
    converged = False
    it = 0
    for it in range(1, GATE_MAX_ITER + 1):
        grad, hess = _gradient_and_hessian(t, e, deltas, labels)
        grad_norm = math.hypot(*grad)
        if grad_norm <= GATE_GRAD_TOL:
            converged = True
            break
        step0, step1 = _newton_step(grad, hess, constant_delta)
        # step halving: accept the first step that does not increase the loss
        scale = 1.0
        for _ in range(50):
            c0, c1 = b0 - scale * step0, b1 - scale * step1
            t_cand, e_cand, ce_cand = _gate_terms(c0, c1, deltas, labels)
            if ce_cand <= ce:
                b0, b1, t, e, ce = c0, c1, t_cand, e_cand, ce_cand
                break
            scale *= 0.5
        else:
            converged = grad_norm <= 1e-6
            break
        if max(abs(b0), abs(b1)) > MAX_GATE_PARAM:
            b0 = min(max(b0, -MAX_GATE_PARAM), MAX_GATE_PARAM)
            b1 = min(max(b1, -MAX_GATE_PARAM), MAX_GATE_PARAM)
            ce = _gate_terms(b0, b1, deltas, labels)[2]
            converged = False
            break
    return LogisticGate(
        b0=float(b0),
        b1=float(b1),
        cross_entropy=ce,
        iterations=it,
        converged=bool(converged),
        n_outliers=n_pos,
    )


def prob_outlier(gate: LogisticGate, delta) -> float | np.ndarray:
    """Gate probability sigmoid(b0 + b1 * delta), always strictly in (0, 1);
    elementwise, so one delta gives a scalar and an array of them an array."""
    p = _sigmoid(gate.b0 + gate.b1 * np.asarray(delta, dtype=float))
    return np.minimum(np.maximum(p, _TINY), 1.0 - 1e-16)
