"""Outlier region over the missing block z and the logistic gate.

The region collects the tails of z under the Mahalanobis-type quadratic form
built from the training second moment of z; its probability mass is at most
alpha by a Chebyshev-type bound. The gate models the conditional outlier
probability as a logistic function of the scalar statistic delta(x), the
Mahalanobis norm of the regression-imputed z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ShapeError, ValidationError, as_batch
from .predictors import Imputer

MAX_GATE_PARAM = 1e3
GATE_GRAD_TOL = 1e-8
GATE_MAX_ITER = 500


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
    return np.einsum("ij,jk,ik->i", Z, m, Z)


def mahalanobis_stat(region: OutlierRegion, z) -> float | np.ndarray:
    """Quadratic form of z (single q-vector or n x q batch) in the region metric."""
    Z, unbatch = as_batch(z)
    if Z.shape[1] != region.q:
        raise ShapeError(f"expected z dimension {region.q}, got {Z.shape[1]}")
    return unbatch(_quadratic_form(Z - region.center, region.minv))


def is_outlier(region: OutlierRegion, z) -> bool | np.ndarray:
    """Region membership; ties at the boundary count as outliers."""
    Z, unbatch = as_batch(z)
    return unbatch(mahalanobis_stat(region, Z) >= region.threshold)


def delta_stat(region: OutlierRegion, imputer: Imputer, x_centered) -> float | np.ndarray:
    """Mahalanobis norm of the imputed z at centered x (vector or batch).

    Tiny negative quadratic forms from roundoff are clamped to zero; anything
    below -1e-12 indicates a broken metric and raises.
    """
    X, unbatch = as_batch(x_centered)
    form = _quadratic_form(imputer.impute(X), region.minv)
    if np.any(form < -1e-12):
        raise ValidationError("negative Mahalanobis quadratic form; metric not PSD")
    return unbatch(np.sqrt(np.maximum(form, 0.0)))


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


def gate_cross_entropy(b0: float, b1: float, deltas, labels) -> float:
    """Mean binary cross-entropy of the gate on (delta, label) pairs."""
    t = b0 + b1 * np.asarray(deltas, dtype=float)
    y = np.asarray(labels, dtype=float)
    # log(1 + exp(t)) computed stably; CE = mean(softplus(t) - y * t)
    softplus = np.logaddexp(0.0, t)
    return float(np.mean(softplus - y * t))


def fit_gate(deltas, labels) -> LogisticGate:
    """Fit the logistic gate by Newton's method on the cross-entropy.

    ``deltas`` and ``labels`` are equal-length 1-D arrays; labels are read as
    booleans. Requires both classes present; a single class means the chosen
    alpha produced no (or only) outliers, so the error advises raising it.
    Perfect separation has no finite minimizer: parameters are capped at
    magnitude 1e3 and the gate marked not converged.
    """
    deltas = np.asarray(deltas, dtype=float)
    labels = np.asarray(labels, dtype=bool).astype(float)
    if deltas.ndim != 1 or deltas.shape != labels.shape:
        raise ShapeError("deltas and labels must be 1-D arrays of equal length")
    if not np.all(np.isfinite(deltas)) or np.any(deltas < 0):
        raise ValidationError("deltas must be finite and nonnegative")
    n_pos = int(labels.sum())
    if n_pos == 0 or n_pos == len(labels):
        raise SingleClassError(
            "outlier labels are single-class; increase alpha so the training "
            "sample contains both inliers and outliers"
        )

    design = np.column_stack([np.ones_like(deltas), deltas])
    b = np.zeros(2)
    ce = gate_cross_entropy(b[0], b[1], deltas, labels)
    converged = False
    it = 0
    for it in range(1, GATE_MAX_ITER + 1):
        p = _sigmoid(design @ b)
        grad = design.T @ (p - labels) / len(labels)
        if np.linalg.norm(grad) <= GATE_GRAD_TOL:
            converged = True
            break
        w = np.clip(p * (1.0 - p), 1e-12, None)
        hess = design.T @ (design * w[:, None]) / len(labels)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        # step halving: accept the first step that does not increase the loss
        scale = 1.0
        for _ in range(50):
            cand = b - scale * step
            ce_cand = gate_cross_entropy(cand[0], cand[1], deltas, labels)
            if ce_cand <= ce:
                b, ce = cand, ce_cand
                break
            scale *= 0.5
        else:
            converged = np.linalg.norm(grad) <= 1e-6
            break
        if np.max(np.abs(b)) > MAX_GATE_PARAM:
            b = np.clip(b, -MAX_GATE_PARAM, MAX_GATE_PARAM)
            ce = gate_cross_entropy(b[0], b[1], deltas, labels)
            converged = False
            break
    return LogisticGate(
        b0=float(b[0]),
        b1=float(b[1]),
        cross_entropy=ce,
        iterations=it,
        converged=bool(converged),
    )


def prob_outlier(gate: LogisticGate, delta) -> float | np.ndarray:
    """Gate probability sigmoid(b0 + b1 * delta), always strictly in (0, 1)."""
    deltas, unbatch = as_batch(delta, ndim=1)
    p = _sigmoid(gate.b0 + gate.b1 * deltas)
    return unbatch(np.minimum(np.maximum(p, np.finfo(float).tiny), 1.0 - 1e-16))
