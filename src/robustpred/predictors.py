"""Linear predictors for the missing-feature setting.

The optimistic predictor is the unconstrained least-squares fit on the
observable features x. The conservative predictor minimizes the same sample
MSE subject to its errors being empirically uncorrelated with the missing
block z. The oracle predictor uses both x and z (infeasible at test time,
kept as a lower-bound reference), and the imputer is the least-squares map
from x to z.

All fits consume centered second moments; centering means are carried on the
fitted objects and applied at predict time, so prediction accepts raw inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    SecondMoments,
    ShapeError,
    as_batch,
    minimize_quadratic_on_affine,
    null_space_projector,
    pseudoinverse,
)

CONSTRAINT_RTOL = 1e-8


@dataclass(frozen=True)
class LinearPredictor:
    """A weight vector over x plus the centering captured at fit time."""

    weights: np.ndarray
    kind: str  # "optimistic" | "conservative" | "oracle-restricted"
    x_mean: np.ndarray = None
    y_mean: float = 0.0
    constraint_residual: float = None
    constraint_infeasible: bool = False

    def __post_init__(self):
        if self.x_mean is None:
            object.__setattr__(self, "x_mean", np.zeros_like(self.weights))


@dataclass(frozen=True)
class OraclePredictor:
    """Joint (x, z) least-squares predictor; the infeasible reference."""

    alpha_w: np.ndarray
    beta_w: np.ndarray
    x_mean: np.ndarray = None
    z_mean: np.ndarray = None
    y_mean: float = 0.0

    def __post_init__(self):
        if self.x_mean is None:
            object.__setattr__(self, "x_mean", np.zeros_like(self.alpha_w))
        if self.z_mean is None:
            object.__setattr__(self, "z_mean", np.zeros_like(self.beta_w))


@dataclass(frozen=True)
class Imputer:
    """Least-squares imputation map: z_hat(x) = gmat @ x on centered x."""

    gmat: np.ndarray

    def impute(self, x_centered) -> np.ndarray:
        X, unbatch = as_batch(x_centered)
        return unbatch(X @ self.gmat.T)


def _centering(x_mean, y_mean, d):
    if x_mean is None:
        x_mean = np.zeros(d)
    return np.asarray(x_mean, dtype=float), float(y_mean)


def fit_optimistic(moments: SecondMoments, x_mean=None, y_mean=0.0) -> LinearPredictor:
    """Unconstrained sample-MSE minimizer over x."""
    x_mean, y_mean = _centering(x_mean, y_mean, moments.d)
    w = pseudoinverse(moments.sxx) @ moments.sxy
    return LinearPredictor(weights=w, kind="optimistic", x_mean=x_mean, y_mean=y_mean)


def fit_conservative(moments: SecondMoments, x_mean=None, y_mean=0.0) -> LinearPredictor:
    """Sample-MSE minimizer subject to errors uncorrelated with z.

    The constraint set {w : szx @ w = szy} is parameterized by an anchor
    (least-squares solution) plus the null space of szx; the quadratic is then
    minimized over that affine set. When szx is rank deficient the constraint
    set may be empty; the least-squares anchor is used and the result flagged
    infeasible, which signals degenerate training data rather than aborting.
    """
    x_mean, y_mean = _centering(x_mean, y_mean, moments.d)
    if moments.q == 0:
        opt = fit_optimistic(moments, x_mean, y_mean)
        return LinearPredictor(
            weights=opt.weights,
            kind="conservative",
            x_mean=x_mean,
            y_mean=y_mean,
            constraint_residual=0.0,
        )
    szx, szy = moments.szx, moments.szy
    w0 = pseudoinverse(szx) @ szy
    pi = null_space_projector(szx)
    w = minimize_quadratic_on_affine(moments, w0, pi)
    residual = float(np.max(np.abs(szx @ w - szy))) if szy.size else 0.0
    rank = np.linalg.matrix_rank(szx, tol=1e-10 * max(1.0, float(np.abs(szx).max())))
    infeasible = rank < moments.q and residual > CONSTRAINT_RTOL * (
        1.0 + float(np.max(np.abs(szy)))
    )
    return LinearPredictor(
        weights=w,
        kind="conservative",
        x_mean=x_mean,
        y_mean=y_mean,
        constraint_residual=residual,
        constraint_infeasible=bool(infeasible),
    )


def fit_oracle(moments: SecondMoments, x_mean=None, z_mean=None, y_mean=0.0) -> OraclePredictor:
    """Joint least-squares fit over the stacked (x, z) feature vector."""
    d, q = moments.d, moments.q
    x_mean, y_mean = _centering(x_mean, y_mean, d)
    if z_mean is None:
        z_mean = np.zeros(q)
    z_mean = np.asarray(z_mean, dtype=float)
    joint = np.block([[moments.sxx, moments.szx.T], [moments.szx, moments.szz]])
    rhs = np.concatenate([moments.sxy, moments.szy])
    sol = pseudoinverse(joint) @ rhs
    return OraclePredictor(
        alpha_w=sol[:d], beta_w=sol[d:], x_mean=x_mean, z_mean=z_mean, y_mean=y_mean
    )


def fit_imputer(moments: SecondMoments) -> Imputer:
    """Least-squares map predicting centered z from centered x."""
    return Imputer(gmat=moments.szx @ pseudoinverse(moments.sxx))


def predict(p: LinearPredictor, x) -> float | np.ndarray:
    """Predict from raw (uncentered) x; the outcome mean is added back.

    Accepts a single d-vector or an n x d batch.
    """
    X, unbatch = as_batch(x)
    d = p.weights.shape[0]
    if X.shape[1] != d:
        raise ShapeError(f"expected feature dimension {d}, got {X.shape[1]}")
    return unbatch((X - p.x_mean) @ p.weights + p.y_mean)


def predict_oracle(p: OraclePredictor, x, z) -> float | np.ndarray:
    """Predict from raw x and raw z with the infeasible joint predictor."""
    X, unbatch = as_batch(x)
    Z, _ = as_batch(z)
    return unbatch((X - p.x_mean) @ p.alpha_w + (Z - p.z_mean) @ p.beta_w + p.y_mean)
