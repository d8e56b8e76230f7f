"""Adaptive robust predictor: gate-weighted combination of the optimistic and
conservative predictors.

Fitting runs the full pipeline on raw training data: center, accumulate
moments, fit both predictors, the imputer and the tail region, compute
delta(x_i) and the outlier indicator of every training row, and fit the
logistic gate on them. The fitted model is immutable; prediction is pure and
concurrent-safe, and every prediction entry point runs one batch routine.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .gate import LogisticGate, OutlierRegion, delta_stat, fit_gate, is_outlier, prob_outlier
from .linalg import ShapeError, accumulate_moments, as_batch, as_matrix, as_vector, pseudoinverse
from .predictors import Imputer, LinearPredictor, fit_conservative, fit_imputer, fit_optimistic


@dataclass(frozen=True)
class RobustModel:
    """Fitted bundle: both base predictors, imputer, tail region and gate.

    All components come from the same training data and alpha; the effective
    weight vector at any x lies on the segment between the optimistic and
    conservative weights.
    """

    w_opt: LinearPredictor
    w_con: LinearPredictor
    imputer: Imputer
    region: OutlierRegion
    gate: LogisticGate
    alpha: float
    x_mean: np.ndarray
    z_mean: np.ndarray
    y_mean: float


def fit_robust(X, Z, y, alpha: float) -> RobustModel:
    """Fit the adaptive predictor from raw training data.

    Steps: optimistic fit, conservative fit, delta(x_i) and the outlier
    indicator of each sample, then the logistic gate. Raises
    ``SingleClassError`` when alpha yields single-class labels.
    """
    X = as_matrix(X, "X")
    Z = as_matrix(Z, "Z")
    y = as_vector(y, "y")
    n, d = X.shape
    q = Z.shape[1]
    if q < 1:
        raise ShapeError("fit_robust requires at least one missing-feature column")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    if n < d + q:
        warnings.warn(
            f"only {n} samples for {d}+{q} feature dimensions; fits may be degenerate",
            stacklevel=2,
        )

    x_mean = X.mean(axis=0)
    z_mean = Z.mean(axis=0)
    y_mean = float(y.mean())
    Xc, Zc, yc = X - x_mean, Z - z_mean, y - y_mean

    moments = accumulate_moments(Xc, Zc, yc)
    w_opt = fit_optimistic(moments, x_mean, y_mean)
    w_con = fit_conservative(moments, x_mean, y_mean)
    imputer = fit_imputer(moments)
    region = OutlierRegion(minv=pseudoinverse(moments.szz), alpha=alpha, center=z_mean)

    fitted_gate = fit_gate(delta_stat(region, imputer, Xc), is_outlier(region, Z))

    return RobustModel(
        w_opt=w_opt,
        w_con=w_con,
        imputer=imputer,
        region=region,
        gate=fitted_gate,
        alpha=alpha,
        x_mean=x_mean,
        z_mean=z_mean,
        y_mean=y_mean,
    )


def predict_parts(model: RobustModel, X) -> tuple:
    """Prediction, gate probability and delta for an n x d batch of raw x.

    Each of delta(x), the gate and the two base predictions is computed once
    per row; every other prediction entry point reads its result from here.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.x_mean.shape[0]:
        raise ShapeError(f"expected an n x {model.x_mean.shape[0]} batch, got shape {X.shape}")
    xc = X - model.x_mean
    delta = delta_stat(model.region, model.imputer, xc)
    p = prob_outlier(model.gate, delta)
    opt = xc @ model.w_opt.weights
    con = xc @ model.w_con.weights
    return (1.0 - p) * opt + p * con + model.y_mean, p, delta


def outlier_probability(model: RobustModel, x) -> float | np.ndarray:
    """Gate probability of an outlying z given raw x (vector or batch)."""
    X, unbatch = as_batch(x)
    return unbatch(predict_parts(model, X)[1])


def adaptive_weights(model: RobustModel, x) -> np.ndarray:
    """Effective weight vector at x: convex mix of the two base predictors."""
    X, unbatch = as_batch(x)
    p = predict_parts(model, X)[1][:, None]
    return unbatch((1.0 - p) * model.w_opt.weights + p * model.w_con.weights)


def predict_robust(model: RobustModel, x) -> float | np.ndarray:
    """Prediction with the adaptive weight vector on raw x (vector or batch)."""
    X, unbatch = as_batch(x)
    return unbatch(predict_parts(model, X)[0])
