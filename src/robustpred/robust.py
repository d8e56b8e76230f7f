"""Adaptive robust predictor: gate-weighted combination of the optimistic and
conservative predictors.

Fitting runs the full pipeline on raw training data: center, accumulate
moments, fit both predictors, the imputer and the tail region, compute
delta(x_i) and the outlier indicator of every training row, and fit the
logistic gate on them. The fitted model is immutable; prediction is pure and
concurrent-safe, and every prediction entry point reads ``predict_parts``,
which takes one row or a batch through the same numpy code.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .gate import LogisticGate, OutlierRegion, delta_stat, fit_gate, is_outlier, prob_outlier
from .linalg import ShapeError, _as_rows, accumulate_moments, as_matrix, as_vector, pseudoinverse
from .predictors import Imputer, LinearPredictor, _fit_linear


@dataclass(frozen=True)
class RobustModel:
    """Fitted bundle: both base predictors, imputer, tail region and gate.

    All components come from the same training data and alpha; the effective
    weight vector at any x lies on the segment between the optimistic and
    conservative weights. Each fitted quantity is stored once: the means of x
    and y here, the mean of z as ``region.center`` and alpha as
    ``region.alpha``.
    """

    w_opt: LinearPredictor
    w_con: LinearPredictor
    imputer: Imputer
    region: OutlierRegion
    gate: LogisticGate
    x_mean: np.ndarray
    y_mean: float


def fit_robust(X, Z, y, alpha: float) -> RobustModel:
    """Fit the adaptive predictor from raw training data.

    Steps: both predictors and the imputer from one SVD of sxx, delta(x_i)
    and the outlier indicator of each sample, then the logistic gate. Raises
    ``OutlierRegion``'s ``ValidationError`` for an alpha outside (0, 1], and
    ``SingleClassError`` when alpha yields single-class labels.
    """
    X = as_matrix(X, "X")
    Z = as_matrix(Z, "Z")
    y = as_vector(y, "y")
    n, d = X.shape
    q = Z.shape[1]
    if q < 1:
        raise ShapeError("fit_robust requires at least one missing-feature column")
    if n < d + q:
        warnings.warn(
            f"only {n} samples for {d}+{q} feature dimensions; fits may be degenerate",
            stacklevel=2,
        )

    x_mean = X.mean(axis=0)
    z_mean = Z.mean(axis=0)
    y_mean = float(y.mean())
    Xc = X - x_mean

    moments = accumulate_moments(Xc, Z - z_mean, y - y_mean)
    w_opt, imputer, w_con = _fit_linear(moments)
    region = OutlierRegion(minv=pseudoinverse(moments.szz), alpha=alpha, center=z_mean)

    deltas = delta_stat(region, imputer, Xc)
    del Xc  # the gate needs only delta and the labels; free the centered copy first
    fitted_gate = fit_gate(deltas, is_outlier(region, Z))

    return RobustModel(
        w_opt=w_opt,
        w_con=w_con,
        imputer=imputer,
        region=region,
        gate=fitted_gate,
        x_mean=x_mean,
        y_mean=y_mean,
    )


def predict_parts(model: RobustModel, X) -> tuple:
    """Robust prediction, gate probability, delta, and the optimistic and
    conservative predictions for one raw x row (numpy scalars) or an n x d
    batch (arrays).

    x is centered once, and each of delta(x), the gate and the two base
    products is computed once per row; every other prediction entry point
    reads its result from here.
    """
    return _predict_centered(model, _as_rows(X, model.x_mean.shape[0]) - model.x_mean)


def _predict_centered(model: RobustModel, xc) -> tuple:
    """``predict_parts`` on x already centered by ``model.x_mean``, for a
    caller that reads the centered x again."""
    delta = delta_stat(model.region, model.imputer, xc)
    p = prob_outlier(model.gate, delta)
    opt = xc @ model.w_opt.weights
    con = xc @ model.w_con.weights
    yhat = (1.0 - p) * opt + p * con + model.y_mean
    return yhat, p, delta, opt + model.y_mean, con + model.y_mean


def outlier_probability(model: RobustModel, x) -> float | np.ndarray:
    """Gate probability of an outlying z given raw x (vector or batch)."""
    return predict_parts(model, x)[1]


def adaptive_weights(model: RobustModel, x) -> np.ndarray:
    """Effective weight vector at x: convex mix of the two base predictors;
    a d-vector for one row, n x d for a batch."""
    p = predict_parts(model, x)[1]
    return np.multiply.outer(1.0 - p, model.w_opt.weights) + np.multiply.outer(p, model.w_con.weights)


def predict_robust(model: RobustModel, x) -> float | np.ndarray:
    """Prediction with the adaptive weight vector on raw x (vector or batch)."""
    return predict_parts(model, x)[0]
