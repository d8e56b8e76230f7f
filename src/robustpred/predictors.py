"""Linear predictors for the missing-feature setting.

The optimistic predictor is the unconstrained least-squares fit on the
observable features x. The conservative predictor minimizes the same sample
MSE subject to its errors being empirically uncorrelated with the missing
block z. The oracle predictor uses both x and z (infeasible at test time,
kept as a lower-bound reference), and the imputer is the least-squares map
from x to z.

All fits consume centered second moments, so each fitted predictor is a bare
linear map on centered inputs. The training means are one fact about the
training data and live once, on the fitted ``RobustModel``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    SecondMoments,
    _as_rows,
    minimize_quadratic_on_affine,
    null_space_projector,
    pseudoinverse,
)

CONSTRAINT_RTOL = 1e-8


@dataclass(frozen=True)
class LinearPredictor:
    """A weight vector over centered x; conservative fits add diagnostics."""

    weights: np.ndarray
    constraint_residual: float = None
    constraint_infeasible: bool = False


@dataclass(frozen=True)
class OraclePredictor:
    """Joint (x, z) least-squares weights; the infeasible reference."""

    alpha_w: np.ndarray
    beta_w: np.ndarray


@dataclass(frozen=True)
class Imputer:
    """Least-squares imputation map: z_hat(x) = gmat @ x on centered x."""

    gmat: np.ndarray

    def impute(self, x_centered) -> np.ndarray:
        """Imputed z: a q-vector for one centered x row, n x q for a batch."""
        return _as_rows(x_centered, self.gmat.shape[1]) @ self.gmat.T


def fit_optimistic(moments: SecondMoments) -> LinearPredictor:
    """Unconstrained sample-MSE minimizer over x."""
    w = pseudoinverse(moments.sxx) @ moments.sxy
    return LinearPredictor(weights=w)


def fit_conservative(moments: SecondMoments) -> LinearPredictor:
    """Sample-MSE minimizer subject to errors uncorrelated with z.

    The constraint set {w : szx @ w = szy} is parameterized by an anchor
    (least-squares solution) plus the null space of szx; the quadratic is then
    minimized over that affine set. When szx is rank deficient the constraint
    set may be empty; the least-squares anchor is used and the result flagged
    infeasible, which signals degenerate training data rather than aborting.
    """
    if moments.q == 0:
        return LinearPredictor(weights=fit_optimistic(moments).weights, constraint_residual=0.0)
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
        constraint_residual=residual,
        constraint_infeasible=bool(infeasible),
    )


def fit_oracle(moments: SecondMoments) -> OraclePredictor:
    """Joint least-squares fit over the stacked (x, z) feature vector."""
    joint = np.block([[moments.sxx, moments.szx.T], [moments.szx, moments.szz]])
    rhs = np.concatenate([moments.sxy, moments.szy])
    sol = pseudoinverse(joint) @ rhs
    return OraclePredictor(alpha_w=sol[: moments.d], beta_w=sol[moments.d :])


def fit_imputer(moments: SecondMoments) -> Imputer:
    """Least-squares map predicting centered z from centered x."""
    return Imputer(gmat=moments.szx @ pseudoinverse(moments.sxx))
