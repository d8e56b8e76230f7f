"""Linear predictors for the missing-feature setting.

The optimistic predictor is the unconstrained least-squares fit on the
observable features x, w_opt = sxx^+ sxy, and the imputer is the
least-squares map from x to z, G = szx sxx^+. The conservative predictor
minimizes the same sample MSE subject to its errors being empirically
uncorrelated with the missing block z (szx w = szy). It is the optimistic
predictor corrected through the imputer, w_con = w_opt - G^T (szx G^T)^+
(szx w_opt - szy), which holds when szx's rows lie in sxx's row space, as
for the moments of any sample. One SVD of sxx gives all three. The oracle
predictor uses both x and z (infeasible at test time, kept as a lower-bound
reference).

All fits consume centered second moments, so each fitted predictor is a bare
linear map on centered inputs. The training means are one fact about the
training data and live once, on the fitted ``RobustModel``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_SV_CUTOFF, SecondMoments, _as_rows, pseudoinverse

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


def _fit_linear(moments: SecondMoments) -> tuple:
    """(optimistic predictor, imputer, conservative predictor) from one SVD
    of sxx and one of B = szx R, with R = V_r S_r^(-1/2) over sxx's kept
    singular triplets: w_con = w_opt - R B^+ (szx w_opt - szy), the closed
    form in whitened units (szx G^T would square szx's conditioning).
    sxx^+ takes ``np.linalg.pinv``'s arithmetic on the shared SVD, so w_opt
    and G are bitwise those of ``pseudoinverse(sxx)``."""
    szx, szy = moments.szx, moments.szy
    u, s, vt = np.linalg.svd(moments.sxx, full_matrices=False)
    kept = s > DEFAULT_SV_CUTOFF * s.max(initial=0.0)
    pinv = vt.T @ (np.divide(1.0, s, out=np.zeros_like(s), where=kept)[:, None] * u.T)
    w_opt = pinv @ moments.sxy
    whiten = vt[kept].T / np.sqrt(s[kept])
    ub, sb, vbt = np.linalg.svd(szx @ whiten, full_matrices=False)
    kept_b = sb > DEFAULT_SV_CUTOFF * sb.max(initial=0.0)
    step = (ub[:, kept_b].T @ (szx @ w_opt - szy)) / sb[kept_b]  # S_b^-1 U_b^T of B^+ = V_b S_b^-1 U_b^T
    w_con = w_opt - whiten @ (vbt[kept_b].T @ step)
    residual = float(np.max(np.abs(szx @ w_con - szy), initial=0.0))
    infeasible = kept_b.sum() < moments.q and residual > CONSTRAINT_RTOL * (1.0 + float(np.max(np.abs(szy))))
    conservative = LinearPredictor(weights=w_con, constraint_residual=residual, constraint_infeasible=bool(infeasible))
    return LinearPredictor(weights=w_opt), Imputer(gmat=szx @ pinv), conservative


def fit_optimistic(moments: SecondMoments) -> LinearPredictor:
    """Unconstrained sample-MSE minimizer over x: w_opt = sxx^+ sxy."""
    return _fit_linear(moments)[0]


def fit_conservative(moments: SecondMoments) -> LinearPredictor:
    """Sample-MSE minimizer subject to szx w = szy: the optimistic predictor
    corrected through the imputer, w_opt - G^T (szx G^T)^+ (szx w_opt - szy),
    exact when szx's rows lie in sxx's row space (true of any sample's
    moments). With szy outside the reachable range the result has the least
    constraint residual and is flagged infeasible, which signals degenerate
    training data rather than aborting."""
    return _fit_linear(moments)[2]


def fit_oracle(moments: SecondMoments) -> OraclePredictor:
    """Joint least-squares fit over the stacked (x, z) feature vector."""
    joint = np.block([[moments.sxx, moments.szx.T], [moments.szx, moments.szz]])
    rhs = np.concatenate([moments.sxy, moments.szy])
    sol = pseudoinverse(joint) @ rhs
    return OraclePredictor(alpha_w=sol[: moments.d], beta_w=sol[moments.d :])


def fit_imputer(moments: SecondMoments) -> Imputer:
    """Least-squares map predicting centered z from centered x: G = szx sxx^+."""
    return _fit_linear(moments)[1]
