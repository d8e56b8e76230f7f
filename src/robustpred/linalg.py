"""Dense linear-algebra substrate: second-moment accumulation, pseudoinverse,
null-space projectors and quadratic minimization over affine sets.

All operations are pure functions over numpy arrays; fitted objects are
immutable and safe to share between concurrent evaluation runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_SV_CUTOFF = 1e-10


class ValidationError(ValueError):
    """Raised on non-finite or otherwise malformed numeric input."""


class ShapeError(ValueError):
    """Raised on incompatible array dimensions."""


def as_matrix(a, name="array") -> np.ndarray:
    """Coerce to a finite 2-D float array, raising on NaN/Inf."""
    m = np.asarray(a, dtype=float)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise ShapeError(f"{name}: expected a 2-D array, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name}: contains non-finite entries")
    return m


def _as_rows(a, d: int) -> np.ndarray:
    """``a`` as a float array if it is one d-vector or an n x d batch, the two
    shapes the numeric core takes; any other shape is a ShapeError."""
    a = np.asarray(a, dtype=float)
    if a.ndim not in (1, 2) or a.shape[-1] != d:
        raise ShapeError(f"expected a {d}-vector or an n x {d} batch, got shape {a.shape}")
    return a


def as_vector(a, name="array") -> np.ndarray:
    v = np.asarray(a, dtype=float).ravel()
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{name}: contains non-finite entries")
    return v


@dataclass(frozen=True)
class SecondMoments:
    """Sample second-moment blocks of (x, z, y), already centered upstream.

    Blocks are sample means of outer products: sxx is d x d, szx is q x d,
    szz is q x q, sxy is a d-vector, szy a q-vector, syy a scalar.
    """

    sxx: np.ndarray
    szx: np.ndarray
    szz: np.ndarray
    sxy: np.ndarray
    szy: np.ndarray
    syy: float

    @property
    def d(self) -> int:
        return self.sxx.shape[0]

    @property
    def q(self) -> int:
        return self.szz.shape[0]


def accumulate_moments(X, Z, y) -> SecondMoments:
    """Accumulate the second-moment blocks of a centered training sample.

    Gram blocks are explicitly symmetrized: accumulation order would
    otherwise break the symmetry invariant in floating point.
    """
    X = as_matrix(X, "X")
    Z = as_matrix(Z, "Z")
    y = as_vector(y, "y")
    n = X.shape[0]
    if n < 1:
        raise ShapeError("need at least one sample")
    if Z.shape[0] != n or y.shape[0] != n:
        raise ShapeError(
            f"row counts differ: X has {n}, Z has {Z.shape[0]}, y has {y.shape[0]}"
        )
    sxx = X.T @ X / n
    szz = Z.T @ Z / n
    return SecondMoments(
        sxx=(sxx + sxx.T) / 2.0,
        szx=Z.T @ X / n,
        szz=(szz + szz.T) / 2.0,
        sxy=X.T @ y / n,
        szy=Z.T @ y / n,
        syy=float(y @ y / n),
    )


def pseudoinverse(A) -> np.ndarray:
    """Moore-Penrose pseudoinverse with a relative singular-value cutoff.

    Singular values below ``DEFAULT_SV_CUTOFF * max(singular value)`` are
    treated as zero, so rank deficiency is handled rather than raised.
    """
    return np.linalg.pinv(as_matrix(A, "A"), rcond=DEFAULT_SV_CUTOFF)


def null_space_projector(A) -> np.ndarray:
    """Orthogonal projector onto the null space of a q x d matrix A.

    Returns the d x d matrix I - V_r V_r^T where V_r spans the row space of A.
    """
    A = as_matrix(A, "A")
    d = A.shape[1]
    if A.shape[0] == 0 or not np.any(A):
        return np.eye(d)
    _, s, vt = np.linalg.svd(A, full_matrices=False)
    rank = int(np.sum(s > DEFAULT_SV_CUTOFF * s[0])) if s.size else 0
    if rank == d:
        # the null space is {0}; I - V V' would hold roundoff that a
        # relative-cutoff pseudoinverse downstream blows up to O(1)
        return np.zeros((d, d))
    vr = vt[:rank]
    pi = np.eye(d) - vr.T @ vr
    return (pi + pi.T) / 2.0


def empirical_mse(moments: SecondMoments, w) -> float:
    """Sample mean squared error of the linear predictor w on centered data."""
    w = as_vector(w, "w")
    return float(moments.syy - 2.0 * w @ moments.sxy + w @ moments.sxx @ w)


def minimize_quadratic_on_affine(moments: SecondMoments, w0, Pi) -> np.ndarray:
    """Minimize the sample MSE over the affine set {w0 + Pi @ theta}.

    The returned point never has larger sample MSE than the anchor w0; the
    pseudoinverse absorbs degenerate curvature along the feasible directions.
    """
    w0 = as_vector(w0, "w0")
    Pi = as_matrix(Pi, "Pi")
    if Pi.shape != (moments.d, moments.d) or w0.shape[0] != moments.d:
        raise ShapeError("w0/Pi dimensions inconsistent with moments")
    curvature = Pi.T @ moments.sxx @ Pi
    gradient = Pi.T @ (moments.sxy - moments.sxx @ w0)
    theta = pseudoinverse(curvature) @ gradient
    return w0 + Pi @ theta
