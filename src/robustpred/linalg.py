"""Dense linear-algebra substrate: second-moment accumulation, the
pseudoinverse and its singular-value cutoff, null-space projectors and the
sample MSE. The predictors' closed forms (``predictors._fit_linear``) factor
sxx once and rely on szx's rows lying in sxx's row space, which holds for
the moments ``accumulate_moments`` returns.

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
    otherwise break the symmetry invariant in floating point. Finite data of
    large magnitude can still overflow a block; that raises a
    ``ValidationError`` naming the block and the column.
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
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
        sxx = X.T @ X / n
        szz = Z.T @ Z / n
        m = SecondMoments(
            sxx=(sxx + sxx.T) / 2.0,
            szx=Z.T @ X / n,
            szz=(szz + szz.T) / 2.0,
            sxy=X.T @ y / n,
            szy=Z.T @ y / n,
            syy=float(y @ y / n),
        )
    _check_overflow(m)
    return m


def _check_overflow(m: SecondMoments) -> None:
    """Raise ``ValidationError`` if a moment block of finite data overflowed.

    A column's mean square bounds its mean cross products (Cauchy-Schwarz),
    so the mean squares name the column when one overflowed.
    """
    bad = [b for b in ("sxx", "szx", "szz", "sxy", "szy", "syy") if not np.isfinite(getattr(m, b)).all()]
    if not bad:
        return
    for block, data, squares in (
        ("sxx", "X", np.diag(m.sxx)),
        ("szz", "Z", np.diag(m.szz)),
        ("syy", "y", np.array([m.syy])),
    ):
        cols = np.flatnonzero(~np.isfinite(squares))
        if cols.size:
            where = "y" if data == "y" else f"{data} column {cols[0]}"
            raise ValidationError(
                f"second moment {block}: the mean square of {where} overflows float64; scale the data down"
            )
    raise ValidationError(f"second moment {bad[0]}: a mean cross product overflows float64; scale the data down")


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
        # the null space is {0}; I - V V' would hold roundoff, not zero
        return np.zeros((d, d))
    vr = vt[:rank]
    pi = np.eye(d) - vr.T @ vr
    return (pi + pi.T) / 2.0


def empirical_mse(moments: SecondMoments, w) -> float:
    """Sample mean squared error of the linear predictor w on centered data."""
    w = as_vector(w, "w")
    return float(moments.syy - 2.0 * w @ moments.sxy + w @ moments.sxx @ w)

