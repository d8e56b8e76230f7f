"""Seeded synthetic data processes with a heavy-tailed missing feature.

The linear process draws a scalar t-distributed z, builds x as a correlated
3-vector with a latent multivariate-t component and small Gaussian noise, and
sets y = z + sum(x) + noise. The polynomial variant replaces the outcome with
a quadratic function of z and x and exposes [z, z^2] as the missing block.

t draws used inside the processes are rescaled to unit variance (divide by
sqrt(dof / (dof - 2))) so the configured rho is literally the correlation
between z and each coordinate of x when the x-noise is off. The raw sampler
``sample_t`` performs no such normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ValidationError


# Default equicorrelation of the latent u components. The diagonal of the
# default sigma_u is pinned to (1 - rho^2) so that corr(z, x_j) = rho; the
# off-diagonal level only shapes how much of x's non-z variance is shared.
U_EQUICORRELATION = 0.5


def _default_sigma_u(rho: float) -> np.ndarray:
    tau = U_EQUICORRELATION
    return (1.0 - rho**2) * ((1.0 - tau) * np.eye(3) + tau * np.ones((3, 3)))


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the linear heavy-tailed process."""

    rho: float = 0.7
    nu_z: float = 3.0
    nu_u: float = 3.0
    sigma_u: np.ndarray = None
    noise_x_var: float = 0.01
    noise_y_var: float = 0.01
    n: int = 100
    seed: int = 0

    def __post_init__(self):
        if not -1.0 <= self.rho <= 1.0:
            raise ValidationError("rho must lie in [-1, 1]")
        if self.nu_z < 1 or self.nu_u < 1:
            raise ValidationError("degrees of freedom must be >= 1")
        if self.noise_x_var < 0 or self.noise_y_var < 0:
            raise ValidationError("noise variances must be >= 0")
        if self.sigma_u is None:
            object.__setattr__(self, "sigma_u", _default_sigma_u(self.rho))
        else:
            s = np.asarray(self.sigma_u, dtype=float)
            if not np.allclose(s, s.T, atol=1e-12):
                raise ValidationError("sigma_u must be symmetric")
            object.__setattr__(self, "sigma_u", s)


@dataclass(frozen=True)
class PolyConfig(SyntheticConfig):
    """Parameters of the polynomial process; quadratic-term variances require
    dof >= 5 for both t draws."""

    nu_z: float = 5.0
    nu_u: float = 5.0
    wz: tuple = (1.0, 0.1)
    wx: tuple = (1.0, 1.0, 1.0, 0.1, 0.1, 0.1)

    def __post_init__(self):
        super().__post_init__()
        if self.nu_z < 5 or self.nu_u < 5:
            raise ValidationError(
                "polynomial process requires nu_z >= 5 and nu_u >= 5 so the "
                "variances of the quadratic terms exist"
            )
        if len(self.wz) != 2 or len(self.wx) != 6:
            raise ValidationError("wz must have 2 entries and wx 6")


def _scale_sqrt(scale: np.ndarray) -> np.ndarray:
    scale = np.asarray(scale, dtype=float)
    vals, vecs = np.linalg.eigh((scale + scale.T) / 2.0)
    if np.any(vals < -1e-10 * max(1.0, float(vals.max(initial=0.0)))):
        raise ValidationError("scale matrix is not positive semidefinite")
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


# Rows per block of the scale product in _t_draws. A block this size stays in
# OpenBLAS's single-thread kernel; the whole n x d product of a 1e5-row draw
# goes to its threaded gemm, whose threads contend with the caller's other
# threads for the cores.
_ROW_BLOCK = 2048


def _t_draws(rng: np.random.Generator, dof: float, scale, n: int) -> np.ndarray:
    """Multivariate t via Gaussian over root-chi-square, one divisor per row.

    The scale product runs in place over blocks of ``_ROW_BLOCK`` rows,
    bitwise ``standard_normal((n, d)) @ a.T`` (tests compare the two at n
    spanning several blocks).
    """
    scale = np.atleast_2d(np.asarray(scale, dtype=float))
    at = _scale_sqrt(scale).T
    g = rng.standard_normal((n, scale.shape[0]))
    for start in range(0, n, _ROW_BLOCK):
        block = g[start : start + _ROW_BLOCK]
        np.matmul(block, at, out=block)
    w = rng.chisquare(dof, n)
    w /= dof
    g /= np.sqrt(w, out=w)[:, None]
    return g


def sample_t(dof: float, scale, n: int, seed: int) -> np.ndarray:
    """Seeded multivariate t sample with the given (unnormalized) scale matrix."""
    if dof <= 0:
        raise ValidationError("dof must be positive")
    return _t_draws(np.random.default_rng(seed), dof, scale, n)


def _unit_variance_factor(dof: float) -> float:
    # dof <= 2 has no variance; leave those draws unscaled
    return np.sqrt(dof / (dof - 2.0)) if dof > 2.0 else 1.0


def _draw_common(cfg: SyntheticConfig, rng: np.random.Generator):
    # scaled and summed in place, one operation at a time in the order of
    # z = t / f, u = t / f, x = rho * z + u + eps_x: bitwise those formulas
    z = _t_draws(rng, cfg.nu_z, np.eye(1), cfg.n)[:, 0]
    z /= _unit_variance_factor(cfg.nu_z)
    x = _t_draws(rng, cfg.nu_u, cfg.sigma_u, cfg.n)
    x /= _unit_variance_factor(cfg.nu_u)
    eps_x = rng.standard_normal((cfg.n, 3))
    eps_x *= np.sqrt(cfg.noise_x_var)
    eps_y = rng.standard_normal(cfg.n)
    eps_y *= np.sqrt(cfg.noise_y_var)
    x += cfg.rho * z[:, None]
    x += eps_x
    return z, x, eps_y


def generate_linear(cfg: SyntheticConfig):
    """Draw (X: n x 3, Z: n x 1, y) from the linear process, seeded."""
    return _linear(cfg)


# The private draws below call no public function: evalkit runs them on a
# helper thread, where a call that perfbench's single-stack span tracer wraps
# would break its span nesting.
def _linear(cfg: SyntheticConfig):
    rng = np.random.default_rng(cfg.seed)
    z, x, eps_y = _draw_common(cfg, rng)
    # bitwise z + x.sum(axis=1) + eps_y: the row sum adds x's columns left to right
    y = np.add(x[:, 0], x[:, 1])
    y += x[:, 2]
    y += z
    y += eps_y
    return x, z[:, None], y


def feature_map_quadratic(X) -> np.ndarray:
    """Append elementwise squares after the linear columns: (x, x^2)."""
    return _quadratic(np.atleast_2d(np.asarray(X, dtype=float)))


def _quadratic(X: np.ndarray) -> np.ndarray:
    return np.hstack([X, X**2])


def generate_poly(cfg: PolyConfig):
    """Draw (X: n x 3, Z_features: n x 2, y) from the polynomial process.

    The returned missing block is [z, z^2]; the matching nonlinear pipeline
    fits on the quadratic feature map of x.
    """
    return _poly(cfg)


def _poly(cfg: PolyConfig):
    rng = np.random.default_rng(cfg.seed)
    z, x, eps_y = _draw_common(cfg, rng)
    psi = np.column_stack([z, z**2])
    phi = _quadratic(x)
    y = psi @ np.asarray(cfg.wz, dtype=float) + phi @ np.asarray(cfg.wx, dtype=float) + eps_y
    return x, psi, y
