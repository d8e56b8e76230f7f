"""Seeded synthetic data processes with a heavy-tailed missing feature.

The linear process draws a scalar t-distributed z, builds x as a correlated
3-vector with a latent multivariate-t component and small Gaussian noise, and
sets y = z + sum(x) + noise. The polynomial variant replaces the outcome with
a quadratic function of z and x and exposes [z, z^2] as the missing block.

t draws used inside the processes are rescaled to unit variance (divide by
sqrt(dof / (dof - 2))) so the configured rho is literally the correlation
between z and each coordinate of x when the x-noise is off; so both degrees
of freedom must exceed 2, where a t variance exists. The raw sampler
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
        for name in ("nu_z", "nu_u"):
            dof = getattr(self, name)
            if not dof > 2:
                raise ValidationError(f"{name} must be > 2 so that the t draw has a variance, got {dof}")
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


# Rows per block of the scale product in _shape_t. A block this size stays in
# OpenBLAS's single-thread kernel; the whole n x d product of a 1e5-row draw
# goes to its threaded gemm, whose threads contend with the caller's other
# threads for the cores.
_ROW_BLOCK = 2048


# Each process is drawn in two halves. The draw makes the generator calls
# only, in a fixed order, each written with out= into buffers the caller
# owns; the shape does all the arithmetic, in place on those buffers. The
# chi-square draw is 2 * standard_gamma(dof / 2), which is how numpy computes
# rng.chisquare(dof) (and chisquare has no out=), so the doubling in the
# shape makes the pair bitwise the chisquare formulas (tests compare them).
def _draw_t(rng: np.random.Generator, g: np.ndarray, w: np.ndarray, dof: float) -> None:
    rng.standard_normal(out=g)
    rng.standard_gamma(dof / 2, out=w)


def _shape_t(g: np.ndarray, w: np.ndarray, dof: float, scale) -> np.ndarray:
    """Multivariate t over ``g``, Gaussian over root-chi-square, one divisor
    per row; ``w`` is left holding the divisors.

    The scale product runs in place over blocks of ``_ROW_BLOCK`` rows,
    bitwise ``g @ a.T`` (tests compare the two at n spanning several blocks).
    """
    at = _scale_sqrt(np.atleast_2d(np.asarray(scale, dtype=float))).T
    for start in range(0, len(g), _ROW_BLOCK):
        block = g[start : start + _ROW_BLOCK]
        np.matmul(block, at, out=block)
    return _over_root_chisquare(g, w, dof)


def _over_root_chisquare(g: np.ndarray, w: np.ndarray, dof: float) -> np.ndarray:
    """``g`` divided in place, row by row, by the root of ``2 * w / dof``;
    ``w`` is left holding the divisors."""
    w += w
    w /= dof
    g /= np.sqrt(w, out=w)[:, None]
    return g


def sample_t(dof: float, scale, n: int, seed: int) -> np.ndarray:
    """Seeded multivariate t sample with the given (unnormalized) scale matrix."""
    if dof <= 0:
        raise ValidationError("dof must be positive")
    scale = np.atleast_2d(np.asarray(scale, dtype=float))
    g, w = np.empty((n, scale.shape[0])), np.empty(n)
    _draw_t(np.random.default_rng(seed), g, w, dof)
    return _shape_t(g, w, dof, scale)


def _unit_variance_factor(dof: float) -> float:
    return np.sqrt(dof / (dof - 2.0))


def _raw_buffers(n: int) -> tuple:
    """Uninitialised buffers for one draw of n rows, in draw order: z's
    Gaussian and gamma, u's Gaussian and gamma, then the x and y noise."""
    return np.empty((n, 1)), np.empty(n), np.empty((n, 3)), np.empty(n), np.empty((n, 3)), np.empty(n)


# _draw calls no public function: evalkit runs it on a helper thread, where
# a call that perfbench's single-stack span tracer wraps would break its span
# nesting.
def _draw(cfg: SyntheticConfig, seed: int, raw: tuple) -> tuple:
    """Fill ``raw`` (from ``_raw_buffers``) with the generator draws of
    seed ``seed``; ``cfg`` gives the degrees of freedom. Returns ``raw``."""
    rng = np.random.default_rng(seed)
    gz, wz, gx, wx, noise_x, noise_y = raw
    _draw_t(rng, gz, wz, cfg.nu_z)
    _draw_t(rng, gx, wx, cfg.nu_u)
    rng.standard_normal(out=noise_x)
    rng.standard_normal(out=noise_y)
    return raw


def _shape_common(cfg: SyntheticConfig, raw: tuple):
    """(z, x, eps_y) over the buffers of a draw, and a spare n-buffer.

    Scaled and summed in place, one operation at a time in the order of
    z = t / f, u = t / f, x = rho * z + u + eps_x: bitwise those formulas. A
    scalar t has no scale product, only the root-chi-square divisor."""
    gz, wz, gx, wx, eps_x, eps_y = raw
    z = _over_root_chisquare(gz, wz, cfg.nu_z)[:, 0]
    z /= _unit_variance_factor(cfg.nu_z)
    x = _shape_t(gx, wx, cfg.nu_u, cfg.sigma_u)
    x /= _unit_variance_factor(cfg.nu_u)
    eps_x *= np.sqrt(cfg.noise_x_var)
    eps_y *= np.sqrt(cfg.noise_y_var)
    x += np.multiply(z, cfg.rho, out=wz)[:, None]
    x += eps_x
    return z, x, eps_y, wx


def _shape_linear(cfg: SyntheticConfig, raw: tuple):
    """The linear process's (X, Z, y) over the buffers of a draw."""
    z, x, eps_y, spare = _shape_common(cfg, raw)
    # bitwise z + x.sum(axis=1) + eps_y: the row sum adds x's columns left to right
    y = np.add(x[:, 0], x[:, 1], out=spare)
    y += x[:, 2]
    y += z
    y += eps_y
    return x, z[:, None], y


def generate_linear(cfg: SyntheticConfig):
    """Draw (X: n x 3, Z: n x 1, y) from the linear process, seeded."""
    return _shape_linear(cfg, _draw(cfg, cfg.seed, _raw_buffers(cfg.n)))


def feature_map_quadratic(X) -> np.ndarray:
    """Append elementwise squares after the linear columns: (x, x^2)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.hstack([X, X**2])


def generate_poly(cfg: PolyConfig):
    """Draw (X: n x 3, Z_features: n x 2, y) from the polynomial process.

    The returned missing block is [z, z^2]; the matching nonlinear pipeline
    fits on the quadratic feature map of x.
    """
    return _shape_poly(cfg, _draw(cfg, cfg.seed, _raw_buffers(cfg.n)))


def _shape_poly(cfg: PolyConfig, raw: tuple):
    """The polynomial process's (X, Z_features, y) over the buffers of a draw."""
    z, x, eps_y, _ = _shape_common(cfg, raw)
    psi = np.column_stack([z, z**2])
    phi = feature_map_quadratic(x)
    y = psi @ np.asarray(cfg.wz, dtype=float) + phi @ np.asarray(cfg.wx, dtype=float) + eps_y
    return x, psi, y
