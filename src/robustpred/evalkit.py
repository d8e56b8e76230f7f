"""Evaluation toolkit: conditional MSE split over the tail region, Monte Carlo
experiment harness, conditional-MSE curves and the excess-MSE identity check.

Independent Monte Carlo runs own derived seeds (master seed plus run index)
and their reports are merged deterministically by run index.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .datagen import PolyConfig, SyntheticConfig, feature_map_quadratic, generate_linear, generate_poly
from .gate import is_outlier
from .linalg import SecondMoments, ShapeError, ValidationError, accumulate_moments, empirical_mse
from .predictors import fit_oracle
from .robust import RobustModel, _predict_centered, fit_robust, predict_parts


@dataclass(frozen=True)
class EvalReport:
    """MSE split into the tail-region (outlier) and complement (inlier) parts.

    An empty bucket is reported as ``None``, never as zero.
    """

    mse: float
    mse_out: float | None
    mse_in: float | None
    n_out: int
    n_in: int


PREDICTORS = ("optimistic", "conservative", "robust")


def _aligned(X_test, Z_test, y_test):
    X = np.asarray(X_test, dtype=float)
    Z = np.asarray(Z_test, dtype=float)
    y = np.asarray(y_test, dtype=float).ravel()
    if X.shape[0] != Z.shape[0] or X.shape[0] != y.shape[0]:
        raise ShapeError("test arrays are not aligned")
    return X, Z, y


def _split_report(err2, out_mask, in_mask) -> EvalReport:
    """``in_mask`` is ``~out_mask``, taken once for every predictor."""
    n_out = int(out_mask.sum())
    n_in = int(len(err2) - n_out)
    return EvalReport(
        mse=float(err2.mean()),
        mse_out=float(err2[out_mask].mean()) if n_out else None,
        mse_in=float(err2[in_mask].mean()) if n_in else None,
        n_out=n_out,
        n_in=n_in,
    )


def compare_predictors(model: RobustModel, X_test, Z_test, y_test) -> tuple:
    """Evaluate the optimistic, conservative and robust predictors of a model
    on one test set.

    One ``predict_parts`` call gives all three predictions and the tail mask
    is computed once. Returns
    ``(rows, err2)``: rows of (name, EvalReport, delta_in_pct, delta_out_pct)
    with deltas against the optimistic report, and the squared errors per
    predictor name.
    """
    X, Z, y = _aligned(X_test, Z_test, y_test)
    return _compare(model, predict_parts(model, X), Z, y)


def _squared_error(y, pred):
    """``(y - pred) ** 2`` bit for bit, with one allocation."""
    e = y - pred
    e *= e
    return e


def _compare(model: RobustModel, parts, Z, y) -> tuple:
    """``compare_predictors`` from the ``predict_parts`` tuple of the test x."""
    robust, _, _, opt, con = parts
    err2 = {name: _squared_error(y, pred) for name, pred in zip(PREDICTORS, (opt, con, robust))}
    out_mask = is_outlier(model.region, Z)
    in_mask = ~out_mask
    reports = {name: _split_report(e, out_mask, in_mask) for name, e in err2.items()}
    base = reports["optimistic"]
    rows = [(name, rep, *delta_percent(rep, base)) for name, rep in reports.items()]
    return rows, err2


def delta_percent(report, baseline) -> tuple:
    """Percent change of (inlier, outlier) MSE versus a baseline report."""

    def pct(a, b):
        if a is None or b is None:
            return float("nan")
        return (a - b) / b * 100.0

    return pct(report.mse_in, baseline.mse_in), pct(report.mse_out, baseline.mse_out)


@dataclass(frozen=True)
class DeltaRow:
    """Per-predictor percent MSE changes versus the optimistic baseline.

    With no completed run, every aggregate of ``inlier`` and ``outlier`` is
    nan.
    """

    name: str
    delta_in_runs: np.ndarray
    delta_out_runs: np.ndarray

    def _agg(self, values):
        if len(values) == 0:  # no run completed
            return dict.fromkeys(("mean", "q25", "median", "q75"), float("nan"))
        return {
            "mean": float(np.mean(values)),
            "q25": float(np.percentile(values, 25)),
            "median": float(np.percentile(values, 50)),
            "q75": float(np.percentile(values, 75)),
        }

    @property
    def inlier(self) -> dict:
        return self._agg(self.delta_in_runs)

    @property
    def outlier(self) -> dict:
        return self._agg(self.delta_out_runs)


@dataclass(frozen=True)
class DeltaTable:
    rows: tuple
    runs: tuple  # the completed Monte Carlo runs, in the order of each row's deltas
    failed_runs: tuple = ()  # (run, reason) for each of the others

    def row(self, name: str) -> DeltaRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)


@dataclass(frozen=True)
class CurveSet:
    """Monte Carlo mean conditional-MSE curves over scalar z bins."""

    centers: np.ndarray
    mse: dict  # name -> array (nan where the bin stayed empty)
    counts: dict  # name -> total rows per bin


def _generate(cfg, n, seed):
    cfg = replace(cfg, n=n, seed=seed)
    if isinstance(cfg, PolyConfig):
        x_raw, Z, y = generate_poly(cfg)
        return feature_map_quadratic(x_raw), Z, y
    X, Z, y = generate_linear(cfg)
    return X, Z, y


def _bin_index(z, edges):
    """``np.digitize(z, edges)`` for strictly increasing ``edges``: 0 below
    the first edge, ``len(edges)`` from the last edge on, and b + 1 inside
    bin b, a z on an edge counting in the bin above it.

    The guess from the mean bin width is exact for most rows of uniform
    edges; each guess is checked against the edges it claims, and a row
    that fails the check is placed by a binary search.
    """
    k = len(edges) - 1
    with np.errstate(over="ignore", invalid="ignore"):  # any guess is checked below
        t = z - edges[0]
        t *= k / (edges[-1] - edges[0])
    # fmax and fmin send a nan guess to -1, so the integer cast stays defined
    np.fmin(np.fmax(t, -1.0, out=t), k, out=t)
    np.floor(t, out=t)
    idx = t.astype(np.intp)
    idx += 1
    padded = np.concatenate(([-np.inf], edges, [np.inf]))
    ok = padded.take(idx) <= z
    ok &= z < padded[1:].take(idx)
    bad = np.flatnonzero(~ok)
    if bad.size:
        idx[bad] = np.searchsorted(edges, z[bad], side="right")
    return idx


def _checked_edges(edges) -> np.ndarray:
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2:
        raise ValidationError(f"z_bin_edges must be a 1-D array of at least 2 edges, got shape {edges.shape}")
    if not np.isfinite(edges).all():
        raise ValidationError("z_bin_edges must be finite")
    if not (np.diff(edges) > 0).all():
        raise ValidationError("z_bin_edges must be strictly increasing")
    return edges


def run_mc_experiment(
    cfg: SyntheticConfig,
    n_train: int,
    n_test: int,
    n_runs: int,
    alpha: float,
    z_bin_edges=None,
):
    """Monte Carlo comparison of the three predictors against the optimistic
    baseline, with optional conditional-MSE curve accumulation over
    ``z_bin_edges`` (scalar z only, so not for the polynomial process) for
    those three and the oracle.

    ``z_bin_edges`` are at least 2 finite, strictly increasing values; any
    other edges raise ``ValidationError`` before the first run. Bin b holds
    the z with ``edges[b] <= z < edges[b + 1]``, as ``np.digitize`` puts
    them: a z on an inner edge counts in the bin above it, and a z below
    the first edge or on or above the last one in no bin.

    Each run derives its own seeds from the config's master seed (train seed
    = master + 2*i + 1, test seed = master + 2*i + 2) so runs are independent
    yet fully reproducible. Returns (DeltaTable, CurveSet | None); runs whose
    fit fails are recorded, not fatal. A run draws its test data only after
    its fit succeeds; a failed run's test seed stays reserved, so every
    completed run sees the same data whichever other runs fail.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    deltas = {name: ([], []) for name in PREDICTORS}
    completed, failed = [], []

    curve_names = PREDICTORS + ("oracle",)
    want_curves = z_bin_edges is not None
    sq_sums = counts = centers = None
    if want_curves:
        if isinstance(cfg, PolyConfig):
            raise ShapeError("conditional curves are defined for scalar z only")
        z_bin_edges = _checked_edges(z_bin_edges)
        centers = 0.5 * (z_bin_edges[:-1] + z_bin_edges[1:])
        # _bin_index gives b + 1 inside bin b and 0 or len(edges) outside
        n_edges = len(z_bin_edges)
        sq_sums = {name: np.zeros(len(centers)) for name in curve_names}
        counts = np.zeros(len(centers), dtype=int)

    for i in range(n_runs):
        X_tr, Z_tr, y_tr = _generate(cfg, n_train, cfg.seed + 2 * i + 1)
        try:
            model = fit_robust(X_tr, Z_tr, y_tr, alpha)
        except Exception as exc:  # noqa: BLE001 - failed runs are data, not crashes
            failed.append((i, str(exc)))
            continue
        X_te, Z_te, y_te = _generate(cfg, n_test, cfg.seed + 2 * i + 2)
        # centred once, in place, for the robust parts and the oracle line:
        # bitwise X_te - x_mean without a second n x d array
        xc = np.subtract(X_te, model.x_mean, out=X_te)
        compared, err2 = _compare(model, _predict_centered(model, xc), Z_te, y_te)
        completed.append(i)
        for name, _, d_in, d_out in compared:
            deltas[name][0].append(d_in)
            deltas[name][1].append(d_out)

        if want_curves:
            z_mean = model.region.center
            m = accumulate_moments(X_tr - model.x_mean, Z_tr - z_mean, y_tr - model.y_mean)
            oracle = fit_oracle(m)
            pred = xc @ oracle.alpha_w + (Z_te - z_mean) @ oracle.beta_w + model.y_mean
            err2["oracle"] = _squared_error(y_te, pred)
            idx = _bin_index(Z_te[:, 0], z_bin_edges)
            counts += np.bincount(idx, minlength=n_edges)[1:n_edges]
            for name in curve_names:
                sq_sums[name] += np.bincount(idx, err2[name], minlength=n_edges)[1:n_edges]
        # the next run's data generation is the peak of memory; do not hold
        # this run's squared errors through it
        del err2

    rows = tuple(
        DeltaRow(name, np.asarray(d_in), np.asarray(d_out)) for name, (d_in, d_out) in deltas.items()
    )
    table = DeltaTable(rows=rows, runs=tuple(completed), failed_runs=tuple(failed))
    curves = None
    if want_curves:
        mse = {
            name: np.where(counts > 0, sq_sums[name] / np.maximum(counts, 1), np.nan)
            for name in curve_names
        }
        curves = CurveSet(centers=centers, mse=mse, counts={name: counts.copy() for name in curve_names})
    return table, curves


@dataclass(frozen=True)
class ExcessMseCheck:
    """Both sides of the excess-MSE identity at population-scale moments."""

    lhs: float
    rhs: float
    term_dispersion: float  # z-dispersion-weighted term, zero on the constraint set
    term_residual: float  # residual-feature term


def excess_mse_check(moments: SecondMoments, w) -> ExcessMseCheck:
    """Evaluate MSE(w) - MSE* and its two-term decomposition.

    Requires an invertible z second moment (the decomposition is stated with
    a true inverse); population-scale (large-sample) moments are expected.
    """
    w = np.asarray(w, dtype=float).ravel()
    szz = moments.szz
    cond = np.linalg.cond(szz)
    if not np.isfinite(cond) or cond > 1e12:
        raise np.linalg.LinAlgError("z second moment is singular or near-singular")
    szz_inv = np.linalg.inv(szz)
    gamma = szz_inv @ moments.szx

    oracle = fit_oracle(moments)
    alpha_w, beta_w = oracle.alpha_w, oracle.beta_w
    # MSE of the joint predictor: the x-only MSE of alpha_w plus the beta_w terms
    mse_star = empirical_mse(moments, alpha_w) + float(
        beta_w @ (moments.szz @ beta_w + 2.0 * (moments.szx @ alpha_w - moments.szy))
    )

    diff = alpha_w - w
    v1 = gamma @ diff + beta_w
    term1 = float(v1 @ szz @ v1)
    resid_moment = moments.sxx - moments.szx.T @ szz_inv @ moments.szx
    term2 = float(diff @ resid_moment @ diff)
    return ExcessMseCheck(
        lhs=empirical_mse(moments, w) - mse_star,
        rhs=term1 + term2,
        term_dispersion=term1,
        term_residual=term2,
    )
