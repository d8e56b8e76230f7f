"""Seeded input generator for the benchmark (numpy and the stdlib only).

It never imports ``robustpred``: a change to ``datagen`` or to
``dataio.write_csv`` cannot change the bytes a workload receives. Every file
is listed in a manifest with its rows, bytes and SHA-256, so two commits can
be shown to have run on byte-identical inputs.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

RHO = 0.7
NU = 3.0
U_EQUICORRELATION = 0.5
NOISE_VAR = 0.01

CSV_ROWS = 200_000
DAILY_DAYS = 20_000
DAILY_GAP_RATE = 0.001
LAG = 28
SERVE_ROWS = 1_000_000

# Independent streams per input, so adding an input never shifts another.
_STREAM = {"train": 1, "test": 2, "daily": 3, "serve_fit": 4, "serve_query": 5}


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAM[stream]])


def _mv_t(rng, dof, scale, n):
    """Multivariate t rows, rescaled to the covariance ``scale``."""
    chol = np.linalg.cholesky(scale)
    g = rng.standard_normal((n, scale.shape[0])) @ chol.T
    w = rng.chisquare(dof, n) / dof
    return g / np.sqrt(w)[:, None] / np.sqrt(dof / (dof - 2.0))


def linear_process(rng, n):
    """(X: n x 3, z: n, y: n) with corr(z, x_j) = rho and t(3) tails."""
    z = _mv_t(rng, NU, np.eye(1), n)[:, 0]
    tau = U_EQUICORRELATION
    sigma_u = (1.0 - RHO**2) * ((1.0 - tau) * np.eye(3) + tau * np.ones((3, 3)))
    u = _mv_t(rng, NU, sigma_u, n)
    x = RHO * z[:, None] + u + np.sqrt(NOISE_VAR) * rng.standard_normal((n, 3))
    y = z + x.sum(axis=1) + np.sqrt(NOISE_VAR) * rng.standard_normal(n)
    return x, z, y


def daily_series(rng, n_days):
    """Positive, autocorrelated nox/o3 series with heavy-tailed shocks."""
    shocks = rng.standard_t(NU, size=(n_days, 2))
    o3 = np.empty(n_days)
    nox = np.empty(n_days)
    o3_prev, nox_prev = 0.0, 0.0
    for t in range(n_days):
        o3_prev = 0.7 * o3_prev + shocks[t, 0]
        nox_prev = 0.5 * nox_prev - 0.4 * o3_prev + shocks[t, 1]
        o3[t], nox[t] = o3_prev, nox_prev
    return 40.0 + 5.0 * nox, 60.0 + 8.0 * o3


def _cells(values: np.ndarray) -> list:
    return [repr(v) for v in values.tolist()]


def _write_csv(path: Path, header, columns) -> None:
    cols = [_cells(c) if isinstance(c, np.ndarray) else c for c in columns]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cols))


def _describe(path: Path, rows: int) -> dict:
    data = path.read_bytes()
    return {
        "file": path.name,
        "rows": rows,
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
    }


def dropped_windows(gaps: np.ndarray, lag: int) -> int:
    """Windows t in [lag, n) touching a gap on days t-lag .. t (either column)."""
    any_gap = gaps.any(axis=1).astype(int)
    csum = np.concatenate([[0], np.cumsum(any_gap)])
    t = np.arange(lag, len(any_gap))
    return int(np.count_nonzero(csum[t + 1] - csum[t - lag]))


def write_synthetic_csvs(work: Path, seed: int) -> dict:
    """Train and test CSVs with header x1,x2,x3,z1,y."""
    out = {}
    for name in ("train", "test"):
        x, z, y = linear_process(_rng(seed, name), CSV_ROWS)
        path = work / f"{name}.csv"
        _write_csv(path, ["x1", "x2", "x3", "z1", "y"], [x[:, 0], x[:, 1], x[:, 2], z, y])
        out[name] = _describe(path, CSV_ROWS)
    return out


def write_daily_csv(work: Path, seed: int) -> dict:
    """A nox,o3 daily CSV with scattered empty cells (gaps)."""
    rng = _rng(seed, "daily")
    nox, o3 = daily_series(rng, DAILY_DAYS)
    gaps = rng.random((DAILY_DAYS, 2)) < DAILY_GAP_RATE
    cols = []
    for j, series in enumerate((nox, o3)):
        cells = _cells(series)
        for i in np.flatnonzero(gaps[:, j]):
            cells[i] = ""
        cols.append(cells)
    path = work / "daily.csv"
    _write_csv(path, ["nox", "o3"], cols)
    info = _describe(path, DAILY_DAYS)
    info["gap_cells"] = int(gaps.sum())
    info["dropped_windows"] = dropped_windows(gaps, LAG)
    return {"daily": info}


def write_serve_arrays(work: Path, seed: int) -> dict:
    """A 1e6-row training set and a separate 1e6-row query set, as .npy."""
    x, z, y = linear_process(_rng(seed, "serve_fit"), SERVE_ROWS)
    xq, _, _ = linear_process(_rng(seed, "serve_query"), SERVE_ROWS)
    out = {}
    for name, arr in (("serve_X", x), ("serve_Z", z[:, None]), ("serve_y", y), ("serve_Xq", xq)):
        path = work / f"{name}.npy"
        np.save(path, arr)
        out[name] = _describe(path, arr.shape[0])
    return out


WRITERS = {
    "csv_pipeline": (write_synthetic_csvs, write_daily_csv),
    "mc_experiment": (),
    "fit_serve": (write_serve_arrays,),
}


def generate(workload: str, work: Path, seed: int) -> dict:
    """Write the inputs of ``workload`` into ``work``; return the manifest."""
    manifest = {}
    for writer in WRITERS[workload]:
        manifest.update(writer(work, seed))
    return manifest
