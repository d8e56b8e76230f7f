"""CSV ingestion, lag-feature construction for daily series, chronological
splitting and model serialization.

Lagged features never include same-day information. The model file is a
versioned, self-describing key=value text document whose floats are written
at full round-trip precision, so load(save(m)) predicts bitwise identically.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .gate import LogisticGate, OutlierRegion
from .predictors import Imputer, LinearPredictor
from .robust import RobustModel

MODEL_FORMAT = "robustpred-model"
MODEL_VERSION = 1
_GAP_TOKENS = {"", "na", "nan", "null", "none"}


class CsvParseError(ValueError):
    """Malformed CSV input, reported with row/column coordinates."""


class ModelFormatError(ValueError):
    """Corrupt, truncated or version-incompatible model file."""


def fmt_float(v: float) -> str:
    """Render a float with enough digits to round-trip exactly."""
    return format(float(v), ".17g")


@dataclass(frozen=True)
class RawTable:
    """Column-oriented numeric table; gaps are NaN. Dates, when present, are
    kept as ISO-8601 strings alongside the numeric columns."""

    names: tuple
    columns: dict
    dates: tuple = None

    @property
    def n(self) -> int:
        return len(next(iter(self.columns.values()))) if self.columns else 0

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise KeyError(f"no column named {name!r}; have {list(self.names)}")
        return self.columns[name]


def read_csv(path, date_col: str = None) -> RawTable:
    """Read a headered CSV of numeric columns into a RawTable.

    Empty or NA-like cells become gaps (NaN). Any other non-numeric cell is an
    error naming its data row (1-based) and column.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError(f"{path}: empty file, expected a header row") from None
        header = [h.strip() for h in header]
        numeric_names = [h for h in header if h != date_col]
        cols = {name: [] for name in numeric_names}
        dates = [] if date_col else None
        for r, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise CsvParseError(
                    f"{path}: row {r} has {len(row)} cells, expected {len(header)}"
                )
            for name, cell in zip(header, row):
                cell = cell.strip()
                if name == date_col:
                    dates.append(cell)
                    continue
                if cell.lower() in _GAP_TOKENS:
                    cols[name].append(math.nan)
                    continue
                try:
                    cols[name].append(float(cell))
                except ValueError:
                    raise CsvParseError(
                        f"{path}: non-numeric cell at row {r}, column {name}"
                    ) from None
    return RawTable(
        names=tuple(numeric_names),
        columns={k: np.asarray(v, dtype=float) for k, v in cols.items()},
        dates=tuple(dates) if dates is not None else None,
    )


def write_csv(path, names, columns, dates=None, date_col="date") -> None:
    """Write columns to CSV with round-trip float precision."""
    names = list(names)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ([date_col] if dates is not None else []) + names
        writer.writerow(header)
        n = len(columns[names[0]])
        for i in range(n):
            row = [dates[i]] if dates is not None else []
            for name in names:
                v = columns[name][i]
                row.append("" if isinstance(v, float) and math.isnan(v) else fmt_float(v))
            writer.writerow(row)


@dataclass(frozen=True)
class Dataset:
    """Aligned raw (X, Z, y) arrays; ``fit_robust`` does the centering."""

    X: np.ndarray
    Z: np.ndarray
    y: np.ndarray
    column_names: tuple = ()
    dates: tuple = None
    n_dropped: int = 0

    @property
    def n(self) -> int:
        return self.X.shape[0]


def dataset_from_table(table: RawTable, x_cols, z_cols, y_col) -> Dataset:
    """Assemble a Dataset from named columns, dropping rows with any gap."""
    X = np.column_stack([table.column(c) for c in x_cols])
    Z = (
        np.column_stack([table.column(c) for c in z_cols])
        if z_cols
        else np.empty((table.n, 0))
    )
    y = table.column(y_col)
    ok = np.isfinite(X).all(axis=1) & np.isfinite(Z).all(axis=1) & np.isfinite(y)
    dates = tuple(np.asarray(table.dates)[ok]) if table.dates is not None else None
    if not ok.any():
        raise ValueError("no usable rows after dropping gaps")
    return Dataset(
        X=X[ok],
        Z=Z[ok],
        y=y[ok],
        column_names=tuple(x_cols) + tuple(z_cols) + (y_col,),
        dates=dates,
        n_dropped=int((~ok).sum()),
    )


@dataclass(frozen=True)
class LagSpec:
    """Lagged-feature layout for the daily air-quality style task.

    Row t gets x = (nox[t-L .. t-1], o3[t-L .. t-1]) of dimension 2L,
    z = o3[t] and y = nox[t].
    """

    L: int
    nox_column: str = "nox"
    o3_column: str = "o3"

    def __post_init__(self):
        if self.L < 1:
            raise ValueError("L must be >= 1")


def build_lagged(table: RawTable, spec: LagSpec) -> Dataset:
    """Build lagged features from a chronologically ordered daily table.

    Windows containing any gap are dropped and counted; x only ever sources
    days strictly before the target day.
    """
    nox = table.column(spec.nox_column)
    o3 = table.column(spec.o3_column)
    n = len(nox)
    L = spec.L
    if n < L + 1:
        raise ValueError(f"need at least {L + 1} rows for L={L}, got {n}")
    rows_x, rows_z, rows_y, kept_dates, dropped = [], [], [], [], 0
    for t in range(L, n):
        x = np.concatenate([nox[t - L : t], o3[t - L : t]])
        z, yv = o3[t], nox[t]
        if not (np.isfinite(x).all() and np.isfinite(z) and np.isfinite(yv)):
            dropped += 1
            continue
        rows_x.append(x)
        rows_z.append([z])
        rows_y.append(yv)
        if table.dates is not None:
            kept_dates.append(table.dates[t])
    if not rows_x:
        raise ValueError("no usable rows: every window contains a gap")
    names = tuple(
        f"{spec.nox_column}_lag{L - i}" for i in range(L)
    ) + tuple(f"{spec.o3_column}_lag{L - i}" for i in range(L))
    return Dataset(
        X=np.asarray(rows_x),
        Z=np.asarray(rows_z),
        y=np.asarray(rows_y),
        column_names=names + (f"{spec.o3_column}_now", spec.nox_column),
        dates=tuple(kept_dates) if table.dates is not None else None,
        n_dropped=dropped,
    )


def split_chronological(dataset: Dataset, fraction: float = None, boundary: str = None):
    """Order-preserving prefix/suffix split by fraction or ISO-date boundary.

    With a boundary, rows dated strictly before it go to the training side.
    """
    if (fraction is None) == (boundary is None):
        raise ValueError("give exactly one of fraction or boundary")
    if boundary is not None:
        if dataset.dates is None:
            raise ValueError("dataset has no dates; use a fraction split")
        k = int(np.sum(np.asarray(dataset.dates) < boundary))
    else:
        if not 0.0 < fraction < 1.0:
            raise ValueError("fraction must be in (0, 1)")
        k = int(round(dataset.n * fraction))
    if k == 0 or k == dataset.n:
        raise ValueError("split leaves one side empty")

    def take(sl):
        return replace(
            dataset,
            X=dataset.X[sl],
            Z=dataset.Z[sl],
            y=dataset.y[sl],
            dates=tuple(dataset.dates[sl]) if dataset.dates is not None else None,
        )

    return take(slice(None, k)), take(slice(k, None))


def _vec_line(key, v):
    return f"{key}=" + " ".join(fmt_float(x) for x in np.asarray(v, dtype=float).ravel())


def save_model(model: RobustModel, path, feature_map: str = "none") -> None:
    """Write the fitted bundle as versioned key=value text."""
    lines = [
        f"format={MODEL_FORMAT}",
        f"version={MODEL_VERSION}",
        f"feature_map={feature_map}",
        f"alpha={fmt_float(model.alpha)}",
        f"d={model.x_mean.shape[0]}",
        f"q={model.z_mean.shape[0]}",
        _vec_line("x_mean", model.x_mean),
        _vec_line("z_mean", model.z_mean),
        f"y_mean={fmt_float(model.y_mean)}",
        _vec_line("w_opt", model.w_opt.weights),
        _vec_line("w_con", model.w_con.weights),
        f"w_con_residual={fmt_float(model.w_con.constraint_residual or 0.0)}",
        f"w_con_infeasible={int(model.w_con.constraint_infeasible)}",
    ]
    for i, row in enumerate(model.imputer.gmat):
        lines.append(_vec_line(f"gmat.{i}", row))
    for i, row in enumerate(model.region.minv):
        lines.append(_vec_line(f"minv.{i}", row))
    lines.append(f"gate.b0={fmt_float(model.gate.b0)}")
    lines.append(f"gate.b1={fmt_float(model.gate.b1)}")
    if model.gate.kappa is not None:
        lines.append(f"gate.kappa={fmt_float(model.gate.kappa)}")
        lines.append(f"gate.delta0={fmt_float(model.gate.delta0)}")
    lines.append(f"gate.converged={int(model.gate.converged)}")
    lines.append("end=1")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path):
    """Load a model file; returns (RobustModel, feature_map).

    Rejects unknown formats, future versions and truncated files outright --
    no partial models.
    """
    kv = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if "=" not in line:
                raise ModelFormatError(f"{path}: malformed line {line!r}")
            key, val = line.split("=", 1)
            kv[key] = val
    if kv.get("format") != MODEL_FORMAT:
        raise ModelFormatError(f"{path}: not a {MODEL_FORMAT} file")
    try:
        version = int(kv["version"])
    except (KeyError, ValueError):
        raise ModelFormatError(f"{path}: missing or invalid version") from None
    if version != MODEL_VERSION:
        raise ModelFormatError(
            f"{path}: schema version {version} not supported (expected {MODEL_VERSION})"
        )
    if kv.get("end") != "1":
        raise ModelFormatError(f"{path}: file is truncated")

    def vec(key):
        if key not in kv:
            raise ModelFormatError(f"{path}: missing key {key}")
        return np.asarray([float(t) for t in kv[key].split()], dtype=float)

    try:
        d, q = int(kv["d"]), int(kv["q"])
        alpha = float(kv["alpha"])
        x_mean, z_mean = vec("x_mean"), vec("z_mean")
        y_mean = float(kv["y_mean"])
        w_opt_w, w_con_w = vec("w_opt"), vec("w_con")
        gmat = np.vstack([vec(f"gmat.{i}") for i in range(q)]) if q else np.empty((0, d))
        minv = np.vstack([vec(f"minv.{i}") for i in range(q)]) if q else np.empty((0, 0))
        gate = LogisticGate(
            b0=float(kv["gate.b0"]),
            b1=float(kv["gate.b1"]),
            converged=bool(int(kv.get("gate.converged", "0"))),
        )
        model = RobustModel(
            w_opt=LinearPredictor(weights=w_opt_w, kind="optimistic", x_mean=x_mean, y_mean=y_mean),
            w_con=LinearPredictor(
                weights=w_con_w,
                kind="conservative",
                x_mean=x_mean,
                y_mean=y_mean,
                constraint_residual=float(kv.get("w_con_residual", "0")),
                constraint_infeasible=bool(int(kv.get("w_con_infeasible", "0"))),
            ),
            imputer=Imputer(gmat=gmat),
            region=OutlierRegion(minv=minv, alpha=alpha, center=z_mean),
            gate=gate,
            alpha=alpha,
            x_mean=x_mean,
            z_mean=z_mean,
            y_mean=y_mean,
        )
    except (KeyError, ValueError) as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
    if w_opt_w.shape[0] != d or gmat.shape != (q, d):
        raise ModelFormatError(f"{path}: inconsistent dimensions")
    return model, kv.get("feature_map", "none")
