"""CSV ingestion, lag-feature construction for daily series, chronological
splitting and model serialization.

Lagged features never include same-day information. The model file is a
versioned, self-describing key=value text document whose floats are written
at full round-trip precision, so load(save(m)) predicts bitwise identically.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import re
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .gate import LogisticGate, OutlierRegion
from .predictors import Imputer, LinearPredictor
from .robust import RobustModel

MODEL_FORMAT = "robustpred-model"
MODEL_VERSION = 1
_GAP_TOKENS = {"", "na", "nan", "null", "none"}
# A gap cell with the comma or line break before it: empty next to a comma,
# blank, or a gap token in any ASCII case with spaces or tabs around it. A
# blank line is no cell at all.
_GAP_CELL = re.compile(
    r"([,\r\n])(?:[ \t]*(?:{})[ \t]*|[ \t]+|(?<=,)|(?=,))(?=[,\r\n]|\Z)".format(
        "|".join(sorted(t for t in _GAP_TOKENS if t))
    ),
    re.IGNORECASE | re.ASCII,
)
_WRITE_CHUNK_ROWS = 16384


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
        # readline keeps fh.tell() usable, so the cell loop can restart at
        # the first data row when the fast parse gives up
        reader = csv.reader(iter(fh.readline, ""))
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError(f"{path}: empty file, expected a header row") from None
        header = [h.strip() for h in header]
        numeric_names = [h for h in header if h != date_col]
        # a date column or a repeated name needs the cell loop
        if len(set(numeric_names)) == len(header):
            body_start = fh.tell()
            values = _parse_numbers(fh, len(header))
            if values is None:
                # gap cells are the usual reason: spell each one "nan",
                # which the C parser reads as the same NaN, and parse again
                fh.seek(body_start)
                body, n_gaps = _spell_gaps(fh.read())
                if n_gaps:
                    values = _parse_numbers(io.StringIO(body, newline=""), len(header))
            if values is not None:
                return RawTable(
                    names=tuple(header),
                    columns=dict(zip(header, values.T.copy())),
                    dates=() if date_col else None,
                )
            fh.seek(body_start)
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


def _spell_gaps(body: str):
    """``body`` with each gap cell spelled "nan", and the number of gaps."""
    # the "\n" in front gives the first cell a line break before it
    spelled, n_gaps = _GAP_CELL.subn(r"\1nan", "\n" + body)
    return spelled[1:], n_gaps


def _parse_numbers(fh, n_cols: int):
    """The rest of ``fh`` as an (n_lines, n_cols) float array from numpy's C
    parser, or None when only the cell loop can read it the same way.

    The C parser uses Python's own float syntax but skips blank lines and
    rejects gap tokens, quotes and underscores, so its result is kept only
    when it has one row per remaining line of the file.
    """
    first = fh.readline()
    if not first.rstrip("\r\n"):
        # nothing to parse, or a blank first line (loadtxt would warn)
        return None
    n_lines = 0

    def lines():
        nonlocal n_lines
        for n_lines, line in enumerate(itertools.chain([first], fh), start=1):
            yield line

    try:
        values = np.loadtxt(lines(), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return values if values.shape == (n_lines, n_cols) else None


def write_csv(path, names, columns, dates=None) -> None:
    """Write columns to CSV with round-trip float precision.

    Cells are ``fmt_float`` strings, NaN is an empty cell and rows end in
    the csv module's ``\\r\\n``. With ``dates``, a first column headed
    ``date`` holds them.
    """
    names = list(names)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = (["date"] if dates is not None else []) + names
        writer.writerow(header)
        values = np.column_stack([columns[name] for name in names])
        if dates is None and values.dtype == np.float64 and not np.isnan(values).any():
            # "%.17g" % v is fmt_float(v); one % per chunk keeps memory flat
            row = ",".join(["%.17g"] * len(names)) + "\r\n"
            for start in range(0, len(values), _WRITE_CHUNK_ROWS):
                chunk = values[start : start + _WRITE_CHUNK_ROWS]
                fh.write(row * len(chunk) % tuple(chunk.ravel().tolist()))
            return
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
    # window i covers days i .. i+L: the L days of x, then the target day
    day_ok = np.isfinite(nox) & np.isfinite(o3)
    starts = np.flatnonzero(sliding_window_view(day_ok, L + 1).all(axis=1))
    if not starts.size:
        raise ValueError("no usable rows: every window contains a gap")
    t = starts + L
    names = tuple(
        f"{spec.nox_column}_lag{L - i}" for i in range(L)
    ) + tuple(f"{spec.o3_column}_lag{L - i}" for i in range(L))
    return Dataset(
        X=np.concatenate(
            [sliding_window_view(nox, L)[starts], sliding_window_view(o3, L)[starts]], axis=1
        ),
        Z=o3[t][:, None],
        y=nox[t],
        column_names=names + (f"{spec.o3_column}_now", spec.nox_column),
        dates=tuple(table.dates[i] for i in t.tolist()) if table.dates is not None else None,
        n_dropped=n - L - starts.size,
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
        f"alpha={fmt_float(model.region.alpha)}",
        f"d={model.x_mean.shape[0]}",
        f"q={model.region.q}",
        _vec_line("x_mean", model.x_mean),
        _vec_line("z_mean", model.region.center),
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

    def value(key, cast=float, default=None):
        raw = kv.get(key, default)
        if raw is None:
            raise ModelFormatError(f"{path}: missing key {key}")
        try:
            return cast(raw)
        except ValueError:
            raise ModelFormatError(f"{path}: invalid value for {key}") from None

    def vec(key):
        return value(key, lambda s: np.asarray([float(t) for t in s.split()], dtype=float))

    def flag(key):
        return value(key, lambda s: bool(int(s)), default="0")

    version = value("version", int)
    if version != MODEL_VERSION:
        raise ModelFormatError(
            f"{path}: schema version {version} not supported (expected {MODEL_VERSION})"
        )
    if kv.get("end") != "1":
        raise ModelFormatError(f"{path}: file is truncated")

    d, q = value("d", int), value("q", int)
    alpha = value("alpha")
    x_mean, z_mean, y_mean = vec("x_mean"), vec("z_mean"), value("y_mean")
    w_opt_w, w_con_w = vec("w_opt"), vec("w_con")
    gmat_rows = [vec(f"gmat.{i}") for i in range(q)]
    minv_rows = [vec(f"minv.{i}") for i in range(q)]
    residual, infeasible = value("w_con_residual", default="0"), flag("w_con_infeasible")
    b0, b1, converged = value("gate.b0"), value("gate.b1"), flag("gate.converged")
    try:
        gmat = np.vstack(gmat_rows) if q else np.empty((0, d))
        minv = np.vstack(minv_rows) if q else np.empty((0, 0))
        model = RobustModel(
            w_opt=LinearPredictor(weights=w_opt_w),
            w_con=LinearPredictor(
                weights=w_con_w, constraint_residual=residual, constraint_infeasible=infeasible
            ),
            imputer=Imputer(gmat=gmat),
            region=OutlierRegion(minv=minv, alpha=alpha, center=z_mean),
            gate=LogisticGate(b0=b0, b1=b1, converged=converged),
            x_mean=x_mean,
            y_mean=y_mean,
        )
    except ValueError as exc:
        # a model whose parts are inconsistent, such as alpha outside (0, 1]
        raise ModelFormatError(f"{path}: {exc}") from None
    stored = {"x_mean": x_mean, "w_opt": w_opt_w, "w_con": w_con_w, "z_mean": z_mean, "gmat": gmat, "minv": minv}
    for key, shape in (("x_mean", (d,)), ("w_opt", (d,)), ("w_con", (d,)), ("z_mean", (q,)), ("gmat", (q, d)), ("minv", (q, q))):
        if stored[key].shape != shape:
            raise ModelFormatError(f"{path}: inconsistent dimensions: {key} has shape {stored[key].shape}, expected {shape}")
    return model, kv.get("feature_map", "none")
