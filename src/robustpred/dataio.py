"""CSV ingestion, lag-feature construction for daily series, chronological
splitting and model serialization.

Lagged features never include same-day information. The model file is a
versioned, self-describing key=value text document whose floats are written
at full round-trip precision, so load(save(m)) predicts bitwise identically.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import os
import re
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .datagen import feature_map_quadratic
from .gate import LogisticGate, OutlierRegion
from .predictors import Imputer, LinearPredictor
from .robust import RobustModel

MODEL_FORMAT = "robustpred-model"
MODEL_VERSION = 1


def _squared_names(names) -> tuple:
    return (*names, *(f"{name}^2" for name in names))


# the feature maps a model can be fitted on, by the name its file stores:
# each maps X, and maps X's column names to the mapped columns' names
FEATURE_MAPS = {"none": (np.asarray, tuple), "quadratic": (feature_map_quadratic, _squared_names)}
_GAP_TOKENS = {"", "na", "nan", "null", "none"}
_WRITE_CHUNK_ROWS = 16384
_SCAN_BLOCK = 1 << 20
# numpy's loadtxt decompresses a path that ends in one of these
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


class CsvParseError(ValueError):
    """Malformed CSV input, reported with row/column coordinates."""


class ModelFormatError(ValueError):
    """Corrupt, truncated or version-incompatible model file."""


def fmt_float(v: float) -> str:
    """Render a float with enough digits to round-trip exactly."""
    return format(float(v), ".17g")


def _cell(v) -> str:
    """The text of one CSV cell: text as is, a missing value (None or NaN)
    empty, an integer as its digits and any other number by ``fmt_float``."""
    if isinstance(v, str):
        return v
    if v is None or v != v:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return fmt_float(v)


@dataclass(frozen=True)
class RawTable:
    """Column-oriented numeric table; gaps are NaN."""

    names: tuple
    columns: dict

    @property
    def n(self) -> int:
        return len(next(iter(self.columns.values()))) if self.columns else 0

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise CsvParseError(f"no column named {name!r}; have {list(self.names)}")
        return self.columns[name]


def read_csv(path, date_col: str = None, columns=None) -> RawTable:
    """Read a headered CSV of numeric columns into a RawTable.

    ``columns`` names the numeric columns to read, by default every column
    but ``date_col``; the table holds them in header order. A cell of a
    column nobody reads, such as ``date_col``, is never parsed. Empty or
    NA-like cells become gaps (NaN). Any other non-numeric cell of a column
    read, such as one holding a byte that is not text in the file's
    encoding, is an error naming its data row (1-based) and column; so is a
    row whose cell count is not the header's, and a header that holds such
    a byte, repeats a name or lacks ``date_col`` or a name in ``columns``.
    A byte-order mark before the header is dropped.
    """
    # an undecodable byte becomes a lone surrogate, which no number holds
    with open(path, newline="", errors="surrogateescape") as fh:
        try:
            header, head_lines = _read_header(fh)
        except csv.Error as exc:
            raise CsvParseError(f"{path}: header row: {exc}") from None
        encoding = fh.encoding
    if header is None:
        raise CsvParseError(f"{path}: empty file, expected a header row")
    header = [h.strip() for h in header]
    if bad := re.search("[\udc80-\udcff]", "".join(header)):
        raise CsvParseError(f"{path}: header row: byte {ord(bad[0]) - 0xDC00:#x} is not {encoding} text")
    repeated = [h for i, h in enumerate(header) if h in header[:i]]
    if repeated:
        raise CsvParseError(f"{path}: column {repeated[0]!r} appears more than once in the header")
    if date_col is not None and date_col not in header:
        raise CsvParseError(f"{path}: no date column {date_col!r} in the header")
    numeric_names = [h for h in header if h != date_col]
    absent = [c for c in columns or () if c not in numeric_names]
    if absent:
        raise CsvParseError(f"no column named {absent[0]!r}; have {numeric_names}")
    names = tuple(h for h in numeric_names if columns is None or h in columns)
    values = _parse_body(path, encoding, head_lines, header, names)
    if values is None:
        with _open_body(path, len(head_lines)) as fh:
            values = _read_cells(path, fh, header, names)
    return RawTable(names=names, columns=dict(zip(names, values)))


def _read_header(fh):
    """The header row at the start of ``fh`` (None for an empty file),
    without a byte-order mark, and the lines it spans, as read."""
    lines = []

    def kept():
        for line in fh:
            lines.append(line)
            yield line.removeprefix("\ufeff") if len(lines) == 1 else line

    return next(csv.reader(kept()), None), lines


def _parse_body(path, encoding, head_lines, header, names):
    """The body's ``names`` columns as contiguous float arrays from numpy's C
    reader, or None when only the cell loop reads the body the same way.

    numpy reads a path in chunks, but only a generator or file object line
    by line, so the path is what it gets. Every header column has a field:
    float for a column read, one character for any other, so numpy checks
    each row's cell count against the header's. numpy skips blank lines and
    does not read quotes, so its result is kept only when it has one row per
    line of a body with no quote in it.
    """
    path = os.fsdecode(path)
    if not header or path.endswith(_COMPRESSED_SUFFIXES):
        return None
    scan = _scan_body(path, len("".join(head_lines).encode(encoding)))
    if scan is None:
        return None
    n_lines, has_data = scan
    if not has_data:
        # an empty body is a table of no rows; blank lines are for the cell
        # loop to report (numpy would warn that it found no data)
        if n_lines:
            return None
        return [np.empty(0) for _ in names]
    fields = [f"f{i}" for i in range(len(header))]
    dtype = np.dtype({"names": fields, "formats": ["f8" if h in names else "U1" for h in header]})
    read = functools.partial(np.loadtxt, path, dtype=dtype, delimiter=",", comments=None,
                             skiprows=len(head_lines), ndmin=1, encoding=encoding)
    try:
        rows = read()
    except ValueError:
        # gap cells are the usual reason: parse the path again, each column
        # read by the cell loop's rule
        try:
            rows = read(converters={i: _cell_value for i, h in enumerate(header) if h in names})
        except ValueError:
            return None
    if len(rows) != n_lines:
        return None
    return [np.ascontiguousarray(rows[fields[header.index(name)]]) for name in names]


def _scan_body(path, offset: int):
    """The line count of the file's bytes from ``offset`` and whether any of
    them is not a line break, read in fixed-size blocks; None if a quote is
    among them.

    Line breaks are counted as the csv module splits lines: ``\\n``,
    ``\\r\\n`` and a lone ``\\r``.
    """
    n_lf = n_cr = n_crlf = n_bytes = 0
    last = b"\n"
    with open(path, "rb") as fh:
        fh.seek(offset)
        while block := fh.read(_SCAN_BLOCK):
            if b'"' in block:
                return None
            a = np.frombuffer(block, np.uint8)
            n_bytes += len(block)
            n_lf += int(np.count_nonzero(a == 10))
            n_crlf += last == b"\r" and block[:1] == b"\n"
            if b"\r" in block:
                after = np.flatnonzero(a == 13) + 1
                n_cr += len(after)
                n_crlf += int(np.count_nonzero(a[after[after < len(a)]] == 10))
            last = block[-1:]
    # a last line without a line break is a line too
    n_lines = n_lf + n_cr - n_crlf + (last not in (b"\n", b"\r"))
    return n_lines, n_bytes > n_lf + n_cr


def _cell_value(text: str) -> float:
    """The number a cell's text holds: NaN for a gap, an empty or NA-like
    cell, and Python's ``float`` of the stripped text otherwise."""
    text = text.strip()
    return math.nan if text.lower() in _GAP_TOKENS else float(text)


def _open_body(path, n_head: int):
    """``path`` opened as ``read_csv`` opens it, after its first ``n_head`` lines."""
    fh = open(path, newline="", errors="surrogateescape")
    for _ in range(n_head):
        fh.readline()
    return fh


def _read_cells(path, fh, header, names) -> list:
    """The per-cell parse of the body left in ``fh``, as ``_parse_body``
    gives it. It reads the bodies numpy reads otherwise, and it reports the
    first row or cell that no parse can read."""
    read = [(i, name) for i, name in enumerate(header) if name in names]
    cols = {name: [] for name in names}
    r = 0
    try:
        for r, row in enumerate(csv.reader(fh), start=1):
            if len(row) != len(header):
                raise CsvParseError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
            for i, name in read:
                try:
                    cols[name].append(_cell_value(row[i]))
                except ValueError:
                    raise CsvParseError(f"{path}: non-numeric cell at row {r}, column {name}") from None
    except csv.Error as exc:  # the reader failed on the row after row r
        raise CsvParseError(f"{path}: row {r + 1}: {exc}") from None
    return [np.asarray(cols[name], dtype=float) for name in names]


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
        for i in range(len(columns[names[0]])):
            row = [dates[i]] if dates is not None else []
            writer.writerow(row + [_cell(columns[name][i]) for name in names])


def write_table(path, header, rows) -> None:
    """Write a report table: the ``header`` row, then ``rows`` of cells
    spelled by ``_cell``, with the csv module's quoting and ``\\n`` line
    ends."""
    with open(path, "w", newline="") as fh:
        minimal = csv.writer(fh, lineterminator="\n")
        # before Python 3.13 the csv module quotes a "\r" only when it is in
        # the line terminator, and its reader would end the row there
        quote_all = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        for row in itertools.chain([header], rows):
            cells = [_cell(v) for v in row]
            (quote_all if any("\r" in c for c in cells) else minimal).writerow(cells)


@dataclass(frozen=True)
class Dataset:
    """Aligned raw (X, Z, y) arrays; ``fit_robust`` does the centering."""

    X: np.ndarray
    Z: np.ndarray
    y: np.ndarray
    column_names: tuple = ()
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
    if not ok.any():
        raise ValueError("no usable rows after dropping gaps")
    return Dataset(
        X=X[ok],
        Z=Z[ok],
        y=y[ok],
        column_names=tuple(x_cols) + tuple(z_cols) + (y_col,),
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
    names = tuple(f"{col}_lag{L - i}" for col in (spec.nox_column, spec.o3_column) for i in range(L))
    return Dataset(
        X=np.concatenate(
            [sliding_window_view(nox, L)[starts], sliding_window_view(o3, L)[starts]], axis=1
        ),
        Z=o3[t][:, None],
        y=nox[t],
        column_names=names + (f"{spec.o3_column}_now", spec.nox_column),
        n_dropped=n - L - starts.size,
    )


def split_chronological(dataset: Dataset, fraction: float):
    """Order-preserving prefix/suffix split: the first ``fraction`` of the
    rows, rounded, go to the training side."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    k = int(round(dataset.n * fraction))
    if k == 0 or k == dataset.n:
        raise ValueError("split leaves one side empty")
    sides = (slice(None, k), slice(k, None))
    return tuple(replace(dataset, X=dataset.X[sl], Z=dataset.Z[sl], y=dataset.y[sl]) for sl in sides)


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

    Rejects unknown formats, future versions, truncated files and feature
    maps not in ``FEATURE_MAPS`` outright -- no partial models.
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
    feature_map = kv.get("feature_map", "none")
    if feature_map not in FEATURE_MAPS:
        raise ModelFormatError(f"{path}: unknown feature_map {feature_map!r}")

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
    return model, feature_map
