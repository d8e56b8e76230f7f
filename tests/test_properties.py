"""Property tests over random fitted models and rows: the single-row entry
points agree with their batch rows, adaptive weights stay on the
optimistic-conservative segment, a saved model loads back bit for bit, and
the gate fit rejects bad arrays. The moment-only fits keep the paper's
invariants on random full-rank problems. The CSV reader, writer and lag
builder agree with per-cell and per-window reference loops, and report
tables read back cell for cell."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from robustpred.dataio import (
    CsvParseError,
    LagSpec,
    RawTable,
    build_lagged,
    fmt_float,
    load_model,
    read_csv,
    save_model,
    write_csv,
    write_table,
)
from robustpred.gate import SingleClassError, fit_gate
from robustpred.linalg import (
    ShapeError,
    ValidationError,
    accumulate_moments,
    empirical_mse,
    null_space_projector,
    pseudoinverse,
)
from robustpred.predictors import CONSTRAINT_RTOL, fit_conservative, fit_imputer, fit_optimistic, fit_oracle
from robustpred.robust import adaptive_weights, fit_robust, outlier_probability, predict_parts, predict_robust

PROPERTY_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
RTOL = 1e-12


@st.composite
def models_and_rows(draw):
    """A model fitted on a random heavy-tailed sample, plus raw query rows."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(40, 300))
    d = draw(st.integers(1, 4))
    q = draw(st.integers(1, 2))
    alpha = draw(st.sampled_from([0.1, 0.2, 0.5]))
    rng = np.random.default_rng(seed)
    Z = rng.standard_t(3.0, size=(n, q))
    X = Z @ rng.normal(size=(q, d)) + rng.normal(size=(n, d)) + 3.0 * rng.normal(size=d)
    y = X @ rng.normal(size=d) + Z @ rng.normal(size=q) + 0.1 * rng.normal(size=n)
    try:
        model = fit_robust(X, Z, y, alpha)
    except SingleClassError:
        assume(False)
    k = draw(st.integers(1, 6))
    rows = draw(arrays(np.float64, (k, d), elements=st.floats(-30.0, 30.0)))
    return model, rows


def assert_rel_close(single, batch_row):
    np.testing.assert_allclose(single, batch_row, rtol=RTOL, atol=0.0)


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


@PROPERTY_SETTINGS
@given(models_and_rows())
def test_single_row_equals_batch_row(case):
    model, rows = case
    batch = {
        "predict_robust": predict_robust(model, rows),
        "outlier_probability": outlier_probability(model, rows),
        "adaptive_weights": adaptive_weights(model, rows),
    }
    for i, row in enumerate(rows):
        single = {
            "predict_robust": predict_robust(model, row),
            "outlier_probability": outlier_probability(model, row),
            "adaptive_weights": adaptive_weights(model, row),
        }
        for name, value in single.items():
            assert isinstance(value, float) or name == "adaptive_weights", name
            assert_rel_close(value, batch[name][i])


@PROPERTY_SETTINGS
@given(models_and_rows())
def test_adaptive_weights_on_segment(case):
    model, rows = case
    wo, wc = model.w_opt.weights, model.w_con.weights
    span = wc - wo
    span_norm2 = float(span @ span)
    assume(span_norm2 > 1e-12 * max(1.0, float(wo @ wo)))
    scale = np.abs(wo).max() + np.abs(wc).max()
    for w, p in zip(adaptive_weights(model, rows), outlier_probability(model, rows)):
        assert 0.0 < p < 1.0
        np.testing.assert_allclose(w, wo + p * span, rtol=0.0, atol=1e-12 * scale)
        coef = (w - wo) @ span / span_norm2
        assert -1e-9 <= coef <= 1.0 + 1e-9
        np.testing.assert_allclose(w, wo + coef * span, rtol=0.0, atol=1e-9 * scale)


def stored_arrays(model):
    return {
        "x_mean": model.x_mean,
        "y_mean": model.y_mean,
        "region.center": model.region.center,
        "region.minv": model.region.minv,
        "region.alpha": model.region.alpha,
        "w_opt": model.w_opt.weights,
        "w_con": model.w_con.weights,
        "imputer.gmat": model.imputer.gmat,
        "gate.b0": model.gate.b0,
        "gate.b1": model.gate.b1,
    }


@PROPERTY_SETTINGS
@given(models_and_rows())
def test_model_round_trip_is_bitwise(tmp_path_factory, case):
    model, rows = case
    path = tmp_path_factory.mktemp("model") / "model.txt"
    save_model(model, path)
    loaded, _ = load_model(path)
    want = stored_arrays(model)
    for name, got in stored_arrays(loaded).items():
        np.testing.assert_array_equal(bits(got), bits(want[name]), err_msg=name, strict=True)
    assert loaded.gate.converged == model.gate.converged
    for k, (got, ref) in enumerate(zip(predict_parts(loaded, rows), predict_parts(model, rows))):
        np.testing.assert_array_equal(bits(got), bits(ref), err_msg=f"predict_parts output {k}", strict=True)


@st.composite
def full_rank_moments(draw):
    """Centered second moments of a random sample with q <= d, so that sxx,
    szz and szx have full rank and the conservative constraint is feasible."""
    seed = draw(st.integers(0, 2**32 - 1))
    d = draw(st.integers(1, 4))
    q = draw(st.integers(1, min(d, 2)))
    n = draw(st.integers(10 * (d + q), 300))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * rng.uniform(0.5, 2.0, size=d)
    Z = X @ rng.normal(size=(d, q)) + rng.normal(size=(n, q))
    y = X @ rng.normal(size=d) + Z @ rng.normal(size=q) + 0.1 * rng.normal(size=n)
    m = accumulate_moments(X - X.mean(0), Z - Z.mean(0), y - y.mean())
    assume(np.linalg.cond(m.szx) < 1e6)
    return m


@PROPERTY_SETTINGS
@given(full_rank_moments())
def test_imputed_oracle_weights_equal_optimistic(m):
    # criterion 4 in weight form: alpha_w @ x + beta_w @ (G x) = w_opt @ x for every x
    oracle = fit_oracle(m)
    w_opt = fit_optimistic(m).weights
    via_imputer = oracle.alpha_w + fit_imputer(m).gmat.T @ oracle.beta_w
    np.testing.assert_allclose(via_imputer, w_opt, rtol=0.0, atol=1e-8 * (1.0 + np.abs(w_opt).max()))


@PROPERTY_SETTINGS
@given(full_rank_moments())
def test_conservative_errors_uncorrelated_with_z(m):
    con = fit_conservative(m)
    assert not con.constraint_infeasible
    residual = np.abs(m.szx @ con.weights - m.szy).max()
    assert residual <= CONSTRAINT_RTOL * (1.0 + np.abs(m.szy).max())


@st.composite
def degenerate_samples(draw):
    """A centered t(3) sample (n 20-400, d 1-7, q 1-4) that may repeat an x
    column, hold an all-zero x column, and make szx rank deficient by
    repeating a z column or zeroing one; q > d leaves the constraint
    infeasible in general."""
    seed = draw(st.integers(0, 2**32 - 1))
    n, d, q = draw(st.integers(20, 400)), draw(st.integers(1, 7)), draw(st.integers(1, 4))
    rng = np.random.default_rng(seed)
    X = rng.standard_t(3, size=(n, d)) * rng.uniform(0.1, 10.0, size=d)
    if d > 1 and draw(st.booleans()):
        X[:, draw(st.integers(1, d - 1))] = X[:, 0]
    if d > 1 and draw(st.booleans()):
        X[:, -1] = 0.0
    Z = X @ rng.normal(size=(d, q)) + rng.standard_t(3, size=(n, q))
    if q > 1:
        Z[:, -1] = draw(st.sampled_from([0.0, 1.0, -2.0])) * Z[:, 0]
    y = X @ rng.normal(size=d) + Z @ rng.normal(size=q) + rng.standard_t(3, size=n)
    X -= X.mean(0)
    Z -= Z.mean(0)
    y -= y.mean()
    return X, Z, y


def kkt_reference(m):
    """The equality-constrained least-squares weights from its KKT system,
    by ``lstsq`` and one step of iterative refinement. Unrefined, the
    reference itself strays by up to about 4e-10 relative when a repeated or
    zero x column leaves szx nearly singular (3 in 20,000 seeded draws)."""
    kkt = np.block([[m.sxx, m.szx.T], [m.szx, np.zeros((m.q, m.q))]])
    rhs = np.concatenate([m.sxy, m.szy])
    sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    sol += np.linalg.lstsq(kkt, rhs - kkt @ sol, rcond=None)[0]
    return sol[: m.d]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(degenerate_samples())
def test_conservative_fit_solves_the_constrained_problem(sample):
    # the constraint holds wherever the fit is not flagged infeasible, no
    # probe of the constraint set has a lower MSE, and the fitted values agree
    # with a KKT solve (fitted values, since weights along a repeated column
    # are not unique)
    X, Z, y = sample
    m = accumulate_moments(X, Z, y)
    con = fit_conservative(m)
    residual = np.abs(m.szx @ con.weights - m.szy).max()
    assert residual == con.constraint_residual
    if con.constraint_infeasible:
        return
    assert residual <= CONSTRAINT_RTOL * (1.0 + np.abs(m.szy).max())
    base = empirical_mse(m, con.weights)
    thetas = np.random.default_rng(0).normal(size=(200, m.d))
    probes = pseudoinverse(m.szx) @ m.szy + thetas @ null_space_projector(m.szx).T
    mses = m.syy - 2.0 * probes @ m.sxy + np.einsum("ij,jk,ik->i", probes, m.sxx, probes)
    # criterion 5's 1e-10, relative: these samples reach an MSE of about 5e3
    assert np.all(base <= mses + 1e-10 * (1.0 + base))
    fitted, reference = X @ con.weights, X @ kkt_reference(m)
    np.testing.assert_allclose(fitted, reference, rtol=0.0, atol=1e-10 * np.abs(reference).max())


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(degenerate_samples())
def test_shared_factorisation_keeps_pseudoinverse_bits(sample):
    # the optimistic weights and the imputer come from the one SVD of sxx,
    # bit for bit what pseudoinverse(sxx) gives
    m = accumulate_moments(*sample)
    pinv = pseudoinverse(m.sxx)
    np.testing.assert_array_equal(bits(fit_optimistic(m).weights), bits(pinv @ m.sxy))
    np.testing.assert_array_equal(bits(fit_imputer(m).gmat), bits(m.szx @ pinv))


@st.composite
def gate_samples(draw):
    """Finite nonnegative deltas with labels of both classes."""
    n = draw(st.integers(2, 50))
    deltas = draw(arrays(np.float64, n, elements=st.floats(0.0, 100.0)))
    labels = draw(arrays(np.bool_, n))
    labels[0], labels[1] = True, False
    return deltas, labels


@PROPERTY_SETTINGS
@given(gate_samples(), st.integers(0, 49), st.sampled_from([-1e-9, -1.0, np.nan, np.inf, -np.inf]))
def test_fit_gate_rejects_bad_deltas(sample, where, bad):
    deltas, labels = sample
    deltas = deltas.copy()
    deltas[where % len(deltas)] = bad
    with pytest.raises(ValidationError):
        fit_gate(deltas, labels)


@PROPERTY_SETTINGS
@given(gate_samples(), st.booleans())
def test_fit_gate_rejects_single_class(sample, value):
    deltas, labels = sample
    with pytest.raises(SingleClassError, match="alpha"):
        fit_gate(deltas, np.full(labels.shape, value))


def test_fit_gate_rejects_misaligned_arrays():
    with pytest.raises(ShapeError):
        fit_gate(np.array([1.0, 2.0, 3.0]), np.array([True, False]))
    with pytest.raises(ShapeError):
        fit_gate(np.ones((2, 2)), np.array([[True, False], [False, True]]))


# --- CSV and lag features -------------------------------------------------

CHUNK_ROWS = 16384  # rows per formatting chunk of write_csv
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_subnormal=True, width=64),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308]),
)


@st.composite
def float_columns(draw, elements=FLOATS):
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 30))
    block = draw(arrays(np.float64, (n, k), elements=elements))
    names = [f"c{j}" for j in range(k)]
    return names, {name: block[:, j] for j, name in enumerate(names)}


@PROPERTY_SETTINGS
@given(float_columns())
def test_csv_round_trip_is_bitwise(tmp_path_factory, case):
    names, columns = case
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, names, columns)
    table = read_csv(path)
    assert table.names == tuple(names)
    for name in names:
        np.testing.assert_array_equal(bits(table.column(name)), bits(columns[name]))


@PROPERTY_SETTINGS
@given(float_columns(elements=st.one_of(FLOATS, st.just(np.nan))))
def test_csv_round_trip_keeps_nan_cells(tmp_path_factory, case):
    names, columns = case
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, names, columns)
    table = read_csv(path)
    for name in names:
        got, want = table.column(name), columns[name]
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        keep = ~np.isnan(want)
        np.testing.assert_array_equal(bits(got[keep]), bits(want[keep]))


def reference_csv_bytes(names, columns, dates=None, date_col="date"):
    """csv.writer over fmt_float cells, one row at a time."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(([date_col] if dates is not None else []) + list(names))
    for i in range(len(columns[names[0]])):
        row = [dates[i]] if dates is not None else []
        row += ["" if math.isnan(columns[name][i]) else fmt_float(columns[name][i]) for name in names]
        writer.writerow(row)
    return buf.getvalue().encode()


@pytest.mark.parametrize("n", [5, 2 * CHUNK_ROWS + 5])
@pytest.mark.parametrize("branch", ["finite", "nan", "dates"])
@settings(max_examples=3, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3))
def test_write_csv_bytes_match_reference(tmp_path_factory, n, branch, seed, k):
    rng = np.random.default_rng(seed)
    block = rng.standard_t(2.0, size=(n, k)) * 10.0 ** rng.integers(-320, 300, size=(n, k))
    block[rng.random((n, k)) < 0.01] = -0.0
    if branch == "nan":
        block[rng.random((n, k)) < 0.05] = np.nan
    names = [f"c{j}" for j in range(k)]
    columns = {name: block[:, j] for j, name in enumerate(names)}
    dates = tuple(f"day{i}" for i in range(n)) if branch == "dates" else None
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, names, columns, dates=dates)
    assert path.read_bytes() == reference_csv_bytes(names, columns, dates)


TEXT = st.text(st.sampled_from(["a", "Z", "1", " ", ".", ",", '"', "'", "\n", "\r", "\t"]))
NUMPY_INTS = st.one_of(
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
)
TABLE_CELLS = st.one_of(
    TEXT,
    st.floats(allow_subnormal=True, width=64),
    st.floats(allow_subnormal=True, width=64).map(np.float64),
    st.sampled_from([math.nan, -math.nan, np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324]),
    st.none(),
    st.integers(-(2**70), 2**70),
    NUMPY_INTS,
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 4).flatmap(
    lambda k: st.tuples(st.lists(TEXT, min_size=k, max_size=k),
                        st.lists(st.lists(TABLE_CELLS, min_size=k, max_size=k), max_size=8))
))
def test_write_table_cells_read_back(tmp_path_factory, case):
    header, rows = case
    path = tmp_path_factory.mktemp("table") / "t.csv"
    write_table(path, header, rows)
    with open(path, newline="") as fh:
        back = list(csv.reader(fh))
    assert back[0] == header and len(back) == len(rows) + 1
    for row, got in zip(rows, back[1:]):
        assert len(got) == len(row)
        for v, cell in zip(row, got):
            if isinstance(v, str):
                assert cell == v
            elif v is None or v != v:
                assert cell == ""
            elif isinstance(v, (int, np.integer)):
                assert cell == str(int(v))
            else:
                assert bits(float(cell)) == bits(v)
    # each record ends in "\n"; any other "\n" or "\r" is inside a text cell
    raw = path.read_bytes().decode()
    text = [v for v in header + [v for row in rows for v in row] if isinstance(v, str)]
    assert raw.endswith("\n")
    assert raw.count("\n") == len(rows) + 1 + sum(t.count("\n") for t in text)
    assert raw.count("\r") == sum(t.count("\r") for t in text)


def reference_read_csv(path, date_col=None, columns=None):
    """The per-cell parse: csv.reader rows, stripped cells, NA-like gaps.
    Returns the numeric columns asked for, in header order; the cells of
    ``date_col`` and of the other columns not asked for are not parsed."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        cols = {name: [] for name in header if name != date_col and (columns is None or name in columns)}
        for r, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise CsvParseError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
            for name, cell in zip(header, row):
                cell = cell.strip()
                if name not in cols:
                    continue
                if cell.lower() in {"", "na", "nan", "null", "none"}:
                    cols[name].append(math.nan)
                    continue
                try:
                    cols[name].append(float(cell))
                except ValueError:
                    raise CsvParseError(f"{path}: non-numeric cell at row {r}, column {name}") from None
    return {k: np.asarray(v, dtype=float) for k, v in cols.items()}


CELLS = st.sampled_from(
    ["1", "-2.5e-3", "-0.0", "5e-324", "inf", "-nan", "NaN", "NA", "none", "", " ",
     " 7 ", "1_0", '"3"', "#", "x", "0x1", "+.5", "\t", " nA\t", "NULL", "na n", "\x0c"]
)
SEPARATORS = st.sampled_from([",", ",", ",", "\n", "\n", "\r\n", "\r", "\n\n", "\x0c", "\x0b"])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from(["a\n", "a,b\n", "a,b,c\r\n", "\ufeffa,b\n"]),
    st.lists(st.tuples(CELLS, SEPARATORS), max_size=12),
    st.sampled_from(["", "\n", "\r\n"]),
    st.data(),
)
def test_read_csv_matches_cell_parse(tmp_path_factory, header, cells, end, data):
    # a date column, or none, and a subset of the other columns in any order
    names = header.strip().lstrip("\ufeff").split(",")
    date_col = data.draw(st.none() | st.sampled_from(names), label="date_col")
    numeric = [n for n in names if n != date_col]
    columns = data.draw(st.none() | st.permutations(numeric).flatmap(lambda p: st.sampled_from([p[:k] for k in range(len(p) + 1)])), label="columns")
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_bytes((header + "".join(c + s for c, s in cells) + end).encode())
    try:
        want = reference_read_csv(path, date_col, columns)
    except CsvParseError as exc:
        with pytest.raises(CsvParseError) as got:
            read_csv(path, date_col=date_col, columns=columns)
        assert str(got.value) == str(exc)
        return
    table = read_csv(path, date_col=date_col, columns=columns)
    assert table.names == tuple(want) and list(table.columns) == list(want)
    for name, column in want.items():
        np.testing.assert_array_equal(bits(table.column(name)), bits(column))


def reference_build_lagged(nox, o3, L):
    """One window at a time: keep day t when days t-L .. t are all finite."""
    rows_x, rows_z, rows_y = [], [], []
    for t in range(L, len(nox)):
        x = np.concatenate([nox[t - L : t], o3[t - L : t]])
        if np.isfinite(x).all() and np.isfinite(o3[t]) and np.isfinite(nox[t]):
            rows_x.append(x)
            rows_z.append([o3[t]])
            rows_y.append(nox[t])
    return np.asarray(rows_x), np.asarray(rows_z), np.asarray(rows_y)


@PROPERTY_SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(0, 60), st.floats(0.0, 0.3))
def test_build_lagged_matches_window_loop(seed, L, extra, gap_rate):
    rng = np.random.default_rng(seed)
    n = L + 1 + extra
    nox, o3 = rng.normal(size=n), rng.normal(size=n)
    nox[rng.random(n) < gap_rate] = np.nan
    o3[rng.random(n) < gap_rate] = rng.choice([np.nan, np.inf, -np.inf])
    X, Z, y = reference_build_lagged(nox, o3, L)
    table = RawTable(names=("nox", "o3"), columns={"nox": nox, "o3": o3})
    if not len(y):
        with pytest.raises(ValueError, match="every window contains a gap"):
            build_lagged(table, LagSpec(L=L))
        return
    ds = build_lagged(table, LagSpec(L=L))
    np.testing.assert_array_equal(bits(ds.X), bits(X))
    np.testing.assert_array_equal(bits(ds.Z), bits(Z))
    np.testing.assert_array_equal(bits(ds.y), bits(y))
    assert ds.X.shape == (len(y), 2 * L) and ds.Z.shape == (len(y), 1)
    assert ds.n_dropped == n - L - len(y)
