import warnings

import numpy as np
import pytest

from robustpred import dataio
from robustpred.datagen import SyntheticConfig, generate_linear
from robustpred.dataio import (
    CsvParseError,
    LagSpec,
    ModelFormatError,
    RawTable,
    build_lagged,
    dataset_from_table,
    load_model,
    read_csv,
    save_model,
    split_chronological,
    write_csv,
    write_table,
)
from robustpred.robust import fit_robust, predict_robust


def make_table(**cols):
    return RawTable(names=tuple(cols), columns={k: np.asarray(v, dtype=float) for k, v in cols.items()})


class TestReadCsv:
    def test_two_rows(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("a,b\n1,2\n3,4\n")
        t = read_csv(p)
        assert t.n == 2
        np.testing.assert_allclose(t.column("a"), [1.0, 3.0])

    def test_non_numeric_cell_coordinates(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("nox,o3\n1,2\n3,4\n5,oops\n")
        with pytest.raises(CsvParseError, match="row 3, column o3"):
            read_csv(p)

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(CsvParseError, match="row 2"):
            read_csv(p)

    def test_gaps_recorded_as_nan(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,\n2,NA\n3,4\n")
        t = read_csv(p)
        assert np.isnan(t.column("b")[:2]).all()
        assert t.column("b")[2] == 4.0

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        cols = {"u": rng.normal(size=20), "v": rng.normal(size=20) * 1e-7}
        p = tmp_path / "e.csv"
        write_csv(p, ["u", "v"], cols)
        t = read_csv(p)
        np.testing.assert_array_equal(t.column("u"), cols["u"])
        np.testing.assert_array_equal(t.column("v"), cols["v"])

    def test_date_column(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("date,a\n2020-01-01,1\n2020-01-02,2\n")
        t = read_csv(p, date_col="date")
        assert t.dates == ("2020-01-01", "2020-01-02")
        assert "date" not in t.columns


NAN = float("nan")


class TestReadCsvEdgeCases:
    """Inputs at the border of the fast numeric parse; each gives what the
    per-cell parse gives."""

    @pytest.mark.parametrize(
        "text, columns",
        [
            ('a,b\n"1.5",2\n', {"a": [1.5], "b": [2.0]}),
            ("a,b\nNA,none\n3,4\n", {"a": [NAN, 3.0], "b": [NAN, 4.0]}),
            ("a,b\nnan,NULL\n-inf,1e999\n", {"a": [NAN, -np.inf], "b": [NAN, np.inf]}),
            ("a\n1_0\n", {"a": [10.0]}),
            ("a,b\n", {"a": [], "b": []}),
            ("a,b", {"a": [], "b": []}),
            ("a,b\r\n1,2\r\n3,4\r\n", {"a": [1.0, 3.0], "b": [2.0, 4.0]}),
            ("a,b\n1,2\n3,4", {"a": [1.0, 3.0], "b": [2.0, 4.0]}),
            (" a , b \n 1 ,\t2 \n-0.0,  5e-324\n", {"a": [1.0, -0.0], "b": [2.0, 5e-324]}),
            ("a\n1\n2\n", {"a": [1.0, 2.0]}),
        ],
    )
    def test_same_arrays_as_cell_parse(self, tmp_path, text, columns):
        p = tmp_path / "t.csv"
        p.write_bytes(text.encode())
        t = read_csv(p)
        assert t.names == tuple(columns) and t.dates is None
        for name, want in columns.items():
            got = t.column(name)
            assert got.dtype == np.float64 and got.flags.c_contiguous
            np.testing.assert_array_equal(got.view(np.uint64), np.asarray(want).view(np.uint64))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,b\n1,2\n\n", "row 2 has 0 cells, expected 2"),
            ("a,b\n1,2\n\n3,4\n", "row 2 has 0 cells, expected 2"),
            ("a,b\r\n1,2\r\n\r\n", "row 2 has 0 cells, expected 2"),
            ("a,b\n1\n", "row 1 has 1 cells, expected 2"),
            ("a,b\n1,2\n3\n", "row 2 has 1 cells, expected 2"),
            ("a,b\n1,2#3\n", "non-numeric cell at row 1, column b"),
            ("a,b\n#1,2\n", "non-numeric cell at row 1, column a"),
            ("a\n1\n\n", "row 2 has 0 cells, expected 1"),
            ("a,a,b\n1,2,3\n", "column 'a' appears more than once in the header"),
            ("b, a ,a\n1,2,3\n", "column 'a' appears more than once in the header"),
        ],
    )
    def test_same_error_as_cell_parse(self, tmp_path, text, message):
        p = tmp_path / "t.csv"
        p.write_bytes(text.encode())
        with pytest.raises(CsvParseError) as exc:
            read_csv(p)
        assert str(exc.value) == f"{p}: {message}"

    def test_gaps_read_by_the_fast_parse(self, tmp_path, monkeypatch):
        # scattered gaps in every spelling: the C parse of the spelled body
        # reads the file, and the cell loop never runs
        spelled = []

        def spell_gaps(body):
            spelled.append(real(body))
            return spelled[-1]

        def no_cell_loop(*args):
            raise AssertionError("the cell loop ran")

        real = dataio._spell_gaps
        monkeypatch.setattr(dataio, "_spell_gaps", spell_gaps)
        monkeypatch.setattr(dataio, "_read_cells", no_cell_loop)
        p = tmp_path / "t.csv"
        p.write_bytes(b"a,b\r\n1,2\r\n3,\r\n,6\r\n NA ,8\r\n9,null\r\n\tNone,-0.0\r\n11,nan")
        t = read_csv(p)
        assert [n_gaps for _, n_gaps in spelled] == [6]
        want = {"a": [1, 3, NAN, NAN, 9, NAN, 11], "b": [2, NAN, 6, 8, NAN, -0.0, NAN]}
        for name, column in want.items():
            got = t.column(name)
            assert got.flags.c_contiguous
            np.testing.assert_array_equal(got.view(np.uint64), np.asarray(column, float).view(np.uint64))

    @pytest.mark.parametrize(
        "body, spelled",
        [
            ("1,\n,2\n,\n", "1,nan\nnan,2\nnan,nan\n"),
            ("1\n\n \n\t\n", "1\n\nnan\nnan\n"),  # a blank line is no cell
            ("NA\r\nnOnE\rNull,nan\r", "nan\r\nnan\rnan,nan\r"),
            (' na ,"",NULLx,n a, NA\t,\n', 'nan,"",NULLx,n a,nan,nan\n'),
            ("1,2", "1,2"),
            ("1,", "1,nan"),
            (",", "nan,nan"),
            ("", ""),
        ],
    )
    def test_gap_cells_spelled_nan(self, body, spelled):
        assert dataio._spell_gaps(body)[0] == spelled

    def test_date_column_absent_from_header(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(CsvParseError, match="no date column 'date' in the header"):
            read_csv(p, date_col="date")


def forbid_slow_paths(monkeypatch):
    """Make the gap spelling and the cell loop raise, so a read that needs
    either fails."""

    def slow(*args):
        raise AssertionError("the C parse of the file's own text gave up")

    monkeypatch.setattr(dataio, "_spell_gaps", slow)
    monkeypatch.setattr(dataio, "_read_cells", slow)


def assert_bitwise(got, want):
    assert got.dtype == np.float64 and got.flags.c_contiguous
    np.testing.assert_array_equal(got.view(np.uint64), np.asarray(want, dtype=float).view(np.uint64))


SUBSETS = [None, ["c", "a"], ["b"], []]


class TestReadCsvColumns:
    """Column subsets, a date column, and bodies numpy's C reader reads
    otherwise than the csv module: each read gives what the cell loop
    gives."""

    @pytest.mark.parametrize("columns", SUBSETS)
    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,b,c\n1,2,3\n\n4,5,6\n", "row 2 has 0 cells, expected 3"),
            ("a,b,c\n1,2,3\n4,5,6\n\n", "row 3 has 0 cells, expected 3"),
            ("a,b,c\r\n1,2,3\r\n4,5,6\r\n\r\n", "row 3 has 0 cells, expected 3"),
            ("a,b,c\n1,2,3\n4,5,6,7\n", "row 2 has 4 cells, expected 3"),
            ("a,b,c\n1,2,3,\n4,5,6\n", "row 1 has 4 cells, expected 3"),
            # as many commas in all as rows of three cells have
            ("a,b,c\n1,2\n3,4,5,6\n", "row 1 has 2 cells, expected 3"),
            ("a,b,c\n1,2,3\n4,5\r6,7,8\n", "row 2 has 2 cells, expected 3"),
        ],
    )
    def test_row_errors(self, tmp_path, columns, text, message):
        p = tmp_path / "t.csv"
        p.write_bytes(text.encode())
        with pytest.raises(CsvParseError) as exc:
            read_csv(p, columns=columns)
        assert str(exc.value) == f"{p}: {message}"

    @pytest.mark.parametrize("columns", SUBSETS)
    @pytest.mark.parametrize(
        "text",
        [
            "a,b,c\r1,2,3\r4,5,6\r",
            "a,b,c\r1,2,3\r\n4,5,6",
            "a,b,c\n1,2,3\r4,5,6\r\n",
        ],
    )
    def test_lone_cr_line_ends(self, tmp_path, monkeypatch, columns, text):
        p = tmp_path / "t.csv"
        p.write_bytes(text.encode())
        forbid_slow_paths(monkeypatch)
        t = read_csv(p, columns=columns)
        want = {"a": [1, 4], "b": [2, 5], "c": [3, 6]}
        assert t.names == tuple(n for n in want if columns is None or n in columns)
        for name in t.names:
            assert_bitwise(t.column(name), want[name])

    @pytest.mark.parametrize("columns", [None, ["c", "a\r\nx"], ["b"]])
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_quoted_header_holding_a_line_break(self, tmp_path, monkeypatch, columns, end):
        p = tmp_path / "t.csv"
        p.write_bytes(f'"a\r\nx", b ,"c"{end}1,2,3{end}4,5,6{end}'.encode())
        forbid_slow_paths(monkeypatch)
        t = read_csv(p, columns=columns)
        want = {"a\r\nx": [1, 4], "b": [2, 5], "c": [3, 6]}
        assert t.names == tuple(n for n in want if columns is None or n in columns)
        for name in t.names:
            assert_bitwise(t.column(name), want[name])

    def test_quote_in_the_body_goes_to_the_cell_loop(self, tmp_path):
        # numpy does not read quotes: split on every comma and line break, the
        # body below has three rows of two cells, but the csv module reads two
        p = tmp_path / "t.csv"
        p.write_bytes(b'a,b\n1,"p\n2,3"\n4,5\n')
        t = read_csv(p, columns=["a"])
        assert_bitwise(t.column("a"), [1, 4])

    @pytest.mark.parametrize("name", ["t.csv.gz", "t.bz2", "t.xz", "t.lzma"])
    def test_text_file_with_a_compression_suffix(self, tmp_path, name):
        # numpy's loadtxt would decompress a path with such a suffix
        p = tmp_path / name
        p.write_text("a,b\n1,2\n")
        for path in (p, str(p), bytes(p)):
            assert_bitwise(read_csv(path, columns=["b"]).column("b"), [2])

    def test_bad_cell_in_a_column_not_read(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,c\n1,oops,3\n4,,6\n")
        t = read_csv(p, columns=["c", "a"])
        assert t.names == ("a", "c")
        assert_bitwise(t.column("a"), [1, 4])
        assert_bitwise(t.column("c"), [3, 6])
        with pytest.raises(CsvParseError, match="row 1, column b"):
            read_csv(p)

    def test_column_not_in_header(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("date,a,b\n2020-01-01,1,2\n")
        for columns, name in ((["a", "x"], "x"), (["date"], "date")):
            with pytest.raises(CsvParseError) as exc:
                read_csv(p, date_col="date", columns=columns)
            assert str(exc.value) == f"no column named {name!r}; have ['a', 'b']"

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_clean_file_takes_the_fast_parse(self, tmp_path, monkeypatch, end):
        rng = np.random.default_rng(3)
        cols = {name: rng.standard_t(3.0, size=1000) * 10.0 ** rng.integers(-30, 30, size=1000) for name in "abc"}
        dates = [f" 2020-{i // 28 % 12 + 1:02d}-{i % 28 + 1:02d}T00:00 " for i in range(1000)]
        p = tmp_path / "t.csv"
        rows = zip(cols["a"].tolist(), dates, cols["b"].tolist(), cols["c"].tolist())
        lines = ["a,date,b,c"] + [f"{a!r},{d},{b!r},{c!r}" for a, d, b, c in rows]
        p.write_text(end.join(lines) + end, newline="")
        forbid_slow_paths(monkeypatch)
        for columns in SUBSETS:
            t = read_csv(p, date_col="date", columns=columns)
            assert t.names == tuple(n for n in "abc" if columns is None or n in columns)
            assert t.dates == tuple(d.strip() for d in dates)
            for name in t.names:
                assert_bitwise(t.column(name), cols[name])

    @pytest.mark.parametrize(
        "text",
        ["a,b", "a,b\n", "a,b\r\n", "a,b\r", "a,b\n\n", "a,b\r\n\r\n", "a,b\r\r", "a,b\n \n",
         "a,b\n\t\n\n", "a,b\n,\n", "a,b\r\n1,2\r\n", "a,b\r\n1,2\r\n\r\n", "a\n \n", "a\n\r\n1\n", " \n"],
    )
    def test_no_warning(self, tmp_path, text):
        p = tmp_path / "t.csv"
        p.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kwargs in ({}, {"columns": ["b"]}, {"date_col": "a"}):
                try:
                    read_csv(p, **kwargs)
                except CsvParseError:
                    pass

    def test_header_without_rows(self, tmp_path):
        for text in ("date,a,b", "date,a,b\r\n"):
            p = tmp_path / "t.csv"
            p.write_bytes(text.encode())
            t = read_csv(p, date_col="date", columns=["b"])
            assert t.names == ("b",) and t.n == 0 and t.dates == ()
            assert t.column("b").dtype == np.float64


class TestWriteTable:
    def test_cells_quoting_and_line_ends(self, tmp_path):
        p = tmp_path / "t.csv"
        rows = [("a,b", 0.1, np.int64(3)), ('say "hi"', np.nan, 7), ("c\rd", None, 0)]
        write_table(p, ["name", "value", "count"], rows)
        # a row holding a "\r" has every cell quoted
        assert p.read_bytes() == (
            b'name,value,count\n"a,b",0.10000000000000001,3\n"say ""hi""",,7\n"c\rd","","0"\n'
        )


class TestBuildLagged:
    def test_hand_construction(self):
        t = make_table(nox=[1.0, 2.0, 3.0], o3=[4.0, 5.0, 6.0])
        ds = build_lagged(t, LagSpec(L=1))
        np.testing.assert_allclose(ds.X, [[1.0, 4.0], [2.0, 5.0]])
        np.testing.assert_allclose(ds.Z, [[5.0], [6.0]])
        np.testing.assert_allclose(ds.y, [2.0, 3.0])

    def test_gap_day_drops_dependent_windows(self):
        t = make_table(nox=[1.0, np.nan, 3.0, 4.0, 5.0], o3=[1.0, 2.0, 3.0, 4.0, 5.0])
        ds = build_lagged(t, LagSpec(L=1))
        # windows for t=1 (y gap) and t=2 (x gap) are dropped
        assert ds.n == 2
        assert ds.n_dropped == 2

    def test_counting_oracle(self):
        rng = np.random.default_rng(1)
        n = 3650
        t = make_table(nox=rng.normal(size=n), o3=rng.normal(size=n))
        ds = build_lagged(t, LagSpec(L=7))
        assert ds.n == 3643
        assert ds.n_dropped == 0

    def test_feature_dimension_is_2l(self):
        rng = np.random.default_rng(2)
        t = make_table(nox=rng.normal(size=100), o3=rng.normal(size=100))
        for L in (1, 7, 28):
            assert build_lagged(t, LagSpec(L=L)).X.shape[1] == 2 * L

    def test_no_same_day_leakage(self):
        # x must only source days strictly before the target day: perturbing
        # day t's values must not change row t's features
        rng = np.random.default_rng(3)
        nox, o3 = rng.normal(size=30), rng.normal(size=30)
        base = build_lagged(make_table(nox=nox, o3=o3), LagSpec(L=3))
        nox2, o32 = nox.copy(), o3.copy()
        nox2[10] += 100.0
        o32[10] += 100.0
        bumped = build_lagged(make_table(nox=nox2, o3=o32), LagSpec(L=3))
        row = 10 - 3  # dataset row for target day 10
        np.testing.assert_array_equal(base.X[row], bumped.X[row])
        assert bumped.Z[row, 0] != base.Z[row, 0]

    def test_too_short(self):
        with pytest.raises(ValueError):
            build_lagged(make_table(nox=[1.0], o3=[2.0]), LagSpec(L=1))


class TestSplitChronological:
    def test_fraction_preserves_order(self):
        t = make_table(nox=np.arange(11, dtype=float), o3=np.arange(11, dtype=float))
        ds = build_lagged(t, LagSpec(L=1))  # 10 rows
        train, test = split_chronological(ds, fraction=0.7)
        assert train.n == 7 and test.n == 3
        assert train.y[-1] < test.y[0]

    def test_boundary_before_first_row(self):
        ds = dataset_from_table(
            RawTable(names=("a", "y"), columns={"a": np.arange(3.0), "y": np.arange(3.0)},
                     dates=("2020-01-01", "2020-01-02", "2020-01-03")),
            ["a"], [], "y",
        )
        with pytest.raises(ValueError):
            split_chronological(ds, boundary="2019-01-01")

    def test_date_boundary_counts(self):
        dates = tuple(f"2020-01-{d:02d}" for d in range(1, 11))
        ds = dataset_from_table(
            RawTable(names=("a", "y"), columns={"a": np.arange(10.0), "y": np.arange(10.0)}, dates=dates),
            ["a"], [], "y",
        )
        train, test = split_chronological(ds, boundary="2020-01-05")
        assert train.n == 4 and test.n == 6

    def test_exactly_one_selector(self):
        ds = dataset_from_table(make_table(a=[1.0, 2.0], y=[1.0, 2.0]), ["a"], [], "y")
        with pytest.raises(ValueError):
            split_chronological(ds)


@pytest.fixture(scope="module")
def fitted_model():
    X, Z, y = generate_linear(SyntheticConfig(n=500, seed=6))
    return fit_robust(X, Z, y, 0.1)


@pytest.fixture(scope="module")
def model_q2():
    rng = np.random.default_rng(16)
    Z = rng.standard_t(3.0, size=(400, 2))
    X = Z @ rng.normal(size=(2, 3)) + rng.normal(size=(400, 3))
    y = X @ rng.normal(size=3) + Z @ rng.normal(size=2) + 0.1 * rng.normal(size=400)
    return fit_robust(X, Z, y, 0.2)


class TestModelSerialization:
    def test_round_trip_predictions_bitwise(self, tmp_path, fitted_model):
        path = tmp_path / "m.txt"
        save_model(fitted_model, path)
        loaded, feature_map = load_model(path)
        assert feature_map == "none"
        rng = np.random.default_rng(7)
        X = rng.normal(size=(100, 3)) * 5.0
        np.testing.assert_array_equal(predict_robust(loaded, X), predict_robust(fitted_model, X))

    def test_truncated_file_rejected(self, tmp_path, fitted_model):
        path = tmp_path / "m.txt"
        save_model(fitted_model, path)
        text = path.read_text().splitlines()
        path.write_text("\n".join(text[:-2]) + "\n")
        with pytest.raises(ModelFormatError, match="truncated"):
            load_model(path)

    def test_future_version_rejected(self, tmp_path, fitted_model):
        path = tmp_path / "m.txt"
        save_model(fitted_model, path)
        path.write_text(path.read_text().replace("version=1", "version=2"))
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("format=something-else\nversion=1\nend=1\n")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_feature_map_round_trip(self, tmp_path, fitted_model):
        path = tmp_path / "m.txt"
        save_model(fitted_model, path, feature_map="quadratic")
        _, feature_map = load_model(path)
        assert feature_map == "quadratic"

    def test_unknown_feature_map_rejected(self, tmp_path, fitted_model):
        path = tmp_path / "m.txt"
        save_model(fitted_model, path)
        path.write_text(path.read_text().replace("feature_map=none", "feature_map=cubic"))
        with pytest.raises(ModelFormatError) as exc:
            load_model(path)
        assert str(exc.value) == f"{path}: unknown feature_map 'cubic'"

    @pytest.mark.parametrize("key, value", [("x_mean", None), ("y_mean", None), ("gate.b0", None), ("d", "x")])
    def test_bad_key_named_once(self, tmp_path, fitted_model, key, value):
        # value None drops the key's line, any other value replaces it
        path = tmp_path / "m.txt"
        save_model(fitted_model, path)
        lines = [ln for ln in path.read_text().splitlines() if ln.split("=")[0] != key]
        if value is not None:
            lines.append(f"{key}={value}")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError) as exc:
            load_model(path)
        error = "missing key" if value is None else "invalid value for"
        assert str(exc.value) == f"{path}: {error} {key}"

    @pytest.mark.parametrize("key", ["x_mean", "z_mean", "w_opt", "w_con", "gmat", "minv"])
    def test_array_of_wrong_length_rejected(self, tmp_path, model_q2, key):
        # drop the last number of the array (of every row, for a matrix)
        path = tmp_path / "m.txt"
        save_model(model_q2, path)
        lines = [
            ln.rsplit(" ", 1)[0] if ln.split("=")[0].split(".")[0] == key else ln
            for ln in path.read_text().splitlines()
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match=f"{key} has shape"):
            load_model(path)
