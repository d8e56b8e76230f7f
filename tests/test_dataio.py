import numpy as np
import pytest

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
