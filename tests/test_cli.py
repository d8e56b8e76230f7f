import csv
import warnings

import numpy as np
import pytest

from robustpred.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main


def run(*argv):
    return main(list(argv))


def simulate(tmp_path, n=800, n_test=2000, seed=1, extra=()):
    out = tmp_path / "sim"
    code = run(
        "simulate", "--process", "linear", "--rho", "0.7", "--nu-z", "3",
        "--n", str(n), "--n-test", str(n_test), "--seed", str(seed),
        "--out", str(out), *extra,
    )
    assert code == EXIT_OK
    return out


SCHEMA = ("--x-cols", "x1,x2,x3", "--z-cols", "z1", "--y-col", "y")


class TestSimulate:
    def test_writes_files_and_config_echo(self, tmp_path):
        out = simulate(tmp_path, n=1000)
        train = (out / "train.csv").read_text().splitlines()
        assert len(train) == 1001
        assert train[0] == "x1,x2,x3,z1,y"
        assert (out / "config_effective.txt").exists()

    def test_deterministic(self, tmp_path):
        a = simulate(tmp_path / "a")
        b = simulate(tmp_path / "b")
        assert (a / "train.csv").read_bytes() == (b / "train.csv").read_bytes()
        assert (a / "test.csv").read_bytes() == (b / "test.csv").read_bytes()

    def test_poly_has_two_missing_columns(self, tmp_path):
        out = tmp_path / "poly"
        code = run("simulate", "--process", "poly", "--w1", "0.1", "--n", "50",
                   "--seed", "2", "--out", str(out))
        assert code == EXIT_OK
        header = (out / "train.csv").read_text().splitlines()[0]
        assert header == "x1,x2,x3,z1,z2,y"

    def test_config_echo_replays(self, tmp_path):
        a = simulate(tmp_path / "a", n=200, n_test=100)
        assert run("simulate", "--config", str(a / "config_effective.txt"), "--out", str(tmp_path / "b")) == EXIT_OK
        for name in ("train.csv", "test.csv", "config_effective.txt"):
            assert (a / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("bogus-key=1\n")
        code = run("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("line", ["alpha=0.3", "z-bins=7", "n-runs=9"])
    def test_experiment_key_rejected(self, tmp_path, capsys, line):
        # settings of experiment, which simulate would not use
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n")
        assert run("simulate", "--config", str(cfg), "--out", str(tmp_path / "o")) == EXIT_VALIDATION
        assert line.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command,line",
        [("simulate", "out=elsewhere"), ("simulate", "config=other.cfg"),
         ("fit", "data=other.csv"), ("fit", "model-out=other.txt")],
    )
    def test_command_line_only_key_rejected(self, tmp_path, capsys, command, line):
        # the command line always gives these, so a file value would be ignored
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "o"
        paths = {"simulate": ("--out", str(out)),
                 "fit": ("--data", str(tmp_path / "train.csv"), "--model-out", str(out / "m.txt"))}
        assert run(command, "--config", str(cfg), *paths[command]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"c.cfg:1: {line.split('=')[0]} cannot be set in a config file" in err
        assert not out.exists() and not (tmp_path / "elsewhere").exists()

    @pytest.mark.parametrize("key", ["w0", "w1"])
    def test_poly_weight_rejected_for_linear_process(self, tmp_path, capsys, key):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key}=5\n")
        assert run("simulate", "--config", str(cfg), "--out", str(tmp_path / "o")) == EXIT_VALIDATION
        assert "--process poly" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestFit:
    def test_fit_report_and_model(self, tmp_path, capsys):
        out = simulate(tmp_path)
        code = run("fit", "--data", str(out / "train.csv"), *SCHEMA,
                   "--alpha", "0.1", "--model-out", str(tmp_path / "m" / "model.txt"))
        assert code == EXIT_OK
        report = capsys.readouterr().out
        assert "outliers" in report and "inliers" in report
        assert "converged=True" in report
        assert (tmp_path / "m" / "model.txt").exists()
        assert (tmp_path / "m" / "fit_report.txt").exists()

    def test_tiny_alpha_advisory_error(self, tmp_path, capsys):
        out = simulate(tmp_path, n=100)
        code = run("fit", "--data", str(out / "train.csv"), *SCHEMA,
                   "--alpha", "0.0001", "--model-out", str(tmp_path / "m.txt"))
        assert code == EXIT_VALIDATION
        assert "alpha" in capsys.readouterr().err

    def test_refit_identical_model_file(self, tmp_path):
        out = simulate(tmp_path)
        for sub in ("m1", "m2"):
            assert run("fit", "--data", str(out / "train.csv"), *SCHEMA,
                       "--alpha", "0.1", "--model-out", str(tmp_path / sub / "model.txt")) == EXIT_OK
        assert (tmp_path / "m1" / "model.txt").read_bytes() == (tmp_path / "m2" / "model.txt").read_bytes()

    def test_config_file_sets_fit_flags(self, tmp_path, capsys):
        out = simulate(tmp_path)
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("alpha=0.5\nfeature-map=quadratic\n")
        model = tmp_path / "m" / "model.txt"
        assert run("fit", "--config", str(cfg), "--data", str(out / "train.csv"), *SCHEMA,
                   "--model-out", str(model)) == EXIT_OK
        assert "alpha=0.5\n" in capsys.readouterr().out
        text = model.read_text()
        assert "\nalpha=0.5\n" in text and "\nfeature_map=quadratic\n" in text
        echoed = (model.parent / "config_effective.txt").read_text().splitlines()
        assert "alpha=0.5" in echoed and "feature-map=quadratic" in echoed

    def test_fit_flag_beats_config_file(self, tmp_path, capsys):
        out = simulate(tmp_path)
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("alpha=0.5\n")
        model = tmp_path / "m" / "model.txt"
        assert run("fit", "--config", str(cfg), "--data", str(out / "train.csv"), *SCHEMA,
                   "--alpha", "0.1", "--model-out", str(model)) == EXIT_OK
        assert "alpha=0.10000000000000001\n" in capsys.readouterr().out
        echoed = (model.parent / "config_effective.txt").read_text().splitlines()
        assert "alpha=0.1" in echoed and "alpha=0.5" not in echoed

    def test_config_echo_replays(self, tmp_path):
        out = simulate(tmp_path)
        first, second = tmp_path / "fit" / "model.txt", tmp_path / "fit2" / "model.txt"
        assert run("fit", "--data", str(out / "train.csv"), *SCHEMA, "--alpha", "0.2",
                   "--model-out", str(first)) == EXIT_OK
        echoed = first.parent / "config_effective.txt"
        # the given settings only: a default such as --nox-col would need --lag
        assert echoed.read_text() == "alpha=0.2\nx-cols=x1,x2,x3\ny-col=y\nz-cols=z1\n"
        assert run("fit", "--config", str(echoed), "--data", str(out / "train.csv"),
                   "--model-out", str(second)) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_missing_column_named(self, tmp_path, capsys):
        out = simulate(tmp_path)
        capsys.readouterr()
        assert run("fit", "--data", str(out / "train.csv"), "--x-cols", "x1,x9", "--z-cols", "z1",
                   "--y-col", "y", "--model-out", str(tmp_path / "m.txt")) == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: no column named 'x9'; have ['x1', 'x2', 'x3', 'z1', 'y']\n"

    def test_overflowing_column_named_without_warning(self, tmp_path, capsys):
        # finite cells whose squares overflow float64: one error that names the
        # moment block and the column, and no numpy RuntimeWarning before it
        out = simulate(tmp_path, n=300)
        rows = list(csv.reader((out / "train.csv").read_text().splitlines()))
        for row in rows[1:]:
            row[0] = repr(float(row[0]) * 1e200)
        with (tmp_path / "big.csv").open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run("fit", "--data", str(tmp_path / "big.csv"), *SCHEMA, "--model-out", str(tmp_path / "m.txt"))
        assert code == EXIT_VALIDATION
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == (
            "error: second moment sxx: the mean square of column x1 overflows float64; scale the data down\n"
        )

    @pytest.mark.parametrize("lag", [False, True])
    def test_overflowing_column_named_by_schema(self, tmp_path, capsys, lag):
        # z1 scaled by 1e200 is named; so is o3 under --lag, where the first
        # block to overflow is x and its first o3 column is lag 2
        out = simulate(tmp_path, n=300)
        rows = list(csv.reader((out / "train.csv").read_text().splitlines()))
        if lag:
            rows = [["nox", "o3"]] + [[row[4], repr(float(row[3]) * 1e200)] for row in rows[1:]]
            flags, where = ("--lag", "2"), "column o3_lag2"
        else:
            for row in rows[1:]:
                row[3] = repr(float(row[3]) * 1e200)
            flags, where = SCHEMA, "column z1"
        with (tmp_path / "big.csv").open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        capsys.readouterr()
        assert run("fit", "--data", str(tmp_path / "big.csv"), *flags, "--model-out", str(tmp_path / "m.txt")) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: second moment s") and f"the mean square of {where} overflows" in err, err

    def test_overflowing_squared_column_named_by_feature_map(self, tmp_path, capsys):
        # x1 scaled by 1e100 has a finite mean square; its square's overflows,
        # and the quadratic feature map names that column x1^2
        out = simulate(tmp_path, n=300)
        rows = list(csv.reader((out / "train.csv").read_text().splitlines()))
        for row in rows[1:]:
            row[0] = repr(float(row[0]) * 1e100)
        with (tmp_path / "big.csv").open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        capsys.readouterr()
        assert run("fit", "--data", str(tmp_path / "big.csv"), *SCHEMA, "--feature-map", "quadratic",
                   "--model-out", str(tmp_path / "m.txt")) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: second moment sxx: the mean square of column x1^2 overflows float64; scale the data down\n"
        )

    @pytest.mark.parametrize("where", ["body", "header"])
    def test_cell_over_the_csv_field_limit_is_one_error_line(self, tmp_path, capsys, where):
        # the csv module refuses a field over 131072 characters; the quote
        # sends the body to the cell loop
        long = '"' + "x" * 200_000 + '"'
        lines = ["a,b", f"1,{long}", "2,3"] if where == "body" else [f"a,{long}", "1,2"]
        (tmp_path / "big.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("fit", "--data", str(tmp_path / "big.csv"), "--x-cols", "a", "--z-cols", "a", "--y-col", "a",
                   "--model-out", str(tmp_path / "m.txt")) == EXIT_VALIDATION
        err = capsys.readouterr().err
        row = "row 1" if where == "body" else "header row"
        assert err.startswith(f"error: {tmp_path / 'big.csv'}: {row}: field larger than field limit"), err
        assert err.count("\n") == 1

    def test_linalg_failure_exits_numerical(self, tmp_path, capsys, monkeypatch):
        import robustpred.cli as cli

        def singular(*args):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(cli, "fit_robust", singular)
        out = simulate(tmp_path)
        capsys.readouterr()
        assert run("fit", "--data", str(out / "train.csv"), *SCHEMA,
                   "--model-out", str(tmp_path / "m.txt")) == EXIT_NUMERICAL
        assert capsys.readouterr().err == "numerical error: singular matrix\n"

    @pytest.mark.parametrize("bad", ["data-is-a-directory", "model-out-under-a-file"])
    def test_unusable_path_is_one_error_line(self, tmp_path, capsys, bad):
        out = simulate(tmp_path)
        (tmp_path / "a_file").write_text("")
        data = out if bad == "data-is-a-directory" else out / "train.csv"
        model = tmp_path / "a_file" / "model.txt" if bad == "model-out-under-a-file" else tmp_path / "m.txt"
        capsys.readouterr()
        assert run("fit", "--data", str(data), *SCHEMA, "--model-out", str(model)) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["fit", "predict", "evaluate"])
    def test_output_under_a_file_fails_before_any_work(self, tmp_path, capsys, monkeypatch, command):
        import robustpred.cli as cli

        out = simulate(tmp_path)
        model = tmp_path / "model.txt"
        assert run("fit", "--data", str(out / "train.csv"), *SCHEMA, "--model-out", str(model)) == EXIT_OK
        calls = []

        def counting(fn):
            def wrapped(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(cli, "fit_robust", counting(cli.fit_robust))
        for name in ("read_csv", "load_model"):
            monkeypatch.setattr(cli.dataio, name, counting(getattr(cli.dataio, name)))
        (tmp_path / "a_file").write_text("")
        bad = str(tmp_path / "a_file" / "out.txt")
        argv = {
            "fit": ("--data", str(out / "train.csv"), *SCHEMA, "--model-out", bad),
            "predict": ("--model", str(model), "--data", str(out / "test.csv"), "--x-cols", "x1,x2,x3", "--out", bad),
            "evaluate": ("--model", str(model), "--data", str(out / "test.csv"), *SCHEMA, "--out", bad),
        }[command]
        capsys.readouterr()
        assert run(command, *argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert calls == []

    def test_unknown_fit_config_key(self, tmp_path, capsys):
        out = simulate(tmp_path)
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("alhpa=0.5\n")
        assert run("fit", "--config", str(cfg), "--data", str(out / "train.csv"), *SCHEMA,
                   "--model-out", str(tmp_path / "m.txt")) == EXIT_VALIDATION
        assert "alhpa" in capsys.readouterr().err

    def test_config_file_sets_lag_columns(self, tmp_path):
        rng = np.random.default_rng(14)
        from robustpred.dataio import write_csv

        data = tmp_path / "daily.csv"
        write_csv(data, ["no_x", "ozone"], {"no_x": rng.normal(size=300), "ozone": rng.normal(size=300)})
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("nox-col=no_x\no3-col=ozone\nalpha=0.3\n")
        model = tmp_path / "m" / "model.txt"
        assert run("fit", "--config", str(cfg), "--data", str(data), "--lag", "3",
                   "--model-out", str(model)) == EXIT_OK
        assert "n=297 d=6 q=1 alpha=0.29999999999999999" in (model.parent / "fit_report.txt").read_text()


class TestFlagRules:
    @pytest.fixture()
    def daily(self, tmp_path):
        from robustpred.dataio import write_csv

        rng = np.random.default_rng(15)
        data = tmp_path / "daily.csv"
        write_csv(data, ["nox", "o3"], {"nox": rng.normal(size=300), "o3": rng.normal(size=300)})
        return data

    @pytest.mark.parametrize("flag,value", [("--x-cols", "nox"), ("--z-cols", "o3"), ("--y-col", "nox")])
    def test_lag_rejects_column_flags(self, tmp_path, capsys, daily, flag, value):
        model = tmp_path / "m" / "model.txt"
        assert run("fit", "--data", str(daily), "--lag", "3", flag, value,
                   "--model-out", str(model)) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "--lag" in err and flag in err
        assert not model.exists()

    @pytest.mark.parametrize("flag", ["--nox-col", "--o3-col"])
    def test_lag_column_flags_need_lag(self, tmp_path, capsys, flag):
        out = simulate(tmp_path)
        model = tmp_path / "m" / "model.txt"
        assert run("fit", "--data", str(out / "train.csv"), *SCHEMA, flag, "foo",
                   "--model-out", str(model)) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "--lag" in err and flag in err
        assert not model.exists()

    @pytest.mark.parametrize(
        "command,flag,value",
        [("simulate", "--n", "0"), ("simulate", "--n-test", "-5"), ("fit", "--lag", "0"),
         ("experiment", "--z-bins", "0"), ("experiment", "--z-bins", "-1"),
         ("experiment", "--n-test", "0"), ("experiment", "--n-train", "0"),
         ("experiment", "--n-runs", "0")],
    )
    def test_counts_must_be_positive(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "o"
        # small valid settings first; the bad count, given last, wins
        base = {
            "simulate": ("--n", "50", "--out", str(out)),
            "fit": ("--data", str(simulate(tmp_path) / "train.csv"), *SCHEMA, "--model-out", str(out / "m.txt")),
            "experiment": ("--n-train", "100", "--n-test", "500", "--n-runs", "1", "--out", str(out)),
        }[command]
        capsys.readouterr()
        assert run(command, *base, flag, value) == EXIT_VALIDATION
        assert f"argument {flag}: must be an integer" in capsys.readouterr().err
        assert not out.exists()


class TestEvaluate:
    @pytest.fixture()
    def fitted(self, tmp_path):
        out = simulate(tmp_path)
        model = tmp_path / "model.txt"
        assert run("fit", "--data", str(out / "train.csv"), *SCHEMA,
                   "--alpha", "0.1", "--model-out", str(model)) == EXIT_OK
        return out, model

    def test_report_shape_and_identity(self, tmp_path, fitted):
        out, model = fitted
        report = tmp_path / "report.csv"
        assert run("evaluate", "--model", str(model), "--data", str(out / "test.csv"),
                   *SCHEMA, "--out", str(report)) == EXIT_OK
        lines = report.read_text().splitlines()
        assert lines[0].startswith("predictor,mse,")
        assert [l.split(",")[0] for l in lines[1:]] == ["optimistic", "conservative", "robust"]
        for line in lines[1:]:
            _, mse, mse_in, mse_out, n_in, n_out, *_ = line.split(",")
            recombined = (int(n_in) * float(mse_in) + int(n_out) * float(mse_out)) / (int(n_in) + int(n_out))
            assert float(mse) == pytest.approx(recombined, abs=1e-10)

    def test_identical_reports(self, tmp_path, fitted):
        out, model = fitted
        for name in ("r1.csv", "r2.csv"):
            assert run("evaluate", "--model", str(model), "--data", str(out / "test.csv"),
                       *SCHEMA, "--out", str(tmp_path / name)) == EXIT_OK
        assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()

    def test_schema_mismatch(self, tmp_path, fitted):
        out, model = fitted
        code = run("evaluate", "--model", str(model), "--data", str(out / "test.csv"),
                   "--x-cols", "x1,x2", "--z-cols", "z1", "--y-col", "y",
                   "--out", str(tmp_path / "r.csv"))
        assert code == EXIT_VALIDATION

    def test_reports_dropped_gap_rows(self, tmp_path, fitted, capsys):
        out, model = fitted
        lines = (out / "test.csv").read_text().splitlines(keepends=True)
        lines[5] = "," + lines[5].split(",", 1)[1]  # empty x1 cell: a gap row
        data = tmp_path / "gappy.csv"
        data.write_text("".join(lines))
        capsys.readouterr()
        assert run("evaluate", "--model", str(model), "--data", str(data),
                   *SCHEMA, "--out", str(tmp_path / "r.csv")) == EXIT_OK
        assert "dropped rows: 1\n" in capsys.readouterr().out

    def test_feature_map_flag_rejected(self, tmp_path, fitted, capsys):
        # the model file alone names the feature map: naming it again, even
        # as the model's own "none", is an argparse error
        out, model = fitted
        capsys.readouterr()
        for name in ("quadratic", "none"):
            assert run("evaluate", "--model", str(model), "--data", str(out / "test.csv"), *SCHEMA,
                       "--feature-map", name, "--out", str(tmp_path / "r.csv")) == EXIT_VALIDATION
            assert "unrecognized arguments: --feature-map" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()


class TestPredict:
    def test_predictions_with_gate_columns(self, tmp_path):
        out = simulate(tmp_path)
        model = tmp_path / "model.txt"
        assert run("fit", "--data", str(out / "train.csv"), *SCHEMA,
                   "--alpha", "0.1", "--model-out", str(model)) == EXIT_OK
        preds = tmp_path / "preds.csv"
        assert run("predict", "--model", str(model), "--data", str(out / "test.csv"),
                   "--x-cols", "x1,x2,x3", "--out", str(preds)) == EXIT_OK
        lines = preds.read_text().splitlines()
        assert lines[0] == "prediction,p_outlier,delta"
        assert len(lines) == 2001
        p = float(lines[1].split(",")[1])
        assert 0.0 < p < 1.0


    def test_gap_in_x_fails_with_row_and_column(self, tmp_path, capsys):
        out = simulate(tmp_path)
        model = tmp_path / "model.txt"
        assert run("fit", "--data", str(out / "train.csv"), *SCHEMA,
                   "--alpha", "0.1", "--model-out", str(model)) == EXIT_OK
        lines = (out / "test.csv").read_text().splitlines()
        cells = lines[3].split(",")
        cells[0] = ""
        lines[3] = ",".join(cells)
        data = tmp_path / "gappy.csv"
        data.write_text("\n".join(lines) + "\n")
        preds = tmp_path / "preds.csv"
        code = run("predict", "--model", str(model), "--data", str(data),
                   "--x-cols", "x1,x2,x3", "--out", str(preds))
        assert code == EXIT_VALIDATION
        assert "row 3, column x1" in capsys.readouterr().err
        assert not preds.exists()

    def test_reads_only_its_x_cols(self, tmp_path):
        # a non-numeric cell in a column predict does not read changes nothing
        out = simulate(tmp_path)
        model = tmp_path / "model.txt"
        assert run("fit", "--data", str(out / "train.csv"), *SCHEMA, "--model-out", str(model)) == EXIT_OK
        lines = (out / "test.csv").read_text().splitlines()
        for i in (1, 7):
            cells = lines[i].split(",")
            cells[3] = "oops"
            lines[i] = ",".join(cells)
        data = tmp_path / "bad_z.csv"
        data.write_text("\n".join(lines) + "\n")
        for name, path in (("clean", out / "test.csv"), ("bad_z", data)):
            assert run("predict", "--model", str(model), "--data", str(path),
                       "--x-cols", "x1,x2,x3", "--out", str(tmp_path / "preds" / f"{name}.csv")) == EXIT_OK
        assert (tmp_path / "preds" / "clean.csv").read_bytes() == (tmp_path / "preds" / "bad_z.csv").read_bytes()

    def test_date_col_absent_from_header(self, tmp_path, capsys):
        out = simulate(tmp_path)
        model = tmp_path / "model.txt"
        assert run("fit", "--data", str(out / "train.csv"), *SCHEMA, "--model-out", str(model)) == EXIT_OK
        capsys.readouterr()
        code = run("predict", "--model", str(model), "--data", str(out / "test.csv"), "--x-cols", "x1,x2,x3",
                   "--date-col", "when", "--out", str(tmp_path / "preds.csv"))
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {out / 'test.csv'}: no date column 'when' in the header\n"

    def test_date_col_skipped_by_the_all_columns_default(self, tmp_path):
        # without --x-cols predict reads every column but --date-col; a
        # leading date column, in any text, changes no byte of the predictions
        out = simulate(tmp_path)
        model = tmp_path / "model.txt"
        assert run("fit", "--data", str(out / "train.csv"), *SCHEMA, "--model-out", str(model)) == EXIT_OK
        with open(out / "test.csv", newline="") as fh:
            rows = [r[:3] for r in csv.reader(fh)]
        dated = [["day", *rows[0]]] + [[f"{i} mars", *r] for i, r in enumerate(rows[1:])]
        for name, table in (("plain", rows), ("dated", dated)):
            with open(tmp_path / f"{name}.csv", "w", newline="") as fh:
                csv.writer(fh).writerows(table)
        assert run("predict", "--model", str(model), "--data", str(tmp_path / "plain.csv"),
                   "--out", str(tmp_path / "plain_preds.csv")) == EXIT_OK
        assert run("predict", "--model", str(model), "--data", str(tmp_path / "dated.csv"), "--date-col", "day",
                   "--out", str(tmp_path / "dated_preds.csv")) == EXIT_OK
        assert (tmp_path / "plain_preds.csv").read_bytes() == (tmp_path / "dated_preds.csv").read_bytes()

    def test_no_data_rows(self, tmp_path, capsys):
        out = simulate(tmp_path)
        model = tmp_path / "model.txt"
        assert run("fit", "--data", str(out / "train.csv"), *SCHEMA, "--model-out", str(model)) == EXIT_OK
        data = tmp_path / "empty.csv"
        data.write_text("x1,x2,x3\n")
        preds = tmp_path / "preds.csv"
        capsys.readouterr()
        assert run("predict", "--model", str(model), "--data", str(data), "--out", str(preds)) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {data}: no data rows\n"
        assert not preds.exists()


class TestExperiment:
    def test_outputs_and_determinism(self, tmp_path):
        args = ("experiment", "--process", "linear", "--n-train", "100",
                "--n-test", "3000", "--n-runs", "4", "--alpha", "0.1", "--seed", "9")
        for sub in ("e1", "e2"):
            assert run(*args, "--out", str(tmp_path / sub)) == EXIT_OK
        for fname in ("delta_table.csv", "per_run.csv", "curves.csv", "config_effective.txt"):
            assert (tmp_path / "e1" / fname).exists()
            assert (tmp_path / "e1" / fname).read_bytes() == (tmp_path / "e2" / fname).read_bytes()

    def test_delta_table_has_three_predictors(self, tmp_path):
        assert run("experiment", "--n-train", "100", "--n-test", "2000", "--n-runs", "2",
                   "--alpha", "0.1", "--seed", "10", "--out", str(tmp_path / "e")) == EXIT_OK
        lines = (tmp_path / "e" / "delta_table.csv").read_text().splitlines()
        assert [l.split(",")[0] for l in lines[1:]] == ["optimistic", "conservative", "robust"]
        base = lines[1].split(",")[1:]
        assert all(float(v) == 0.0 for v in base)

    def test_single_run_quartiles_equal_value(self, tmp_path):
        assert run("experiment", "--n-train", "200", "--n-test", "2000", "--n-runs", "1",
                   "--alpha", "0.1", "--seed", "11", "--out", str(tmp_path / "e")) == EXIT_OK
        lines = (tmp_path / "e" / "delta_table.csv").read_text().splitlines()
        cells = lines[2].split(",")  # conservative row
        assert cells[1] == cells[2] == cells[3] == cells[4]

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("process=linear\nrho=0.5\nn-train=100\nn-test=2000\nn-runs=2\nalpha=0.1\nseed=12\n")
        assert run("experiment", "--config", str(cfg), "--rho", "0.7",
                   "--out", str(tmp_path / "e")) == EXIT_OK
        echoed = (tmp_path / "e" / "config_effective.txt").read_text()
        assert "rho=0.7" in echoed

    def test_config_echo_replays(self, tmp_path):
        first, second = tmp_path / "e1", tmp_path / "e2"
        assert run("experiment", "--n-train", "100", "--n-test", "1000", "--n-runs", "2",
                   "--z-bins", "12", "--seed", "13", "--out", str(first)) == EXIT_OK
        assert run("experiment", "--config", str(first / "config_effective.txt"), "--out", str(second)) == EXIT_OK
        for name in ("delta_table.csv", "per_run.csv", "curves.csv", "config_effective.txt"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_simulate_key_n_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n=500\n")
        assert run("experiment", "--config", str(cfg), "--n-runs", "1", "--n-test", "100",
                   "--out", str(tmp_path / "e")) == EXIT_VALIDATION
        assert "--n=500" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    def test_prefix_of_a_flag_rejected(self, tmp_path, capsys):
        # argparse would take "alph" for "alpha" by prefix matching
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("alph=0.5\n")
        base = ("experiment", "--n-runs", "1", "--n-test", "100", "--out", str(tmp_path / "e"))
        for extra in (("--config", str(cfg)), ("--alph", "0.5")):
            assert run(*base, *extra) == EXIT_VALIDATION
            assert "--alph" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("command", ["experiment", "fit"])
    @pytest.mark.parametrize("alpha", ["0", "-0.5", "1.5", "nan"])
    def test_bad_alpha_rejected_before_any_work(self, tmp_path, capsys, monkeypatch, command, alpha):
        import robustpred.cli as cli

        calls = []
        monkeypatch.setattr(cli.evalkit, "run_mc_experiment", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(cli, "fit_robust", lambda *a: calls.append(a))
        out = tmp_path / "e"
        if command == "experiment":
            argv = ("experiment", "--n-runs", "2", "--n-test", "100", "--out", str(out))
        else:
            argv = ("fit", "--data", str(tmp_path / "absent.csv"), *SCHEMA, "--model-out", str(out / "m.txt"))
        assert run(*argv, "--alpha", alpha) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == f"error: argument --alpha: must be in (0, 1], got {float(alpha)}\n"
        assert calls == [] and not out.exists()

    def test_no_completed_run_fails_loudly(self, tmp_path, capsys):
        out = tmp_path / "e"
        # alpha so small that no training sample holds a tail row
        assert run("experiment", "--n-runs", "3", "--n-test", "1000", "--alpha", "0.0001",
                   "--out", str(out)) == EXIT_VALIDATION
        assert f"error: no run completed; reasons in {out / 'failed_runs.csv'}" in capsys.readouterr().err
        failed = (out / "failed_runs.csv").read_text().splitlines()
        assert failed[0] == "run,reason" and [l.split(",")[0] for l in failed[1:]] == ["0", "1", "2"]
        assert not (out / "delta_table.csv").exists()

    def test_per_run_names_monte_carlo_runs(self, tmp_path):
        from robustpred.datagen import SyntheticConfig
        from robustpred.evalkit import run_mc_experiment

        out = tmp_path / "e"
        assert run("experiment", "--n-runs", "12", "--n-test", "500", "--seed", "1",
                   "--out", str(out)) == EXIT_OK
        with open(out / "failed_runs.csv", newline="") as fh:
            failed = {int(r[0]) for r in list(csv.reader(fh))[1:]}
        with open(out / "per_run.csv", newline="") as fh:
            per_run = list(csv.reader(fh))[1:]
        assert failed == {6, 10}  # single-class training samples at this seed
        assert {int(r[0]) for r in per_run} == set(range(12)) - failed
        # run i's deltas are the last ones of the experiment that stops after run i
        for run_index, name, d_in, d_out in per_run:
            table, _ = run_mc_experiment(SyntheticConfig(seed=1), 100, 500, int(run_index) + 1, 0.1)
            row = table.row(name)
            assert (float(d_in), float(d_out)) == (row.delta_in_runs[-1], row.delta_out_runs[-1])

    def test_failed_run_reason_is_quoted(self, tmp_path, monkeypatch):
        import robustpred.evalkit as evalkit

        reason = 'gate failed: b0, b1 "diverged"'

        def failing_fit(*args):
            raise ValueError(reason)

        monkeypatch.setattr(evalkit, "fit_robust", failing_fit)
        out = tmp_path / "e"
        assert run("experiment", "--n-runs", "3", "--n-test", "100", "--out", str(out)) == EXIT_VALIDATION
        with open(out / "failed_runs.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["run", "reason"], ["0", reason], ["1", reason], ["2", reason]]

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_z_bins_rejected_for_poly_process(self, tmp_path, capsys, source):
        out = tmp_path / "e"
        base = ("experiment", "--process", "poly", "--n-runs", "1", "--n-test", "200", "--out", str(out))
        if source == "flag":
            extra = ("--z-bins", "7")
        else:
            cfg = tmp_path / "exp.cfg"
            cfg.write_text("z-bins=7\n")
            extra = ("--config", str(cfg))
        assert run(*base, *extra) == EXIT_VALIDATION
        assert "--z-bins applies only to --process linear" in capsys.readouterr().err
        assert not out.exists()

    def test_poly_process_without_curves(self, tmp_path):
        out = tmp_path / "e"
        assert run("experiment", "--process", "poly", "--n-runs", "2", "--n-test", "2000",
                   "--seed", "1", "--out", str(out)) == EXIT_OK
        assert (out / "delta_table.csv").exists() and not (out / "curves.csv").exists()
        assert "z-bins" not in (out / "config_effective.txt").read_text()

    def test_unparsable_config_value_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("alpha=abc\n")
        assert run("experiment", "--config", str(cfg), "--out", str(tmp_path / "e")) == EXIT_VALIDATION
        assert "--alpha" in capsys.readouterr().err


class TestLaggedPipeline:
    def test_csv_lag_fit_evaluate(self, tmp_path):
        rng = np.random.default_rng(13)
        n = 400
        o3 = rng.normal(size=n)
        nox = np.zeros(n)
        for t in range(1, n):
            nox[t] = 0.6 * nox[t - 1] + 0.3 * o3[t] + 0.2 * rng.normal()
        from robustpred.dataio import write_csv

        data = tmp_path / "daily.csv"
        write_csv(data, ["nox", "o3"], {"nox": nox, "o3": o3})
        model = tmp_path / "model.txt"
        assert run("fit", "--data", str(data), "--lag", "7", "--alpha", "0.3",
                   "--model-out", str(model)) == EXIT_OK
        report = tmp_path / "report.csv"
        assert run("evaluate", "--model", str(model), "--data", str(data),
                   "--lag", "7", "--out", str(report)) == EXIT_OK
        lines = report.read_text().splitlines()
        assert len(lines) == 4


class TestUsageErrors:
    """A bad flag, flag value or setting is one ``error:`` line and exit 2."""

    @pytest.mark.parametrize(
        "argv,flag",
        [(("experiment", "--alpha", "0"), "--alpha"), (("experiment", "--n-runs", "0"), "--n-runs"),
         (("experiment", "--bogus", "1"), "--bogus"), (("simulate", "--n-test", "x"), "--n-test"),
         (("fit", "--date-col", "x", "--data", "d.csv", "--x-cols", "a", "--z-cols", "b", "--y-col", "c"),
          "--date-col"),
         (("evaluate", "--date-col", "x", "--model", "m.txt", "--data", "d.csv", "--lag", "2"), "--date-col")],
    )
    def test_argparse_error_is_one_line(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "o"
        paths = {"fit": ("--model-out", str(out / "m.txt"))}.get(argv[0], ("--out", str(out)))
        assert run(*argv, *paths) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and flag in err, err
        assert not out.exists()

    def test_config_key_error_is_one_line(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("out=elsewhere\n")
        assert run("simulate", "--config", str(cfg), "--out", str(tmp_path / "o")) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == f"error: {cfg}:1: out cannot be set in a config file; give --out on the command line\n"

    def test_help_unchanged(self, capsys):
        assert run("experiment", "--help") == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("usage: robustpred experiment [-h]") and "--n-runs N_RUNS" in out

    @pytest.mark.parametrize("command", ["simulate", "experiment"])
    @pytest.mark.parametrize("flag,name", [("--nu-z", "nu_z"), ("--nu-u", "nu_u")])
    @pytest.mark.parametrize("dof", ["1", "1.5", "2"])
    def test_dof_without_a_variance_rejected(self, tmp_path, capsys, command, flag, name, dof):
        # --rho is the correlation of z and x only when both t draws have a variance
        out = tmp_path / "o"
        size = ("--n-runs", "1") if command == "experiment" else ("--n", "50")
        assert run(command, flag, dof, *size, "--out", str(out)) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == f"error: {name} must be > 2 so that the t draw has a variance, got {float(dof)}\n"
        assert not out.exists()
