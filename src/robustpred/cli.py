"""Command-line interface: simulate | fit | predict | evaluate | experiment.

Every command is deterministic given its effective configuration, which is
echoed into the output directory as ``config_effective.txt`` for
reproducibility. Config files are flat ``key=value`` text; a flag given on
the command line overrides the file's value, which overrides the default.

Exit codes: 0 success, 2 validation/usage failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import dataio, evalkit
from .datagen import PolyConfig, SyntheticConfig, feature_map_quadratic, generate_linear, generate_poly
from .dataio import CsvParseError, LagSpec, ModelFormatError, fmt_float
from .gate import SingleClassError, is_outlier
from .linalg import ShapeError, ValidationError
from .robust import fit_robust, predict_parts

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

# defaults of the dataset-schema flags shared by fit and evaluate
SCHEMA_DEFAULTS = {"feature-map": "none", "nox-col": "nox", "o3-col": "o3"}
FIT_KEYS = {
    "data", "model-out", "alpha", "x-cols", "z-cols", "y-col", "lag", "nox-col",
    "o3-col", "date-col", "feature-map",
}
FEATURE_MAPS = ("none", "quadratic")


def _read_config_file(path) -> dict:
    cfg = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, val = line.split("=", 1)
        cfg[key.strip()] = val.strip()
    return cfg


def _effective_config(args, defaults=None) -> dict:
    """Merge the flags given on the command line over config-file values over
    ``defaults``. Flags default to None, so None means "not given"."""
    merged = dict(defaults or {})
    if getattr(args, "config", None):
        merged.update(_read_config_file(args.config))
    for key, val in vars(args).items():
        if key in ("config", "func", "subcommand") or val is None:
            continue
        merged[key.replace("_", "-")] = val
    return merged


def _reject_unknown(merged, known) -> None:
    unknown = sorted(set(merged) - known)
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(unknown)}")


def _echo_config(out_dir: Path, merged: dict) -> None:
    # path-valued keys are excluded so reruns into another directory stay
    # byte-identical
    out_dir.mkdir(parents=True, exist_ok=True)
    skip = {"out", "model-out", "data", "model"}
    lines = [f"{k}={v}" for k, v in sorted(merged.items()) if k not in skip]
    (out_dir / "config_effective.txt").write_text("\n".join(lines) + "\n")


def _get(merged, key, cast, default):
    if key in merged and merged[key] is not None:
        return cast(merged[key])
    return default


def _synthetic_config(merged) -> SyntheticConfig:
    process = _get(merged, "process", str, "linear")
    known = {
        "process", "rho", "nu-z", "nu-u", "noise-x-var", "noise-y-var",
        "n", "n-test", "n-train", "n-runs", "seed", "alpha", "w1", "w0",
        "out", "z-bins",
    }
    _reject_unknown(merged, known)
    common = dict(
        rho=_get(merged, "rho", float, 0.7),
        nu_z=_get(merged, "nu-z", float, 3.0 if process == "linear" else 5.0),
        nu_u=_get(merged, "nu-u", float, 3.0 if process == "linear" else 5.0),
        noise_x_var=_get(merged, "noise-x-var", float, 0.01),
        noise_y_var=_get(merged, "noise-y-var", float, 0.01),
        n=_get(merged, "n", int, 1000),
        seed=_get(merged, "seed", int, 0),
    )
    if process == "linear":
        return SyntheticConfig(**common)
    if process == "poly":
        w0 = _get(merged, "w0", float, 1.0)
        w1 = _get(merged, "w1", float, 0.1)
        return PolyConfig(wz=(w0, w1), **common)
    raise ValidationError(f"unknown process {process!r} (expected linear or poly)")


def _write_dataset_csv(path, X, Z, y):
    names = [f"x{j + 1}" for j in range(X.shape[1])] + [
        f"z{j + 1}" for j in range(Z.shape[1])
    ] + ["y"]
    cols = {f"x{j + 1}": X[:, j] for j in range(X.shape[1])}
    cols.update({f"z{j + 1}": Z[:, j] for j in range(Z.shape[1])})
    cols["y"] = y
    dataio.write_csv(path, names, cols)


def cmd_simulate(args) -> int:
    merged = _effective_config(args)
    cfg = _synthetic_config(merged)
    out = Path(args.out)
    _echo_config(out, merged)
    gen = generate_poly if isinstance(cfg, PolyConfig) else generate_linear
    X, Z, y = gen(cfg)
    Z = np.atleast_2d(Z) if Z.ndim == 2 else Z[:, None]
    _write_dataset_csv(out / "train.csv", X, Z, y)
    n_test = _get(merged, "n-test", int, 0)
    if n_test > 0:
        from dataclasses import replace

        X, Z, y = gen(replace(cfg, n=n_test, seed=cfg.seed + 1))
        _write_dataset_csv(out / "test.csv", X, Z, y)
    print(f"wrote {out / 'train.csv'} ({cfg.n} rows)" + (f" and test.csv ({n_test} rows)" if n_test > 0 else ""))
    return EXIT_OK


def _load_dataset(merged):
    """Read a CSV and assemble (X_raw, Z, y) per the schema settings."""
    table = dataio.read_csv(merged["data"], date_col=merged.get("date-col"))
    lag = _get(merged, "lag", int, None)
    if lag:
        spec = LagSpec(L=lag, nox_column=merged["nox-col"], o3_column=merged["o3-col"])
        ds = dataio.build_lagged(table, spec)
    else:
        x_cols, z_cols, y_col = (merged.get(k) for k in ("x-cols", "z-cols", "y-col"))
        if not (x_cols and z_cols and y_col):
            raise ValidationError("--x-cols, --z-cols and --y-col are required without --lag")
        ds = dataio.dataset_from_table(table, x_cols.split(","), z_cols.split(","), y_col)
    if merged["feature-map"] not in FEATURE_MAPS:
        raise ValidationError(f"unknown feature map {merged['feature-map']!r}")
    X = feature_map_quadratic(ds.X) if merged["feature-map"] == "quadratic" else ds.X
    return X, ds.Z, ds.y, ds


def cmd_fit(args) -> int:
    merged = _effective_config(args, {**SCHEMA_DEFAULTS, "alpha": 0.1})
    _reject_unknown(merged, FIT_KEYS)
    alpha = merged["alpha"] = float(merged["alpha"])
    X, Z, y, ds = _load_dataset(merged)
    model = fit_robust(X, Z, y, alpha)
    model_path = Path(args.model_out)
    model_path.parent.mkdir(parents=True, exist_ok=True)
    dataio.save_model(model, model_path, feature_map=merged["feature-map"])
    _echo_config(model_path.parent, merged)

    n_out = int(np.sum(is_outlier(model.region, Z)))
    report = [
        f"n={X.shape[0]} d={X.shape[1]} q={Z.shape[1]} alpha={fmt_float(alpha)}",
        f"labels: {n_out} outliers, {X.shape[0] - n_out} inliers",
        f"gate: b0={fmt_float(model.gate.b0)} b1={fmt_float(model.gate.b1)}"
        f" converged={model.gate.converged} cross_entropy={fmt_float(model.gate.cross_entropy)}",
        f"constraint residual: {fmt_float(model.w_con.constraint_residual)}"
        + (" (infeasible)" if model.w_con.constraint_infeasible else ""),
        f"dropped rows: {ds.n_dropped}",
    ]
    if model.gate.kappa is not None:
        report.insert(3, f"gate (slope-midpoint form): kappa={fmt_float(model.gate.kappa)} delta0={fmt_float(model.gate.delta0)}")
    text = "\n".join(report)
    (model_path.parent / "fit_report.txt").write_text(text + "\n")
    print(text)
    print(f"model written to {model_path}")
    return EXIT_OK


def cmd_predict(args) -> int:
    model, feature_map = dataio.load_model(args.model)
    table = dataio.read_csv(args.data, date_col=args.date_col)
    x_cols = args.x_cols.split(",") if args.x_cols else list(table.names)
    X = np.column_stack([table.column(c) for c in x_cols])
    gaps = np.argwhere(~np.isfinite(X))
    if gaps.size:
        r, c = gaps[0]
        raise CsvParseError(f"{args.data}: missing or non-finite cell at row {r + 1}, column {x_cols[c]}")
    if feature_map == "quadratic":
        X = feature_map_quadratic(X)
    yhat, p, delta = predict_parts(model, X)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    dataio.write_csv(out, ["prediction", "p_outlier", "delta"], {"prediction": yhat, "p_outlier": p, "delta": delta})
    print(f"wrote {out} ({X.shape[0]} rows)")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    model, feature_map = dataio.load_model(args.model)
    merged = _effective_config(args, SCHEMA_DEFAULTS)
    merged["feature-map"] = feature_map
    X, Z, y, _ = _load_dataset(merged)
    if X.shape[1] != model.x_mean.shape[0] or Z.shape[1] != model.z_mean.shape[0]:
        raise ShapeError(
            f"test schema ({X.shape[1]}, {Z.shape[1]}) does not match model "
            f"dimensions ({model.x_mean.shape[0]}, {model.z_mean.shape[0]})"
        )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = ["predictor,mse,mse_inlier,mse_outlier,n_inlier,n_outlier,delta_inlier_pct,delta_outlier_pct"]
    rows, _ = evalkit.compare_predictors(model, X, Z, y)
    for name, rep, d_in, d_out in rows:
        def f(v):
            return fmt_float(v) if v is not None and not np.isnan(v) else ""

        lines.append(
            f"{name},{f(rep.mse)},{f(rep.mse_in)},{f(rep.mse_out)},"
            f"{rep.n_in},{rep.n_out},{f(d_in)},{f(d_out)}"
        )
    out.write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK


def cmd_experiment(args) -> int:
    merged = _effective_config(args)
    cfg = _synthetic_config(merged)
    alpha = _get(merged, "alpha", float, 0.1)
    n_train = _get(merged, "n-train", int, 100)
    n_test = _get(merged, "n-test", int, 100000)
    n_runs = _get(merged, "n-runs", int, 50)
    n_bins = _get(merged, "z-bins", int, 48)
    out = Path(args.out)
    _echo_config(out, merged)

    q = 2 if isinstance(cfg, PolyConfig) else 1
    edges = np.linspace(-12.0, 12.0, n_bins + 1) if q == 1 else None
    table, curves = evalkit.run_mc_experiment(
        cfg, n_train, n_test, n_runs, alpha, z_bin_edges=edges
    )

    lines = [
        "predictor,mean_delta_inlier_pct,q25_inlier,median_inlier,q75_inlier,"
        "mean_delta_outlier_pct,q25_outlier,median_outlier,q75_outlier"
    ]
    per_run = ["run,predictor,delta_inlier_pct,delta_outlier_pct"]
    for row in table.rows:
        i, o = row.inlier, row.outlier
        lines.append(
            f"{row.name},{fmt_float(i['mean'])},{fmt_float(i['q25'])},{fmt_float(i['median'])},{fmt_float(i['q75'])},"
            f"{fmt_float(o['mean'])},{fmt_float(o['q25'])},{fmt_float(o['median'])},{fmt_float(o['q75'])}"
        )
        for r, (d_in, d_out) in enumerate(zip(row.delta_in_runs, row.delta_out_runs)):
            per_run.append(f"{r},{row.name},{fmt_float(d_in)},{fmt_float(d_out)}")
    (out / "delta_table.csv").write_text("\n".join(lines) + "\n")
    (out / "per_run.csv").write_text("\n".join(per_run) + "\n")
    if table.failed_runs:
        failed = [f"{i},{msg}" for i, msg in table.failed_runs]
        (out / "failed_runs.csv").write_text("run,reason\n" + "\n".join(failed) + "\n")

    if curves is not None:
        names = list(curves.mse)
        header = "z_center," + ",".join(
            f"mse_{n},count_{n}" for n in names
        )
        rows = [header]
        for b, center in enumerate(curves.centers):
            cells = [fmt_float(center)]
            for n in names:
                v = curves.mse[n][b]
                cells.append("" if np.isnan(v) else fmt_float(v))
                cells.append(str(int(curves.counts[n][b])))
            rows.append(",".join(cells))
        (out / "curves.csv").write_text("\n".join(rows) + "\n")

    print("\n".join(lines))
    print(f"outputs written to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustpred",
        description="Robust linear prediction with a missing feature block.",
        epilog="Exit codes: 0 success, 2 validation failure, 3 numerical failure.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file; flags override")
        p.add_argument("--seed", type=int, default=None, help="master RNG seed")
        p.add_argument("--out", required=True, help="output directory or file")

    def process_flags(p):
        p.add_argument("--process", choices=["linear", "poly"], default=None)
        p.add_argument("--rho", type=float, default=None)
        p.add_argument("--nu-z", type=float, default=None)
        p.add_argument("--nu-u", type=float, default=None)
        p.add_argument("--noise-x-var", type=float, default=None)
        p.add_argument("--noise-y-var", type=float, default=None)
        p.add_argument("--w0", type=float, default=None, help="linear z weight (poly process)")
        p.add_argument("--w1", type=float, default=None, help="nonlinearity weight (poly process)")

    def schema_flags(p):
        p.add_argument("--x-cols", help="comma-separated observable feature columns")
        p.add_argument("--z-cols", help="comma-separated missing feature columns")
        p.add_argument("--y-col", help="outcome column")
        p.add_argument("--lag", type=int, default=None, help="build 2L lagged features")
        p.add_argument("--nox-col", help="NOx column for --lag (default: nox)")
        p.add_argument("--o3-col", help="O3 column for --lag (default: o3)")
        p.add_argument("--date-col", default=None)
        p.add_argument("--feature-map", choices=FEATURE_MAPS, help="default: none")

    p = sub.add_parser("simulate", help="write synthetic train/test CSVs")
    common(p)
    process_flags(p)
    p.add_argument("--n", type=int, default=None, help="training rows")
    p.add_argument("--n-test", type=int, default=None, help="test rows (0 = none)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit the robust model from a training CSV")
    p.add_argument("--config", help="flat key=value config file; flags override")
    p.add_argument("--data", required=True, help="training CSV")
    schema_flags(p)
    p.add_argument("--alpha", type=float, help="tail-region mass (default: 0.1)")
    p.add_argument("--model-out", required=True, help="model file path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="predict from a model and feature CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--x-cols", help="comma-separated feature columns (default: all)")
    p.add_argument("--date-col", default=None)
    p.add_argument("--out", required=True, help="predictions CSV path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="evaluate a model on a test CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="test CSV")
    schema_flags(p)
    p.add_argument("--out", required=True, help="report CSV path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("experiment", help="Monte Carlo comparison of all predictors")
    common(p)
    process_flags(p)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--n-train", type=int, default=None)
    p.add_argument("--n-test", type=int, default=None)
    p.add_argument("--n-runs", type=int, default=None)
    p.add_argument("--z-bins", type=int, default=None)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, ShapeError, CsvParseError, ModelFormatError,
            SingleClassError, ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (np.linalg.LinAlgError, FloatingPointError, ArithmeticError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
