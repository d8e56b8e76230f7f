"""Command-line interface: simulate | fit | predict | evaluate | experiment.

Every command is deterministic given its settings. ``simulate``, ``fit`` and
``experiment`` echo the settings they were given into ``config_effective.txt``,
which replays the command as a ``--config`` file. ``build_parser`` declares
every setting once: its flag, type, choices and default. A ``--config``
file's ``key=value`` lines are read by the same subcommand parser as
``--key=value`` flags placed ahead of the command line's own, so a flag given
on the command line overrides the file's value, which overrides the default.

Exit codes: 0 success, 2 bad input, usage or path, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import re
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import dataio, evalkit
from .datagen import PolyConfig, SyntheticConfig, generate_linear, generate_poly
from .dataio import CsvParseError, LagSpec, fmt_float
from .gate import _check_alpha
from .linalg import ShapeError, ValidationError
from .robust import fit_robust, predict_parts

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

# paths are not echoed, so reruns into another directory stay byte-identical
_NOT_ECHOED = {"out", "model_out", "data", "config"}


def _config_flags(path, parser) -> list:
    """A config file's ``key=value`` lines as ``--key=value`` flags for the
    subcommand ``parser``. A key naming a required flag, or ``config``, is an
    error: the command line always gives those, so the file's value would be
    ignored."""
    fixed = {s for a in parser._actions if a.required or a.dest == "config" for s in a.option_strings}
    flags = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ValidationError(f"{path}:{lineno}: expected key=value, got {line!r}")
        flag = f"--{key.strip()}"
        if flag in fixed:
            parser.error(f"{path}:{lineno}: {key.strip()} cannot be set in a config file; give {flag} on the command line")
        flags.append(f"{flag}={val.strip()}")
    return flags


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose usage errors are one ``error:`` line, as the
    other bad inputs' are; its subcommand parsers are of this class too."""

    def error(self, message):
        self.exit(EXIT_VALIDATION, f"error: {message}\n")


class _StoreGiven(argparse.Action):
    """argparse's plain store, which also adds the flag's dest to
    ``namespace.given``: the settings given on the command line or in the
    config file, as opposed to defaults."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = getattr(namespace, "given", frozenset()) | {self.dest}


def _echo_config(out_dir: Path, args) -> None:
    """Write the given settings, paths left out, as a config file that replays the command."""
    out_dir.mkdir(parents=True, exist_ok=True)
    settings = {k.replace("_", "-"): getattr(args, k) for k in args.given - _NOT_ECHOED}
    lines = [f"{k}={v}" for k, v in sorted(settings.items())]
    (out_dir / "config_effective.txt").write_text("\n".join(lines) + "\n")


def _output_path(path) -> Path:
    """``path`` with its directory created: each command calls this before
    it reads any input, so an unusable output path fails before the work."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _synthetic_config(args) -> SyntheticConfig:
    """The data process from the flags that were set; the others keep the
    config dataclass's defaults."""
    cls = PolyConfig if args.process == "poly" else SyntheticConfig
    wz = (args.w0, args.w1)
    if cls is SyntheticConfig and wz != (None, None):
        raise ValidationError("--w0 and --w1 apply only to --process poly")
    settings = {f.name: getattr(args, f.name, None) for f in fields(cls)}
    if wz != (None, None):
        settings["wz"] = tuple(d if w is None else w for w, d in zip(wz, PolyConfig.wz))
    try:
        return cls(**{k: v for k, v in settings.items() if v is not None})
    except ValidationError as exc:  # "<setting> must ...": name the flag that set it
        flag = {"wz[0]": "w0", "wz[1]": "w1"}
        spelled = re.sub(r"^(\w+(\[\d\])?) must ", lambda m: f"--{flag.get(m[1], m[1])} must ".replace("_", "-"), str(exc))
        raise ValidationError(spelled) from None


def _write_dataset_csv(path, X, Z, y):
    cols = {f"x{j + 1}": x for j, x in enumerate(X.T)}
    cols.update({f"z{j + 1}": z for j, z in enumerate(Z.T)})
    cols["y"] = y
    dataio.write_csv(path, list(cols), cols)


def cmd_simulate(args) -> int:
    cfg = _synthetic_config(args)
    out = Path(args.out)
    _echo_config(out, args)
    gen = generate_poly if isinstance(cfg, PolyConfig) else generate_linear
    _write_dataset_csv(out / "train.csv", *gen(cfg))
    if args.n_test > 0:
        _write_dataset_csv(out / "test.csv", *gen(replace(cfg, n=args.n_test, seed=cfg.seed + 1)))
    print(f"wrote {out / 'train.csv'} ({cfg.n} rows)" + (f" and test.csv ({args.n_test} rows)" if args.n_test > 0 else ""))
    return EXIT_OK


def _load_dataset(args, feature_map):
    """Read a CSV into a Dataset per the schema settings, X mapped by ``feature_map``.

    ``--lag`` builds every column from ``--nox-col`` and ``--o3-col``, so it
    rules out the column flags, and those two flags need it.
    """
    lagged = args.lag is not None
    unused = ("x_cols", "z_cols", "y_col") if lagged else ("nox_col", "o3_col")
    stray = ", ".join(f"--{k.replace('_', '-')}" for k in unused if k in args.given)
    if stray:
        raise ValidationError(
            f"--lag builds its own columns; drop {stray}" if lagged else f"{stray}: read only with --lag"
        )
    if lagged:
        table = dataio.read_csv(args.data, columns=[args.nox_col, args.o3_col])
        ds = dataio.build_lagged(table, LagSpec(L=args.lag, nox_column=args.nox_col, o3_column=args.o3_col))
    else:
        if not (args.x_cols and args.z_cols and args.y_col):
            raise ValidationError("--x-cols, --z-cols and --y-col are required without --lag")
        x_cols, z_cols = args.x_cols.split(","), args.z_cols.split(",")
        table = dataio.read_csv(args.data, columns=[*x_cols, *z_cols, args.y_col])
        ds = dataio.dataset_from_table(table, x_cols, z_cols, args.y_col)
    mapped, mapped_names = dataio.FEATURE_MAPS[feature_map]
    d = ds.X.shape[1]
    return replace(ds, X=mapped(ds.X), column_names=(*mapped_names(ds.column_names[:d]), *ds.column_names[d:]))


def _by_name(message: str, ds) -> str:
    """``message`` with each ``X column j`` and ``Z column k`` of the fitted
    matrices spelled ``column <name>``, the name of ``ds``'s column (a
    feature map names the columns it adds)."""
    d = len(ds.column_names) - ds.Z.shape[1] - 1
    names = {"X": ds.column_names[:d], "Z": ds.column_names[d:-1]}

    def spelled(m):
        return f"column {names[m[1]][int(m[2])]}"

    return re.sub(r"\b([XZ]) column (\d+)\b", spelled, message)


def cmd_fit(args) -> int:
    model_path = _output_path(args.model_out)
    ds = _load_dataset(args, args.feature_map)
    try:
        model = fit_robust(ds.X, ds.Z, ds.y, args.alpha)
    except ValidationError as exc:
        raise ValidationError(_by_name(str(exc), ds)) from None
    dataio.save_model(model, model_path, feature_map=args.feature_map)
    _echo_config(model_path.parent, args)

    n_out = model.gate.n_outliers
    report = [
        f"n={ds.n} d={ds.X.shape[1]} q={ds.Z.shape[1]} alpha={fmt_float(args.alpha)}",
        f"labels: {n_out} outliers, {ds.n - n_out} inliers",
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
    out = _output_path(args.out)
    model, feature_map = dataio.load_model(args.model)
    x_cols = args.x_cols.split(",") if args.x_cols else None
    table = dataio.read_csv(args.data, date_col=args.date_col, columns=x_cols)
    x_cols = x_cols or list(table.names)
    if not table.n:
        raise CsvParseError(f"{args.data}: no data rows")
    X = np.column_stack([table.column(c) for c in x_cols])
    gaps = np.argwhere(~np.isfinite(X))
    if gaps.size:
        r, c = gaps[0]
        raise CsvParseError(f"{args.data}: missing or non-finite cell at row {r + 1}, column {x_cols[c]}")
    yhat, p, delta, _, _ = predict_parts(model, dataio.FEATURE_MAPS[feature_map][0](X))
    dataio.write_csv(out, ["prediction", "p_outlier", "delta"], {"prediction": yhat, "p_outlier": p, "delta": delta})
    print(f"wrote {out} ({X.shape[0]} rows)")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    out = _output_path(args.out)
    model, feature_map = dataio.load_model(args.model)
    ds = _load_dataset(args, feature_map)
    if ds.X.shape[1] != model.x_mean.shape[0] or ds.Z.shape[1] != model.region.q:
        raise ShapeError(
            f"test schema ({ds.X.shape[1]}, {ds.Z.shape[1]}) does not match model "
            f"dimensions ({model.x_mean.shape[0]}, {model.region.q})"
        )
    rows = [
        (name, rep.mse, rep.mse_in, rep.mse_out, rep.n_in, rep.n_out, d_in, d_out)
        for name, rep, d_in, d_out in evalkit.compare_predictors(model, ds.X, ds.Z, ds.y)[0]
    ]
    header = "predictor,mse,mse_inlier,mse_outlier,n_inlier,n_outlier,delta_inlier_pct,delta_outlier_pct"
    dataio.write_table(out, header.split(","), rows)
    print(out.read_text(), end="")
    print(f"dropped rows: {ds.n_dropped}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    cfg = _synthetic_config(args)
    # curves need a scalar z, which the polynomial process does not have
    poly = isinstance(cfg, PolyConfig)
    if poly and "z_bins" in args.given:
        raise ValidationError("--z-bins applies only to --process linear")
    out = Path(args.out)
    _echo_config(out, args)

    edges = None if poly else np.linspace(-12.0, 12.0, args.z_bins + 1)
    table, curves = evalkit.run_mc_experiment(
        cfg, args.n_train, args.n_test, args.n_runs, args.alpha, z_bin_edges=edges
    )
    if table.failed_runs:
        dataio.write_table(out / "failed_runs.csv", ["run", "reason"], table.failed_runs)
        if len(table.failed_runs) == args.n_runs:
            raise ValidationError(f"no run completed; reasons in {out / 'failed_runs.csv'}")

    dataio.write_table(
        out / "delta_table.csv",
        "predictor,mean_delta_inlier_pct,q25_inlier,median_inlier,q75_inlier,"
        "mean_delta_outlier_pct,q25_outlier,median_outlier,q75_outlier".split(","),
        [(row.name, *row.inlier.values(), *row.outlier.values()) for row in table.rows],
    )
    per_run = [
        (run, row.name, d_in, d_out)
        for row in table.rows
        for run, d_in, d_out in zip(table.runs, row.delta_in_runs, row.delta_out_runs)
    ]
    dataio.write_table(out / "per_run.csv", ["run", "predictor", "delta_inlier_pct", "delta_outlier_pct"], per_run)
    if curves is not None:
        # each bin's centre and row count, the same for every curve, then each curve's MSE
        header = ["z_center", "count"] + [f"mse_{name}" for name in curves.mse]
        rows = zip(curves.centers, curves.counts["robust"], *curves.mse.values())
        dataio.write_table(out / "curves.csv", header, rows)

    print((out / "delta_table.csv").read_text(), end="")
    print(f"outputs written to {out}")
    return EXIT_OK


def _int_at_least(low: int):
    """An argparse ``type``: an integer no smaller than ``low``."""

    def parse(text):
        value = int(text)  # a ValueError is argparse's "invalid int value"
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


_POSITIVE_INT = _int_at_least(1)


def _alpha(text):
    """An argparse ``type``: a tail-region mass, a float in (0, 1]."""
    value = float(text)  # a ValueError is argparse's "invalid float value"
    try:
        return _check_alpha(value)
    except ValidationError as exc:  # "alpha must ...": argparse names the flag
        raise argparse.ArgumentTypeError(str(exc).removeprefix("alpha ")) from None


_alpha.__name__ = "float"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="robustpred",
        description="Robust linear prediction with a missing feature block.",
        epilog="Exit codes: 0 success, 2 validation failure, 3 numerical failure.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, func, help):
        # no prefix matching: a config key must name a flag exactly
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.register("action", None, _StoreGiven)
        p.set_defaults(func=func, parser=p)
        return p

    def config_flag(p):
        p.add_argument("--config", help="flat key=value config file, keys named like the flags; flags override")

    def process_flags(p):
        config_flag(p)
        p.add_argument("--seed", type=int, help="master RNG seed")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--process", choices=["linear", "poly"], default="linear")
        p.add_argument("--rho", type=float)
        p.add_argument("--nu-z", type=float)
        p.add_argument("--nu-u", type=float)
        p.add_argument("--noise-x-var", type=float)
        p.add_argument("--noise-y-var", type=float)
        p.add_argument("--w0", type=float, help="linear z weight (poly process only)")
        p.add_argument("--w1", type=float, help="nonlinearity weight (poly process only)")

    def schema_flags(p):
        p.add_argument("--x-cols", help="comma-separated observable feature columns")
        p.add_argument("--z-cols", help="comma-separated missing feature columns")
        p.add_argument("--y-col", help="outcome column")
        p.add_argument("--lag", type=_POSITIVE_INT, help="build 2L lagged features")
        p.add_argument("--nox-col", default="nox", help="NOx column for --lag")
        p.add_argument("--o3-col", default="o3", help="O3 column for --lag")

    p = command("simulate", cmd_simulate, "write synthetic train/test CSVs")
    process_flags(p)
    p.add_argument("--n", type=_POSITIVE_INT, default=1000, help="training rows")
    p.add_argument("--n-test", type=_int_at_least(0), default=0, help="test rows (0 = none)")

    p = command("fit", cmd_fit, "fit the robust model from a training CSV")
    config_flag(p)
    p.add_argument("--data", required=True, help="training CSV")
    schema_flags(p)
    p.add_argument("--feature-map", choices=dataio.FEATURE_MAPS, default="none")
    p.add_argument("--alpha", type=_alpha, default=0.1, help="tail-region mass")
    p.add_argument("--model-out", required=True, help="model file path")

    p = command("predict", cmd_predict, "predict from a model and feature CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--x-cols", help="comma-separated feature columns (default: all)")
    p.add_argument("--date-col")
    p.add_argument("--out", required=True, help="predictions CSV path")

    p = command("evaluate", cmd_evaluate, "evaluate a model on a test CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="test CSV")
    schema_flags(p)
    p.add_argument("--out", required=True, help="report CSV path")

    p = command("experiment", cmd_experiment, "Monte Carlo comparison of all predictors")
    process_flags(p)
    p.add_argument("--alpha", type=_alpha, default=0.1, help="tail-region mass")
    p.add_argument("--n-train", type=_POSITIVE_INT, default=100)
    p.add_argument("--n-test", type=_POSITIVE_INT, default=100000)
    p.add_argument("--n-runs", type=_POSITIVE_INT, default=50)
    p.add_argument("--z-bins", type=_POSITIVE_INT, default=48, help="conditional-MSE curve bins (linear process only)")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # argv[0] is the subcommand; its own flags, after the file's, win
            args = parser.parse_args([args.subcommand, *_config_flags(args.config, args.parser), *argv[1:]])
        with warnings.catch_warnings():  # a library warning is one line, without source path or text
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            return args.func(args)
    except SystemExit as exc:  # argparse has printed its error line or the help
        return exc.code
    # a LinAlgError is a ValueError too, so the numerical clause comes first
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
