"""One workload's closed loop, run in a process of its own.

A single caller issues each call only after the previous one returned. A pass
is one round of the workload's steps; passes repeat until the timed work
reaches the requested seconds. Outputs are checked after every pass, outside
the timed region. With ``--trace 1`` the first half of the time runs
untraced and the second half runs with the span tracer installed.

Usage (normally started by run.py, which generates the inputs first):
    PYTHONPATH=src python3 perfbench/workload.py --workload fit_serve \
        --seed 1 --seconds 10 --trace 0 --work DIR --result FILE
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracer import LAYERS, Tracer

ALPHA = 0.1
LAG = 28
MC_N_TRAIN = 100
MC_N_TEST = 100_000
MC_N_RUNS = 50
MC_Z_EDGES = np.linspace(-12.0, 12.0, 49)
SERVE_SINGLE_CALLS = 20_000
REL_TOL = 1e-12
TRACE_GAP_LIMIT = 0.01
REF_SAMPLES = 3


def _close(a, b, rtol=REL_TOL) -> np.ndarray:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.abs(a - b) <= rtol * np.maximum(1.0, np.abs(b))


def _paper_ordering(con_in, con_out, rob_in, rob_out) -> bool:
    """Conservative outlier < robust outlier < 0 < robust inlier < conservative inlier."""
    return con_out < rob_out < 0.0 < rob_in < con_in


_REF_RNG = np.random.default_rng(12345)
_REF_TEXT = "\n".join(",".join(repr(v) for v in row) for row in _REF_RNG.standard_normal((200, 5)).tolist())
_REF_ARR = _REF_RNG.standard_normal((100_000, 3))
_REF_ROW = _REF_RNG.standard_normal(3)


def python_reference() -> None:
    """Float parsing and formatting, small numpy calls in a loop, one
    vector product: interpreter-bound work, like CSV parsing and per-call
    overhead."""
    rows = [[float(c) for c in line.split(",")] for line in _REF_TEXT.splitlines()]
    "\n".join(",".join(format(v, ".17g") for v in r) for r in rows)
    for _ in range(30):
        float(np.einsum("i,i->", _REF_ROW - _REF_ROW.mean(), _REF_ROW))
    float(np.abs(_REF_ARR @ _REF_ROW).sum())


def array_reference() -> None:
    """Normal and t(3) draws, a matrix-vector product, a tail mask and a
    masked reduction over 20,000 rows: array-bound work, like data
    generation and batch evaluation."""
    rng = np.random.default_rng(7)
    a = rng.standard_normal((20_000, 3))
    b = rng.standard_t(3.0, 20_000)
    y = a @ _REF_ROW + b
    mask = np.abs(b) > 1.5
    float(((y - y.mean())[mask] ** 2).sum())


def reference_s(parts) -> float:
    """Median time of a fixed routine that does no robustpred work, made of
    the given parts. Timed next to each step, it tracks the host's speed at
    that moment."""

    def once():
        t0 = time.perf_counter()
        for part in parts:
            part()
        return time.perf_counter() - t0

    return float(np.median([once() for _ in range(REF_SAMPLES)]))


class Step:
    """One kind of call in a pass; ``ops`` calls are attempted per pass.

    A step of many calls times them itself and returns (payload, seconds
    spent inside the calls); any other step is one call timed by the pass.
    """

    def __init__(self, name, fn, ops=1):
        self.name, self.fn, self.ops = name, fn, ops


class CsvPipeline:
    """fit / predict / evaluate on 200k-row CSVs, then fit and evaluate with
    --lag 28 on a daily nox,o3 CSV, all through robustpred.cli.main."""

    reference = (python_reference,)

    def __init__(self, work: Path, manifest: dict, seed: int):
        from robustpred import cli

        self.cli = cli
        self.manifest = manifest
        w = {k: str(work / v["file"]) for k, v in manifest.items()}
        self.model = work / "model" / "model.txt"
        self.lag_model = work / "lag_model" / "model.txt"
        self.pred = work / "predictions.csv"
        self.report = work / "evaluate.csv"
        self.lag_report = work / "evaluate_lag.csv"
        schema = ["--x-cols", "x1,x2,x3", "--z-cols", "z1", "--y-col", "y"]
        self.argv = {
            "fit": ["fit", "--data", w["train"], *schema, "--alpha", str(ALPHA),
                    "--model-out", str(self.model)],
            "predict": ["predict", "--model", str(self.model), "--data", w["test"],
                        "--x-cols", "x1,x2,x3", "--out", str(self.pred)],
            "evaluate": ["evaluate", "--model", str(self.model), "--data", w["test"], *schema,
                         "--out", str(self.report)],
            "fit_lag": ["fit", "--data", w["daily"], "--lag", str(LAG), "--alpha", str(ALPHA),
                        "--model-out", str(self.lag_model)],
            "evaluate_lag": ["evaluate", "--model", str(self.lag_model), "--data", w["daily"],
                             "--lag", str(LAG), "--out", str(self.lag_report)],
        }
        self.steps = [Step(name, self._call(argv)) for name, argv in self.argv.items()]
        # x columns of the test CSV, parsed by numpy rather than robustpred
        self.x_test = np.loadtxt(w["test"], delimiter=",", skiprows=1, usecols=(0, 1, 2))

    def _call(self, argv):
        def call():
            # looked up per call, so the traced phase reaches the wrapper
            return self.cli.main(list(argv))

        return call

    @staticmethod
    def _report(path) -> dict:
        lines = Path(path).read_text().splitlines()
        head = lines[0].split(",")
        return {cells[0]: dict(zip(head, cells)) for cells in (ln.split(",") for ln in lines[1:])}

    def check(self, outputs: dict) -> dict:
        from robustpred import dataio, robust

        bad = {name: [] for name in self.argv}
        for name, code in outputs.items():
            if code != 0:
                bad[name].append(f"exit code {code}")
        if not bad["fit"] and not bad["predict"]:
            model, _ = dataio.load_model(self.model)
            got = np.loadtxt(self.pred, delimiter=",", skiprows=1)
            want = robust.predict_robust(model, self.x_test)
            if got.shape != (len(want), 3) or not np.all(_close(got[:, 0], want)):
                bad["predict"].append("predictions differ from in-process predict_robust")
            elif not np.all((got[:, 1] > 0.0) & (got[:, 1] < 1.0)):
                bad["predict"].append("p_outlier outside (0, 1)")
        if not bad["evaluate"]:
            rep = self._report(self.report)
            con, rob = rep["conservative"], rep["robust"]
            d = [float(v[k]) for v in (con, rob) for k in ("delta_inlier_pct", "delta_outlier_pct")]
            if not _paper_ordering(*d):
                bad["evaluate"].append(f"delta ordering violated: {d}")
            if int(rob["n_inlier"]) + int(rob["n_outlier"]) != self.manifest["test"]["rows"]:
                bad["evaluate"].append("inlier + outlier counts differ from test rows")
        dropped = self.manifest["daily"]["dropped_windows"]
        if not bad["fit_lag"]:
            fit_report = (self.lag_model.parent / "fit_report.txt").read_text()
            if f"dropped rows: {dropped}\n" not in fit_report:
                bad["fit_lag"].append(f"fit report does not show {dropped} dropped windows")
        if not bad["evaluate_lag"]:
            opt = self._report(self.lag_report)["optimistic"]
            if int(opt["n_inlier"]) + int(opt["n_outlier"]) + dropped != self.manifest["daily"]["rows"] - LAG:
                bad["evaluate_lag"].append("n_inlier + n_outlier + dropped != n_days - lag")
        return bad

    def detail(self, med: dict) -> dict:
        n, days = self.manifest["test"]["rows"], self.manifest["daily"]["rows"]
        return {
            "fit_rows_per_s": self.manifest["train"]["rows"] / med["fit"],
            "predict_rows_per_s": n / med["predict"],
            "evaluate_rows_per_s": n / med["evaluate"],
            "lag_rows_per_s": 2 * days / (med["fit_lag"] + med["evaluate_lag"]),
        }


class McExperiment:
    """The paper's Table-I Monte Carlo experiment: linear process, rho=0.7,
    nu_z=3, 50 runs of n_train=100 / n_test=1e5, alpha=0.1, 48 z-bins on
    [-12, 12] with oracle curves (the CLI ``experiment`` defaults)."""

    reference = (array_reference,)

    def __init__(self, work: Path, manifest: dict, seed: int):
        from robustpred import datagen, evalkit

        self.evalkit = evalkit
        self.cfg = datagen.SyntheticConfig(rho=0.7, nu_z=3.0, seed=seed)
        self.steps = [Step("experiment", self._run)]
        self.failed_runs = []

    def _run(self):
        return self.evalkit.run_mc_experiment(
            self.cfg, MC_N_TRAIN, MC_N_TEST, MC_N_RUNS, ALPHA, z_bin_edges=MC_Z_EDGES
        )

    def check(self, outputs: dict) -> dict:
        # At n_train=100 and alpha=0.1 some training draws hold no tail-region
        # row; fit_robust then raises SingleClassError and run_mc_experiment
        # records the run as failed by design. Such runs are counted
        # (evalkit.failed_runs), not treated as a wrong output.
        bad = {"experiment": []}
        table, curves = outputs["experiment"]
        self.failed_runs.append(len(table.failed_runs))
        other = [msg for _, msg in table.failed_runs if "single-class" not in msg]
        if other:
            bad["experiment"].append(f"runs failed for another reason: {other[:2]}")
        con, rob = table.row("conservative"), table.row("robust")
        if len(rob.delta_in_runs) + len(table.failed_runs) != MC_N_RUNS:
            bad["experiment"].append("completed + failed runs != n_runs")
        d = [con.inlier["mean"], con.outlier["mean"], rob.inlier["mean"], rob.outlier["mean"]]
        if not _paper_ordering(*d):
            bad["experiment"].append(f"mean delta ordering violated: {d}")
        if curves is None or int(curves.counts["robust"].sum()) > MC_N_RUNS * MC_N_TEST:
            bad["experiment"].append("curves missing or over-counted")
        return bad

    def detail(self, med: dict) -> dict:
        return {
            "mc_runs_per_s": MC_N_RUNS / med["experiment"],
            "mc_completed_runs": MC_N_RUNS - float(np.median(self.failed_runs)),
        }


class FitServe:
    """In memory: fit_robust on 1e6 rows, a single caller issuing one-row
    predict_robust calls, and one 1e6-row batch predict_robust.

    ``tracer`` is set in the traced phase, where each single-row call is an
    operation of its own; latencies are kept from the untraced phase only.
    """

    reference = (python_reference, array_reference)
    tracer = None

    def __init__(self, work: Path, manifest: dict, seed: int):
        from robustpred import robust

        self.robust = robust
        load = {k: np.load(work / v["file"]) for k, v in manifest.items()}
        self.X, self.Z, self.y, self.Xq = (load[k] for k in ("serve_X", "serve_Z", "serve_y", "serve_Xq"))
        self.single_rows = self.Xq[:SERVE_SINGLE_CALLS]
        self.model = None
        self.latencies = []
        self.steps = [
            Step("fit", self._fit),
            Step("single", self._single, ops=SERVE_SINGLE_CALLS),
            Step("batch", self._batch),
        ]
        zc, yc = self.Z - self.Z.mean(0), self.y - self.y.mean()
        n = len(yc)
        self.szx = zc.T @ (self.X - self.X.mean(0)) / n
        self.szy = zc.T @ yc / n

    def _fit(self):
        self.model = self.robust.fit_robust(self.X, self.Z, self.y, ALPHA)
        return self.model

    def _single(self):
        predict_robust, model, tracer = self.robust.predict_robust, self.model, self.tracer
        out = np.empty(len(self.single_rows))
        lat = np.empty(len(self.single_rows))
        clock = time.perf_counter
        if tracer is None:
            for i, row in enumerate(self.single_rows):
                t0 = clock()
                out[i] = predict_robust(model, row)
                lat[i] = clock() - t0
            self.latencies.append(lat)
        else:
            for i, row in enumerate(self.single_rows):
                t0 = clock()
                op = tracer.open_op("op.single")
                out[i] = predict_robust(model, row)
                tracer.close_op(op)
                lat[i] = clock() - t0
        return out, float(lat.sum())

    def _batch(self):
        return self.robust.predict_robust(self.model, self.Xq)

    def check(self, outputs: dict) -> dict:
        bad = {"fit": [], "single": [], "batch": []}
        model = outputs["fit"]
        residual = float(np.max(np.abs(self.szx @ model.w_con.weights - self.szy)))
        if residual > 1e-8 * (1.0 + float(np.max(np.abs(self.szy)))):
            bad["fit"].append(f"constraint residual {residual}")
        if not model.gate.converged:
            bad["fit"].append("gate did not converge")
        batch = outputs["batch"]
        if batch.shape != (len(self.Xq),) or not np.all(np.isfinite(batch)):
            bad["batch"].append("batch predictions malformed")
        single = outputs["single"]
        mismatch = int(np.count_nonzero(~_close(single, batch[: len(single)])))
        bad["single"].extend(["single-row prediction differs from batch row"] * mismatch)
        return bad

    def detail(self, med: dict) -> dict:
        lat = np.concatenate(self.latencies) * 1e6
        return {
            "fit_rows_per_s": len(self.y) / med["fit"],
            "predict_rows_per_s": len(self.Xq) / med["batch"],
            "single_predict_p50_us": float(np.percentile(lat, 50)),
            "single_predict_p99_us": float(np.percentile(lat, 99)),
            "single_predict_samples": int(lat.size),
        }


WORKLOADS = {"csv_pipeline": CsvPipeline, "mc_experiment": McExperiment, "fit_serve": FitServe}


def run_pass(wl, tracer=None) -> dict:
    """Run every step once (timed), then check the outputs (untimed)."""
    times, calls, outputs, errors = {}, {}, {}, {}
    mark = tracer.mark() if tracer else 0
    refs = [reference_s(wl.reference)]
    ref_total = 0.0
    t_pass = time.perf_counter()
    for step in wl.steps:
        t0 = time.perf_counter()
        op = tracer.open_op(f"op.{step.name}") if tracer and step.ops == 1 else None
        try:
            out = step.fn()
        except Exception:  # noqa: BLE001 - a failed call is a measured outcome
            errors[step.name] = traceback.format_exc(limit=3)
        else:
            outputs[step.name], calls[step.name] = out if step.ops > 1 else (out, None)
        if op is not None:
            tracer.close_op(op)
        t1 = time.perf_counter()
        times[step.name] = t1 - t0
        calls[step.name] = calls.get(step.name) or times[step.name]
        t_ref = time.perf_counter()
        refs.append(reference_s(wl.reference))
        ref_total += time.perf_counter() - t_ref
    wall = time.perf_counter() - t_pass - ref_total
    spans = (mark, tracer.mark()) if tracer else None
    failed = {s.name: s.ops for s in wl.steps if s.name in errors}
    messages = [f"{k}: {v}" for k, v in errors.items()]
    if not errors:
        for name, msgs in wl.check(outputs).items():
            failed[name] = len(msgs)
            messages.extend(f"{name}: {m}" for m in msgs[:3])
    rec = {
        "wall": wall,
        "steps": times,
        # step time over the mean of the reference timings just before and after it
        "steps_per_ref": {
            s.name: times[s.name] / (0.5 * (refs[i] + refs[i + 1])) for i, s in enumerate(wl.steps)
        },
        "refs_s": refs,
        "attempted": sum(s.ops for s in wl.steps),
        "failed": sum(failed.values()),
        "messages": messages,
        # pass time outside the calls, as the harness timed them
        "harness_s": wall - sum(calls.values()),
    }
    if tracer is not None:
        rec["spans"] = spans
    return rec


def run_phase(wl, seconds: float, tracer=None) -> list:
    passes, timed = [], 0.0
    while not passes or timed < seconds:
        passes.append(run_pass(wl, tracer))
        timed += passes[-1]["wall"]
    return passes


def step_medians(passes, key="steps") -> dict:
    return {k: float(np.median([p[key][k] for p in passes])) for k in passes[0][key]}


def _median_pass_per_ref(passes) -> float:
    return float(np.median([sum(p["steps_per_ref"].values()) for p in passes]))


def _ancestor_flags(tracer: Tracer, lo: int, hi: int, targets) -> dict:
    """For each target name, whether span i has an ancestor of that name."""
    flags = {t: np.zeros(hi - lo, dtype=bool) for t in targets}
    names, parents = tracer.names, tracer.parents
    for i in range(hi - lo):
        p = parents[lo + i]
        if p < 0:
            continue
        for t, arr in flags.items():
            arr[i] = arr[p - lo] or names[p] == t
    return flags


def accounting_gap(tracer: Tracer, traced: list, untraced: list) -> float:
    """Largest gap, over the traced passes, between a pass's wall time and
    the self times of its spans plus the harness time outside the calls, as
    a share of the wall time.

    The harness time is the median of the untraced passes, and the operation
    spans read the clock apart from the harness's own timing of each call.
    So the sum matches the wall time only if the operation spans cover every
    call of the pass exactly once: work in a pass outside any span, or a
    traced call outside every operation (counted as a span and again as
    harness time), opens a gap. Raises ValueError if the spans do not nest.
    """
    harness = float(np.median([p["harness_s"] for p in untraced]))
    lo, hi = traced[0]["spans"][0], traced[-1]["spans"][1]
    self_t = tracer.self_times(lo, hi)
    return max(
        abs(float(self_t[a - lo : b - lo].sum()) + harness - p["wall"]) / p["wall"]
        for p in traced
        for a, b in [p["spans"]]
    )


def layer_metrics(tracer: Tracer, traced: list, untraced: list, wanted) -> dict:
    """Per-layer metrics per traced pass, computed from the recorded spans.

    Spans recorded by the output checks between passes are left out.
    """
    lo, hi = traced[0]["spans"][0], traced[-1]["spans"][1]
    self_t = tracer.self_times(lo, hi)
    in_pass = np.zeros(hi - lo, dtype=bool)
    for p in traced:
        in_pass[p["spans"][0] - lo : p["spans"][1] - lo] = True
    names = np.where(in_pass, np.asarray(tracer.names[lo:hi], dtype=object), "")
    n_pass = len(traced)
    stats = tracer.stats

    def stat_sum(mask, key):
        idx = np.flatnonzero(mask) + lo
        return float(sum(stats[i].get(key, 0) for i in idx if i in stats))

    under = _ancestor_flags(
        tracer, lo, hi, ("cli.cmd_predict", "evalkit.run_mc_experiment", "robust.fit_robust")
    )
    mc = names == "evalkit.run_mc_experiment"
    test_rows = MC_N_TEST * (MC_N_RUNS * int(mc.sum()) - stat_sum(mc, "failed_runs"))

    def ratio(num, den):
        return num / den if den else 0.0

    in_mc = under["evalkit.run_mc_experiment"]
    predicted = stat_sum((names == "robust.predict_robust") & under["cli.cmd_predict"], "rows")
    special = {
        "gate.delta_stat.rows_per_predicted_row": ratio(
            stat_sum((names == "gate.delta_stat") & under["cli.cmd_predict"], "rows"), predicted
        ),
        "gate.is_outlier.rows_per_test_row": ratio(
            stat_sum((names == "gate.is_outlier") & in_mc & ~under["robust.fit_robust"], "rows"),
            test_rows,
        ),
        "robust.predict_robust.rows_per_test_row": ratio(
            stat_sum((names == "robust.predict_robust") & in_mc, "rows"), test_rows
        ),
        "predictors.predict.rows_per_test_row": ratio(
            stat_sum((names == "predictors.predict") & in_mc, "rows"), test_rows
        ),
        "evalkit.failed_runs": stat_sum(mc, "failed_runs") / n_pass,
        "trace.overhead_ratio": _median_pass_per_ref(traced) / _median_pass_per_ref(untraced),
    }
    out = {}
    for metric in wanted:
        if metric in special:
            out[metric] = special[metric]
            continue
        fn, field = metric.rsplit(".", 1)
        if fn.split(".")[0] not in LAYERS:
            raise KeyError(f"no rule computes per-layer metric {metric}")
        mask = names == fn
        calls = int(mask.sum())
        total_self = float(self_t[mask].sum())
        if field == "self_s":
            out[metric] = total_self / n_pass
        elif field == "self_s_per_call":
            out[metric] = ratio(total_self, calls)
        elif field == "calls":
            out[metric] = calls / n_pass
        elif field in ("rows", "bytes", "rows_dropped"):
            out[metric] = stat_sum(mask, field) / n_pass
        elif field == "iterations":
            out[metric] = ratio(stat_sum(mask, "iterations"), calls)
        elif field == "converged_ratio":
            out[metric] = ratio(stat_sum(mask, "converged"), calls)
        else:
            raise KeyError(f"no rule computes per-layer metric {metric}")
    return out


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {ln.split()[-1] for ln in maps if "openblas" in ln.lower() and "/" in ln}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            fn.argtypes = []
            return int(fn())
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--per-layer", default="", help="comma-separated per-layer metric names")
    args = ap.parse_args(argv)

    import robustpred  # loads every layer module before timing
    import robustpred.cli  # noqa: F401

    manifest = json.loads((args.work / "manifest.json").read_text())
    wl = WORKLOADS[args.workload](args.work, manifest, args.seed)
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = run_phase(wl, budget)
    result = {
        "untraced": untraced,
        "robustpred_file": robustpred.__file__,
        "blas_threads": blas_threads(),
    }
    if args.trace:
        tracer = Tracer()
        result["wrapped"] = tracer.install()
        wl.tracer = tracer
        traced = run_phase(wl, budget, tracer)
        wanted = [m for m in args.per_layer.split(",") if m]
        result["trace_gap"] = accounting_gap(tracer, traced, untraced)
        result["per_layer"] = layer_metrics(tracer, traced, untraced, wanted)
        result["trace_ok"] = result["trace_gap"] <= TRACE_GAP_LIMIT
        tracer.write(args.work / "spans.jsonl")
        for p in traced:
            p.pop("spans")
        result["traced"] = traced
    passes = result["untraced"] + result.get("traced", [])
    result["attempted"] = sum(p["attempted"] for p in passes)
    result["failed"] = sum(p["failed"] for p in passes)
    result["messages"] = [m for p in passes for m in p["messages"]][:20]
    med = step_medians(untraced)
    result["step_median_s"] = med
    result["pass_s"] = sum(med.values())
    result["step_median_per_ref"] = step_medians(untraced, "steps_per_ref")
    result["pass_per_ref"] = sum(result["step_median_per_ref"].values())
    result["detail"] = wl.detail(med)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
