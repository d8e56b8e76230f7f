"""Benchmark entry point for robustpred.

    python3 perfbench/run.py --workload csv_pipeline --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds ``src/robustpred``. It writes the
workload's inputs from ``--seed`` (perfbench/inputs.py, without robustpred),
runs the workload's closed loop in a child process on the checkout's source,
checks every output, measures set-up time in fresh interpreters, and prints
the metrics. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The full record (environment stamp, input manifest, per-step times) goes to
``.perfbench_work/results/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("csv_pipeline", "mc_experiment", "fit_serve")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PAIRS = 10
CHILD_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 30
# setup_s is reported on a scale where importing numpy takes this long
NUMPY_IMPORT_S = 0.1

# Each fresh interpreter times only its own imports (and model load), then
# exits without the interpreter's teardown.
SETUP_CODE = """\
import os, sys, time
t0 = time.perf_counter()
import robustpred
if len(sys.argv) > 1:
    from robustpred.dataio import load_model
    load_model(sys.argv[1])
print(time.perf_counter() - t0, flush=True)
os._exit(0)
"""
NUMPY_CODE = """\
import os, time
t0 = time.perf_counter()
import numpy
print(time.perf_counter() - t0, flush=True)
os._exit(0)
"""

UNITS = {
    "setup_s": "s",
    "setup_raw_s": "s",
    "numpy_import_s": "s",
    "pass_s": "s",
    "pass_per_ref": "ratio",
    "peak_rss_mb": "MB",
    "failed_ratio": "ratio",
    "fit_rows_per_s": "rows/s",
    "predict_rows_per_s": "rows/s",
    "evaluate_rows_per_s": "rows/s",
    "lag_rows_per_s": "rows/s",
    "mc_runs_per_s": "runs/s",
    "mc_completed_runs": "count",
    "single_predict_p50_us": "us",
    "single_predict_p99_us": "us",
    "single_predict_samples": "count",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """The checkout's src first on the path; BLAS threads capped at nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cap = nproc()
    for var in BLAS_THREAD_VARS:
        cur = env.get(var, "")
        env[var] = str(min(int(cur), cap)) if cur.isdigit() and int(cur) > 0 else str(cap)
    return env


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_stamp() -> dict:
    """Git revision and dirtiness when the checkout is a repository, plus a
    hash of src/ that identifies the code either way."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    stamp = {"revision": None, "dirty": None, "src_sha256": digest.hexdigest()}
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30, check=True)
            status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                    capture_output=True, text=True, timeout=30, check=True)
            stamp["revision"] = rev.stdout.strip()
            stamp["dirty"] = bool(status.stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return stamp


def environment(env: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_cap": {v: env[v] for v in BLAS_THREAD_VARS},
        **git_stamp(),
    }


def measure_setup(env: dict, model: Path | None) -> list:
    """Pairs of fresh interpreters, one timing ``import robustpred`` (and, with
    a model, ``load_model``), the other ``import numpy`` alone, run back to
    back in alternating order. The first pair, which may compile bytecode, is
    discarded. Returns [robustpred seconds, numpy seconds] per pair."""
    setup = [sys.executable, "-c", SETUP_CODE] + ([str(model)] if model else [])
    numpy_only = [sys.executable, "-c", NUMPY_CODE]

    def timed(argv):
        out = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                             timeout=SETUP_TIMEOUT_S, check=True)
        return float(out.stdout.strip().splitlines()[-1])

    pairs = []
    for i in range(SETUP_PAIRS + 1):
        if i % 2:
            b = timed(numpy_only)
            pairs.append([timed(setup), b])
        else:
            pairs.append([timed(setup), timed(numpy_only)])
    return pairs[1:]


def run_child(args, work: Path, env: dict, per_layer: list) -> dict:
    argv = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", str(work), "--result", str(work / "result.json"),
        "--per-layer", ",".join(per_layer),
    ]
    with open(work / "workload.log", "w") as log:
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"workload did not finish within {CHILD_TIMEOUT_S} s") from None
    if code != 0:
        tail = (work / "workload.log").read_text()[-2000:]
        raise RuntimeError(f"workload exited with code {code}:\n{tail}")
    return json.loads((work / "result.json").read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="robustpred benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "robustpred" / "__init__.py").is_file():
        print(f"error: no robustpred source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / tag
    results = WORK / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    env = child_env()
    try:
        t0 = time.perf_counter()
        manifest = inputs.generate(args.workload, work, args.seed)
        (work / "manifest.json").write_text(json.dumps(manifest))
        gen_s = time.perf_counter() - t0
        child = run_child(args, work, env, [m["name"] for m in spec["per_layer"]])
        setup = []
        if not args.trace:
            model = work / "model" / "model.txt" if args.workload == "csv_pipeline" else None
            setup = measure_setup(env, model)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if (work / "spans.jsonl").exists():
            shutil.move(work / "spans.jsonl", results / f"{tag}.spans.jsonl")

    attempted, failed = child["attempted"], child["failed"]
    measured = {
        "pass_s": child["pass_s"],
        "pass_per_ref": child["pass_per_ref"],
        "peak_rss_mb": child["peak_rss_mb"],
        "failed_ratio": failed / attempted,
        **child["detail"],
        **child.get("per_layer", {}),
    }
    if setup:
        # host speed swings hit both interpreters of a pair alike
        measured["setup_s"] = NUMPY_IMPORT_S * statistics.median(a / b for a, b in setup)
        measured["setup_raw_s"] = statistics.median(a for a, _ in setup)
        measured["numpy_import_s"] = statistics.median(b for _, b in setup)
    units = {**UNITS, **{m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}}
    src_ok = Path(child["robustpred_file"]).resolve().is_relative_to(SRC.resolve())
    correct = failed == 0 and src_ok and child.get("trace_ok", True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {**environment(env), "blas_threads": child["blas_threads"]},
        "inputs": manifest,
        "input_seconds": gen_s,
        "setup_pairs_s": setup,
        "step_median_s": child["step_median_s"],
        "step_median_per_ref": child["step_median_per_ref"],
        "passes": {"untraced": len(child["untraced"]), "traced": len(child.get("traced", []))},
        "trace_gap": child.get("trace_gap"),
        "pass_walls_s": [p["wall"] for p in child["untraced"]],
        "metrics": {k: {"value": v, "unit": units.get(k)} for k, v in measured.items()},
        "messages": child["messages"],
        "robustpred_file": child["robustpred_file"],
        "wrapped": child.get("wrapped", []),
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1))
    shutil.rmtree(work, ignore_errors=True)

    for name, value in measured.items():
        print(f"{args.workload:14s} {name:44s} {value:16.6g} {units.get(name, '')}")
    print(f"{args.workload:14s} failed {failed} of {attempted} operations; "
          f"{len(child['untraced'])} untraced passes; record in {results / (tag + '.json')}")
    if args.trace:
        print(f"{args.workload:14s} tracer self-check: accounting gap {child['trace_gap']:.3g}, "
              f"{'ok' if child['trace_ok'] else 'FAILED'}")
    if not src_ok:
        print(f"check failed: robustpred was imported from {child['robustpred_file']}, not {SRC}")
    for msg in child["messages"]:
        print(f"check failed: {msg}")
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
