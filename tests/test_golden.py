"""Golden CLI outputs: simulate, fit, predict, evaluate and a 3-run experiment
on small sizes, compared with the files checked into ``tests/golden``.

Headers, names and integer cells must match exactly; floats must agree to a
relative 1e-12. To regenerate the golden files after an intended change of
output, run ``PYTHONPATH=src python tests/test_golden.py``.
"""

import math
import re
import shutil
from pathlib import Path

from robustpred.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"
FLOAT_RTOL = 1e-12
# roundoff-level quantities: their size is noise, so only their scale is checked
ROUNDOFF_KEYS = ("residual",)
ROUNDOFF_ATOL = 1e-12

_SEPARATORS = re.compile(r"([,=:\s()]+)")
_INT = re.compile(r"[+-]?\d+")


def run_pipeline(out: Path) -> None:
    schema = ["--x-cols", "x1,x2,x3", "--z-cols", "z1", "--y-col", "y"]
    sim, model = out / "sim", out / "fit" / "model.txt"
    steps = [
        ["simulate", "--process", "linear", "--rho", "0.7", "--nu-z", "3", "--n", "300",
         "--n-test", "200", "--seed", "5", "--out", str(sim)],
        ["fit", "--data", str(sim / "train.csv"), *schema, "--alpha", "0.2",
         "--model-out", str(model)],
        ["predict", "--model", str(model), "--data", str(sim / "test.csv"),
         "--x-cols", "x1,x2,x3", "--out", str(out / "predictions.csv")],
        ["evaluate", "--model", str(model), "--data", str(sim / "test.csv"), *schema,
         "--out", str(out / "evaluate.csv")],
        ["experiment", "--process", "linear", "--n-train", "200", "--n-test", "2000",
         "--n-runs", "3", "--alpha", "0.1", "--seed", "7", "--out", str(out / "exp")],
    ]
    for argv in steps:
        assert main(argv) == EXIT_OK, argv


def _files(root: Path) -> list:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


def _cells_match(got: str, want: str, prev_sep_text: str) -> bool:
    if got == want:
        return True
    if _INT.fullmatch(want) or _INT.fullmatch(got):
        return False
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    if any(prev_sep_text.endswith(k) for k in ROUNDOFF_KEYS):
        return abs(a - b) <= ROUNDOFF_ATOL
    return math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=0.0)


def compare_text(got: str, want: str) -> list:
    """Mismatches between two outputs, as (line, got cell, golden cell)."""
    bad = []
    got_lines, want_lines = got.split("\n"), want.split("\n")
    if len(got_lines) != len(want_lines):
        return [("line count", len(got_lines), len(want_lines))]
    for i, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        gt, wt = _SEPARATORS.split(g), _SEPARATORS.split(w)
        if len(gt) != len(wt):
            bad.append((i, g, w))
            continue
        for k in range(0, len(wt), 2):
            # odd positions are separators and must match exactly
            if k + 1 < len(wt) and gt[k + 1] != wt[k + 1]:
                bad.append((i, g, w))
                break
            if not _cells_match(gt[k], wt[k], "".join(wt[:k]).rstrip("=: ")):
                bad.append((i, gt[k], wt[k]))
    return bad


def test_cli_outputs_match_golden(tmp_path):
    run_pipeline(tmp_path)
    assert _files(tmp_path) == _files(GOLDEN)
    for name in _files(GOLDEN):
        got = (tmp_path / name).read_bytes().decode()
        want = (GOLDEN / name).read_bytes().decode()
        assert compare_text(got, want) == [], name


def test_compare_text_rejects_drift():
    assert compare_text("a,1,0.5\n", "a,1,0.5\n") == []
    assert compare_text("a,1,0.5000000000000001\n", "a,1,0.5\n") == []
    assert compare_text("a,1,0.50001\n", "a,1,0.5\n") != []
    assert compare_text("a,2,0.5\n", "a,1,0.5\n") != []
    assert compare_text("b,1,0.5\n", "a,1,0.5\n") != []
    assert compare_text("a;1,0.5\n", "a,1,0.5\n") != []


if __name__ == "__main__":
    shutil.rmtree(GOLDEN, ignore_errors=True)
    run_pipeline(GOLDEN)
    print(f"wrote {len(_files(GOLDEN))} golden files under {GOLDEN}")
