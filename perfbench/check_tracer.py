"""Shows that the tracer's accounting self-check passes and can fail.

    python3 perfbench/check_tracer.py

Runs the benchmark's own harness (workload.run_phase and
workload.accounting_gap) on a synthetic workload without robustpred. Its one
step makes two calls of a traced function that spins for a few milliseconds,
untraced first and then traced. Three variants:

- ``covered``: each call runs in an operation span, as the benchmark's
  workloads do; the accounting gap must stay within the 1 % limit.
- ``call_outside_op``: the step also makes one traced call outside every
  operation; its time is counted as a span and again as harness time.
- ``uncovered``: the calls run without operation spans, and half of each
  call's work is outside the traced function, so no span accounts for it.

The last two must exceed the limit. Exits 1 if any variant does otherwise.
"""

from __future__ import annotations

import sys
import time

from tracer import Tracer
from workload import TRACE_GAP_LIMIT, Step, accounting_gap, python_reference, run_phase

SPIN_S = 0.005
PHASE_S = 0.3


def spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class Synthetic:
    reference = (python_reference,)

    def __init__(self, variant: str):
        self.variant = variant
        self.fn = spin
        self.tracer = None
        self.steps = [Step("calls", self._calls, ops=2)]

    def _calls(self):
        if self.variant == "call_outside_op":
            self.fn(SPIN_S)
        spent = 0.0
        for _ in range(2):
            t0 = time.perf_counter()
            op = self.tracer.open_op("op.call") if self.tracer and self.variant != "uncovered" else None
            if self.variant == "uncovered":
                spin(SPIN_S)
            self.fn(SPIN_S)
            if op is not None:
                self.tracer.close_op(op)
            spent += time.perf_counter() - t0
        return None, spent

    @staticmethod
    def check(outputs: dict) -> dict:
        return {}


def gap_of(variant: str) -> float:
    wl = Synthetic(variant)
    untraced = run_phase(wl, PHASE_S)
    wl.tracer = Tracer()
    wl.fn = wl.tracer.wrap("demo.spin", spin)
    traced = run_phase(wl, PHASE_S, wl.tracer)
    return accounting_gap(wl.tracer, traced, untraced)


def main() -> int:
    ok = True
    for variant, should_pass in (("covered", True), ("call_outside_op", False), ("uncovered", False)):
        gap = gap_of(variant)
        passed = gap <= TRACE_GAP_LIMIT
        ok &= passed == should_pass
        print(f"{variant:16s} accounting gap {gap:.4f}: {'passes' if passed else 'fails'} "
              f"(expected to {'pass' if should_pass else 'fail'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
