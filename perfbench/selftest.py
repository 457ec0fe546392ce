#!/usr/bin/env python3
"""Tiny self-test of the benchmark harness (about ten seconds).

    python3 perfbench/selftest.py

Checks that a wrong reference value is flagged, that repeated ops with one
seed must match byte for byte, and that traced self times add up to the
span totals.  Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os
import sys
import tempfile

import run


def main() -> int:
    run.pin_threads()
    if not run.layout_ok():
        print("no mslab checkout around perfbench/", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(run.ROOT, "src"), os.path.join(run.ROOT, "tests")]
    import mslab.matrices
    import tracing
    import workloads

    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    with tempfile.TemporaryDirectory(dir=run.ROOT) as out_dir:
        ledger = run.Ledger({}, out_dir)
        op = next(o for o in workloads.pass_ops("optimizers", 1, 0)
                  if o.label == "hopf-lax.1-stage")
        ledger.run(op, 0)
        expect(ledger.failed == 0, "a right op passes its check")

        wrong = dataclasses.replace(op, ref=dict(op.ref, xsq=1.5 * op.ref["xsq"]))
        with contextlib.redirect_stderr(io.StringIO()):
            ledger.run(wrong, 0)
        expect(ledger.failed == 1, "a wrong reference value is flagged")

        ledger.hashes[op.key] = ("0" * 64, "0" * 64)
        with contextlib.redirect_stderr(io.StringIO()):
            ledger.run(op, 0)
        expect(ledger.failed == 2, "changed report bytes for one seed are flagged")

        ball = {"h_n": [0.5], "n_values": [4], "trend": {"value": 0.5}}
        misses = workloads.check(workloads.pass_ops("volume", 1, 0)[1], ball, {}, {})
        expect(bool(misses), "a ball entropy far from the exact volume is flagged")

        tracer = tracing.Tracer()
        original = mslab.matrices.sample_gue
        gibbs = workloads.warmup_ops("chains")[0]
        with tracer.installed():
            run.run_op(gibbs, out_dir, tracer)
        expect(mslab.matrices.sample_gue is original, "tracing restores the originals")
        selfs = tracer.self_times()
        roots = [i for i, s in enumerate(tracer.spans) if s[1] < 0]
        total = {i: 0.0 for i in roots}
        for i, t in enumerate(selfs):
            root = i
            while tracer.spans[root][1] >= 0:
                root = tracer.spans[root][1]
            total[root] += t
        expect(len(tracer.spans) > len(roots) > 0, "the traced op recorded nested spans")
        expect(all(math.isclose(total[i], tracer.spans[i][3] - tracer.spans[i][2],
                                rel_tol=1e-9, abs_tol=1e-12) for i in roots),
               "self times add up to the root span totals")
        expect(all(t >= -1e-9 for t in selfs), "no span has negative self time")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
