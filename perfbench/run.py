#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the mslab CLI.

    python3 perfbench/run.py --workload volume --seed 7 --seconds 24 --trace 0

Run from anywhere inside a checkout; the program is imported from ``src/``
and the reference values from ``tests/oracles.py``.  One process, one
thread (BLAS pinned to 1), closed loop: each op of a pass starts when the
previous one has finished.  Ops are generated from ``--seed`` and the pass
index, and each one is checked against its reference.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes over the same ops and reports the per-layer
metrics.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
THREAD_VARS = ("MSLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
E2E_METRICS = (("pass_s", "s"), ("lead_op_s", "s"), ("setup_s", "s"),
               ("peak_rss_mb", "MB"))
WORKLOADS = ("volume", "chains", "optimizers", "free-moments")
MODULES = ("matrices", "formulas", "moments", "optimize", "microstates",
           "transport", "gibbs", "freeness", "cli")


def pin_threads() -> None:
    """One BLAS thread; must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def layout_ok() -> bool:
    return (os.path.isfile(os.path.join(ROOT, "src", "mslab", "cli.py"))
            and os.path.isfile(os.path.join(ROOT, "tests", "oracles.py")))


def setup(workload: str, seed: int, out_dir: str) -> None:
    """Everything before the first timed op: imports, configs, warm-up."""
    import importlib

    import numpy  # noqa: F401
    import scipy  # noqa: F401
    for mod in MODULES:
        importlib.import_module(f"mslab.{mod}")
    import workloads
    workloads.pass_ops(workload, seed, 0)
    for op in workloads.warmup_ops(workload):
        rc = run_op(op, out_dir)[0]
        if rc != 0:
            raise RuntimeError(f"warm-up op {op.label} exited with {rc}")


def run_op(op, out_dir: str, tracer=None):
    """Run one op through ``mslab.cli.run``, then its follow-up step.

    Returns (exit code, {entry label: seconds}, follow-up output, paths).
    """
    import mslab.cli
    import workloads
    json_path = os.path.join(out_dir, f"{op.label}.json")
    follow = workloads.follow_up(op)
    sink = io.StringIO()
    times, extra = {}, {}
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        if tracer is not None:
            tracer.op = op.label
        t0 = time.perf_counter()
        cfg = mslab.cli.ExperimentConfig(op.kind, op.params, op.seed, json_path)
        rc = mslab.cli.run(cfg)
        times[op.label] = time.perf_counter() - t0
        if rc == 0 and follow is not None:
            label, step = follow
            if tracer is not None:
                tracer.op = label
            t0 = time.perf_counter()
            extra = step()
            times[label] = time.perf_counter() - t0
    if rc != 0:
        print(f"{op.key}: exit {rc}: {sink.getvalue().strip()}", file=sys.stderr)
    return rc, times, extra, (json_path, json_path[:-5] + ".csv")


class Ledger:
    """Outcome of every op: times, output hashes, reference misses."""

    def __init__(self, refs: dict, out_dir: str):
        self.refs = refs
        self.out_dir = out_dir
        self.records = []
        self.hashes = {}
        self.failed = 0

    def run(self, op, pass_index: int, tracer=None) -> dict:
        """Run and check one op; returns {entry label: seconds}."""
        import workloads
        misses = []
        try:
            rc, times, extra, paths = run_op(op, self.out_dir, tracer)
        except Exception:  # an op that crashes counts as failed; keep going
            traceback.print_exc()
            rc, times, extra, paths = -1, {op.label: float("nan")}, {}, None
        digest = None
        if rc == 0:
            blobs = []
            for path in paths:
                with open(path, "rb") as fh:
                    blobs.append(fh.read())
            digest = tuple(hashlib.sha256(b).hexdigest() for b in blobs)
            seen = self.hashes.setdefault(op.key, digest)
            if seen != digest:
                misses.append("report bytes differ from an earlier op with the same seed")
            misses += workloads.check(op, json.loads(blobs[0])["result"], extra,
                                      self.refs)
        else:
            misses.append(f"exit code {rc}")
        if misses:
            self.failed += 1
            print(f"FAIL {op.key}: {'; '.join(misses)}", file=sys.stderr)
        self.records.append({
            "pass": pass_index, "label": op.label, "seed": op.seed,
            "traced": tracer is not None, "seconds": times,
            "json_sha256": digest[0] if digest else None,
            "csv_sha256": digest[1] if digest else None, "misses": misses})
        return times

    def run_pass(self, ops, pass_index: int, tracer=None) -> dict:
        """Run a pass; returns {entry label: seconds}."""
        times = {}
        for op in ops:
            times.update(self.run(op, pass_index, tracer))
        return times

    def stream_digest(self) -> str:
        """sha256 over the output hashes of pass 0, in op order."""
        first = {r["label"]: f"{r['label']}:{r['json_sha256']}:{r['csv_sha256']}\n"
                 for r in self.records if r["pass"] == 0 and not r["traced"]}
        return hashlib.sha256("".join(first.values()).encode()).hexdigest()


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "loadavg": list(os.getloadavg()),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def reference_values(workload: str) -> dict:
    """Oracle values that are costly to compute, cached per oracles.py.

    The semicircle quadrature allocates ~0.5 GB, so it runs in a child
    process and never shows in this process's peak memory.
    """
    if workload != "volume":
        return {}
    src = os.path.join(ROOT, "tests", "oracles.py")
    with open(src, "rb") as fh:
        tag = hashlib.sha256(fh.read()).hexdigest()
    cache = os.path.join(OUT, f"oracle-{tag[:16]}.json")
    if not os.path.exists(cache):
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import oracles; "
                "print(repr(oracles.single_variable_entropy_oracle()))")
        out = subprocess.run([sys.executable, "-c", code, os.path.dirname(src)],
                             capture_output=True, text=True, check=True,
                             timeout=PROBE_TIMEOUT_S)
        with open(cache, "w", encoding="utf-8") as fh:
            json.dump({"semicircle_entropy": float(out.stdout)}, fh)
    with open(cache, encoding="utf-8") as fh:
        return json.load(fh)


def setup_seconds(workload: str, seed: int) -> list:
    """Wall time of fresh processes that only set up, as a CLI user pays it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=PROBE_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def keep_going(elapsed: float, durations: list, seconds: float) -> bool:
    """Start another pass while it is expected to end nearer the deadline."""
    return elapsed + statistics.mean(durations) / 2 < seconds


def measure(args, ledger: Ledger) -> dict:
    """Timed passes until --seconds is used up.

    Each time is a mean over the whole run.  The host's speed drifts over
    seconds, and a median of two to five passes would only add sampling
    noise to that drift.
    """
    import workloads
    by_label, lead = {}, set()
    t_start = time.perf_counter()
    index = 0
    while True:
        ops = workloads.pass_ops(args.workload, args.seed, index)
        lead |= {op.label for op in ops if op.lead}
        for label, t in ledger.run_pass(ops, index).items():
            by_label.setdefault(label, []).append(t)
        index += 1
        pass_s = [sum(ts) for ts in zip(*by_label.values())]
        if not keep_going(time.perf_counter() - t_start, pass_s, args.seconds):
            break
    # Same seed again, untimed: the report bytes must not change.
    ledger.run(workloads.pass_ops(args.workload, args.seed, 0)[-1], 0)
    for label, ts in by_label.items():
        print(f"run_s.{label}: {statistics.mean(ts):.4f} s (mean of {len(ts)})")
    return {"pass_s": statistics.mean(pass_s),
            "lead_op_s": statistics.mean(
                t for label in lead for t in by_label[label])}


def measure_layers(args, ledger: Ledger) -> dict:
    import tracing
    import workloads
    tracer = tracing.Tracer()
    plain, traced = [], []
    t_start = time.perf_counter()
    index = 0
    while True:
        ops = workloads.pass_ops(args.workload, args.seed, index)
        plain.append(sum(ledger.run_pass(ops, index).values()))
        with tracer.installed():
            traced.append(sum(ledger.run_pass(ops, index, tracer).values()))
        index += 1
        pairs = [a + b for a, b in zip(plain, traced)]
        if not keep_going(time.perf_counter() - t_start, pairs, args.seconds):
            break
    metrics = tracer.metrics(len(traced))
    metrics["trace.overhead"] = statistics.mean(traced) / statistics.mean(plain)
    by_op = tracer.layer_self(by_op=True)
    for label in dict.fromkeys(op for op, _ in by_op):
        rows = sorted(((t, layer) for (op, layer), t in by_op.items() if op == label),
                      reverse=True)
        total = sum(t for t, _ in rows)
        top = ", ".join(f"{layer} {t / total:.0%}" for t, layer in rows[:3])
        print(f"layers.{label}: {top}")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def bench(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    if not layout_ok():
        print(f"no mslab checkout around {HERE}: need src/mslab and "
              "tests/oracles.py", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]
    out_dir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        if args.setup_only:
            setup(args.workload, args.seed, out_dir)
            return 0
        return bench_run(args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def bench_run(args, out_dir: str) -> int:
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    probes = [] if args.trace else setup_seconds(args.workload, args.seed)
    ledger = Ledger(reference_values(args.workload), out_dir)
    setup(args.workload, args.seed, out_dir)
    if args.trace:
        import tracing
        values = measure_layers(args, ledger)
        units = dict(tracing.metric_names(), **{"trace.overhead": "ratio"})
    else:
        values = measure(args, ledger)
        values["setup_s"] = statistics.median(probes)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = dict(E2E_METRICS)
        print(f"setup_s probes: {', '.join(f'{t:.3f}' for t in probes)}")

    attempted = len(ledger.records)
    print(f"fail_ratio: {ledger.failed}/{attempted} = {ledger.failed / attempted:.4g}")
    digest = ledger.stream_digest()
    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
        baseline = json.load(fh)
    if args.seed == baseline["seed"] and args.workload in baseline["stream_digest"]:
        same = baseline["stream_digest"][args.workload] == digest
        print(f"stream digest {digest}: "
              f"{'matches' if same else 'DIFFERS from'} the baseline")
    else:
        print(f"stream digest {digest}")
    record = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "args": vars(args), "metrics": values,
                   "stream_digest": digest, "ops": ledger.records}, fh, indent=1)
    result = {
        "correct": ledger.failed == 0,
        "attempted": attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(bench())
