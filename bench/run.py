"""Closed-loop benchmark for platoon-stab.

    python3 bench/run.py --workload trace-io --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and imports the package from its
``src/`` directory.  One client issues operations back to back (each
starts when the previous one returns).  A run executes a fixed number of
operations, set by the workload from ``--seconds`` and never fewer than
100, so that the same seed always attempts the same operations and meets
the same failures.  Untraced times are scaled to one machine speed by a
gauge read between operations (see ``_gauge``).  The last line of
standard output is the result: ``{"correct", "attempted", "failed",
"metrics"}``.  The line before it holds the details: per-command latencies
with their sample counts, the set-up samples, the raw times and gauge
readings, failure reasons and the machine.

``--trace 0`` reports the end-to-end metrics, with tracing off.
``--trace 1`` runs every operation twice, untraced and then traced, and
reports the per-layer metrics of the traced executions plus
``trace.overhead_frac``, the traced over untraced operation time minus 1.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported; set-up probes inherit
# the environment.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _name in THREAD_VARS:
    os.environ[_name] = "1"

import argparse
import itertools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MAX_RUN_SECONDS = 150  # hard stop, well inside the 180 s limit
SETUP_PROBES = 7       # fresh processes timed from start to first operation
# Reported times are scaled to the machine speed at which _gauge() takes
# this long (about its fastest on a 2-vCPU VM).
REF_SECONDS = 0.004
PROBE_TIMEOUT = 60


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    return parser.parse_args(argv)


def _import_workloads():
    if not (SRC / "platoon_stab" / "__init__.py").is_file():
        raise SystemExit(f"error: no platoon_stab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import platoon_stab
    if Path(platoon_stab.__file__).resolve().parent != (SRC / "platoon_stab").resolve():
        raise SystemExit(f"error: imported platoon_stab from {platoon_stab.__file__}")
    import workloads
    return workloads


def _probe_setup(args) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to its first operation,
    raw and scaled to the reference speed."""
    gauges = [_gauge(), _gauge()]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT)
    if code != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed (exit {code})")
    gauges += [_gauge(), _gauge()]
    return elapsed, elapsed * REF_SECONDS / statistics.median(gauges)


def _gauge_once() -> float:
    start = time.perf_counter()
    zs = [0.0] * 16
    for step in range(500):
        for i in range(16):
            zs[i] = 0.5 * zs[i - 1] - 0.25 * zs[i] + 1e-3 * step
    text = "\n".join(json.dumps({"i": i, "w": i * 0.25, "m": 1500.0 + i}) for i in range(400))
    rows = [json.loads(line) for line in text.splitlines()]
    "".join(f"{row['w']!r},{row['m']!r}\n" for row in rows)
    values = np.linspace(0.0, 1.0, 8192)
    for _ in range(20):
        values = np.sqrt(values * values + 1.0) - 1.0
    return time.perf_counter() - start


def _gauge() -> float:
    """Seconds that a fixed mix of the program's kinds of work (an
    interpreted float loop, JSON lines, float text and numpy arithmetic)
    takes now, the faster of two tries: the machine's speed at this
    moment."""
    return min(_gauge_once(), _gauge_once())


def _timed(op):
    start = time.perf_counter()
    try:
        result = op.execute()
    except Exception as exc:  # the operation's failure is the record
        return time.perf_counter() - start, None, exc
    return time.perf_counter() - start, result, None


def _judge(op, result, exc):
    if exc is not None:  # a refusal, not a wrong answer
        return "failed", f"raised {type(exc).__name__}: {exc}"
    try:
        return op.check(result)
    except Exception as exc:  # an unreadable output is a wrong answer
        return "wrong", f"oracle raised {type(exc).__name__}: {exc}"


def _run_op(op, tracer):
    """Execute one operation (twice when traced); one record per execution."""
    records = []
    try:
        op.prepare()
        elapsed, result, exc = _timed(op)
        status, reason = _judge(op, result, exc)
        records.append({"kind": op.kind, "s": elapsed, "status": status, "reason": reason,
                        "items": op.items if status == "ok" else 0, "traced": False})
        if tracer is not None:
            before = op.fingerprint() if status == "ok" else None
            with tracer.active():
                elapsed, result, exc = _timed(op)
            status, reason = _judge(op, result, exc)
            if status == "ok" and before is not None and op.fingerprint() != before:
                status, reason = "wrong", "traced output differs from the untraced output"
            records.append({"kind": op.kind, "s": elapsed, "status": status, "reason": reason,
                            "items": op.items if status == "ok" else 0, "traced": True})
    finally:
        op.cleanup()
    return records


def _quantiles(values) -> dict:
    return {"p50_s": statistics.median(values),
            "p90_s": statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0],
            "count": len(values)}


def main(argv=None) -> int:
    args = _parse_args(argv)
    workloads = _import_workloads()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    workload_cls = workloads.WORKLOADS[args.workload]
    workdir = WORK / str(os.getpid())
    try:
        if args.setup_probe:
            workload_cls(args.seed, str(workdir))
            print("ready", flush=True)
            return 0
        workload = workload_cls(args.seed, str(workdir))
        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer()
        # A traced run executes every operation twice, so it takes half
        # as many to keep its length.
        count = workload.op_count(args.seconds / 2 if args.trace else args.seconds,
                                  workloads.MIN_OPS // 2 if args.trace else workloads.MIN_OPS)
        # Set-up probes are spread evenly over the operations, so that they
        # sample the machine over the whole run as the operations do.
        probes = 0 if args.trace else SETUP_PROBES
        # The machine's speed drifts by up to 2x within seconds.  Untraced
        # runs read the gauge before each operation and after the last,
        # and scale each operation's time by the median of the four
        # readings around it; a set-up probe, by the four around it.
        scaled = not args.trace
        gauges = []
        setup_samples = []
        records = []
        start = time.perf_counter()
        for position, op in enumerate(itertools.islice(workload.ops(), count)):
            if len(setup_samples) < probes and position >= len(setup_samples) * count / probes:
                setup_samples.append(_probe_setup(args))
            if time.perf_counter() - start >= MAX_RUN_SECONDS:
                break  # the detail line shows fewer operations than planned
            if scaled:
                gauges.append(_gauge())
            records.extend(_run_op(op, tracer))
        if scaled:
            gauges.append(_gauge())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it, or it is already gone

    for index, record in enumerate(records if scaled else ()):
        record["raw_s"] = record["s"]
        record["s"] *= REF_SECONDS / statistics.median(gauges[max(0, index - 1):index + 3])

    failures = [r for r in records if r["status"] != "ok"]
    wrong = sum(1 for r in failures if r["status"] == "wrong")
    measured = [r for r in records if r["traced"] == bool(args.trace)]
    busy = sum(r["s"] for r in measured)
    latency = {"all": _quantiles([r["s"] for r in measured])}
    for kind in sorted({r["kind"] for r in measured}):
        latency[kind] = _quantiles([r["s"] for r in measured if r["kind"] == kind])

    if args.trace:
        tracer.require(workload.spans)
        untraced = sum(r["s"] for r in records if not r["traced"])
        traced = sum(r["s"] for r in records if r["traced"])
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in tracer.metrics().items()}
        metrics["trace.overhead_frac"] = {"value": traced / untraced - 1.0, "unit": "ratio"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(scaled for _, scaled in setup_samples),
                        "unit": "s"},
            "op_p50_s": {"value": latency["all"]["p50_s"], "unit": "s"},
            "op_p90_s": {"value": latency["all"]["p90_s"], "unit": "s"},
            "items_per_s": {"value": sum(r["items"] for r in measured) / busy, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "operations": {"planned": count, "run": len(records) // (2 if args.trace else 1)},
        "wall_s": time.perf_counter() - start,
        "trace": args.trace,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__,
                    "threads": {name: os.environ[name] for name in THREAD_VARS}},
        "setup_s_samples": setup_samples,
        "latency": latency,
        "busy_s": busy,
        "raw": {"latency": _quantiles([r["raw_s"] for r in measured]) if scaled else None,
                "busy_s": sum(r["raw_s"] for r in measured) if scaled else None,
                "gauge_s": _quantiles(gauges) if scaled else None},
        "ops_failed_frac": len(failures) / len(records),
        "failures": [f"{r['kind']}: {r['status']}: {r['reason']}" for r in failures[:20]],
        "notes": workload.notes,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": wrong == 0, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
