"""Run one part of one workload in this process and print its raw result as
one JSON line.

The launcher (``run.py``) runs a workload as several worker processes, one
after the other, each taking a contiguous share of the ops; it pools their
ops and takes the median of their set-up times.  Several processes average
out what differs from one process to the next: the same ops of the
``exact`` workload took up to 5 % more or less time, scaled, in one
process than in another.  Only the workload's own processes run, so set-up
time and peak memory belong to it.

The load is a closed loop: one client sends ops back to back.  Set-up
covers the imports and one untimed warm-up op on a matrix outside the
timed set.  Each op's input is built just before the op and checked
independently just after it, both outside the op's timed span; only the
outcome and the latency are kept, so the harness holds no inputs or
results that would count in peak memory.

An op's latency is the CPU time of this process during the op.  The
program is single-threaded (BLAS on one thread), so that is its wall time
less the time the machine ran something else: on a shared machine those
pauses reach 5-10 ms and, not the program, set the tail.  The latencies
and the set-up time are also scaled by the workload's yardstick
(``workloads.py``), timed the same way just before every op and at the
end of set-up, so they do not follow the machine's drifting speed.

With ``--trace 1`` each timed op runs traced, right after one untraced op
on a reference input with the same (n, k, m); the ratio of the two times
is the tracing overhead.
"""

from __future__ import annotations

import env  # pins BLAS to one thread; must precede numpy

import argparse
import json
import resource
import statistics
import sys
import time
from collections import Counter

env.use_source_tree()

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from layertrace import Tracer  # noqa: E402

CLOCK = time.process_time_ns  # CPU time of the process; see the module docstring
# An op's latency is scaled by the median yardstick time within this many
# seconds of its start: wide enough to smooth the yardstick's own jitter,
# narrow enough to follow the machine's changes of speed.
YARD_HALF_WINDOW_S = 0.5
SETUP_YARDS = 5  # yardstick timings taken at the end of set-up


def attempt(workload: wl.Workload, op: wl.Op) -> tuple[bool, tuple, str | None, int]:
    """(verdict, outputs, exception type or None, latency ns) of one op."""
    start = CLOCK()
    try:
        verdict, outputs = workload.run(op)
        error = None
    except Exception as exc:  # an op that raises is counted; the run goes on
        verdict, outputs, error = False, (), type(exc).__name__
    return verdict, outputs, error, CLOCK() - start


def outcome(op: wl.Op, verdict: bool, outputs: tuple, error: str | None) -> str:
    """The op's outcome kind, with the independent check applied to its results."""
    if error is not None:
        return f"raised:{error}"
    with np.errstate(all="ignore"):
        checked = wl.independent_check(op, outputs)
    if verdict:
        return "pass" if checked else "silent_wrong"
    return "verdict_fail" if not checked else "verdict_fail_check_ok"


class Tally:
    """Outcome counts by kind, and the indices of silently wrong ops."""

    def __init__(self):
        self.outcomes: Counter = Counter()
        self.silent_ops: list[int] = []

    def add(self, op: wl.Op, kind: str) -> None:
        self.outcomes[kind] += 1
        if kind == "silent_wrong":
            self.silent_ops.append(op.index)

    def result(self) -> dict:
        return {"outcomes": dict(self.outcomes), "silent_wrong_ops": self.silent_ops}


def yard_ms(workload: wl.Workload) -> float:
    start = CLOCK()
    workload.yardstick.run()
    return (CLOCK() - start) / 1e6


def local_median(times: np.ndarray, values: np.ndarray, half_width: float) -> np.ndarray:
    """For each time, the median of the values taken within half_width of it."""
    lo = np.searchsorted(times, times - half_width, side="left")
    hi = np.searchsorted(times, times + half_width, side="right")
    return np.array([np.median(values[a:b]) for a, b in zip(lo, hi)])


def timed_run(workload: wl.Workload, seed: int, indices: range) -> dict:
    tally = Tally()
    starts, yards, raw = [], [], []
    for i in indices:
        op = workload.make(seed, wl.STREAM_TIMED, i)
        yards.append(yard_ms(workload))
        starts.append(time.perf_counter())
        verdict, outputs, error, ns = attempt(workload, op)
        tally.add(op, outcome(op, verdict, outputs, error))
        raw.append(ns / 1e6)
    local_yard = local_median(np.array(starts), np.array(yards), YARD_HALF_WINDOW_S)
    scaled = np.array(raw) * (workload.yardstick.nominal_ms / local_yard)
    return {
        **tally.result(),
        "latencies_ms": scaled.tolist(),
        "unscaled_ms": raw,
        "yardstick_ms_p50": statistics.median(yards),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(workload: wl.Workload, seed: int, indices: range) -> dict:
    """Ops alternate between an untraced reference input and a traced timed
    input, so both sides see the same warm state."""
    tracer = Tracer()
    tally = Tally()
    untraced_ns = traced_ns = 0
    for i in indices:
        untraced_ns += attempt(workload, workload.make(seed, wl.STREAM_REFERENCE, i))[3]
        op = workload.make(seed, wl.STREAM_TIMED, i)
        tracer.install()
        tracer.begin_op(op.index)
        try:
            verdict, outputs, error, ns = attempt(workload, op)
        finally:
            tracer.end_op()
            tracer.uninstall()
        traced_ns += ns
        tally.add(op, outcome(op, verdict, outputs, error))
    metrics, shown = tracer.metrics()
    metrics["trace.overhead_ratio"] = (traced_ns / untraced_ns, "ratio")
    out_dir = env.ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload.name}-seed{seed}.json"
    path.write_text(json.dumps(tracer.dump()))
    return {
        **tally.result(),
        "metrics": metrics,
        "shown": shown,
        "absent": tracer.absent,
        "trace_file": str(path.relative_to(env.ROOT)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, default=0, help="which share of the ops to run")
    parser.add_argument("--parts", type=int, default=1, help="how many shares the ops form")
    args = parser.parse_args(argv)
    if not 0 <= args.part < args.parts:
        parser.error("--part must be in [0, --parts)")

    workload = wl.WORKLOADS[args.workload]
    attempt(workload, workload.make(args.seed, wl.STREAM_WARMUP, 0))
    ready = time.monotonic()
    setup_yard = statistics.median(yard_ms(workload) for _ in range(SETUP_YARDS))

    count = workload.trace_ops if args.trace else workload.ops
    indices = range(count * args.part // args.parts, count * (args.part + 1) // args.parts)
    run = traced_run if args.trace else timed_run
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "must_pass": workload.must_pass,
        "ready_monotonic": ready,
        "setup_scale": workload.yardstick.nominal_ms / setup_yard,
        **run(workload, args.seed, indices),
        "env": env.environment(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
