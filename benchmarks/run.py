"""ginverse benchmark: verified m-weak group inverse throughput on four workloads.

    python3 benchmarks/run.py --workload dense --seed 1 --trace 0
    python3 benchmarks/run.py --workload all --seed 1            # every workload
    python3 benchmarks/run.py --workload exact --seed 1 --trace 1  # per-layer trace

Run from anywhere; the package is imported from this checkout's ``src/``.
An untraced run of a workload is PARTS worker processes (``worker.py``),
one after the other, each with one BLAS thread and a contiguous share of
the ops; their ops are pooled into the end-to-end metrics.  A traced run is
one worker and prints the per-layer metrics instead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it are the same
numbers for people, with the environment.  See ``README.md`` in this
directory for the metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# the keys of workloads.WORKLOADS; the launcher does not import numpy or ginverse
WORKLOADS = ("dense", "crosscheck", "illcond", "exact")

PARTS = 5  # worker processes per untraced run; setup_s is the median of their set-ups
BUDGET_S = 170.0  # the workers of one workload end within this
TAIL_BEYOND = 10  # samples the tail percentile must leave above it


class WorkerError(RuntimeError):
    pass


def _spawn(workload: str, seed: int, trace: int, part: int, parts: int,
           deadline: float) -> dict:
    """Run one worker to completion; its set-up time is counted from the spawn."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--part", str(part), "--parts", str(parts)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise WorkerError(f"{workload}: worker exceeded the time budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload}: worker exited {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    # time.monotonic() is system-wide on Linux, so the worker's reading shares our origin
    result["setup_raw_s"] = result["ready_monotonic"] - start
    result["setup_s"] = result["setup_raw_s"] * result["setup_scale"]
    return result


def summarize(workers: list[dict]) -> dict:
    """Outcome counts of the pooled ops, and what they make of the run."""
    outcomes: dict[str, int] = {}
    for w in workers:
        for kind, count in w["outcomes"].items():
            outcomes[kind] = outcomes.get(kind, 0) + count
    attempted = sum(outcomes.values())
    passed = outcomes.get("pass", 0)
    silent = outcomes.get("silent_wrong", 0)
    loud = attempted - passed - silent
    # where must_pass is false, a loud failure is an accepted outcome
    failed = silent + (loud if workers[0]["must_pass"] else 0)
    return {
        "workload": workers[0]["workload"],
        "seed": workers[0]["seed"],
        "env": workers[0]["env"],
        "outcomes": dict(sorted(outcomes.items())),
        "silent_wrong_ops": sorted(i for w in workers for i in w["silent_wrong_ops"]),
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "fail_share": (attempted - passed) / attempted,
        "silent_wrong_share": silent / attempted,
    }


def tail(latencies_ms: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with
    at least TAIL_BEYOND samples beyond it; the maximum when there are fewer."""
    ordered = sorted(latencies_ms)
    pos = len(ordered) - 1 - TAIL_BEYOND
    if pos < 0:
        pos = len(ordered) - 1
    return ordered[pos], 100.0 * (pos + 1) / len(ordered), len(ordered) - 1 - pos


def end_to_end(workers: list[dict]) -> dict:
    result = summarize(workers)
    latencies = [x for w in workers for x in w["latencies_ms"]]
    unscaled = [x for w in workers for x in w["unscaled_ms"]]
    setups = [w["setup_s"] for w in workers]
    tail_ms, tail_pct, beyond = tail(latencies)
    result["tail"] = {"percentile": tail_pct, "samples": len(latencies), "beyond": beyond}
    result["setups_s"] = setups
    result["metrics"] = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(latencies) / (sum(latencies) / 1e3), "op/s"),
        "op_ms_p50": (statistics.median(latencies), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "pass_share": (1.0 - result["fail_share"], "ratio"),
        "honest_share": (1.0 - result["silent_wrong_share"], "ratio"),
        "peak_rss_mb": (max(w["peak_rss_mb"] for w in workers), "MiB"),
    }
    # fail_share and silent_wrong_share read 0 on most workloads, so the
    # JSON carries their complements
    result["shown"] = {
        "fail_share": (result["fail_share"], "ratio"),
        "silent_wrong_share": (result["silent_wrong_share"], "ratio"),
        "unscaled.setup_s": (statistics.median(w["setup_raw_s"] for w in workers), "s"),
        "unscaled.ops_per_s": (len(unscaled) / (sum(unscaled) / 1e3), "op/s"),
        "unscaled.op_ms_p50": (statistics.median(unscaled), "ms"),
        "unscaled.op_ms_tail": (tail(unscaled)[0], "ms"),
        "yardstick_ms_p50": (statistics.median(w["yardstick_ms_p50"] for w in workers), "ms"),
    }
    return result


def measure(workload: str, seed: int, trace: int, deadline: float) -> dict:
    if trace:
        worker = _spawn(workload, seed, 1, 0, 1, deadline)
        return {**worker, **summarize([worker])}
    return end_to_end([_spawn(workload, seed, 0, part, PARTS, deadline)
                       for part in range(PARTS)])


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(result: dict, trace: int) -> None:
    """Human-readable lines for one workload."""
    print(f"== workload {result['workload']}  seed {result['seed']}  "
          f"ops {result['attempted']}  trace {trace}")
    print(f"   env {json.dumps(result['env'], sort_keys=True)}")
    for name, (value, unit) in result["metrics"].items():
        note = ""
        if name == "setup_s":
            note = f"median of {len(result['setups_s'])}: " + ", ".join(
                _fmt(s) for s in result["setups_s"])
        elif name == "op_ms_tail":
            t = result["tail"]
            note = f"p{t['percentile']:.1f} of n={t['samples']}, {t['beyond']} samples beyond"
        elif name == "pass_share":
            note = "1 - fail_share"
        elif name == "honest_share":
            note = "1 - silent_wrong_share"
        print(f"   {name:<42} {_fmt(value):>12} {unit:<9} {note}")
    for name, (value, unit) in result["shown"].items():
        print(f"   {name:<42} {_fmt(value):>12} {unit:<9} shown, not in the JSON")
    if trace:
        print(f"   absent: {', '.join(result['absent']) or 'none'}")
        print(f"   spans written to {result['trace_file']}")
    print(f"   outcomes {json.dumps(result['outcomes'])}  "
          f"failed {result['failed']}  correct {result['correct']}")
    if result["silent_wrong_ops"]:
        print(f"   silently wrong: op {result['silent_wrong_ops']} of seed {result['seed']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Part of the common benchmark command line, and not used: a seed fixes
    # the op set, so each workload runs a fixed number of ops (workloads.py).
    parser.add_argument("--seconds", type=int, default=20, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "ginverse" / "__init__.py").is_file():
        print(f"benchmark: no ginverse package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            deadline = time.monotonic() + BUDGET_S
            results.append(measure(name, args.seed, args.trace, deadline))
            report(results[-1], args.trace)
    except WorkerError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
