"""Self-test of the benchmark harness: python3 benchmarks/selftest.py

Checks that the tracer counts exactly, that self times add up, that the
traced JSON metrics are complete and nonzero, that it survives a missing
function, that the yardstick window is right, and that the independent
check rejects a perturbed answer and accepts the exact oracle's.  Exits 1 on the first
failure.
"""

from __future__ import annotations

import env  # pins BLAS to one thread; must precede numpy

import json
import sys

env.use_source_tree()

import numpy as np  # noqa: E402

import ginverse  # noqa: E402
from ginverse import matcore, oracle, wgi  # noqa: E402

import workloads as wl  # noqa: E402
from check import satisfies_definition  # noqa: E402
from layertrace import IN_JSON, TARGETS, Tracer  # noqa: E402
from worker import local_median  # noqa: E402


class SelfTestFailure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def all_metrics(tracer: Tracer) -> dict:
    """The tracer's metrics, those for the JSON and those only printed."""
    in_json, shown = tracer.metrics()
    return {**in_json, **shown}


def traced(tracer: Tracer, fn) -> None:
    tracer.install()
    tracer.begin_op(tracer.ops)
    try:
        fn()
    finally:
        tracer.end_op()
        tracer.uninstall()


def test_counts_exact() -> None:
    """N calls to numerical_rank give N calls and N SVDs, and nothing else."""
    a = wl.float_with_index(np.random.default_rng(1), 8, 2, wl.WELL_SIGMA)
    calls = 7
    tracer = Tracer()
    traced(tracer, lambda: [matcore.numerical_rank(a) for _ in range(calls)])
    metrics = all_metrics(tracer)
    expect(metrics["matcore.numerical_rank.calls_per_op"][0] == calls, "numerical_rank count")
    expect(metrics["linalg.svd.calls_per_op"][0] == calls, "svd count")
    expect(metrics["linalg.svd.repeat_share"][0] == (calls - 1) / calls, "svd repeat_share")
    expect(metrics["linalg.svd.work_n3_per_op"][0] == calls * 8**3, "svd work")
    others = [k for k, (v, _) in metrics.items() if k.endswith("calls_per_op") and v
              and not k.startswith(("matcore.numerical_rank.", "linalg.svd."))]
    expect(not others, f"unexpected calls: {others}")


def test_reexport_counted_once() -> None:
    """A call through the package re-export goes through one wrapper."""
    a = wl.float_with_index(np.random.default_rng(2), 6, 1, wl.WELL_SIGMA)
    tracer = Tracer()
    traced(tracer, lambda: ginverse.drazin(a))
    metrics = all_metrics(tracer)
    expect(metrics["classical.drazin.calls_per_op"][0] == 1, "re-exported drazin counted once")
    expect(ginverse.drazin is ginverse.classical.drazin, "originals restored")


def test_self_times_add_up() -> None:
    """Per op, the self times of all spans sum to the op's duration, exactly."""
    a = wl.float_with_index(np.random.default_rng(3), 6, 2, wl.WELL_SIGMA)
    tracer = Tracer()
    for _ in range(3):
        traced(tracer, lambda: wgi.verify_definition(a, wgi.mwgi(a, 2).Z, 2))
    own = tracer.self_times()
    root = tracer.names.index("op")
    for op in range(3):
        spans = [s for s in tracer.spans if s[2] == op]
        (duration,) = [s[5] - s[4] for s in spans if s[3] == root]
        expect(sum(own[s[0]] for s in spans) == duration, f"op {op}: self times do not add up")
        expect(all(own[s[0]] >= 0 for s in spans), f"op {op}: negative self time")


def test_json_metrics_nonzero() -> None:
    """One mwgi op yields every JSON metric, each nonzero, and BENCHMARK.json lists them."""
    a = wl.float_with_index(np.random.default_rng(6), 8, 2, wl.WELL_SIGMA)
    tracer = Tracer()
    traced(tracer, lambda: wgi.mwgi(a, 2))
    metrics, _ = tracer.metrics()
    expect(set(metrics) == IN_JSON, f"JSON metrics differ: {set(metrics) ^ IN_JSON}")
    zeros = [k for k, (v, _) in metrics.items() if v <= 0]
    expect(not zeros, f"JSON metrics read 0: {zeros}")
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in spec["per_layer"]}
    expect(listed == IN_JSON | {"trace.overhead_ratio"},
           f"BENCHMARK.json per_layer differs: {listed ^ IN_JSON}")


def test_absent_function_reported() -> None:
    """A listed function that no longer exists is absent, and the rest still trace."""
    targets = TARGETS + (("wgi", "no_such_function", "ginverse.wgi", "no_such_function"),
                         ("gone", "module", "ginverse.no_such_module", "f"))
    a = wl.float_with_index(np.random.default_rng(4), 5, 1, wl.WELL_SIGMA)
    tracer = Tracer(targets)
    traced(tracer, lambda: wgi.mwgi(a, 1))
    metrics = all_metrics(tracer)
    expect(tracer.absent == ["wgi.no_such_function", "gone.module"], f"absent {tracer.absent}")
    expect(not any(k.startswith(("wgi.no_such_function", "gone.")) for k in metrics),
           "absent function reported as a number")
    expect(metrics["wgi.mwgi.calls_per_op"][0] == 1, "present functions still traced")


def test_check_flags_perturbed() -> None:
    """The independent check accepts mwgi's Z and rejects Z + 1e-6 I."""
    for k in (1, 2, 3):
        a = wl.float_with_index(np.random.default_rng(k), 12, k, wl.WELL_SIGMA)
        z = wgi.mwgi(a, 2).Z
        expect(satisfies_definition(a, z, k, 2), f"k={k}: correct Z rejected")
        expect(not satisfies_definition(a, z + 1e-6 * np.eye(12), k, 2),
               f"k={k}: Z + 1e-6 I accepted")


def test_check_passes_exact() -> None:
    """The independent check accepts the exact oracle's Z on every exact-workload shape."""
    for i in range(12):
        op = wl.make_exact(5, wl.STREAM_TIMED, i)
        (exact_a,) = op.extra
        z = wl.oracle_to_complex(oracle.exact_mwgi(exact_a, op.m))
        expect(satisfies_definition(op.a, z, op.k, op.m), f"op {i}: exact Z rejected")
        expect(oracle.exact_index(exact_a) == op.k, f"op {i}: built index is not k")


def test_local_median() -> None:
    """Each op's yardstick is the median of the timings within the window around it."""
    times = np.array([0.0, 0.2, 0.8, 2.0, 2.1])
    values = np.array([1.0, 3.0, 8.0, 10.0, 20.0])
    got = [float(x) for x in local_median(times, values, 0.5)]
    expect(got == [2.0, 2.0, 8.0, 15.0, 15.0], f"local_median gave {got}")


def main() -> int:
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    for test in tests:
        try:
            test()
        except SelfTestFailure as exc:
            print(f"FAIL {test.__name__}: {exc}")
            return 1
        print(f"ok   {test.__name__}")
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
