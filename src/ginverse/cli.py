"""Command-line frontend.

    ginv compute   --input a.json --inverse mwgi --m 2
    ginv verify    --input a.json --candidate x.json --m 1
    ginv decompose --input a.json --m 1
    ginv solve     --input a.json --b b.json [--y y.json] --m 1
    ginv shift     --m 2 --window 8
    ginv fuzz      --trials 200 --seed 7
    ginv certify   --trials 10 --seed 7   (or --input rational.json)

Exit codes: 0 on success / all checks passing, 1 on any failed check or a
well-formed input without the requested inverse, 2 on unusable input.
Results are machine-readable JSON; --pretty prints a human table instead.
The environment variable GINV_TOL_EQ overrides the default equality
tolerance; explicit --tol-eq wins over both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import eqsolve, generators, oracle, shiftlab, wgi
from .classical import core_ep, core_inverse, drazin, group_inverse, moore_penrose, tower
from .matcore import (
    DEFAULT_TOL,
    MatrixFormatError,
    TolerancePolicy,
    conj_transpose,
    matrix_from_json,
    matrix_to_json,
    rel_residual,
)
from .report import _core_ep_identities, _drazin_identities, _eq_check, _evaluate
from .report import _penrose_identities

__all__ = ["run", "main"]


# each inverse with the defining equations its result is checked against
_INVERSES = {
    "mp": (moore_penrose, _penrose_identities),
    "group": (group_inverse, _drazin_identities),
    "drazin": (drazin, _drazin_identities),
    "core": (core_inverse, _core_ep_identities),
    "core-ep": (core_ep, _core_ep_identities),
}

_ROUTE_BY_FLAG = {route.value: route for route in wgi.Route if route is not wgi.Route.RECURSIVE}


class InputError(Exception):
    """Unusable input: parse failure, bad shape, missing file."""


def _load_json(path: str):
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _load_matrix(path: str, parse=matrix_from_json):
    try:
        return parse(_load_json(path))
    except MatrixFormatError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _emit(args: argparse.Namespace, payload: dict, table: str | None = None) -> None:
    text = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    if args.pretty and table:
        print(table)
    elif not args.output:
        print(text)


def _report_table(report: wgi.VerificationReport, title: str) -> str:
    lines = [title, "-" * len(title)]
    width = max(len(name) for name in report.checks)
    for name, check in report.checks.items():
        status = "PASS" if check.passed else "FAIL"
        lines.append(f"{name:<{width}}  {check.residual:12.5e}  {status}")
    lines.append(f"overall: {'PASS' if report.overall else 'FAIL'}")
    return "\n".join(lines)


def _tolerance(args: argparse.Namespace) -> TolerancePolicy:
    eq = args.tol_eq
    if eq is None:
        env = os.environ.get("GINV_TOL_EQ")
        try:
            eq = float(env) if env else DEFAULT_TOL.eq_rtol
        except ValueError:
            raise InputError(f"GINV_TOL_EQ must be a number, got {env!r}") from None
    return TolerancePolicy(
        rank_rtol=args.tol_rank if args.tol_rank is not None else DEFAULT_TOL.rank_rtol,
        eq_rtol=eq,
        nil_atol=args.tol_nil if args.tol_nil is not None else DEFAULT_TOL.nil_atol,
    )


def _cmd_compute(args: argparse.Namespace) -> int:
    a = _load_matrix(args.input)
    # the Penrose list reads neither k nor power, and A^+ needs no tower (nor a square A)
    t = None if args.inverse == "mp" else tower(a, args.tol)
    if args.inverse == "mwgi":
        route = _ROUTE_BY_FLAG[args.route]
        z = wgi.mwgi_by_route(t, args.m, route, args.tol)
        if route is not wgi.Route.CORE_EP:  # mwgi has checked the core-ep Z already
            wgi._require(wgi._check_z(t, z, args.m), f"the {args.route} route's Z")
    else:
        inverse, identities = _INVERSES[args.inverse]
        z = inverse(t or a, args.tol)
        sides = identities(a, z, t and t.index.k, t and t.power, conj_transpose)
        checks = _evaluate(sides, sides, _eq_check, args.tol)
        wgi._require(checks, f"the {args.inverse} inverse")
    _emit(args, matrix_to_json(z))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    a = _load_matrix(args.input)
    z = _load_matrix(args.candidate)
    report = wgi.verify_definition(a, z, args.m, args.tol)
    _emit(args, report.to_dict(), _report_table(report, f"verify (m={args.m})"))
    return 0 if report.overall else 1


def _cmd_decompose(args: argparse.Namespace) -> int:
    t = tower(_load_matrix(args.input), args.tol)
    z = wgi.mwgi(t, args.m, args.tol).Z
    decomp = wgi.group_decomposition(t, args.m, args.tol, z)
    report = decomp.verify(t, args.m, args.tol, z)
    payload = {
        "x": matrix_to_json(decomp.X),
        "y": matrix_to_json(decomp.Y),
        "report": report.to_dict(),
    }
    _emit(args, payload, _report_table(report, f"decomposition (m={args.m})"))
    return 0 if report.overall else 1


def _cmd_solve(args: argparse.Namespace) -> int:
    a = _load_matrix(args.input)
    b = _load_matrix(args.b)
    y = _load_matrix(args.y) if args.y else None
    t = tower(a, args.tol)
    solution = eqsolve.solve_general(t, b, args.m, y, args.tol)
    value = eqsolve.residual(t, b, args.m, solution.X, args.tol)
    payload = {
        "x": matrix_to_json(solution.X),
        "residual": value,
        "pass": value <= args.tol.eq_rtol,
        "free_part_used": solution.free_part_used,
    }
    table = f"solve (m={args.m}): residual {value:.5e} " + (
        "PASS" if payload["pass"] else "FAIL"
    )
    _emit(args, payload, table)
    return 0 if payload["pass"] else 1


def _cmd_shift(args: argparse.Namespace) -> int:
    report = shiftlab.verify_shift_identities(args.m, args.window)
    word = str(shiftlab.mwgi_shift(args.m))
    payload = {"word": word, "report": report.to_dict()}
    table = _report_table(report, f"Z = {word} (m={args.m}, window={args.window})")
    _emit(args, payload, table)
    return 0 if report.overall else 1


def _fuzz_trial(rng: np.random.Generator, tol: TolerancePolicy, n: int, k: int, m: int) -> dict:
    t = tower(generators.with_index(rng, n, k), tol)  # A's one tower, kept in the memo
    z = wgi.mwgi(t, m, tol).Z
    residuals: dict[str, float] = {}
    for route in wgi.Route:
        if route is wgi.Route.CORE_EP or (m < 2 and route in wgi._NEED_M2):
            continue
        key = "route_" + route.value.replace("-", "_")
        residuals[key] = rel_residual(z, wgi.mwgi_by_route(t, m, route, tol))
    failures = [name for name, value in residuals.items() if value > tol.eq_rtol]

    reports = {
        "definition": wgi.verify_definition(t, z, m, tol),
        "decomposition": wgi.group_decomposition(t, m, tol, z).verify(t, m, tol, z),
        "polar": wgi.polar_idempotent(t, m, tol, z).verify(t, m, tol),
        "b_characterization": wgi.b_characterization(t, m, tol, z),
        "bc_inverse": wgi.bc_inverse_check(t, m, tol, z),
        "outer_inverse": wgi.outer_inverse_subspaces(t, m, tol, z),
    }
    for name, report in reports.items():
        if not report.overall:
            failures.append(name)
        residuals[name] = max(check.residual for check in report.checks.values())

    b = generators.conditioned_matrix(rng, n)
    y = generators.conditioned_matrix(rng, n)
    solved = eqsolve.solve_general(t, b, m, y, tol, z)
    residuals["equation"] = eqsolve.residual(t, b, m, solved.X, tol)
    if residuals["equation"] > tol.eq_rtol:
        failures.append("equation")

    return {"n": n, "k": k, "m": m, "failures": sorted(failures), "residuals": residuals}


def _m_values(args: argparse.Namespace) -> list[int]:
    return [args.m] if args.m else [1, 2, 3]


def _trials(args: argparse.Namespace):
    """(trial, n, k, m) of each generated trial of fuzz and certify: n cycles
    through 2..dim, k through 0..index (at most n - 1), m through 1..3 unless --m fixes it."""
    m_values = _m_values(args)
    for trial in range(args.trials):
        n = 2 + trial % max(1, args.dim - 1)
        yield trial, n, min(trial % (args.index + 1), n - 1), m_values[trial % len(m_values)]


def _cmd_fuzz(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    worst: dict[str, float] = {}
    failures = []
    for trial, n, k, m in _trials(args):
        outcome = _fuzz_trial(rng, args.tol, n, k, m)
        for name, value in outcome["residuals"].items():
            worst[name] = max(worst.get(name, 0.0), value)
        if outcome["failures"]:
            failures.append(
                {"trial": trial, "n": n, "k": k, "m": m, "failures": outcome["failures"]}
            )
    payload = {
        "trials": args.trials,
        "seed": args.seed,
        "m_values": _m_values(args),
        "max_residuals": worst,
        "failures": failures,
        "overall": not failures,
    }
    lines = [f"fuzz: {args.trials} trials, seed {args.seed}"]
    for name in sorted(worst):
        lines.append(f"{name:<22} max residual {worst[name]:12.5e}")
    lines.append(f"overall: {'PASS' if not failures else 'FAIL'}")
    _emit(args, payload, "\n".join(lines))
    return 0 if not failures else 1


def _certify_one(
    a: oracle.RationalMatrix, m: int, tol: TolerancePolicy
) -> tuple[dict, bool, wgi.VerificationReport]:
    report = oracle.certify(a, m)
    exact = oracle.exact_mwgi(a, m)
    float_residual = rel_residual(
        wgi.mwgi(a.to_complex(), m, tol).Z, exact.to_complex()
    )
    float_ok = float_residual <= tol.eq_rtol
    payload = {
        "report": report.to_dict(),
        "float_mwgi_residual": float_residual,
        "float_mwgi_pass": float_ok,
    }
    return payload, report.overall and float_ok, report


def _cmd_certify(args: argparse.Namespace) -> int:
    if args.input:
        m = args.m if args.m >= 1 else 1
        a = _load_matrix(args.input, oracle.RationalMatrix.from_json)
        payload, ok, report = _certify_one(a, m, args.tol)
        _emit(args, payload, _report_table(report, f"certify (m={m})"))
        return 0 if ok else 1
    rng = np.random.default_rng(args.seed)
    results = []
    all_ok = True
    for trial, n, k, m in _trials(args):
        a = generators.rational_with_index(rng, n, k)
        payload, ok, _ = _certify_one(a, m, args.tol)
        results.append({"trial": trial, "n": n, "k": k, "m": m, "pass": ok})
        all_ok = all_ok and ok
    payload = {
        "trials": args.trials,
        "seed": args.seed,
        "results": results,
        "overall": all_ok,
    }
    table = f"certify: {args.trials} trials, overall {'PASS' if all_ok else 'FAIL'}"
    _emit(args, payload, table)
    return 0 if all_ok else 1


_COMMANDS = {
    "compute": _cmd_compute,
    "verify": _cmd_verify,
    "decompose": _cmd_decompose,
    "solve": _cmd_solve,
    "shift": _cmd_shift,
    "fuzz": _cmd_fuzz,
    "certify": _cmd_certify,
}


def run(args: argparse.Namespace) -> int:
    """Check --m, --index, --trials and --dim, set ``args.tol`` and run one parsed command;
    returns the exit code."""
    try:
        if args.m < 0 or (args.command not in ("fuzz", "certify") and args.m < 1):
            raise InputError("--m must be a positive integer")
        if getattr(args, "index", 0) < 0:
            raise InputError("--index must be a non-negative integer")
        if getattr(args, "trials", 1) < 1:
            raise InputError("--trials must be a positive integer")
        if getattr(args, "dim", 2) < 2:
            raise InputError("--dim must be an integer >= 2")
        args.tol = _tolerance(args)
        return _COMMANDS[args.command](args)
    except (ArithmeticError, np.linalg.LinAlgError, wgi.OrthogonalityViolation) as exc:
        # no such inverse, a failed self-check, a singular core block, or
        # exact-arithmetic overflow
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InputError, ValueError) as exc:
        # well-formed JSON can still be unusable (wrong shape, bad m, ...);
        # LinAlgError is a ValueError too, but the clause above takes it
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ginv",
        description="Generalized inverses of complex matrices and their verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_m: bool = True) -> None:
        if needs_m:
            p.add_argument("--m", type=int, default=1, help="weight exponent m >= 1")
        p.add_argument("--tol-rank", type=float, default=None)
        p.add_argument("--tol-eq", type=float, default=None)
        p.add_argument("--tol-nil", type=float, default=None)
        p.add_argument("--output", default=None, help="write JSON here instead of stdout")
        p.add_argument("--pretty", action="store_true", help="print a human-readable table")

    p = sub.add_parser("compute", help="compute an inverse from the family")
    p.add_argument("--input", required=True)
    p.add_argument("--inverse", choices=[*_INVERSES, "mwgi"], default="mwgi")
    p.add_argument("--route", choices=sorted(_ROUTE_BY_FLAG), default="core-ep")
    common(p)

    p = sub.add_parser("verify", help="check a candidate inverse against the defining equations")
    p.add_argument("--input", required=True)
    p.add_argument("--candidate", required=True)
    common(p)

    p = sub.add_parser("decompose", help="split A = X + Y with X group invertible, Y nilpotent")
    p.add_argument("--input", required=True)
    common(p)

    p = sub.add_parser("solve", help="solve the weighted matrix equation")
    p.add_argument("--input", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--y", default=None)
    common(p)

    p = sub.add_parser("shift", help="exact one-sided shift-operator checks")
    p.add_argument("--window", type=int, default=8)
    common(p)

    p = sub.add_parser("fuzz", help="random cross-verification of every route and report")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--dim", type=int, default=6)
    p.add_argument("--index", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", type=int, default=0, help="fix m; 0 cycles through 1..3")
    common(p, needs_m=False)

    p = sub.add_parser("certify", help="exact-arithmetic identity battery")
    p.add_argument("--input", default=None, help="rational matrix JSON")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--index", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", type=int, default=0, help="fix m; 0 cycles through 1..3")
    common(p, needs_m=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    return run(_build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
