"""Same behaviour, checked: a digest of every ``ginv`` command that CI runs.

    python3 tools/behaviour.py            # run the commands, write tools/behaviour.json
    python3 tools/behaviour.py --check    # run them, print every difference, exit 1 on any
    python3 tools/behaviour.py --against REV   # run them at REV and here, print what moved

Every step of ``.github/workflows/tests.yml`` that calls ``ginv`` (or
``ginverse.cli``) runs under ``bash -e``, in order, in one temporary
directory, so its input files are built as CI builds them.  A ``ginv`` shim
first on PATH runs the CLI of this checkout's ``src/`` and records each call:
its arguments, its exit code and a digest of its JSON output.  ``--pretty`` is
dropped from each call, so every command prints the JSON its table is made
from.  The digest keeps verdicts only: ``overall``, each fuzz failure's trial,
failing keys and ``errors`` keys, each certify trial's ``pass``, each
report's check names, and ``pass`` where a command prints one.  Residual values
depend on the BLAS build and the CPU, so none is kept.  A step's own exit
status is kept too, which covers the ``test`` and ``cmp`` lines around its
calls.

``--against REV`` runs the same steps twice on one machine: with the ``src/`` of
git revision REV, unpacked by ``git archive`` into a temporary directory that is
removed afterwards, and with this checkout's ``src/``.  It prints every verdict
difference, then one line per residual that moved, with both values: each fuzz
``max_residuals`` key, each report check (certify's, verify's, decompose's),
``float_mwgi_residual`` and solve's ``residual``.  It exits 1 on a verdict
difference only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
DIGEST = Path(__file__).resolve().with_suffix(".json")
LOG = "GINV_BEHAVIOUR_LOG"  # the shim appends one JSON line per call to this file


def workflow_steps(text: str) -> list[tuple[str, str]]:
    """(name, run script) of each step of the workflow, read from its list of
    ``- name:`` entries, each with a one-line ``run:`` or a ``run: |`` block."""
    steps: list[tuple[str, str]] = []
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if not line.lstrip().startswith("- name:"):
            continue
        name = line.split("name:", 1)[1].strip()
        run = lines[i + 1].strip() if i + 1 < len(lines) else ""
        if not run.startswith("run:"):
            continue
        script = run[len("run:") :].strip()
        if script == "|":
            indent = len(lines[i + 2]) - len(lines[i + 2].lstrip())
            block = []
            for body in lines[i + 2 :]:
                if body.strip() and len(body) - len(body.lstrip()) < indent:
                    break
                block.append(body[indent:])
            script = "\n".join(block).strip()
        steps.append((name, script))
    return steps


def calls_ginv(script: str) -> bool:
    return re.search(r"\bginv\s|-m ginverse\.cli\s", script) is not None


def digest(payload):
    """The verdicts of one command's JSON output, without a residual value."""
    if not isinstance(payload, dict):
        return None
    out = {key: payload[key] for key in ("overall", "pass", "float_mwgi_pass") if key in payload}
    if "checks" in payload:  # a report
        out["checks"] = sorted(payload["checks"])
    if isinstance(payload.get("report"), dict):
        out["report"] = digest(payload["report"])
    if isinstance(payload.get("errors"), dict):
        out["errors"] = sorted(payload["errors"])
    if isinstance(payload.get("failures"), list):  # fuzz
        out["failures"] = [
            {"trial": f["trial"], "failures": f["failures"], "errors": sorted(f.get("errors", {}))}
            for f in payload["failures"]
        ]
    if isinstance(payload.get("results"), list):  # certify trials
        out["results"] = [
            {"trial": r["trial"], "pass": r["pass"], "errors": sorted(r.get("errors", {}))}
            for r in payload["results"]
        ]
    return out


def residuals(payload, prefix: str = "") -> dict[str, float]:
    """Every residual of one command's JSON output, by its path of keys."""
    if not isinstance(payload, dict):
        return {}
    worst = payload.get("max_residuals", {})  # fuzz
    out = {f"{prefix}max_residuals.{key}": value for key, value in worst.items()}
    for name, check in payload.get("checks", {}).items():  # a report
        out[f"{prefix}checks.{name}"] = check["residual"]
    for key in ("residual", "float_mwgi_residual"):
        if key in payload:
            out[prefix + key] = payload[key]
    out.update(residuals(payload.get("report"), f"{prefix}report."))
    return out


def shim(argv: list[str]) -> int:
    """Run ``ginv argv`` without --pretty, pass its output on, and log its digest."""
    from ginverse import cli

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main([a for a in argv if a != "--pretty"])
    text = captured.getvalue()
    sys.stdout.write(text)
    try:
        payload = json.loads(text)
    except ValueError:  # no output, or an --output file in its place
        payload = None
    record = {"argv": " ".join(argv), "exit": code, "output": digest(payload)}
    record["residuals"] = residuals(payload)  # for --against; never written to the digest
    with open(os.environ[LOG], "a") as log:
        log.write(json.dumps(record) + "\n")
    return code


def run_steps(src: Path = ROOT / "src") -> list[dict]:
    """Run each workflow step that calls ginv, in order, in one temporary directory,
    with the package imported from ``src``."""
    steps = [(n, s) for n, s in workflow_steps(WORKFLOW.read_text()) if calls_ginv(s)]
    out = []
    with tempfile.TemporaryDirectory(prefix="ginv-behaviour-") as tmp:
        bin_dir = Path(tmp) / "bin"
        work = Path(tmp) / "work"
        bin_dir.mkdir()
        work.mkdir()
        ginv = bin_dir / "ginv"
        ginv.write_text(
            f"#!/bin/sh\nexec {shlex.quote(sys.executable)} "
            f"{shlex.quote(str(Path(__file__).resolve()))} --shim \"$@\"\n"
        )
        ginv.chmod(0o755)
        log = Path(tmp) / "log.jsonl"
        env = dict(os.environ)
        env["PATH"] = f"{bin_dir}{os.pathsep}{env.get('PATH', '')}"
        paths = [str(src), *filter(None, [env.get("PYTHONPATH")])]
        env["PYTHONPATH"] = os.pathsep.join(paths)
        env["OPENBLAS_NUM_THREADS"] = "1"  # as CI's job sets it
        env[LOG] = str(log)
        for name, script in steps:
            log.write_text("")
            done = subprocess.run(
                ["bash", "-e", "-c", script],
                cwd=work,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            calls = [json.loads(line) for line in log.read_text().splitlines()]
            out.append({"step": name, "exit": done.returncode, "calls": calls})
    return out


def _fields(call: dict) -> dict:
    """A call's record as flat fields: argv, exit and each key of its output's digest."""
    output = {f"output.{key}": value for key, value in (call.get("output") or {}).items()}
    return {"argv": call.get("argv"), "exit": call.get("exit"), **output}


def _moved(where: str, x: dict, y: dict) -> list[str]:
    """One line per key whose value differs between x and y, with both values."""
    return [
        f"{where}: {key} {json.dumps(x.get(key))} -> {json.dumps(y.get(key))}"
        for key in sorted(x.keys() | y.keys())
        if x.get(key) != y.get(key)
    ]


def _steps(before: list[dict], after: list[dict]):
    """(name, old step, new step) of each step in both runs, in the new run's order."""
    old = {s["step"]: s for s in before}
    return [(s["step"], old[s["step"]], s) for s in after if s["step"] in old]


def _calls(name: str, a: dict, b: dict):
    """(where, old call, new call) of each call of one step, paired by position."""
    for i, (x, y) in enumerate(itertools.zip_longest(a["calls"], b["calls"], fillvalue={})):
        yield f"{name}: call {i + 1} (ginv {y.get('argv') or x.get('argv')})", x, y


def differences(expected: list[dict], actual: list[dict]) -> list[str]:
    """One line per difference between two digests: a step gone or new, a step's exit
    status, or one field of one call."""
    old = {s["step"] for s in expected}
    new = {s["step"] for s in actual}
    lines = [f"step gone: {s['step']}" for s in expected if s["step"] not in new]
    lines += [f"step new: {s['step']}" for s in actual if s["step"] not in old]
    for name, a, b in _steps(expected, actual):
        if a["exit"] != b["exit"]:
            lines.append(f"{name}: step exit {a['exit']} -> {b['exit']}")
        for where, x, y in _calls(name, a, b):
            lines += _moved(where, _fields(x), _fields(y))
    return lines


def residual_moves(before: list[dict], after: list[dict]) -> list[str]:
    """One line per residual of one call that differs between two runs, with both values."""
    lines = []
    for name, a, b in _steps(before, after):
        for where, x, y in _calls(name, a, b):
            lines += _moved(where, x.get("residuals", {}), y.get("residuals", {}))
    return lines


def run_at(rev: str) -> list[dict]:
    """``run_steps`` with the src/ of git revision rev, unpacked into a temporary directory."""
    with tempfile.TemporaryDirectory(prefix="ginv-against-") as tmp:
        tree = subprocess.run(
            ["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True, check=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=tree, check=True)
        return run_steps(Path(tmp) / "src")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--shim"]:
        return shim(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true", help=f"compare with {DIGEST.name}, exit 1 on a difference"
    )
    parser.add_argument(
        "--against", metavar="REV", help="run at git revision REV and here, print what moved"
    )
    args = parser.parse_args(argv)
    before = run_at(args.against) if args.against else None
    actual = run_steps()
    calls = f"{len(actual)} steps, {sum(len(s['calls']) for s in actual)} ginv calls"
    if before is not None:
        lines = differences(before, actual)
        moves = residual_moves(before, actual)
        summary = f"{calls}: {len(lines)} differences, {len(moves)} residuals moved"
        print("\n".join([*lines, *moves, f"{summary} against {args.against}"]))
        return 1 if lines else 0
    if not args.check:
        for call in (call for step in actual for call in step["calls"]):
            del call["residuals"]  # the digest keeps verdicts only
        DIGEST.write_text(json.dumps({"steps": actual}, indent=1) + "\n")
        print(f"wrote {DIGEST.relative_to(ROOT)}: {calls}")
        return 0
    lines = differences(json.loads(DIGEST.read_text())["steps"], actual)
    print("\n".join([*lines, f"{calls}: {len(lines)} differences"]))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
