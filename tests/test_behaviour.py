import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("behaviour", ROOT / "tools" / "behaviour.py")
behaviour = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(behaviour)


def _committed() -> list[dict]:
    return json.loads(behaviour.DIGEST.read_text())["steps"]


def _values(x):
    if isinstance(x, dict):
        for value in x.values():
            yield from _values(value)
    elif isinstance(x, list):
        for value in x:
            yield from _values(value)
    else:
        yield x


def test_digest_covers_every_ginv_step_of_the_workflow():
    # a step added, renamed or reordered in CI without a new digest fails here, not only in CI
    steps = behaviour.workflow_steps(behaviour.WORKFLOW.read_text())
    wanted = [name for name, script in steps if behaviour.calls_ginv(script)]
    assert [step["step"] for step in _committed()] == wanted
    assert "Tier-1 tests" not in wanted and any(name.startswith("Certify") for name in wanted)


def test_digest_keeps_no_residual():
    assert not any(isinstance(v, float) for v in _values(_committed()))


def test_a_flipped_verdict_is_a_difference():
    payload = {
        "trials": 2,
        "max_residuals": {"definition": 1e-15},
        "failures": [{"trial": 1, "n": 3, "k": 1, "m": 2, "failures": ["polar"]}],
        "overall": False,
    }
    call = {"argv": "fuzz --trials 2", "exit": 1, "output": behaviour.digest(payload)}
    assert call["output"] == {
        "overall": False,
        "failures": [{"trial": 1, "failures": ["polar"], "errors": []}],
    }
    flipped = dict(payload, failures=[], overall=True)
    after = {"argv": "fuzz --trials 2", "exit": 0, "output": behaviour.digest(flipped)}
    step = {"step": "Fuzz", "exit": 0}
    lines = behaviour.differences([dict(step, calls=[call])], [dict(step, calls=[after])])
    assert [line.split("): ", 1)[1].split(" ")[0] for line in lines] == [
        "exit", "output.failures", "output.overall"
    ]
    assert behaviour.differences([dict(step, calls=[call])], [dict(step, calls=[call])]) == []



def _run(polar: float, float_mwgi: float, solve: float) -> list[dict]:
    """One step's log of a fuzz, a certify and a solve call, as the shim writes it."""
    payloads = {
        "fuzz": {"max_residuals": {"definition": 1e-15, "polar": polar}, "overall": True},
        "certify": {
            "report": {"checks": {"ax2": {"pass": True, "residual": 0.0}}, "overall": True},
            "float_mwgi_residual": float_mwgi,
            "float_mwgi_pass": True,
        },
        "solve": {"residual": solve, "pass": True},
    }
    calls = [
        {
            "argv": argv,
            "exit": 0,
            "output": behaviour.digest(payload),
            "residuals": behaviour.residuals(payload),
        }
        for argv, payload in payloads.items()
    ]
    return [{"step": "CLI", "exit": 0, "calls": calls}]


def test_residual_moves_name_each_moved_residual_with_both_values():
    before, after = _run(2e-15, 3e-15, 6e-15), _run(2.5e-15, 3e-15, 7e-15)
    assert before[0]["calls"][1]["residuals"] == {
        "float_mwgi_residual": 3e-15,
        "report.checks.ax2": 0.0,
    }
    assert behaviour.residual_moves(before, after) == [
        "CLI: call 1 (ginv fuzz): max_residuals.polar 2e-15 -> 2.5e-15",
        "CLI: call 3 (ginv solve): residual 6e-15 -> 7e-15",
    ]
    assert behaviour.differences(before, after) == []  # a residual is no verdict
    assert behaviour.residual_moves(before, before) == []
