"""Verification reports, shared by the float, exact and shift-operator checkers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import TolerancePolicy, frobenius, rel_residual

__all__ = ["Check", "VerificationReport"]


@dataclass(frozen=True)
class Check:
    """One named verification: residual plus its pass flag.

    Equation checks store the relative Frobenius residual of left-minus-right;
    nilpotency checks store the absolute Frobenius norm of the tested power;
    subspace/rank checks are boolean and store 0.0 or 1.0.
    """

    residual: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    """Named residuals with pass flags; overall is their conjunction."""

    checks: dict[str, Check]

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def to_dict(self) -> dict:
        return {
            "checks": {
                name: {"residual": c.residual, "pass": c.passed}
                for name, c in self.checks.items()
            },
            "overall": self.overall,
        }


def _eq_check(left: np.ndarray, right: np.ndarray, tol: TolerancePolicy) -> Check:
    residual = rel_residual(left, right)
    return Check(residual=residual, passed=residual <= tol.eq_rtol)


def _nil_check(power: np.ndarray, tol: TolerancePolicy) -> Check:
    norm = frobenius(power)
    return Check(residual=norm, passed=norm <= tol.nil_atol)


def _bool_check(flag: bool) -> Check:
    return Check(residual=0.0 if flag else 1.0, passed=flag)


def _merge(*checks: Check) -> Check:
    return Check(
        residual=max(c.residual for c in checks),
        passed=all(c.passed for c in checks),
    )
