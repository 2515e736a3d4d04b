"""Verification reports and the classical inverses' identity lists, shared by every checker."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import TolerancePolicy, conj_transpose, frobenius, rel_residual

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


# Defining identities {label: (left, right)} of the Drazin (group at k <= 1), core-EP
# (core at k <= 1) and Moore-Penrose inverses X of A of index k; power(j) is A^j and
# star the conjugate transpose.  Floats read them with _eq_check, the oracle exactly.
def _drazin_identities(a, x, k: int, power, star) -> dict:
    xa = x @ a
    return {
        "A X = X A": (a @ x, xa),
        "X A X = X": (xa @ x, x),
        "A^(k+1) X = A^k": (power(k + 1) @ x, power(k)),
    }


def _core_ep_identities(a, x, k: int, power, star) -> dict:
    ax = a @ x
    return {
        "A X^2 = X": (ax @ x, x),
        "(A X)* = A X": (star(ax), ax),
        "A X A^k = A^k": (ax @ power(k), power(k)),
    }


def _penrose_identities(a, x, k: int, power, star) -> dict:
    ax, xa = a @ x, x @ a  # A may be rectangular here
    return {
        "A X A = A": (ax @ a, a),
        "X A X = X": (xa @ x, x),
        "(A X)* = A X": (star(ax), ax),
        "(X A)* = X A": (star(xa), xa),
    }


def _hermitian_check(w: np.ndarray, tol: TolerancePolicy) -> Check:
    """``_eq_check(W, W*)`` with one norm: ||W*||_F has the bits of ||W||_F."""
    residual = frobenius(w - conj_transpose(w)) / max(1.0, frobenius(w))
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
