"""General and range-constrained solutions of the weighted matrix equation

    (A A^D)* A^{m+1} X = (A A^D)* A^m B.

With Z the m-weak group inverse of A, the general solution is
X = Z B + (I - Z A) Y for arbitrary Y, and X = Z B is the unique solution
whose columns lie in col(Z).  Each function takes A or its Tower.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import tower
from .matcore import DEFAULT_TOL, TolerancePolicy, _check_m, as_matrix, conj_transpose, frobenius
from .report import _equation_identities
from .wgi import _candidate, mwgi

__all__ = ["EquationSolution", "residual", "solve_general", "solve_in_range"]


@dataclass(frozen=True)
class EquationSolution:
    """A solution X, flagging whether a nonzero free term Y was injected."""

    X: np.ndarray
    free_part_used: bool


def _conformable(a: np.ndarray, b: np.ndarray, name: str) -> np.ndarray:
    b = as_matrix(b)
    if b.shape[0] != a.shape[0]:
        raise ValueError(
            f"{name} must have {a.shape[0]} rows to conform with A, got {b.shape}"
        )
    return b


def residual(a, b, m: int, x, tol: TolerancePolicy = DEFAULT_TOL) -> float:
    """Relative Frobenius residual of the equation at X.

    Computed as ||L - R|| / max(1, ||R||) with L = (A A^D)* A^{m+1} X and
    R = (A A^D)* A^m B, so a candidate of twice the right size reads as 1.
    """
    t = tower(a, tol)
    b, x = _conformable(t.a, b, "B"), _conformable(t.a, x, "X")
    if x.shape[1] != b.shape[1]:
        raise ValueError(f"X has {x.shape[1]} columns but B has {b.shape[1]}")
    m = _check_m(m)  # the tower reads m = 0 as A^0 = I and raises only below it
    q_star = conj_transpose(t.ad)
    sides = _equation_identities(x, b, m, t.power, q_star.__matmul__)["equation"]
    left, right = sides()
    return frobenius(left - right) / max(1.0, frobenius(right))


def solve_general(
    a, b, m: int, y=None, tol: TolerancePolicy = DEFAULT_TOL, z=None
) -> EquationSolution:
    """General solution X = Z B + (I - Z A) Y; Y defaults to zero, Z to mwgi(A, m)."""
    t = tower(a, tol)
    a, b = t.a, _conformable(t.a, b, "B")
    z = mwgi(t, m, tol).Z if z is None else _candidate(t, z, m)
    x = z @ b
    free_part_used = False
    if y is not None:
        y = _conformable(a, y, "Y")
        if y.shape[1] != b.shape[1]:
            raise ValueError(f"Y has {y.shape[1]} columns but B has {b.shape[1]}")
        free_part_used = frobenius(y) > 0.0
        x = x + (t.power(0) - z @ a) @ y
    return EquationSolution(X=x, free_part_used=free_part_used)


def solve_in_range(a, b, m: int, tol: TolerancePolicy = DEFAULT_TOL) -> EquationSolution:
    """The unique solution with columns inside col(Z), namely X = Z B."""
    return solve_general(a, b, m, tol=tol)
