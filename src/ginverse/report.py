"""Verification reports and the identity lists of every inverse, shared by every checker."""

from __future__ import annotations

import enum
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


def _eq_check(left: np.ndarray, right, tol: TolerancePolicy) -> Check:
    """Left = right within eq_rtol, or the property of left that right names (``_Is``)."""
    if type(right) is _Is:
        if right is _Is.HERMITIAN:
            return _hermitian_check(left, tol)
        if right is _Is.ZERO:
            return _zero_check(left, tol)
        return _nil_check(np.linalg.matrix_power(left, len(left)), tol)
    residual = rel_residual(left, right)
    return Check(residual=residual, passed=residual <= tol.eq_rtol)


# Defining identities {label: sides} of the Drazin (group at k <= 1), core-EP (core at
# k <= 1) and Moore-Penrose inverses X of A of index k, where sides() forms the pair
# (left, right); power(j) is A^j and star the conjugate transpose.  Floats judge them
# with _eq_check, the oracle exactly (see _evaluate).
def _drazin_identities(a, x, k: int, power, star) -> dict:
    xa = x @ a
    return {
        "A X = X A": lambda: (a @ x, xa),
        "X A X = X": lambda: (xa @ x, x),
        "A^(k+1) X = A^k": lambda: (power(k + 1) @ x, power(k)),
    }


def _core_ep_identities(a, x, k: int, power, star) -> dict:
    ax = a @ x
    return {
        "A X^2 = X": lambda: (ax @ x, x),
        "(A X)* = A X": lambda: (star(ax), ax),
        "A X A^k = A^k": lambda: (ax @ power(k), power(k)),
    }


def _penrose_identities(a, x, k: int, power, star) -> dict:
    ax, xa = a @ x, x @ a  # A may be rectangular here
    return {
        "A X A = A": lambda: (ax @ a, a),
        "X A X = X": lambda: (xa @ x, x),
        "(A X)* = A X": lambda: (star(ax), ax),
        "(X A)* = X A": lambda: (star(xa), xa),
    }


class _Is(enum.Enum):
    """A right side that names a property of the left side W: W is Hermitian, zero or nilpotent."""

    HERMITIAN = "Hermitian"
    ZERO = "zero"
    NILPOTENT = "nilpotent"


# The m-weak group inverse Z's characterizations, one list each, in the form above:
# sides() may also form a right side that is an _Is, or a list of pairs whose checks
# the label merges, so a checker forms only the entries it reads.
def _definition_identities(a, z, k: int, m: int, power, star, az, az2, am1z, qs, aao) -> dict:
    """The definition of Z for A of index k: ax2 and wgm_k (``mwgi``'s self-check),
    then its consequences.  The caller holds A Z, A Z^2 = (A Z) Z and
    A^{m+1} Z = A^m (A Z), and gives qs(X) = (A A^D)* X and aao(X) = A A^o X."""
    am, ak = power(m), power(k)

    def wgm_k():
        first = (z @ power(k + 1), ak)
        if k == 0:  # A^0 = I
            return [first, (am1z, am)]
        ak_star = star(ak)
        return [first, (ak_star @ am1z, ak_star @ am)]

    def idem34():  # A Z = A^j Z^j for j = 2, 3
        a2z2 = a @ az2
        return [(az, a2z2), (az, a @ (a2z2 @ z))]

    return {
        "ax2": lambda: (z, az2),
        "def11": lambda: (qs(am1z), qs(am)),
        "wgm_k": wgm_k,
        "hermitian31": lambda: (star(am) @ am1z, _Is.HERMITIAN),
        "coreEP48": lambda: (am1z, aao(am)),
        "limit": lambda: (ak, az if k == 0 else az @ ak),
        "idem34": idem34,
    }


def _decomposition_identities(a, x, y, z, m: int, power, star) -> dict:
    """A = X + Y with X* A^{m-1} Y = 0, Y X = 0 and Y nilpotent, X of index <= 1
    (X Z X = X with X Z = Z X) and Z its group inverse (Z X Z = Z)."""

    def x_index():
        xz = x @ z
        return [(xz @ x, x), (xz, z @ x)]

    return {
        "sum": lambda: (a, x + y),
        "orth_left": lambda: (star(x) @ power(m - 1) @ y, _Is.ZERO),
        "orth_right": lambda: (y @ x, _Is.ZERO),
        "y_nilpotent": lambda: (y, _Is.NILPOTENT),
        "x_index": x_index,
        "group_matches": lambda: (z @ x @ z, z),
    }


def _b_identities(a, b, m: int, power, star, ab, a2b) -> dict:
    """The fixed point b: b A b = b (b is an outer inverse), A^2 b^2 = A b,
    (A^m)* A^{m+1} b Hermitian and A - A^2 b nilpotent; the caller holds A b and
    A^2 b = A (A b)."""
    return {
        "bab": lambda: (b @ a @ b, b),
        "a2b2": lambda: (a2b @ b, ab),
        "herm": lambda: (star(power(m)) @ (power(m) @ ab), _Is.HERMITIAN),
        "qnil": lambda: (a - a2b, _Is.NILPOTENT),
    }


def _equation_identities(x, b, m: int, power, qs) -> dict:
    """(A A^D)* A^{m+1} X = (A A^D)* A^m B at X, with qs(M) = (A A^D)* M."""
    return {"equation": lambda: (qs(power(m + 1)) @ x, qs(power(m)) @ b)}


def _evaluate(identities: dict, labels, check, *args) -> dict[str, Check]:
    """{label: its check} for each of ``labels``, in that order, where a pair's check
    is check(left, right, *args) and an entry's pairs merge theirs."""
    checks = {}
    for label in labels:
        pairs = identities[label]()
        if isinstance(pairs, list):
            checks[label] = _merge(*[check(*pair, *args) for pair in pairs])
        else:
            checks[label] = check(*pairs, *args)
    return checks


def _hermitian_check(w: np.ndarray, tol: TolerancePolicy) -> Check:
    """``_eq_check(W, W*)`` with one norm: ||W*||_F has the bits of ||W||_F."""
    residual = frobenius(w - conj_transpose(w)) / max(1.0, frobenius(w))
    return Check(residual=residual, passed=residual <= tol.eq_rtol)


def _zero_check(p: np.ndarray, tol: TolerancePolicy) -> Check:
    """``_eq_check(P, zeros)`` with one norm, ||P|| / max(1, ||P||), and its bits for a
    C-contiguous P, such as a matmul product; a transposed view may differ."""
    norm = frobenius(p)
    residual = norm / max(1.0, norm)
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
