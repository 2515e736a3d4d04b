"""Verification reports and the identity lists of every inverse, shared by every checker."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .matcore import TolerancePolicy, _residual, frobenius

__all__ = ["Check", "VerificationReport"]


class Check(NamedTuple):
    """One named verification: residual plus its pass flag, an immutable record that
    compares by value.

    Equation checks store the relative Frobenius residual of left-minus-right;
    nilpotency checks store the absolute Frobenius norm of the tested power;
    subspace/rank checks are boolean and store 0.0 or 1.0.  A residual that is NaN
    (a side that overflowed, or a merged part that did) or infinite fails its check;
    ``VerificationReport.to_dict`` writes it as the string "nan" or "inf", so the JSON
    stays standard, and an error line prints it as nan or inf.
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
                name: {"residual": _json_number(c.residual), "pass": c.passed}
                for name, c in self.checks.items()
            },
            "overall": self.overall,
        }


def _json_number(value: float):
    """value itself when finite, else its repr ("nan", "inf"), which JSON holds as a string."""
    return value if math.isfinite(value) else repr(value)


def _eq_check(left: np.ndarray, right, tol: TolerancePolicy) -> Check:
    """Left = right within eq_rtol, or left nilpotent when right is ``_Is.NILPOTENT``; the
    residual is ``rel_residual``'s, bit for bit, from its kernel with no validation, since
    the checkers pair complex128 matrices of one shape."""
    if right is _NILPOTENT:
        return _nil_check(np.linalg.matrix_power(left, len(left)), tol)
    residual = _residual(left, right)
    return Check(residual, residual <= tol.eq_rtol)


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
    """A right side that names a property of the left side W, not an equation: W is
    nilpotent, its n-th power vanishing under nil_atol."""

    NILPOTENT = "nilpotent"


_NILPOTENT = _Is.NILPOTENT  # read by _eq_check at every pair, without the enum's lookup


def _adjoint_pair(w, star) -> tuple:
    """(W, W*): the equation that says W is Hermitian."""
    return w, star(w)


def _zero_pair(w) -> tuple:
    """(W, W - W): the equation that says W vanishes, with a zero of W's own type."""
    return w, w - w


# The m-weak group inverse Z's characterizations, one list each, in the form above:
# sides() may also form a list of pairs whose checks the label merges, or the pair
# (W, _Is.NILPOTENT), so a checker forms only the entries it reads.
def _z_products(a, z, k: int, m: int, power, star) -> tuple:
    """A Z, A Z^2 = (A Z) Z, A^{m+1} Z = A^m (A Z) and (A^k)* A^{m+1} Z: the products of
    Z that the definition list reads, formed one way in both arithmetics."""
    az = a @ z
    am1z = power(m) @ az
    return az, az @ z, am1z, star(power(k)) @ am1z


def _definition_identities(a, z, k: int, m: int, power, star, products, qs, aao) -> dict:
    """The definition of Z for A of index k: ax2 and wgm_k (``mwgi``'s self-check),
    then its consequences.  The caller holds Z's products (``_z_products``), which wgm_k
    reads and, at k = m, hermitian31 too (the last None where neither is read), and
    gives qs(X) = (A A^D)* X and aao(X) = A A^o X."""
    az, az2, am1z, akm1z = products
    am, ak = power(m), power(k)

    def idem34():  # A Z = A^j Z^j for j = 2, 3
        a2z2 = a @ az2
        return [(az, a2z2), (az, a @ (a2z2 @ z))]

    return {
        "ax2": lambda: (z, az2),
        "def11": lambda: (qs(am1z), qs(am)),
        "wgm_k": lambda: [(z @ power(k + 1), ak), (akm1z, star(ak) @ am)],
        "hermitian31": lambda: _adjoint_pair(akm1z if k == m else star(am) @ am1z, star),
        "coreEP48": lambda: (am1z, aao(am)),
        "limit": lambda: (ak, az @ ak),
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
        "orth_left": lambda: _zero_pair(star(x) @ power(m - 1) @ y),
        "orth_right": lambda: _zero_pair(y @ x),
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
        "herm": lambda: _adjoint_pair(star(power(m)) @ (power(m) @ ab), star),
        "qnil": lambda: (a - a2b, _Is.NILPOTENT),
    }


def _polar_identities(a, p, q, w, m: int, power, star) -> dict:
    """The polar-like idempotent p = I - A Z and W, the inverse of the corner q A q inside
    q = I - p: p^2 = p, (A^m)* A^m p Hermitian, A p nilpotent, corner W = W corner = q."""
    corner = q @ a @ q
    return {
        "idempotent": lambda: (p @ p, p),
        "hermitian": lambda: _adjoint_pair(star(power(m)) @ power(m) @ p, star),
        "ap_nilpotent": lambda: (a @ p, _Is.NILPOTENT),
        "corner_right": lambda: (corner @ w, q),
        "corner_left": lambda: (w @ corner, q),
    }


def _bc_identities(a, x, b, c) -> dict:
    """The (b, c)-inverse X of A: X A b = b and c A X = c."""
    return {"xab": lambda: (x @ a @ b, b), "cax": lambda: (c @ a @ x, c)}


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


def _nil_check(power: np.ndarray, tol: TolerancePolicy) -> Check:
    norm = frobenius(power)
    return Check(norm, norm <= tol.nil_atol)


def _bool_check(flag: bool) -> Check:
    return Check(0.0 if flag else 1.0, flag)


def _merge(*checks: Check) -> Check:
    """The largest residual, NaN if any part's is NaN (max alone would drop it), and
    the conjunction of the pass flags."""
    residuals, flags = zip(*checks)
    return Check(math.nan if any(map(math.isnan, residuals)) else max(residuals), all(flags))
