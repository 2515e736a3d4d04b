"""Independent correctness check for an m-weak group inverse.

The m-weak group inverse of A (index k) is the unique Z with

    Z = A Z^2,    Z A^{k+1} = A^k,    (A^k)* A^{m+1} Z = (A^k)* A^m.

This module checks those three equations with plain numpy matrix products
and nothing from ``ginverse``, using the index k known from how the input
was built.  Because the equations determine Z uniquely, the check shares no
code and no intermediate result (no Drazin or core-EP inverse) with the
computation it checks.
"""

from __future__ import annotations

import numpy as np

# the package default eq_rtol, restated here so the check imports nothing
EQ_RTOL = 1e-8


def _fro(x: np.ndarray) -> float:
    return float(np.sqrt(np.sum(x.real**2 + x.imag**2)))


def _rel(left: np.ndarray, right: np.ndarray) -> float:
    """||L - R||_F / max(1, ||L||_F, ||R||_F)."""
    return _fro(left - right) / max(1.0, _fro(left), _fro(right))


def _power(a: np.ndarray, e: int) -> np.ndarray:
    out = np.eye(a.shape[0], dtype=np.complex128)
    for _ in range(e):
        out = out @ a
    return out


def defining_residuals(a: np.ndarray, z: np.ndarray, k: int, m: int) -> tuple[float, float, float]:
    """Relative residuals of Z = A Z^2, Z A^{k+1} = A^k, (A^k)* A^{m+1} Z = (A^k)* A^m."""
    a = np.asarray(a, dtype=np.complex128)
    z = np.asarray(z, dtype=np.complex128)
    ak = _power(a, k)
    am = _power(a, m)
    ak_star = ak.conj().T
    return (
        _rel(z, a @ z @ z),
        _rel(z @ ak @ a, ak),
        _rel(ak_star @ (am @ a) @ z, ak_star @ am),
    )


def satisfies_definition(a: np.ndarray, z: np.ndarray, k: int, m: int, rtol: float = EQ_RTOL) -> bool:
    """True iff Z is finite, has A's shape and meets all three equations within rtol."""
    z = np.asarray(z)
    if z.shape != np.shape(a) or not np.all(np.isfinite(z)):
        return False
    return max(defining_residuals(a, z, k, m)) <= rtol
