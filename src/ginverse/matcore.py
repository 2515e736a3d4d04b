"""Dense complex matrix primitives shared by every other module.

Matrices are plain ``numpy.ndarray`` values with complex128 entries.
``as_matrix`` is the validating constructor; everything downstream expects
its output: a 2-D, finite, read-only array.  All comparisons in the package
go through the single relative-Frobenius convention implemented here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TolerancePolicy",
    "DEFAULT_TOL",
    "MatrixFormatError",
    "as_matrix",
    "as_square_matrix",
    "readonly",
    "conj_transpose",
    "frobenius",
    "rel_residual",
    "approx_equal",
    "numerical_rank",
    "numerical_ranks",
    "col_space_contains",
    "col_space_equal",
    "matrix_to_json",
    "matrix_from_json",
]


class MatrixFormatError(ValueError):
    """Matrix JSON is malformed or contains non-finite entries."""


@dataclass(frozen=True)
class TolerancePolicy:
    """Thresholds governing every floating-point decision in the package.

    rank_rtol: relative cut for singular values (scaled by the largest
        singular value and the larger matrix dimension) when counting rank.
    eq_rtol: relative Frobenius threshold for declaring two matrices equal.
    nil_atol: absolute threshold on ||M||_F for declaring a matrix (power) zero.

    The defaults leave headroom above double-precision roundoff for
    products of roughly ten well-conditioned matrices.
    """

    rank_rtol: float = 1e-10
    eq_rtol: float = 1e-8
    nil_atol: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("rank_rtol", "eq_rtol", "nil_atol"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie strictly in (0, 1), got {value!r}")


DEFAULT_TOL = TolerancePolicy()


def readonly(a: np.ndarray) -> np.ndarray:
    """Mark ``a`` read-only in place and return it."""
    a.setflags(write=False)
    return a


def as_matrix(values) -> np.ndarray:
    """Validating constructor: a 2-D, finite, read-only complex128 array."""
    a = np.array(values, dtype=np.complex128, copy=True)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    rows, cols = a.shape
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be positive, got {a.shape}")
    return _finite(a)


def _finite(a: np.ndarray) -> np.ndarray:
    """A complex128 matrix checked finite, as ``as_matrix`` checks it, and marked
    read-only in place: for matrices the package formed itself, which need no copy."""
    if not np.isfinite(a).all():  # false when either part is NaN or infinite
        raise ValueError("matrix entries must be finite (no NaN or Inf)")
    return readonly(a)


def as_square_matrix(values) -> np.ndarray:
    """``as_matrix`` for inputs that must be square."""
    a = as_matrix(values)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    return a


def _check_m(m: int) -> None:
    """The weight m of an m-weak group inverse: a positive int, not a bool."""
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")


def conj_transpose(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose; applying it twice returns the input bit-exactly."""
    return np.conj(a).T


def _sumsq_complex(x: np.ndarray):
    """The sum of |x_ij|^2 over a complex128 X, as one BLAS zdotc on X's
    memory-order ravel (X itself when C-contiguous), so memory order fixes the bits."""
    if not x.flags.c_contiguous:
        x = x.ravel(order="K")
    return np.vdot(x, x).real


def frobenius(a: np.ndarray) -> float:
    """||A||_F: the root of ``_sumsq_complex`` for a complex128 matrix, and
    np.linalg.norm(A, "fro") for every other input."""
    a = np.asarray(a)
    if a.ndim == 2 and a.dtype == np.complex128:
        return math.sqrt(_sumsq_complex(a))
    return float(np.linalg.norm(a, "fro"))


def rel_residual(a: np.ndarray, b: np.ndarray) -> float:
    """Relative Frobenius distance ||A - B|| / max(1, ||A||, ||B||).

    The floor of 1 avoids division blowup near zero matrices.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return frobenius(a - b) / max(1.0, frobenius(a), frobenius(b))


def approx_equal(a: np.ndarray, b: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """True iff ||A - B||_F <= eq_rtol * max(1, ||A||_F, ||B||_F)."""
    return rel_residual(a, b) <= tol.eq_rtol


def numerical_rank(a: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL) -> int:
    """Count of singular values above rank_rtol * sigma_max * max(rows, cols)."""
    return numerical_ranks([a], tol)[0]


def numerical_ranks(mats, tol: TolerancePolicy = DEFAULT_TOL) -> list[int]:
    """``numerical_rank`` of each matrix, from one s-only SVD per shape.

    The matrices of one shape go to np.linalg.svd as one stack, which gives each
    the singular values, bit for bit, that a call of its own gives."""
    mats = [np.asarray(a, dtype=np.complex128) for a in mats]
    groups: dict[tuple, list[int]] = {}
    for i, a in enumerate(mats):
        groups.setdefault(a.shape, []).append(i)
    ranks = [0] * len(mats)
    for shape, members in groups.items():
        if len(shape) != 2:
            raise np.linalg.LinAlgError(f"expected a 2-D matrix, got shape {shape}")
        stack = np.linalg.svd(np.array([mats[i] for i in members]), compute_uv=False)
        for i, s in zip(members, stack.tolist()):  # Python floats hold the same doubles
            if s and s[0] != 0.0:
                cutoff = tol.rank_rtol * s[0] * max(shape)
                ranks[i] = sum(value > cutoff for value in s)
    return ranks


def _span_matrices(u, v, equal: bool) -> list[np.ndarray]:
    """[U | V] and U, and V too when ``equal``: col(V) lies in col(U) iff the first
    two have one rank, and col(U) = col(V) iff all three have (see ``_one_rank``)."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape[0] != v.shape[0]:
        raise ValueError(f"row count mismatch: {u.shape[0]} vs {v.shape[0]}")
    joint = np.concatenate((u, v), axis=1)
    return [joint, u, v] if equal else [joint, u]


def _one_rank(ranks) -> bool:
    return all(r == ranks[0] for r in ranks)


def col_space_contains(u: np.ndarray, v: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """True iff col(V) is contained in col(U), tested as rank([U | V]) = rank(U)."""
    return _one_rank(numerical_ranks(_span_matrices(u, v, False), tol))


def col_space_equal(u: np.ndarray, v: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """True iff col(U) = col(V), tested as rank([U | V]) = rank(U) = rank(V)."""
    return _one_rank(numerical_ranks(_span_matrices(u, v, True), tol))


def matrix_to_json(a: np.ndarray) -> dict:
    """Serialize to ``{"rows": r, "cols": c, "entries": [[re, im], ...]}`` row-major."""
    a = np.asarray(a, dtype=np.complex128)
    entries = [[float(z.real), float(z.imag)] for z in a.ravel()]
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "entries": entries}


def _json_envelope(obj) -> tuple[int, int, list]:
    """(rows, cols, entries) of matrix JSON, with rows*cols [re, im] pairs left to parse."""
    if not isinstance(obj, dict):
        raise MatrixFormatError(f"expected a JSON object, got {type(obj).__name__}")
    for key in ("rows", "cols"):
        value = obj.get(key)
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise MatrixFormatError(f"'{key}' must be a positive integer, got {value!r}")
    rows, cols = obj["rows"], obj["cols"]
    entries = obj.get("entries")
    if not isinstance(entries, list):
        raise MatrixFormatError("'entries' must be an array of [re, im] pairs")
    if len(entries) != rows * cols:
        raise MatrixFormatError(
            f"'entries' has length {len(entries)}, expected rows*cols = {rows * cols}"
        )
    for pos, pair in enumerate(entries):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise MatrixFormatError(f"entry {pos} is not an [re, im] pair: {pair!r}")
    return rows, cols, entries


def matrix_from_json(obj) -> np.ndarray:
    """Parse the matrix JSON format, rejecting wrong-length arrays and non-finite numbers."""
    rows, cols, entries = _json_envelope(obj)
    flat = np.empty(rows * cols, dtype=np.complex128)
    for pos, pair in enumerate(entries):
        parts = []
        for part in pair:
            if isinstance(part, bool) or not isinstance(part, (int, float)):
                raise MatrixFormatError(f"entry {pos} holds a non-numeric value: {part!r}")
            try:
                parts.append(float(part))  # an int beyond the float range overflows here
            except OverflowError:
                raise MatrixFormatError(f"entry {pos} is too large for a float") from None
            if not np.isfinite(parts[-1]):
                raise MatrixFormatError(f"entry {pos} is not finite: {pair!r}")
        flat[pos] = complex(*parts)
    return readonly(flat.reshape(rows, cols))
