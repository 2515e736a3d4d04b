"""Exact ground truth over the Gaussian rationals.

Everything in this module is tolerance-free: ranks come from exact Gaussian
elimination, pseudoinverses from an exact full-rank factorization, Drazin
inverses from the iterated (Cline) factorization chain, and every identity
is verified with exact arithmetic before a result is returned.  The floating
point modules are validated against these computations.

Intermediate growth is bounded: any entry whose numerator or denominator
exceeds ``MAX_HEIGHT_BITS`` bits triggers :class:`HeightOverflow`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .report import Check, VerificationReport, _merge

__all__ = [
    "MAX_HEIGHT_BITS",
    "HeightOverflow",
    "GaussianRational",
    "RationalMatrix",
    "rank",
    "inverse",
    "full_rank_factorization",
    "exact_mp",
    "exact_index",
    "exact_drazin",
    "exact_core_ep",
    "exact_mwgi",
    "certify",
]

MAX_HEIGHT_BITS = 4096


class HeightOverflow(ArithmeticError):
    """An intermediate rational exceeded the configured bit bound."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


@dataclass(frozen=True)
class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", _frac(self.re))
        object.__setattr__(self, "im", _frac(self.im))

    @classmethod
    def parse(cls, re_str: str, im_str: str) -> "GaussianRational":
        return cls(Fraction(re_str), Fraction(im_str))

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def bit_height(self) -> int:
        return max(
            self.re.numerator.bit_length(),
            self.re.denominator.bit_length(),
            self.im.numerator.bit_length(),
            self.im.denominator.bit_length(),
        )

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __add__(self, other) -> "GaussianRational":
        other = _coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "GaussianRational":
        other = _coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other) -> "GaussianRational":
        other = _coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        other = _coerce(other)
        d = other.abs2()
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return self * GaussianRational(other.re / d, -other.im / d)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        return f"{self.re}{'+' if self.im >= 0 else ''}{self.im}i"


def _coerce(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x, Fraction(0))
    if isinstance(x, (tuple, list)) and len(x) == 2:
        return GaussianRational(_frac(x[0]), _frac(x[1]))
    raise TypeError(f"cannot coerce {type(x).__name__} to a Gaussian rational")


_ZERO = GaussianRational()
_ONE = GaussianRational(Fraction(1))


@dataclass(frozen=True)
class RationalMatrix:
    """Dense matrix of Gaussian rationals with exact arithmetic throughout."""

    entries: tuple[tuple[GaussianRational, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(_coerce(x) for x in row) for row in self.entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must have positive dimensions")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("all rows must have the same length")
        object.__setattr__(self, "entries", rows)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @classmethod
    def from_rows(cls, rows) -> "RationalMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(tuple(tuple(_ZERO for _ in range(cols)) for _ in range(rows)))

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.entries for x in row)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def max_height_bits(self) -> int:
        return max(x.bit_height() for row in self.entries for x in row)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._same_shape(other)
        return RationalMatrix(
            tuple(
                tuple(x + y for x, y in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            )
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._same_shape(other)
        return RationalMatrix(
            tuple(
                tuple(x - y for x, y in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            )
        )

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix(tuple(tuple(-x for x in row) for row in self.entries))

    def __mul__(self, scalar) -> "RationalMatrix":
        c = _coerce(scalar)
        return RationalMatrix(tuple(tuple(x * c for x in row) for row in self.entries))

    __rmul__ = __mul__

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        bt = tuple(zip(*other.entries))  # columns of other
        return RationalMatrix(
            tuple(
                tuple(sum((x * y for x, y in zip(row, col)), _ZERO) for col in bt)
                for row in self.entries
            )
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def power(self, e: int) -> "RationalMatrix":
        if not self.is_square():
            raise ValueError("matrix power requires a square matrix")
        if e < 0:
            raise ValueError("negative powers are not supported; invert first")
        result = RationalMatrix.identity(self.rows)
        for _ in range(e):
            result = result @ self
        return result

    def conj_transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            tuple(
                tuple(self.entries[i][j].conjugate() for i in range(self.rows))
                for j in range(self.cols)
            )
        )

    def to_complex(self) -> np.ndarray:
        out = np.empty((self.rows, self.cols), dtype=np.complex128)
        for i, row in enumerate(self.entries):
            for j, x in enumerate(row):
                out[i, j] = x.to_complex()
        return out

    def to_json(self) -> dict:
        entries = [
            [str(x.re), str(x.im)] for row in self.entries for x in row
        ]
        return {"rows": self.rows, "cols": self.cols, "entries": entries}

    @classmethod
    def from_json(cls, obj) -> "RationalMatrix":
        if not isinstance(obj, dict):
            raise ValueError("expected a JSON object")
        rows, cols = obj.get("rows"), obj.get("cols")
        entries = obj.get("entries")
        if not isinstance(rows, int) or not isinstance(cols, int) or rows < 1 or cols < 1:
            raise ValueError("'rows' and 'cols' must be positive integers")
        if not isinstance(entries, list) or len(entries) != rows * cols:
            raise ValueError(f"'entries' must hold exactly rows*cols = {rows * cols} pairs")
        values = []
        for pos, pair in enumerate(entries):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ValueError(f"entry {pos} is not a [re, im] string pair")
            try:
                values.append(GaussianRational.parse(str(pair[0]), str(pair[1])))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"entry {pos} is not a valid rational pair: {exc}") from exc
        return cls.from_rows(
            [values[i * cols : (i + 1) * cols] for i in range(rows)]
        )

    def _same_shape(self, other: "RationalMatrix") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")


def _guard(a: RationalMatrix, max_bits: int) -> RationalMatrix:
    if a.max_height_bits() > max_bits:
        raise HeightOverflow(
            f"intermediate entries exceed {max_bits} bits; "
            "raise max_bits or supply a smaller input"
        )
    return a


def _rref(a: RationalMatrix) -> tuple[list[list[GaussianRational]], list[int]]:
    """Reduced row echelon form (as working rows) plus the pivot column list."""
    m = [list(row) for row in a.entries]
    n_rows, n_cols = a.rows, a.cols
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if not m[i][c].is_zero()), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv_p = _ONE / m[r][c]
        m[r] = [x * inv_p for x in m[r]]
        for i in range(n_rows):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def rank(a: RationalMatrix) -> int:
    """Exact rank by Gaussian elimination; no tolerance enters anywhere."""
    return len(_rref(a)[1])


def inverse(a: RationalMatrix, max_bits: int = MAX_HEIGHT_BITS) -> RationalMatrix:
    """Exact inverse of a nonsingular square matrix."""
    if not a.is_square():
        raise ValueError("only square matrices can be inverted")
    n = a.rows
    aug = RationalMatrix.from_rows(
        [list(a.entries[i]) + list(RationalMatrix.identity(n).entries[i]) for i in range(n)]
    )
    reduced, pivots = _rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return _guard(RationalMatrix.from_rows([row[n:] for row in reduced[:n]]), max_bits)


def full_rank_factorization(
    a: RationalMatrix, max_bits: int = MAX_HEIGHT_BITS
) -> tuple[RationalMatrix, RationalMatrix]:
    """A = F G with F of full column rank and G of full row rank.

    F holds the pivot columns of A; G holds the nonzero rows of rref(A).
    The caller must ensure A is nonzero (rank 0 has no such factorization).
    """
    reduced, pivots = _rref(a)
    r = len(pivots)
    if r == 0:
        raise ValueError("zero matrix has no full-rank factorization")
    f = RationalMatrix.from_rows(
        [[a.entries[i][c] for c in pivots] for i in range(a.rows)]
    )
    g = RationalMatrix.from_rows(reduced[:r])
    return _guard(f, max_bits), _guard(g, max_bits)


def _require_exact(condition: bool, label: str) -> None:
    if not condition:
        raise ArithmeticError(f"exact identity '{label}' failed; this is a bug")


def exact_mp(a: RationalMatrix, max_bits: int = MAX_HEIGHT_BITS) -> RationalMatrix:
    """Exact Moore-Penrose inverse via A = FG and G*(GG*)^-1 (F*F)^-1 F*."""
    _guard(a, max_bits)
    if a.is_zero():
        return RationalMatrix.zeros(a.cols, a.rows)
    f, g = full_rank_factorization(a, max_bits)
    fs, gs = f.conj_transpose(), g.conj_transpose()
    mp = gs @ inverse(g @ gs, max_bits) @ inverse(fs @ f, max_bits) @ fs
    _guard(mp, max_bits)
    _require_exact(a @ mp @ a == a, "A X A = A")
    _require_exact(mp @ a @ mp == mp, "X A X = X")
    _require_exact((a @ mp).conj_transpose() == a @ mp, "(A X)* = A X")
    _require_exact((mp @ a).conj_transpose() == mp @ a, "(X A)* = X A")
    return mp


def exact_index(a: RationalMatrix) -> int:
    """Smallest k with rank(A^k) = rank(A^{k+1}), by exact rank."""
    if not a.is_square():
        raise ValueError("index requires a square matrix")
    previous = a.rows  # rank of A^0
    power = RationalMatrix.identity(a.rows)
    k = 0
    while True:
        power = power @ a
        current = rank(power)
        if current == previous:
            return k
        previous = current
        k += 1


def _drazin_and_index(a: RationalMatrix, max_bits: int) -> tuple[int, RationalMatrix]:
    """The index k of A and its Drazin inverse, with the Drazin identities verified.

    Factor A = B1 C1, then C1 B1 = B2 C2, ... until the product Cj Bj is
    invertible (or zero, in which case A is nilpotent and A^D = 0); then
    A^D = B1..Bj (Cj Bj)^-(j+1) Cj..C1.
    """
    if not a.is_square():
        raise ValueError("Drazin inverse requires a square matrix")
    _guard(a, max_bits)
    n = a.rows
    left: list[RationalMatrix] = []
    right: list[RationalMatrix] = []
    m = a
    while True:
        if m.is_zero():
            d = RationalMatrix.zeros(n, n)
            break
        if rank(m) == m.rows:
            core = inverse(m, max_bits).power(len(left) + 1)
            for b in reversed(left):
                core = b @ core
            for c in right:
                core = core @ c
            d = _guard(core, max_bits)
            break
        f, g = full_rank_factorization(m, max_bits)
        left.append(f)
        right.insert(0, g)
        m = _guard(g @ f, max_bits)
    k = exact_index(a)
    _require_exact(a @ d == d @ a, "A X = X A")
    _require_exact(d @ a @ d == d, "X A X = X")
    _require_exact(a.power(k + 1) @ d == a.power(k), "A^(k+1) X = A^k")
    return k, d


def exact_drazin(a: RationalMatrix, max_bits: int = MAX_HEIGHT_BITS) -> RationalMatrix:
    """Exact Drazin inverse by the iterated full-rank factorization chain."""
    return _drazin_and_index(a, max_bits)[1]


def _core_ep(a: RationalMatrix, k: int, d: RationalMatrix, max_bits: int) -> RationalMatrix:
    """A^D A^k (A^k)^+ from the index k and Drazin inverse d of A, verified."""
    ak = a.power(k)
    x = _guard(d @ ak @ exact_mp(ak, max_bits), max_bits)
    _require_exact(a @ x @ x == x, "A X^2 = X")
    _require_exact((a @ x).conj_transpose() == a @ x, "(A X)* = A X")
    _require_exact(a @ x @ ak == ak, "A X A^k = A^k")
    return x


def exact_core_ep(a: RationalMatrix, max_bits: int = MAX_HEIGHT_BITS) -> RationalMatrix:
    """Exact core-EP inverse A^D A^k (A^k)^+ with exact verification."""
    if not a.is_square():
        raise ValueError("core-EP inverse requires a square matrix")
    return _core_ep(a, *_drazin_and_index(a, max_bits), max_bits)


def _mwgi_parts(a: RationalMatrix, m: int, max_bits: int):
    k, d = _drazin_and_index(a, max_bits)
    cep = _core_ep(a, k, d, max_bits)
    am = a.power(m)
    z = _guard(d.power(m + 1) @ a @ cep @ am, max_bits)
    return k, d, cep, am, z


def exact_mwgi(a: RationalMatrix, m: int, max_bits: int = MAX_HEIGHT_BITS) -> RationalMatrix:
    """Exact m-weak group inverse (A^D)^{m+1} A A^o A^m, fully verified.

    Verifies, with zero tolerance: Z = A Z^2, the projector-weighted defining
    equation (A A^D)* A^{m+1} Z = (A A^D)* A^m, the stabilized equations
    Z A^{k+1} = A^k and (A^k)* A^{m+1} Z = (A^k)* A^m, and agreement with
    the product form (A^D A A^o)^{m+1} A^m.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    k, d, cep, am, z = _mwgi_parts(a, m, max_bits)
    q = a @ d
    qs = q.conj_transpose()
    aks = a.power(k).conj_transpose()
    am1 = a.power(m + 1)
    _require_exact(a @ z @ z == z, "A Z^2 = Z")
    _require_exact(qs @ am1 @ z == qs @ am, "(A A^D)* A^(m+1) Z = (A A^D)* A^m")
    _require_exact(z @ a.power(k + 1) == a.power(k), "Z A^(k+1) = A^k")
    _require_exact(aks @ am1 @ z == aks @ am, "(A^k)* A^(m+1) Z = (A^k)* A^m")
    _require_exact((d @ a @ cep).power(m + 1) @ am == z, "product form agreement")
    return z


def _diff_residual(left: RationalMatrix, right: RationalMatrix) -> float:
    """0.0 iff the matrices are exactly equal, else the float Frobenius gap."""
    if left == right:
        return 0.0
    diff = left - right
    total = Fraction(0)
    for row in diff.entries:
        for x in row:
            total += x.abs2()
    return math.sqrt(float(total))


def _exact_check(left: RationalMatrix, right: RationalMatrix) -> Check:
    residual = _diff_residual(left, right)
    return Check(residual=residual, passed=residual == 0.0)


def _test_matrices(n: int) -> tuple[RationalMatrix, RationalMatrix]:
    """Deterministic rational right-hand side and free term for solution checks."""
    b = RationalMatrix.from_rows(
        [
            [GaussianRational((i + 2 * j) % 5 - 2, (i * j) % 3 - 1) for j in range(n)]
            for i in range(n)
        ]
    )
    y = RationalMatrix.from_rows(
        [
            [
                GaussianRational(Fraction((2 * i + j) % 3 - 1, 2), (i + j) % 2)
                for j in range(n)
            ]
            for i in range(n)
        ]
    )
    return b, y


def certify(
    a: RationalMatrix,
    m: int,
    z: RationalMatrix | None = None,
    max_bits: int = MAX_HEIGHT_BITS,
) -> VerificationReport:
    """Evaluate the whole identity battery in exact arithmetic.

    Every check's residual is exactly zero or the exact size of the violation.
    ``z`` overrides the computed m-weak group inverse, which lets a harness
    confirm that a corrupted candidate is caught.
    """
    if not a.is_square():
        raise ValueError("certify requires a square matrix")
    if m < 1:
        raise ValueError("m must be a positive integer")
    n = a.rows
    k, d, cep, am, z_computed = _mwgi_parts(a, m, max_bits)
    if z is None:
        z = z_computed
    q = a @ d
    qs = q.conj_transpose()
    am1 = a.power(m + 1)
    aks = a.power(k).conj_transpose()
    ident = RationalMatrix.identity(n)

    checks: dict[str, Check] = {}
    checks["ax2"] = _exact_check(a @ z @ z, z)
    checks["def11"] = _exact_check(qs @ am1 @ z, qs @ am)
    checks["wgm_k"] = _merge(
        _exact_check(z @ a.power(k + 1), a.power(k)),
        _exact_check(aks @ am1 @ z, aks @ am),
    )
    checks["second_form"] = _exact_check((d @ a @ cep).power(m + 1) @ am, z)

    w = exact_mwgi(a.power(m), 1, max_bits)
    checks["power"] = _merge(
        _exact_check(a.power(m - 1) @ w, z_computed),
        _exact_check(w, z_computed.power(m)),
    )
    checks["step"] = _exact_check(exact_mwgi(a, m + 1, max_bits), z_computed @ z_computed @ a)
    checks["fixed_point"] = _exact_check(z @ a @ z, z)
    checks["idem"] = _merge(
        *(_exact_check(a @ z, a.power(p) @ z.power(p)) for p in (2, 3))
    )

    x_part = a @ a @ z
    y_part = a - x_part
    checks["decomp"] = _merge(
        _exact_check(x_part.conj_transpose() @ a.power(m - 1) @ y_part, RationalMatrix.zeros(n, n)),
        _exact_check(y_part @ x_part, RationalMatrix.zeros(n, n)),
        _exact_check(y_part.power(n), RationalMatrix.zeros(n, n)),
        _exact_check(x_part @ z @ x_part, x_part),
        _exact_check(z @ x_part @ z, z),
        _exact_check(x_part @ z, z @ x_part),
    )

    herm = a.power(m).conj_transpose() @ am1 @ z
    checks["b_char"] = _merge(
        _exact_check(z @ a @ z, z),
        _exact_check(a @ a @ z @ z, a @ z),
        _exact_check(herm.conj_transpose(), herm),
        _exact_check((a - a @ a @ z).power(n), RationalMatrix.zeros(n, n)),
    )

    b_mat, y_mat = _test_matrices(n)
    x_sol = z @ b_mat + (ident - z @ a) @ y_mat
    checks["solution"] = _exact_check(qs @ am1 @ x_sol, qs @ am @ b_mat)

    return VerificationReport(checks=checks)
