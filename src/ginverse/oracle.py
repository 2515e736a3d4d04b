"""Exact ground truth over the Gaussian rationals.

Everything in this module is tolerance-free: ranks come from exact Gaussian
elimination, pseudoinverses from an exact full-rank factorization, and every
identity is verified with exact arithmetic before a result is returned.  The
floating point modules are validated against these computations.

The spectral tower of a square A (the index k by exact rank, the core-EP
inverse A^o = F (F* A F)^-1 F* with F the pivot columns of A^k, and the
Drazin inverse A^D = (A^o)^{k+1} A^k) is built and its identities verified
once per matrix and height bound.  ``certify`` reads the tower of A^m wholly
from A's, with index ceil(k / m) and (A^m)^o = (A^o)^m (Wang, LAA 508, 2016),
and requires the same six identities of it.  At a nilpotent A, F has no
columns and the same products give A^o = A^D = 0: matrices formed here may
have a zero dimension, though the public constructors reject one.

Each matrix keeps everything derived from it in one store (``keep``): its
A^0, its one fraction-free elimination, which both its rank and its full-rank
factorization read, its tower per height bound, and the Z that ``certify``
verified.  The first value stored under a key wins, so threads sharing a
matrix read one value per key.  Its other powers are not kept with it: A^e is
the chain A A ... A through ``@``, so the call's product store below keeps
each power once.

A product A B is a single numpy object-array dot of A's left layout
[Re A | Im A] (r x 2n) and B's right layout [[Re B, Im B], [-Im B, Re B]]
(2n x 2c), whose loop runs in C on exact integers of any height.  The result
[Re AB | Im AB] is AB's own left layout, kept as it is when the product is
already in lowest terms.  Each layout is built at its first use, kept with
its matrix and read-only; the left layout is the one view of the numerators
that ``entries``, ``to_complex`` and the elimination read, row by row.  The
outermost public call (``certify``, ``exact_mwgi``, ``exact_drazin``,
``exact_core_ep``, ``exact_mp``) opens one product store, keyed by the
operand matrices (each hashes once; equal values are equal keys), and every
call nested in it reads and fills the same store, so a product of equal
operands is formed once per call even where the operands are distinct
objects.  The store is dropped when that call returns or raises; it lives
in a context variable, so threads never share one.

A :class:`RationalMatrix` stores Gaussian-integer numerators (real and
imaginary parts as Python ints, in the order of its left layout) over one
positive common denominator, in lowest terms, so arithmetic runs on integers
and reduces once per result rather than once per entry.  Rank, rref and
inverses use fraction-free Gauss-Jordan elimination over Z[i] (Bareiss,
Math. Comp. 22, 1968): every intermediate entry is a minor of the input,
each division is exact and checked, and the rows are divided by the last
pivot only at the end.

Intermediate growth is bounded: any entry whose numerator or denominator,
in lowest terms, exceeds ``MAX_HEIGHT_BITS`` bits triggers
:class:`HeightOverflow`.  The common denominator may be longer than any
entry's; the guard reads the per-entry heights only when the stored
integers exceed the bound.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .matcore import MatrixFormatError, _check_m, _json_envelope, readonly
from .report import Check, VerificationReport, _Is, _evaluate, _merge, _zero_pair
from .report import _core_ep_identities, _drazin_identities, _penrose_identities
from .report import _b_identities, _decomposition_identities, _definition_identities
from .report import _equation_identities, _z_products

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


# The products formed in the outermost public oracle call now running in this
# context, keyed by the operands' canonical keys; None outside any call.
_products: ContextVar[dict | None] = ContextVar("oracle_products", default=None)


def _with_products(call):
    """``call`` with one product store: the outermost call opens it and drops it
    when it returns or raises; the calls nested in it share it."""

    @functools.wraps(call)
    def with_store(*args, **kwargs):
        if _products.get() is not None:
            return call(*args, **kwargs)
        token = _products.set({})
        try:
            return call(*args, **kwargs)
        finally:
            _products.reset(token)

    return with_store


# a decimal exponent, which Fraction expands in full: 1e10000000 takes seconds to parse
_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\s*\Z")


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str) and (exponent := _EXPONENT.search(x)):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300  # 0: no limit
        if abs(int(exponent[1])) > limit:
            raise ValueError(f"decimal exponent of {x[:40]!r} exceeds {limit} in magnitude")
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


def _defers(method):
    """A binary operator that coerces its operand, or defers to the operand's type."""

    @functools.wraps(method)
    def operator(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return method(self, other)

    return operator


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
        return cls(_frac(re_str), _frac(im_str))

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

    @_defers
    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    @_defers
    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    @_defers
    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    @_defers
    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
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


def _parts(x: GaussianRational) -> tuple[int, int, int]:
    """x as (re numerator, im numerator, common positive denominator)."""
    re, im = x.re, x.im
    den = math.lcm(re.denominator, im.denominator)
    return re.numerator * (den // re.denominator), im.numerator * (den // im.denominator), den


class RationalMatrix:
    """Dense matrix of Gaussian rationals with exact arithmetic throughout.

    Stored as one flat tuple of integer numerators over one positive common
    denominator, in lowest terms: the gcd of the denominator and every
    numerator is 1.  The tuple is the left layout [Re | Im] read row by row:
    row i holds the real parts of row i, then its imaginary parts.  That form
    is canonical, so equality and hashing compare the stored integers
    directly.  ``entries`` gives the same matrix as rows of
    :class:`GaussianRational`.
    """

    __slots__ = (
        "_nrows", "_ncols", "_num", "_den", "_entries", "_hash", "_left", "_right", "_kept"
    )

    def __init__(self, entries) -> None:
        rows = tuple(tuple(_coerce(x) for x in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must have positive dimensions")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("all rows must have the same length")
        parts = [[_parts(x) for x in row] for row in rows]
        den = math.lcm(*(d for row in parts for _, _, d in row))
        num = []
        for row in parts:
            num += [r * (den // d) for r, _, d in row]
            num += [i * (den // d) for _, i, d in row]
        self._set(len(rows), width, tuple(num), den)
        self._entries = rows

    def _set(
        self, nrows: int, ncols: int, num: tuple, den: int, left: np.ndarray | None = None
    ) -> None:
        self._nrows, self._ncols = nrows, ncols
        self._num, self._den = num, den
        self._entries = None
        self._hash = None
        self._left, self._right = left, None  # the operand layouts, built at first use
        self._kept = {}  # everything derived from the matrix; see keep

    def keep(self, key, make):
        """What make() returns, made at the first read of ``key`` and kept with the matrix.

        The one store of everything derived from the matrix: its A^0 (under 0),
        its elimination ("rref"), its tower per height bound (("tower", max_bits))
        and the Z that ``certify`` verified (("mwgi", max_bits, m)).  Nothing is
        kept when make() raises.
        """
        kept = self._kept
        if key not in kept:  # of two threads racing here, the first to store wins
            kept.setdefault(key, make())
        return kept[key]

    @classmethod
    def _of(cls, nrows: int, ncols: int, num, den: int) -> "RationalMatrix":
        """The matrix of numerators ``num`` (flat [Re | Im] rows) over den, brought to
        lowest terms; den must be positive."""
        num = tuple(num)
        g = math.gcd(den, *num)
        if g != 1:
            num = tuple(x // g for x in num)
            den //= g
        obj = cls.__new__(cls)
        obj._set(nrows, ncols, num, den)
        return obj

    @property
    def entries(self) -> tuple[tuple[GaussianRational, ...], ...]:
        if self._entries is None:
            d, c = self._den, self._ncols
            self._entries = tuple(
                tuple(
                    GaussianRational(Fraction(x, d), Fraction(y, d))
                    for x, y in zip(row[:c], row[c:])
                )
                for row in self._left_layout().tolist()
            )
        return self._entries

    @property
    def rows(self) -> int:
        return self._nrows

    @property
    def cols(self) -> int:
        return self._ncols

    @classmethod
    def from_rows(cls, rows) -> "RationalMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        num = []
        for i in range(n):
            num += [int(i == j) for j in range(n)] + [0] * n
        return cls._of(n, n, num, 1)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls._of(rows, cols, (0,) * (2 * rows * cols), 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __repr__(self) -> str:
        return f"RationalMatrix(entries={self.entries!r})"

    def _key(self) -> tuple:
        return (self._nrows, self._ncols, self._den, self._num)

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_square(self) -> bool:
        return self._nrows == self._ncols

    def max_height_bits(self) -> int:
        """Largest bit length of any entry's numerator or denominator in lowest terms."""
        d = self._den
        height = 0
        for x in self._num:
            g = math.gcd(x, d)
            height = max(height, (x // g).bit_length(), (d // g).bit_length())
        return height

    def _height_bound(self) -> int:
        """An upper bound of ``max_height_bits``, read off the stored integers."""
        return max(x.bit_length() for x in (self._den, *self._num))

    def _plus(self, other: "RationalMatrix", sign: int) -> "RationalMatrix":
        self._same_shape(other)
        den = math.lcm(self._den, other._den)
        s, t = den // self._den, sign * (den // other._den)
        return RationalMatrix._of(
            self._nrows,
            self._ncols,
            (s * x + t * y for x, y in zip(self._num, other._num)),
            den,
        )

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._plus(other, 1)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._plus(other, -1)

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix._of(self._nrows, self._ncols, (-x for x in self._num), self._den)

    def __mul__(self, scalar) -> "RationalMatrix":
        cr, ci, cd = _parts(_coerce(scalar))
        c, left = self._ncols, self._left_layout()
        re, im = left[:, :c], left[:, c:]
        scaled = np.concatenate((re * cr - im * ci, re * ci + im * cr), axis=1)
        return RationalMatrix._of(self._nrows, c, scaled.ravel().tolist(), self._den * cd)

    __rmul__ = __mul__

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        store = _products.get()
        if store is None:
            return self._times(other)
        key = (self, other)  # each matrix hashes once; equal values are equal keys
        product = store.get(key)
        if product is None:
            product = store[key] = self._times(other)
        return product

    def _times(self, other: "RationalMatrix") -> "RationalMatrix":
        """The product, one object-array dot of the operands' layouts.

        [Re A | Im A] [[Re B, Im B], [-Im B, Re B]] = [Re AB | Im AB]: AB's own
        left layout and, read row by row, its numerators, kept as they are
        when the product is already in lowest terms.  numpy runs the dot's
        loop in C on the Python ints, so it stays exact at any height.
        """
        p = self._left_layout().dot(other._right_layout())
        num = p.ravel().tolist()
        den = self._den * other._den
        g = math.gcd(den, *num)
        if g != 1:
            p //= g
            num = p.ravel().tolist()
            den //= g
        product = RationalMatrix.__new__(RationalMatrix)
        product._set(self._nrows, other._ncols, tuple(num), den, readonly(p))
        return product

    def _left_layout(self) -> np.ndarray:
        """[Re | Im], rows x (2 cols), as an object array of the numerators; built once,
        read-only."""
        if self._left is None:
            left = np.array(self._num, dtype=object).reshape(self._nrows, 2 * self._ncols)
            self._left = readonly(left)
        return self._left

    def _right_layout(self) -> np.ndarray:
        """[[Re, Im], [-Im, Re]], (2 rows) x (2 cols), as an object array of the
        numerators; built once, read-only."""
        if self._right is None:
            c, left = self._ncols, self._left_layout()
            below = np.concatenate((-left[:, c:], left[:, :c]), axis=1)
            self._right = readonly(np.concatenate((left, below)))
        return self._right

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def power(self, e: int) -> "RationalMatrix":
        """A^e, the chain (A A) A ... A through ``@``, in a loop, so no exponent is too
        deep: within a public call the product store forms each power once, and outside
        one each is formed afresh.  A^0 = I is one identity kept under 0, with the
        elimination F reads at index 0."""
        if not self.is_square():
            raise ValueError("matrix power requires a square matrix")
        if e < 0:
            raise ValueError("negative powers are not supported; invert first")
        if e == 0:
            return self.keep(0, lambda: RationalMatrix.identity(self.rows))
        p = self
        for _ in range(e - 1):
            p = p @ self
        return p

    def conj_transpose(self) -> "RationalMatrix":
        c, num = self._ncols, self._num
        w, out = 2 * c, []
        for j in range(c):  # column j of Re, then of -Im, is row j of the result
            out += num[j::w]
            out += [-y for y in num[c + j :: w]]
        obj = RationalMatrix.__new__(RationalMatrix)
        obj._set(c, self._nrows, tuple(out), self._den)  # in lowest terms, as self is
        return obj

    def to_complex(self) -> np.ndarray:
        d, c = self._den, self._ncols
        rows = self._left_layout().tolist()
        values = [[complex(x / d, y / d) for x, y in zip(r[:c], r[c:])] for r in rows]
        return np.array(values, dtype=np.complex128)

    def to_json(self) -> dict:
        entries = [
            [str(x.re), str(x.im)] for row in self.entries for x in row
        ]
        return {"rows": self.rows, "cols": self.cols, "entries": entries}

    @classmethod
    def from_json(cls, obj) -> "RationalMatrix":
        rows, cols, entries = _json_envelope(obj)
        values = []
        for pos, pair in enumerate(entries):
            try:
                values.append(GaussianRational.parse(str(pair[0]), str(pair[1])))
            except (ValueError, ZeroDivisionError) as exc:
                msg = f"entry {pos} is not a valid rational pair: {exc}"
                raise MatrixFormatError(msg) from exc
        return cls.from_rows(
            [values[i * cols : (i + 1) * cols] for i in range(rows)]
        )

    def _int_rows(self) -> tuple[list[list[int]], list[list[int]]]:
        """Working copies of the numerator rows, real and imaginary parts."""
        c, rows = self._ncols, self._left_layout().tolist()
        return [r[:c] for r in rows], [r[c:] for r in rows]

    def _same_shape(self, other: "RationalMatrix") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")


def _guard(a: RationalMatrix, max_bits: int) -> RationalMatrix:
    if a._height_bound() > max_bits and a.max_height_bits() > max_bits:
        raise HeightOverflow(
            f"intermediate entries exceed {max_bits} bits; "
            "raise max_bits or supply a smaller input"
        )
    return a


def _exact_quotient(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("fraction-free elimination left a remainder; this is a bug")
    return q


def _rref(re: list[list[int]], im: list[list[int]]) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination over Z[i], in place (Bareiss, 1968).

    With pivot p in row r, every other row becomes (p row - row[c] pivot row)
    / q, where q is the previous pivot (1 at first).  Every entry is then a
    minor of the input, so each division is exact, and checked.  On return
    the rows hold p times the reduced row echelon form, where p = pr + i pi
    is the last pivot; returns the pivot columns, pr and pi.
    """
    n_rows, n_cols = len(re), len(re[0]) if re else 0
    pivots: list[int] = []
    qr, qi = 1, 0
    r = 0
    for c in range(n_cols):
        p = next((i for i in range(r, n_rows) if re[i][c] or im[i][c]), None)
        if p is None:
            continue
        re[r], re[p] = re[p], re[r]
        im[r], im[p] = im[p], im[r]
        pr, pi = re[r][c], im[r][c]
        yrs, yis = re[r], im[r]
        divisor = qr * qr + qi * qi if qi else qr
        for i in range(n_rows):
            if i == r:
                continue
            fr, fi = re[i][c], im[i][c]
            new_re, new_im = [], []
            for xr, xi, yr, yi in zip(re[i], im[i], yrs, yis):
                tr = pr * xr - pi * xi - fr * yr + fi * yi
                ti = pr * xi + pi * xr - fr * yi - fi * yr
                if qi:  # t / q = t conj(q) / |q|^2
                    tr, ti = tr * qr + ti * qi, ti * qr - tr * qi
                if divisor != 1:
                    tr = _exact_quotient(tr, divisor)
                    ti = _exact_quotient(ti, divisor)
                new_re.append(tr)
                new_im.append(ti)
            re[i], im[i] = new_re, new_im
        qr, qi = pr, pi
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return pivots, qr, qi


def _over_pivot(
    re: list[list[int]], im: list[list[int]], cols: int, pr: int, pi: int, scale: int = 1
) -> RationalMatrix:
    """The matrix scale (re + i im) / (pr + i pi) from integer rows of ``cols`` entries."""
    num = []
    for xs, ys in zip(re, im):
        num += [scale * (x * pr + y * pi) for x, y in zip(xs, ys)]
        num += [scale * (y * pr - x * pi) for x, y in zip(xs, ys)]
    return RationalMatrix._of(len(re), cols, num, pr * pr + pi * pi)


def _eliminate(a: RationalMatrix) -> tuple:
    """A's numerator rows after fraction-free elimination, its pivot columns and last pivot."""
    re, im = a._int_rows()
    return (re, im, *_rref(re, im))


def _elimination(a: RationalMatrix) -> tuple:
    """``_eliminate(a)``, run once per matrix and kept with it: rank and the
    full-rank factorization both read it."""
    return a.keep("rref", functools.partial(_eliminate, a))


def rank(a: RationalMatrix) -> int:
    """Exact rank by fraction-free elimination; no tolerance enters anywhere."""
    return len(_elimination(a)[2])


def inverse(a: RationalMatrix, max_bits: int = MAX_HEIGHT_BITS) -> RationalMatrix:
    """Exact inverse of a nonsingular square matrix."""
    if not a.is_square():
        raise ValueError("only square matrices can be inverted")
    n = a.rows
    re, im = a._int_rows()
    for i in range(n):
        re[i] += [int(i == j) for j in range(n)]
        im[i] += [0] * n
    pivots, pr, pi = _rref(re, im)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    # A = N / den and the right half holds p N^-1, so A^-1 = den (p N^-1) / p
    right = _over_pivot([row[n:] for row in re], [row[n:] for row in im], n, pr, pi, a._den)
    return _guard(right, max_bits)


def _pivot_columns(a: RationalMatrix, max_bits: int) -> RationalMatrix:
    """F, the pivot columns of A, from its kept elimination; rows x 0 when A is zero."""
    pivots = _elimination(a)[2]
    r, num, taken = len(pivots), a._num, pivots + [a.cols + c for c in pivots]  # Re, then Im
    f = RationalMatrix._of(
        a.rows, r, (num[i + c] for i in range(0, len(num), 2 * a.cols) for c in taken), a._den
    )
    return _guard(f, max_bits)


def full_rank_factorization(
    a: RationalMatrix, max_bits: int = MAX_HEIGHT_BITS
) -> tuple[RationalMatrix, RationalMatrix]:
    """A = F G with F of full column rank and G of full row rank.

    F holds the pivot columns of A; G holds the nonzero rows of rref(A).  At
    rank 0, F is rows x 0 and G is 0 x cols, and F G is A all the same.
    """
    re, im, pivots, pr, pi = _elimination(a)
    g = _over_pivot(re[: len(pivots)], im[: len(pivots)], a.cols, pr, pi)
    return _pivot_columns(a, max_bits), _guard(g, max_bits)


def _require_exact(checks: dict[str, Check]) -> None:
    for label, check in checks.items():
        if not check.passed:
            raise ArithmeticError(f"exact identity '{label}' failed; this is a bug")


def _require_identities(identities, a: RationalMatrix, x: RationalMatrix, k: int) -> None:
    """Require each identity of a ``report`` list of X and A with zero tolerance."""
    sides = identities(a, x, k, a.power, RationalMatrix.conj_transpose)
    _require_exact(_evaluate(sides, sides, _exact_check))


@_with_products
def exact_mp(a: RationalMatrix, max_bits: int = MAX_HEIGHT_BITS) -> RationalMatrix:
    """Exact Moore-Penrose inverse via A = FG and G*(GG*)^-1 (F*F)^-1 F*; at A = 0,
    F and G have no columns and no rows, and the same product is zero."""
    _guard(a, max_bits)
    f, g = full_rank_factorization(a, max_bits)
    fs, gs = f.conj_transpose(), g.conj_transpose()
    mp = gs @ inverse(g @ gs, max_bits) @ inverse(fs @ f, max_bits) @ fs
    _guard(mp, max_bits)
    _require_identities(_penrose_identities, a, mp, 0)
    return mp


def exact_index(a: RationalMatrix) -> int:
    """Smallest k with rank(A^k) = rank(A^{k+1}), by exact rank."""
    if not a.is_square():
        raise ValueError("index requires a square matrix")
    previous = a.rows  # rank of A^0
    k = 0
    while True:
        current = rank(a.power(k + 1))
        if current == previous:
            return k
        previous = current
        k += 1


def _tower(a: RationalMatrix, max_bits: int) -> tuple[int, RationalMatrix, RationalMatrix]:
    """The index k, A^D and A^o of A, verified once and kept with A per bound.

    With F the pivot columns of A^k, A^o = F (F* A F)^-1 F*, the exact twin of
    U1 T^-1 U1* (core-EP decomposition, Wang, LAA 508, 2016): A maps col(A^k)
    onto itself, so A F = F M with M invertible and F* A F = F* F M is too.
    At k = 0, A^0 = I is its own pivot columns, so F = I and A^o = A^-1;
    at a nilpotent A, A^k = 0 has no pivot columns, so F is n x 0, F* A F
    is 0 x 0 and A^o = 0.  Then A^D = (A^o)^{k+1} A^k.  ``certify`` keeps the
    tower of A^m read from A's through ``_verified_tower``, at index ceil(k / m),
    since rank(A^i) falls strictly up to i = k and then stays, and with (A^m)^o =
    (A^o)^m: no power of A^m is eliminated, and the same six identities hold.
    """
    return a.keep(("tower", max_bits), lambda: _build_tower(a, max_bits))


def _build_tower(a: RationalMatrix, max_bits: int) -> tuple:
    if not a.is_square():
        raise ValueError(f"an exact tower needs a square matrix, got {a.rows} x {a.cols}")
    _guard(a, max_bits)
    k = exact_index(a)
    f = _pivot_columns(a.power(k), max_bits)
    fs = f.conj_transpose()
    core = inverse(_guard(fs @ a @ f, max_bits), max_bits)
    return _verified_tower(a, k, f @ core @ fs, max_bits)


def _verified_tower(a: RationalMatrix, k: int, cep: RationalMatrix, max_bits: int) -> tuple:
    """(k, A^D, A^o) once A^o's core-EP list and A^D's Drazin list hold exactly at k;
    no X gives A^{k+1} X = A^k below ind(A), so k is checked too."""
    _require_identities(_core_ep_identities, a, _guard(cep, max_bits), k)
    d = _z_of(a, cep, k, max_bits)
    _require_identities(_drazin_identities, a, d, k)
    return k, d, cep


@_with_products
def exact_drazin(a: RationalMatrix, max_bits: int = MAX_HEIGHT_BITS) -> RationalMatrix:
    """Exact Drazin inverse (A^o)^{k+1} A^k, from the tower of A; verified once, kept with A."""
    return _tower(a, max_bits)[1]


@_with_products
def exact_core_ep(a: RationalMatrix, max_bits: int = MAX_HEIGHT_BITS) -> RationalMatrix:
    """Exact core-EP inverse F (F* A F)^-1 F* (F spans col(A^k)); verified once, kept with A."""
    return _tower(a, max_bits)[2]


def _z_of(a: RationalMatrix, cep: RationalMatrix, m: int, max_bits: int) -> RationalMatrix:
    """(A^o)^{m+1} A^m from A^o, not yet verified: A^D at m = k, and the m-weak group
    inverse Z for m >= 1.  Its callers pass min(m, k), as Z_m = A^D for every m >= k,
    so no power of A^o above the (k+1)-th is formed for a Z."""
    return _guard(cep.power(m + 1) @ a.power(m), max_bits)


# what exact_mwgi requires of its Z; certify reports these among the rest
_REQUIRED = ("ax2", "def11", "wgm_k", "second_form")


def _mwgi_identities(a: RationalMatrix, m: int, z: RationalMatrix, max_bits: int) -> dict:
    """The definition list of Z (``report._definition_identities``) read from A's
    tower, and the exact-only second_form: (A^D A A^o)^{m+1} A^m = Z."""
    k, d, cep = _tower(a, max_bits)
    star = RationalMatrix.conj_transpose
    products, qs = _z_products(a, z, k, m, a.power, star), star(a @ d)
    identities = _definition_identities(
        a, z, k, m, a.power, star, products, qs.__matmul__, lambda x: a @ (cep @ x)
    )
    identities["second_form"] = lambda: ((d @ a @ cep).power(m + 1) @ a.power(m), z)
    return identities


@_with_products
def exact_mwgi(a: RationalMatrix, m: int, max_bits: int = MAX_HEIGHT_BITS) -> RationalMatrix:
    """Exact m-weak group inverse (A^o)^{m+1} A^m, fully verified.

    Z is formed at weight min(m, k) (``_z_of``): for every m >= k it is A^D, so its
    height stops growing with m.  Requires, with zero tolerance and at the m asked
    for, the identities ``_REQUIRED`` of ``_mwgi_identities``, second_form among
    them: (A^D A A^o)^{m+1} A^m = Z, not the formula Z is formed by.  A failure
    raises ArithmeticError naming its key.
    A Z that ``certify`` has verified for this m and bound is returned as it is,
    formed no more.
    """
    m = _check_m(m)
    k, _, cep = _tower(a, max_bits)
    z = a._kept.get(("mwgi", max_bits, m))
    if z is not None:
        return z
    z = _z_of(a, cep, min(m, k), max_bits)
    _require_exact(_evaluate(_mwgi_identities(a, m, z, max_bits), _REQUIRED, _exact_check))
    return z


def _diff_residual(left: RationalMatrix, right: RationalMatrix) -> float:
    """0.0 iff the matrices are exactly equal, else the float Frobenius gap,
    clamped to [ulp(0.0), inf] so that an unequal pair never reads 0.0.

    sqrt(total) / den is formed as 2^e sqrt(q), with q = total / (den^2 4^e)
    between 1/2 and 8, so no step leaves the float range before the last.
    Where sqrt(total / den^2) is a normal float, the bits are its bits.
    """
    if left == right:
        return 0.0
    diff = left - right
    total = sum(x * x for x in diff._num)
    den2 = diff._den**2
    e = total.bit_length() // 2 - diff._den.bit_length()
    q = total / (den2 << 2 * e) if e >= 0 else (total << -2 * e) / den2
    try:
        return max(math.ldexp(math.sqrt(q), e), math.ulp(0.0))
    except OverflowError:
        return math.inf


def _exact_check(left: RationalMatrix, right) -> Check:
    """Left = right exactly, or left nilpotent when right is ``report._Is.NILPOTENT``."""
    if right is _Is.NILPOTENT:  # its n-th power is zero
        left, right = _zero_pair(left.power(left.rows))
    residual = _diff_residual(left, right)
    return Check(residual=residual, passed=residual == 0.0)  # 0.0 iff left == right


@functools.cache
def _test_matrices(n: int) -> tuple[RationalMatrix, RationalMatrix]:
    """Deterministic rational right-hand side and free term for solution checks,
    built once per n (the entries of a RationalMatrix never change)."""
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


@_with_products
def certify(
    a: RationalMatrix,
    m: int,
    z: RationalMatrix | None = None,
    max_bits: int = MAX_HEIGHT_BITS,
) -> VerificationReport:
    """Evaluate every characterization's identity list in exact arithmetic.

    The definition list and second_form (``_mwgi_identities``) are reported
    label by label; the decomposition, b-characterization, outer-inverse and
    equation lists of ``report`` one check each, under the names ``ginv fuzz``
    gives their float residuals; route_power and route_recursive compare the
    computed Z with exact_mwgi of A^m and of m + 1.  Every check's residual is
    exactly zero or the exact size of the violation.  ``z`` overrides the
    computed m-weak group inverse, which lets a harness confirm that a
    corrupted candidate is caught.  The computed Z is kept with A's tower for
    ``exact_mwgi`` once its ``_REQUIRED`` identities hold; a ``z`` passed in never is.
    """
    m = _check_m(m)
    k, d, cep = _tower(a, max_bits)
    z_computed = _z_of(a, cep, min(m, k), max_bits)
    if z is None:
        z = z_computed
    identities = _mwgi_identities(a, m, z, max_bits)
    checks = _evaluate(identities, identities, _exact_check)
    if z is z_computed and all(checks[label].passed for label in _REQUIRED):
        a.keep(("mwgi", max_bits, m), lambda: z)
    am = _guard(a.power(m), max_bits)  # A itself at m = 1, whose tower is kept above
    am.keep(("tower", max_bits), lambda: _verified_tower(am, -(-k // m), cep.power(m), max_bits))
    w = exact_mwgi(am, 1, max_bits)
    checks["route_power"] = _merge(
        _exact_check(a.power(m - 1) @ w, z_computed),
        _exact_check(w, z_computed.power(m)),
    )
    z_next = exact_mwgi(a, m + 1, max_bits)
    checks["route_recursive"] = _exact_check(z_next, z_computed @ z_computed @ a)

    star, az = RationalMatrix.conj_transpose, a @ z
    x = a @ az  # A^2 Z: X of the decomposition, and A^2 b at b = Z
    parts = _decomposition_identities(a, x, a - x, z, m, a.power, star)
    checks["decomposition"] = _merge(*_evaluate(parts, parts, _exact_check).values())
    fixed_point = _b_identities(a, z, m, a.power, star, az, x)
    fixed_point = _evaluate(fixed_point, fixed_point, _exact_check)
    checks["b_characterization"] = _merge(*fixed_point.values())
    checks["outer_inverse"] = fixed_point["bab"]  # Z A Z = Z
    b, y = _test_matrices(a.rows)
    solution = z @ (b - a @ y) + y  # Z B + (I - Z A) Y
    equation = _equation_identities(solution, b, m, a.power, (a @ d).conj_transpose().__matmul__)
    checks.update(_evaluate(equation, equation, _exact_check))
    return VerificationReport(checks=checks)
