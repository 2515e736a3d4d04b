"""Exact ground truth over the Gaussian rationals.

Everything in this module is tolerance-free: ranks come from exact Gaussian
elimination, pseudoinverses from an exact full-rank factorization, and every
identity is verified with exact arithmetic before a result is returned.  The
floating point modules are validated against these computations.

The spectral tower of a square A (the index k by exact rank, the core-EP
inverse A^o = F (F* A F)^-1 F* with F the pivot columns of A^k, and the
Drazin inverse A^D = (A^o)^{k+1} A^k) is built and its identities verified
once per matrix and height bound.  ``certify`` reads the tower of A^m from
A's, since (A^m)^o = (A^o)^m (Wang, LAA 508, 2016); the identities that pin
a tower down are required of that one too.

Each matrix keeps everything derived from it in one store (``keep``): its
powers, keyed by exponent, its one fraction-free elimination, which both its
rank and its full-rank factorization read, its tower per height bound, and
the Z that ``certify`` verified.  The first value stored under a key wins, so
threads sharing a matrix read one value per key.

A product A B is a single numpy object-array dot of A's left layout
[Re A | Im A] (r x 2n) and B's right layout [[Re B, Im B], [-Im B, Re B]]
(2n x 2c), whose loop runs in C on exact integers of any height.  The result
[Re AB | Im AB] is AB's own left layout, kept as it is when the product is
already in lowest terms.  Each layout is built at its first use, kept with
its matrix and read-only.  The outermost public call (``certify``,
``exact_mwgi``, ``exact_drazin``, ``exact_core_ep``, ``exact_mp``) opens one
product store, keyed by the operand matrices (each hashes once; equal values
are equal keys), and every call nested in it reads and fills the same store,
so a product of equal operands is formed once per call even where the
operands are distinct objects.  The store is dropped when that call returns
or raises; it lives in a context variable, so threads never share one.

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
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .matcore import MatrixFormatError, _check_m, _json_envelope, readonly
from .report import Check, VerificationReport, _Is, _evaluate, _merge
from .report import _core_ep_identities, _drazin_identities, _penrose_identities
from .report import _b_identities, _decomposition_identities, _definition_identities
from .report import _equation_identities

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


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
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

        The one store of everything derived from the matrix: its powers (keyed
        by exponent), its elimination ("rref"), its tower per height bound
        (("tower", max_bits)) and the Z that ``certify`` verified
        (("mwgi", max_bits, m)).  Nothing is kept when make() raises.
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
    def _re(self) -> tuple:
        """The real-part numerators, row-major."""
        c, num = self._ncols, self._num
        return tuple(x for i in range(0, len(num), 2 * c) for x in num[i : i + c])

    @property
    def _im(self) -> tuple:
        """The imaginary-part numerators, row-major."""
        c, num = self._ncols, self._num
        return tuple(x for i in range(0, len(num), 2 * c) for x in num[i + c : i + 2 * c])

    @property
    def entries(self) -> tuple[tuple[GaussianRational, ...], ...]:
        if self._entries is None:
            d, c = self._den, self._ncols
            flat = [
                GaussianRational(Fraction(x, d), Fraction(y, d))
                for x, y in zip(self._re, self._im)
            ]
            self._entries = tuple(
                tuple(flat[i * c : (i + 1) * c]) for i in range(self._nrows)
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
        return max(self._den.bit_length(), *(x.bit_length() for x in self._num))

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
        """A^e, formed as A^{e-1} A and kept with A under its exponent."""
        if not self.is_square():
            raise ValueError("matrix power requires a square matrix")
        if e < 0:
            raise ValueError("negative powers are not supported; invert first")
        if e == 0:
            return RationalMatrix.identity(self.rows)
        x = self._kept.get(e)
        if x is None:  # A^1 is A itself
            x = self
            for j in range(2, e + 1):
                x = self.keep(j, lambda x=x: x @ self)
        return x

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
        d = self._den
        values = [complex(x / d, y / d) for x, y in zip(self._re, self._im)]
        return np.array(values, dtype=np.complex128).reshape(self.shape)

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
        c, num = self._ncols, self._num
        starts = range(0, len(num), 2 * c)
        return (
            [list(num[i : i + c]) for i in starts],
            [list(num[i + c : i + 2 * c]) for i in starts],
        )

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
    n_rows, n_cols = len(re), len(re[0])
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
    re: list[list[int]], im: list[list[int]], pr: int, pi: int, scale: int = 1
) -> RationalMatrix:
    """The matrix scale (re + i im) / (pr + i pi) from integer rows."""
    num = []
    for xs, ys in zip(re, im):
        num += [scale * (x * pr + y * pi) for x, y in zip(xs, ys)]
        num += [scale * (y * pr - x * pi) for x, y in zip(xs, ys)]
    return RationalMatrix._of(len(re), len(re[0]), num, pr * pr + pi * pi)


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
    right = _over_pivot([row[n:] for row in re], [row[n:] for row in im], pr, pi, a._den)
    return _guard(right, max_bits)


def full_rank_factorization(
    a: RationalMatrix, max_bits: int = MAX_HEIGHT_BITS
) -> tuple[RationalMatrix, RationalMatrix]:
    """A = F G with F of full column rank and G of full row rank.

    F holds the pivot columns of A; G holds the nonzero rows of rref(A).
    The caller must ensure A is nonzero (rank 0 has no such factorization).
    """
    re, im, pivots, pr, pi = _elimination(a)
    r = len(pivots)
    if r == 0:
        raise ValueError("zero matrix has no full-rank factorization")
    num, taken = a._num, pivots + [a.cols + c for c in pivots]  # in Re, then in Im
    f = RationalMatrix._of(
        a.rows, r, (num[i + c] for i in range(0, len(num), 2 * a.cols) for c in taken), a._den
    )
    g = _over_pivot(re[:r], im[:r], pr, pi)
    return _guard(f, max_bits), _guard(g, max_bits)


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
    """Exact Moore-Penrose inverse via A = FG and G*(GG*)^-1 (F*F)^-1 F*."""
    _guard(a, max_bits)
    if a.is_zero():
        return RationalMatrix.zeros(a.cols, a.rows)
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


def _tower(
    a: RationalMatrix, max_bits: int, core_ep=None
) -> tuple[int, RationalMatrix, RationalMatrix]:
    """The index k, A^D and A^o of A, verified once and kept with A per bound.

    With F the pivot columns of A^k, A^o = F (F* A F)^-1 F*, the exact twin of
    U1 T^-1 U1* (core-EP decomposition, Wang, LAA 508, 2016): A maps col(A^k)
    onto itself, so A F = F M with M invertible and F* A F = F* F M is too.
    At k = 0, F = I and A^o = A^-1.  Then A^D = (A^o)^{k+1} A^k; both are
    zero if A^k is.  ``core_ep``, when given, makes A^o in place of F: the
    tower of A^m is read from A's as (A^o)^m (``certify``).  The core-EP and
    Drazin lists of ``report``, required below, determine both uniquely,
    whichever way A^o was made.
    """
    return a.keep(("tower", max_bits), lambda: _build_tower(a, max_bits, core_ep))


def _build_tower(a: RationalMatrix, max_bits: int, core_ep) -> tuple:
    if not a.is_square():
        raise ValueError("Drazin inverse requires a square matrix")
    _guard(a, max_bits)
    k = exact_index(a)
    ak = a.power(k)
    if core_ep is not None:
        cep = _guard(core_ep(), max_bits)
    elif k == 0:
        cep = inverse(a, max_bits)
    elif ak.is_zero():
        cep = RationalMatrix.zeros(a.rows, a.rows)
    else:
        f = full_rank_factorization(ak, max_bits)[0]
        fs = f.conj_transpose()
        core = inverse(_guard(fs @ a @ f, max_bits), max_bits)
        cep = _guard(f @ core @ fs, max_bits)
    _require_identities(_core_ep_identities, a, cep, k)
    d = _guard(cep.power(k + 1) @ ak, max_bits)
    _require_identities(_drazin_identities, a, d, k)
    return k, d, cep


@_with_products
def exact_drazin(a: RationalMatrix, max_bits: int = MAX_HEIGHT_BITS) -> RationalMatrix:
    """Exact Drazin inverse (A^o)^{k+1} A^k, from the tower of A; verified once, kept with A."""
    return _tower(a, max_bits)[1]


@_with_products
def exact_core_ep(a: RationalMatrix, max_bits: int = MAX_HEIGHT_BITS) -> RationalMatrix:
    """Exact core-EP inverse F (F* A F)^-1 F* (F spans col(A^k)); verified once, kept with A."""
    if not a.is_square():
        raise ValueError("core-EP inverse requires a square matrix")
    return _tower(a, max_bits)[2]


def _mwgi_of(a: RationalMatrix, m: int, d: RationalMatrix, cep: RationalMatrix, max_bits: int):
    """(A^D)^{m+1} A A^o A^m from A^D and A^o, not yet verified."""
    return _guard(d.power(m + 1) @ a @ cep @ a.power(m), max_bits)


# what exact_mwgi requires of its Z; certify reports these among the rest
_REQUIRED = ("ax2", "def11", "wgm_k", "second_form")


def _mwgi_identities(a: RationalMatrix, m: int, z: RationalMatrix, max_bits: int) -> dict:
    """The definition list of Z (``report._definition_identities``) read from A's
    tower, and the exact-only second_form: (A^D A A^o)^{m+1} A^m = Z."""
    k, d, cep = _tower(a, max_bits)
    am, az = a.power(m), a @ z
    qs = (a @ d).conj_transpose()
    identities = _definition_identities(
        a, z, k, m, a.power, RationalMatrix.conj_transpose, az, az @ z, am @ az,
        qs.__matmul__, lambda x: a @ (cep @ x),
    )
    identities["second_form"] = lambda: ((d @ a @ cep).power(m + 1) @ am, z)
    return identities


@_with_products
def exact_mwgi(a: RationalMatrix, m: int, max_bits: int = MAX_HEIGHT_BITS) -> RationalMatrix:
    """Exact m-weak group inverse (A^D)^{m+1} A A^o A^m, fully verified.

    Requires, with zero tolerance, the identities ``_REQUIRED`` of
    ``_mwgi_identities``; a failure raises ArithmeticError naming its key.  A Z
    that ``certify`` has verified for this m and bound is returned as it is,
    formed no more.
    """
    _check_m(m)
    _, d, cep = _tower(a, max_bits)
    z = a._kept.get(("mwgi", max_bits, m))
    if z is not None:
        return z
    z = _mwgi_of(a, m, d, cep, max_bits)
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
    """Left = right exactly, or the property that right names of left (``report._Is``)."""
    if type(right) is _Is:  # a property of left
        if right is _Is.HERMITIAN:
            right = left.conj_transpose()
        else:  # zero, or nilpotent: its n-th power is zero
            left = left if right is _Is.ZERO else left.power(left.rows)
            right = RationalMatrix.zeros(*left.shape)
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
    if not a.is_square():
        raise ValueError("certify requires a square matrix")
    _check_m(m)
    _, d, cep = _tower(a, max_bits)
    z_computed = _mwgi_of(a, m, d, cep, max_bits)
    if z is None:
        z = z_computed
    identities = _mwgi_identities(a, m, z, max_bits)
    checks = _evaluate(identities, identities, _exact_check)
    if z is z_computed and all(checks[label].passed for label in _REQUIRED):
        a.keep(("mwgi", max_bits, m), lambda: z)
    am = a.power(m)
    if m >= 2:  # (A^m)^o = (A^o)^m, so A^m's tower is read from A's
        _tower(am, max_bits, lambda: cep.power(m))
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
