"""Exact sandbox for shift operators on finitely supported sequences.

Square complex matrices cannot exhibit genuinely one-sided behavior, so the
one place it appears in this package is here: words in the injection shifts
S(n) and the truncation shifts L(n) acting on finitely supported sequences,
with no floating-point tolerance anywhere.

    S(n): (x1, x2, ...) -> (0, ..., 0, x1, x2, ...)   with n zeros
    L(n): (x1, x2, ...) -> (x_{n+1}, x_{n+2}, ...)

L(n) S(n) is the identity while S(n) L(n) is not, and for a = L(1) the
m-weak group inverse is the word S(m+1) L(m).  One-sidedness shows up in
the eventual identities: a^{n+1} Z = a^n holds exactly for n >= m, but the
two-sided-style remainder a^n - a Z a^n keeps norm one for every n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matcore import _check_m
from .report import Check, VerificationReport, _evaluate

__all__ = [
    "FinSeq",
    "ShiftWord",
    "S",
    "L",
    "IDENTITY_WORD",
    "apply",
    "normalize",
    "adjoint",
    "inner",
    "mwgi_shift",
    "verify_shift_identities",
]


@dataclass(frozen=True)
class FinSeq:
    """A finitely supported sequence, 1-indexed; trailing zeros are trimmed."""

    coeffs: tuple[complex, ...] = ()

    def __post_init__(self) -> None:
        values = tuple(complex(c) for c in self.coeffs)
        while values and values[-1] == 0:
            values = values[:-1]
        object.__setattr__(self, "coeffs", values)

    @classmethod
    def basis(cls, j: int) -> "FinSeq":
        if j < 1:
            raise ValueError("basis index starts at 1")
        return cls((0,) * (j - 1) + (1,))

    def entry(self, i: int) -> complex:
        """The i-th component (1-indexed); zero beyond the stored support."""
        if i < 1:
            raise ValueError("sequence indices start at 1")
        return self.coeffs[i - 1] if i <= len(self.coeffs) else 0j

    def is_zero(self) -> bool:
        return not self.coeffs

    def __sub__(self, other: "FinSeq") -> "FinSeq":
        width = max(len(self.coeffs), len(other.coeffs))
        return FinSeq(tuple(self.entry(i) - other.entry(i) for i in range(1, width + 1)))

    def max_abs(self) -> float:
        return max((abs(c) for c in self.coeffs), default=0.0)


@dataclass(frozen=True)
class ShiftWord:
    """A composition of shift generators; the empty word is the identity.

    ``word`` is in operator order: the last generator applies first, exactly
    as in the printed form "S3∘L2".
    """

    word: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        for kind, n in self.word:
            if kind not in ("S", "L"):
                raise ValueError(f"unknown generator kind {kind!r}")
            if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                raise ValueError(f"shift amount must be a positive integer, got {n!r}")

    def __mul__(self, other: "ShiftWord") -> "ShiftWord":
        return ShiftWord(self.word + other.word)

    def __pow__(self, e: int) -> "ShiftWord":
        if e < 0:
            raise ValueError("negative powers are not defined for shift words")
        return ShiftWord(self.word * e)

    def __str__(self) -> str:
        if not self.word:
            return "I"
        return "∘".join(f"{kind}{n}" for kind, n in self.word)


def S(n: int) -> ShiftWord:
    """Injection shift: prepend n zeros."""
    return ShiftWord((("S", n),))


def L(n: int) -> ShiftWord:
    """Truncation shift: drop the first n components."""
    return ShiftWord((("L", n),))


IDENTITY_WORD = ShiftWord()


def apply(w: ShiftWord, v: FinSeq) -> FinSeq:
    """Apply the word right-to-left; exact complex arithmetic, no tolerance."""
    coeffs = list(v.coeffs)
    for kind, n in reversed(w.word):
        if kind == "S":
            coeffs = [0j] * n + coeffs
        else:
            coeffs = coeffs[n:]
    return FinSeq(tuple(coeffs))


def normalize(w: ShiftWord) -> ShiftWord:
    """Canonical form acting identically on every sequence.

    Fold with the rewrite rules L(a)S(b) -> S(b-a) / L(a-b) / identity and
    same-kind merging; every word reduces to S(p)∘L(q) with p, q >= 0.
    """
    p = q = 0  # running composite S(p)∘L(q)
    for kind, n in w.word:
        if kind == "L":
            q += n
        elif n >= q:
            p, q = p + n - q, 0
        else:
            q -= n
    out = IDENTITY_WORD
    if p:
        out = out * S(p)
    if q:
        out = out * L(q)
    return out


def adjoint(w: ShiftWord) -> ShiftWord:
    """Formal adjoint: reverse the word and swap S(n) with L(n)."""
    return ShiftWord(
        tuple(("L" if kind == "S" else "S", n) for kind, n in reversed(w.word))
    )


def inner(u: FinSeq, v: FinSeq) -> complex:
    """The sequence-space inner product, linear in the first argument."""
    width = min(len(u.coeffs), len(v.coeffs))
    return sum((u.coeffs[i] * v.coeffs[i].conjugate() for i in range(width)), 0j)


def mwgi_shift(m: int) -> ShiftWord:
    """The m-weak group inverse of L(1): the word S(m+1)∘L(m)."""
    m = _check_m(m)
    return S(m + 1) * L(m)


def _words_agree(w1: ShiftWord, w2: ShiftWord, window: int) -> Check:
    """Exact check: identical canonical forms and identical action on e1..e_window."""
    if normalize(w1) != normalize(w2):
        return Check(residual=1.0, passed=False)
    residual = max(
        (apply(w1, FinSeq.basis(j)) - apply(w2, FinSeq.basis(j))).max_abs()
        for j in range(1, window + 1)
    )
    return Check(residual=residual, passed=residual == 0.0)


def verify_shift_identities(m: int, window: int, z: ShiftWord | None = None) -> VerificationReport:
    """Exact verification of the shift example on basis vectors e1..e_window.

    ``z`` overrides the canonical word S(m+1)∘L(m), so a wrong candidate can
    be shown to fail.  With a = L(1), x = S(1) and Z = S(m+1)∘L(m), checks
    (all tolerance-free):

      proj_identity  a x reduces to the identity word
      rd_ax2         a x^2 = x
      rd_a2x_axa     a^2 x = a x a
      rd_qnil        a = a x a (the nilpotent remainder a - a x a vanishes outright)
      core_hermitian a x equals its adjoint (a x)*
      core_limit     a^n = (a x) a^n for n = 1..window
      ax2            Z = a Z^2
      rep_word       (S1)^{m+1}∘L1∘S1∘(L1)^m normalizes to S(m+1)∘L(m)
      def_eq         a^{m+1} Z = a^m
      limit          a^{n+1} Z = a^n for n = m..window (zero remainder)
    """
    m = _check_m(m)
    if window < m + 2:
        raise ValueError(f"window must be at least m + 2 = {m + 2}, got {window}")
    a = L(1)
    x = S(1)
    z = mwgi_shift(m) if z is None else z
    words = {
        "proj_identity": lambda: (a * x, IDENTITY_WORD),
        "rd_ax2": lambda: (a * x * x, x),
        "rd_a2x_axa": lambda: (a * a * x, a * x * a),
        "rd_qnil": lambda: (a, a * x * a),
        "core_hermitian": lambda: (a * x, adjoint(a * x)),
        "core_limit": lambda: [(a**n, a * x * a**n) for n in range(1, window + 1)],
        "ax2": lambda: (z, a * z * z),
        "rep_word": lambda: (x ** (m + 1) * a * x * a**m, z),
        "def_eq": lambda: (a ** (m + 1) * z, a**m),
        "limit": lambda: [(a ** (n + 1) * z, a**n) for n in range(m, window + 1)],
    }
    return VerificationReport(checks=_evaluate(words, words, _words_agree, window))
