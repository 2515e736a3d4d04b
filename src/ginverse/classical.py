"""Classical generalized inverses: Moore-Penrose, Drazin, group, core and core-EP.

Conventions, for a square complex matrix A with index k (the smallest j with
rank(A^j) = rank(A^{j+1})):

* core-EP inverse     A^o  = U1 T^-1 U1*, always defined (see ``tower``)
* Drazin inverse      A^D  = (A^o)^{k+1} A^k
* group inverse       A^#  = A^D, defined only when k <= 1
* core inverse        A^#o = A^# A A^+, defined only when k <= 1, where it is A^o

The core-EP inverse X is the unique solution of AX^2 = X, (AX)* = AX and
A^n = A X A^n for all n >= k.  ``tower`` computes k, U1 and T^-1 once, from
one staircase reduction of A, and keeps the last tower it built, keyed on the
exact bits of A and the tolerance policy, for later calls on that A.  The
Drazin, group, core and core-EP inverses take A's Tower in place of A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .matcore import DEFAULT_TOL, TolerancePolicy, as_matrix, as_square_matrix, readonly

__all__ = [
    "NoGroupInverse",
    "NoCoreInverse",
    "IndexResult",
    "Tower",
    "tower",
    "moore_penrose",
    "index",
    "drazin",
    "group_inverse",
    "core_inverse",
    "core_ep",
]


class NoGroupInverse(ArithmeticError):
    """The matrix has index >= 2, i.e. rank(A) != rank(A^2)."""


class NoCoreInverse(ArithmeticError):
    """The matrix has index >= 2, so the core inverse does not exist."""


@dataclass(frozen=True)
class IndexResult:
    """Drazin index k plus the witnessing rank chain.

    ``rank_chain[j]`` is rank(A^j) for j = 0..k+1, counted on the j-th block
    of the staircase, so no power of A is formed; the chain decreases
    strictly up to position k and then repeats once.  The last entry may be
    certified rather than counted: the SVD of block k proves block k + 1
    nonsingular at the cut (see ``_staircase``), with the count an SVD of it
    would give.
    """

    k: int
    rank_chain: tuple[int, ...]


@dataclass(frozen=True)
class Tower:
    """A, its index (with rank chain), the factors U1, T^-1 of A^o and the policy
    ``tol`` it was built under; arrays are read-only.

    ``u1`` is C-contiguous, or None when k = 0 (U1 = I).  Everything else the
    tower forms when first read and keeps, through ``keep``, for as long as it
    lives: ``o`` = A^o, ``d`` = A^D, ``ad`` = A A^D, the powers ``pow(name, e)``
    of A, A^o, A^D and T^-1, and what its callers name, such as the b0 of
    ``wgi.bc_inverse_check`` and the Z that ``wgi.mwgi`` checked, with that Z's
    products and checks (``wgi._products``, ``wgi._checks``).
    """

    index: IndexResult
    a: np.ndarray
    u1: np.ndarray | None
    tinv: np.ndarray
    tol: TolerancePolicy
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def keep(self, key, make):
        """What make() returns, made at the first read of ``key`` and kept."""
        if key not in self._kept:  # of two threads racing here, the first to store wins
            self._kept.setdefault(key, make())
        return self._kept[key]

    def pow(self, name: str, e: int) -> np.ndarray:
        """X^e for e >= 1 and X the tower's ``a``, ``o``, ``d`` or ``tinv``, formed as
        X^{e-1} X from the kept X^{e-1}: up to e = 3 these are the bits of
        np.linalg.matrix_power(X, e).  At k = 0, A^o is T^-1 and shares its powers."""
        if name == "o" and self.u1 is None:
            name = "tinv"
        x = getattr(self, name)
        if e == 1:
            return x
        return self.keep((name, e), lambda: readonly(self.pow(name, e - 1) @ x))

    def power(self, j: int) -> np.ndarray:
        """A^j; A^0 = I is formed on each read."""
        return self.pow("a", j) if j else readonly(np.eye(len(self.a), dtype=np.complex128))

    @property
    def ak(self) -> np.ndarray:
        return self.power(self.index.k)

    def coords(self, x: np.ndarray) -> np.ndarray:
        """U1* X (X itself when k = 0)."""
        return x if self.u1 is None else self.u1.conj().T @ x

    @property
    def o(self) -> np.ndarray:
        """A^o = U1 T^-1 U1*."""
        if self.u1 is None:
            return self.tinv
        return self.keep("o", lambda: readonly(self.u1 @ self.tinv @ self.u1.conj().T))

    @property
    def d(self) -> np.ndarray:
        """A^D = (A^o)^{k+1} A^k."""
        return self.keep("d", lambda: readonly(self.pow("o", self.index.k + 1) @ self.ak))

    @property
    def ad(self) -> np.ndarray:
        """A A^D."""
        return self.keep("ad", lambda: readonly(self.a @ self.d))


def moore_penrose(a: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values at or below rank_rtol * sigma_max * max(rows, cols) are
    treated as zero, matching the package's rank convention.
    """
    return _pinv(as_matrix(a), tol)


def _pinv(a: np.ndarray, tol: TolerancePolicy) -> np.ndarray:
    """``moore_penrose`` of a matrix already checked as ``as_matrix`` checks one."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((a.shape[1], a.shape[0]), dtype=np.complex128)
    cutoff = tol.rank_rtol * float(s[0]) * max(a.shape)
    inv_s = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return (vh.conj().T * inv_s) @ u.conj().T


def _staircase(
    a: np.ndarray, tol: TolerancePolicy
) -> tuple[IndexResult, np.ndarray | None, np.ndarray]:
    """The index of a square A with its rank chain, U1 and T, by range deflation.

    Staircase reduction (Beelen & Van Dooren, LAA 105, 1988): B_1 = A, and
    while rank(B_j) < rank(B_{j-1}), W holds the first r_j left singular
    vectors of B_j = U diag(s) Vh and B_{j+1} = W* B_j W = diag(s_r) Vh_r W.
    Each r_j is counted against one cut, rank_rtol * sigma_max(A) * n, on a
    unitary compression of A, and equals rank(A^j) in exact arithmetic.  U1 is
    the product of the W factors (None when A is nonsingular, where U1 = I)
    and T the last, nonsingular B.

    The SVD that would only confirm that the rank stopped falling is skipped
    when the one before proves it: B_{j+1} = diag(s_r) C with C = (Vh U)[:r, :r]
    a block of a unitary, so by the CS decomposition (Paige & Wei, LAA 208/209,
    1994) sigma_min(C) = sigma_min(D) with D = (Vh U)[r:, r:], d x d for the
    drop d = p - r, and sigma_min(D) >= |det D| since no singular value of D
    exceeds 1.  When s_r |det D| > 2 cut, every singular value of B_{j+1}
    clears the cut with a margin of one cut, about 1e6 times its O(p eps s_1)
    rounding at the default rank_rtol; r ends the chain and B_{j+1} is T, the
    bits that SVD would have returned.  The margin grows to
    1024 n eps sigma_max(A) under a rank_rtol too small to cover that.  The
    bound holds for any d; the test is made only when d <= r, where the LU
    of D costs less than the SVD of B_{j+1} it replaces.

    An A with ||A||_F <= nil_atol (roundoff, as A^m of a nilpotent A on a
    route) is read as zero; above that floor, scaling A changes nothing.
    """
    n = a.shape[0]
    chain, u1, b = [n], None, a
    u, s, vh = np.linalg.svd(a)
    zero = math.sqrt(s.dot(s)) <= tol.nil_atol  # np.linalg.norm(s), without its wrapper
    cut = np.inf if zero else tol.rank_rtol * float(s[0]) * n
    sure = cut + max(cut, _ROUNDING * n * float(s[0]))  # s_r |det D| above it: nonsingular
    while True:
        chain.append(r := int(np.count_nonzero(s > cut)))
        if r == chain[-2]:
            break
        w = u[:, :r]
        u1, b = (w if u1 is None else u1 @ w), (s[:r, None] * vh[:r]) @ w
        # d <= r only picks the LU of the d x d D over the SVD of the r x r B_{j+1}
        if len(s) - r <= r and s[r - 1] * abs(np.linalg.det(vh[r:] @ u[:, r:])) > sure:
            chain.append(r)
            break
        u, s, vh = np.linalg.svd(b)
    u1 = None if u1 is None else readonly(np.ascontiguousarray(u1))
    return IndexResult(k=len(chain) - 2, rank_chain=tuple(chain)), u1, b


# a staircase step rounds by O(p eps s_1); the certificate's margin is at least this n s_1
_ROUNDING = 1024 * np.finfo(np.float64).eps



def index(a: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL) -> IndexResult:
    """Smallest k >= 0 with rank(A^k) = rank(A^{k+1}), by the staircase (no power of A)."""
    return _staircase(as_square_matrix(a), tol)[0]


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Same shape, memory layout and bit-identical entries (so a signed zero
    or a one-ulp change differs), compared as raw bytes in memory order."""
    return a.shape == b.shape and a.strides == b.strides and a.tobytes("A") == b.tobytes("A")


# (A, tol, tower) of the last tower built, replaced as one tuple: a thread
# that races a rebuild reads the old entry, the new one or None, never a mix.
_last: tuple[np.ndarray, TolerancePolicy, Tower] | None = None


def _kept_tower(a, tol: TolerancePolicy) -> Tower | None:
    """The kept tower if A is a complex128 array of the kept A's bits and layout
    under ``tol``: the kept A is validated, so A needs no copy and no check."""
    last = _last
    if (
        last is not None
        and last[1] == tol
        and isinstance(a, np.ndarray)
        and a.dtype == np.complex128
        and _same_bits(last[0], a)
    ):
        return last[2]
    return None


def _build(a: np.ndarray, tol: TolerancePolicy) -> Tower:
    """The tower of a validated square A, built afresh and kept nowhere: the routes build
    their operands' towers (A^m, A^D, ...) with it, so A's kept tower stays."""
    idx, u1, core = _staircase(a, tol)
    return Tower(index=idx, a=a, u1=u1, tinv=readonly(np.linalg.inv(core)), tol=tol)


def tower(a, tol: TolerancePolicy = DEFAULT_TOL) -> Tower:
    """The spectral tower of A: its index, U1 and T^-1, each computed once.

    Core-EP decomposition A = U [[T, S], [0, N]] U* (Wang, LAA 508, 2016):
    the staircase gives U1, an orthonormal basis of col(A^k), and the
    invertible T = U1* A U1 in k + 1 SVDs of shrinking size, or k when the
    k-th certifies T nonsingular (``_staircase``).  The powers of A,
    A^o = U1 T^-1 U1* and A^D = (A^o)^{k+1} A^k are formed only when first
    read.  For nilpotent A, U1 has no columns and A^o is zero.

    The last tower built is kept with the private copy of A and with ``tol``.
    A call whose A has the same shape, memory layout and bit-identical entries
    (a signed zero or a one-ulp change is a miss) under an equal policy
    returns that tower; any other call drops it before building, so at most
    one tower is alive, and a build that raises keeps nothing.  A Tower passed
    as A comes back as it is if built under ``tol``, else raises ValueError.
    """
    global _last
    if isinstance(a, Tower):
        if a.tol != tol:
            raise ValueError(f"the tower was built under {a.tol}, not under {tol}")
        return a
    t = _kept_tower(a, tol)
    if t is not None:
        return t
    a = as_square_matrix(a)
    last = _last
    if last is not None and last[1] == tol and _same_bits(last[0], a):  # e.g. float64 values
        return last[2]
    _last = None
    t = _build(a, tol)
    _last = (a, tol, t)
    return t


def drazin(a: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Drazin inverse A^D = (A^o)^{k+1} A^k with k the index of A."""
    return tower(a, tol).d


def _index_at_most_one(t: Tower, error: type) -> Tower:
    if t.index.k > 1:
        chain = t.index.rank_chain
        raise error(f"rank(A) = {chain[1]} differs from rank(A^2) = {chain[2]}")
    return t


def group_inverse(a: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Group inverse A^#; requires rank(A) = rank(A^2)."""
    return _index_at_most_one(tower(a, tol), NoGroupInverse).d


def core_inverse(a: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Core inverse A^# A A^+, which is A^o at index <= 1 (Prasad & Mohana, LMA 62, 2014)."""
    return _index_at_most_one(tower(a, tol), NoCoreInverse).o


def core_ep(a: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Core-EP inverse U1 T^-1 U1* (see ``tower``), defined for every square matrix."""
    return tower(a, tol).o
