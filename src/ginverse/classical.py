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

from .matcore import _COMPLEX128, DEFAULT_TOL, TolerancePolicy, as_matrix, as_square_matrix
from .matcore import readonly

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


@dataclass(frozen=True, eq=False)
class Tower:
    """A, its index (with rank chain), the factors U1, T^-1 of A^o and the policy
    ``tol`` it was built under; arrays are read-only.  Towers compare and hash by
    identity, since their fields are arrays.

    ``u1`` is n x r and C-contiguous, the identity when k = 0 (where T = A and N
    is empty).  Everything else the tower forms when first read and keeps,
    through ``keep``, for as long as it lives: ``o`` = A^o, Z_m = (A^o)^{m+1} A^m
    for 0 <= m <= k only (``z(m)``, A^D for every m >= k), ``g`` = G = T^-(k+1) U1* A^k,
    ``d`` = A^D = Z_k = U1 G, ``ad`` = A A^D, A^0 = I, the powers ``pow(name, e)`` of A,
    A^o, A^D and T^-1, U1* A^j per exponent (``coords(j)``), A^o A^m per m (``oam(m)``,
    the c0 of wgi's (b, c) and outer-inverse checkers), and per weight m one record
    of the Z that ``wgi.mwgi`` checked, with that Z's products and its self-check,
    whether or not it passed (``wgi._CheckedZ``).
    """

    index: IndexResult
    a: np.ndarray
    u1: np.ndarray
    tinv: np.ndarray
    tol: TolerancePolicy
    _kept: dict = field(default_factory=dict, init=False, repr=False)

    def keep(self, key, make):
        """What make() returns, made at the first read of ``key`` and kept."""
        kept = self._kept.get(key)  # no kept value is None
        if kept is None:  # of two threads racing here, the first to store wins
            kept = self._kept.setdefault(key, make())
        return kept

    def pow(self, name: str, e: int) -> np.ndarray:
        """X^e for e >= 1 and X the tower's ``a``, ``o``, ``d`` or ``tinv``, formed as
        X^{e-1} X from the kept X^{e-1}: up to e = 3 these are the bits of
        np.linalg.matrix_power(X, e).  A missing power is filled upward in a loop from
        the highest one kept below it, each kept under (name, exponent), so no exponent
        is too deep.  At k = 0, U1 = I, so A^o and T^-1 hold equal values, each with its
        own powers."""
        if e < 1:
            raise ValueError(f"exponent must be positive, got {e!r}")
        p = self._kept.get((name, e))
        if p is not None:
            return p
        x, j = getattr(self, name), e
        while j > 1 and (name, j) not in self._kept:  # the highest power kept up to e
            j -= 1
        p = self._kept[(name, j)] if j > 1 else x
        if j == e:
            return p

        def step():  # reads p as the loop leaves it: the kept X^{j-1}
            return readonly(p @ x)

        for j in range(j + 1, e + 1):
            p = self.keep((name, j), step)
        return p

    def power(self, j: int) -> np.ndarray:
        """A^j for j >= 0 (``pow`` raises below); A^0 = I is one read-only identity, kept."""
        if j:
            return self.pow("a", j)
        return self.keep(("a", 0), lambda: readonly(np.eye(len(self.a), dtype=np.complex128)))

    def coords(self, j: int) -> np.ndarray:
        """U1* A^j for j >= 0 (A^j's values at k = 0, where U1 = I), kept per exponent."""
        return self.keep(("coords", j), lambda: readonly(self.u1.conj().T @ self.power(j)))

    @property
    def o(self) -> np.ndarray:
        """A^o = U1 T^-1 U1*."""
        return self.keep("o", lambda: readonly(self.u1 @ self.tinv @ self.u1.conj().T))

    def oam(self, m: int) -> np.ndarray:
        """A^o A^m for m >= 0, kept per m."""
        return self.keep(("oam", m), lambda: readonly(self.o @ self.power(m)))

    def z(self, m: int) -> np.ndarray:
        """Z_m = (A^o)^{m+1} A^m for m >= 0: the m-weak group inverse for m >= 1.  From
        m = k on Z_m = A^D, so the weight is read as min(m, k) and every m >= k returns
        the one kept A^D (``d``), U1 G with G the kept ``g``; below k, Z_m is formed as
        U1 (T^-(m+1) (U1* A^m)), since U1* U1 = I, and kept per m."""
        m = min(m, self.index.k)

        def make():
            inner = self.g if m == self.index.k else self.pow("tinv", m + 1) @ self.coords(m)
            return readonly(self.u1 @ inner)

        return self.keep(("z", m), make)

    @property
    def g(self) -> np.ndarray:
        """G = T^-(k+1) U1* A^k, r x n, so that A^D = U1 G and (A A^D)* = G* (A U1)*."""
        k = self.index.k
        return self.keep("g", lambda: readonly(self.pow("tinv", k + 1) @ self.coords(k)))

    @property
    def d(self) -> np.ndarray:
        """A^D = (A^o)^{k+1} A^k, which is Z_k = U1 G (``z``)."""
        return self.z(self.index.k)

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
    cutoff = tol.rank_cut(float(s[0]), max(a.shape))
    inv_s = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return (vh.conj().T * inv_s) @ u.conj().T


def _staircase(a: np.ndarray, tol: TolerancePolicy) -> tuple[IndexResult, np.ndarray, np.ndarray]:
    """The index of a square A with its rank chain, U1 and T, by range deflation.

    Staircase reduction (Beelen & Van Dooren, LAA 105, 1988): B_1 = A, and
    while rank(B_j) < rank(B_{j-1}), W holds the first r_j left singular
    vectors of B_j = U diag(s) Vh and B_{j+1} = W* B_j W = diag(s_r) Vh_r W.
    Each r_j is counted against one cut, rank_rtol * sigma_max(A) * n, on a
    unitary compression of A, and equals rank(A^j) in exact arithmetic.  U1 is
    the product of the W factors, read-only and C-contiguous, and T the last,
    nonsingular B; when A is nonsingular there is no W, U1 = I and T = A.

    The SVD that would only confirm that the rank stopped falling is skipped
    when the one before proves it: B_{j+1} = diag(s_r) C with C = Vh_r W =
    (Vh U)[:r, :r], r x r, a diagonal block of a unitary, so sigma_min(B_{j+1})
    >= s_r sigma_min(C) >= s_r |det C| since no singular value of C exceeds 1.
    By the CS decomposition (Paige & Wei, LAA 208/209, 1994) |det C| = |det D|
    for the other diagonal block D = (Vh U)[r:, r:], d x d for the drop
    d = p - r, so the certificate reads the smaller of the two: D when d <= r,
    C when d > r.  When s_r |det| > 2 cut, every singular value of B_{j+1}
    clears the cut with a margin of one cut, about 1e6 times its O(p eps s_1)
    rounding at the default rank_rtol; r ends the chain and B_{j+1} is T, the
    bits that SVD would have returned.  The margin grows to
    1024 n eps sigma_max(A) under a rank_rtol too small to cover that.

    An A with ||A||_F <= nil_atol (roundoff, as A^m of a nilpotent A on a
    route) is read as zero; above that floor, scaling A changes nothing.
    """
    n = a.shape[0]
    chain, u1, b = [n], None, a
    u, s, vh = np.linalg.svd(a)
    zero = math.sqrt(s.dot(s)) <= tol.nil_atol  # np.linalg.norm(s), without its wrapper
    cut = np.inf if zero else tol.rank_cut(float(s[0]), n)
    sure = cut + max(cut, _ROUNDING * n * float(s[0]))  # s_r |det C| above it: nonsingular
    while True:
        chain.append(r := int(np.count_nonzero(s > cut)))
        if r == chain[-2]:
            break
        w = u[:, :r]
        u1, b = (w if u1 is None else u1 @ w), (s[:r, None] * vh[:r]) @ w
        if r and s[r - 1] * abs(np.linalg.det(_smaller_block(u, vh, r))) > sure:
            chain.append(r)
            break
        u, s, vh = np.linalg.svd(b)
    u1 = np.eye(n, dtype=np.complex128) if u1 is None else np.ascontiguousarray(u1)
    return IndexResult(k=len(chain) - 2, rank_chain=tuple(chain)), readonly(u1), b


# a staircase step rounds by O(p eps s_1); the certificate's margin is at least this n s_1
_ROUNDING = 1024 * np.finfo(np.float64).eps


def _smaller_block(u: np.ndarray, vh: np.ndarray, r: int) -> np.ndarray:
    """The smaller diagonal block of Vh U, whose |det| the certificate reads: the d x d
    D = (Vh U)[r:, r:] when the drop d = p - r is at most r, else the r x r C = Vh_r W."""
    if len(u) - r <= r:
        return vh[r:] @ u[:, r:]
    return vh[:r] @ u[:, :r]


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
    read.  For nonsingular A, U1 = I and T = A; for nilpotent A, U1 has no
    columns and A^o is zero.

    The last tower built is kept with the private copy of A and with ``tol``.
    A call compares its A with that copy once (``_same_bits``): a complex128
    array with no check (so a strided view of A's values misses), any other
    input once validated.  An A of the same shape, memory layout and
    bit-identical entries (a signed zero or a one-ulp change is a miss) under
    an equal policy returns that tower; any other call drops it before
    building, so at most one tower is alive, and a build that raises keeps
    nothing.  A Tower passed as A comes back as it is if built under ``tol``,
    else raises ValueError.
    """
    global _last
    if isinstance(a, Tower):
        if a.tol != tol:
            raise ValueError(f"the tower was built under {a.tol}, not under {tol}")
        return a
    raw = isinstance(a, np.ndarray) and (a.dtype is _COMPLEX128 or a.dtype == _COMPLEX128)
    if not raw:  # validated first, so a float64 array or a list of A's values can hit
        a = as_square_matrix(a)
    last = _last
    if last is not None and (last[1] is tol or last[1] == tol) and _same_bits(last[0], a):
        return last[2]
    if raw:
        a = as_square_matrix(a)
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
