"""Random matrix constructions with known index and bounded conditioning.

Test matrices are built as P diag(C, N) P^{-1} with C invertible and N
nilpotent of prescribed Jordan structure, so the true index is known by
construction.  Singular values of C and P are drawn from narrow ranges:
ill-conditioned cores make the package-wide equality tolerance unreachable
in double precision and would mask real bugs rather than reveal them.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .oracle import GaussianRational, RationalMatrix, inverse as exact_inverse, rank as exact_rank

__all__ = [
    "haar_unitary",
    "conditioned_matrix",
    "nilpotent_jordan",
    "with_index",
    "orthogonal_pair",
    "rational_with_index",
    "dyadic_with_index",
]

# Core singular values within [1/2, 2] keep condition numbers of ninth powers
# around 1e5, comfortably inside the 1e3 per-factor cap the fuzz suite assumes.
CORE_SIGMA = (0.5, 2.0)
BASIS_SIGMA = (0.7, 1.4)
# Draws the exact generators reject before they give up with RuntimeError.
_MAX_ATTEMPTS = 1000


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def conditioned_matrix(
    rng: np.random.Generator,
    n: int,
    sigma: tuple[float, float] = CORE_SIGMA,
) -> np.ndarray:
    """Random complex matrix with singular values inside the given range."""
    u = haar_unitary(rng, n)
    v = haar_unitary(rng, n)
    s = np.exp(rng.uniform(np.log(sigma[0]), np.log(sigma[1]), n))
    return (u * s) @ v


def nilpotent_jordan(rng: np.random.Generator, size: int, k: int) -> np.ndarray:
    """Nilpotent matrix of the given size whose largest Jordan block is k.

    Built as one block of size k plus randomly sized blocks of at most k,
    so the nilpotency index is exactly k.
    """
    if not 1 <= k <= size:
        raise ValueError(f"need 1 <= k <= size, got k={k}, size={size}")
    sizes = [k]
    remaining = size - k
    while remaining > 0:
        block = int(rng.integers(1, min(k, remaining) + 1))
        sizes.append(block)
        remaining -= block
    n = np.zeros((size, size), dtype=np.complex128)
    offset = 0
    for block in sizes:
        for i in range(block - 1):
            n[offset + i, offset + i + 1] = 1.0
        offset += block
    return n


def _core_size(rng: np.random.Generator, n: int, k: int) -> int:
    """Size of the invertible core of an n x n matrix of index k: n at k = 0, none at
    k = n, else uniform in 1..n - k."""
    return n if k == 0 else 0 if k == n else int(rng.integers(1, n - k + 1))


def with_index(
    rng: np.random.Generator,
    n: int,
    k: int,
    core_sigma: tuple[float, float] = CORE_SIGMA,
) -> np.ndarray:
    """Random n x n complex matrix whose Drazin index is exactly k."""
    if k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    core_size = _core_size(rng, n, k)
    if core_size == n:
        return conditioned_matrix(rng, n, core_sigma)
    blocks = np.zeros((n, n), dtype=np.complex128)
    if core_size:
        blocks[:core_size, :core_size] = conditioned_matrix(rng, core_size, core_sigma)
    blocks[core_size:, core_size:] = nilpotent_jordan(rng, n - core_size, k)
    p = conditioned_matrix(rng, n, BASIS_SIGMA)
    return p @ blocks @ np.linalg.inv(p)


def orthogonal_pair(
    rng: np.random.Generator,
    n1: int,
    n2: int,
    k1: int,
    k2: int,
) -> tuple[np.ndarray, np.ndarray]:
    """A pair with AB = BA = A*B = 0, built from disjoint blocks of one unitary frame."""
    n = n1 + n2
    u = haar_unitary(rng, n)
    da = np.zeros((n, n), dtype=np.complex128)
    db = np.zeros((n, n), dtype=np.complex128)
    da[:n1, :n1] = with_index(rng, n1, k1)
    db[n1:, n1:] = with_index(rng, n2, k2)
    uh = u.conj().T
    return u @ da @ uh, u @ db @ uh


def _random_gaussian_integer_matrix(
    rng: np.random.Generator, n: int, span: int, halves: bool
) -> RationalMatrix:
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            re = Fraction(int(rng.integers(-span, span + 1)))
            im = Fraction(int(rng.integers(-span, span + 1)))
            if halves and rng.integers(0, 4) == 0:
                re = re / 2
            row.append(GaussianRational(re, im))
        rows.append(row)
    return RationalMatrix.from_rows(rows)


def _unimodular(rng: np.random.Generator, n: int, shears: int) -> RationalMatrix:
    """Integer matrix of determinant +-1: a product of shears and row swaps."""
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(shears):
        i, j = rng.choice(n, size=2, replace=False)
        c = int(rng.choice([-1, 1]))
        for col in range(n):
            m[i][col] += c * m[j][col]
    if n > 1 and rng.integers(0, 2):
        i, j = rng.choice(n, size=2, replace=False)
        m[i], m[j] = m[j], m[i]
    return RationalMatrix.from_rows(
        [[GaussianRational(x) for x in row] for row in m]
    )


def rational_with_index(
    rng: np.random.Generator,
    n: int,
    k: int,
    max_entry: int = 10,
    halves: bool = False,
) -> RationalMatrix:
    """Gaussian-rational matrix of exact index k with entry height at most max_entry.

    Constructed as S diag(C, N) S^{-1} with S unimodular (so no denominators
    enter beyond those already in C) and rejected until every numerator and
    denominator is bounded by max_entry.
    """
    if k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    for _ in range(_MAX_ATTEMPTS):
        core_size = _core_size(rng, n, k)
        core = _random_gaussian_integer_matrix(rng, core_size, 2, halves) if core_size else None
        if core is not None and exact_rank(core) != core_size:
            continue
        a = _similar_blocks(rng, n, k, core)
        parts = (part for row in a.entries for x in row for part in (x.re, x.im))
        if max(max(abs(p.numerator), p.denominator) for p in parts) <= max_entry:
            return a
    raise RuntimeError(
        f"no matrix with entry height <= {max_entry} found in {_MAX_ATTEMPTS} attempts"
    )


def _similar_blocks(rng: np.random.Generator, n: int, k: int, core) -> RationalMatrix:
    """S diag(C, N) S^-1 for a core C (None for none), N = ``nilpotent_jordan`` of index k
    on the rest (none when C fills n) and S of ``_shears``, drawn in that order."""
    rows = [[GaussianRational() for _ in range(n)] for _ in range(n)]
    core_size = 0 if core is None else core.rows
    for i in range(core_size):
        rows[i][:core_size] = core.entries[i]
    if core_size < n:
        nil = nilpotent_jordan(rng, n - core_size, k).real.astype(int).tolist()
        for i, row in enumerate(nil, core_size):
            rows[i][core_size:] = [GaussianRational(x) for x in row]
    s = _shears(rng, n)
    return s @ RationalMatrix.from_rows(rows) @ exact_inverse(s)


def _shears(rng: np.random.Generator, n: int) -> RationalMatrix:
    """A unimodular integer matrix of 1..n shears (the identity when n = 1)."""
    return _unimodular(rng, n, shears=int(rng.integers(1, n + 1)) if n > 1 else 0)


def dyadic_with_index(rng: np.random.Generator, n: int, k: int, e_max: int) -> RationalMatrix:
    """Real dyadic matrix S diag(C, N) S^{-1} of exact index k whose float image is exact.

    S is unimodular, made of 1..n integer shears, and N is ``nilpotent_jordan``
    of index k.  The core C = G diag(2^-e_1, ..., 2^-e_r) H has unimodular G
    and H and each e_i uniform in 0..e_max, so its singular values spread over
    about 2^e_max; the core size r is uniform in 1..n - k (n at k = 0, none at
    k = n).  Every entry is an integer over a power of two, and a draw is
    rejected until ``to_complex`` holds each one exactly.
    """
    if k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if e_max < 0:
        raise ValueError(f"need e_max >= 0, got {e_max}")
    for _ in range(_MAX_ATTEMPTS):
        core_size, core = _core_size(rng, n, k), None
        if core_size:
            g, h = _shears(rng, core_size), _shears(rng, core_size)
            scale = [[GaussianRational() for _ in range(core_size)] for _ in range(core_size)]
            for i, e in enumerate(rng.integers(0, e_max + 1, size=core_size)):
                scale[i][i] = GaussianRational(Fraction(1, 2 ** int(e)))
            core = g @ RationalMatrix.from_rows(scale) @ h
        a = _similar_blocks(rng, n, k, core)
        image = a.to_complex().ravel().tolist()
        exact = (GaussianRational(Fraction(z.real), Fraction(z.imag)) for z in image)
        if all(x == y for x, y in zip(exact, (x for row in a.entries for x in row))):
            return a
    raise RuntimeError(f"no exactly representable draw found in {_MAX_ATTEMPTS} attempts")
