"""The four benchmark workloads: how each builds its inputs and what one op is.

Every input is built here from the seed, with numpy and ``fractions`` only,
never with ``ginverse.generators``: a later change to the generators cannot
silently change a workload.  The program receives only the finished
matrices.  Op ``i`` of a run draws from its own generator
``default_rng([seed, stream, i])``, so the same seed gives the same inputs,
every op gets a distinct matrix, and the warm-up op and the traced run's
untraced reference pass use streams of their own, outside the timed set.

Import this module after ``env.use_source_tree()``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from ginverse import eqsolve, oracle, wgi
from ginverse.matcore import DEFAULT_TOL, approx_equal, rel_residual

from check import satisfies_definition

STREAM_TIMED = 0
STREAM_REFERENCE = 1
STREAM_WARMUP = 2

WELL_SIGMA = (0.5, 2.0)
ILL_SIGMA = (0.1, 10.0)
BASIS_SIGMA = (0.7, 1.4)


@dataclass(frozen=True)
class Op:
    """One op's input: A (complex128), its index k by construction, and m.

    ``extra`` holds the crosscheck's (B, Y) or the exact workload's
    ``RationalMatrix``; for the exact workload ``a`` is the float image of
    the rational input, computed here from its fractions.
    """

    index: int
    a: np.ndarray
    k: int
    m: int
    extra: tuple = field(default=())


# ---------------------------------------------------------------- float inputs


def _haar(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _conditioned(rng: np.random.Generator, n: int, sigma: tuple[float, float]) -> np.ndarray:
    """U diag(s) V with Haar U, V and singular values log-uniform in sigma."""
    s = np.exp(rng.uniform(np.log(sigma[0]), np.log(sigma[1]), n))
    return (_haar(rng, n) * s) @ _haar(rng, n)


def _jordan_sizes(rng: np.random.Generator, size: int, k: int) -> list[int]:
    """Nilpotent block sizes summing to size: one block of k, the rest at most k."""
    sizes = [k]
    remaining = size - k
    while remaining > 0:
        block = int(rng.integers(1, min(k, remaining) + 1))
        sizes.append(block)
        remaining -= block
    return sizes


def _core_size(rng: np.random.Generator, n: int, k: int) -> int:
    if k == 0:
        return n
    if k == n:
        return 0
    return int(rng.integers(1, n - k + 1))


def float_with_index(
    rng: np.random.Generator, n: int, k: int, core_sigma: tuple[float, float]
) -> np.ndarray:
    """P diag(C, N) P^{-1}: C with singular values in core_sigma, N nilpotent of index k."""
    core = _core_size(rng, n, k)
    if core == n:
        return _conditioned(rng, n, core_sigma)
    blocks = np.zeros((n, n), dtype=np.complex128)
    if core:
        blocks[:core, :core] = _conditioned(rng, core, core_sigma)
    offset = core
    for size in _jordan_sizes(rng, n - core, k):
        for i in range(size - 1):
            blocks[offset + i, offset + i + 1] = 1.0
        offset += size
    p = _conditioned(rng, n, BASIS_SIGMA)
    return p @ blocks @ np.linalg.inv(p)


# ------------------------------------------------------------- rational inputs

# A Gaussian rational here is a pair (re, im) of Fractions.
_ZERO = (Fraction(0), Fraction(0))


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _det(rows) -> tuple[Fraction, Fraction]:
    """Leibniz determinant; the cores are at most 4 x 4."""
    n = len(rows)
    total = _ZERO
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (Fraction(-1 if inversions % 2 else 1), Fraction(0))
        for i, j in enumerate(perm):
            term = _cmul(term, rows[i][j])
        total = (total[0] + term[0], total[1] + term[1])
    return total


def _height(rows) -> int:
    return max(
        max(abs(x.numerator), x.denominator) for row in rows for pair in row for x in pair
    )


def rational_with_index(
    rng: np.random.Generator, n: int, k: int, halves: bool, max_entry: int = 10
) -> list[list[tuple[Fraction, Fraction]]]:
    """S diag(C, N) S^{-1} with entry height at most max_entry.

    C is a nonsingular Gaussian-integer core with parts in [-2, 2] (real
    parts halved with probability 1/4 when ``halves``), N is nilpotent with
    largest Jordan block k, and S is a product of integer shears, so
    S^{-1} is the inverse shears in reverse order and no elimination is
    needed.  Candidates above the height bound are drawn again.
    """
    while True:
        core = _core_size(rng, n, k)
        rows = [[_ZERO] * n for _ in range(n)]
        if core:
            block = []
            for _ in range(core):
                row = []
                for _ in range(core):
                    re = Fraction(int(rng.integers(-2, 3)))
                    im = Fraction(int(rng.integers(-2, 3)))
                    if halves and rng.integers(0, 4) == 0:
                        re /= 2
                    row.append((re, im))
                block.append(row)
            if _det(block) == _ZERO:
                continue
            for i in range(core):
                rows[i][:core] = block[i]
        offset = core
        if core < n:
            for size in _jordan_sizes(rng, n - core, k):
                for i in range(size - 1):
                    rows[offset + i][offset + i + 1] = (Fraction(1), Fraction(0))
                offset += size
        shears = []
        for _ in range(int(rng.integers(1, n + 1))):
            i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
            shears.append((i, j, int(rng.choice([-1, 1]))))
        # A = E_1 (E_2 ( ... ) E_2^{-1}) E_1^{-1} with E = I + c e_i e_j^T:
        # row i += c row j, then column j -= c column i
        for i, j, c in reversed(shears):
            rows[i] = [(x[0] + c * y[0], x[1] + c * y[1]) for x, y in zip(rows[i], rows[j])]
            for row in rows:
                row[j] = (row[j][0] - c * row[i][0], row[j][1] - c * row[i][1])
        if _height(rows) <= max_entry:
            return rows


def rational_to_complex(rows) -> np.ndarray:
    return np.array([[complex(float(re), float(im)) for re, im in row] for row in rows])


def oracle_to_complex(z: oracle.RationalMatrix) -> np.ndarray:
    """Float image of the oracle's exact result, read from its public entries."""
    return rational_to_complex([[(x.re, x.im) for x in row] for row in z.entries])


# ---------------------------------------------------------------------- inputs


def _rng(seed: int, stream: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, i])


def make_dense(seed: int, stream: int, i: int) -> Op:
    k = 1 + i % 3
    return Op(i, float_with_index(_rng(seed, stream, i), 200, k, WELL_SIGMA), k, 2)


def make_illcond(seed: int, stream: int, i: int) -> Op:
    k = 1 + i % 3
    return Op(i, float_with_index(_rng(seed, stream, i), 12, k, ILL_SIGMA), k, 2)


def make_crosscheck(seed: int, stream: int, i: int) -> Op:
    rng = _rng(seed, stream, i)
    n = 2 + i % 5
    k = min(i % 4, n - 1)
    a = float_with_index(rng, n, k, WELL_SIGMA)
    b = _conditioned(rng, n, WELL_SIGMA)
    y = _conditioned(rng, n, WELL_SIGMA)
    return Op(i, a, k, 1 + i % 3, (b, y))


def make_exact(seed: int, stream: int, i: int) -> Op:
    n = 2 + i % 3
    k = min(i % 3, n - 1)
    rows = rational_with_index(_rng(seed, stream, i), n, k, halves=i % 4 == 0)
    exact = oracle.RationalMatrix.from_rows(
        [[oracle.GaussianRational(re, im) for re, im in row] for row in rows]
    )
    return Op(i, rational_to_complex(rows), k, 1 + i % 3, (exact,))


# ------------------------------------------------------------------------- ops
# An op returns the program's own verdict and the results the independent
# check examines.  Every call is made whatever the earlier ones returned, so
# the work per op does not depend on the verdict.


def run_mwgi_verified(op: Op) -> tuple[bool, tuple]:
    z = wgi.mwgi(op.a, op.m).Z
    report = wgi.verify_definition(op.a, z, op.m)
    return report.overall, (z,)


def run_crosscheck(op: Op) -> tuple[bool, tuple]:
    """The fuzz trial battery, through public calls only."""
    a, m = op.a, op.m
    z = wgi.mwgi(a, m).Z
    routes = [
        wgi.mwgi_via_power(a, m),
        wgi.mwgi_normal_equation(a, m),
        wgi.mwgi_drazin_solve(a, m),
        wgi.mwgi_core_of_drazin(a, m),
        wgi.mwgi_core_chain(a, m),
    ]
    if m >= 2:
        routes.append(wgi.mwgi_regular_lift(a, m - 1))
        routes.append(wgi.mwgi_step(a, wgi.mwgi(a, m - 1).Z))
    reports = [
        wgi.verify_definition(a, z, m),
        wgi.group_decomposition(a, m).verify(a, m),
        wgi.polar_idempotent(a, m).verify(a, m),
        wgi.b_characterization(a, m),
        wgi.bc_inverse_check(a, m),
        wgi.outer_inverse_subspaces(a, m),
    ]
    b, y = op.extra
    solved = eqsolve.solve_general(a, b, m, y)
    equation = eqsolve.residual(a, b, m, solved.X)
    agree = [approx_equal(z, r) for r in routes]
    verdict = all(agree) and all(r.overall for r in reports) and equation <= DEFAULT_TOL.eq_rtol
    return verdict, (z,)


def run_exact(op: Op) -> tuple[bool, tuple]:
    (exact_a,) = op.extra
    report = oracle.certify(exact_a, op.m)
    z_exact = oracle.exact_mwgi(exact_a, op.m)
    z_float = wgi.mwgi(exact_a.to_complex(), op.m).Z
    zero = all(c.residual == 0.0 for c in report.checks.values())
    close = rel_residual(z_float, z_exact.to_complex()) <= DEFAULT_TOL.eq_rtol
    return report.overall and zero and close, (z_float, z_exact)


def independent_check(op: Op, outputs: tuple) -> bool:
    """Every result of the op meets the defining equations of the m-WGI of op.a."""
    for z in outputs:
        if isinstance(z, oracle.RationalMatrix):
            z = oracle_to_complex(z)
        if not satisfies_definition(op.a, z, op.k, op.m):
            return False
    return True


# ------------------------------------------------------------------ yardsticks
# A yardstick is a fixed piece of numpy or Python work that the program never
# runs.  It is timed just before every op, and each op's latency is scaled by
# (nominal time / the yardstick's time around that op).  The speed of the
# shared machine drifts by up to 1.6x over seconds to minutes, and the
# yardstick drifts with it, so the scaled times read as if the machine ran
# at the speed where the yardstick takes its nominal time.  A change to the
# program does not touch the yardstick, so it moves the scaled times in full.
# Each workload uses the yardstick nearest to where its time goes.

_YARD_RNG = np.random.default_rng(0)
_YARD_LAPACK = (_YARD_RNG.standard_normal((200, 200))
                + 1j * _YARD_RNG.standard_normal((200, 200)))
_YARD_SMALL = [_YARD_RNG.standard_normal((n, n)) + 1j * _YARD_RNG.standard_normal((n, n))
               for n in (4, 8, 12)]
_YARD_FRACTIONS = [[Fraction(int(x), 7) for x in _YARD_RNG.integers(-20, 20, 4)]
                   for _ in range(4)]


def _yard_lapack() -> None:
    """Singular values of one 200 x 200 complex matrix."""
    np.linalg.svd(_YARD_LAPACK, compute_uv=False)


def _yard_small() -> None:
    """Small numpy calls and interpreter work, like an op on tiny matrices."""
    for a in _YARD_SMALL:
        np.linalg.svd(a)
        np.linalg.matrix_power(a, 3)
        np.linalg.norm(a @ a)
        total = 0
        for i in range(300):
            total += i


def _yard_fractions() -> None:
    """Products of 4 x 4 matrices of Fractions."""
    for _ in range(3):
        [[sum(x * y for x, y in zip(row, col)) for col in zip(*_YARD_FRACTIONS)]
         for row in _YARD_FRACTIONS]


@dataclass(frozen=True)
class Yardstick:
    """``run`` does the fixed work; ``nominal_ms`` is about its time on the
    machine where the benchmark was defined, in that machine's faster state."""

    run: Callable[[], None]
    nominal_ms: float


YARD_LAPACK = Yardstick(_yard_lapack, nominal_ms=6.0)
YARD_SMALL = Yardstick(_yard_small, nominal_ms=0.2)
YARD_FRACTIONS = Yardstick(_yard_fractions, nominal_ms=0.75)


# -------------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    """A named input family and op.

    ``ops`` is the number of timed ops of an untraced run and ``trace_ops``
    that of a traced run; both are whole periods of the op's (n, k, m)
    schedule.  The op set is fixed by the seed alone, so two runs with one
    seed attempt the same ops, and a faster program finishes its run sooner.
    At the commit that defined the benchmark, on a shared 2-vCPU machine
    with one BLAS thread, an untraced run takes about 20 s on ``dense``,
    ``crosscheck`` and ``exact``.  ``illcond`` runs about 10,000 ops (about
    35 s), because its ``pass_share`` is a share of ops and its seed-to-seed
    spread shrinks only with the op count.
    ``yardstick`` scales the op latencies (see above).
    ``must_pass`` says every op should pass; where it is false, a loud
    failure (FAIL verdict or exception) is an accepted outcome, and only a
    silently wrong answer counts as failed.
    """

    name: str
    make: Callable[[int, int, int], Op]
    run: Callable[[Op], tuple[bool, tuple]]
    ops: int
    trace_ops: int
    yardstick: Yardstick
    must_pass: bool


# schedule periods: dense and illcond 3 (k), crosscheck 60 (n, k, m), exact 12 (n, k, m, halves)
WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense", make_dense, run_mwgi_verified,
                 ops=3 * 14, trace_ops=3 * 10, yardstick=YARD_LAPACK, must_pass=True),
        Workload("crosscheck", make_crosscheck, run_crosscheck,
                 ops=60 * 25, trace_ops=60 * 2, yardstick=YARD_SMALL,
                 must_pass=True),
        Workload("illcond", make_illcond, run_mwgi_verified,
                 ops=3 * 3334, trace_ops=3 * 200, yardstick=YARD_SMALL,
                 must_pass=False),
        Workload("exact", make_exact, run_exact,
                 ops=12 * 5, trace_ops=12 * 2, yardstick=YARD_FRACTIONS,
                 must_pass=True),
    )
}
