"""The exact referee: mwgi's float Z and its verdict, judged against the oracle's exact Z.

Per row, 60 dyadic matrices of order 8 and index 1 + i mod 3 (``dyadic_with_index``, one
``default_rng(5)`` per row), whose core singular values spread over about 2^e_max and
whose float images are exact.  A float Z is right iff ||Z - Z_exact||_F <= 1e-8
||Z_exact||_F, with Z_exact = ``exact_mwgi(A, m)``.  Its verdict is pass or FAIL by
``verify_definition``, or raise when ``mwgi`` raises; then Z is the tower's Z
(``Tower.z``), the one that ``mwgi`` checked.  The counts per verdict and rightness are
pinned: a change of Z's formula or of a check moves them, and shows by how much.  So are
the polar checker's flags on each row's Z (``POLAR``), per class of Z: right or wrong,
and pass or loud (FAIL or raise).
"""

import functools

import numpy as np
import pytest

from ginverse import oracle
from ginverse.classical import tower
from ginverse.generators import dyadic_with_index
from ginverse.wgi import RepresentationMismatch, mwgi, polar_idempotent, verify_definition

TRIALS, N, E_MAX = 60, 8, (0, 4, 8, 12, 16)
# (verdict, right) in the column order of COUNTS
CELLS = [(verdict, right) for verdict in ("pass", "FAIL", "raise") for right in (True, False)]
# pass-right, pass-wrong, FAIL-right, FAIL-wrong, raise-right, raise-wrong per (e_max, m)
COUNTS = {
    (0, 2): (60, 0, 0, 0, 0, 0),
    (4, 2): (60, 0, 0, 0, 0, 0),
    (8, 2): (50, 3, 5, 1, 1, 0),
    (12, 2): (39, 1, 8, 2, 6, 4),
    (16, 2): (23, 2, 16, 4, 4, 11),
    (0, 5): (60, 0, 0, 0, 0, 0),
    (4, 5): (59, 0, 0, 0, 1, 0),
    (8, 5): (50, 0, 5, 0, 3, 2),
    (12, 5): (37, 0, 7, 1, 8, 7),
    (16, 5): (23, 0, 15, 2, 6, 14),
}
# Z of each class whose ``PolarData.verify`` fails, per (e_max, m): right-pass, right-loud,
# wrong-pass, wrong-loud, where loud is FAIL or raise
POLAR = {
    (0, 2): (0, 0, 0, 0),
    (4, 2): (0, 0, 0, 0),
    (8, 2): (3, 2, 0, 1),
    (12, 2): (4, 9, 0, 6),
    (16, 2): (3, 10, 0, 15),
    (0, 5): (1, 0, 0, 0),
    (4, 5): (1, 1, 0, 0),
    (8, 5): (3, 3, 0, 2),
    (12, 5): (2, 10, 0, 8),
    (16, 5): (2, 11, 0, 16),
}


@functools.cache
def _row(e_max: int, m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The six counts of one row and its four polar counts, after checking that every
    float index is exact."""
    rng = np.random.default_rng(5)
    counts = dict.fromkeys(CELLS, 0)
    polar = {(right, loud): 0 for right in (True, False) for loud in (False, True)}
    for i in range(TRIALS):
        k = 1 + i % 3
        exact = dyadic_with_index(rng, N, k, e_max)
        t = tower(exact.to_complex())
        assert t.index.k == k, (e_max, i)
        try:
            z = mwgi(t, m).Z
            verdict = "pass" if verify_definition(t, z, m).overall else "FAIL"
        except RepresentationMismatch:
            z, verdict = t.z(m), "raise"
        z_exact = oracle.exact_mwgi(exact, m, max_bits=2**20).to_complex()
        right = bool(np.linalg.norm(z - z_exact) <= 1e-8 * np.linalg.norm(z_exact))
        counts[verdict, right] += 1
        polar[right, verdict != "pass"] += not polar_idempotent(t, m, z=z).verify(t, m).overall
    return tuple(counts[cell] for cell in CELLS), tuple(polar.values())


def referee(e_max: int, m: int) -> tuple[int, ...]:
    """The six counts of one row."""
    return _row(e_max, m)[0]


@pytest.mark.parametrize("e_max, m", COUNTS)
def test_counts(e_max, m):
    assert referee(e_max, m) == COUNTS[e_max, m]


@pytest.mark.parametrize(
    "m",
    [
        pytest.param(
            2,
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="at m = 2 some wrong Z pass every check (ROADMAP items 6 and 21)",
            ),
        ),
        5,
    ],
)
def test_no_wrong_z_passes(m):
    pass_wrong = CELLS.index(("pass", False))
    assert [referee(e_max, m)[pass_wrong] for e_max in E_MAX] == [0] * len(E_MAX)


@pytest.mark.parametrize("e_max, m", POLAR)
def test_polar_flags(e_max, m):
    assert _row(e_max, m)[1] == POLAR[e_max, m]
