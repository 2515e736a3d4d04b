from fractions import Fraction

import numpy as np
import pytest

from ginverse import oracle
from ginverse.classical import index
from ginverse.generators import (
    haar_unitary,
    nilpotent_jordan,
    orthogonal_pair,
    rational_with_index,
    with_index,
)
from ginverse.matcore import approx_equal, frobenius


def test_haar_unitary(rng):
    u = haar_unitary(rng, 5)
    assert approx_equal(u @ u.conj().T, np.eye(5))


def test_nilpotent_jordan_index(rng):
    for size, k in [(3, 1), (4, 2), (5, 3), (4, 4)]:
        n = nilpotent_jordan(rng, size, k)
        assert frobenius(np.linalg.matrix_power(n, k)) == 0.0
        if k > 1:
            assert frobenius(np.linalg.matrix_power(n, k - 1)) > 0.0


def test_with_index_hits_requested_index(rng):
    for n in range(2, 7):
        for k in range(0, min(3, n - 1) + 1):
            a = with_index(rng, n, k)
            assert index(a).k == k, (n, k)


def test_with_index_condition_within_cap(rng):
    # the suite assumes invertible cores conditioned well under 1e3
    for _ in range(10):
        a = with_index(rng, 5, 0)
        assert np.linalg.cond(a) < 1e3


def test_orthogonal_pair_products_vanish(rng):
    a, b = orthogonal_pair(rng, 3, 2, 1, 2)
    for product in (a @ b, b @ a, a.conj().T @ b):
        assert frobenius(product) < 1e-12


def test_rational_with_index(rng):
    for trial in range(6):
        n = 2 + trial % 3
        k = min(trial % 3, n - 1)
        a = rational_with_index(rng, n, k)
        assert oracle.exact_index(a) == k
        height = max(
            max(abs(x.re.numerator), x.re.denominator, abs(x.im.numerator), x.im.denominator)
            for row in a.entries
            for x in row
        )
        assert height <= 10


@pytest.mark.parametrize("k", [0, 1])
def test_rational_with_index_one_by_one(k):
    # S is the 1 x 1 identity: no shear has two distinct rows to draw
    a = rational_with_index(np.random.default_rng(k), 1, k)
    assert a.shape == (1, 1)
    assert oracle.exact_index(a) == k


def test_dyadic_with_index_round_trips_and_has_index():
    from ginverse.generators import dyadic_with_index

    rng = np.random.default_rng(5)
    for e_max in (0, 4, 8, 16):
        for trial in range(8):
            n = 2 + trial % 7
            k = min(trial % 4, n)
            a = dyadic_with_index(rng, n, k, e_max)
            image = a.to_complex()
            back = oracle.RationalMatrix.from_rows(
                [[oracle.GaussianRational(Fraction(z.real), Fraction(z.imag)) for z in row]
                 for row in image.tolist()]
            )
            assert back == a, (e_max, n, k)
            assert oracle.exact_index(a) == k, (e_max, n, k)
            # every entry is an integer over a power of two
            assert all(
                x.re.denominator & (x.re.denominator - 1) == 0 and x.im == 0
                for row in a.entries
                for x in row
            )


def test_dyadic_with_index_edges():
    from ginverse.generators import dyadic_with_index

    rng = np.random.default_rng(6)
    assert oracle.exact_index(dyadic_with_index(rng, 1, 0, 3)) == 0
    assert oracle.exact_index(dyadic_with_index(rng, 3, 3, 3)) == 3
    for bad in ((3, 4, 2), (3, -1, 2), (3, 1, -1)):
        with pytest.raises(ValueError):
            dyadic_with_index(rng, *bad)
