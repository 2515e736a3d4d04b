from fractions import Fraction

import pytest

from ginverse import oracle as o
from ginverse.classical import drazin
from ginverse.generators import rational_with_index
from ginverse.matcore import DEFAULT_TOL, rel_residual

RM = o.RationalMatrix
GR = o.GaussianRational

J2 = RM.from_rows([[0, 1], [0, 0]])
J3 = RM.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
IDEMPOTENT = RM.from_rows([[1, 1], [0, 0]])
BLOCK3 = RM.from_rows([[1, 0, 0], [0, 0, 1], [0, 0, 0]])


def random_rational(rng, rows, cols, span=4, denom=2):
    return RM.from_rows(
        [
            [
                GR(
                    Fraction(int(rng.integers(-span, span + 1)), int(rng.integers(1, denom + 1))),
                    Fraction(int(rng.integers(-span, span + 1))),
                )
                for _ in range(cols)
            ]
            for _ in range(rows)
        ]
    )


class TestGaussianRational:
    def test_arithmetic(self):
        a = GR(Fraction(1, 2), Fraction(1))
        b = GR(Fraction(1, 3), Fraction(-2))
        assert (a + b) == GR(Fraction(5, 6), Fraction(-1))
        assert (a * b).re == Fraction(1, 6) + 2  # (1/2)(1/3) - (1)(-2)
        assert (a / a) == GR(1)

    def test_parse(self):
        assert GR.parse("-3/4", "1") == GR(Fraction(-3, 4), Fraction(1))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GR(1) / GR()

    def test_conjugate(self):
        assert GR(1, 2).conjugate() == GR(1, -2)


class TestExactMP:
    def test_diagonal(self):
        got = o.exact_mp(RM.from_rows([[2, 0], [0, 0]]))
        assert got == RM.from_rows([[Fraction(1, 2), 0], [0, 0]])

    def test_rank_one(self):
        # the oracle value itself: Penrose equations are verified inside
        got = o.exact_mp(RM.from_rows([[1, 1], [1, 1]]))
        q = Fraction(1, 4)
        assert got == RM.from_rows([[q, q], [q, q]])

    def test_unitary_scalar(self):
        got = o.exact_mp(RM.from_rows([[GR(0, 1)]]))
        assert got == RM.from_rows([[GR(0, -1)]])

    def test_zero(self):
        assert o.exact_mp(RM.zeros(2, 3)) == RM.zeros(3, 2)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 4), (5, 5), (4, 3)])
    def test_penrose_equations_random(self, rng, shape):
        # exact_mp raises internally if any Penrose equation fails; also
        # confirm the key ones here explicitly
        a = random_rational(rng, *shape)
        x = o.exact_mp(a)
        assert a @ x @ a == a
        assert x @ a @ x == x


class TestExactDrazin:
    def test_invertible_gives_inverse(self, rng):
        while True:
            a = random_rational(rng, 3, 3)
            if o.rank(a) == 3:
                break
        assert o.exact_drazin(a) == o.inverse(a)

    def test_nilpotent_chain_terminates_at_zero(self):
        assert o.exact_drazin(J3) == RM.zeros(3, 3)

    def test_idempotent(self):
        assert o.exact_drazin(IDEMPOTENT) == IDEMPOTENT

    def test_commutes_and_agrees_with_float(self, rng):
        for trial in range(8):
            n = 2 + trial % 3
            k = min(trial % 3, n - 1)
            a = rational_with_index(rng, n, k)
            d = o.exact_drazin(a)
            assert a @ d == d @ a
            assert rel_residual(drazin(a.to_complex()), d.to_complex()) <= DEFAULT_TOL.eq_rtol


class TestExactIndex:
    def test_values(self):
        assert o.exact_index(RM.identity(2)) == 0
        assert o.exact_index(J2) == 2
        assert o.exact_index(BLOCK3) == 2


class TestExactCoreEP:
    def test_identity(self):
        assert o.exact_core_ep(RM.identity(2)) == RM.identity(2)

    def test_nilpotent(self):
        assert o.exact_core_ep(J2) == RM.zeros(2, 2)

    def test_block_matrix(self):
        assert o.exact_core_ep(BLOCK3) == RM.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]])


class TestExactMwgi:
    def test_identity(self):
        assert o.exact_mwgi(RM.identity(2), 2) == RM.identity(2)

    def test_nilpotent(self):
        assert o.exact_mwgi(J2, 1) == RM.zeros(2, 2)

    def test_block_matrix(self):
        expected = RM.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
        assert o.exact_mwgi(BLOCK3, 2) == expected

    def test_m_validation(self):
        with pytest.raises(ValueError):
            o.exact_mwgi(RM.identity(2), 0)


class TestCertify:
    def test_identity_all_zero(self):
        report = o.certify(RM.identity(2), 1)
        assert report.overall
        assert all(c.residual == 0.0 for c in report.checks.values())

    def test_block_matrix_all_zero(self):
        report = o.certify(BLOCK3, 1)
        assert report.overall

    def test_corrupted_candidate_caught(self):
        z = o.exact_mwgi(BLOCK3, 1)
        rows = [list(r) for r in z.entries]
        rows[0][0] = rows[0][0] + GR(1)
        report = o.certify(BLOCK3, 1, z=RM.from_rows(rows))
        assert not report.checks["ax2"].passed
        assert report.checks["ax2"].residual > 0.0

    def test_random_rational_corpus(self, rng):
        for trial in range(6):
            n = 2 + trial % 3
            k = min(trial % 3, n - 1)
            a = rational_with_index(rng, n, k, halves=trial % 2 == 0)
            report = o.certify(a, 1 + trial % 3)
            assert report.overall, report.to_dict()


class TestHeightGuard:
    def test_overflow_raised(self):
        a = RM.from_rows([[GR(Fraction(2**40, 3), 0), 1], [1, GR(Fraction(1, 2**40), 0)]])
        with pytest.raises(o.HeightOverflow):
            o.exact_mp(a, max_bits=32)

    def test_generous_bound_succeeds(self):
        a = RM.from_rows([[GR(Fraction(2**40, 3), 0), 1], [1, GR(Fraction(1, 2**40), 0)]])
        o.exact_mp(a, max_bits=4096)


class TestRationalJson:
    def test_exact_roundtrip(self):
        a = RM.from_rows([[GR(Fraction(1, 3), Fraction(-2, 7)), 1], [0, GR(0, Fraction(5))]])
        back = RM.from_json(a.to_json())
        assert back == a  # exact, including 1/3 which no float can hold

    def test_bad_entry_count(self):
        with pytest.raises(ValueError):
            RM.from_json({"rows": 2, "cols": 2, "entries": [["1", "0"]]})

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            RM.from_json({"rows": 1, "cols": 1, "entries": [["1/0", "0"]]})


class TestAgainstSympy:
    """Third-opinion cross-check with an unrelated exact implementation."""

    @staticmethod
    def _to_sympy(a):
        sp = pytest.importorskip("sympy")
        return sp.Matrix(
            [
                [
                    sp.Rational(x.re.numerator, x.re.denominator)
                    + sp.Rational(x.im.numerator, x.im.denominator) * sp.I
                    for x in row
                ]
                for row in a.entries
            ]
        )

    def test_pseudoinverse_and_rank(self, rng):
        sp = pytest.importorskip("sympy")
        for trial in range(6):
            n = 2 + trial % 2
            a = rational_with_index(rng, n, min(trial % 3, n - 1), halves=trial % 2 == 0)
            mine = self._to_sympy(o.exact_mp(a))
            theirs = self._to_sympy(a).pinv()
            assert sp.simplify(mine - theirs) == sp.zeros(n, n)
            assert o.rank(a) == self._to_sympy(a).rank()


class TestExactRank:
    def test_zero(self):
        assert o.rank(RM.zeros(3, 3)) == 0

    def test_identity(self):
        assert o.rank(RM.identity(4)) == 4

    def test_rank_one(self):
        assert o.rank(RM.from_rows([[1, 1], [1, 1]])) == 1

    def test_no_tolerance_in_oracle(self):
        # a matrix that floating point would call rank one
        eps = Fraction(1, 10**30)
        a = RM.from_rows([[1, 1], [1, GR(1 + eps)]])
        assert o.rank(a) == 2


class TestOneExactTowerPerCall:
    def test_certify_index_and_drazin_counts(self, monkeypatch):
        # certify builds the exact parts of (A, m), (A^m, 1) and (A, m + 1)
        counts = {"index": 0, "chain": 0}
        exact_index, drazin_and_index = o.exact_index, o._drazin_and_index

        def counting_index(a):
            counts["index"] += 1
            return exact_index(a)

        def counting_chain(a, max_bits):
            counts["chain"] += 1
            return drazin_and_index(a, max_bits)

        monkeypatch.setattr(o, "exact_index", counting_index)
        monkeypatch.setattr(o, "_drazin_and_index", counting_chain)
        assert o.certify(BLOCK3, 2).overall
        assert counts == {"index": 3, "chain": 3}
