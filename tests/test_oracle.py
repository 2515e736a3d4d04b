import json
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from ginverse import eqsolve, wgi
from ginverse import oracle as o
from ginverse.classical import drazin, tower
from ginverse.generators import dyadic_with_index, rational_with_index
from ginverse.matcore import DEFAULT_TOL, rel_residual
from ginverse.report import _b_identities, _decomposition_identities, _evaluate

RM = o.RationalMatrix
GR = o.GaussianRational

J2 = RM.from_rows([[0, 1], [0, 0]])
J3 = RM.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
IDEMPOTENT = RM.from_rows([[1, 1], [0, 0]])
BLOCK3 = RM.from_rows([[1, 0, 0], [0, 0, 1], [0, 0, 0]])
DEFINITION_LABELS = ["ax2", "def11", "wgm_k", "hermitian31", "coreEP48", "limit", "idem34"]


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

    def test_common_denominator_beyond_bound_entries_within(self):
        # the common denominator 2^20 3^13 has 41 bits, every entry at most 21
        a = RM.from_rows([[GR(Fraction(1, 2**20)), 0], [0, GR(Fraction(1, 3**13))]])
        assert a.max_height_bits() == 21
        assert o.exact_drazin(a, max_bits=32) == RM.from_rows([[2**20, 0], [0, 3**13]])


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
        # the tower of A and that of A^2 are built once each, then kept with
        # the matrix: later exact calls on the same object rebuild nothing
        calls = []
        exact_index = o.exact_index

        def counting_index(a):
            calls.append(a)
            return exact_index(a)

        monkeypatch.setattr(o, "exact_index", counting_index)
        a = RM.from_json(BLOCK3.to_json())  # no tower kept yet
        assert o.certify(a, 2).overall
        o.exact_mwgi(a, 2)
        d, cep = o.exact_drazin(a), o.exact_core_ep(a)
        assert len(calls) == 2
        assert calls[0] is a and calls[1] is a.power(2)
        assert d is o.exact_drazin(a) and cep is o.exact_core_ep(a)

    def test_tower_kept_per_height_bound(self):
        a = RM.from_rows([[GR(Fraction(2**40, 3), 0), 1], [1, GR(Fraction(1, 2**40), 0)]])
        o.exact_drazin(a)
        with pytest.raises(o.HeightOverflow):
            o.exact_drazin(a, max_bits=32)


class TestTowerIdentitiesLive:
    def test_corrupted_inverse_raises(self, monkeypatch):
        # a wrong nonsingular (F* A F)^-1 must fail a core-EP identity
        a = rational_with_index(np.random.default_rng(3), 4, 2)
        assert o.exact_index(a) == 2
        inverse = o.inverse

        def wrong_inverse(m, max_bits=o.MAX_HEIGHT_BITS):
            return inverse(m, max_bits) * 2

        monkeypatch.setattr(o, "inverse", wrong_inverse)
        with pytest.raises(ArithmeticError, match=r"A X\^2 = X|\(A X\)\* = A X|A X A\^k = A\^k"):
            o.exact_core_ep(a)
        assert ("tower", o.MAX_HEIGHT_BITS) not in a._kept  # nothing kept from a failed build


class TestLargerMatrices:
    def test_certify_n8(self):
        rng = np.random.default_rng(8)
        for k in range(4):
            for m in (1, 2, 3):
                a = rational_with_index(rng, 8, k)
                report = o.certify(a, m)
                assert report.overall, (k, m, report.to_dict())


class TestPowersOncePerCall:
    def test_certify_forms_each_power_once(self, monkeypatch):
        a = rational_with_index(np.random.default_rng(5), 4, 2)
        fresh = RM.from_json(a.to_json())  # same value, no powers kept yet
        powers = [fresh.power(j) for j in range(12)]
        formed: dict[int, int] = {}
        matmul = RM.__matmul__

        def counting_matmul(left, right):
            if right is a:  # a product that extends a power of A
                for j, p in enumerate(powers):
                    if left == p:
                        formed[j + 1] = formed.get(j + 1, 0) + 1
            return matmul(left, right)

        monkeypatch.setattr(RM, "__matmul__", counting_matmul)
        assert o.certify(a, 3).overall
        assert formed and max(formed.values()) == 1, formed


class TestPowersUnderThreads:
    """Each power is kept under its exponent, so threads sharing one matrix never
    read a power of another exponent."""

    def test_two_threads_share_one_matrix(self):
        base = random_rational(np.random.default_rng(4), 4, 4)
        serial = RM.from_rows(base.entries)
        want = {e: serial.power(e) for e in range(1, 10)}
        wrong = []

        def ask(a, exponents):
            for e in exponents:
                if a.power(e) != want[e]:
                    wrong.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(300):
                a = RM.from_rows(base.entries)  # no power kept yet
                threads = [
                    threading.Thread(target=ask, args=(a, exponents))
                    for exponents in ((9, 5, 3), (8, 9, 4))
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []


class TestTowerOfAPower:
    """certify reads the tower of A^m from A's: (A^m)^o = (A^o)^m (Wang, LAA 508, 2016)."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_read_from_a_equals_built_from_f(self, k, m):
        a = rational_with_index(np.random.default_rng(20 + k), 5, k)
        assert o.certify(a, m).overall
        am = a.power(m)
        kept = am._kept[("tower", o.MAX_HEIGHT_BITS)]
        if m >= 2:
            assert kept[2] is o.exact_core_ep(a).power(m)  # read from A's tower
        fresh = RM.from_json(am.to_json())  # same value, no tower kept: built from F
        assert kept == o._tower(fresh, o.MAX_HEIGHT_BITS)
        assert kept[0] == -(-k // m)

    def test_a_wrong_power_is_caught(self):
        a = rational_with_index(np.random.default_rng(3), 4, 2)
        am = a.power(2)
        cep = o.exact_core_ep(a)
        with pytest.raises(ArithmeticError, match="exact identity"):
            o._tower(am, o.MAX_HEIGHT_BITS, lambda: cep.power(2) * 2)
        assert ("tower", o.MAX_HEIGHT_BITS) not in am._kept


# ------------------------------------------------------------------------------
# Equivalence with plain per-entry Gaussian-rational arithmetic.  The reference
# below works on lists of GaussianRational rows; RationalMatrix must agree with
# it entry by entry.

FRACTIONS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
ENTRIES = st.one_of(st.just(GR()), st.builds(GR, FRACTIONS, FRACTIONS))
SCALARS = st.one_of(st.integers(-3, 3), FRACTIONS, st.builds(GR, FRACTIONS, FRACTIONS))
SETTINGS = settings(max_examples=60, deadline=None)


# integers small, above 2^64, and near the 4096-bit height bound, drawn from little entropy
HUGE = st.one_of(
    st.integers(-40, 40),
    st.builds(lambda hi, lo, shift: (hi << shift) + lo,
              st.integers(-99, 99), st.integers(0, 2**16), st.sampled_from([64, 4088])),
)
# few distinct denominators, so the common one of a matrix stays near the bound too
HUGE_FRACTIONS = st.builds(Fraction, HUGE, st.sampled_from([1, 3, 12, 2**65, 3 * 2**4088]))
HUGE_ENTRIES = st.one_of(st.just(GR()), st.builds(GR, HUGE_FRACTIONS, HUGE_FRACTIONS))


@st.composite
def rational_rows(draw, rows=None, cols=None, entries=ENTRIES):
    """Rows of Gaussian rationals with mixed denominators, zero rows and zero matrices."""
    r = rows or draw(st.integers(1, 4))
    c = cols or draw(st.integers(1, 4))
    if draw(st.integers(0, 9)) == 0:
        return [[GR()] * c for _ in range(r)]
    out = [[draw(entries) for _ in range(c)] for _ in range(r)]
    for i in range(r):
        if draw(st.integers(0, 4)) == 0:
            out[i] = [GR()] * c
    return out


@st.composite
def square_rows(draw):
    n = draw(st.integers(1, 4))
    return draw(rational_rows(n, n))


def as_entries(rows):
    return tuple(tuple(row) for row in rows)


def ref_matmul(x, y):
    return [[sum((x[i][t] * y[t][j] for t in range(len(y))), GR()) for j in range(len(y[0]))]
            for i in range(len(x))]


def ref_power(x, e):
    n = len(x)
    out = [[GR(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(e):
        out = ref_matmul(out, x)
    return out


def ref_rref(rows):
    """Gauss-Jordan on GaussianRational rows: reduced rows and pivot columns."""
    m = [list(row) for row in rows]
    n_rows, n_cols = len(m), len(m[0])
    pivots, r = [], 0
    for c in range(n_cols):
        p = next((i for i in range(r, n_rows) if not m[i][c].is_zero()), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = GR(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(n_rows):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def assert_canonical(a):
    assert a._den > 0
    assert math.gcd(a._den, *a._re, *a._im) == 1


def assert_layouts(a):
    """a's operand layouts are read-only and equal [Re | Im] and [[Re, Im], [-Im, Re]]
    of its canonical numerators, read from its entries."""
    re = [[int(u.re * a._den) for u in row] for row in a.entries]
    im = [[int(u.im * a._den) for u in row] for row in a.entries]
    left = [x + y for x, y in zip(re, im)]
    right = left + [[-v for v in y] + x for x, y in zip(re, im)]
    for got, want in ((a._left_layout(), left), (a._right_layout(), right)):
        assert got.dtype == object and not got.flags.writeable
        assert got.tolist() == want


class TestEquivalence:
    @SETTINGS
    @given(st.data())
    def test_matmul(self, data):
        x = data.draw(rational_rows())
        y = data.draw(rational_rows(rows=len(x[0])))
        got = RM.from_rows(x) @ RM.from_rows(y)
        assert got.entries == as_entries(ref_matmul(x, y))
        assert_canonical(got)
        assert got._left is not None  # the dot's result, kept as the product's left layout
        assert_layouts(got)

    @pytest.mark.parametrize(
        "r, n, c", [(1, 8, 1), (8, 1, 8), (1, 6, 8), (8, 5, 1), (3, 7, 2), (8, 8, 8)]
    )
    # no shrinking: a reference product of 4096-bit entries is slow, and test_matmul
    # shrinks a kernel fault to a small example
    @settings(max_examples=8, deadline=None, phases=[Phase.generate])
    @given(st.data())
    def test_matmul_wide_tall_and_high(self, r, n, c, data):
        x = data.draw(rational_rows(r, n, HUGE_ENTRIES))
        y = data.draw(rational_rows(n, c, HUGE_ENTRIES))
        got = RM.from_rows(x) @ RM.from_rows(y)
        assert got.entries == as_entries(ref_matmul(x, y))
        assert_canonical(got)
        assert got._left is not None
        assert_layouts(got)

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_matmul_reduced_below_the_operand_denominators(self, n):
        # numerators over 6 times numerators over 1, whose product is even throughout
        half_third, sixth = GR(Fraction(1, 2), Fraction(1, 3)), GR(Fraction(1, 6))
        x = [[half_third if i == j else sixth for j in range(n)] for i in range(n)]
        y = [[GR(6 * (i + 1), 2 * j) for j in range(n)] for i in range(n)]
        a, b = RM.from_rows(x), RM.from_rows(y)
        got = a @ b
        assert a._den * b._den > got._den  # the gcd with the denominator exceeded 1
        assert got.entries == as_entries(ref_matmul(x, y))
        assert_canonical(got)
        assert got._left is not None
        assert_layouts(got)

    @SETTINGS
    @given(st.data())
    def test_add_sub_neg(self, data):
        x = data.draw(rational_rows())
        y = data.draw(rational_rows(rows=len(x), cols=len(x[0])))
        a, b = RM.from_rows(x), RM.from_rows(y)
        for got, want in (
            (a + b, [[u + v for u, v in zip(r, s)] for r, s in zip(x, y)]),
            (a - b, [[u - v for u, v in zip(r, s)] for r, s in zip(x, y)]),
            (-a, [[-u for u in r] for r in x]),
        ):
            assert got.entries == as_entries(want)
            assert_canonical(got)

    @SETTINGS
    @given(rational_rows(), SCALARS)
    def test_scalar_multiple(self, x, c):
        want = as_entries([[u * c for u in r] for r in x])
        for got in (RM.from_rows(x) * c, c * RM.from_rows(x)):
            assert got.entries == want
            assert_canonical(got)

    @SETTINGS
    @given(rational_rows())
    def test_conj_transpose_and_is_zero(self, x):
        a = RM.from_rows(x)
        got = a.conj_transpose()
        assert got.entries == as_entries(
            [[x[i][j].conjugate() for i in range(len(x))] for j in range(len(x[0]))]
        )
        assert got.shape == (a.cols, a.rows)
        assert a.is_zero() == all(u.is_zero() for r in x for u in r)
        assert a.max_height_bits() == max(u.bit_height() for r in x for u in r)

    @SETTINGS
    @given(square_rows(), st.integers(0, 4))
    def test_power(self, x, e):
        got = RM.from_rows(x).power(e)
        assert got.entries == as_entries(ref_power(x, e))
        assert_canonical(got)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_identity_and_zeros(self, n):
        assert RM.identity(n).entries == as_entries(ref_power([[GR()] * n] * n, 0))
        assert RM.zeros(n, n + 1).entries == as_entries([[GR()] * (n + 1)] * n)
        assert RM.zeros(n, 2) == RM.from_rows([[0, Fraction(0, 3)]] * n)

    @SETTINGS
    @given(st.data())
    def test_equality_and_hash(self, data):
        x = data.draw(rational_rows())
        y = data.draw(rational_rows(rows=len(x), cols=len(x[0])))
        a, b = RM.from_rows(x), RM.from_rows(y)
        # the same value reached by a different route is equal and hashes equal
        same = (a + b) - b
        assert same == a and hash(same) == hash(a)
        assert (a == b) == (as_entries(x) == as_entries(y))
        assert a != x

    @SETTINGS
    @given(rational_rows())
    def test_json_roundtrip(self, x):
        a = RM.from_rows(x)
        back = RM.from_json(json.loads(json.dumps(a.to_json())))
        assert back == a and hash(back) == hash(a)
        assert back.entries == as_entries(x)
        assert a.to_json()["entries"] == [[str(u.re), str(u.im)] for r in x for u in r]

    @SETTINGS
    @given(rational_rows())
    def test_rank_and_full_rank_factorization(self, x):
        reduced, pivots = ref_rref(x)
        a = RM.from_rows(x)
        assert o.rank(a) == len(pivots)
        if not pivots:
            with pytest.raises(ValueError):
                o.full_rank_factorization(a)
            return
        f, g = o.full_rank_factorization(a)
        assert f.entries == as_entries([[row[c] for c in pivots] for row in x])
        assert g.entries == as_entries(reduced[: len(pivots)])
        assert f @ g == a

    @SETTINGS
    @given(square_rows())
    def test_inverse(self, x):
        n = len(x)
        aug = [row + [GR(int(i == j)) for j in range(n)] for i, row in enumerate(x)]
        reduced, pivots = ref_rref(aug)
        a = RM.from_rows(x)
        if pivots != list(range(n)):
            with pytest.raises(ValueError):
                o.inverse(a)
            return
        got = o.inverse(a)
        assert got.entries == as_entries([row[n:] for row in reduced])
        assert got @ a == RM.identity(n)


class TestExactDivision:
    def test_remainder_raises(self):
        assert o._exact_quotient(-12, 4) == -3
        with pytest.raises(ArithmeticError):
            o._exact_quotient(7, 2)


class TestOneIdentityList:
    """exact_mwgi requires, and certify reports, the identities of one function."""

    @staticmethod
    def corrupted(m):
        # a kept tower whose A^D is doubled: Z = (A^D)^{m+1} A A^o A^m grows by 2^{m+1}
        a = rational_with_index(np.random.default_rng(5), 4, 2)
        k, d, cep = o._tower(a, o.MAX_HEIGHT_BITS)
        a._kept[("tower", o.MAX_HEIGHT_BITS)] = (k, d * 2, cep)
        return a, o._mwgi_of(a, m, d * 2, cep, o.MAX_HEIGHT_BITS)

    @pytest.mark.parametrize("m", [1, 2])
    def test_exact_mwgi_names_the_failed_key(self, m):
        a, _ = self.corrupted(m)
        with pytest.raises(ArithmeticError, match="'ax2'"):
            o.exact_mwgi(a, m)

    @pytest.mark.parametrize("m", [1, 2])
    def test_identity_list_reports_ax2(self, m):
        a, z = self.corrupted(m)
        identities = o._mwgi_identities(a, m, z, o.MAX_HEIGHT_BITS)
        checks = _evaluate(identities, o._REQUIRED, o._exact_check)
        assert list(checks) == ["ax2", "def11", "wgm_k", "second_form"]
        assert not checks["ax2"].passed and checks["ax2"].residual > 0.0
        # certify's route_recursive check is exact_mwgi(A, m + 1), which reads the same tower
        with pytest.raises(ArithmeticError, match="'ax2'"):
            o.certify(a, m)

    def test_certify_reports_the_list(self):
        z = o.exact_mwgi(BLOCK3, 2)
        rows = [list(r) for r in z.entries]
        rows[1][2] = rows[1][2] + GR(1)
        bad = RM.from_rows(rows)
        report = o.certify(BLOCK3, 2, z=bad)
        identities = o._mwgi_identities(BLOCK3, 2, bad, o.MAX_HEIGHT_BITS)
        expected = _evaluate(identities, identities, o._exact_check)
        assert list(expected) == [*DEFINITION_LABELS, "second_form"]
        assert list(report.checks)[: len(expected)] == list(expected)
        assert {name: report.checks[name] for name in expected} == expected
        assert not all(check.passed for check in expected.values())


class TestPenroseIdentitiesLive:
    def test_corrupted_inverse_raises(self, monkeypatch):
        # a doubled (G G*)^-1 and (F* F)^-1 make X four times A^+, so A X A = 4 A
        a = rational_with_index(np.random.default_rng(3), 4, 2)
        inverse = o.inverse

        def wrong_inverse(m, max_bits=o.MAX_HEIGHT_BITS):
            return inverse(m, max_bits) * 2

        monkeypatch.setattr(o, "inverse", wrong_inverse)
        with pytest.raises(ArithmeticError, match=r"exact identity 'A X A = A' failed"):
            o.exact_mp(a)


class TestProductsOncePerCall:
    # index 3 and m = 1 keep Z, A^D, A^o and their products with A distinct values
    @staticmethod
    def matrix():
        return rational_with_index(np.random.default_rng(3), 5, 3)

    @staticmethod
    def counting(monkeypatch, pairs):
        """Count, per (left, right) in ``pairs``, the products of operands equal to them."""
        counts = [0] * len(pairs)
        matmul = RM.__matmul__

        def counting_matmul(left, right):
            for i, (x, y) in enumerate(pairs):
                if left == x and right == y:
                    counts[i] += 1
            return matmul(left, right)

        monkeypatch.setattr(RM, "__matmul__", counting_matmul)
        return counts

    def test_tower_forms_a_cep_and_d_a_once(self, monkeypatch):
        a = self.matrix()
        d, cep = o.exact_drazin(a), o.exact_core_ep(a)
        fresh = RM.from_json(a.to_json())  # same value, no tower kept yet
        counts = self.counting(monkeypatch, [(a, cep), (d, a)])
        assert o.exact_drazin(fresh) == d
        assert counts == [1, 1]

    def test_certify_forms_z_a_z_once(self, monkeypatch):
        a = self.matrix()
        z = o.exact_mwgi(a, 1)
        counts = self.counting(monkeypatch, [(z @ a, z), (z, a)])
        assert o.certify(a, 1).overall
        assert counts == [1, 1]


class TestExactTwin:
    """certify keeps the Z it has verified with A's exact tower, for exact_mwgi to return."""

    @staticmethod
    def matrix():
        return rational_with_index(np.random.default_rng(3), 5, 3)

    @staticmethod
    def counting_matmul(monkeypatch):
        calls = []
        matmul = RM.__matmul__

        def counting(left, right):
            calls.append(1)
            return matmul(left, right)

        monkeypatch.setattr(RM, "__matmul__", counting)
        return calls

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_exact_mwgi_after_certify_forms_nothing(self, monkeypatch, m):
        a = self.matrix()
        expected = o.exact_mwgi(RM.from_json(a.to_json()), m)  # on a copy with its own tower
        assert o.certify(a, m).overall
        calls = self.counting_matmul(monkeypatch)
        assert o.exact_mwgi(a, m) == expected
        assert calls == []

    def test_kept_per_bound_and_m(self, monkeypatch):
        a = self.matrix()
        assert o.certify(a, 2).overall
        calls = self.counting_matmul(monkeypatch)
        o.exact_mwgi(a, 3)
        assert calls
        calls.clear()
        o.exact_mwgi(a, 2, max_bits=o.MAX_HEIGHT_BITS + 1)
        assert calls

    @pytest.mark.parametrize("scale", [1, 2])
    def test_passed_z_is_never_kept(self, scale):
        a = self.matrix()
        z = o.exact_mwgi(RM.from_json(a.to_json()), 2) * scale
        assert o.certify(a, 2, z=z).overall == (scale == 1)
        assert ("mwgi", o.MAX_HEIGHT_BITS, 2) not in a._kept
        assert o.exact_mwgi(a, 2) == o.exact_mwgi(RM.from_json(a.to_json()), 2)

    def test_failed_identities_keep_nothing(self, monkeypatch):
        a = self.matrix()
        mwgi_of = o._mwgi_of
        # only Z of weight 2 is corrupted, so certify's own calls at weights 1 and 3 pass
        monkeypatch.setattr(
            o, "_mwgi_of", lambda b, m, *rest: mwgi_of(b, m, *rest) * (2 if m == 2 else 1)
        )
        assert not o.certify(a, 2).overall
        assert ("mwgi", o.MAX_HEIGHT_BITS, 2) not in a._kept
        with pytest.raises(ArithmeticError, match="ax2"):
            o.exact_mwgi(a, 2)


class TestTestMatricesOncePerN:
    """certify builds the B and Y of its equation check once per n, with the same residuals."""

    def test_built_once(self):
        o._test_matrices.cache_clear()
        assert o._test_matrices(3) is o._test_matrices(3)
        assert o._test_matrices(3) == o._test_matrices.__wrapped__(3)

    def test_solution_residuals_unchanged(self):
        a = BLOCK3
        z = o.exact_mwgi(a, 1)
        rows = [list(r) for r in z.entries]
        rows[0][0] = rows[0][0] + GR(1)
        bad = RM.from_rows(rows)
        # the solution check, evaluated on a fresh B and Y
        b, y = o._test_matrices.__wrapped__(3)
        qs = (a @ o.exact_drazin(a)).conj_transpose()
        x = bad @ b + (RM.identity(3) - bad @ a) @ y
        fresh = o._diff_residual(qs @ a.power(2) @ x, qs @ a @ b)
        assert fresh > 0.0
        o._test_matrices.cache_clear()
        for _ in range(2):  # a fresh build, then the kept one
            for candidate, residual in ((bad, fresh), (None, 0.0)):
                check = o.certify(a, 1, z=candidate).checks["equation"]
                assert check.residual.hex() == residual.hex()


class TestOneRankPerMatrix:
    """A matrix is eliminated once, and its rank and full-rank factorization read that one
    elimination, kept with the matrix like its powers."""

    @pytest.mark.parametrize("k, m", [(0, 2), (1, 1), (1, 2), (2, 2), (2, 3), (3, 2), (3, 5)])
    def test_certify_ranks_each_power_once(self, monkeypatch, k, m):
        ranked = []
        rref = o._rref

        def counting_rref(re, im):
            caller = sys._getframe(1)
            if caller.f_code is o._eliminate.__code__:  # an elimination kept with its matrix
                ranked.append(caller.f_locals["a"])
            return rref(re, im)

        a = rational_with_index(np.random.default_rng(5), 4, k)
        monkeypatch.setattr(o, "_rref", counting_rref)
        assert o.certify(a, m).overall
        # exact_index(A) ranks A, ..., A^{k+1}, and F reads the elimination of A^k;
        # exact_index(A^m), whose index is ceil(k / m), ranks (A^m)^1, ..., the first of
        # which is the kept A^m when m <= k + 1; the tower of A^m needs no F
        of_am = 0 if m == 1 else (-(-k // m) + 1) - (m <= k + 1)  # A^1 is A: no second index
        assert len(ranked) == (k + 1) + of_am
        assert len({id(x) for x in ranked}) == len(ranked)
        assert sum(x is a.power(m) for x in ranked) == 1


class TestExactCheckIsExact:
    """An exact check passes iff its sides are equal; unequal sides never read 0.0 or raise."""

    @staticmethod
    def candidate(e):
        # A = Z = diag(1, 0); the candidate is Z plus one entry of 2^e
        a = RM.from_rows([[1, 0], [0, 0]])
        return a, o.exact_mwgi(a, 1) + RM.from_rows([[GR(Fraction(2) ** e), 0], [0, 0]])

    @pytest.mark.parametrize("e, residual", [(-1100, math.ulp(0.0)), (1100, math.inf)])
    def test_gap_beyond_the_float_range_fails(self, e, residual):
        a, z = self.candidate(e)
        assert z.max_height_bits() <= o.MAX_HEIGHT_BITS
        report = o.certify(a, 1, z=z)
        assert not report.overall
        failed = [c for c in report.checks.values() if not c.passed]
        assert failed and all(c.residual == residual for c in failed)
        assert all(c.residual == 0.0 for c in report.checks.values() if c.passed)

    @pytest.mark.parametrize("e", [-600, -1, 0, 600])
    def test_gap_inside_the_float_range_is_exact(self, e):
        assert o._diff_residual(RM.from_rows([[GR(Fraction(2) ** e)]]), RM.zeros(1, 1)) == 2.0**e

    @SETTINGS
    @given(st.data())
    def test_residual_bits_of_plain_division(self, data):
        x = data.draw(rational_rows())
        y = data.draw(rational_rows(rows=len(x), cols=len(x[0])))
        a, b = RM.from_rows(x), RM.from_rows(y)
        diff = a - b
        total = sum(v * v for v in diff._re + diff._im)
        assert o._diff_residual(a, b) == math.sqrt(total / diff._den**2)
        assert o._exact_check(a, b).passed == (a == b)


class TestProductStore:
    """The outermost public oracle call keeps each product it forms, for the calls nested in it."""

    @staticmethod
    def matrix(seed=3, n=4, k=2):
        return rational_with_index(np.random.default_rng(seed), n, k)

    def test_no_store_after_a_call_returns(self):
        a = self.matrix()
        calls = [
            lambda: o.certify(a, 2),
            lambda: o.exact_mwgi(a, 3),
            lambda: o.exact_drazin(a),
            lambda: o.exact_core_ep(a),
            lambda: o.exact_mp(a),
        ]
        assert o._products.get() is None
        for call in calls:
            call()
            assert o._products.get() is None

    def test_no_store_after_height_overflow(self):
        a = RM.from_rows([[GR(Fraction(2**40, 3), 0), 1], [1, GR(Fraction(1, 2**40), 0)]])
        with pytest.raises(o.HeightOverflow):
            o.certify(a, 1, max_bits=32)
        assert o._products.get() is None

    def test_no_store_after_a_corrupted_tower(self, monkeypatch):
        inverse = o.inverse
        monkeypatch.setattr(o, "inverse", lambda m, max_bits=o.MAX_HEIGHT_BITS: inverse(m) * 2)
        with pytest.raises(ArithmeticError, match="exact identity"):
            o.certify(self.matrix(), 2)
        assert o._products.get() is None

    def test_nested_calls_share_the_outer_store(self, monkeypatch):
        stores = []
        identities = o._mwgi_identities

        def recording(*args):
            stores.append(o._products.get())
            return identities(*args)

        monkeypatch.setattr(o, "_mwgi_identities", recording)
        assert o.certify(self.matrix(), 2).overall
        # certify's own list, then exact_mwgi(A^m, 1) and exact_mwgi(A, m + 1) nested in it
        assert len(stores) == 3
        assert stores[0] is not None and all(s is stores[0] for s in stores)

    def test_certify_forms_each_product_once(self, monkeypatch):
        keys = []
        times = RM._times

        def recording(left, right):
            keys.append((left._key(), right._key()))
            return times(left, right)

        monkeypatch.setattr(RM, "_times", recording)
        a = self.matrix(n=5, k=3)
        assert o.certify(a, 2).overall
        o.exact_mwgi(a, 2)
        assert keys and len(set(keys)) == len(keys)

    def test_threads_keep_their_own_stores(self, monkeypatch):
        matrices = [self.matrix(seed, 4, seed % 4) for seed in range(6)]
        serial = [o.certify(RM.from_json(a.to_json()), 2).to_dict() for a in matrices]
        seen = []  # (call, store) per product formed; keeps every store alive
        times = RM._times
        call = threading.local()  # a thread's ident may be reused once it exits; its call is not

        def recording(left, right):
            seen.append((call.index, o._products.get()))
            return times(left, right)

        monkeypatch.setattr(RM, "_times", recording)
        results = [None] * len(matrices)

        def run(i):
            call.index = i
            results[i] = o.certify(matrices[i], 2).to_dict()

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(matrices))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == serial
        stores = {}
        for index, store in seen:
            assert store is not None
            assert stores.setdefault(index, store) is store  # one store per call
        assert len({id(s) for s in stores.values()}) == len(threads)

    def test_results_equal_without_the_store(self, monkeypatch):
        rng = np.random.default_rng(8)
        shapes = ((3, 1), (5, 3), (8, 2))
        cases = [(rational_with_index(rng, n, k), m) for n, k in shapes for m in (1, 3)]

        def results():
            out = []
            for a, m in cases:
                a = RM.from_json(a.to_json())  # a fresh object, no tower kept
                z = o.exact_mwgi(RM.from_json(a.to_json()), m)
                out.append((o.certify(a, m).to_dict(), o.exact_mwgi(a, m),
                            o.certify(a, m, z=z * 2).to_dict()))
            return out

        stored = results()
        monkeypatch.setattr(RM, "__matmul__", RM._times)  # every product formed anew
        assert results() == stored


class TestOneListTwoArithmetics:
    """The float checkers and certify read the same lists of ``report``: on a matrix whose
    float image is exact, both report each list's labels, and a one-entry corruption of Z
    fails the same labels in both arithmetics."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(23)
        for i in range(8):
            n = 3 + i % 3
            a = dyadic_with_index(rng, n, min(1 + i % 3, n - 1), 2)
            z = o.exact_mwgi(RM.from_json(a.to_json()), 1 + i % 3)
            rows = [list(r) for r in z.entries]
            rows[i % n][(i + 1) % n] += GR(1)
            for candidate in (z, RM.from_rows(rows)):
                yield a, 1 + i % 3, candidate

    @staticmethod
    def exact(identities):
        return _evaluate(identities, identities, o._exact_check)

    @staticmethod
    def failed(checks):
        return {label for label, check in checks.items() if not check.passed}

    def test_same_labels_fail(self):
        star, tol, corrupted = RM.conj_transpose, DEFAULT_TOL, 0
        for a, m, z in self.cases():
            t, zf = tower(a.to_complex()), z.to_complex()
            certified = o.certify(a, m, z=z).checks
            az = a @ z
            exact = {
                "definition": {label: certified[label] for label in DEFINITION_LABELS},
                "decomposition": self.exact(
                    _decomposition_identities(a, a @ az, a - a @ az, z, m, a.power, star)
                ),
                "b_characterization": self.exact(_b_identities(a, z, m, a.power, star, az, a @ az)),
            }
            decomposition = wgi.group_decomposition(t, m, tol, zf).verify(t, m, tol, zf).checks
            floats = {
                "definition": wgi.verify_definition(t, zf, m).checks,
                "decomposition": {k: c for k, c in decomposition.items() if k != "x_nonzero"},
                "b_characterization": {
                    k: c for k, c in wgi.b_characterization(t, m, tol, zf).checks.items()
                    if k != "range"
                },
            }
            for name, checks in exact.items():
                assert list(floats[name]) == list(checks), name
                assert self.failed(floats[name]) == self.failed(checks), (name, a, m)
                if name != "definition":  # certify merges the list under fuzz's name
                    assert certified[name].passed == all(c.passed for c in checks.values())
            outer = wgi.outer_inverse_subspaces(t, m, tol, zf).checks["outer"]
            bab = exact["b_characterization"]["bab"]
            assert outer.passed == certified["outer_inverse"].passed == bab.passed
            b, y = (x.to_complex() for x in o._test_matrices(a.rows))
            solution = eqsolve.solve_general(t, b, m, y, tol, zf).X
            float_equation = eqsolve.residual(t, b, m, solution, tol) <= tol.eq_rtol
            assert float_equation == certified["equation"].passed
            corrupted += not o.certify(a, m, z=z).overall
        assert corrupted == 8
