import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginverse import shiftlab as sl

words = st.lists(
    st.tuples(st.sampled_from(["S", "L"]), st.integers(1, 4)), max_size=6
).map(lambda gens: sl.ShiftWord(tuple(gens)))

sequences = st.lists(
    st.complex_numbers(max_magnitude=8, allow_nan=False, allow_infinity=False),
    max_size=6,
).map(lambda cs: sl.FinSeq(tuple(cs)))


class TestApply:
    def test_truncate_after_inject_is_identity(self):
        e1 = sl.FinSeq.basis(1)
        assert sl.apply(sl.L(1) * sl.S(1), e1) == e1

    def test_inject_after_truncate_kills_e1(self):
        e1 = sl.FinSeq.basis(1)
        assert sl.apply(sl.S(1) * sl.L(1), e1).is_zero()

    def test_inject_two(self):
        v = sl.FinSeq((1 + 2j, 3))
        assert sl.apply(sl.S(2), v) == sl.FinSeq((0, 0, 1 + 2j, 3))


class TestNormalize:
    def test_cancellation_to_identity(self):
        assert sl.normalize(sl.L(1) * sl.S(1)) == sl.IDENTITY_WORD

    def test_merge_injections(self):
        assert sl.normalize(sl.S(1) * sl.S(2)) == sl.S(3)

    def test_partial_cancellation(self):
        assert sl.normalize(sl.L(1) * sl.S(3)) == sl.S(2)

    def test_mixed_reduces_to_canonical(self):
        w = sl.S(1) * sl.L(2) * sl.S(3)
        canonical = sl.normalize(w)
        assert canonical == sl.S(2)  # L2 S3 -> S1, then S1 S1 -> S2

    @settings(max_examples=120, deadline=None)
    @given(words)
    def test_preserves_action_exactly(self, w):
        canonical = sl.normalize(w)
        for j in range(1, 11):
            e = sl.FinSeq.basis(j)
            assert sl.apply(w, e) == sl.apply(canonical, e)

    @settings(max_examples=60, deadline=None)
    @given(words)
    def test_canonical_form_shape(self, w):
        # every word reduces to at most one injection followed by one truncation
        canonical = sl.normalize(w)
        kinds = [kind for kind, _ in canonical.word]
        assert kinds in ([], ["S"], ["L"], ["S", "L"])


class TestAdjoint:
    @settings(max_examples=60, deadline=None)
    @given(words, sequences, sequences)
    def test_inner_product_relation(self, w, u, v):
        # <W u, v> = <u, W* v> holds exactly for finitely supported sequences
        lhs = sl.inner(sl.apply(w, u), v)
        rhs = sl.inner(u, sl.apply(sl.adjoint(w), v))
        assert lhs == rhs

    def test_shift_adjoints_swap(self):
        assert sl.adjoint(sl.S(3)) == sl.L(3)
        assert sl.adjoint(sl.S(2) * sl.L(1)) == sl.S(1) * sl.L(2)


class TestMwgiShift:
    def test_m1(self):
        assert sl.mwgi_shift(1) == sl.S(2) * sl.L(1)

    def test_m2(self):
        assert sl.mwgi_shift(2) == sl.S(3) * sl.L(2)

    def test_m3_applied_to_basis(self):
        # drop three then inject four: e5 -> e2 -> e6
        out = sl.apply(sl.mwgi_shift(3), sl.FinSeq.basis(5))
        assert out == sl.FinSeq.basis(6)

    def test_str_rendering(self):
        assert str(sl.mwgi_shift(2)) == "S3∘L2"
        assert str(sl.IDENTITY_WORD) == "I"

    def test_m_validation(self):
        with pytest.raises(ValueError):
            sl.mwgi_shift(0)


class TestVerifyShiftIdentities:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_all_pass_exactly(self, m):
        report = sl.verify_shift_identities(m, 8)
        assert report.overall
        assert all(check.residual == 0.0 for check in report.checks.values())

    def test_representation_word_normalizes(self):
        for m in (1, 2, 3):
            rep = sl.S(1) ** (m + 1) * sl.L(1) * sl.S(1) * sl.L(1) ** m
            assert sl.normalize(rep) == sl.mwgi_shift(m)

    def test_wrong_candidate_fails_ax2(self):
        # apply both sides to e2: a Z^2 e2 differs from Z e2
        report = sl.verify_shift_identities(1, 8, z=sl.S(3) * sl.L(1))
        assert not report.checks["ax2"].passed
        assert not report.overall

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize(
        "word, failed",
        [
            (lambda m: sl.S(m + 2) * sl.L(m), {"ax2", "def_eq", "limit", "rep_word"}),
            (lambda m: sl.S(m + 1) * sl.L(m + 1), {"ax2", "def_eq", "limit", "rep_word"}),
            (lambda m: sl.S(1), {"rep_word"}),  # the right inverse x passes the rest
        ],
    )
    def test_wrong_candidate_fails_exactly(self, m, word, failed):
        report = sl.verify_shift_identities(m, 8, z=word(m))
        assert {name for name, check in report.checks.items() if not check.passed} == failed

    def test_window_too_small(self):
        with pytest.raises(ValueError):
            sl.verify_shift_identities(3, 4)

    def test_one_sidedness_is_real(self):
        # the two-sided-style remainder a^n - a Z a^n does NOT vanish: the
        # example is genuinely one-sided, which is the point of this sandbox
        a = sl.L(1)
        z = sl.mwgi_shift(1)
        for n in (1, 2, 3):
            lhs = sl.apply(a ** n, sl.FinSeq.basis(n + 1))
            rhs = sl.apply(a * z * a ** n, sl.FinSeq.basis(n + 1))
            assert lhs != rhs

    def test_right_handed_limit_is_exact(self):
        # ... while a^{n+1} Z = a^n holds with zero remainder for n >= m
        a = sl.L(1)
        for m in (1, 2):
            z = sl.mwgi_shift(m)
            for n in range(m, 6):
                assert sl.normalize(a ** (n + 1) * z) == sl.normalize(a ** n)


class TestFinSeq:
    def test_trailing_zeros_trimmed(self):
        assert sl.FinSeq((1, 0, 0)) == sl.FinSeq((1,))

    def test_entry_accessor(self):
        v = sl.FinSeq((1, 2j))
        assert v.entry(2) == 2j
        assert v.entry(5) == 0

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            sl.FinSeq((1,)).entry(0)
