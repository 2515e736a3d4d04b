import math
import sys
import threading
from functools import reduce

import numpy as np
import pytest

from ginverse import classical, oracle, wgi
from ginverse.classical import (
    NoCoreInverse,
    NoGroupInverse,
    core_ep,
    core_inverse,
    drazin,
    group_inverse,
    index,
    moore_penrose,
    tower,
)
from ginverse.generators import conditioned_matrix, haar_unitary, rational_with_index, with_index
from ginverse.matcore import DEFAULT_TOL, TolerancePolicy, approx_equal, frobenius, rel_residual

J2 = np.array([[0, 1], [0, 0]], dtype=complex)
J3 = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
IDEMPOTENT = np.array([[1, 1], [0, 0]], dtype=complex)


def _chain(x, e):
    """X^e as the chain ((X X) X) ... X."""
    return reduce(np.matmul, [x] * e)


def _reference_staircase(a, tol):
    """The staircase with no certificate: it always takes the SVD of the last block
    and stops when that SVD counts the rank again (k + 1 SVDs)."""
    n = a.shape[0]
    chain, u1, b = [n], None, a
    u, s, vh = np.linalg.svd(a)
    zero = math.sqrt(s.dot(s)) <= tol.nil_atol
    cut = np.inf if zero else tol.rank_rtol * float(s[0]) * n
    while True:
        chain.append(r := int(np.count_nonzero(s > cut)))
        if r == chain[-2]:
            u1 = np.eye(n, dtype=np.complex128) if u1 is None else np.ascontiguousarray(u1)
            return classical.IndexResult(k=len(chain) - 2, rank_chain=tuple(chain)), u1, b, cut
        w = u[:, :r]
        u1, b = (w if u1 is None else u1 @ w), (s[:r, None] * vh[:r]) @ w
        u, s, vh = np.linalg.svd(b)


def _svds(a):
    """The number of SVDs that the staircase of A takes."""
    calls, svd = [], np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "svd", counting)
        classical._staircase(a, DEFAULT_TOL)
    return sum(calls)


def _core_ep_form(rng, core, sizes):
    """Q [[T, S], [0, N]] Q* for Haar Q, Gaussian S, T = core and N nilpotent with
    Jordan blocks of ``sizes``: rank(A^j) = r + rank(N^j), and the staircase's last
    block is unitarily similar to T."""
    r = len(core)
    n = r + sum(sizes)
    b = np.zeros((n, n), dtype=np.complex128)
    b[:r, :r] = core
    b[:r, r:] = rng.standard_normal((r, n - r))
    offset = r
    for size in sizes:
        b[range(offset, offset + size - 1), range(offset + 1, offset + size)] = 1.0
        offset += size
    q = haar_unitary(rng, n)
    return q @ b @ q.conj().T


class TestMoorePenrose:
    def test_identity(self):
        assert approx_equal(moore_penrose(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert approx_equal(moore_penrose(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (4, 2)])
    def test_zero(self, shape):
        # at A = 0 the cut is 0 and keeps no singular value: the product is +0 throughout
        got = moore_penrose(np.zeros(shape))
        assert got.shape == shape[::-1] and not got.any()
        assert not np.signbit(got.real).any() and not np.signbit(got.imag).any()

    def test_rank_one_against_exact_oracle(self):
        # expected value derived from the exact rank-factorization pseudoinverse
        expected = oracle.exact_mp(oracle.RationalMatrix.from_rows([[1, 1], [1, 1]]))
        got = moore_penrose(np.ones((2, 2), dtype=complex))
        assert approx_equal(got, expected.to_complex())
        assert np.allclose(got, np.ones((2, 2)) / 4)

    @pytest.mark.parametrize("shape", [(3, 3), (4, 2), (2, 5)])
    def test_penrose_equations(self, rng, shape):
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        x = moore_penrose(a)
        assert approx_equal(a @ x @ a, a)
        assert approx_equal(x @ a @ x, x)
        assert approx_equal((a @ x).conj().T, a @ x)
        assert approx_equal((x @ a).conj().T, x @ a)


class TestIndex:
    def test_invertible(self):
        assert index(np.eye(2)).k == 0

    def test_nilpotent_order_two(self):
        result = index(J2)
        assert result.k == 2
        assert result.rank_chain == (2, 1, 0, 0)

    def test_block_diagonal_rank_chain(self):
        # 3x3 block diag(1) + J2: ranks of A^0..A^3 computed directly
        a = np.zeros((3, 3), dtype=complex)
        a[0, 0] = 1.0
        a[1, 2] = 1.0
        result = index(a)
        assert result.k == 2
        assert result.rank_chain == (3, 2, 1, 1)

    def test_non_square(self):
        with pytest.raises(ValueError):
            index(np.ones((2, 3)))

    def test_chain_strictly_decreasing(self, corpus):
        for a, n, k in corpus[:12]:
            result = index(a)
            assert result.k == k
            chain = result.rank_chain
            assert all(chain[i] > chain[i + 1] for i in range(result.k))
            assert chain[-1] == chain[-2]


class TestDrazin:
    def test_invertible_gives_inverse(self, rng):
        a = with_index(rng, 4, 0)
        assert approx_equal(drazin(a), np.linalg.inv(a))

    def test_nilpotent_gives_zero(self):
        assert frobenius(drazin(J2)) < 1e-12

    def test_idempotent_fixed(self):
        assert approx_equal(drazin(IDEMPOTENT), IDEMPOTENT)

    def test_commutes(self, corpus):
        for a, _, _ in corpus[:12]:
            d = drazin(a)
            assert approx_equal(a @ d, d @ a)

    def test_defining_equations(self, corpus):
        for a, _, k in corpus[:12]:
            d = drazin(a)
            assert approx_equal(d @ a @ d, d)
            ak = np.linalg.matrix_power(a, k)
            assert approx_equal(ak @ a @ d, ak)

    def test_against_exact_cline_chain(self, rng):
        for trial in range(6):
            n = 2 + trial % 3
            k = min(trial % 3, n - 1)
            a = rational_with_index(rng, n, k)
            exact = oracle.exact_drazin(a).to_complex()
            assert rel_residual(drazin(a.to_complex()), exact) <= DEFAULT_TOL.eq_rtol


class TestGroupInverse:
    def test_identity(self):
        assert approx_equal(group_inverse(np.eye(2)), np.eye(2))

    def test_nilpotent_rejected(self):
        with pytest.raises(NoGroupInverse):
            group_inverse(J2)

    def test_idempotent_fixed(self):
        assert approx_equal(group_inverse(IDEMPOTENT), IDEMPOTENT)

    def test_defining_equations(self, rng):
        a = with_index(rng, 4, 1)
        g = group_inverse(a)
        assert approx_equal(g @ a @ a, a)
        assert approx_equal(a @ g @ g, g)
        assert approx_equal(a @ g, g @ a)


class TestCoreInverse:
    def test_identity(self):
        assert approx_equal(core_inverse(np.eye(2)), np.eye(2))

    def test_unitary(self, rng):
        u = haar_unitary(rng, 3)
        assert approx_equal(core_inverse(u), u.conj().T)

    def test_idempotent_against_exact_oracle(self):
        # the exact oracle evaluates A^# A A^+ and checks the three defining
        # equations symbolically; [[0.5, 0.5], [0, 0]] fails (AX)* = AX
        exact = oracle.exact_core_ep(oracle.RationalMatrix.from_rows([[1, 1], [0, 0]]))
        assert exact.to_complex().tolist() == [[1, 0], [0, 0]]
        assert approx_equal(core_inverse(IDEMPOTENT), exact.to_complex())

    def test_nilpotent_rejected(self):
        with pytest.raises(NoCoreInverse):
            core_inverse(J2)

    def test_defining_equations(self, rng):
        a = with_index(rng, 5, 1)
        x = core_inverse(a)
        assert approx_equal(a @ x @ x, x)
        assert approx_equal((a @ x).conj().T, a @ x)
        assert approx_equal(a @ x @ a, a)


class TestCoreEP:
    def test_invertible(self, rng):
        a = with_index(rng, 3, 0)
        assert approx_equal(core_ep(a), np.linalg.inv(a))

    def test_nilpotent(self):
        assert frobenius(core_ep(J2)) < 1e-12

    def test_index_one_collapses_to_core(self, rng):
        a = with_index(rng, 4, 1)
        assert approx_equal(core_ep(a), core_inverse(a))

    def test_defining_equations(self, corpus):
        for a, n, k in corpus[:12]:
            x = core_ep(a)
            assert approx_equal(a @ x @ x, x)
            assert approx_equal((a @ x).conj().T, a @ x)

    def test_eventual_identity(self, corpus):
        # the vanishing-remainder condition realized at powers k, k+1, k+2
        for a, n, k in corpus[:12]:
            x = core_ep(a)
            for p in (k, k + 1, k + 2):
                ap = np.linalg.matrix_power(a, p)
                residual = frobenius(ap - a @ x @ ap)
                assert residual <= DEFAULT_TOL.eq_rtol * max(1.0, frobenius(a) ** (p + 1))

    def test_matches_core_of_drazin_form(self, corpus):
        for a, _, _ in corpus[:12]:
            d = drazin(a)
            assert approx_equal(core_ep(a), d @ d @ core_inverse(d))


class TestTower:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_fields_match_closed_forms(self, k):
        a = with_index(np.random.default_rng(40 + k), 6, k)
        t = tower(a)
        assert t.index == index(a)
        # the tower keeps U1 and T^-1; A^o and A^D are formed when first read
        assert "o" not in t._kept and ("z", k) not in t._kept
        ak = np.linalg.matrix_power(a, k)
        _, u1, core = classical._staircase(a, DEFAULT_TOL)
        assert np.array_equal(t.tinv, np.linalg.inv(core))
        # the staircase's U1 is an orthonormal basis of col(A^k) and T = U1* A U1
        assert np.array_equal(t.u1, u1) and t.u1.flags.c_contiguous and not t.u1.flags.writeable
        u1h = u1.conj().T
        assert approx_equal(u1h @ u1, np.eye(t.index.rank_chain[k]))
        assert approx_equal(u1 @ u1h, ak @ moore_penrose(ak))
        assert approx_equal(core, u1h @ a @ u1)
        o = u1 @ np.linalg.inv(core) @ u1h
        if k == 0:  # U1 = I and T = A, so A^o = A^-1
            assert np.array_equal(u1, np.eye(6)) and np.array_equal(core, a)
            assert np.array_equal(o, np.linalg.inv(a))
        # A^D is the tower's Z at m = k: U1 (T^-(k+1) (U1* A^k)), kept once
        d = u1 @ (_chain(np.linalg.inv(core), k + 1) @ (u1h @ ak))
        assert np.array_equal(t.power(k), ak)
        assert np.array_equal(t.o, o)
        assert np.array_equal(t.d, d) and t.d is t.z(k)
        assert approx_equal(t.d, _chain(o, k + 1) @ ak)
        # the Drazin and core-EP closed forms the decomposition replaces
        d_ref = ak @ moore_penrose(np.linalg.matrix_power(a, 2 * k + 1)) @ ak
        assert approx_equal(t.d, d_ref)
        assert approx_equal(t.o, d_ref @ ak @ moore_penrose(ak))

    def test_nilpotent(self):
        t = tower(J2)
        assert t.index.k == 2
        assert np.array_equal(t.power(2), np.linalg.matrix_power(J2, 2))
        assert np.array_equal(t.d, np.zeros((2, 2)))
        assert np.array_equal(t.o, np.zeros((2, 2)))

    def test_frozen_readonly(self):
        t = tower(IDEMPOTENT)
        with pytest.raises(ValueError):
            t.d[0, 0] = 2

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_drazin_is_u1_times_the_kept_g(self, k):
        # G = T^-(k+1) (U1* A^k) is kept once, and A^D = Z_k = U1 G reads it
        t = classical._build(with_index(np.random.default_rng(50 + k), 6, k), DEFAULT_TOL)
        g = _chain(t.tinv, k + 1) @ (t.u1.conj().T @ np.linalg.matrix_power(t.a, k))
        assert t.g.tobytes() == g.tobytes() and t.g is t.g and not t.g.flags.writeable
        assert t.g.shape == (t.index.rank_chain[k], 6)
        assert t.z(k) is t.d
        assert t.d.shape == (6, 6) and t.d.tobytes() == (t.u1 @ g).tobytes()

    def test_towers_compare_and_hash_by_identity(self):
        # compared field by field, their arrays made ==, in and hash raise
        t1, t2 = (classical._build(np.diag([1, 2, v]) + 0j, DEFAULT_TOL) for v in (3, 4))
        assert t1 == t1 and t1 != t2 and t1 in [t1] and t1 not in [t2]
        assert len({t1, t2, t1}) == 2 and hash(t1) == hash(t1)


class TestStaircase:
    # core singular values log-uniform in each range (the ROADMAP sweep): k
    # comes out right on the wide rows only if rank(A^j) is judged at the
    # conditioning of the core, not at that of its j-th power
    SIGMA_ROWS = [(0.1, 10), (0.03, 30), (0.01, 100), (0.003, 300), (0.001, 1000)]

    @pytest.mark.parametrize("sigma", SIGMA_ROWS)
    def test_sweep(self, sigma):
        # mwgi and verify_definition read the same tower as index, so they
        # cannot see a wrong k: 0 wrong k rules that cause out.  It does not
        # rule out every silent wrong answer: in the ROADMAP Baseline referee
        # probe, 8 of 300 dyadic inputs pass every check with the right rank
        # chain and a forward error up to 8.6e-4
        rng = np.random.default_rng(12)
        wrong_k = []
        for i in range(120):
            k = 1 + i % 3
            if index(with_index(rng, 12, k, core_sigma=sigma)).k != k:
                wrong_k.append(i)
        assert wrong_k == []

    @pytest.mark.parametrize("c", [1e-9, 1e-6, 1e6])
    def test_scale_invariant(self, corpus, c):
        # every scaled matrix here stays above the nil_atol = 1e-10 floor
        for a, _, _ in corpus:
            assert index(c * a) == index(a)
        assert index(c * J3) == index(J3) == classical.IndexResult(k=3, rank_chain=(3, 2, 1, 0, 0))
        assert index(c * np.eye(3)).rank_chain == (3, 3)

    def test_roundoff_reads_as_zero(self):
        # A^4 of a nilpotent A of index 4 is ~1e-16 of roundoff; ranked against
        # its own sigma_max it would look nonsingular
        a = with_index(np.random.default_rng(0), 4, 4)
        zero = classical.IndexResult(k=1, rank_chain=(4, 0, 0))
        assert index(np.linalg.matrix_power(a, 4)) == zero
        assert index(1e-12 * np.eye(4)) == zero
        assert frobenius(tower(np.linalg.matrix_power(a, 4)).o) == 0.0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_deflation_is_one_product(self, monkeypatch, k):
        # B_{j+1} is formed as diag(s_r) Vh_r W, which equals W* B_j W.  At every k
        # here the SVD before the last block certifies it nonsingular, so it is T
        # unfactored: at k = 1 from C = Vh_r W, since the drop d = 5 exceeds r = 3
        a = with_index(np.random.default_rng(60 + k), 8, k)
        steps, svd = [], np.linalg.svd

        def recording_svd(b, *args, **kwargs):
            out = svd(b, *args, **kwargs)
            steps.append((np.array(b), out))
            return out

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        idx, _, core = classical._staircase(a, DEFAULT_TOL)
        chain = idx.rank_chain
        assert len(steps) == k
        blocks = [b for b, _ in steps[1:]] + [core]
        for j, ((b, (u, s, vh)), b_next) in enumerate(zip(steps, blocks), start=1):
            r = chain[j]
            w = u[:, :r]
            assert np.array_equal(b_next, (s[:r, None] * vh[:r]) @ w)
            assert approx_equal(b_next, w.conj().T @ b @ w)

    @staticmethod
    def _assert_matches_reference(a, tol=DEFAULT_TOL):
        """The staircase gives the reference's IndexResult and the bytes of its U1 (the
        identity at k = 0) and T."""
        idx, u1, core = classical._staircase(a, tol)
        ref_idx, ref_u1, ref_core, cut = _reference_staircase(a, tol)
        assert idx == ref_idx
        assert u1.shape == ref_u1.shape and u1.tobytes() == ref_u1.tobytes()
        assert u1.flags.c_contiguous and not u1.flags.writeable
        assert core.shape == ref_core.shape and core.tobytes() == ref_core.tobytes()
        return ref_idx, ref_core, cut

    @staticmethod
    def _near_cut(seed, k, ratio):
        """A of index k, n = 12, whose T has sigma_min = ratio * cut, the rest in [1, 10]."""
        rng = np.random.default_rng(seed)
        sizes = [k] * int(rng.integers(1, 4))  # the last drop d = len(sizes) <= 3 < r
        r = 12 - sum(sizes)
        s = np.exp(rng.uniform(0.0, np.log(10.0), r))
        u, v = haar_unitary(rng, r), haar_unitary(rng, r)

        def build(smallest):
            s[-1] = smallest
            return _core_ep_form(np.random.default_rng([seed, 1]), (u * s) @ v, sizes)

        sigma_max = np.linalg.svd(build(0.0), compute_uv=False)[0]
        return build(ratio * DEFAULT_TOL.rank_rtol * sigma_max * 12)

    def test_certified_step_matches_reference(self):
        rng = np.random.default_rng(70)
        for sigma in self.SIGMA_ROWS:  # the sweep rows
            for i in range(60):
                self._assert_matches_reference(with_index(rng, 12, 1 + i % 3, core_sigma=sigma))
        for j in (-20, -9, 7, 20):  # exact scalings
            for i in range(30):
                n = 2 + i % 14
                self._assert_matches_reference(2.0**j * with_index(rng, n, min(i % 5, n)))
        for n in (2, 5, 16, 64):
            for k in range(min(n, 4) + 1):
                for _ in range(3 if n == 64 else 10):
                    self._assert_matches_reference(with_index(rng, n, k))
        tiny = np.random.default_rng(71)
        for i in range(150):  # a cut at roundoff: 2 cut alone would certify wrongly here
            a = with_index(tiny, 2 + i % 3, 2, core_sigma=(0.001, 1000))
            self._assert_matches_reference(a, TolerancePolicy(rank_rtol=5e-17))
        fired = set()
        for i in range(120):  # sigma_min(T) within 1-4x the cut, or 0.3-0.9x: then B_{k+1} is singular
            k, ratio = 1 + i % 3, 0.3 + 3.65 * (i % 12) / 11
            a = self._near_cut(100 + i, k, ratio)
            idx, core, cut = self._assert_matches_reference(a)
            if ratio > 1.0:
                assert idx.k == k
                assert 1.0 < np.linalg.svd(core, compute_uv=False)[-1] / cut < 4.0
                fired.add(_svds(a) == k)
            else:
                assert idx.k > k
        assert fired == {True, False}  # the certificate both takes and leaves last steps here

    @pytest.mark.parametrize(
        "r, sizes, chain",
        [
            (5, [1, 1, 1], (8, 5, 5)),  # d = 3 <= r = 5: D
            (2, [1] * 6, (8, 2, 2)),  # d = 6 > r = 2: C
            (4, [2, 2], (8, 6, 4, 4)),
            (1, [2, 2, 2, 1], (8, 4, 1, 1)),  # last d = 3 > r = 1
            (3, [3, 2], (8, 6, 4, 3, 3)),
            (1, [3, 3, 1], (8, 5, 3, 1, 1)),  # last d = 2 > r = 1
        ],
    )
    def test_certificate_takes_k_svds_whatever_the_drop(self, r, sizes, chain):
        # the certificate reads the smaller diagonal block of Vh U, D when the last
        # drop d is at most the rank r it leaves and C when not, so k SVDs either way
        rng = np.random.default_rng(80 + r)
        a = _core_ep_form(rng, conditioned_matrix(rng, r, (0.5, 2.0)), sizes)
        idx, _, _ = self._assert_matches_reference(a)
        assert idx.rank_chain == chain
        assert _svds(a) == idx.k

    @pytest.mark.parametrize("ratio, svds", [(1e6, 1), (1.5, 2)])
    def test_certificate_from_c_takes_or_leaves_the_last_svd(self, ratio, svds):
        # d = 6 > r = 2, T with sigma_min = ratio * cut: far above, s_r |det C| clears
        # the margin and T is certified; at 1.5 cut it cannot, since sigma_min(B_2) >=
        # s_r |det C| and a certificate needs 2 cut, so the SVD of B_2 runs and counts r
        rng = np.random.default_rng(90)
        core = conditioned_matrix(rng, 2, (1.0, 2.0))
        probe = _core_ep_form(np.random.default_rng(91), core, [1] * 6)
        cut = DEFAULT_TOL.rank_cut(np.linalg.svd(probe, compute_uv=False)[0], 8)
        u, s, vh = np.linalg.svd(core)
        s[-1] = ratio * cut
        a = _core_ep_form(np.random.default_rng(91), (u * s) @ vh, [1] * 6)
        idx, core, cut = self._assert_matches_reference(a)
        assert idx.rank_chain == (8, 2, 2)
        assert np.linalg.svd(core, compute_uv=False)[-1] > cut
        assert _svds(a) == svds


class TestCoreInverseFromTower:
    """At index <= 1 the core inverse is A^o; A^# A A^+ stays the reference."""

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_matches_group_times_a_times_mp(self, k, n):
        a = with_index(np.random.default_rng(10 * n + k), n, k)
        reference = group_inverse(a) @ a @ moore_penrose(a)
        assert rel_residual(core_inverse(a), reference) <= 1e-10

    def test_calls_no_moore_penrose(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("core_inverse called moore_penrose")

        a = with_index(np.random.default_rng(4), 5, 1)
        monkeypatch.setattr(classical, "moore_penrose", forbidden)
        assert approx_equal(core_inverse(a), tower(a).o)


class TestKeptPowers:
    """The tower forms each power of A, A^o, A^D and T^-1 once, as one product with
    the power below it, and forms A A^D once."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_power_rule(self, k):
        a = with_index(np.random.default_rng(60 + k), 6, k)
        for name in ("a", "o", "d", "tinv"):
            t = classical._build(a, DEFAULT_TOL)  # a fresh store for each base
            base = getattr(t, name)
            assert t.pow(name, 1) is base
            for e in range(2, 7):
                stored = len(t._kept)
                kept = t.pow(name, e)
                assert len(t._kept) == stored + 1, (name, e)  # one new product
                assert classical._same_bits(kept, t.pow(name, e - 1) @ base), (name, e)
                assert classical._same_bits(kept, _chain(base, e)), (name, e)
                if e <= 3:  # numpy unrolls matrix_power up to e = 3
                    assert classical._same_bits(kept, np.linalg.matrix_power(base, e)), (name, e)
                assert not kept.flags.writeable
                assert t.pow(name, e) is kept and len(t._kept) == stored + 1

    def test_each_power_formed_once(self):
        t = classical._build(with_index(np.random.default_rng(64), 5, 2), DEFAULT_TOL)
        # A^D = Z_2 = U1 G, G = T^-3 (U1* A^2), keeps T^-2, T^-3, A^2, U1* A^2, G and Z_2
        assert t.d is t.d
        assert len(t._kept) == 6
        for _ in range(2):
            for name in ("o", "d", "tinv"):
                t.pow(name, 3)
                t.pow(name, 4)
            # A^o, (A^o)^2..4, (A^D)^2..4 and T^-4 in the first round, nothing in the second
            assert len(t._kept) == 14

    def test_deep_exponent_is_filled_by_a_loop(self):
        # a kept recursion raised RecursionError from about e = 330
        t = classical._build(with_index(np.random.default_rng(3), 6, 2), DEFAULT_TOL)
        t.pow("a", 5)
        stored = len(t._kept)
        deep = t.pow("a", 400)
        assert len(t._kept) == stored + 395  # A^6..A^400, each formed once from A^5 up
        assert classical._same_bits(deep, t.pow("a", 399) @ t.a)
        assert not deep.flags.writeable and np.isfinite(deep).all()

    def test_index_zero_shares_the_powers_of_t_inverse(self):
        # U1 = I, so A^o = I T^-1 I* holds the values of T^-1, and so do its powers
        t = tower(with_index(np.random.default_rng(65), 4, 0))
        assert np.array_equal(t.o, t.tinv)
        assert np.array_equal(t.pow("o", 3), t.pow("tinv", 3))

    def test_ad_formed_once(self):
        t = tower(with_index(np.random.default_rng(66), 5, 2))
        assert t.ad is t.ad
        assert classical._same_bits(t.ad, t.a @ t.d)
        assert not t.ad.flags.writeable


class TestPowersUnderThreads:
    """Each power and each U1* A^j is kept under its exponent, and the first value stored
    wins, so threads sharing one tower read one value per key, with the serial bits."""

    NAMES = ("a", "o", "d", "tinv", "coords")

    @staticmethod
    def _read(t, name, e):
        return t.coords(e) if name == "coords" else t.pow(name, e)

    def test_two_threads_share_one_tower(self):
        a = with_index(np.random.default_rng(4), 6, 2)
        serial = classical._build(a, DEFAULT_TOL)
        want = {(name, e): self._read(serial, name, e) for name in self.NAMES for e in range(2, 10)}

        def ask(t, exponents, seen):
            for e in exponents:
                for name in self.NAMES:
                    seen.append(((name, e), self._read(t, name, e)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(300):
                t = classical._build(a, DEFAULT_TOL)  # no power kept yet
                seen = []
                threads = [
                    threading.Thread(target=ask, args=(t, exponents, seen))
                    for exponents in ((9, 5, 3), (8, 9, 4))
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert len(seen) == 30
                for key, value in seen:
                    assert value is t._kept[key], key
                    assert classical._same_bits(value, want[key]), key
        finally:
            sys.setswitchinterval(interval)


class TestExponentDomain:
    """Tower.pow takes e >= 1 and Tower.power j >= 0; below that both raise ValueError,
    and A^0 = I is one read-only identity kept with the tower."""

    @pytest.mark.parametrize("name", ["a", "o", "d", "tinv"])
    @pytest.mark.parametrize("e", [0, -1])
    def test_pow_below_one_raises(self, name, e):
        t = tower(np.eye(3))
        with pytest.raises(ValueError, match="exponent must be positive"):
            t.pow(name, e)

    @pytest.mark.parametrize("j", [-1, -2])
    def test_negative_power_raises(self, j):
        t = tower(np.eye(3))
        with pytest.raises(ValueError, match="exponent must be positive"):
            t.power(j)

    @pytest.mark.parametrize("k", [0, 2])
    def test_power_zero_is_one_kept_identity(self, k):
        t = classical._build(with_index(np.random.default_rng(67 + k), 5, k), DEFAULT_TOL)
        eye = t.power(0)
        assert classical._same_bits(eye, np.eye(5, dtype=np.complex128))
        assert not eye.flags.writeable
        stored = len(t._kept)
        assert t.power(0) is eye and len(t._kept) == stored
