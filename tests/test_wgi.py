import dataclasses
import sys
import threading
from functools import reduce

import numpy as np
import pytest

from ginverse import classical, eqsolve, oracle, wgi
from ginverse.classical import drazin, core_ep, group_inverse, index, moore_penrose, tower
from ginverse.generators import orthogonal_pair, with_index
from ginverse.matcore import DEFAULT_TOL, TolerancePolicy, approx_equal, frobenius, rel_residual

J2 = np.array([[0, 1], [0, 0]], dtype=complex)
IDEMPOTENT = np.array([[1, 1], [0, 0]], dtype=complex)
BLOCK3 = np.array([[1, 0, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)  # diag(1) + J2


class TestMwgi:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_identity(self, m):
        result = wgi.mwgi(np.eye(3), m)
        assert approx_equal(result.Z, np.eye(3))
        assert result.k == 0

    @pytest.mark.parametrize("m", [1, 2])
    def test_nilpotent(self, m):
        assert frobenius(wgi.mwgi(J2, m).Z) < 1e-12

    def test_idempotent_is_fixed_point(self):
        # derived by the defining-equation check: Z = A passes every equation
        result = wgi.mwgi(IDEMPOTENT, 1)
        assert approx_equal(result.Z, IDEMPOTENT)
        assert wgi.verify_definition(IDEMPOTENT, result.Z, 1).overall

    def test_result_invariants(self, corpus):
        for i, (a, n, k) in enumerate(corpus[:12]):
            m = 1 + i % 3
            result = wgi.mwgi(a, m)
            assert result.k == k
            assert approx_equal(result.Z, a @ result.Z @ result.Z)
            assert approx_equal(result.Z @ a @ result.Z, result.Z)

    def test_non_square(self):
        with pytest.raises(ValueError):
            wgi.mwgi(np.ones((2, 3)), 1)

    @pytest.mark.parametrize("m", [0, -1, 1.5])
    def test_bad_m(self, m):
        with pytest.raises(ValueError):
            wgi.mwgi(np.eye(2), m)


class TestRoutes:
    def test_power_route_trivial(self):
        assert approx_equal(wgi.mwgi_via_power(np.eye(2), 3), np.eye(2))
        assert frobenius(wgi.mwgi_via_power(J2, 2)) < 1e-12

    def test_normal_route_trivial(self):
        assert approx_equal(wgi.mwgi_normal_equation(np.eye(2), 1), np.eye(2))
        j3 = np.zeros((3, 3), dtype=complex)
        j3[0, 1] = j3[1, 2] = 1.0
        assert frobenius(wgi.mwgi_normal_equation(j3, 2)) < 1e-12

    def test_drazin_solve_trivial(self):
        assert approx_equal(wgi.mwgi_drazin_solve(np.eye(2), 1), np.eye(2))
        assert frobenius(wgi.mwgi_drazin_solve(J2, 1)) < 1e-12

    def test_core_of_drazin_trivial(self):
        assert approx_equal(wgi.mwgi_core_of_drazin(np.eye(2), 1), np.eye(2))
        assert frobenius(wgi.mwgi_core_of_drazin(J2, 3)) < 1e-12

    def test_core_chain_unitary(self, rng):
        from ginverse.generators import haar_unitary

        assert approx_equal(wgi.mwgi_core_chain(np.eye(2), 1), np.eye(2))
        u = haar_unitary(rng, 3)
        # all routes give the plain inverse for an invertible input
        assert approx_equal(wgi.mwgi_core_chain(u, 1), u.conj().T)

    def test_step_trivial(self):
        assert approx_equal(wgi.mwgi_step(np.eye(2), np.eye(2)), np.eye(2))
        assert frobenius(wgi.mwgi_step(J2, np.zeros((2, 2)))) < 1e-12

    def test_regular_lift_trivial(self):
        assert approx_equal(wgi.mwgi_regular_lift(np.eye(2), 1), np.eye(2))
        assert frobenius(wgi.mwgi_regular_lift(J2, 1)) < 1e-12

    def test_cross_route_agreement(self, corpus):
        for i, (a, n, k) in enumerate(corpus):
            m = 1 + i % 3
            z = wgi.mwgi(a, m).Z
            for route in (
                wgi.mwgi_via_power,
                wgi.mwgi_normal_equation,
                wgi.mwgi_drazin_solve,
                wgi.mwgi_core_of_drazin,
                wgi.mwgi_core_chain,
            ):
                assert approx_equal(z, route(a, m)), (route.__name__, i, n, k, m)

    def test_power_identity(self, corpus):
        # the m-th power of the m-weighted inverse is the 1-weighted inverse of A^m
        for i, (a, _, _) in enumerate(corpus[:12]):
            m = 2 + i % 2
            z = wgi.mwgi(a, m).Z
            w = wgi.mwgi(np.linalg.matrix_power(a, m), 1).Z
            assert approx_equal(np.linalg.matrix_power(z, m), w)

    def test_step_recursion(self, corpus):
        for i, (a, _, _) in enumerate(corpus[:12]):
            m = 1 + i % 2
            stepped = wgi.mwgi_step(a, wgi.mwgi(a, m).Z)
            assert approx_equal(stepped, wgi.mwgi(a, m + 1).Z)

    def test_regular_lift(self, corpus):
        for i, (a, _, _) in enumerate(corpus[:12]):
            m = 1 + i % 2
            assert approx_equal(wgi.mwgi_regular_lift(a, m), wgi.mwgi(a, m + 1).Z)

    def test_regular_lift_random_inner_inverse(self, corpus, rng):
        # any inner inverse A^- with A A^- A = A works, not only the
        # Moore-Penrose choice
        for a, n, _ in corpus[:6]:
            pinv = moore_penrose(a)
            r = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            inner = pinv + (np.eye(n) - pinv @ a) @ r @ (np.eye(n) - a @ pinv)
            assert approx_equal(a @ inner @ a, a)
            lifted = wgi.mwgi_regular_lift(a, 1, inner=inner)
            assert approx_equal(lifted, wgi.mwgi(a, 2).Z)

    def test_by_route_dispatch(self, corpus):
        a, _, _ = corpus[0]
        z = wgi.mwgi(a, 2).Z
        for route in wgi.Route:
            assert approx_equal(z, wgi.mwgi_by_route(a, 2, route)), route

    def test_by_route_m1_restrictions(self):
        for route in (wgi.Route.RECURSIVE, wgi.Route.REGULAR_LIFT):
            with pytest.raises(ValueError):
                wgi.mwgi_by_route(np.eye(2), 1, route)


class TestVerifyDefinition:
    def test_identity_passes(self):
        assert wgi.verify_definition(np.eye(2), np.eye(2), 1).overall

    def test_nilpotent_zero_passes(self):
        assert wgi.verify_definition(J2, np.zeros((2, 2)), 1).overall

    def test_scaled_identity_fails_ax2(self):
        report = wgi.verify_definition(np.eye(2), 2 * np.eye(2), 1)
        assert not report.checks["ax2"].passed
        assert not report.overall

    def test_check_names(self):
        report = wgi.verify_definition(np.eye(2), np.eye(2), 1)
        assert set(report.checks) == {
            "ax2",
            "def11",
            "wgm_k",
            "hermitian31",
            "coreEP48",
            "limit",
            "idem34",
        }

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            wgi.verify_definition(np.eye(2), np.eye(3), 1)

    def test_full_suite_on_corpus(self, corpus):
        for i, (a, n, k) in enumerate(corpus):
            m = 1 + i % 3
            z = wgi.mwgi(a, m).Z
            report = wgi.verify_definition(a, z, m)
            assert report.overall, (i, n, k, m, report.to_dict())

    def test_core_ep_form_equivalent_to_projector_form(self, corpus):
        # the two weighted conditions single out the same inverse, so both
        # checks pass or fail together on candidates of the right shape
        for i, (a, _, _) in enumerate(corpus[:8]):
            z = wgi.mwgi(a, 1).Z
            report = wgi.verify_definition(a, z, 1)
            assert report.checks["def11"].passed == report.checks["coreEP48"].passed


class TestUniquenessFeedback:
    def test_candidate_equations_single_out_mwgi(self, corpus):
        # feeding the computed inverse back through "X = A X^2" and
        # "A X = (A^D A A^o)^m A^m" must succeed
        for i, (a, _, _) in enumerate(corpus[:10]):
            m = 1 + i % 3
            z = wgi.mwgi(a, m).Z
            assert approx_equal(z, a @ z @ z)
            target = np.linalg.matrix_power(drazin(a) @ a @ core_ep(a), m)
            target = target @ np.linalg.matrix_power(a, m)
            assert approx_equal(a @ z, target)

    def test_drazin_retracts_product_idempotent(self, corpus):
        # p = A Z is idempotent, shares its column space with A^D, and is
        # retracted onto Z by the Drazin inverse: A^D p = Z
        from ginverse.matcore import col_space_contains

        for i, (a, _, _) in enumerate(corpus[:10]):
            m = 1 + i % 3
            z = wgi.mwgi(a, m).Z
            p = a @ z
            d = drazin(a)
            assert approx_equal(p @ p, p)
            assert approx_equal(d @ p, z)
            assert col_space_contains(p, d) and col_space_contains(d, p)


class TestGroupDecomposition:
    def test_identity(self):
        decomp = wgi.group_decomposition(np.eye(2), 1)
        assert approx_equal(decomp.X, np.eye(2))
        assert frobenius(decomp.Y) < 1e-12

    def test_nilpotent(self):
        decomp = wgi.group_decomposition(J2, 1)
        assert frobenius(decomp.X) < 1e-12
        assert approx_equal(decomp.Y, J2)

    def test_block_matrix(self):
        decomp = wgi.group_decomposition(BLOCK3, 1)
        assert approx_equal(decomp.X, np.diag([1.0, 0.0, 0.0]).astype(complex))
        assert approx_equal(decomp.Y, BLOCK3 - np.diag([1.0, 0.0, 0.0]))

    def test_verify_on_corpus(self, corpus):
        for i, (a, n, k) in enumerate(corpus):
            m = 1 + i % 3
            decomp = wgi.group_decomposition(a, m)
            report = decomp.verify(a, m)
            assert report.overall, (i, n, k, m, report.to_dict())

    def test_group_inverse_of_x_is_mwgi(self, corpus):
        for a, _, _ in corpus[:8]:
            decomp = wgi.group_decomposition(a, 1)
            assert approx_equal(group_inverse(decomp.X), wgi.mwgi(a, 1).Z)


class TestPolarIdempotent:
    def test_identity(self):
        polar = wgi.polar_idempotent(np.eye(2), 1)
        assert frobenius(polar.p) < 1e-12

    def test_nilpotent(self):
        polar = wgi.polar_idempotent(J2, 1)
        assert approx_equal(polar.p, np.eye(2))
        # A + p = J2 + I is invertible even though the corner is empty
        assert polar.verify(J2, 1).checks["plus_p_invertible"].passed

    def test_block_matrix(self):
        polar = wgi.polar_idempotent(BLOCK3, 1)
        assert approx_equal(polar.p, np.diag([0.0, 1.0, 1.0]).astype(complex))
        assert polar.verify(BLOCK3, 1).overall

    def test_verify_on_corpus(self, corpus):
        for i, (a, n, k) in enumerate(corpus):
            m = 1 + i % 3
            report = wgi.polar_idempotent(a, m).verify(a, m)
            assert report.overall, (i, n, k, m, report.to_dict())


class TestBCharacterization:
    def test_identity(self):
        assert wgi.b_characterization(np.eye(2), 1).overall

    def test_nilpotent(self):
        assert wgi.b_characterization(J2, 1).overall

    def test_corpus(self, corpus):
        for i, (a, n, k) in enumerate(corpus):
            m = 1 + i % 3
            report = wgi.b_characterization(a, m)
            assert report.overall, (i, n, k, m, report.to_dict())


class TestBcInverse:
    def test_identity(self):
        report = wgi.bc_inverse_check(np.eye(2), 1)
        assert report.overall

    def test_nilpotent(self):
        assert wgi.bc_inverse_check(J2, 1).overall

    def test_corpus(self, corpus):
        for i, (a, n, k) in enumerate(corpus):
            m = 1 + i % 3
            report = wgi.bc_inverse_check(a, m)
            assert report.overall, (i, n, k, m, report.to_dict())


class TestOuterInverse:
    def test_identity(self):
        assert wgi.outer_inverse_subspaces(np.eye(3), 2).overall

    def test_nilpotent(self):
        assert wgi.outer_inverse_subspaces(J2, 1).overall

    def test_block_matrix(self):
        assert wgi.outer_inverse_subspaces(BLOCK3, 1).overall

    def test_corpus(self, corpus):
        for i, (a, n, k) in enumerate(corpus):
            m = 1 + i % 3
            report = wgi.outer_inverse_subspaces(a, m)
            assert report.overall, (i, n, k, m, report.to_dict())


class TestAdditive:
    def test_identity_blocks(self):
        a = np.zeros((4, 4), dtype=complex)
        b = np.zeros((4, 4), dtype=complex)
        a[:2, :2] = np.eye(2)
        b[2:, 2:] = np.eye(2)
        assert approx_equal(wgi.additive_mwgi(a, b, 1), np.eye(4))

    def test_idempotent_plus_nilpotent_blocks(self):
        a = np.zeros((4, 4), dtype=complex)
        a[:2, :2] = IDEMPOTENT
        b = np.zeros((4, 4), dtype=complex)
        b[2:, 2:] = J2
        summed = wgi.additive_mwgi(a, b, 1)
        assert approx_equal(summed, wgi.mwgi(a, 1).Z)  # nilpotent block contributes zero
        assert approx_equal(summed, wgi.mwgi(a + b, 1).Z)

    def test_random_orthogonal_pairs(self, rng):
        for trial in range(8):
            m = 1 + trial % 3
            a, b = orthogonal_pair(rng, 2 + trial % 2, 2, trial % 2, (trial + 1) % 3)
            assert approx_equal(wgi.additive_mwgi(a, b, m), wgi.mwgi(a + b, m).Z)

    def test_violation_detected(self, rng):
        a = with_index(rng, 3, 0)
        with pytest.raises(wgi.OrthogonalityViolation):
            wgi.additive_mwgi(a, a, 1)


class TestIndexOneCollapse:
    def test_group_inverse_for_every_m(self, rng):
        for trial in range(6):
            a = with_index(rng, 2 + trial % 4, trial % 2)
            g = group_inverse(a)
            for m in (1, 2, 3):
                assert approx_equal(wgi.mwgi(a, m).Z, g)

    def test_decomposition_has_zero_nilpotent_part(self, rng):
        a = with_index(rng, 4, 1)
        decomp = wgi.group_decomposition(a, 2)
        assert frobenius(decomp.Y) <= DEFAULT_TOL.nil_atol


class TestDegenerateInputs:
    def test_zero_matrix(self):
        zero = np.zeros((3, 3), dtype=complex)
        assert frobenius(wgi.mwgi(zero, 1).Z) == 0.0
        assert wgi.verify_definition(zero, zero, 2).overall
        assert wgi.polar_idempotent(zero, 1).verify(zero, 1).overall

    @pytest.mark.parametrize("value,expected", [(2.0, 0.5), (1j, -1j), (0.0, 0.0)])
    def test_scalar_matrices(self, value, expected):
        a = np.array([[value]], dtype=complex)
        for m in (1, 2):
            z = wgi.mwgi(a, m).Z
            assert abs(z[0, 0] - expected) < 1e-12
            assert wgi.verify_definition(a, z, m).overall
            assert wgi.b_characterization(a, m).overall

    def test_similarity_transformed_nilpotent(self, rng):
        # powers are exact zeros only up to roundoff once a basis change mixes
        # the entries; every checker must still treat them as zero
        a = with_index(rng, 4, 4)
        assert index(a).k == 4
        z = wgi.mwgi(a, 2).Z
        assert frobenius(z) < 1e-10
        assert wgi.verify_definition(a, z, 2).overall
        assert wgi.group_decomposition(a, 2).verify(a, 2).overall
        assert wgi.polar_idempotent(a, 2).verify(a, 2).overall
        assert wgi.b_characterization(a, 2).overall

    @pytest.mark.parametrize(
        "a,m",
        [
            (with_index(np.random.default_rng(0), 4, 4), 4),
            (np.array([[0.1, 0.01], [-1, -0.1]], dtype=complex), 2),  # A^2 = [[1.7e-18, 0], [0, 0]]
        ],
        ids=["index4", "index2"],
    )
    @pytest.mark.parametrize("route", list(wgi.Route))
    def test_routes_on_similarity_transformed_nilpotent(self, a, m, route):
        # the power route takes the tower of A^m and the lift route that of
        # A^2 A^+, both zero up to roundoff here; each must read it as zero
        assert frobenius(wgi.mwgi_by_route(a, m, route)) < 1e-10


@pytest.fixture
def svd_calls(monkeypatch):
    """A list that grows by one per np.linalg.svd call, with no tower kept."""
    monkeypatch.setattr(classical, "_last", None)
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


@pytest.fixture
def builds(monkeypatch):
    """A list that grows by one per tower built (``classical._build``), with no tower kept."""
    monkeypatch.setattr(classical, "_last", None)
    calls = []
    build = classical._build

    def counting_build(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(classical, "_build", counting_build)
    return calls


class TestOneTowerPerMatrix:
    def test_mwgi_svd_count(self, svd_calls):
        # staircase blocks B_1 = A, B_2, B_3, B_4: B_1..B_3 are factored and B_4 is
        # certified nonsingular by the SVD of B_3, so k SVDs for a fresh matrix and
        # none when the same matrix comes back
        a = with_index(np.random.default_rng(5), 8, 3)  # rank chain 8, 6, 5, 4, 4
        fresh = with_index(np.random.default_rng(7), 8, 3)  # rank chain 8, 7, 6, 5, 5
        svd_calls.clear()
        result = wgi.mwgi(a, 2)
        assert result.k == 3
        assert len(svd_calls) == 3
        svd_calls.clear()
        drazin(a)
        assert len(svd_calls) == 0
        drazin(fresh)
        assert len(svd_calls) == 3
        assert tower(fresh).index.k == 3

    def test_invertible_tower_skips_svd(self, monkeypatch):
        # k = 0: A^0 = I, so U1 = I and A^o is inv(A); only the rank of A is an SVD
        a = with_index(np.random.default_rng(6), 6, 0)
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        t = tower(a)
        assert t.index.k == 0
        assert len(calls) == 1
        assert np.array_equal(t.o, np.linalg.inv(a))


class TestTowerMemo:
    A = with_index(np.random.default_rng(41), 6, 3)

    def test_verify_reuses_mwgi_tower(self, builds):
        z = wgi.mwgi(self.A, 2).Z
        assert wgi.verify_definition(self.A, z, 2).overall
        assert len(builds) == 1

    def test_equal_policy_hits(self, builds):
        t = tower(self.A)
        assert tower(self.A.copy(), TolerancePolicy()) is t
        assert len(builds) == 1

    @pytest.mark.parametrize("change", ["ulp", "signed_zero", "policy"])
    def test_changed_key_misses(self, builds, change):
        # diag(2) + J3 has exact zeros to flip and index 3
        a = np.zeros((4, 4), dtype=np.complex128)
        a[0, 0], a[1, 2], a[2, 3] = 2, 1, 1
        t = tower(a)
        b, tol = a.copy(), DEFAULT_TOL
        if change == "ulp":
            b[0, 0] = np.nextafter(2.0, 3.0)
        elif change == "signed_zero":
            b[3, 0] = complex(-0.0, 0.0)
        else:
            tol = TolerancePolicy(rank_rtol=1e-9)
        rebuilt = tower(b, tol)
        assert rebuilt is not t
        assert rebuilt.index.k == 3
        assert len(builds) == 2
        assert tower(b, tol) is rebuilt

    def test_transpose_misses(self, builds):
        # A.T arrives in column-major order with the same memory words as A
        t = tower(self.A)
        transposed = tower(self.A.T)
        assert transposed is not t
        assert len(builds) == 2
        assert approx_equal(transposed.o, core_ep(np.ascontiguousarray(self.A.T)))

    def test_key_is_private_copy(self, builds):
        a = np.array(self.A)
        t = tower(a)
        assert classical._last[0] is not a
        a[0, 0] += 1.0
        changed = tower(a)
        assert changed is not t
        assert len(builds) == 2
        assert np.array_equal(changed.o, tower(a.copy()).o)

    def test_failed_build_keeps_nothing(self, builds, monkeypatch):
        tower(np.eye(3))
        inv = np.linalg.inv

        def failing_inv(*args, **kwargs):
            raise np.linalg.LinAlgError("singular core")

        monkeypatch.setattr(np.linalg, "inv", failing_inv)
        with pytest.raises(np.linalg.LinAlgError):
            tower(self.A)
        assert classical._last is None
        monkeypatch.setattr(np.linalg, "inv", inv)
        builds.clear()
        assert tower(self.A).index.k == 3
        assert len(builds) == 1

    def test_corrupted_z_still_fails(self, svd_calls):
        z = wgi.mwgi(self.A, 2).Z
        svd_calls.clear()
        report = wgi.verify_definition(self.A, z * (1 + 1e-6), 2)
        assert not report.overall
        assert not report.checks["ax2"].passed
        assert len(svd_calls) == 0

    def test_threads_get_their_own_matrix_tower(self):
        mats = [with_index(np.random.default_rng(50 + i), 4, i % 3 + 1) for i in range(3)]
        expected = [tower(a).o for a in mats]
        wrong = []

        def work(offset):
            for step in range(150):
                j = (offset + step) % len(mats)
                if not np.array_equal(tower(mats[j]).o, expected[j]):
                    wrong.append(j)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


class TestCopyFreeHits:
    """A caller's complex128 array with the kept A's bits hits with no copy and no
    check; every other input is validated first and hits or misses as before."""

    # diag(2) + J3: real, so a float64 copy holds A's values; exact zeros to flip
    A = np.zeros((4, 4), dtype=np.complex128)
    A[0, 0], A[1, 2], A[2, 3] = 2, 1, 1

    @pytest.fixture
    def validations(self, monkeypatch):
        """A list that grows by one per as_square_matrix call in ``tower``."""
        calls = []
        validate = classical.as_square_matrix

        def counting(values):
            calls.append(1)
            return validate(values)

        monkeypatch.setattr(classical, "as_square_matrix", counting)
        return calls

    def test_writable_array_hits_unvalidated(self, builds, validations):
        t = tower(self.A)
        caller = self.A.copy()
        assert caller.flags.writeable
        assert tower(caller) is t
        assert len(validations) == 1  # the build's, none for the hit
        assert len(builds) == 1
        caller[0, 0] = 3.0  # the tower kept its own copy
        assert tower(caller) is not t

    @pytest.mark.parametrize(
        "change, hits",
        [
            ("ulp", False),
            ("signed_zero", False),
            ("fortran", False),
            ("float64", True),
            ("nested_list", True),
        ],
    )
    def test_other_inputs_validate_then_compare(self, builds, validations, change, hits):
        t = tower(self.A)
        b = self.A.copy()
        if change == "ulp":
            b[0, 0] = np.nextafter(2.0, 3.0)
        elif change == "signed_zero":
            b[3, 0] = complex(-0.0, 0.0)
        elif change == "fortran":
            b = np.asfortranarray(b)
        elif change == "float64":
            b = b.real.copy()
        else:
            b = b.tolist()
        assert (tower(b) is t) == hits
        assert len(validations) == 2
        assert len(builds) == (1 if hits else 2)

    def test_nan_still_raises(self):
        tower(self.A)
        b = self.A.copy()
        b[1, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            tower(b)


def _reference_checks(a, z, m):
    """verify_definition's seven checks, each evaluated from its formula with
    matrix_power and no shared products."""
    power = np.linalg.matrix_power

    def eq(x, y):
        return rel_residual(x, y) <= DEFAULT_TOL.eq_rtol

    k = index(a).k
    am, am1, ak = power(a, m), power(a, m + 1), power(a, k)
    q_star = (a @ drazin(a)).conj().T
    ak_star = ak.conj().T
    weighted = am.conj().T @ am1 @ z
    return {
        "ax2": eq(z, a @ z @ z),
        "def11": eq(q_star @ am1 @ z, q_star @ am),
        "wgm_k": eq(z @ power(a, k + 1), ak) and eq(ak_star @ am1 @ z, ak_star @ am),
        "hermitian31": eq(weighted, weighted.conj().T),
        "coreEP48": eq(am1 @ z, a @ core_ep(a) @ am),
        "limit": eq(ak, a @ z @ ak),
        "idem34": all(eq(a @ z, power(a, n) @ power(z, n)) for n in (2, 3)),
    }


class TestProductsFormedOnce:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_z_bits_match_closed_form(self, k, m):
        # Z = U1 (T^-(m+1) (U1* A^m)) from the tower's factors, bit for bit;
        # the closed form (A^o)^{m+1} A^m it replaces agrees to tolerance
        a = with_index(np.random.default_rng(70 + k), 6, k)
        power = np.linalg.matrix_power
        z = wgi.mwgi(a, m).Z
        t = tower(a)
        tinv_power = reduce(np.matmul, [t.tinv] * (m + 1))  # the chain ((T^-1 T^-1) T^-1) ...
        expected = t.u1 @ (tinv_power @ (t.u1.conj().T @ power(a, m)))
        assert np.array_equal(z, expected)
        assert approx_equal(z, power(core_ep(a), m + 1) @ power(a, m))

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_verdicts_match_reference(self, k, m):
        rng = np.random.default_rng(80 + 3 * k + m)
        a = with_index(rng, 6, k)
        n = a.shape[0]
        z = wgi.mwgi(a, m).Z
        noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        # projectors onto null(A^{m+1}) and onto the orthogonal complement of col(A^k)
        am1, ak = np.linalg.matrix_power(a, m + 1), np.linalg.matrix_power(a, k)
        null_am1 = np.eye(n) - moore_penrose(am1) @ am1
        off_ak = np.eye(n) - ak @ moore_penrose(ak)
        candidates = [
            z,
            2 * z,
            z + 1e-3 * noise,
            z + 1e-3 * null_am1 @ noise,
            z + 1e-3 * noise @ off_ak,
        ]
        expected = [_reference_checks(a, candidate, m) for candidate in candidates]
        for i, candidate in enumerate(candidates):
            report = wgi.verify_definition(a, candidate, m)
            assert {name: check.passed for name, check in report.checks.items()} == expected[i], i
        assert all(expected[0].values())
        # every check is failed by at least one corrupted Z
        failed = {name for verdicts in expected for name, passed in verdicts.items() if not passed}
        assert failed == set(expected[0])

    def test_matrix_power_never_raises_a(self, monkeypatch):
        # mwgi and verify_definition read every power, of A and of T^-1, from the
        # tower, which forms each by its own product rule
        a = with_index(np.random.default_rng(9), 6, 3)
        bases = []
        matrix_power = np.linalg.matrix_power

        def recording_power(base, exponent):
            bases.append(np.array(base))
            return matrix_power(base, exponent)

        monkeypatch.setattr(np.linalg, "matrix_power", recording_power)
        for m in (1, 2, 3):
            z = wgi.mwgi(a, m).Z
            wgi.verify_definition(a, z, m)
        assert not bases


class TestDefiningSelfCheck:
    def test_exact_regression_k2_m3(self):
        # a Drazin inverse built from (A^5)^+ missed Z A^3 = A^2 here by 8.3e-8
        rows = [
            [(1, 3), (-3, 2), (-3, 2), (-1, -3)],
            [(1, 2), (-1, 2), (-1, 2), (-2, -2)],
            [(0, 0), (-1, 0), (-1, 0), (1, 0)],
            [(1, 2), (-2, 2), (-2, 2), (-1, -2)],
        ]
        exact = oracle.RationalMatrix.from_rows(rows)
        a = exact.to_complex()
        result = wgi.mwgi(a, 3)
        z, power = result.Z, np.linalg.matrix_power
        assert result.k == 2
        a2_star = power(a, 2).conj().T
        assert approx_equal(z, a @ z @ z)
        assert approx_equal(z @ power(a, 3), power(a, 2))
        assert approx_equal(a2_star @ power(a, 4) @ z, a2_star @ power(a, 3))
        assert wgi.verify_definition(a, z, 3).overall
        assert approx_equal(z, oracle.exact_mwgi(exact, 3).to_complex())

    def test_ill_conditioned_cores(self):
        rng = np.random.default_rng(12)
        for i in range(120):
            a = with_index(rng, 12, 1 + i % 3, core_sigma=(0.1, 10))
            z = wgi.mwgi(a, 2).Z
            assert wgi.verify_definition(a, z, 2).overall, i

    def test_perturbed_core_ep_raises(self, monkeypatch):
        a = with_index(np.random.default_rng(3), 6, 2)
        t = tower(a)
        bad = dataclasses.replace(t, tinv=t.tinv * (1 + 1e-6))
        monkeypatch.setattr(wgi, "tower", lambda *args, **kwargs: bad)
        with pytest.raises(wgi.RepresentationMismatch, match="ax2"):
            wgi.mwgi(a, 2)


def _closed_form_residuals(a, z, m):
    """verify_definition's residuals by the closed forms the factored tower
    replaces: A^o and A^D as n x n matrices, and A^{m+1} Z and A^n Z^n with
    the powers formed first."""
    power = np.linalg.matrix_power
    t = tower(a)
    k = t.index.k
    am, am1z, ak, az = power(a, m), power(a, m + 1) @ z, power(a, k), a @ z
    q_star = (a @ t.d).conj().T
    ak_star, weighted, z2 = ak.conj().T, am.conj().T @ am1z, z @ z
    return {
        "ax2": rel_residual(z, az @ z),
        "def11": rel_residual(q_star @ am1z, q_star @ am),
        "wgm_k": max(
            rel_residual(z @ power(a, k + 1), ak), rel_residual(ak_star @ am1z, ak_star @ am)
        ),
        "hermitian31": rel_residual(weighted, weighted.conj().T),
        "coreEP48": rel_residual(am1z, a @ t.o @ am),
        "limit": rel_residual(ak, az @ ak),
        "idem34": max(
            rel_residual(az, power(a, 2) @ z2), rel_residual(az, power(a, 3) @ (z2 @ z))
        ),
    }


class TestFactoredTower:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_dense_path_never_forms_core_ep_or_drazin(self, monkeypatch, k):
        def formed(self):
            raise AssertionError("A^o or A^D formed")

        a = with_index(np.random.default_rng(90 + k), 8, k)
        monkeypatch.setattr(classical, "_last", None)
        monkeypatch.setattr(classical.Tower, "o", property(formed))
        monkeypatch.setattr(classical.Tower, "d", property(formed))
        for m in (1, 2, 3):
            z = wgi.mwgi(a, m).Z
            assert wgi.verify_definition(a, z, m).overall

    @pytest.mark.parametrize(
        "n,k,seed,r",
        [(6, 1, 70, None), (6, 2, 71, None), (6, 3, 72, None)]
        + [(200, 2, 34, 13), (200, 3, 15, 184)],
    )
    def test_matches_closed_forms(self, n, k, seed, r):
        # Z and every residual of the factored path stay within eq_rtol of the
        # closed forms, at small n and for a thin and a wide core at n = 200
        a = with_index(np.random.default_rng(seed), n, k)
        t = tower(a)
        assert t.index.k == k and (r is None or t.index.rank_chain[k] == r)
        for m in (1, 2) if n > 6 else (1, 2, 3):
            z = wgi.mwgi(a, m).Z
            z_closed = np.linalg.matrix_power(t.o, m + 1) @ np.linalg.matrix_power(a, m)
            assert rel_residual(z, z_closed) <= DEFAULT_TOL.eq_rtol
            report = wgi.verify_definition(a, z, m)
            reference = _closed_form_residuals(a, z, m)
            assert list(report.checks) == list(reference)
            for name, check in report.checks.items():
                assert abs(check.residual - reference[name]) <= DEFAULT_TOL.eq_rtol, name
                assert check.passed == (reference[name] <= DEFAULT_TOL.eq_rtol), name


def _power_caller(frame) -> str:
    """The function that asked for a matrix power, looking through ``_pow``."""
    while frame.f_code.co_name == "_pow":
        frame = frame.f_back
    owner = frame.f_locals.get("self")
    name = frame.f_code.co_name
    return name if owner is None else f"{type(owner).__name__}.{name}"


class TestCheckersJudgeOneZ:
    # index 2, so X = A^2 Z differs from A and Y is a nonzero nilpotent
    A = with_index(np.random.default_rng(43), 6, 2)

    @staticmethod
    def corrupt_z(monkeypatch):
        """Make the one Z formula return Z (1 + 1e-6)."""
        z = wgi._z
        monkeypatch.setattr(wgi, "_z", lambda t, m: z(t, m) * (1 + 1e-6))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_decomposition_catches_corrupted_z(self, monkeypatch, m):
        decomp = wgi.group_decomposition(self.A, m)
        assert decomp.verify(self.A, m).overall
        self.corrupt_z(monkeypatch)
        report = decomp.verify(self.A, m)
        assert {name for name, check in report.checks.items() if not check.passed} == {
            "x_index",
            "group_matches",
        }

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize(
        "checker", [wgi.b_characterization, wgi.bc_inverse_check, wgi.outer_inverse_subspaces]
    )
    def test_checker_catches_corrupted_z(self, monkeypatch, checker, m):
        assert checker(self.A, m).overall
        self.corrupt_z(monkeypatch)
        assert not checker(self.A, m).overall

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_polar_catches_corrupted_z(self, monkeypatch, m):
        mwgi = wgi.mwgi

        def corrupted(*args):
            result = mwgi(*args)
            return dataclasses.replace(result, Z=result.Z * (1 + 1e-6))

        monkeypatch.setattr(wgi, "mwgi", corrupted)
        report = wgi.polar_idempotent(self.A, m).verify(self.A, m)
        assert not report.checks["idempotent"].passed

    def test_decomposition_verify_builds_no_tower(self, svd_calls):
        decomp = wgi.group_decomposition(self.A, 2)
        t = tower(self.A)
        svd_calls.clear()
        assert decomp.verify(self.A, 2).overall
        assert len(svd_calls) == 0
        assert tower(self.A) is t  # A's tower is still the kept one

    def test_matrix_power_of_a_only_without_a_tower(self, monkeypatch):
        # every route, report and the equation, as one fuzz trial runs them;
        # only functions that hold no tower of A raise A itself to a power
        a = with_index(np.random.default_rng(44), 6, 3)
        n = a.shape[0]
        rng = np.random.default_rng(45)
        b, y = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in "by")
        callers = set()
        matrix_power = np.linalg.matrix_power

        def recording_power(base, exponent):
            if np.array_equal(base, a):
                callers.add(_power_caller(sys._getframe(1)))
            return matrix_power(base, exponent)

        monkeypatch.setattr(np.linalg, "matrix_power", recording_power)
        for m in (1, 2, 3):
            z = wgi.mwgi(a, m).Z
            for route in wgi.Route:
                if m >= 2 or route not in (wgi.Route.RECURSIVE, wgi.Route.REGULAR_LIFT):
                    assert approx_equal(wgi.mwgi_by_route(a, m, route), z), route
            assert wgi.verify_definition(a, z, m).overall
            assert wgi.group_decomposition(a, m).verify(a, m).overall
            assert wgi.polar_idempotent(a, m).verify(a, m).overall
            assert wgi.b_characterization(a, m).overall
            assert wgi.bc_inverse_check(a, m).overall
            assert wgi.outer_inverse_subspaces(a, m).overall
            x = eqsolve.solve_general(a, b, m, y).X
            assert eqsolve.residual(a, b, m, x) <= DEFAULT_TOL.eq_rtol
        # PolarData.verify forms A^m itself: it holds no tower of A either
        assert callers <= {
            "mwgi_via_power",
            "mwgi_regular_lift",
            "GroupDecomposition.verify",
            "PolarData.verify",
        }
        assert "GroupDecomposition.verify" in callers  # x_nonzero's A^n


@pytest.fixture
def z_checks(monkeypatch):
    """A list that grows by one per Z whose products with A are formed, with no tower kept."""
    monkeypatch.setattr(classical, "_last", None)
    calls = []
    products = wgi._products

    def counting(t, z, m):
        if z is not wgi._kept_z(t, m):  # the kept Z's products are read, not formed
            calls.append(1)
        return products(t, z, m)

    monkeypatch.setattr(wgi, "_products", counting)
    return calls


def _cold_report(monkeypatch, a, z, m):
    """verify_definition of Z from a tower built afresh, with nothing left by mwgi."""
    monkeypatch.setattr(classical, "_last", None)
    return wgi.verify_definition(a, z, m)


def _same_report(got, expected):
    """Same checks and verdicts; each residual within 1e-12 of the other, relatively."""
    assert list(got.checks) == list(expected.checks)
    for name, check in got.checks.items():
        ref = expected.checks[name]
        assert check.passed == ref.passed, name
        assert abs(check.residual - ref.residual) <= 1e-12 * max(check.residual, ref.residual), name


class TestMwgiHandsOffProducts:
    """mwgi keeps Z with its products and checks in A's tower, for every later checker of
    that Z object; any other candidate is judged afresh."""

    @pytest.mark.parametrize(
        "n, k, m", [(200, 3, 2), (2, 1, 1), (3, 2, 1), (4, 0, 2), (5, 3, 3), (6, 2, 2), (6, 3, 1)]
    )
    def test_same_report_as_a_cold_tower(self, monkeypatch, z_checks, n, k, m):
        a = with_index(np.random.default_rng(100 + n + k), n, k)
        z = wgi.mwgi(a, m).Z
        warm = wgi.verify_definition(a, z, m)
        assert len(z_checks) == 1  # verify_definition formed no product mwgi had formed
        cold = _cold_report(monkeypatch, a, z, m)
        assert len(z_checks) == 2
        assert warm.overall
        _same_report(warm, cold)

    def test_repeat_mwgi_reads_the_kept_z(self, z_checks):
        a = with_index(np.random.default_rng(7), 6, 2)
        z = wgi.mwgi(a, 2).Z
        assert wgi.mwgi(a, 2).Z is z
        assert len(z_checks) == 1

    @pytest.mark.parametrize(
        "moved",
        [
            lambda x: x + 1e-6,
            lambda x: np.nextafter(x.real, np.inf) + 1j * x.imag,  # one ulp
        ],
    )
    def test_moved_entry_is_judged_afresh(self, monkeypatch, z_checks, moved):
        a = with_index(np.random.default_rng(8), 6, 2)
        z = wgi.mwgi(a, 2).Z
        bad = z.copy()
        bad[1, 2] = moved(bad[1, 2])
        report = wgi.verify_definition(a, bad, 2)
        assert len(z_checks) == 2
        _same_report(report, _cold_report(monkeypatch, a, bad, 2))

    def test_moved_entry_fails_ax2(self):
        a = with_index(np.random.default_rng(8), 6, 2)
        z = wgi.mwgi(a, 2).Z
        bad = z.copy()
        bad[1, 2] += 1e-6
        assert not wgi.verify_definition(a, bad, 2).checks["ax2"].passed
        assert wgi.verify_definition(a, z, 2).overall

    def test_signed_zero_is_judged_afresh(self, z_checks):
        a = np.array([[1, 0, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
        z = wgi.mwgi(a, 1).Z
        assert z[2, 2] == 0
        flipped = z.copy()
        flipped[2, 2] = -flipped[2, 2]  # a signed zero: equal values, other bits
        assert not np.array_equal(flipped.view(np.int64), z.view(np.int64))
        assert wgi.verify_definition(a, flipped, 1).overall
        assert len(z_checks) == 2

    def test_next_weight_is_never_served_this_ones_products(self, monkeypatch, z_checks):
        a = with_index(np.random.default_rng(9), 6, 3)
        z1 = wgi.mwgi(a, 1).Z
        # the same Z bits under m + 1: A^{m+1} Z and wgm_k must be formed for m + 1
        wrong = wgi.verify_definition(a, z1, 2)
        assert len(z_checks) == 2
        assert not wrong.checks["wgm_k"].passed
        z2 = wgi.mwgi(a, 2).Z
        assert len(z_checks) == 3
        assert not approx_equal(z1, z2)
        assert wgi.verify_definition(a, z2, 2).overall
        _same_report(wrong, _cold_report(monkeypatch, a, z1, 2))

    @pytest.mark.parametrize("k, m", [(0, 2), (2, 1), (2, 3), (3, 2)])
    def test_store_holds_no_product_of_z_after_verify(self, k, m):
        # z: a candidate other than the kept Z, here a one-ulp move of it
        t = classical._build(with_index(np.random.default_rng(20 + k + m), 6, k), DEFAULT_TOL)
        kept = wgi.mwgi(t, m).Z
        z = kept.copy()
        z[0, 0] = np.nextafter(z[0, 0].real, np.inf) + 1j * z[0, 0].imag
        az = t.a @ z
        products = [_bits(p) for p in (az, az @ z, t.power(m) @ az)]

        def stored():
            values = []
            for value in t._kept.values():  # the kept Z's products are one tuple
                values.extend(value if isinstance(value, tuple) else (value,))
            return [_bits(v) for v in values if isinstance(v, np.ndarray)]

        wgi.verify_definition(t, kept, m)  # the powers of A and T^-1 that z's checks read
        before = len(t._kept)
        report = wgi.verify_definition(t, z, m)
        assert len(t._kept) == before and not any(p in stored() for p in products)
        assert t._kept[("z", m)] is kept
        assert _bits(wgi.verify_definition(t, z, m)) == _bits(report)

    def test_second_verify_gives_the_same_report(self, z_checks):
        a = with_index(np.random.default_rng(10), 6, 2)
        z = wgi.mwgi(a, 2).Z
        first = wgi.verify_definition(a, z, 2)
        second = wgi.verify_definition(a, z, 2)
        assert len(z_checks) == 1  # the kept Z's checks are read, not formed again
        assert all(second.checks[name] is check for name, check in first.checks.items())
        assert _bits(second) == _bits(first)

    @pytest.mark.parametrize(
        "a, move",
        [
            (with_index(np.random.default_rng(14), 6, 2), lambda x: x),  # a copy
            (with_index(np.random.default_rng(14), 6, 2), lambda x: np.nextafter(x, np.inf)),
            (BLOCK3, lambda x: -x),  # a signed zero: Z[2, 2] is 0
        ],
    )
    def test_other_candidate_matches_a_cold_tower(self, monkeypatch, a, move):
        def reports(z):
            return [
                wgi.verify_definition(a, z, 1),
                wgi.b_characterization(a, 1, z=z),
                wgi.outer_inverse_subspaces(a, 1, z=z),
            ]

        z = wgi.mwgi(a, 1).Z
        kept = [c for r in reports(z) for c in r.checks.values()]  # made before other's
        other = z.copy()
        other[2, 2] = complex(move(other[2, 2].real), other[2, 2].imag)
        warm = reports(other)
        assert not any(c is k for r in warm for c in r.checks.values() for k in kept)
        monkeypatch.setattr(classical, "_last", None)
        assert _bits(warm) == _bits(reports(other))

    def test_racing_verifies_agree(self, monkeypatch):
        a = with_index(np.random.default_rng(11), 40, 2)
        z = wgi.mwgi(a, 2).Z
        reports = [None] * 4

        def run(i):
            reports[i] = wgi.verify_definition(a, z, 2)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(reports))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        cold = _cold_report(monkeypatch, a, z, 2)
        for report in reports:
            _same_report(report, cold)


class TestOneCheckedZ:
    """The tower keeps each Z that mwgi checked for the tower's life, with its products
    and checks, and every later default Z reads the kept one."""

    def test_one_check_per_tower_and_m(self, monkeypatch, z_checks):
        a = with_index(np.random.default_rng(12), 6, 2)
        z = wgi.mwgi(a, 2).Z
        evaluated = []
        evaluate = wgi._evaluate

        def recording(identities, labels, *args):
            evaluated.extend(labels)
            return evaluate(identities, labels, *args)

        monkeypatch.setattr(wgi, "_evaluate", recording)
        report = wgi.verify_definition(a, z, 2)
        assert evaluated == [label for label in report.checks if label not in ("ax2", "wgm_k")]
        assert report.overall
        assert tower(a)._kept[("z", 2)] is z
        assert wgi.verify_definition(a, z, 2).checks["ax2"] is report.checks["ax2"]
        assert wgi.group_decomposition(a, 2).verify(a, 2).overall
        assert wgi.b_characterization(a, 2).overall
        assert wgi.bc_inverse_check(a, 2).overall
        assert wgi.outer_inverse_subspaces(a, 2).overall
        assert wgi.mwgi(a, 2).Z is z
        assert len(z_checks) == 1
        fresh = wgi._z(classical._build(np.array(a), DEFAULT_TOL), 2)
        assert _bits(fresh) == _bits(z)

    def test_k0_residuals_match_identity_products(self):
        # at k = 0, A^0 = I: leaving out the products with I moves no residual bit
        a = with_index(np.random.default_rng(13), 6, 0)
        t = tower(a)
        assert t.index.k == 0
        z = wgi.mwgi(a, 2).Z
        report = wgi.verify_definition(a, z, 2)
        eye = np.eye(6, dtype=np.complex128)
        az, am = a @ z, a @ a
        am1z = am @ az
        g_star = (np.linalg.matrix_power(t.tinv, 1) @ eye).conj().T
        expected = {
            "wgm_k": max(rel_residual(z @ a, eye), rel_residual(eye @ am1z, eye @ am)),
            "limit": rel_residual(eye, az @ eye),
            "def11": rel_residual(g_star @ (a.conj().T @ am1z), g_star @ (a.conj().T @ am)),
        }
        for name, residual in expected.items():
            assert report.checks[name].residual.hex() == residual.hex(), name


def _bits(value):
    """A result as comparable raw bits: arrays by dtype, shape and bytes, floats by hex,
    dataclasses and dicts entry by entry."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return tuple((f.name, _bits(getattr(value, f.name))) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return tuple((key, _bits(item)) for key, item in value.items())
    return value


def _outcome(call, a, tol=DEFAULT_TOL):
    """The bits of call(a, tol), or the type and message of what it raised."""
    try:
        return _bits(call(a, tol))
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


_B = np.random.default_rng(60).standard_normal((6, 6)) + 0j
_Y = np.random.default_rng(61).standard_normal((6, 6)) + 0j

# every public function that takes A or its Tower, as call(a, tol) on a 6 x 6 A
_TOWER_CALLS = {
    "mwgi": lambda a, tol: wgi.mwgi(a, 2, tol),
    "mwgi_via_power[m=1]": lambda a, tol: wgi.mwgi_via_power(a, 1, tol),
    "mwgi_via_power[m=3]": lambda a, tol: wgi.mwgi_via_power(a, 3, tol),
    "mwgi_normal_equation": lambda a, tol: wgi.mwgi_normal_equation(a, 2, tol),
    "mwgi_drazin_solve": lambda a, tol: wgi.mwgi_drazin_solve(a, 2, tol),
    "mwgi_step": lambda a, tol: wgi.mwgi_step(a, _B, tol),
    "mwgi_core_of_drazin": lambda a, tol: wgi.mwgi_core_of_drazin(a, 2, tol),
    "mwgi_core_chain": lambda a, tol: wgi.mwgi_core_chain(a, 2, tol),
    "mwgi_regular_lift": lambda a, tol: wgi.mwgi_regular_lift(a, 2, tol),
    **{
        f"mwgi_by_route[{route.value}]": lambda a, tol, route=route: wgi.mwgi_by_route(
            a, 3, route, tol
        )
        for route in wgi.Route
    },
    "verify_definition": lambda a, tol: wgi.verify_definition(a, _B, 2, tol),
    "verify_definition[mwgi Z]": lambda a, tol: wgi.verify_definition(
        a, wgi.mwgi(a, 2, tol).Z, 2, tol
    ),
    "group_decomposition": lambda a, tol: wgi.group_decomposition(a, 2, tol),
    "GroupDecomposition.verify": lambda a, tol: wgi.GroupDecomposition(_B, _Y).verify(a, 2, tol),
    "polar_idempotent": lambda a, tol: wgi.polar_idempotent(a, 2, tol),
    "PolarData.verify": lambda a, tol: wgi.PolarData(_B, _Y).verify(a, 2, tol),
    "b_characterization": lambda a, tol: wgi.b_characterization(a, 2, tol),
    "bc_inverse_check": lambda a, tol: wgi.bc_inverse_check(a, 2, tol),
    "outer_inverse_subspaces": lambda a, tol: wgi.outer_inverse_subspaces(a, 2, tol),
    "eqsolve.residual": lambda a, tol: eqsolve.residual(a, _B, 2, _Y, tol),
    "eqsolve.solve_general": lambda a, tol: eqsolve.solve_general(a, _B, 2, _Y, tol),
    "eqsolve.solve_in_range": lambda a, tol: eqsolve.solve_in_range(a, _B, 2, tol),
    "drazin": drazin,
    "group_inverse": group_inverse,
    "core_inverse": classical.core_inverse,
    "core_ep": core_ep,
}


class TestTowerParity:
    """Passing A's Tower gives the bits that passing A gives."""

    # index 1 (group and core inverses exist) and index 3 (they raise)
    MATRICES = {k: with_index(np.random.default_rng(61 + k), 6, k) for k in (1, 3)}

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("name", list(_TOWER_CALLS))
    def test_tower_gives_same_bits(self, name, k):
        a, call = self.MATRICES[k], _TOWER_CALLS[name]
        expected = _outcome(call, a)
        assert _outcome(call, classical._build(np.array(a), DEFAULT_TOL)) == expected
        assert _outcome(call, tower(a)) == expected

    @pytest.mark.parametrize("name", list(_TOWER_CALLS))
    def test_tower_under_another_policy_raises(self, name):
        t = tower(self.MATRICES[1])
        with pytest.raises(ValueError, match="built under"):
            _TOWER_CALLS[name](t, TolerancePolicy(rank_rtol=1e-9))

    def test_additive_takes_towers(self):
        a, b = orthogonal_pair(np.random.default_rng(64), 3, 3, 2, 1)
        expected = _bits(wgi.additive_mwgi(a, b, 2))
        b_tower = classical._build(np.array(b), DEFAULT_TOL)
        assert _bits(wgi.additive_mwgi(tower(a), b_tower, 2)) == expected
        with pytest.raises(ValueError, match="built under"):
            wgi.additive_mwgi(a, tower(b), 2, TolerancePolicy(rank_rtol=1e-9))

    def test_tower_keeps_its_policy(self):
        tol = TolerancePolicy(eq_rtol=1e-7)
        t = tower(self.MATRICES[3], tol)
        assert t.tol == tol
        assert tower(t, tol) is t

    def test_given_tower_is_used_as_it_is(self):
        # a corrupted tower that the memo never saw: mwgi checks the Z it gives
        t = tower(self.MATRICES[3])
        bad = dataclasses.replace(t, tinv=t.tinv * (1 + 1e-6))
        with pytest.raises(wgi.RepresentationMismatch, match="ax2"):
            wgi.mwgi(bad, 2)
        assert classical._last[2] is t


# the functions that read A through its tower (call(a), with the weight of the
# mwgi that warms that tower first)
_READS_A = {
    "mwgi_via_power[m=2]": (2, lambda a: wgi.mwgi_via_power(a, 2)),
    "mwgi_via_power[m=3]": (3, lambda a: wgi.mwgi_via_power(a, 3)),
    "mwgi_step": (2, lambda a: wgi.mwgi_step(a, _B)),
    "mwgi_regular_lift": (3, lambda a: wgi.mwgi_regular_lift(a, 2)),
    "PolarData.verify": (2, lambda a: wgi.PolarData(_B, _Y).verify(a, 2)),
}


class TestColdCallsMatchWarm:
    """A function that reads A gets it from A's tower: called on a fresh A it builds that
    tower once and leaves it kept, and gives the bits it gives after mwgi(A, m)."""

    A = with_index(np.random.default_rng(66), 6, 2)

    @pytest.mark.parametrize("name", list(_READS_A))
    def test_cold_matches_warm(self, monkeypatch, builds, name):
        m, call = _READS_A[name]
        cold = _bits(call(self.A))
        assert len(builds) == 1
        assert tower(self.A) is classical._last[2]
        assert len(builds) == 1  # a hit: the cold call kept A's tower
        monkeypatch.setattr(classical, "_last", None)
        wgi.mwgi(self.A, m)
        assert _bits(call(self.A)) == cold
        assert len(builds) == 2

    def test_additive_cold_matches_warm(self, monkeypatch, builds):
        a, b = orthogonal_pair(np.random.default_rng(67), 3, 3, 2, 1)
        cold = _bits(wgi.additive_mwgi(a, b, 2))
        assert len(builds) == 2
        assert tower(b) is classical._last[2]  # the last tower built is kept
        assert len(builds) == 2
        monkeypatch.setattr(classical, "_last", None)
        wgi.mwgi(a, 2)
        assert _bits(wgi.additive_mwgi(a, b, 2)) == cold
        assert len(builds) == 4


class TestCheckersTakeZ:
    """Each checker judges the candidate Z it is given; left out, Z comes from A's tower."""

    A = with_index(np.random.default_rng(43), 6, 2)
    CHECKERS = {
        "decomposition": lambda a, m, z: wgi.group_decomposition(a, m, z=z).verify(a, m, z=z),
        "b_characterization": lambda a, m, z: wgi.b_characterization(a, m, z=z),
        "bc_inverse": lambda a, m, z: wgi.bc_inverse_check(a, m, z=z),
        "outer_inverse": lambda a, m, z: wgi.outer_inverse_subspaces(a, m, z=z),
        "polar": lambda a, m, z: wgi.polar_idempotent(a, m, z=z).verify(a, m),
    }

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("name", list(CHECKERS))
    def test_given_z_matches_default(self, name, m):
        check = self.CHECKERS[name]
        z = wgi.mwgi(self.A, m).Z
        assert _bits(check(self.A, m, z)) == _bits(check(self.A, m, None))

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("name", list(CHECKERS))
    def test_given_corrupted_z_fails(self, name, m):
        z = wgi.mwgi(self.A, m).Z * (1 + 1e-6)
        assert not self.CHECKERS[name](self.A, m, z).overall

    def test_solve_general_uses_given_z(self):
        z = wgi.mwgi(self.A, 2).Z
        given = eqsolve.solve_general(self.A, _B, 2, _Y, z=z)
        assert _bits(given) == _bits(eqsolve.solve_general(self.A, _B, 2, _Y))
        bad = eqsolve.solve_general(self.A, _B, 2, z=z * (1 + 1e-6))
        assert eqsolve.residual(self.A, _B, 2, bad.X) > DEFAULT_TOL.eq_rtol

    @pytest.mark.parametrize("z", [np.eye(5), np.full((6, 6), np.nan)])
    def test_unusable_candidate_raises(self, z):
        with pytest.raises(ValueError):
            wgi.b_characterization(self.A, 2, z=z)


class TestFormedOperandsNotCopied:
    """The routes check the operands they form from A (A^m, A^D, A A^D,
    A^{m+1} A^o, A^2 A^+) for finiteness in place, with no copy."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_routes_do_not_copy(self, monkeypatch, m):
        t = tower(with_index(np.random.default_rng(80 + m), 5, 2))
        z = wgi.mwgi(t, m).Z

        def copying(values):
            raise AssertionError("a formed operand was copied")

        for module in (wgi, classical):
            monkeypatch.setattr(module, "as_matrix", copying)
        monkeypatch.setattr(classical, "as_square_matrix", copying)
        for route in (
            wgi.Route.POWER_REDUCTION,
            wgi.Route.NORMAL_EQUATION,
            wgi.Route.DRAZIN_SOLVE,
            wgi.Route.CORE_OF_DRAZIN,
            wgi.Route.CORE_CHAIN,
            wgi.Route.REGULAR_LIFT,
        ):
            if m >= 2 or route is not wgi.Route.REGULAR_LIFT:
                assert approx_equal(wgi.mwgi_by_route(t, m, route), z), route

    def test_overflowing_power_raises_value_error(self):
        a = 1e200 * with_index(np.random.default_rng(84), 4, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            for route in (wgi.mwgi_via_power, wgi.mwgi_regular_lift):
                with pytest.raises(ValueError, match="finite"):
                    route(a, 2)


class TestB0FormedOnce:
    """b0 = (A^D)^{m+1} A^m is formed once per tower and m, from the (A^D)^{m+1}
    that the normal route reads, and bc_inverse_check and outer_inverse_subspaces
    share it."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_shared(self, monkeypatch, m):
        t = classical._build(with_index(np.random.default_rng(85 + m), 5, 2), DEFAULT_TOL)
        z, d = wgi.mwgi(t, m).Z, t.d
        formed = []
        keep = classical.Tower.keep

        def recording(self, key, make):
            if key not in self._kept:
                formed.append(key)
            return keep(self, key, make)

        monkeypatch.setattr(classical.Tower, "keep", recording)
        wgi.mwgi_normal_equation(t, m)
        assert wgi.bc_inverse_check(t, m, z=z).overall
        assert wgi.outer_inverse_subspaces(t, m, z=z).overall
        d_powers = sorted(key[1] for key in formed if isinstance(key, tuple) and key[0] == "d")
        assert d_powers == list(range(2, m + 2))
        assert formed.count(("b0", m)) == 1
        b0 = t._kept[("b0", m)]
        assert classical._same_bits(b0, reduce(np.matmul, [d] * (m + 1)) @ t.power(m))


class TestOuterCheckShared:
    """b_characterization's bab and outer_inverse_subspaces' outer both check Z A Z = Z,
    and its herm and verify_definition's hermitian31 both check (A^m)* A^{m+1} Z
    Hermitian: one check each for the Z that A's tower keeps, whichever checker runs
    first, and afresh for any other Z."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_kept_z_checked_once(self, m):
        a = with_index(np.random.default_rng(90 + m), 5, 2)
        for b_first in (True, False):
            t = classical._build(a, DEFAULT_TOL)
            z = wgi.mwgi(t, m).Z
            if b_first:
                b = wgi.b_characterization(t, m).checks
            outer = wgi.outer_inverse_subspaces(t, m, z=z).checks["outer"]
            hermitian31 = wgi.verify_definition(t, z, m).checks["hermitian31"]
            if not b_first:
                b = wgi.b_characterization(t, m).checks
            assert b["bab"] is outer and b["herm"] is hermitian31
            assert outer.residual.hex() == rel_residual(z @ t.a @ z, z).hex()
            am = t.power(m)
            w = am.conj().T @ (am @ (t.a @ z))
            assert hermitian31.residual.hex() == rel_residual(w, w.conj().T).hex()

    def test_explicit_z_forms_its_own(self):
        t = classical._build(with_index(np.random.default_rng(94), 5, 2), DEFAULT_TOL)
        z = wgi.mwgi(t, 2).Z
        kept = wgi.outer_inverse_subspaces(t, 2).checks["outer"]
        for other, passes in ((z.copy(), True), (z + 1e-3, False)):
            expected = rel_residual(other @ t.a @ other, other).hex()
            for check in (
                wgi.b_characterization(t, 2, z=other).checks["bab"],
                wgi.outer_inverse_subspaces(t, 2, z=other).checks["outer"],
            ):
                assert check is not kept
                assert check.residual.hex() == expected and check.passed is passes
        assert wgi.b_characterization(t, 2).checks["bab"] is kept


class TestCheckersRankInBatches:
    """Each checker with rank tests makes one s-only SVD per shape of matrix it ranks."""

    def test_s_only_calls(self, monkeypatch):
        a = with_index(np.random.default_rng(89), 5, 2)
        t = tower(a)
        z = wgi.mwgi(t, 2).Z
        polar = wgi.polar_idempotent(t, 2, z=z)
        calls = []
        svd = np.linalg.svd

        def counting(x, *args, **kwargs):
            if kwargs.get("compute_uv", True) is False:
                calls.append(1 if np.ndim(x) == 2 else len(x))
            return svd(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        assert polar.verify(t, 2).overall
        assert wgi.b_characterization(t, 2, z=z).overall
        assert wgi.bc_inverse_check(t, 2, z=z).overall
        assert wgi.outer_inverse_subspaces(t, 2, z=z).overall
        # the 17 matrices the four checkers rank, in 8 calls (one per checker and shape)
        assert len(calls) == 8 and sum(calls) == 17
