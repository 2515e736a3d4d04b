import numpy as np
import pytest

from ginverse import eqsolve, wgi
from ginverse.generators import with_index
from ginverse.matcore import DEFAULT_TOL, approx_equal, frobenius

J2 = np.array([[0, 1], [0, 0]], dtype=complex)
BLOCK3 = np.array([[1, 0, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)


class TestResidual:
    def test_exact_solution(self):
        assert eqsolve.residual(np.eye(2), np.eye(2), 1, np.eye(2)) == 0.0

    def test_nilpotent_equation_is_vacuous(self, rng):
        b = rng.standard_normal((2, 2))
        assert eqsolve.residual(J2, b, 1, np.zeros((2, 2))) == 0.0

    def test_doubled_candidate_reads_one(self):
        # || 2I - I || / || I ||
        value = eqsolve.residual(np.eye(2), np.eye(2), 1, 2 * np.eye(2))
        assert value == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            eqsolve.residual(np.eye(2), np.eye(3), 1, np.eye(2))

    @pytest.mark.parametrize("m", [0, -1])
    def test_bad_m(self, m):
        with pytest.raises(ValueError):
            eqsolve.residual(J2, np.eye(2), m, np.eye(2))


class TestSolveGeneral:
    def test_identity_gives_b(self, rng):
        b = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        solution = eqsolve.solve_general(np.eye(2), b, 1)
        assert approx_equal(solution.X, b)
        assert not solution.free_part_used

    def test_nilpotent_passes_y_through(self, rng):
        b = rng.standard_normal((2, 2))
        y = rng.standard_normal((2, 2))
        solution = eqsolve.solve_general(J2, b, 1, y)
        assert approx_equal(solution.X, y)  # Z = 0 so X = (I - 0) Y
        assert solution.free_part_used
        assert eqsolve.residual(J2, b, 1, solution.X) <= DEFAULT_TOL.eq_rtol

    def test_block_matrix_random_terms(self, rng):
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        solution = eqsolve.solve_general(BLOCK3, b, 2, y)
        assert eqsolve.residual(BLOCK3, b, 2, solution.X) <= 1e-8

    def test_corpus(self, corpus, rng):
        for i, (a, n, _) in enumerate(corpus):
            m = 1 + i % 3
            b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            solution = eqsolve.solve_general(a, b, m, y)
            assert eqsolve.residual(a, b, m, solution.X) <= DEFAULT_TOL.eq_rtol

    def test_completeness(self, corpus, rng):
        # any solution X0 can be rewritten as Z B + (I - Z A) X0
        for i, (a, n, _) in enumerate(corpus[:10]):
            m = 1 + i % 3
            b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            x0 = eqsolve.solve_general(a, b, m, y).X
            z = wgi.mwgi(a, m).Z
            rebuilt = z @ b + (np.eye(n) - z @ a) @ x0
            assert approx_equal(x0, rebuilt)


class TestSolveInRange:
    def test_identity(self, rng):
        b = rng.standard_normal((2, 2))
        assert approx_equal(eqsolve.solve_in_range(np.eye(2), b, 1).X, b)

    def test_nilpotent(self, rng):
        b = rng.standard_normal((2, 2))
        assert frobenius(eqsolve.solve_in_range(J2, b, 1).X) < 1e-12

    def test_block_matrix(self, rng):
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        solution = eqsolve.solve_in_range(BLOCK3, b, 1)
        assert eqsolve.residual(BLOCK3, b, 1, solution.X) <= 1e-8
        z = wgi.mwgi(BLOCK3, 1).Z
        assert approx_equal(solution.X, z @ b)

    def test_uniqueness_witness(self, corpus, rng):
        # a second solution with columns inside col(Z) must coincide: build one
        # from the general form with a free term already in the range of Z
        from ginverse.matcore import col_space_contains

        for i, (a, n, _) in enumerate(corpus[:10]):
            m = 1 + i % 3
            b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            z = wgi.mwgi(a, m).Z
            x = eqsolve.solve_in_range(a, b, m).X
            assert col_space_contains(z, x)
            r = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            other = eqsolve.solve_general(a, b, m, z @ r).X
            if col_space_contains(z, other):
                assert approx_equal(other, x)

    def test_in_range_solution_is_general_solution_with_zero_y(self, rng):
        a = with_index(rng, 4, 2)
        b = rng.standard_normal((4, 4))
        assert approx_equal(
            eqsolve.solve_in_range(a, b, 1).X, eqsolve.solve_general(a, b, 1).X
        )
