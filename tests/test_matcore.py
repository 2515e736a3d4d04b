import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ginverse import eqsolve, generators, oracle, shiftlab, wgi
from ginverse.classical import drazin
from ginverse.generators import with_index
from ginverse.matcore import (
    DEFAULT_TOL,
    MatrixFormatError,
    TolerancePolicy,
    approx_equal,
    as_matrix,
    col_space_contains,
    col_space_equal,
    conj_transpose,
    frobenius,
    matrix_from_json,
    matrix_to_json,
    numerical_rank,
    rel_residual,
)
from ginverse.report import Check, VerificationReport, _adjoint_pair, _eq_check, _merge
from ginverse.report import _zero_pair

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def complex_array(shape):
    return st.tuples(
        arrays(np.float64, shape, elements=finite),
        arrays(np.float64, shape, elements=finite),
    ).map(lambda parts: parts[0] + 1j * parts[1])


def complex_matrices(max_side=4):
    return st.tuples(st.integers(1, max_side), st.integers(1, max_side)).flatmap(complex_array)


def matrix_pairs(max_side=3):
    """Conformable pairs (n x m, m x k) for product laws."""
    return st.tuples(
        st.integers(1, max_side), st.integers(1, max_side), st.integers(1, max_side)
    ).flatmap(
        lambda dims: st.tuples(
            complex_array((dims[0], dims[1])), complex_array((dims[1], dims[2]))
        )
    )


class TestConjTranspose:
    def test_identity(self):
        i2 = np.eye(2, dtype=complex)
        assert np.array_equal(conj_transpose(i2), i2)

    def test_one_by_one_conjugates(self):
        assert conj_transpose(as_matrix([[1j]]))[0, 0] == -1j

    def test_entrywise_definition(self):
        a = as_matrix([[1 + 1j, 2], [0, 3 - 1j]])
        expected = np.array([[1 - 1j, 0], [2, 3 + 1j]])
        assert np.array_equal(conj_transpose(a), expected)

    @settings(max_examples=60, deadline=None)
    @given(complex_matrices())
    def test_involution_bit_exact(self, a):
        assert np.array_equal(conj_transpose(conj_transpose(a)), a)

    @settings(max_examples=40, deadline=None)
    @given(matrix_pairs())
    def test_product_rule(self, pair):
        a, b = pair
        assert approx_equal(conj_transpose(a @ b), conj_transpose(b) @ conj_transpose(a))


class TestNumericalRank:
    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 3))) == 0

    def test_identity(self):
        assert numerical_rank(np.eye(4)) == 4

    def test_rank_one(self):
        assert numerical_rank(as_matrix([[1, 1], [1, 1]])) == 1

    @settings(max_examples=40, deadline=None)
    @given(complex_matrices())
    def test_rank_of_adjoint(self, a):
        assert numerical_rank(a) == numerical_rank(conj_transpose(a))


class TestApproxEqual:
    def test_equal(self):
        assert approx_equal(np.eye(2), np.eye(2))

    def test_not_equal(self):
        assert not approx_equal(np.eye(2), 2 * np.eye(2))

    def test_threshold_arithmetic(self):
        a = np.eye(2, dtype=complex) / np.sqrt(2)  # unit Frobenius norm
        assert approx_equal(a, a + 1e-14 * np.ones((2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            approx_equal(np.eye(2), np.eye(3))


def _reference_norm(x):
    """The bits frobenius must give: the root of one zdotc on the memory-order ravel for a
    complex128 matrix, and np.linalg.norm(X, "fro") for every other input."""
    x = np.asarray(x)
    if x.ndim == 2 and x.dtype == np.complex128:
        v = x.ravel(order="K")
        return math.sqrt(np.vdot(v, v).real)
    return float(np.linalg.norm(x, "fro"))


def _norm_residual(a, b):
    """rel_residual's formula with the reference norm, the reference for its bits."""
    a, b = np.asarray(a), np.asarray(b)
    return _reference_norm(a - b) / max(1.0, _reference_norm(a), _reference_norm(b))


_KERNEL_RNG = np.random.default_rng(33)
_C = _KERNEL_RNG.standard_normal((4, 5)) + 1j * _KERNEL_RNG.standard_normal((4, 5))
_R = _KERNEL_RNG.standard_normal((5, 4))

_KERNEL_INPUTS = {
    "complex C-order": _C,
    "complex F-order": np.asfortranarray(_C),
    "complex big-endian": _C.astype(">c16"),
    "conj-transposed view": np.conj(_C).T,
    "float64": _R,
    "float64 transposed view": _R.T,
    "int": np.arange(-6, 6).reshape(3, 4),
    "bool": np.eye(3, dtype=bool),
    "1x1": np.array([[3 - 4j]]),
    "zero": np.zeros((3, 3), dtype=complex),
    "near 1e154": 1e154 / 8 * _C,
    "near 1e154, unpickled": pickle.loads(pickle.dumps(1e154 / 8 * _C)),  # dtype an equal copy
    "one entry near 1e154": np.diag([1.0, 1.3e154]).astype(complex),
}


def _moved(x):
    """x with its first entry moved, in x's dtype and memory layout."""
    y = x.copy(order="K")
    y.flat[0] = y.flat[0] + 1 if x.dtype.kind in "iu" else 1.5 * y.flat[0] + 0.5
    return y


class TestFrobeniusKernel:
    """frobenius and rel_residual take a complex128 matrix's norm from one zdotc on its
    memory-order ravel, within 2 ulps of np.linalg.norm(X, "fro"), and keep the bits of
    np.linalg.norm for every other input."""

    @pytest.mark.parametrize("name", list(_KERNEL_INPUTS))
    def test_frobenius_bits(self, name):
        x = _KERNEL_INPUTS[name]
        assert frobenius(x).hex() == _reference_norm(x).hex()
        norm = float(np.linalg.norm(x, "fro"))
        assert abs(frobenius(x) - norm) <= 2 * np.spacing(norm)

    # numpy subtracts no bools, so rel_residual takes none
    @pytest.mark.parametrize("name", [name for name in _KERNEL_INPUTS if name != "bool"])
    def test_rel_residual_bits(self, name):
        x = _KERNEL_INPUTS[name]
        y = _moved(x)
        for left, right in ((x, y), (y, x), (x, x), (x, np.zeros(x.shape))):
            assert rel_residual(left, right).hex() == _norm_residual(left, right).hex()

    def test_single_precision_as_norm(self):
        x = np.full((2, 3), 0.1, dtype=np.float32)
        assert frobenius(x).hex() == float(np.linalg.norm(x, "fro")).hex()

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
    def test_non_matrix_raises_as_norm_does(self, shape):
        with pytest.raises(ValueError):
            np.linalg.norm(np.ones(shape), "fro")
        with pytest.raises(ValueError):
            frobenius(np.ones(shape))


_D = _KERNEL_RNG.standard_normal((5, 4)) + 1j * _KERNEL_RNG.standard_normal((5, 4))
_WIDE = _KERNEL_RNG.standard_normal((8, 15)) + 1j * _KERNEL_RNG.standard_normal((8, 15))

# 4 x 5 complex128 operands in every memory layout a checker's pair can take
_LAYOUTS = {
    "C-ordered": _C,
    "F-ordered": np.asfortranarray(_D.T),
    "conj-transposed": conj_transpose(_D),
    "strided view": _WIDE[::2, ::3],
}


class TestResidualKernel:
    """``_eq_check`` scores a pair with ``rel_residual``'s kernel, unvalidated: the same
    bits on every layout, and past 1e154 the rescaled norm, not inf / inf = NaN."""

    @pytest.mark.parametrize("scale", [1.0, 1e154])
    @pytest.mark.parametrize("left", list(_LAYOUTS))
    @pytest.mark.parametrize("right", list(_LAYOUTS))
    def test_eq_check_has_rel_residual_bits(self, left, right, scale):
        a, b = scale * _LAYOUTS[left], scale * _LAYOUTS[right]
        for x, y in ((a, b), (b, a), (a, a), (a, _moved(a))):
            residual = _eq_check(x, y, DEFAULT_TOL).residual
            assert residual.hex() == rel_residual(x, y).hex()
            if scale == 1.0:  # in range, the plain zdotc sums: no bit moves
                assert residual.hex() == _norm_residual(x, y).hex()
            else:  # the sums overflow; the rescale keeps the unscaled residual
                assert not math.isfinite(np.vdot(x, x).real)  # zdotc reads inf or NaN
                assert math.isclose(residual, rel_residual(x / scale, y / scale), rel_tol=1e-14)

    @pytest.mark.parametrize("name", list(_LAYOUTS))
    def test_frobenius_scales_past_the_float_range(self, name):
        x = _LAYOUTS[name]
        big = frobenius(2.0**600 * x)
        assert math.isclose(big, 2.0**600 * frobenius(x), rel_tol=4 * np.finfo(float).eps)
        assert math.isclose(frobenius(2.0**-600 * (2.0**600 * x)), frobenius(x), rel_tol=1e-15)

    def test_non_finite_entries(self):
        x = _C.copy()
        x[1, 2] = np.inf
        assert frobenius(x) == math.inf
        x[1, 2] = complex(np.nan, 0.0)
        assert math.isnan(frobenius(x))


class TestCheckRecord:
    """``Check`` is a light immutable record: built by keyword, equal by value, and
    reported as before."""

    def test_immutable_and_equal_by_value(self):
        check = Check(residual=0.25, passed=True)
        assert check == Check(0.25, True) and hash(check) == hash(Check(0.25, True))
        assert check != Check(residual=0.25, passed=False)
        assert (check.residual, check.passed) == (0.25, True)
        with pytest.raises(AttributeError):
            check.residual = 0.0

    def test_to_dict_is_unchanged(self):
        report = VerificationReport(
            checks={"ax2": Check(residual=2.5e-16, passed=True), "wgm_k": Check(1.5, False)}
        )
        text = json.dumps(report.to_dict(), sort_keys=True)
        assert text == (
            '{"checks": {"ax2": {"pass": true, "residual": 2.5e-16}, '
            '"wgm_k": {"pass": false, "residual": 1.5}}, "overall": false}'
        )


class TestNonFiniteResidual:
    """A NaN part makes a merged residual NaN, so a failed check never reads a residual
    at or below eq_rtol; JSON writes a non-finite residual as a string."""

    def test_merge_keeps_nan(self):
        fine, lost = Check(1e-15, True), Check(math.nan, False)
        for parts in ((fine, lost), (lost, fine)):
            merged = _merge(*parts)
            assert math.isnan(merged.residual) and not merged.passed
        assert _merge(fine, Check(2e-8, False)) == Check(2e-8, False)

    def test_failed_check_reads_a_failing_residual(self):
        # the index-2 rational matrix of the CI r2 step at m = 340: A^340 reaches 1e171.
        # Unscaled, the norms of def11, wgm_k and coreEP48 overflowed to NaN, and wgm_k
        # failed while it printed 2.8e-15; rescaled, the three hold.  hermitian31's
        # (A^m)* A^{m+1} Z overflows itself, so its residual is NaN
        a = generators.rational_with_index(np.random.default_rng(3), 5, 2).to_complex()
        with np.errstate(over="ignore", invalid="ignore"):
            report = wgi.verify_definition(a, drazin(a), 340)
        for name, check in report.checks.items():
            assert check.passed or not check.residual <= DEFAULT_TOL.eq_rtol, name
        assert all(report.checks[name].passed for name in ("def11", "wgm_k", "coreEP48"))
        payload = json.dumps(report.to_dict(), allow_nan=False)  # standard JSON
        assert json.loads(payload)["checks"]["hermitian31"] == {"pass": False, "residual": "nan"}
        assert report.to_dict()["checks"]["ax2"]["residual"] == report.checks["ax2"].residual
        assert VerificationReport({"x": Check(math.inf, False)}).to_dict()["checks"]["x"] == {
            "residual": "inf",
            "pass": False,
        }


def _hermitian_inputs():
    rng = np.random.default_rng(34)
    for n in (1, 2, 3, 5, 8, 12, 31, 64, 200):
        w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        yield w
        yield w + conj_transpose(w)  # Hermitian up to roundoff
        yield np.asfortranarray(w)
        yield 1e154 / (8 * n) * w
    a = with_index(rng, 6, 2)
    am = a @ a
    yield conj_transpose(am) @ (am @ (a @ wgi.mwgi(a, 2).Z))  # herm's (A^m)* A^m (A Z)


class TestHermitianCheck:
    """The pair (W, W*) scores ||W - W*|| / max(1, ||W||) bit for bit: ||W*||_F has
    the bits of ||W||_F."""

    def test_bits_of_eq_check(self):
        for w in _hermitian_inputs():
            check = _eq_check(*_adjoint_pair(w, conj_transpose), DEFAULT_TOL)
            residual = frobenius(w - conj_transpose(w)) / max(1.0, frobenius(w))
            assert check.residual.hex() == residual.hex(), w.shape
            assert check.passed == (residual <= DEFAULT_TOL.eq_rtol)

    def test_flags_a_non_hermitian_matrix(self):
        for w, hermitian in ((np.eye(3) + 0j, True), (as_matrix([[1, 1], [0, 1]]), False)):
            assert _eq_check(*_adjoint_pair(w, conj_transpose), DEFAULT_TOL).passed == hermitian


class TestZeroCheck:
    """The pair (P, P - P) scores ||P|| / max(1, ||P||) bit for bit for a matmul
    product P: P - (P - P) is P."""

    def test_bits_of_eq_check(self):
        rng = np.random.default_rng(35)
        norms = []
        for n in (1, 2, 3, 5, 8, 17, 31, 59):
            for scale in (1e-12, 1e-9, 1e-3, 1.0, 1e3, 1e6):
                u = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                p = (scale / n) * u @ u
                p[0, 0] = complex(-0.0, p[0, 0].imag)  # a signed zero
                assert p.flags.c_contiguous
                check = _eq_check(*_zero_pair(p), DEFAULT_TOL)
                norm = frobenius(p)
                residual = norm / max(1.0, norm)
                assert check.residual.hex() == residual.hex(), (n, scale)
                assert check.passed == (residual <= DEFAULT_TOL.eq_rtol)
                norms.append(norm)
        assert min(norms) < 1.0 < max(norms)

    def test_flags_a_nonzero_matrix(self):
        assert _eq_check(*_zero_pair(np.zeros((3, 3), dtype=complex)), DEFAULT_TOL).passed
        assert not _eq_check(*_zero_pair(np.eye(3, dtype=complex) * 1e-6), DEFAULT_TOL).passed


class TestColSpaceContains:
    def test_full_space(self, rng):
        v = rng.standard_normal((2, 3))
        assert col_space_contains(np.eye(2), v)

    def test_orthogonal_columns(self):
        assert not col_space_contains(as_matrix([[1], [0]]), as_matrix([[0], [1]]))

    def test_scalar_multiple(self):
        assert col_space_contains(as_matrix([[1], [1]]), as_matrix([[2], [2]]))

    def test_row_mismatch(self):
        with pytest.raises(ValueError):
            col_space_contains(np.eye(2), np.eye(3))


class TestColSpaceEqual:
    def test_different_spanning_sets(self, rng):
        u = rng.standard_normal((4, 2))
        mix = rng.standard_normal((2, 3))
        assert col_space_equal(u, u @ mix)
        assert col_space_equal(u @ mix, u)

    def test_strict_containment_either_way(self):
        plane = as_matrix([[1, 0], [0, 1], [0, 0]])
        line = as_matrix([[1], [1], [0]])
        assert not col_space_equal(plane, line)
        assert not col_space_equal(line, plane)

    def test_same_rank_different_spaces(self):
        assert not col_space_equal(as_matrix([[1], [0]]), as_matrix([[0], [1]]))

    def test_zero_matrices(self):
        assert col_space_equal(np.zeros((3, 1)), np.zeros((3, 2)))

    def test_row_mismatch(self):
        with pytest.raises(ValueError):
            col_space_equal(np.eye(2), np.eye(3))


@settings(max_examples=40, deadline=None)
@given(complex_matrices())
def test_proper_involution_witness(a):
    # trace(A*A) is the squared Frobenius norm, so it is real, nonnegative,
    # and vanishes only with the matrix itself
    t = np.trace(conj_transpose(a) @ a)
    assert t.real >= 0
    assert abs(t.imag) <= 1e-12 * max(1.0, t.real)
    if t.real <= DEFAULT_TOL.nil_atol:
        assert frobenius(a) <= 1e-5


class TestAsMatrix:
    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, part, value):
        entry = complex(value, 0.0) if part == "real" else complex(0.0, value)
        with pytest.raises(ValueError, match="finite"):
            as_matrix([[1, entry], [0, 1]])

    def test_rejects_vector(self):
        with pytest.raises(ValueError):
            as_matrix([1, 2, 3])

    def test_result_is_readonly(self):
        a = as_matrix([[1]])
        with pytest.raises(ValueError):
            a[0, 0] = 2


class TestTolerancePolicy:
    def test_defaults(self):
        assert DEFAULT_TOL == TolerancePolicy(1e-10, 1e-8, 1e-10)

    @pytest.mark.parametrize("field", ["rank_rtol", "eq_rtol", "nil_atol"])
    @pytest.mark.parametrize("bad", [0.0, 1.0, -1e-3, 2.0])
    def test_bounds(self, field, bad):
        with pytest.raises(ValueError):
            TolerancePolicy(**{field: bad})


class TestMatrixJson:
    def test_roundtrip(self, rng):
        a = as_matrix(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
        back = matrix_from_json(matrix_to_json(a))
        assert np.array_equal(a, back)

    def test_wrong_length(self):
        with pytest.raises(MatrixFormatError):
            matrix_from_json({"rows": 2, "cols": 2, "entries": [[1, 0]]})

    def test_non_finite(self):
        with pytest.raises(MatrixFormatError):
            matrix_from_json({"rows": 1, "cols": 1, "entries": [[float("inf"), 0]]})

    def test_int_beyond_float_range(self):
        # json.loads keeps 1 followed by 400 zeros as an exact int, which no float holds
        with pytest.raises(MatrixFormatError):
            matrix_from_json({"rows": 1, "cols": 1, "entries": [[0, 10**400]]})

    def test_bad_pair(self):
        with pytest.raises(MatrixFormatError):
            matrix_from_json({"rows": 1, "cols": 1, "entries": [[1, 2, 3]]})

    def test_bool_dimensions_rejected(self):
        with pytest.raises(MatrixFormatError):
            matrix_from_json({"rows": True, "cols": 1, "entries": [[1, 0]]})

    def test_non_numeric_entry(self):
        with pytest.raises(MatrixFormatError):
            matrix_from_json({"rows": 1, "cols": 1, "entries": [["1", 0]]})


MALFORMED_ENVELOPES = [
    [[1, 0]],
    {"rows": True, "cols": 1, "entries": [[1, 0]]},
    {"rows": 1, "cols": 0, "entries": []},
    {"rows": "1", "cols": 1, "entries": [[1, 0]]},
    {"rows": 1, "cols": 1, "entries": {"0": [1, 0]}},
    {"rows": 2, "cols": 2, "entries": [[1, 0]]},
    {"rows": 1, "cols": 1, "entries": [[1, 2, 3]]},
]


class TestOneEnvelope:
    """The float and the rational parser share one envelope check."""

    @pytest.mark.parametrize("obj", MALFORMED_ENVELOPES)
    def test_both_parsers_agree(self, obj):
        with pytest.raises(MatrixFormatError) as as_float:
            matrix_from_json(obj)
        with pytest.raises(MatrixFormatError) as as_rational:
            oracle.RationalMatrix.from_json(obj)
        assert str(as_float.value) == str(as_rational.value)

    def test_rational_bad_number(self):
        with pytest.raises(MatrixFormatError, match="entry 0"):
            oracle.RationalMatrix.from_json({"rows": 1, "cols": 1, "entries": [["1/0", "0"]]})


A3 = with_index(np.random.default_rng(0), 3, 1)
RA3 = oracle.RationalMatrix.from_rows([[1, 1, 0], [0, 0, 1], [0, 0, 0]])
M_ENTRY_POINTS = {
    "wgi.mwgi": lambda m: wgi.mwgi(A3, m),
    "wgi.verify_definition": lambda m: wgi.verify_definition(A3, A3, m),
    "eqsolve.residual": lambda m: eqsolve.residual(A3, A3, m, A3),
    "oracle.exact_mwgi": lambda m: oracle.exact_mwgi(RA3, m),
    "oracle.certify": lambda m: oracle.certify(RA3, m),
    "shiftlab.mwgi_shift": shiftlab.mwgi_shift,
    "shiftlab.verify_shift_identities": lambda m: shiftlab.verify_shift_identities(m, 8),
}


class TestOneMRule:
    """Every m-weak group inverse entry point rejects m the same way."""

    @pytest.mark.parametrize("m", [0, -1, True, 1.5], ids=repr)
    @pytest.mark.parametrize("name", sorted(M_ENTRY_POINTS))
    def test_rejected(self, name, m):
        with pytest.raises(ValueError, match="m must be a positive integer"):
            M_ENTRY_POINTS[name](m)

    @pytest.mark.parametrize("m", [np.bool_(True), np.float64(2.0), np.int64(0)], ids=repr)
    @pytest.mark.parametrize("name", sorted(M_ENTRY_POINTS))
    def test_numpy_non_weight_rejected(self, name, m):
        with pytest.raises(ValueError, match="m must be a positive integer"):
            M_ENTRY_POINTS[name](m)

    @pytest.mark.parametrize("name", sorted(M_ENTRY_POINTS))
    def test_numpy_integer_accepted(self, name):
        M_ENTRY_POINTS[name](np.int64(2))

    def test_numpy_integer_is_its_int(self):
        result = wgi.mwgi(A3, np.int64(2))
        assert result.Z is wgi.mwgi(A3, 2).Z and type(result.m) is int
        assert oracle.certify(RA3, np.int64(1)) == oracle.certify(RA3, 1)
        shift = shiftlab.verify_shift_identities(np.int64(2), 8)
        assert shift.overall and shift == shiftlab.verify_shift_identities(2, 8)


def _rank_one_at_a_time(x):
    """numerical_rank's rule, from one s-only SVD of x alone."""
    x = np.asarray(x, dtype=np.complex128)
    s = np.linalg.svd(x, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > DEFAULT_TOL.rank_rtol * float(s[0]) * max(x.shape)))


def _deficient(rng, rows, cols, rank, scale):
    left = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
    right = rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols))
    return scale * (left @ right)


class TestBatchedRanks:
    """numerical_ranks ranks the matrices of one shape with one s-only SVD of their
    stack, which gives the bits and ranks of one SVD per matrix."""

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_stacked_singular_values_keep_their_bits(self, n):
        rng = np.random.default_rng(70 + n)
        for cols in (n, 2 * n):
            mats = [
                _deficient(rng, n, cols, rank, scale)
                for rank in range(n + 1)
                for scale in (1e-8, 1.0, 1e6)
            ]
            stacked = np.linalg.svd(np.array(mats), compute_uv=False)
            for x, s in zip(mats, stacked):
                assert s.tobytes() == np.linalg.svd(x, compute_uv=False).tobytes()

    def test_ranks_match_one_at_a_time(self, monkeypatch):
        from ginverse import matcore

        rng = np.random.default_rng(75)
        mats = [
            _deficient(rng, 4, cols, rank, 1.0) for cols in (4, 8, 4, 8, 4) for rank in (0, 2, 4)
        ]
        mats.append(np.eye(4))  # a float64 matrix joins the complex stack of its shape
        expected = [_rank_one_at_a_time(x) for x in mats]
        calls = []
        svd = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(kwargs.get("compute_uv", True))
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        assert matcore.numerical_ranks(mats) == expected
        assert calls == [False, False]  # one s-only call per shape
        assert numerical_rank(mats[4]) == expected[4]

    def test_col_space_tests_one_svd_per_shape(self, monkeypatch):
        rng = np.random.default_rng(76)
        u = _deficient(rng, 4, 4, 2, 1.0)
        calls = []
        svd = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        assert col_space_equal(u, u @ u.conj().T)  # [U | V] (4 x 8), then U and V (4 x 4)
        assert len(calls) == 2
        assert col_space_contains(u, 2 * u)
        assert len(calls) == 4

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
    def test_non_matrix_raises(self, shape):
        from ginverse import matcore

        with pytest.raises(ValueError):
            matcore.numerical_ranks([np.ones(shape)])
        with pytest.raises(ValueError):
            numerical_rank(np.ones(shape))
