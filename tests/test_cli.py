import dataclasses
import json

import numpy as np
import pytest

from ginverse import classical, cli, generators, oracle, wgi
from ginverse.cli import main
from ginverse.generators import rational_with_index, with_index
from ginverse.matcore import DEFAULT_TOL, approx_equal, matrix_from_json, matrix_to_json


def write_matrix(path, values):
    path.write_text(json.dumps(matrix_to_json(np.array(values, dtype=complex))))
    return str(path)


@pytest.fixture
def identity3(tmp_path):
    return write_matrix(tmp_path / "i3.json", np.eye(3))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_mwgi_identity(self, capsys, identity3):
        code, out, _ = run_cli(capsys, "compute", "--inverse", "mwgi", "--m", "2", "--input", identity3)
        assert code == 0
        assert approx_equal(matrix_from_json(json.loads(out)), np.eye(3))

    @pytest.mark.parametrize("inverse", ["mp", "group", "drazin", "core", "core-ep"])
    def test_classical_inverses_on_identity(self, capsys, identity3, inverse):
        code, out, _ = run_cli(capsys, "compute", "--inverse", inverse, "--input", identity3)
        assert code == 0
        assert approx_equal(matrix_from_json(json.loads(out)), np.eye(3))

    @pytest.mark.parametrize(
        "route", ["core-ep", "power", "normal", "drazin-solve", "core-of-drazin", "core-chain"]
    )
    def test_routes(self, capsys, tmp_path, route):
        path = write_matrix(tmp_path / "a.json", [[1, 0, 0], [0, 0, 1], [0, 0, 0]])
        code, out, _ = run_cli(capsys, "compute", "--input", path, "--route", route, "--m", "1")
        assert code == 0
        got = matrix_from_json(json.loads(out))
        assert approx_equal(got, np.diag([1.0, 0.0, 0.0]).astype(complex))

    def test_regular_lift_route_needs_m2(self, capsys, identity3):
        code, _, err = run_cli(
            capsys, "compute", "--input", identity3, "--route", "regular-lift", "--m", "1"
        )
        assert code == 2
        assert "m >= 2" in err

    def test_group_inverse_missing_exits_1(self, capsys, tmp_path):
        path = write_matrix(tmp_path / "j2.json", [[0, 1], [0, 0]])
        code, _, err = run_cli(capsys, "compute", "--inverse", "group", "--input", path)
        assert code == 1
        assert "rank" in err

    def test_representation_mismatch_exits_1(self, capsys, monkeypatch, identity3):
        def mismatch(*args, **kwargs):
            raise wgi.RepresentationMismatch("the two product forms disagree")

        monkeypatch.setattr(wgi, "mwgi", mismatch)
        code, out, err = run_cli(capsys, "compute", "--input", identity3)
        assert code == 1
        assert out == ""
        assert err.splitlines() == ["error: the two product forms disagree"]

    def test_linalg_error_exits_1(self, capsys, monkeypatch, identity3):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(wgi, "mwgi_by_route", singular)
        code, out, err = run_cli(capsys, "compute", "--input", identity3)
        assert code == 1
        assert out == ""
        assert err.splitlines() == ["error: Singular matrix"]

    def test_wrong_route_answer_exits_1(self, capsys, tmp_path):
        # the power route returns max|Z| ~ 5e14 here, where the true Z is 0
        a = 30 * with_index(np.random.default_rng(0), 4, 4)
        path = write_matrix(tmp_path / "a.json", a)
        code, out, err = run_cli(
            capsys, "compute", "--input", path, "--route", "power", "--m", "4"
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: the power route's Z fails its defining equations (ax2)")
        code, out, _ = run_cli(
            capsys, "compute", "--input", path, "--route", "core-ep", "--m", "4"
        )
        assert code == 0
        assert np.abs(matrix_from_json(json.loads(out))).max() < 1e-10

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: wgm_k compares (A^k)* A^{m+1} Z = 0 with (A^k)* A^m, and "
        "A^4 is roundoff (||A^4||_F = 1.2e-10, though the tower ranks it 0) that the "
        "product grows like ||A||^m: residual 7.333e-08 at m = 2, 1.782e-06 at m = 3",
    )
    @pytest.mark.parametrize("m", ["2", "3"])
    def test_scaled_nilpotent_canonical_route(self, capsys, tmp_path, m):
        # A is nilpotent of index 4, so its m-weak group inverse is Z = 0
        a = 30 * with_index(np.random.default_rng(0), 4, 4)
        path = write_matrix(tmp_path / "a.json", a)
        code, out, err = run_cli(capsys, "compute", "--input", path, "--m", m)
        assert (code, err) == (0, "")
        assert np.abs(matrix_from_json(json.loads(out))).max() < 1e-10

    @pytest.mark.parametrize(
        "route",
        ["core-ep", "power", "normal", "drazin-solve"]
        + ["core-of-drazin", "core-chain", "regular-lift"],
    )
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_every_route_passes_its_check(self, capsys, tmp_path, route, k):
        a = with_index(np.random.default_rng(20 + k), 6, k)
        path = write_matrix(tmp_path / "a.json", a)
        code, out, err = run_cli(capsys, "compute", "--input", path, "--route", route, "--m", "2")
        assert (code, err) == (0, "")
        assert approx_equal(matrix_from_json(json.loads(out)), wgi.mwgi(a, 2).Z)

    def test_output_file(self, capsys, tmp_path, identity3):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(
            capsys, "compute", "--input", identity3, "--output", str(target)
        )
        assert code == 0 and out == ""
        assert approx_equal(matrix_from_json(json.loads(target.read_text())), np.eye(3))


class TestVerify:
    def test_bad_candidate_fails_ax2(self, capsys, tmp_path):
        a = write_matrix(tmp_path / "a.json", np.eye(2))
        x = write_matrix(tmp_path / "x.json", 2 * np.eye(2))
        code, out, _ = run_cli(capsys, "verify", "--input", a, "--candidate", x, "--m", "1")
        assert code == 1
        payload = json.loads(out)
        assert payload["checks"]["ax2"]["pass"] is False
        assert payload["overall"] is False

    def test_compute_then_verify_roundtrip(self, capsys, tmp_path):
        a = write_matrix(tmp_path / "a.json", [[1, 0, 0], [0, 0, 1], [0, 0, 0]])
        z_path = tmp_path / "z.json"
        code, _, _ = run_cli(
            capsys, "compute", "--input", a, "--m", "2", "--output", str(z_path)
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "verify", "--input", a, "--candidate", str(z_path), "--m", "2"
        )
        assert code == 0
        assert json.loads(out)["overall"] is True

    def test_env_tolerance_override(self, capsys, tmp_path, monkeypatch):
        # an absurdly tight equality tolerance makes benign roundoff fail
        a_mat = np.array([[2.0, 1.0], [1.0, 3.0]])
        a = write_matrix(tmp_path / "a.json", a_mat)
        z_path = tmp_path / "z.json"
        run_cli(capsys, "compute", "--input", a, "--output", str(z_path))
        monkeypatch.setenv("GINV_TOL_EQ", "1e-30")
        code, _, _ = run_cli(capsys, "verify", "--input", a, "--candidate", str(z_path))
        assert code == 1
        monkeypatch.setenv("GINV_TOL_EQ", "1e-8")
        code, _, _ = run_cli(capsys, "verify", "--input", a, "--candidate", str(z_path))
        assert code == 0


class TestInputErrors:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--input", "/nonexistent.json")
        assert code == 2

    def test_malformed_json_line_diagnostic(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": 2,\n "cols": }')
        code, _, err = run_cli(capsys, "compute", "--input", str(path))
        assert code == 2
        assert ":2:" in err  # line number of the syntax error

    def test_wrong_entry_count(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rows": 2, "cols": 2, "entries": [[1, 0]]}))
        code, _, err = run_cli(capsys, "compute", "--input", str(path))
        assert code == 2
        assert "entries" in err

    def test_non_finite_entry(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": 1, "cols": 1, "entries": [[NaN, 0]]}')
        code, _, _ = run_cli(capsys, "compute", "--input", str(path))
        assert code == 2

    def test_int_beyond_float_range(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"rows": 1, "cols": 1, "entries": [[1' + "0" * 400 + ", 0]]}")
        code, _, err = run_cli(capsys, "compute", "--input", str(path))
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_non_square_for_square_only_inverse(self, capsys, tmp_path):
        path = write_matrix(tmp_path / "rect.json", np.ones((2, 3)))
        code, _, err = run_cli(capsys, "compute", "--inverse", "drazin", "--input", path)
        assert code == 2
        assert "square" in err


class TestDecompose:
    @pytest.fixture
    def index2(self, tmp_path):
        return write_matrix(tmp_path / "a.json", with_index(np.random.default_rng(3), 6, 2))

    @pytest.mark.parametrize("m", ["1", "2"])
    def test_passes(self, capsys, index2, m):
        code, out, _ = run_cli(capsys, "decompose", "--input", index2, "--m", m)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"x", "y", "report"}
        assert payload["report"]["overall"] is True
        with open(index2) as handle:
            a = matrix_from_json(json.load(handle))
        x, y = matrix_from_json(payload["x"]), matrix_from_json(payload["y"])
        assert approx_equal(x + y, a)

    def test_pretty_table(self, capsys, index2):
        code, out, _ = run_cli(capsys, "decompose", "--input", index2, "--m", "2", "--pretty")
        assert code == 0
        assert out.rstrip().endswith("overall: PASS")

    def test_corrupted_z_exits_1(self, capsys, monkeypatch, index2):
        mwgi = wgi.mwgi

        def corrupted(*args):
            result = mwgi(*args)
            return dataclasses.replace(result, Z=result.Z * (1 + 1e-6))

        monkeypatch.setattr(wgi, "mwgi", corrupted)
        code, out, _ = run_cli(capsys, "decompose", "--input", index2, "--m", "2")
        assert code == 1
        assert json.loads(out)["report"]["overall"] is False


class TestSolve:
    def test_identity(self, capsys, tmp_path, identity3):
        b = write_matrix(tmp_path / "b.json", np.arange(9).reshape(3, 3))
        code, out, _ = run_cli(capsys, "solve", "--input", identity3, "--b", b)
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["free_part_used"] is False

    def test_with_free_term(self, capsys, tmp_path):
        a = write_matrix(tmp_path / "a.json", [[1, 0, 0], [0, 0, 1], [0, 0, 0]])
        b = write_matrix(tmp_path / "b.json", np.ones((3, 3)))
        y = write_matrix(tmp_path / "y.json", np.eye(3))
        code, out, _ = run_cli(capsys, "solve", "--input", a, "--b", b, "--y", y, "--m", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["free_part_used"] is True


class TestShift:
    def test_word_and_table(self, capsys):
        code, out, _ = run_cli(capsys, "shift", "--m", "2", "--window", "8", "--pretty")
        assert code == 0
        assert "S3∘L2" in out
        assert "overall: PASS" in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "shift", "--m", "1", "--window", "8")
        assert code == 0
        payload = json.loads(out)
        assert payload["word"] == "S2∘L1"
        assert payload["report"]["overall"] is True
        assert all(c["residual"] == 0.0 for c in payload["report"]["checks"].values())

    def test_window_validation(self, capsys):
        code, _, err = run_cli(capsys, "shift", "--m", "3", "--window", "2")
        assert code == 2


class TestFuzz:
    def test_deterministic_given_seed(self, capsys):
        code1, out1, _ = run_cli(capsys, "fuzz", "--trials", "12", "--seed", "5")
        code2, out2, _ = run_cli(capsys, "fuzz", "--trials", "12", "--seed", "5")
        assert code1 == code2 == 0
        assert out1 == out2  # byte-identical reports

    def test_overall_pass(self, capsys):
        code, out, _ = run_cli(capsys, "fuzz", "--trials", "9", "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["overall"] is True
        assert payload["failures"] == []

    def test_fixed_m(self, capsys):
        code, out, _ = run_cli(capsys, "fuzz", "--trials", "6", "--seed", "4", "--m", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["m_values"] == [2]


class TestToleranceFlags:
    def test_explicit_flag_beats_env(self, capsys, tmp_path, monkeypatch):
        a = write_matrix(tmp_path / "a.json", np.diag([1.0, 2.0]))
        z_path = tmp_path / "z.json"
        run_cli(capsys, "compute", "--input", a, "--output", str(z_path))
        monkeypatch.setenv("GINV_TOL_EQ", "1e-30")
        code, _, _ = run_cli(
            capsys, "verify", "--input", a, "--candidate", str(z_path), "--tol-eq", "1e-8"
        )
        assert code == 0  # the flag overrides the hostile env value


class TestCertify:
    def test_rational_input(self, capsys, tmp_path):
        a = oracle.RationalMatrix.from_rows([[1, 0, 0], [0, 0, 1], [0, 0, 0]])
        path = tmp_path / "a.json"
        path.write_text(json.dumps(a.to_json()))
        code, out, _ = run_cli(capsys, "certify", "--input", str(path), "--m", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["overall"] is True
        assert payload["float_mwgi_pass"] is True

    def test_generated_trials(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--trials", "3", "--seed", "2")
        assert code == 0
        assert json.loads(out)["overall"] is True

    def test_dim_reaches_n(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--trials", "5", "--dim", "6", "--seed", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["overall"] is True
        assert [r["n"] for r in payload["results"]] == [2, 3, 4, 5, 6]


class TestUnusableOptions:
    """An unusable tolerance or index exits 2 with exactly one ``error:`` line."""

    @pytest.mark.parametrize(
        "flags", [("--tol-eq", "-1"), ("--tol-rank", "0"), ("--tol-nil", "1.5")]
    )
    def test_tolerance_flag(self, capsys, identity3, flags):
        code, _, err = run_cli(capsys, "compute", "--input", identity3, *flags)
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_tolerance_env(self, capsys, identity3, monkeypatch):
        monkeypatch.setenv("GINV_TOL_EQ", "abc")
        code, _, err = run_cli(capsys, "compute", "--input", identity3)
        assert code == 2
        assert err.splitlines() == ["error: GINV_TOL_EQ must be a number, got 'abc'"]

    @pytest.mark.parametrize("command", ["fuzz", "certify"])
    @pytest.mark.parametrize("value", ["-1", "-2"])
    def test_negative_index(self, capsys, command, value):
        code, out, err = run_cli(capsys, command, "--trials", "3", "--index", value)
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: --index must be a non-negative integer"]

    def test_verify_shape_mismatch(self, capsys, tmp_path, identity3):
        z = write_matrix(tmp_path / "z.json", np.eye(2))
        code, _, err = run_cli(capsys, "verify", "--input", identity3, "--candidate", z)
        assert code == 2
        assert err.splitlines() == ["error: candidate shape (2, 2) does not match (3, 3)"]

    @pytest.mark.parametrize(
        "flags",
        [
            ("fuzz", "--trials", "-3"),
            ("fuzz", "--trials", "0"),
            ("certify", "--trials", "0"),
        ],
    )
    def test_trials_below_one(self, capsys, flags):
        code, out, err = run_cli(capsys, *flags)
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: --trials must be a positive integer"]

    @pytest.mark.parametrize("command", ["fuzz", "certify"])
    @pytest.mark.parametrize("value", ["1", "0", "-1"])
    def test_dim_below_two(self, capsys, command, value):
        code, out, err = run_cli(capsys, command, "--trials", "2", "--dim", value)
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: --dim must be an integer >= 2"]


class TestComputeChecksItsResult:
    """``compute --inverse`` checks its result against the inverse's defining equations."""

    # index 1 for the group and core inverses, index 2 for the rest
    @pytest.mark.parametrize(
        "inverse, k", [("mp", 2), ("group", 1), ("drazin", 2), ("core", 1), ("core-ep", 2)]
    )
    def test_each_inverse_passes(self, capsys, tmp_path, inverse, k):
        a = with_index(np.random.default_rng(40 + k), 6, k)
        path = write_matrix(tmp_path / "a.json", a)
        code, out, err = run_cli(capsys, "compute", "--inverse", inverse, "--input", path)
        assert code == 0 and err == ""
        assert matrix_from_json(json.loads(out)).shape == (6, 6)

    @pytest.mark.parametrize(
        "inverse, name",
        [
            ("mp", "A X A = A"),
            ("group", "A X = X A"),
            ("drazin", "A X = X A"),
            ("core", "A X^2 = X"),
            ("core-ep", "A X^2 = X"),
        ],
    )
    def test_wrong_result_exits_1(self, capsys, monkeypatch, tmp_path, inverse, name):
        a = with_index(np.random.default_rng(41), 6, 1)
        path = write_matrix(tmp_path / "a.json", a)
        compute, equations = cli._INVERSES[inverse]
        # a transposed result: right for none of these inverses of this A
        monkeypatch.setitem(
            cli._INVERSES, inverse, (lambda a, tol: compute(a, tol).T.copy(), equations)
        )
        code, out, err = run_cli(capsys, "compute", "--inverse", inverse, "--input", path)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: the {inverse} inverse fails its defining equations ({name})")


class TestOneIdentityListPerInverse:
    """``compute --inverse`` and the exact oracle evaluate one identity list per inverse."""

    DRAZIN = ["A X = X A", "X A X = X", "A^(k+1) X = A^k"]
    CORE_EP = ["A X^2 = X", "(A X)* = A X", "A X A^k = A^k"]
    PENROSE = ["A X A = A", "X A X = X", "(A X)* = A X", "(X A)* = X A"]

    # the exact tower requires the core-EP list of A^o, then the Drazin list of A^D
    @pytest.mark.parametrize(
        "inverse, k, labels, exact_lists",
        [
            ("mp", 2, PENROSE, [PENROSE]),
            ("group", 1, DRAZIN, [CORE_EP, DRAZIN]),
            ("drazin", 2, DRAZIN, [CORE_EP, DRAZIN]),
            ("core", 1, CORE_EP, [CORE_EP, DRAZIN]),
            ("core-ep", 2, CORE_EP, [CORE_EP, DRAZIN]),
        ],
    )
    def test_float_and_exact_labels_agree(
        self, capsys, monkeypatch, tmp_path, inverse, k, labels, exact_lists
    ):
        exact_a = rational_with_index(np.random.default_rng(11), 4, k)
        path = write_matrix(tmp_path / "a.json", exact_a.to_complex())
        float_seen, exact_seen = [], []
        require, require_exact = wgi._require, oracle._require_exact

        def recording_require(checks, what):
            float_seen.append(list(checks))
            require(checks, what)

        def recording_require_exact(checks):
            exact_seen.append(list(checks))
            require_exact(checks)

        monkeypatch.setattr(wgi, "_require", recording_require)
        monkeypatch.setattr(oracle, "_require_exact", recording_require_exact)
        code, _, err = run_cli(capsys, "compute", "--inverse", inverse, "--input", path)
        assert code == 0 and err == ""
        assert float_seen == [labels]
        if inverse == "mp":
            oracle.exact_mp(exact_a)
        else:
            oracle.exact_drazin(exact_a)  # builds, and verifies, the exact tower
        assert exact_seen == exact_lists
        assert labels in exact_seen

    def test_mp_of_a_non_square_matrix(self, capsys, tmp_path):
        # A^+ exists for every shape, and its list reads no power of A (a tower needs a square A)
        a = np.arange(1, 7, dtype=complex).reshape(2, 3)
        path = write_matrix(tmp_path / "rect.json", a)
        code, out, err = run_cli(capsys, "compute", "--inverse", "mp", "--input", path)
        assert code == 0 and err == ""
        assert approx_equal(matrix_from_json(json.loads(out)), np.linalg.pinv(a))

    def test_mp_builds_no_tower(self, capsys, monkeypatch, tmp_path):
        def fail(*args, **kwargs):
            raise AssertionError("a tower was built")

        monkeypatch.setattr(cli, "tower", fail)
        path = write_matrix(tmp_path / "a.json", with_index(np.random.default_rng(42), 6, 2))
        code, _, err = run_cli(capsys, "compute", "--inverse", "mp", "--input", path)
        assert code == 0 and err == ""


class TestRouteCheckFormsOnlyItsChecks:
    """``compute --route`` judges a non-canonical Z on ax2 and wgm_k alone."""

    def test_route_does_not_run_verify_definition(self, capsys, monkeypatch, tmp_path):
        def fail(*args, **kwargs):
            raise AssertionError("verify_definition was called")

        monkeypatch.setattr(wgi, "verify_definition", fail)
        a = with_index(np.random.default_rng(5), 5, 2)
        path = write_matrix(tmp_path / "a.json", a)
        code, out, err = run_cli(capsys, "compute", "--input", path, "--route", "normal")
        assert code == 0 and err == ""
        expected = wgi.mwgi(a, 1).Z
        assert approx_equal(matrix_from_json(json.loads(out)), expected)


class TestOneTowerPerTrial:
    """A fuzz trial builds A's tower once and passes it on; the towers of the
    operands the routes form from A are built outside the memo, so A's stays kept."""

    def test_staircase_of_a_runs_once(self, monkeypatch):
        staircase, make = classical._staircase, generators.with_index
        built, made = [], []

        def counting(a, tol):
            built.append(a)
            return staircase(a, tol)

        def recording(*args, **kwargs):
            made.append(make(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(classical, "_staircase", counting)
        monkeypatch.setattr(generators, "with_index", recording)
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            for n in range(2, 7):
                for k in range(min(n, 4)):
                    for m in (1, 2, 3):
                        built.clear()
                        cli._fuzz_trial(rng, DEFAULT_TOL, n, k, m)
                        a = made[-1]
                        builds = [b for b in built if classical._same_bits(b, a)]
                        assert len(builds) == 1, (seed, n, k, m)
                        assert classical._same_bits(classical._last[2].a, a)


class TestFuzzTrialFormsPowersOnce:
    """Over one (n, k, m) cycle of ``ginv fuzz``, a trial makes at most 7
    np.linalg.matrix_power calls with an exponent of 2 or more on average, all
    for powers no tower keeps (the tower forms its own by one product each), and
    forms b0 once.  An exponent of 1 forms nothing: numpy returns the base itself."""

    def test_counts(self, monkeypatch):
        matrix_power, keep = np.linalg.matrix_power, classical.Tower.keep
        powers, b0s = [], []

        def counting_power(base, e):
            if e >= 2:
                powers.append(e)
            return matrix_power(base, e)

        def counting_keep(self, key, make):
            if key not in self._kept and key[0] == "b0":
                b0s.append(key)
            return keep(self, key, make)

        monkeypatch.setattr(np.linalg, "matrix_power", counting_power)
        monkeypatch.setattr(classical.Tower, "keep", counting_keep)
        args = cli._build_parser().parse_args(["fuzz", "--trials", "60"])
        rng = np.random.default_rng(1)
        for _, n, k, m in cli._trials(args):
            b0s.clear()
            outcome = cli._fuzz_trial(rng, DEFAULT_TOL, n, k, m)
            assert not outcome["failures"], (n, k, m)
            assert b0s == [("b0", m)], (n, k, m)
        assert len(powers) <= 7 * 60
