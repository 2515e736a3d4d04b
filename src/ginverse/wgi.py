"""The m-weak group inverse of a square complex matrix, by every route.

For a square A with Drazin inverse A^D, core-EP inverse A^o and index k,
the m-weak group inverse is the unique Z with

    Z = A Z^2,   Z A^{k+1} = A^k,   (A^k)* A^{m+1} Z = (A^k)* A^m.

The canonical computation is Z = (A^o)^{m+1} A^m, checked against these
equations before it is returned.  Six more routes are provided purely for
cross-verification, together with checkers for the equivalent
characterizations: the additive decomposition A = X + Y with X group
invertible and Y nilpotent, the polar-like idempotent p = I - A Z, the
fixed-point system in b, the (b,c)-inverse realization and the outer inverse
with prescribed range and kernel.

All one-sided ("right") notions coincide with their two-sided counterparts
for square complex matrices: the algebra is Dedekind-finite, so one-sided
invertibility is invertibility, and quasinilpotent means nilpotent.  The
right-invertibility checks below are therefore full-rank tests.  Every
function that takes A takes its Tower instead, and every checker the Z to judge.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .classical import Tower, _build, _pinv, core_inverse, tower
from .matcore import (
    DEFAULT_TOL,
    TolerancePolicy,
    _check_m,
    _finite,
    _one_rank,
    _span_matrices,
    as_matrix,
    col_space_equal,
    conj_transpose,
    numerical_ranks,
    readonly,
)
from .report import Check, VerificationReport, _bool_check, _eq_check, _evaluate
from .report import _hermitian_check, _nil_check, _zero_check
from .report import _b_identities, _decomposition_identities, _definition_identities

__all__ = [
    "OrthogonalityViolation",
    "RepresentationMismatch",
    "Route",
    "Check",
    "VerificationReport",
    "MwgiResult",
    "GroupDecomposition",
    "PolarData",
    "mwgi",
    "mwgi_via_power",
    "mwgi_normal_equation",
    "mwgi_drazin_solve",
    "mwgi_step",
    "mwgi_core_of_drazin",
    "mwgi_core_chain",
    "mwgi_regular_lift",
    "mwgi_by_route",
    "verify_definition",
    "group_decomposition",
    "polar_idempotent",
    "b_characterization",
    "bc_inverse_check",
    "outer_inverse_subspaces",
    "additive_mwgi",
]


class OrthogonalityViolation(ValueError):
    """The summands are not mutually orthogonal (AB, BA, A*B must vanish)."""


class RepresentationMismatch(ArithmeticError):
    """A result failed its defining equations or an internal cross-check."""


class Route(enum.Enum):
    """Which representation produced an m-weak group inverse."""

    CORE_EP = "core-ep"
    POWER_REDUCTION = "power"
    NORMAL_EQUATION = "normal"
    DRAZIN_SOLVE = "drazin-solve"
    RECURSIVE = "recursive"
    CORE_OF_DRAZIN = "core-of-drazin"
    CORE_CHAIN = "core-chain"
    REGULAR_LIFT = "regular-lift"


# The routes that start from weight m - 1, so need m >= 2 (see mwgi_by_route).
_NEED_M2 = (Route.RECURSIVE, Route.REGULAR_LIFT)


@dataclass(frozen=True)
class MwgiResult:
    """An m-weak group inverse Z with the inputs that produced it."""

    Z: np.ndarray
    m: int
    k: int
    route: Route


@dataclass(frozen=True)
class GroupDecomposition:
    """Additive split A = X + Y with X group invertible and Y nilpotent."""

    X: np.ndarray
    Y: np.ndarray

    def verify(self, a, m: int, tol: TolerancePolicy = DEFAULT_TOL, z=None) -> VerificationReport:
        """Check the side conditions: X* A^{m-1} Y = 0, Y X = 0, Y nilpotent,
        X of index <= 1 (nonzero unless A is nilpotent), and that the group
        inverse of X is Z, by default from A's tower, by the group-inverse
        equations: x_index is X Z X = X with X Z = Z X (such a Z exists iff
        X has index <= 1) and group_matches is Z X Z = Z."""
        t = tower(a, tol)
        a, n = t.a, t.a.shape[0]
        z, x = _candidate(t, z, m, _z), self.X
        identities = _decomposition_identities(a, x, self.Y, z, m, t.power, conj_transpose)
        labels = ("sum", "orth_left", "orth_right", "y_nilpotent", "x_index")
        checks = _evaluate(identities, labels, _eq_check, tol)
        # A^n from A itself: the one nilpotency witness that is not read off the staircase
        a_nilpotent = _nil_check(np.linalg.matrix_power(a, n), tol).passed
        checks["x_nonzero"] = _bool_check(a_nilpotent or not _nil_check(x, tol).passed)
        checks.update(_evaluate(identities, ("group_matches",), _eq_check, tol))
        return VerificationReport(checks=checks)


@dataclass(frozen=True)
class PolarData:
    """Polar-like idempotent p = I - A Z and the inverse of the (I-p)-corner."""

    p: np.ndarray
    corner_inverse: np.ndarray

    def verify(self, a, m: int, tol: TolerancePolicy = DEFAULT_TOL) -> VerificationReport:
        """Check p^2 = p, the Hermitian weighting (A^m)* A^m p, nilpotency of
        A p, invertibility of (I-p)A(I-p) inside the corner, the range identity
        col(I-p) = col(A(I-p)), and invertibility of A + p (full-rank test)."""
        a = tower(a, tol).a
        n = a.shape[0]
        one_minus_p = np.eye(n, dtype=np.complex128) - self.p
        corner = one_minus_p @ a @ one_minus_p
        checks: dict[str, Check] = {}
        checks["idempotent"] = _eq_check(self.p @ self.p, self.p, tol)
        am = np.linalg.matrix_power(a, m)
        checks["hermitian"] = _hermitian_check(conj_transpose(am) @ am @ self.p, tol)
        checks["ap_nilpotent"] = _nil_check(np.linalg.matrix_power(a @ self.p, n), tol)
        checks["corner_right"] = _eq_check(corner @ self.corner_inverse, one_minus_p, tol)
        checks["corner_left"] = _eq_check(self.corner_inverse @ corner, one_minus_p, tol)
        spans = _span_matrices(one_minus_p, a @ one_minus_p, True)
        *span_ranks, plus_p_rank = numerical_ranks([*spans, a + self.p], tol)
        checks["range_eq"] = _bool_check(_one_rank(span_ranks))
        checks["plus_p_invertible"] = _bool_check(plus_p_rank == n)
        return VerificationReport(checks=checks)


def _products(t: Tower, z: np.ndarray, m: int) -> tuple:
    """A Z, A Z^2 = (A Z) Z and A^{m+1} Z = A^m (A Z): for the Z that ``mwgi`` checked
    and A's tower keeps for m, the products kept with it; any other z forms its own."""

    def form():
        az = t.a @ z
        return az, az @ z, t.power(m) @ az

    return t.keep(("products", m), form) if z is _kept_z(t, m) else form()


def _checks(t: Tower, z: np.ndarray, m: int, identities: dict, labels) -> dict[str, Check]:
    """{label: its check} for ``labels`` of a list of z's identities.  For the Z that
    ``mwgi`` checked and A's tower keeps for m, each is made once and kept by label for
    as long as the tower lives, herm as hermitian31 (both form (A^m)* (A^m (A Z)));
    any other z, a copy, a one-ulp move or a signed zero of it, is judged afresh."""
    made = t.keep(("checks", m), dict) if z is _kept_z(t, m) else {}
    keys = {label: "hermitian31" if label == "herm" else label for label in labels}
    missing = [label for label, key in keys.items() if key not in made]
    for label, check in _evaluate(identities, missing, _eq_check, t.tol).items():
        made.setdefault(keys[label], check)  # of two threads racing here, the first wins
    return {label: made[key] for label, key in keys.items()}


def _definition(t: Tower, z: np.ndarray, m: int, products: tuple, qs, aao) -> dict:
    """The definition list of z over its products (``_products``), read from A's tower."""
    k = t.index.k
    return _definition_identities(t.a, z, k, m, t.power, conj_transpose, *products, qs, aao)


def _check_z(t: Tower, z: np.ndarray, m: int) -> dict[str, Check]:
    """``mwgi``'s self-check of any Z: ax2, Z = A Z^2, and wgm_k, Z A^{k+1} = A^k and
    (A^k)* A^{m+1} Z = (A^k)* A^m, which read neither (A A^D)* nor A A^o."""
    identities = _definition(t, z, m, _products(t, z, m), None, None)
    return _checks(t, z, m, identities, ("ax2", "wgm_k"))


def _require(checks: dict[str, Check], what: str) -> None:
    """Raise RepresentationMismatch naming the first failed check (CLI exit 1)."""
    for name, check in checks.items():
        if not check.passed:
            raise RepresentationMismatch(
                f"{what} fails its defining equations ({name}): residual {check.residual:.3e}"
            )


def _kept_z(t: Tower, m: int) -> np.ndarray | None:
    """The Z that ``mwgi`` checked and kept in A's tower for weight m, or None."""
    return t._kept.get(("z", m))


def _z(t: Tower, m: int) -> np.ndarray:
    """Z = (A^o)^{m+1} A^m: the Z that ``mwgi`` checked and kept in A's tower for
    this m, or else formed as U1 (T^-(m+1) (U1* A^m)) since U1* U1 = I."""
    _check_m(m)
    z = _kept_z(t, m)
    if z is not None:
        return z
    z = t.pow("tinv", m + 1) @ t.coords(t.power(m))
    return z if t.u1 is None else t.u1 @ z


def _candidate(t: Tower, z, m: int, default=None) -> np.ndarray:
    """Candidate z for weight m, validated and of A's shape; default(t, m) if z is None."""
    _check_m(m)
    if z is None and default is not None:
        return default(t, m)
    if z is not None and z is _kept_z(t, m):  # the Z mwgi checked, validated already
        return z
    z = as_matrix(z)
    if z.shape != t.a.shape:
        raise ValueError(f"candidate shape {z.shape} does not match {t.a.shape}")
    return z


def mwgi(a, m: int, tol: TolerancePolicy = DEFAULT_TOL) -> MwgiResult:
    """m-weak group inverse by the canonical route Z = (A^o)^{m+1} A^m.

    Z is formed from the tower's factors of A^o (see ``_z``) and checked against
    its defining equations (ax2 and wgm_k of ``verify_definition``); a failure
    beyond tolerance raises RepresentationMismatch naming the failed check.
    A Z that passes is kept in A's tower for as long as the tower lives, with its
    products A Z, A Z^2 and A^{m+1} Z and its checks, by label: a repeat call and
    the checkers' default Z read it unchanged, and each check of that Z object in
    the definition and fixed-point lists is made once (see ``_checks``).
    """
    _check_m(m)  # before the lookup, where m = True would find the entry of m = 1
    t = tower(a, tol)
    z = t.keep(("z", m), lambda: _checked_z(t, m))
    return MwgiResult(Z=z, m=m, k=t.index.k, route=Route.CORE_EP)


def _checked_z(t: Tower, m: int) -> np.ndarray:
    """Z formed and checked as ``_check_z`` checks it; if it passes, A's tower keeps
    its products and checks (``_products``, ``_checks``), and ``mwgi`` keeps Z."""
    z = readonly(_z(t, m))
    products = _products(t, z, m)  # formed: z is not kept yet
    identities = _definition(t, z, m, products, None, None)
    checks = _evaluate(identities, ("ax2", "wgm_k"), _eq_check, t.tol)
    _require(checks, "Z")
    t.keep(("products", m), lambda: products)
    t.keep(("checks", m), lambda: checks)
    return z


def mwgi_via_power(a, m: int, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Power-reduction route: A^{m-1} W with W the 1-weak group inverse of A^m (A's Z at m = 1)."""
    _check_m(m)
    if m == 1:
        return mwgi(a, 1, tol).Z.copy()
    a = tower(a, tol).a
    lifted = _build(_finite(np.linalg.matrix_power(a, m)), tol)
    return np.linalg.matrix_power(a, m - 1) @ mwgi(lifted, 1, tol).Z


def mwgi_normal_equation(a, m: int, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Normal-equation route: (A^D)^{m+1} x with x solving Q*Q x = Q* A^m, Q = A A^D.

    x = Q^+ A^m works because Q Q^+ is the orthogonal projector onto col(Q);
    the remaining null(Q) freedom in x is annihilated by the (A^D)^{m+1} factor.
    """
    _check_m(m)
    t = tower(a, tol)
    x = _pinv(_finite(t.ad), tol) @ t.power(m)
    return t.pow("d", m + 1) @ x


def mwgi_drazin_solve(a, m: int, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Drazin-weighted route: (A^D)^{m+2} x with x solving (A^D)* A^D x = (A^D)* A^m."""
    _check_m(m)
    t = tower(a, tol)
    x = _pinv(_finite(t.d), tol) @ t.power(m)
    return t.pow("d", m + 2) @ x


def mwgi_step(a, zm, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Recursion step: from Z_m to Z_{m+1} = Z_m^2 A.

    The caller owns the precondition that zm is the m-weak group inverse of a
    for some m; no validation is attempted.
    """
    a = tower(a, tol).a
    zm = as_matrix(zm)
    return zm @ zm @ a


def mwgi_core_of_drazin(a, m: int, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Route through the core inverse of A^D: (A^D)^{m+2} (A^D)^#o A^m.

    A^D always has index <= 1, so its core inverse exists unconditionally.
    """
    _check_m(m)
    t = tower(a, tol)
    return t.pow("d", m + 2) @ core_inverse(_build(_finite(t.d), tol), tol) @ t.power(m)


def mwgi_core_chain(a, m: int, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Chained-core route: [A^D A^m C]^{m+1} A^m with C the core inverse of A^{m+1} A^o.

    B = A^{m+1} A^o always has index <= 1 (its core inverse is (A^o)^m, which
    is verified here), even when A itself has no core inverse.
    """
    _check_m(m)
    t = tower(a, tol)
    b = t.power(m + 1) @ t.o
    c = core_inverse(_build(_finite(b), tol), tol)  # NoCoreInverse if B misbehaves
    om = t.pow("o", m)
    check = _eq_check(c, om, tol)
    if not check.passed:
        raise RepresentationMismatch(
            f"core inverse of A^({m + 1}) A^o is not (A^o)^{m}: residual {check.residual:.3e}"
        )
    return np.linalg.matrix_power(t.d @ t.power(m) @ c, m + 1) @ t.power(m)


def mwgi_regular_lift(a, m: int, tol: TolerancePolicy = DEFAULT_TOL, inner=None) -> np.ndarray:
    """Lift route: [W]^2 A with W the m-weak group inverse of A^2 A^-.

    Returns the (m+1)-weak group inverse of A.  The inner inverse A^- defaults
    to the Moore-Penrose inverse; any matrix with A A^- A = A may be supplied.
    """
    _check_m(m)
    a = tower(a, tol).a
    inner = _pinv(a, tol) if inner is None else as_matrix(inner)
    w = mwgi(_build(_finite(a @ a @ inner), tol), m, tol).Z
    return w @ w @ a


_ROUTES = {
    Route.CORE_EP: lambda a, m, tol: mwgi(a, m, tol).Z,
    Route.POWER_REDUCTION: mwgi_via_power,
    Route.NORMAL_EQUATION: mwgi_normal_equation,
    Route.DRAZIN_SOLVE: mwgi_drazin_solve,
    Route.CORE_OF_DRAZIN: mwgi_core_of_drazin,
    Route.CORE_CHAIN: mwgi_core_chain,
    Route.RECURSIVE: lambda a, m, tol: mwgi_step(a, mwgi(a, m - 1, tol).Z, tol),
    Route.REGULAR_LIFT: lambda a, m, tol: mwgi_regular_lift(a, m - 1, tol),
}


def mwgi_by_route(a, m: int, route: Route, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Dispatch a named computation route; they all return the same matrix.

    The recursive route steps from mwgi(a, m-1) and the lift route goes
    through A^2 A^+, so both require m >= 2.
    """
    if route not in _ROUTES:
        raise ValueError(f"unknown route {route!r}")
    if route in _NEED_M2 and m < 2:
        raise ValueError(f"the {route.value} route needs m >= 2")
    return _ROUTES[route](a, m, tol)


def verify_definition(a, z, m: int, tol: TolerancePolicy = DEFAULT_TOL) -> VerificationReport:
    """Check a candidate Z against every defining equation of the m-weak group inverse.

    Named checks:
      ax2          Z = A Z^2
      def11        (A A^D)* A^{m+1} Z = (A A^D)* A^m
      wgm_k        Z A^{k+1} = A^k and (A^k)* A^{m+1} Z = (A^k)* A^m
      hermitian31  (A^m)* A^{m+1} Z is Hermitian
      coreEP48     A^{m+1} Z = A A^o A^m
      limit        A^k = A Z A^k (the eventual identity, at n = k)
      idem34       A Z = A^n Z^n for n = 2, 3
    For the Z that ``mwgi`` kept, a check made once is read from A's tower (``_checks``).
    """
    t = tower(a, tol)
    z = _candidate(t, z, m)
    # A A^D = (A U1) G with G = T^-(k+1) U1* A^k (T^-1 at k = 0, where U1* A^0 = I)
    # and A A^o = (A U1) T^-1 U1*; A U1 is formed rather than taken as U1 T, which
    # is what def11 and coreEP48 test
    k, au1 = t.index.k, t.a if t.u1 is None else t.a @ t.u1
    g = t.tinv if k == 0 else t.pow("tinv", k + 1) @ t.coords(t.ak)
    g_star, au1_star = conj_transpose(g), conj_transpose(au1)
    identities = _definition(
        t, z, m, _products(t, z, m),
        lambda x: g_star @ (au1_star @ x), lambda x: au1 @ (t.tinv @ t.coords(x)),
    )
    return VerificationReport(checks=_checks(t, z, m, identities, identities))


def group_decomposition(a, m: int, tol: TolerancePolicy = DEFAULT_TOL, z=None) -> GroupDecomposition:
    """Split A = X + Y along Z (by default mwgi(A, m)): X = A^2 Z carries the group part."""
    t = tower(a, tol)
    a, z = t.a, mwgi(t, m, tol).Z if z is None else _candidate(t, z, m)
    x = a @ a @ z
    return GroupDecomposition(X=readonly(x), Y=readonly(a - x))


def polar_idempotent(a, m: int, tol: TolerancePolicy = DEFAULT_TOL, z=None) -> PolarData:
    """Polar-like data p = I - A Z and corner witness (I-p) Z (I-p); Z defaults to mwgi(A, m)."""
    t = tower(a, tol)
    a, n = t.a, t.a.shape[0]
    z = mwgi(t, m, tol).Z if z is None else _candidate(t, z, m)
    p = np.eye(n, dtype=np.complex128) - a @ z
    one_minus_p = np.eye(n, dtype=np.complex128) - p
    corner_inverse = one_minus_p @ z @ one_minus_p
    return PolarData(p=readonly(p), corner_inverse=readonly(corner_inverse))


def b_characterization(a, m: int, tol: TolerancePolicy = DEFAULT_TOL, z=None) -> VerificationReport:
    """Check the fixed-point characterization with b = Z (by default from A's tower).

    Named checks: bab (b A b = b), a2b2 (A^2 b^2 = A b), herm ((A^m)* A^{m+1} b
    Hermitian), range (col(A b) = col(A^2 b)), qnil ((A - A^2 b)^n vanishes).
    For the Z that ``mwgi`` kept, A b is its kept A Z and the checks are kept too.
    """
    t = tower(a, tol)
    a, b = t.a, _candidate(t, z, m, _z)
    ab = _products(t, b, m)[0] if b is _kept_z(t, m) else a @ b
    a2b = a @ ab
    identities = _b_identities(a, b, m, t.power, conj_transpose, ab, a2b)
    checks = _checks(t, b, m, identities, ("bab", "a2b2", "herm"))
    checks["range"] = _bool_check(col_space_equal(ab, a2b, tol))
    checks.update(_checks(t, b, m, identities, ("qnil",)))
    return VerificationReport(checks=checks)


def _b0(t: Tower, m: int) -> np.ndarray:
    """b0 = (A^D)^{m+1} A^m, the range of Z, formed once per tower and m."""
    return t.keep(("b0", m), lambda: readonly(t.pow("d", m + 1) @ t.power(m)))


def bc_inverse_check(a, m: int, tol: TolerancePolicy = DEFAULT_TOL, z=None) -> VerificationReport:
    """Check that Z (by default from A's tower) is the (b0, c0)-inverse of A
    for the canonical pair b0 = (A^D)^{m+1} A^m and c0 = A^D A A^o A^m.

    Membership x in b0*R*x and x*R*c0 is realized as the column-space inclusion
    col(Z) in col(b0) and the row-space inclusion row(Z) in row(c0).
    """
    t = tower(a, tol)
    a, z, am = t.a, _candidate(t, z, m, _z), t.power(m)
    b0 = _b0(t, m)
    c0 = t.d @ a @ t.o @ am
    checks: dict[str, Check] = {}
    checks["xab"] = _eq_check(z @ a @ b0, b0, tol)
    checks["cax"] = _eq_check(c0 @ a @ z, c0, tol)
    # col(Z) in col(b0) and row(Z) in row(c0), ranked together
    row = _span_matrices(conj_transpose(c0), conj_transpose(z), False)
    ranks = numerical_ranks([*_span_matrices(b0, z, False), *row], tol)
    checks["memb_col"] = _bool_check(_one_rank(ranks[:2]))
    checks["memb_row"] = _bool_check(_one_rank(ranks[2:]))
    return VerificationReport(checks=checks)


def outer_inverse_subspaces(
    a, m: int, tol: TolerancePolicy = DEFAULT_TOL, z=None
) -> VerificationReport:
    """Check that Z (by default from A's tower) is the outer inverse with range
    col((A^D)^{m+1} A^m) and kernel that of A^o A^m (tested as row-space equality)."""
    t = tower(a, tol)
    z = _candidate(t, z, m, _z)
    kernel_target = t.o @ t.power(m)
    checks: dict[str, Check] = {}
    bab = _b_identities(t.a, z, m, t.power, conj_transpose, None, None)  # reads no A Z
    checks["outer"] = _checks(t, z, m, bab, ("bab",))["bab"]
    # col(Z) = col(b0) and row(Z) = row(A^o A^m), ranked together
    kernel = _span_matrices(conj_transpose(kernel_target), conj_transpose(z), True)
    ranks = numerical_ranks([*_span_matrices(_b0(t, m), z, True), *kernel], tol)
    checks["range_eq"] = _bool_check(_one_rank(ranks[:3]))
    checks["kernel_eq"] = _bool_check(_one_rank(ranks[3:]))
    return VerificationReport(checks=checks)


def additive_mwgi(a, b, m: int, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Sum rule: when AB = BA = A*B = 0, the inverse of A + B splits blockwise."""
    ta, tb = tower(a, tol), tower(b, tol)
    ma, mb = ta.a, tb.a
    if ma.shape != mb.shape:
        raise ValueError(f"shape mismatch: {ma.shape} vs {mb.shape}")
    _check_m(m)
    for label, product in (("A B", ma @ mb), ("B A", mb @ ma), ("A* B", conj_transpose(ma) @ mb)):
        check = _zero_check(product, tol)
        if not check.passed:
            raise OrthogonalityViolation(f"{label} is not zero (residual {check.residual:.3e})")
    return mwgi(ta, m, tol).Z + mwgi(tb, m, tol).Z
