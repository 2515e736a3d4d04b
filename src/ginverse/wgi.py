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
from typing import NamedTuple

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
from .report import Check, VerificationReport, _bool_check, _eq_check, _evaluate, _nil_check
from .report import _b_identities, _bc_identities, _decomposition_identities, _zero_pair
from .report import _definition_identities, _polar_identities, _z_products

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
        # X nonzero, else A nilpotent; A^n is formed from A itself only when X reads as
        # zero: the one nilpotency witness that is not read off the staircase
        checks["x_nonzero"] = _bool_check(
            not _nil_check(x, tol).passed
            or _nil_check(np.linalg.matrix_power(a, n), tol).passed
        )
        checks.update(_evaluate(identities, ("group_matches",), _eq_check, tol))
        return VerificationReport(checks=checks)


@dataclass(frozen=True)
class PolarData:
    """Polar-like idempotent p = I - A Z and the inverse of the (I-p)-corner, which
    ``polar_idempotent`` gives as Z itself: (I-p) Z (I-p) = Z A Z = Z."""

    p: np.ndarray
    corner_inverse: np.ndarray

    def verify(self, a, m: int, tol: TolerancePolicy = DEFAULT_TOL) -> VerificationReport:
        """Check p^2 = p, the Hermitian weighting (A^m)* A^m p, nilpotency of
        A p, invertibility of (I-p)A(I-p) inside the corner, the range identity
        col(I-p) = col(A(I-p)), and invertibility of A + p (full-rank test)."""
        m = _check_m(m)
        t = tower(a, tol)
        a, n = t.a, t.a.shape[0]
        p, q = self.p, t.power(0) - self.p
        identities = _polar_identities(a, p, q, self.corner_inverse, m, t.power, conj_transpose)
        checks = _evaluate(identities, identities, _eq_check, tol)
        spans = _span_matrices(q, a @ q, True)
        *span_ranks, plus_p_rank = numerical_ranks([*spans, a + p], tol)
        checks["range_eq"] = _bool_check(_one_rank(span_ranks))
        checks["plus_p_invertible"] = _bool_check(plus_p_rank == n)
        return VerificationReport(checks=checks)


class _CheckedZ(NamedTuple):
    """A Z with its products (``report._z_products``, the last one only at k = m) and
    its self-check, ax2 and wgm_k (``checks``), as ``_self_check`` forms them; A's tower
    keeps, under ("mwgi", m), the record of each Z that ``mwgi`` forms for weight m.
    It holds arrays and checks only, nothing that refers back to the tower, so a
    dropped tower is freed at once."""

    z: np.ndarray
    products: tuple
    checks: dict[str, Check]


def _record(t: Tower, m: int) -> _CheckedZ | None:
    """What A's tower keeps for weight m of the Z that ``mwgi`` formed, or None."""
    return t._kept.get(("mwgi", m))


def _definition(t: Tower, z: np.ndarray, m: int, products: tuple, qs=None, aao=None) -> dict:
    """The definition list of z over A's tower and z's products; without qs(X) =
    (A A^D)* X and aao(X) = A A^o X only the self-check, ax2 and wgm_k, may be read."""
    return _definition_identities(t.a, z, t.index.k, m, t.power, conj_transpose, products, qs, aao)


def _self_check(t: Tower, z: np.ndarray, m: int) -> _CheckedZ:
    """Any Z with its products and ``mwgi``'s self-check of it: ax2, Z = A Z^2, and
    wgm_k, Z A^{k+1} = A^k and (A^k)* A^{m+1} Z = (A^k)* A^m."""
    products = _z_products(t.a, z, t.index.k, m, t.power, conj_transpose)
    checks = _evaluate(_definition(t, z, m, products), ("ax2", "wgm_k"), _eq_check, t.tol)
    if m != t.index.k:  # only hermitian31 at k = m reads (A^k)* A^{m+1} Z again
        products = (*products[:3], None)
    return _CheckedZ(z, products, checks)


def _require(checks: dict[str, Check], what: str) -> None:
    """Raise RepresentationMismatch naming the first failed check (CLI exit 1)."""
    for name, check in checks.items():
        if not check.passed:
            raise RepresentationMismatch(
                f"{what} fails its defining equations ({name}): residual {check.residual:.3e}"
            )


def _z(t: Tower, m: int) -> np.ndarray:
    """The checkers' default Z: the Z that A's tower keeps for weight m (``Tower.z``),
    the same object that ``mwgi`` checks; one name, so a test can put a fake Z in."""
    return t.z(m)


def _candidate(t: Tower, z, m: int, default=None) -> np.ndarray:
    """Candidate z for weight m, validated and of A's shape; default(t, m) if z is None."""
    m = _check_m(m)
    if z is None and default is not None:
        return default(t, m)
    record = _record(t, m)
    if record is not None and z is record.z:  # the Z mwgi formed, validated already
        return z
    z = as_matrix(z)
    if z.shape != t.a.shape:
        raise ValueError(f"candidate shape {z.shape} does not match {t.a.shape}")
    return z


def mwgi(a, m: int, tol: TolerancePolicy = DEFAULT_TOL) -> MwgiResult:
    """m-weak group inverse by the canonical route Z = (A^o)^{m+1} A^m.

    Z is the one A's tower forms from its factors of A^o and keeps (``Tower.z``):
    for every m >= k that is A^D, the tower's one kept ``d``.  It is checked at the
    m asked for against its defining equations (ax2 and wgm_k of ``verify_definition``);
    a failure beyond tolerance raises RepresentationMismatch naming the failed check.
    A's tower keeps the record of that Z (``_self_check``), whether or not it passes,
    for as long as the tower lives, and each call raises or returns from it: a repeat
    call and the checkers' default Z read it unchanged, and ``verify_definition`` of
    that Z object reads its products, ax2 and wgm_k in place of forming them again.
    """
    m = _check_m(m)  # before the lookup, where m = True would find the entry of m = 1
    t = tower(a, tol)
    record = t.keep(("mwgi", m), lambda: _self_check(t, t.z(m), m))
    _require(record.checks, "Z")
    return MwgiResult(Z=record.z, m=m, k=t.index.k, route=Route.CORE_EP)


def mwgi_via_power(a, m: int, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Power-reduction route: A^{m-1} W with W the 1-weak group inverse of A^m (A's Z at m = 1)."""
    m = _check_m(m)
    if m == 1:
        return mwgi(a, 1, tol).Z.copy()
    t = tower(a, tol)
    lifted = _build(_finite(t.power(m)), tol)
    return t.power(m - 1) @ mwgi(lifted, 1, tol).Z


def mwgi_normal_equation(a, m: int, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Normal-equation route: (A^D)^{m+1} x with x solving Q*Q x = Q* A^m, Q = A A^D.

    x = Q^+ A^m works because Q Q^+ is the orthogonal projector onto col(Q);
    the remaining null(Q) freedom in x is annihilated by the (A^D)^{m+1} factor.
    """
    m = _check_m(m)
    t = tower(a, tol)
    x = _pinv(_finite(t.ad), tol) @ t.power(m)
    return t.pow("d", m + 1) @ x


def mwgi_drazin_solve(a, m: int, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Drazin-weighted route: (A^D)^{m+2} x with x solving (A^D)* A^D x = (A^D)* A^m."""
    m = _check_m(m)
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
    m = _check_m(m)
    t = tower(a, tol)
    return t.pow("d", m + 2) @ core_inverse(_build(_finite(t.d), tol), tol) @ t.power(m)


def mwgi_core_chain(a, m: int, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Chained-core route: [A^D A^m C]^{m+1} A^m with C the core inverse of A^{m+1} A^o.

    B = A^{m+1} A^o always has index <= 1 (its core inverse is (A^o)^m, which
    is verified here), even when A itself has no core inverse.
    """
    m = _check_m(m)
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
    m = _check_m(m)
    t = tower(a, tol)
    inner = _pinv(t.a, tol) if inner is None else as_matrix(inner)
    w = mwgi(_build(_finite(t.power(2) @ inner), tol), m, tol).Z
    return w @ w @ t.a


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
    Z's products, ax2 and wgm_k are read from its record: the one A's tower keeps
    for the Z object that ``mwgi`` formed, else one made here (``_self_check``).  The
    other checks are made here, with A U1 formed once and G = T^-(k+1) U1* A^k read
    from A's tower (``Tower.g``, the G of A^D = U1 G): def11 reads (A A^D)* =
    G* (A U1)* and coreEP48 A A^o A^m = (A U1) (T^-1 U1* A^m), with A U1 formed, not
    taken as U1 T, which is what the two test.
    """
    t = tower(a, tol)
    z = _candidate(t, z, m)
    record = _record(t, m)
    if record is None or z is not record.z:
        record = _self_check(t, z, m)
    au1 = t.a @ t.u1
    au1_star, g_star = conj_transpose(au1), conj_transpose(t.g)
    identities = _definition(
        t, z, m, record.products,
        lambda x: g_star @ (au1_star @ x),
        lambda am: au1 @ (t.tinv @ t.coords(m)),  # A A^o X, which the list reads at X = A^m
    )
    rest = [label for label in identities if label not in record.checks]
    checks = {**record.checks, **_evaluate(identities, rest, _eq_check, tol)}
    return VerificationReport(checks={label: checks[label] for label in identities})


def group_decomposition(a, m: int, tol: TolerancePolicy = DEFAULT_TOL, z=None) -> GroupDecomposition:
    """Split A = X + Y along Z (by default mwgi(A, m)): X = A^2 Z carries the group part."""
    t = tower(a, tol)
    z = mwgi(t, m, tol).Z if z is None else _candidate(t, z, m)
    x = t.power(2) @ z
    return GroupDecomposition(X=readonly(x), Y=readonly(t.a - x))


def polar_idempotent(a, m: int, tol: TolerancePolicy = DEFAULT_TOL, z=None) -> PolarData:
    """Polar-like data p = I - A Z and corner witness Z itself, as (I-p) Z (I-p) =
    (A Z^2)(A Z) = Z A Z = Z, not formed again; Z defaults to mwgi(A, m)."""
    t = tower(a, tol)
    z = mwgi(t, m, tol).Z if z is None else _candidate(t, z, m)
    p = t.power(0) - t.a @ z
    return PolarData(p=readonly(p), corner_inverse=z)


def b_characterization(a, m: int, tol: TolerancePolicy = DEFAULT_TOL, z=None) -> VerificationReport:
    """Check the fixed-point characterization with b = Z (by default from A's tower).

    Named checks: bab (b A b = b), a2b2 (A^2 b^2 = A b), herm ((A^m)* A^{m+1} b
    Hermitian), range (col(A b) = col(A^2 b)), qnil ((A - A^2 b)^n vanishes).
    bab is outer_inverse_subspaces' outer check, and herm forms the product that
    verify_definition's hermitian31 forms, so each pair agrees bit for bit.
    """
    t = tower(a, tol)
    a, b = t.a, _candidate(t, z, m, _z)
    ab = a @ b
    a2b = a @ ab
    identities = _b_identities(a, b, m, t.power, conj_transpose, ab, a2b)
    checks = _evaluate(identities, ("bab", "a2b2", "herm"), _eq_check, tol)
    checks["range"] = _bool_check(col_space_equal(ab, a2b, tol))
    checks.update(_evaluate(identities, ("qnil",), _eq_check, tol))
    return VerificationReport(checks=checks)


def _subspace_ranks(t: Tower, z: np.ndarray, c0: np.ndarray, equal: bool) -> list[int]:
    """Ranks of [A^D | Z], A^D, [c0* | Z*] and c0*, each span with Z (or Z*) after it
    when ``equal``, in one ``numerical_ranks`` call (see ``_span_matrices``)."""
    rows = _span_matrices(conj_transpose(c0), conj_transpose(z), equal)
    return numerical_ranks([*_span_matrices(t.d, z, equal), *rows], t.tol)


def bc_inverse_check(a, m: int, tol: TolerancePolicy = DEFAULT_TOL, z=None) -> VerificationReport:
    """Check that Z (by default from A's tower) is the (b0, c0)-inverse of A for
    b0 = (A^D)^{m+1} A^m = A^D and c0 = A^D A A^o A^m = A^o A^m, as A^D A is the
    idempotent onto col(A^k) = col(A^o) that commutes with A.  Membership x in b0*R*x
    and x*R*c0 is realized as col(Z) in col(b0) and row(Z) in row(c0)."""
    t = tower(a, tol)
    z, c0 = _candidate(t, z, m, _z), t.oam(m)
    checks = _evaluate(_bc_identities(t.a, z, t.d, c0), ("xab", "cax"), _eq_check, tol)
    ranks = _subspace_ranks(t, z, c0, False)
    checks["memb_col"] = _bool_check(_one_rank(ranks[:2]))
    checks["memb_row"] = _bool_check(_one_rank(ranks[2:]))
    return VerificationReport(checks=checks)


def outer_inverse_subspaces(
    a, m: int, tol: TolerancePolicy = DEFAULT_TOL, z=None
) -> VerificationReport:
    """Check that Z (by default from A's tower) is the outer inverse with range col(A^D)
    and kernel that of A^o A^m (row-space equality): bc_inverse_check's b0 and c0, as
    (A^D)^{m+1} A^m = A^D and A^D A A^o A^m = A^o A^m; both rank through one helper."""
    t = tower(a, tol)
    z = _candidate(t, z, m, _z)
    bab = _b_identities(t.a, z, m, t.power, conj_transpose, None, None)  # reads no A Z
    checks = {"outer": _evaluate(bab, ("bab",), _eq_check, tol)["bab"]}
    ranks = _subspace_ranks(t, z, t.oam(m), True)
    checks["range_eq"] = _bool_check(_one_rank(ranks[:3]))
    checks["kernel_eq"] = _bool_check(_one_rank(ranks[3:]))
    return VerificationReport(checks=checks)


def additive_mwgi(a, b, m: int, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Sum rule: when AB = BA = A*B = 0, the inverse of A + B splits blockwise."""
    ta, tb = tower(a, tol), tower(b, tol)
    ma, mb = ta.a, tb.a
    if ma.shape != mb.shape:
        raise ValueError(f"shape mismatch: {ma.shape} vs {mb.shape}")
    m = _check_m(m)
    for label, product in (("A B", ma @ mb), ("B A", mb @ ma), ("A* B", conj_transpose(ma) @ mb)):
        check = _eq_check(*_zero_pair(product), tol)
        if not check.passed:
            raise OrthogonalityViolation(f"{label} is not zero (residual {check.residual:.3e})")
    return mwgi(ta, m, tol).Z + mwgi(tb, m, tol).Z
