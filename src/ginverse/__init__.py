"""Generalized inverses of complex matrices.

Moore-Penrose, Drazin, group, core and core-EP inverses, the m-weak group
inverse computed through every known representation, its characterization
checkers, the associated constrained matrix equation, an exact-arithmetic
oracle over the Gaussian rationals, and an exact shift-operator sandbox.
"""

from .classical import (
    IndexResult,
    NoCoreInverse,
    NoGroupInverse,
    Tower,
    core_ep,
    core_inverse,
    drazin,
    group_inverse,
    index,
    moore_penrose,
    tower,
)
from .eqsolve import EquationSolution, residual, solve_general, solve_in_range
from .matcore import (
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
from .oracle import (
    GaussianRational,
    HeightOverflow,
    RationalMatrix,
    certify,
    exact_core_ep,
    exact_drazin,
    exact_index,
    exact_mp,
    exact_mwgi,
)
from .report import Check, VerificationReport
from .shiftlab import (
    FinSeq,
    ShiftWord,
    apply,
    mwgi_shift,
    normalize,
    verify_shift_identities,
)
from .wgi import (
    GroupDecomposition,
    MwgiResult,
    OrthogonalityViolation,
    PolarData,
    RepresentationMismatch,
    Route,
    additive_mwgi,
    b_characterization,
    bc_inverse_check,
    group_decomposition,
    mwgi,
    mwgi_by_route,
    mwgi_core_chain,
    mwgi_core_of_drazin,
    mwgi_drazin_solve,
    mwgi_normal_equation,
    mwgi_regular_lift,
    mwgi_step,
    mwgi_via_power,
    outer_inverse_subspaces,
    polar_idempotent,
    verify_definition,
)

__version__ = "0.1.0"
