"""Generalized pseudo-bosonic ladder-operator models and their numerics.

Build a model from four coefficient functions (or pick a built-in),
generate the two biorthogonal eigenfunction families, assemble the
non-self-adjoint Hamiltonians they diagonalize, and verify the algebraic
and integral identities numerically: commutators, biorthonormality,
ladder relations, quasi-basis resolutions, and weak bi-coherent states.
"""

from .bicoherent import (
    GrowthProfile,
    WeakStateQuery,
    coherent_norm,
    convergence_radius,
    eigen_relation_residual,
    moment_check,
    resolution_of_identity,
    weak_pairing,
)
from .expressions import (
    ExpressionDomainError,
    ExpressionError,
    ExpressionSyntaxError,
    FunctionExpr,
    parse_expr,
    to_source,
)
from .jets import Jet, JetError
from .model import (
    BUILTIN_NAMES,
    CommutatorStats,
    ConditionReport,
    ModelError,
    PBModel,
    apply_ladder,
    build_builtin,
    check_pb_conditions,
    commutator_residual,
    from_expressions,
    proportional_model,
)
from .quad import (
    IntegralResult,
    QuadratureError,
    RhoError,
    TestFunction,
    biorthonormality_matrix,
    compatibility_form,
    integrate_line,
    oscillator_en,
    quasi_basis_sum,
    rho_eval,
    rho_invert,
    transform_pm,
)
from .spectral import (
    HamiltonianCoeffs,
    apply_hamiltonian,
    builtin_hamiltonian_crosscheck,
    eigen_residual,
    hamiltonian_coeffs,
    hsusy_shift_check,
)
from .states import (
    LadderResiduals,
    StateFamily,
    eval_state,
    fix_normalization,
    pi_sigma_closed,
    pi_sigma_recursive,
    vacuum,
    verify_ladder,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
