"""Truncated eigenfunction-expansion regularization of first-kind integral
equations, with covering/packing information bounds and stability diagnostics."""

from .errors import (
    BudgetExceededError,
    ConvergenceError,
    DegenerateModeError,
    HypothesisWarning,
    InfeasibleSpecError,
    NumericDomainError,
    ResolutionError,
)
from .infotheory import (
    Ellipsoid,
    FinitePointSet,
    FlowComparison,
    InfoReport,
    covering_number_exact,
    ellipsoid_of,
    entropy_lower_bound,
    information_flow_comparison,
    packing_number_exact,
    sample_ellipsoid,
    shannon_entropy_estimate,
)
from .kernels import (
    KernelSpec,
    SincKernel,
    TabulatedKernel,
    legendre_series,
    parse_kernel,
    plateau_count,
    prolate_eigenvalues,
    prolate_modes,
    shannon_number,
    triangular_eigensystem,
    triangular_kernel,
)
from .regularize import (
    FeasibilityResult,
    ProblemInstance,
    Reconstruction,
    ResidualReport,
    StrongErrorBound,
    feasibility_check,
    identity_rule_residuals,
    make_noise,
    parse_constraint,
    range_compatibility_sums,
    strong_error_bound,
    synthesize_problem,
    truncated_solution,
    truncation_identity,
    truncation_weighted,
    weak_pairing,
    weighted_rule_residuals,
)
from .spectral import (
    QuadratureGrid,
    SpectralSystem,
    SymmetricOperatorMatrix,
    eigh,
    gauss_legendre,
    nystrom_matrix,
    operator_matrix,
    project,
    reconstruct,
    row_defect,
    spectral_eigenvalues,
    spectral_system,
)
from .stability import (
    ContinuityFit,
    PFunction,
    StabilityReport,
    check_condition,
    classify_continuity,
    p_eval,
    p_inverse,
    parse_pfunction,
    stability_bound,
    stability_report,
    stability_sup_exact,
)

__version__ = "0.1.0"
