"""Numerical laboratory for semilinear elliptic Dirichlet problems.

Solves  L u = phi(., u)  on lattice domains with Dirichlet data, where L
is a nondivergence-form elliptic operator discretized as an M-matrix.
Built around the discrete Green operator: harmonic extensions, Green
potentials, a fixed-point solver for the semilinear problem, concave
majorant construction for rough reactions, exhaustion experiments for
the boundedness dichotomy, and blow-up sweeps.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    EllipotError,
    EllipticityError,
    ExprError,
    LinearSolveError,
    MajorantError,
    MaskError,
    NestingError,
    NonConvergenceError,
    SolverBreakdownError,
    StencilError,
)
from .geometry import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    DomainMask,
    ExhaustionSequence,
    Grid,
    box_mask,
    build_exhaustion,
    build_grid,
    interior_depth,
    mask_from_interior,
    mask_from_predicate,
)
from .operators import (
    AssembledOperator,
    CoefficientSet,
    SchemeOptions,
    assemble,
    check_ellipticity,
    check_m_matrix,
)
from .potentials import (
    Field,
    boundary_values,
    green_apply,
    green_kernel_column,
    green_row,
    harmonic_extension,
    interior_values,
    kato_limit_scan,
    kato_norm_estimate,
    save_field,
    solve_interior,
)
from .nonlinearity import (
    AffinePhi,
    MajorantPhi,
    Mollifier,
    Phi,
    ProductPhi,
    build_concave_majorant,
    capped_linear_phi,
    check_hypotheses,
    domination_defect,
    mollified_at_zero,
    power_phi,
)
from .solver import (
    SemilinearParams,
    SolveReport,
    classify_super_sub,
    solve_linear_reaction,
    solve_semilinear_dirichlet,
)
from .experiments import (
    BlowupSweep,
    DichotomyReport,
    ExhaustionRun,
    PotentialDiagnostic,
    ScalingCheckReport,
    SupIdentityReport,
    TruncationRecord,
    TruncationStudy,
    blowup_sweep,
    check_sup_identity,
    cube_truncation_study,
    deepest_point,
    dichotomy_report,
    green_potential_diagnostic,
    run_exhaustion,
    scaling_bound_check,
)
from .expressions import compile_point_function, evaluate, parse_expr, to_text
from .config import RunConfig

__all__ = [name for name in dir() if not name.startswith("_")]
