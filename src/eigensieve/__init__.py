"""Constraint-aware screening of spurious eigenmodes.

Spectral discretizations of boundary-value problems produce eigenmodes
that violate constraints hidden in the dynamics, and those modes
pollute the computed spectrum.  This package states boundary conditions
as explicit constraint rows, compresses the operators onto the
nullspace of the stacked implicit constraints, scores every computed
mode by how badly it breaks the constraint structure, and prunes
reduced models down to the trustworthy modes.

The modules split along those lines: ``chebyshev`` holds the
collocation primitives, ``constrained`` the compression machinery,
``quality`` the per-mode scores, ``problems`` the benchmark systems,
``reduction`` the ranked truncation and time stepping, ``experiments``
the depth sweeps, and ``cli`` the command-line front end.
"""

from .chebyshev import (
    cheb_diff,
    cheb_points,
    clenshaw_curtis,
    diff_power,
)
from .constrained import (
    CompressedSystem,
    ConstrainedSystem,
    DecompositionReport,
    ObservabilityMatrix,
    compress,
    nullspace_basis,
    observability,
    verify_decomposition,
)
from .errors import (
    DivergenceError,
    EigensieveError,
    GeneralizedUnsupportedError,
    IllConditionedMassError,
    ImaginaryResidueError,
    RankDeficientBasisError,
    TrivialNullspaceError,
    UndefinedSubspaceError,
    ZeroReferenceError,
)
from .experiments import (
    KQualityRow,
    KSweepRow,
    MatchResult,
    k_quality_sweep,
    k_sweep,
    match_to_reference,
)
from .problems import (
    REGISTRY,
    BenchmarkProblem,
    acoustic_reference,
    acoustic_spectrum,
    acoustic_wave,
    bump_ic,
    canuto_hyperbolic,
    canuto_reference,
    get_problem,
    heat_dirichlet,
    heat_reference,
    orr_sommerfeld,
    sine_ic,
    split_state,
)
from .quality import (
    DEFAULT_MASS_COND_LIMIT,
    DEFAULT_THETA_THRESHOLD,
    DEFAULT_ZERO_FLOOR,
    ModeRecord,
    QualityReport,
    derivative_violation,
    eigenpairs,
    grassmann_distance,
    mode_angle,
    quality_report,
)
from .reduction import (
    ReducedModel,
    ReductionRow,
    ReductionSweepResult,
    SimulationResult,
    reduction_sweep,
    relative_l2_error,
    simulate_modal,
    simulate_rk4,
    truncate,
)

__version__ = "0.1.0"

__all__ = [
    "cheb_points", "cheb_diff", "diff_power", "clenshaw_curtis",
    "ConstrainedSystem", "ObservabilityMatrix", "CompressedSystem",
    "DecompositionReport", "observability", "nullspace_basis", "compress",
    "verify_decomposition",
    "ModeRecord", "QualityReport", "eigenpairs", "derivative_violation",
    "grassmann_distance", "mode_angle", "quality_report",
    "DEFAULT_THETA_THRESHOLD", "DEFAULT_ZERO_FLOOR", "DEFAULT_MASS_COND_LIMIT",
    "BenchmarkProblem", "REGISTRY", "get_problem", "split_state",
    "heat_dirichlet", "heat_reference", "canuto_hyperbolic", "canuto_reference",
    "orr_sommerfeld", "acoustic_wave", "acoustic_spectrum", "acoustic_reference",
    "bump_ic", "sine_ic",
    "ReducedModel", "SimulationResult", "ReductionRow", "ReductionSweepResult",
    "truncate", "simulate_modal", "simulate_rk4", "relative_l2_error",
    "reduction_sweep",
    "MatchResult", "KSweepRow", "KQualityRow", "match_to_reference",
    "k_sweep", "k_quality_sweep",
    "EigensieveError", "TrivialNullspaceError", "IllConditionedMassError",
    "GeneralizedUnsupportedError", "UndefinedSubspaceError", "ZeroReferenceError",
    "DivergenceError", "ImaginaryResidueError", "RankDeficientBasisError",
]
