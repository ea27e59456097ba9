"""Subgradient method on the Poincaré disk, with the supporting hyperbolic
geometry, convex oracles, step schedules, and inequality verification."""

from .geometry import (
    EUCLIDEAN_PLANE,
    ORIGIN,
    POINCARE_DISK,
    DiskPoint,
    Manifold,
    ResultOutsideDisk,
    Tangent,
    ZeroVector,
    scaled_disk,
)
from .oracles import (
    LengthMismatch,
    SolutionSet,
    SubgradientOracle,
    ball_hinge_oracle,
    busemann_gradient,
    busemann_oracle,
    busemann_value,
    distance_oracle,
    make_oracle,
    two_busemann_oracle,
    weighted_sum,
)
from .schedules import (
    StepSchedule,
    harmonic,
    log_inverse,
    parse_schedule,
    partial_sums,
    power_law,
    sqrt_harmonic,
    table,
)
from .solver import (
    ComplexityReport,
    ConfigError,
    IterationRecord,
    MissingFStar,
    MissingSolutionPoint,
    RunTrace,
    SolveConfig,
    Termination,
    complexity_bound_report,
    load_trace,
    min_gap_series,
    run,
    write_trace_csv,
    write_trace_json,
)
from .verify import (
    DegenerateTriangle,
    HypothesisUnverified,
    InequalityReport,
    KeyConfig,
    TriangleSample,
    fuzz,
    harvest_two_busemann_steps,
    key_theorem_margin,
    law_of_cosines_margin,
    per_step_margins,
    run_suite,
    sample_point,
    sample_triangle,
    sublevel_boundedness_check,
)

__version__ = "0.1.0"
