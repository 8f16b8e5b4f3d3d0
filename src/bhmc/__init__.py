"""Stationary distributions of upper block-Hessenberg Markov chains.

The primary solver advances a first-exit recursion level by level and, at
checkpoints, augments the truncated generator with a unit mass on a
ratio-maximizing pivot phase; a closed-form q-weighted residual drives
the stopping rule.  Baseline solvers (direct augmented-truncation solve,
backward R-matrix recursion, dense null-vector solve) provide
independent cross-checks, and a small model catalog covers the standard
test regimes.

Examples
--------
>>> from bhmc import make_mm1, solve_mip, SolverOptions
>>> approx = solve_mip(make_mm1(1.0, 2.0), SolverOptions(epsilon=1e-8))
>>> approx.converged, float(approx.blocks[0][0])
(True, 0.500000...)
"""

from .baseline import (
    BrightTaylorResult,
    bright_taylor,
    brute_force_stationary,
    lbcl_direct,
)
from .errors import (
    BadDistribution,
    BadRates,
    BhmcError,
    ConfigError,
    EmptyCandidateSet,
    IndexOutOfRange,
    InvalidBlock,
    MissingTailInfo,
    NonpositiveWeight,
    NotQbd,
    PhaseMismatch,
    SingularBlock,
    UnstableModel,
    UnsupportedInfiniteBand,
)
from .generator import (
    BlockGenerator,
    PrincipalSubmatrix,
    ValidationReport,
    Violation,
    lbcl_augment,
    principal_submatrix,
    validate_proper_q,
)
from .lfp import (
    DriftCertificate,
    DriftSelection,
    PivotSelection,
    incoming_support,
    outgoing_support,
    select_pivot,
    select_pivot_drift,
)
from .models import (
    MODEL_IDS,
    build_model,
    make_heavy_tail_mg1,
    make_lattice_rw_2d,
    make_ld_qbd_birth_death,
    make_mm1,
    make_mmc,
)
from .recursions import (
    RecursionState,
    advance,
    init_state,
    sojourn_matrix,
    sojourn_rows,
)
from .solver import (
    Approximation,
    CheckpointRecord,
    CheckpointSchedule,
    FixedDirection,
    SolverOptions,
    residual_q_norm,
    solve,
    solve_fixed_direction,
    solve_mip,
    solve_mip_drift,
    tv_distance,
)

__version__ = "0.1.0"
