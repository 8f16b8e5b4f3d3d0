"""Stationary distributions of upper block-Hessenberg Markov chains.

The primary solver advances a first-exit recursion level by level and, at
checkpoints, augments the truncated generator with a unit mass on a
ratio-maximizing pivot phase; a closed-form q-weighted residual drives
the stopping rule.  Baseline solvers (direct augmented-truncation solve,
backward R-matrix recursion, sparse null-vector solve) provide
independent cross-checks, and a small model catalog covers the standard
test regimes.

Examples
--------
>>> from bhmc import make_mm1, solve_mip, SolverOptions
>>> approx = solve_mip(make_mm1(1.0, 2.0), SolverOptions(epsilon=1e-8))
>>> approx.converged, float(approx.blocks[0][0])
(True, 0.500000...)
"""

from .baseline import *
from .errors import *
from .generator import *
from .lfp import *
from .models import *
from .recursions import *
from .solver import *

__version__ = "0.1.0"
