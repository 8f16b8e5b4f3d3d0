"""Sequential update drivers and stopping machinery.

One loop, ``_drive``, advances the first-exit recursion level by level
and evaluates a per-variant checkpoint function at the scheduled levels.
The checkpoint picks the augmentation direction, computes the stopping
quantity, and hands back a thunk that assembles the blocked approximation
once the run stops.

* ``solve_mip`` (primary): unit-mass pivot maximizing the occupancy
  ratio; stops when the q-weighted residual drops below ``epsilon``.
  The residual has the closed form ``1 / (|q(n, j; n, j)| * u_star(j))``
  at the chosen pivot ``j``, so testing it costs nothing.
* ``solve_mip_drift`` (legacy): drift-minimizing pivot, successive-
  iterate total-variation stopping, so it assembles the blocks at every
  checkpoint; finite upper bandwidth only.
* ``solve_fixed_direction``: a fixed positive direction over a constant
  phase set replaces pivot selection entirely.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import count
from typing import Callable, Iterator

import numpy as np

from .errors import ConfigError, IndexOutOfRange, PhaseMismatch, SingularBlock
from .generator import BlockGenerator
from .lfp import (
    DriftCertificate,
    PivotSelection,
    incoming_support,
    outgoing_support,
    select_pivot,
    select_pivot_drift,
)
from .recursions import (
    RecursionState,
    _normalize_k_set,
    advance,
    init_state,
    sojourn_rows,
)

__all__ = [
    "VARIANTS",
    "CheckpointSchedule",
    "SolverOptions",
    "CheckpointRecord",
    "Approximation",
    "FixedDirection",
    "solve",
    "solve_mip",
    "solve_mip_drift",
    "solve_fixed_direction",
    "residual_q_norm",
    "tv_distance",
]

TRACE_LIMIT = 1024  # checkpoints retained per run
VARIANTS = ("mip_new", "mip_drift", "fixed_direction")


@dataclass(frozen=True)
class CheckpointSchedule:
    """Increasing levels at which the solver evaluates its stopping rule.

    ``every`` checks each level from the start level on; ``arithmetic``
    steps by ``stride``; ``geometric`` multiplies by ``factor`` (always
    advancing by at least one); ``explicit`` uses ``levels`` as given, and
    its last level caps the run like ``max_level``.
    """

    kind: str = "every"
    stride: int = 1
    factor: float = 1.5
    levels: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("every", "arithmetic", "geometric", "explicit"):
            raise ConfigError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "arithmetic" and self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")
        if self.kind == "geometric" and not self.factor > 1.0:
            raise ConfigError(f"factor must be > 1, got {self.factor}")
        if self.kind == "explicit":
            if not self.levels:
                raise ConfigError("explicit schedule needs at least one level")
            lv = tuple(int(x) for x in self.levels)
            if any(b <= a for a, b in zip(lv, lv[1:])) or lv[0] < 0:
                raise ConfigError("explicit schedule must be strictly increasing")
            object.__setattr__(self, "levels", lv)

    def iterate(self, start: int) -> Iterator[int]:
        if self.kind == "every":
            return iter(count(start))
        if self.kind == "arithmetic":
            return iter(count(start, self.stride))
        if self.kind == "geometric":

            def geo() -> Iterator[int]:
                n = max(start, 1)
                while True:
                    yield n
                    n = max(n + 1, int(np.ceil(self.factor * n)))

            return geo()
        return iter(self.levels)


@dataclass(frozen=True)
class SolverOptions:
    """Tolerance, checkpoint layout, and level cap for one solve."""

    epsilon: float = 1e-6
    K_set: frozenset[int] = frozenset({0})
    checkpoint_schedule: CheckpointSchedule = field(default_factory=CheckpointSchedule)
    max_level: int = 10_000

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ConfigError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        ks = _normalize_k_set(self.K_set)
        object.__setattr__(self, "K_set", ks)
        if self.max_level < 1:
            raise ConfigError(f"max_level must be >= 1, got {self.max_level}")
        sched = self.checkpoint_schedule
        if sched.kind == "explicit" and sched.levels[0] < max(ks):
            raise ConfigError(
                f"schedule starts at {sched.levels[0]}, below max(K_set) = {max(ks)}"
            )


@dataclass(frozen=True)
class CheckpointRecord:
    """One checkpoint: level, chosen pivot, its ratio, and the residual.

    ``step_distance`` is filled only on the drift path (total variation
    from the previous checkpoint).  Fixed-direction checkpoints have no
    pivot or ratio.
    """

    level: int
    pivot: int | None
    ratio: float | None
    residual: float
    step_distance: float | None = None


@dataclass(frozen=True)
class Approximation:
    """Blocked probability vector with its convergence trace.

    ``blocks[k]`` approximates the stationary mass distribution over the
    phases of level ``k``, for ``k = 0..n``; the blocks jointly sum to 1.
    """

    n: int
    blocks: tuple[np.ndarray, ...]
    pivot_trace: tuple[CheckpointRecord, ...]
    residual: float
    converged: bool
    variant: str

    def flatten(self) -> np.ndarray:
        return np.concatenate(self.blocks)


@dataclass(frozen=True)
class FixedDirection:
    """Strictly positive probability direction over a constant phase set."""

    varpi: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.varpi, dtype=float).ravel()
        if w.size == 0 or np.any(w <= 0.0) or not np.all(np.isfinite(w)):
            raise PhaseMismatch("direction must be strictly positive and finite")
        if abs(w.sum() - 1.0) > 1e-9:
            raise PhaseMismatch(f"direction sums to {w.sum()!r}, expected 1")
        object.__setattr__(self, "varpi", w)


def residual_q_norm(state: RecursionState, pivot: int) -> float:
    """Closed-form q-weighted residual of the pivot approximation.

    Equals ``1 / (|block(n,n)[pivot, pivot]| * u_star[pivot])`` and always
    lies in ``(0, 1]``; it tends to zero as the level grows, which is what
    makes it a usable stopping rule.
    """
    if not 0 <= pivot < state.u_star.shape[0]:
        raise IndexOutOfRange(f"pivot {pivot} invalid at level {state.n}")
    value = float(1.0 / (abs(state.q_diag_n[pivot]) * state.u_star[pivot]))
    if not value > 0.0:  # u_star overflow: depth exceeds double range
        raise SingularBlock(
            f"residual underflowed at level {state.n}; u_star no longer "
            "representable in double precision"
        )
    return value


def tv_distance(h1, h2) -> float:
    """Total-variation distance between prefix-indexed vectors.

    The vectors may cover index prefixes of different lengths: shared
    indices contribute ``|h1 - h2|`` and each vector's overhang contributes
    its own mass.
    """
    a = np.asarray(h1, dtype=float).ravel()
    b = np.asarray(h2, dtype=float).ravel()
    # dot products with ones, not .sum(): the summation order fixes the
    # last digits of the distances the CLI reports
    w = np.ones(max(a.size, b.size))
    lo = min(a.size, b.size)
    total = float(np.abs(a[:lo] - b[:lo]) @ w[:lo])
    total += float(np.abs(a[lo:]) @ w[lo : a.size])
    total += float(np.abs(b[lo:]) @ w[lo : b.size])
    return total


def _select_at(state: RecursionState, gen: BlockGenerator) -> PivotSelection:
    inc = incoming_support(gen, state.n)
    if state.n >= 1:
        out = outgoing_support(state, gen)
    else:
        out = frozenset(range(state.u_star.shape[0]))  # no level below 0
    return select_pivot(state, inc, out)


def _pivot_blocks(state: RecursionState, pivot: int) -> tuple[np.ndarray, ...]:
    seed = np.zeros(state.u_star.shape[0])
    seed[pivot] = 1.0 / state.u_star[pivot]
    return sojourn_rows(state, seed)


Blocks = Callable[[], tuple[np.ndarray, ...]]
Checkpoint = Callable[[RecursionState], tuple[CheckpointRecord, bool, Blocks]]


def _drive(
    gen: BlockGenerator, opts: SolverOptions, variant: str, checkpoint: Checkpoint
) -> Approximation:
    """Advance level by level and evaluate ``checkpoint`` at scheduled levels.

    ``checkpoint(state)`` returns the trace record, whether the stopping
    rule holds, and a thunk assembling the blocks, which is called only at
    the stop.  The run stops when the rule holds, at ``max_level``, or at
    the last level of an explicit schedule; ``converged`` says whether the
    rule held there.
    """
    state = init_state(gen, opts.K_set)
    schedule = opts.checkpoint_schedule.iterate(max(max(opts.K_set), 1))
    next_cp = next(schedule, None)
    trace: deque[CheckpointRecord] = deque(maxlen=TRACE_LIMIT)
    while True:
        at_cap = state.n >= opts.max_level
        if state.n == next_cp or at_cap:
            record, done, blocks = checkpoint(state)
            trace.append(record)
            next_cp = next(schedule, None)
            if done or at_cap or next_cp is None:
                return Approximation(
                    n=state.n,
                    blocks=blocks(),
                    pivot_trace=tuple(trace),
                    residual=record.residual,
                    converged=done,
                    variant=variant,
                )
        state = advance(state, gen)


def solve_mip(gen: BlockGenerator, opts: SolverOptions | None = None) -> Approximation:
    """Primary driver: ratio-maximizing pivots, residual stopping.

    Advances the recursion one level at a time.  At each scheduled
    checkpoint it selects the pivot phase, reads off the closed-form
    residual, and stops once the residual drops below ``epsilon``,
    returning the blocked approximation assembled from the pivot row of
    the sojourn family.  Hitting ``max_level``, or the last level of an
    explicit schedule, without convergence is not an error: the
    approximation evaluated there is returned with ``converged=False``.
    """
    opts = opts if opts is not None else SolverOptions()

    def checkpoint(state: RecursionState):
        sel = _select_at(state, gen)
        res = residual_q_norm(state, sel.pivot)
        record = CheckpointRecord(state.n, sel.pivot, sel.ratio, res)
        return record, res < opts.epsilon, lambda: _pivot_blocks(state, sel.pivot)

    return _drive(gen, opts, "mip_new", checkpoint)


def solve_mip_drift(
    gen: BlockGenerator, cert: DriftCertificate, opts: SolverOptions | None = None
) -> Approximation:
    """Legacy driver: drift-minimizing pivots, successive-iterate stopping.

    Stops when the total variation between consecutive checkpoint
    approximations falls below ``epsilon`` (which can in principle trigger
    early, unlike the residual rule); the q-weighted residual is still
    recorded at every checkpoint for diagnosis.  Requires a finite upper
    bandwidth: otherwise the first checkpoint raises
    ``UnsupportedInfiniteBand``.
    """
    opts = opts if opts is not None else SolverOptions()
    prev_flat: np.ndarray | None = None

    def checkpoint(state: RecursionState):
        nonlocal prev_flat
        sel = select_pivot_drift(state, gen, cert)
        blocks = _pivot_blocks(state, sel.pivot)
        flat = np.concatenate(blocks)
        res = residual_q_norm(state, sel.pivot)
        step = tv_distance(flat, prev_flat) if prev_flat is not None else None
        prev_flat = flat
        record = CheckpointRecord(state.n, sel.pivot, sel.objective, res, step)
        return record, step is not None and step < opts.epsilon, lambda: blocks

    return _drive(gen, opts, "mip_drift", checkpoint)


def solve_fixed_direction(
    gen: BlockGenerator,
    direction: FixedDirection,
    opts: SolverOptions | None = None,
) -> Approximation:
    """Fixed-direction driver for chains with eventually constant phases.

    The approximation is the fixed direction applied to the plain
    descending products ``U_{n,k}``.  Since ``U_{n,k}`` is the inverse of
    the level-``n`` exit matrix times the sojourn matrix of level ``k``,
    the blocks are the sojourn rows seeded by ``varpi`` mapped through that
    exit matrix.  The residual-style stopping quantity replaces the pivot's
    unit mass with the direction: ``(varpi @ q_n) / (varpi @ u_star)``,
    which coincides with the primary rule on scalar-phase chains.
    """
    opts = opts if opts is not None else SolverOptions()
    varpi = direction.varpi

    def checkpoint(state: RecursionState):
        if state.u_star.shape[0] != varpi.shape[0]:
            raise PhaseMismatch(
                f"direction has {varpi.shape[0]} phases but level "
                f"{state.n} has {state.u_star.shape[0]}"
            )
        res = float((varpi @ (1.0 / np.abs(state.q_diag_n))) / (varpi @ state.u_star))

        def blocks():
            seed = np.linalg.solve(state.U_star.T, varpi)
            return sojourn_rows(state, seed / (seed @ state.u_star))

        return CheckpointRecord(state.n, None, None, res), res < opts.epsilon, blocks

    return _drive(gen, opts, "fixed_direction", checkpoint)


def solve(
    gen: BlockGenerator,
    opts: SolverOptions,
    variant: str = "mip_new",
    cert: DriftCertificate | None = None,
    direction: FixedDirection | None = None,
) -> Approximation:
    """Run the driver named by ``variant``, one of ``VARIANTS``."""
    if variant == "mip_new":
        return solve_mip(gen, opts)
    if variant == "mip_drift":
        if cert is None:
            raise ConfigError("variant mip_drift needs a drift certificate")
        return solve_mip_drift(gen, cert, opts)
    if variant == "fixed_direction":
        if direction is None:
            raise ConfigError("variant fixed_direction needs a direction vector")
        return solve_fixed_direction(gen, direction, opts)
    raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
