"""Sequential update drivers and stopping machinery.

One loop, ``_drive``, advances the first-exit recursion level by level
and evaluates a per-variant checkpoint function at the scheduled levels.
The checkpoint picks the augmentation direction, computes the stopping
quantity, and hands back a thunk that assembles the blocked approximation
once the run stops.  Steps and checkpoints read every block straight from
the caller's generator; the solver keeps no block store, so a provider
whose blocks are costly to build caches them itself.

* ``solve_mip`` (primary): unit-mass pivot maximizing the occupancy
  ratio; stops when the q-weighted residual drops below ``epsilon``.
  The residual has the closed form ``1 / (|q(n, j; n, j)| * u_star(j))``
  at the chosen pivot ``j``, so testing it costs nothing.
* ``solve_mip_drift`` (legacy): drift-minimizing pivot, stopping on the
  L1 distance between successive iterates; finite upper bandwidth only.  The
  distance between consecutive checkpoints is read off the previous
  checkpoint's state through one vector carried down the step factors,
  so the blocks are assembled only at the stop.
* ``solve_fixed_direction``: a fixed positive direction over a constant
  phase set replaces pivot selection entirely.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import count, islice
from typing import Callable, Iterator

import numpy as np

from .errors import (
    BadDistribution,
    BhmcError,
    ConfigError,
    IndexOutOfRange,
    InvalidBlock,
    PhaseMismatch,
    SingularBlock,
)
from .generator import BlockGenerator, _as_floats, _as_number, _check_levels, check_distribution
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
    _chain,
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
    its last level caps the run like ``max_level``.  ``ARGS`` maps each
    kind to the one field it reads, and is the one table of kinds.  A
    field the kind does not read is ignored, since a default cannot be
    told apart from a value given; the CLI refuses such a key or flag
    argument by name.
    """

    ARGS = {"every": None, "arithmetic": "stride", "geometric": "factor", "explicit": "levels"}

    kind: str = "every"
    stride: int = 1
    factor: float = 1.5
    levels: tuple[int, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in self.ARGS:
            raise ConfigError(f"unknown schedule kind {self.kind!r}")
        object.__setattr__(self, "stride", _as_number(self.stride, "stride", int))
        object.__setattr__(self, "factor", _as_number(self.factor, "factor"))
        if self.kind == "arithmetic" and self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")
        if self.kind == "geometric" and not 1.0 < self.factor < np.inf:
            raise ConfigError(f"factor must be finite and > 1, got {self.factor}")
        if self.kind == "explicit":
            if not self.levels:
                raise ConfigError("explicit schedule needs at least one level")
            try:
                lv = tuple(_as_number(x, "levels", int) for x in self.levels)
            except TypeError as exc:
                raise ConfigError(
                    f"levels must be a sequence of integer levels, got {self.levels!r}"
                ) from exc
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
                    # a product past double range is far past any reachable level
                    n = max(n + 1, int(np.ceil(min(self.factor * n, np.finfo(float).max))))

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
        object.__setattr__(self, "epsilon", _as_number(self.epsilon, "epsilon"))
        object.__setattr__(self, "max_level", _as_number(self.max_level, "max_level", int))
        if not (0.0 < self.epsilon < 1.0):
            raise ConfigError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        ks = _normalize_k_set(self.K_set)
        object.__setattr__(self, "K_set", ks)
        if self.max_level < 1:
            raise ConfigError(f"max_level must be >= 1, got {self.max_level}")
        if max(ks) > self.max_level:
            raise ConfigError(f"max(K_set) = {max(ks)} exceeds max_level = {self.max_level}")
        sched = self.checkpoint_schedule
        if not isinstance(sched, CheckpointSchedule):
            raise ConfigError(
                f"checkpoint_schedule must be a CheckpointSchedule, got {sched!r}"
            )
        if sched.kind == "explicit" and sched.levels[0] < max(ks):
            raise ConfigError(
                f"schedule starts at {sched.levels[0]}, below max(K_set) = {max(ks)}"
            )


@dataclass(frozen=True)
class CheckpointRecord:
    """One checkpoint: level, chosen pivot, its ratio, and the residual.

    ``step_distance`` is filled only on the drift path: the L1 distance
    from the previous checkpoint's approximation, as ``tv_distance``
    measures it.  Fixed-direction checkpoints have no pivot or ratio.
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
        w = check_distribution(self.varpi, None, tol=1e-9, what="direction")
        if np.any(w <= 0.0):
            raise BadDistribution("direction must be strictly positive")
        object.__setattr__(self, "varpi", w)


def residual_q_norm(state: RecursionState, pivot: int) -> float:
    """Closed-form q-weighted residual of the pivot approximation.

    Equals ``1 / (|block(n,n)[pivot, pivot]| * u_star[pivot])`` and always
    lies in ``(0, 1]``; it tends to zero as the level grows, which is what
    makes it a usable stopping rule.  A product ``|q| * u_star`` of zero,
    which has no residual, or one past double range raises SingularBlock.
    A ``pivot`` that is no phase index of level ``n`` raises IndexOutOfRange.
    """
    try:  # .item refuses a pivot that is no integer or is past the end
        den = abs(state.q_diag_n.item(pivot)) * state.u_star.item(pivot)
    except (TypeError, IndexError):
        den = None
    if den is None or pivot < 0:
        raise IndexOutOfRange(f"pivot {pivot!r} invalid at level {state.n}")
    if den == 0.0:  # a pivot phase without an exit rate
        raise SingularBlock(
            f"residual undefined at level {state.n}: phase {pivot} has "
            "|q(n, j; n, j)| * u_star(j) = 0"
        )
    value = 1.0 / den
    if not value > 0.0:  # u_star overflow: depth exceeds double range
        raise SingularBlock(
            f"residual underflowed at level {state.n}; u_star no longer "
            "representable in double precision"
        )
    return value


def tv_distance(h1, h2) -> float:
    """L1 distance ``sum |h1 - h2|`` between prefix-indexed vectors.

    Between probability vectors that is twice their total variation
    distance; the name, and the CLI report key, say ``tv`` for it.  The
    vectors may cover index prefixes of different lengths: shared indices
    contribute ``|h1 - h2|`` and each vector's overhang contributes its own
    mass.  A vector that is not numeric, or has an entry that is NaN or
    infinite (``None`` reads as NaN), raises BadDistribution.
    """
    a = _as_floats(h1, BadDistribution, "tv_distance's first vector").ravel()
    b = _as_floats(h2, BadDistribution, "tv_distance's second vector").ravel()
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise BadDistribution("tv_distance needs finite vectors")
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
    # level 0 has no level below it, so no phase is ruled out
    out = outgoing_support(state, gen) if state.n else np.ones(state.u_star.shape, bool)
    return select_pivot(state, inc, out)


def _pivot_seed(state: RecursionState, pivot: int) -> np.ndarray:
    seed = np.zeros(state.u_star.shape[0])
    seed[pivot] = 1.0 / state.u_star[pivot]
    return seed


def _pivot_blocks(state: RecursionState, gen: BlockGenerator, pivot: int) -> tuple[np.ndarray, ...]:
    return sojourn_rows(state, gen, _pivot_seed(state, pivot))


def _step_distance(
    prev: RecursionState,
    a: np.ndarray,
    state: RecursionState,
    s: np.ndarray,
    gen: BlockGenerator,
) -> float:
    """L1 distance between the approximations seeded by ``a`` and ``s``.

    ``prev`` is an earlier state at level ``p`` of the same run and
    ``state`` the current one at level ``n``.  On the levels ``0..p`` the
    current approximation is ``c @ sojourn_matrix(prev, gen, k)`` with
    ``c = s @ U_star(n) @ T_n @ ... @ T_{p+2} @ block(p+1, p)``, so there
    the two differ by the rows seeded by ``d = a - c``; the levels above
    ``p`` hold the rest of the current mass, ``1 - c @ u_star(p)``.  The
    sojourn matrices are nonnegative, so a ``d`` of one sign gives the
    level-``0..p`` distance as ``|d @ u_star(p)|``; a ``d`` of mixed signs
    takes one backward sweep of ``prev``.
    """
    p = prev.n
    c = s @ state.U_star
    for factor in islice(_chain(state.factors), state.n - p - 1):
        c = c @ factor
    c = c @ gen.block_array(p + 1, p)
    d = a - c
    tail = 1.0 - float(c @ prev.u_star)
    # d of one sign, read from its extremes; NaN fails both, an empty d passes
    if (np.minimum.reduce(d, initial=np.inf) >= 0.0
            or np.maximum.reduce(d, initial=-np.inf) <= 0.0):
        return abs(float(d @ prev.u_star)) + tail
    return float(np.abs(np.concatenate(sojourn_rows(prev, gen, d))).sum()) + tail


Blocks = Callable[[], tuple[np.ndarray, ...]]
Checkpoint = Callable[[RecursionState, BlockGenerator], tuple[CheckpointRecord, float | None, Blocks]]


def _drive(
    gen: BlockGenerator, opts: SolverOptions | None, variant: str, checkpoint: Checkpoint
) -> Approximation:
    """Run one solve from level 0, evaluating ``checkpoint`` at scheduled levels.

    ``opts`` defaults to ``SolverOptions()``.  ``checkpoint(state, gen)``
    returns the trace record, the stopping quantity and a thunk that
    assembles the blocks at the stop.  The rule holds once the quantity is
    below ``epsilon``; ``None``, the drift rule's first, never holds.  Steps
    and checkpoints read their blocks from ``gen`` itself, each when it
    needs one, so a block that a step and the checkpoints around it all
    read is fetched each time.  The run stops when the rule holds, at
    ``max_level``, or at an explicit schedule's last level; ``converged``
    says whether the rule held.  A numerical failure, level 0's included,
    or a stop without convergence is first traced to the blocks up to
    level ``n + 1``, read afresh by the checked column walk: a block with a
    wrong sign or a non-finite entry raises ``InvalidBlock``, caused by the
    original error if there was one.  ``opts`` that is no SolverOptions
    raises ConfigError naming it, and so does a ``gen`` that is no
    BlockGenerator, from ``init_state``; both before level 0.
    """
    opts = opts if opts is not None else SolverOptions()
    if not isinstance(opts, SolverOptions):
        raise ConfigError(f"opts must be a SolverOptions, got {type(opts).__name__}")
    schedule = opts.checkpoint_schedule.iterate(max(max(opts.K_set), 1))
    next_cp = next(schedule, None)
    trace: deque[CheckpointRecord] = deque(maxlen=TRACE_LIMIT)
    state = None
    try:
        state = init_state(gen, opts.K_set)
        while True:
            at_cap = state.n >= opts.max_level
            if state.n == next_cp or at_cap:
                record, value, blocks = checkpoint(state, gen)
                trace.append(record)
                next_cp = next(schedule, None)
                done = value is not None and value < opts.epsilon
                if done or at_cap or next_cp is None:
                    if not done:
                        _check_levels(gen, state.n + 1)
                    return Approximation(
                        n=state.n,
                        blocks=blocks(),
                        pivot_trace=tuple(trace),
                        residual=record.residual,
                        converged=done,
                        variant=variant,
                    )
            state = advance(state, gen)
    except BhmcError as exc:
        if isinstance(exc, (ConfigError, InvalidBlock)):
            raise
        try:
            _check_levels(gen, 1 if state is None else state.n + 1)
        except InvalidBlock as bad:
            raise bad from exc
        raise


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

    def checkpoint(state: RecursionState, gen: BlockGenerator):
        sel = _select_at(state, gen)
        res = residual_q_norm(state, sel.pivot)
        record = CheckpointRecord(state.n, sel.pivot, sel.ratio, res)
        return record, res, lambda: _pivot_blocks(state, gen, sel.pivot)

    return _drive(gen, opts, "mip_new", checkpoint)


def solve_mip_drift(
    gen: BlockGenerator, cert: DriftCertificate, opts: SolverOptions | None = None
) -> Approximation:
    """Legacy driver: drift-minimizing pivots, successive-iterate stopping.

    Stops when the L1 distance (``tv_distance``) between consecutive
    checkpoint approximations falls below ``epsilon`` (which can in
    principle trigger early, unlike the residual rule); the q-weighted
    residual is still recorded at every checkpoint for diagnosis.  The
    distance is computed from the previous checkpoint's state and seed
    without assembling either approximation (see ``_step_distance``): on a
    scalar chain, or whenever the seed difference has one sign, it costs
    one vector product per level advanced; otherwise one backward sweep of
    the previous state.  The blocks are assembled once, at the stop.
    Requires a finite upper bandwidth: otherwise the first checkpoint
    raises ``UnsupportedInfiniteBand``.  A ``cert`` that is no
    DriftCertificate raises ConfigError (see ``_check_variant``).
    """
    _check_variant("mip_drift", cert, None)
    prev: tuple[RecursionState, np.ndarray] | None = None

    def checkpoint(state: RecursionState, gen: BlockGenerator):
        nonlocal prev
        sel = select_pivot_drift(state, gen, cert)
        res = residual_q_norm(state, sel.pivot)
        seed = _pivot_seed(state, sel.pivot)
        step = _step_distance(*prev, state, seed, gen) if prev is not None else None
        prev = state, seed
        record = CheckpointRecord(state.n, sel.pivot, sel.objective, res, step)
        return record, step, lambda: _pivot_blocks(state, gen, sel.pivot)

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
    unit mass with the direction:
    ``(varpi @ (1 / |diag q_n|)) / (varpi @ u_star)``, with ``q_n`` the
    diagonal block ``block(n, n)``; on scalar-phase chains it coincides
    with the primary rule.  A ``direction`` that is no FixedDirection
    raises ConfigError (see ``_check_variant``).
    """
    _check_variant("fixed_direction", None, direction)
    varpi = direction.varpi

    def checkpoint(state: RecursionState, gen: BlockGenerator):
        if state.u_star.shape[0] != varpi.shape[0]:
            raise PhaseMismatch(
                f"direction has {varpi.shape[0]} phases but level "
                f"{state.n} has {state.u_star.shape[0]}"
            )
        res = float((varpi @ (1.0 / np.abs(state.q_diag_n))) / (varpi @ state.u_star))

        def blocks():
            seed = np.linalg.solve(state.U_star.T, varpi)
            return sojourn_rows(state, gen, seed / (seed @ state.u_star))

        return CheckpointRecord(state.n, None, None, res), res, blocks

    return _drive(gen, opts, "fixed_direction", checkpoint)


def solve(
    gen: BlockGenerator,
    opts: SolverOptions,
    variant: str = "mip_new",
    cert: DriftCertificate | None = None,
    direction: FixedDirection | None = None,
) -> Approximation:
    """Run ``variant``'s driver: ``mip_drift`` needs ``cert``, ``fixed_direction`` ``direction``."""
    _check_variant(variant, cert, direction)
    if variant == "mip_drift":
        return solve_mip_drift(gen, cert, opts)
    if variant == "fixed_direction":
        return solve_fixed_direction(gen, direction, opts)
    return solve_mip(gen, opts)


def _check_variant(
    variant: str, cert: DriftCertificate | None, direction: FixedDirection | None
) -> None:
    """Refuse a ``variant`` not in ``VARIANTS``, or one whose input is missing or mistyped.

    ``mip_drift`` needs ``cert``, a DriftCertificate, and ``fixed_direction``
    needs ``direction``, a FixedDirection.  The loader, ``solve`` and the
    two drivers all check here, so a missing input and a mistyped one are
    named in one place.
    """
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if variant == "mip_drift" and not isinstance(cert, DriftCertificate):
        if cert is None:
            raise ConfigError("variant mip_drift needs a drift certificate (solver.drift)")
        raise ConfigError(f"cert must be a DriftCertificate, got {type(cert).__name__}")
    if variant == "fixed_direction" and not isinstance(direction, FixedDirection):
        if direction is None:
            raise ConfigError("variant fixed_direction needs a direction vector (solver.varpi)")
        raise ConfigError(f"direction must be a FixedDirection, got {type(direction).__name__}")
