"""Pivot selection by closed-form ratio extremization.

The augmentation direction at a checkpoint is a unit mass on one phase.
The primary rule maximizes the occupancy ratio ``u_star_K / u_star`` over
the support ``I_plus & O_plus`` (phases that both receive direct
transitions from above and start downward-exiting paths); the ratio
argmax is available in closed form, so no generic LP machinery is ever
involved.  A legacy rule minimizes a drift-weighted objective instead and
exists only for generators with a finite upper band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    EmptyCandidateSet,
    IndexOutOfRange,
    NonpositiveWeight,
    PhaseMismatch,
    SingularBlock,
    UnsupportedInfiniteBand,
)
from .generator import BlockGenerator, _lowest_reaching
from .recursions import RecursionState

__all__ = [
    "PivotSelection",
    "DriftCertificate",
    "DriftSelection",
    "incoming_support",
    "outgoing_support",
    "select_pivot",
    "select_pivot_drift",
]

# Relative threshold separating computed quantities from structural zeros.
TAU_REL = 1e-12


@dataclass(frozen=True, eq=False)
class PivotSelection:
    """Chosen augmentation phase and the sets that produced it.

    ``I_plus`` and ``O_plus`` are boolean masks over the phases of the
    checkpoint level, as ``incoming_support`` and ``outgoing_support``
    return them; ``J_star`` is the ascending index array of the candidates
    tied with the best ratio, so ``pivot == J_star[0]``.  Holding arrays,
    selections compare by identity.
    """

    I_plus: np.ndarray
    O_plus: np.ndarray
    J_star: np.ndarray
    pivot: int
    ratio: float


@dataclass(frozen=True)
class DriftCertificate:
    """User-supplied drift witness ``(v, b)`` for the legacy rule.

    ``v_blocks(l)`` must return a strictly positive vector of length
    ``M_l``.  :meth:`v` is the one check of both, for the rule and for a
    loader that checks given vectors ahead of the solve.  The inequality
    the witness certifies is taken on trust; this library never attempts
    to verify or search for such a witness.
    """

    v_blocks: Callable[[int], np.ndarray]
    b: float

    def v(self, l: int, m: int) -> np.ndarray:
        """``v_blocks(l)`` with ``m`` entries (else PhaseMismatch), each in ``(0, inf)``.

        A vector that is not numeric, or an entry outside ``(0, inf)``,
        raises NonpositiveWeight.
        """
        try:
            vec = np.asarray(self.v_blocks(l), dtype=float).ravel()
        except (TypeError, ValueError) as exc:
            raise NonpositiveWeight(f"drift vector at level {l} is not numeric: {exc}") from exc
        if vec.shape != (m,):
            raise PhaseMismatch(f"drift vector at level {l} has length {vec.size}, expected {m}")
        # every entry in (0, inf); NaN fails, and an empty vector passes when m is 0
        if not (np.minimum.reduce(vec, initial=np.inf) > 0.0
                and np.maximum.reduce(vec, initial=-np.inf) < np.inf):
            raise NonpositiveWeight(f"drift vector at level {l} must be strictly positive")
        return vec


@dataclass(frozen=True)
class DriftSelection:
    """Minimizing phase of the drift-weighted objective."""

    pivot: int
    objective: float


def incoming_support(gen: BlockGenerator, n: int) -> np.ndarray:
    """Mask of the phases of level ``n`` that receive direct transitions from level ``n+1``.

    Uses exact column sums of ``block(n+1, n)``: entries are model data,
    not computed quantities, so no tolerance applies.  Entry ``i`` of the
    boolean mask is true when phase ``i`` is in the support.
    """
    return np.add.reduce(gen.block_array(n + 1, n), 0) > 0.0


def outgoing_support(state: RecursionState, gen: BlockGenerator) -> np.ndarray:
    """Mask of the phases of level ``n`` that start paths exiting downward before climbing.

    Identified from the row sums of ``U_star @ block(n, n-1)``; these are
    computed quantities, so a relative threshold of ``TAU_REL`` separates
    true support from rounding noise.  The boolean mask is all false when
    no weight is positive.
    """
    if state.n == 0:
        raise IndexOutOfRange("outgoing support is undefined at level 0")
    w = state.U_star @ np.add.reduce(gen.block_array(state.n, state.n - 1), 1)
    # false everywhere when the largest weight is not positive, or NaN (argmax
    # finds the first NaN, as the max reduction returns it)
    return w > max(TAU_REL * w.item(w.argmax()), 0.0)


def select_pivot(state: RecursionState, I: np.ndarray, O: np.ndarray) -> PivotSelection:
    """Maximize ``u_star_K / u_star`` over the candidate support ``I & O``.

    ``I`` and ``O`` are boolean masks over the phases of level ``n``.  The
    argmax set ``J_star`` collects every candidate within relative
    ``TAU_REL`` of the best ratio; the pivot is its smallest index, which
    keeps runs reproducible.

    Raises
    ------
    EmptyCandidateSet
        If ``I & O`` is empty or no candidate ratio is positive; either
        signals suspected non-ergodicity or a too-early checkpoint.  A
        positive ratio, however small, is a usable pivot: with
        ``K_set = {0}`` the ratio decays like the mass of level 0.
    SingularBlock
        If a candidate ratio is NaN or infinite.
    """
    u_K = state.u_star_K
    if u_K is None:
        raise IndexOutOfRange(f"u_star_K unavailable: level {state.n} below max(K_set)")
    candidates = (I & O).nonzero()[0]
    if not candidates.size:
        raise EmptyCandidateSet(f"no candidate phase at level {state.n}")
    ratios = u_K[candidates] / state.u_star[candidates]
    # NaN makes best NaN (argmax and argmin find the first NaN); +inf makes
    # best infinite and -inf the minimum
    best = ratios.item(ratios.argmax())
    if not (best < np.inf and ratios.item(ratios.argmin()) > -np.inf):
        raise SingularBlock(
            f"non-finite occupancy ratio at level {state.n}; u_star or "
            "u_star_K has left double range"
        )
    if not best > 0.0:
        raise EmptyCandidateSet(
            f"all candidate ratios vanish at level {state.n}"
        )
    ties = ratios >= best * (1.0 - TAU_REL)
    first = int(ties.argmax())  # candidates ascend, so the smallest index
    return PivotSelection(I, O, candidates[ties], candidates.item(first), ratios.item(first))


def select_pivot_drift(
    state: RecursionState, gen: BlockGenerator, cert: DriftCertificate
) -> DriftSelection:
    """Minimize the drift-weighted objective over all phases (legacy rule).

    The objective vector is ``v_n`` plus, for each retained level ``k``,
    the sojourn matrix applied to the drift mass that level ``k`` sends
    above level ``n``.  With an upper band ``b`` that mass involves only
    ``block(k, l)`` for ``n < l <= k + b``, so only the window levels
    ``k > n - b`` contribute, and the sum is ``v_n`` plus one product
    ``W @ block_column(l, lo, n) @ v_l`` per level ``l = n+1..n+b``.
    Without a band the sum would be infinite, which is why this rule
    refuses infinite-band generators outright rather than silently
    truncating.  Each ``v_l`` is read through ``cert.v(l, M_l)``.  A NaN
    or negative objective, which a solve does not reach, raises
    SingularBlock naming the level.
    """
    if gen.bandwidth is None:
        raise UnsupportedInfiniteBand(
            "drift-based selection needs a finite upper bandwidth"
        )
    n, lo, top = state.n, _lowest_reaching(gen, state.n + 1), state.n + gen.bandwidth
    v = [cert.v(l, gen.phase_count(l)) for l in range(n, top + 1)]  # v_n is read first
    y = v[0] + sum(state.W @ (gen.block_column(l, lo, n) @ v[l - n]) for l in range(n + 1, top + 1))
    objective = y / state.u_star
    best = float(np.minimum.reduce(objective))
    if not best >= 0.0:  # a NaN best would leave no tie below
        raise SingularBlock(
            f"drift objective {best} at level {n}; u_star or W has left double range"
        )
    ties = (objective <= best * (1.0 + TAU_REL)).nonzero()[0]
    pivot = int(np.minimum.reduce(ties))
    return DriftSelection(pivot, objective.item(pivot))
