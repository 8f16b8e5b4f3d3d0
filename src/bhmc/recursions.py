"""Rolling first-exit recursion state for upper block-Hessenberg chains.

At level ``n`` the recursion defines the sojourn family: the matrices
``sojourn_matrix(state, k)``, ``k = 0..n``, whose ``(i, j)`` entry is the
expected total sojourn time in ``(k, j)`` before the chain first climbs
above level ``n`` when started in ``(n, i)``.  Member ``n`` is ``U_star``,
the inverse of the local exit matrix.  The state also carries the row-sum
vector ``u_star`` over the whole family and the partial row-sum vector
``u_star_K`` over the index set ``K_set``.

The family is kept in product form.  Only the members the next exit
correction reads are stored: the top ``bandwidth`` levels, or every level
on an infinite band.  On a finite band each level ``j`` also keeps one
step factor ``T_j = block(j, j-1) @ U_star(j-1)``, and a member below the
stored window is the product ``window[0] @ T_lo @ ... @ T_{k+1}``.  A
banded step therefore costs a fixed number of block solves and products,
and memory grows by one factor per level.  On an infinite band the exit
correction reads every level, so the whole family is stored and each step
multiplies every member.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np
import scipy.linalg

from .errors import ConfigError, IndexOutOfRange, SingularBlock
from .generator import BlockGenerator

__all__ = [
    "RecursionState",
    "init_state",
    "advance",
    "sojourn_matrix",
    "sojourn_rows",
]

# LU pivots below PIVOT_RTOL times the max row norm are treated as singular;
# ergodicity guarantees nonsingular exit matrices, so this is diagnostic.
PIVOT_RTOL = 1e-13


def guarded_lu_factor(matrix: np.ndarray, what: str):
    """LU with partial pivoting; tiny pivots are reported as SingularBlock."""
    m = np.asarray(matrix, dtype=float)
    scale = np.abs(m).sum(axis=1).max() if m.size else 0.0
    if scale == 0.0 or not np.isfinite(scale):
        raise SingularBlock(f"{what}: matrix is zero or non-finite")
    with warnings.catch_warnings():
        # an exactly zero pivot is our SingularBlock case, not a warning
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(m, check_finite=False)
    if np.abs(np.diag(lu)).min() < PIVOT_RTOL * scale:
        raise SingularBlock(f"{what}: pivot below {PIVOT_RTOL} * max row norm")
    return lu, piv


def lu_inverse(matrix: np.ndarray, what: str) -> np.ndarray:
    """Invert via LU with partial pivoting, guarding against singularity."""
    lu, piv = guarded_lu_factor(matrix, what)
    return scipy.linalg.lu_solve((lu, piv), np.eye(lu.shape[0]), check_finite=False)


@dataclass
class RecursionState:
    """First-exit quantities at the current level ``n``.

    ``window`` holds the sojourn matrices of levels ``n + 1 - len(window)``
    to ``n``: every level on an infinite band, otherwise the top
    ``bandwidth`` levels, which are all that the next exit correction and
    the drift pivot read.  Its last entry is ``U_star``.  ``factors`` links
    the step factors ``T_j = block(j, j-1) @ U_star(j-1)`` of a finite band
    from the top down, as nested pairs ``(T_n, (T_{n-1}, ... (T_1, None)))``;
    it stays ``None`` on an infinite band.  ``u_K`` is the running partial
    row sum over ``K_set`` restricted to levels ``0..n``; ``u_star_K``
    exposes it once ``n`` has reached ``max(K_set)`` and is ``None`` before
    that.  ``q_diag_n`` caches the diagonal of ``block(n, n)`` for the
    stopping rule.
    """

    n: int
    window: list[np.ndarray]
    factors: tuple | None
    u_star: np.ndarray
    u_K: np.ndarray
    K_set: frozenset[int]
    q_diag_n: np.ndarray

    @property
    def U_star(self) -> np.ndarray:
        return self.window[-1]

    @property
    def u_star_K(self) -> np.ndarray | None:
        return self.u_K if self.n >= max(self.K_set) else None


def _normalize_k_set(K_set) -> frozenset[int]:
    """``K_set`` as a frozenset of levels; it must be nonempty and nonnegative."""
    try:
        ks = frozenset(int(k) for k in K_set)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"K_set must be a set of integer levels, got {K_set!r}") from exc
    if not ks or min(ks) < 0:
        raise ConfigError(f"K_set must be nonempty and nonnegative, got {sorted(ks)}")
    return ks


def init_state(gen: BlockGenerator, K_set=frozenset({0})) -> RecursionState:
    """State at level 0: ``U_star = (-block(0,0))^-1``, ``u_star = U_star e``."""
    ks = _normalize_k_set(K_set)
    q00 = gen.block_array(0, 0)
    u0 = lu_inverse(-q00, "level 0 exit matrix")
    u_vec = u0.sum(axis=1)
    return RecursionState(
        n=0,
        window=[u0],
        factors=None,
        u_star=u_vec,
        u_K=u_vec.copy() if 0 in ks else np.zeros_like(u_vec),
        K_set=ks,
        q_diag_n=np.diag(q00).copy(),
    )


def advance(state: RecursionState, gen: BlockGenerator) -> RecursionState:
    """Advance the rolling state from level ``n`` to ``n + 1``.

    The new ``U_star`` inverts the local exit matrix at level ``n + 1``,
    whose correction sum runs over the stored window.  The window members
    that stay in it, and the total and partial row-sum vectors, then update
    by a single left product with ``U_star @ block(n+1, n)``; on a finite
    band the step factor ``block(n+1, n) @ U_star(n)`` joins ``factors``.
    """
    n, n1 = state.n, state.n + 1
    m1 = gen.phase_count(n1)
    q_next = gen.block_array(n1, n1)
    q_down = gen.block_array(n1, n)

    lo = n1 - len(state.window)
    correction = np.zeros((state.U_star.shape[0], m1))
    for l, f in enumerate(state.window, start=lo):
        b = gen.block_array(l, n1)
        if b.any():
            correction += f @ b
    u1 = lu_inverse(-q_next - q_down @ correction, f"level {n1} exit matrix")

    step = u1 @ q_down
    if gen.bandwidth is None:
        kept, factors = state.window, None
    else:
        kept = state.window[max(0, len(state.window) + 1 - gen.bandwidth) :]
        factors = (q_down @ state.U_star, state.factors)
    window = [step @ f for f in kept]
    window.append(u1)
    # Positivity and finiteness are guaranteed in exact arithmetic; losing
    # them means overflow or accumulated rounding has exhausted double
    # precision at this depth.  The checks below report it, so numpy's
    # own overflow warnings are silenced.
    with np.errstate(over="ignore", invalid="ignore"):
        u_vec = u1 @ (np.ones(m1) + q_down @ state.u_star)
        u_k = step @ state.u_K
        if n1 in state.K_set:
            u_k += u1.sum(axis=1)
    if not (np.all(np.isfinite(u_vec)) and np.all(np.isfinite(u_k))):
        raise SingularBlock(
            f"u_star overflowed at level {n1}; the expected sojourn times "
            "exceed double range at this depth"
        )
    if not np.all(u_vec > 0.0):
        raise SingularBlock(
            f"positivity of u_star lost at level {n1}; accumulated rounding "
            "has exhausted double precision at this depth"
        )
    if u_k.min() < -1e-12 * max(u_k.max(), 0.0):
        raise SingularBlock(f"positivity of u_star_K lost at level {n1}")

    return RecursionState(
        n=n1,
        window=window,
        factors=factors,
        u_star=u_vec,
        u_K=u_k,
        K_set=state.K_set,
        q_diag_n=np.diag(q_next).copy(),
    )


def _factors_below(state: RecursionState) -> Iterator[np.ndarray]:
    """Step factors ``T_lo, ..., T_1`` below the window's lowest level ``lo``."""
    node = state.factors
    for _ in range(len(state.window) - 1):  # skip T_n .. T_{lo+1}
        if node is None:
            return
        node = node[1]
    while node is not None:
        factor, node = node
        yield factor


def sojourn_matrix(state: RecursionState, k: int) -> np.ndarray:
    """Expected-sojourn matrix for level ``k``.

    Entry ``(i, j)`` is the expected total time spent in ``(k, j)`` before
    the chain first visits any level above ``n``, starting from ``(n, i)``.
    Levels below the stored window are multiplied out on demand.
    """
    if not 0 <= k <= state.n:
        raise IndexOutOfRange(f"level {k} outside 0..{state.n}")
    lo = state.n + 1 - len(state.window)
    if k >= lo:
        return state.window[k - lo]
    product = state.window[0]
    for factor in islice(_factors_below(state), lo - k):
        product = product @ factor
    return product


def sojourn_rows(state: RecursionState, seed: np.ndarray) -> tuple[np.ndarray, ...]:
    """Rows ``seed @ sojourn_matrix(state, k)`` for ``k = 0..n``.

    One backward sweep: ``x_k = seed @ window[k]`` inside the window, then
    ``x_{k-1} = x_k @ T_k`` below it, so each level costs one row-matrix
    product.  A seed with ``seed @ u_star = 1`` gives rows summing to one.
    """
    top = [seed @ f for f in state.window]
    below = []
    x = top[0]
    for factor in _factors_below(state):
        x = x @ factor
        below.append(x)
    below.reverse()
    return tuple(below + top)

