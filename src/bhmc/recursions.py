"""Rolling first-exit recursion state for upper block-Hessenberg chains.

At level ``n`` the recursion defines the sojourn family: the matrices
``sojourn_matrix(state, k)``, ``k = 0..n``, whose ``(i, j)`` entry is the
expected total sojourn time in ``(k, j)`` before the chain first climbs
above level ``n`` when started in ``(n, i)``.  Member ``n`` is ``U_star``,
the inverse of the local exit matrix.  The state also carries the row-sum
vector ``u_star`` over the whole family and the partial row-sum vector
``u_star_K`` over the index set ``K_set``.

On a band of finite width the family is kept in product form: ``U_star``
plus one step factor ``T_j = block(j, j-1) @ U_star(j-1)`` per level, so
member ``k`` is ``U_star @ T_n @ ... @ T_{k+1}``.  The exit correction of
the next level reads the members of the levels the band reaches,
multiplied out in one top-down row sweep.  A step on a band of width ``b``
therefore costs one exit-matrix inversion and about ``2 b`` block
products, and memory grows by one factor per level.

On an infinite band the correction reaches every level, so the family is
kept multiplied out instead, as one wide array
``W = [F_0 | ... | F_n]`` of shape ``M_n x (M_0 + ... + M_n)``.  A step
reads one stacked block column and costs one ``M x sum(M)`` product for the
correction and one for the update; only the newest ``W`` is retained.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConfigError, IndexOutOfRange, InvalidBlock, SingularBlock
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

    ``U_star`` is the sojourn matrix of level ``n``.  The rest of the
    family is held in one of two forms, fixed by the band of the generator.
    On a finite band, ``factors`` links the step factors
    ``T_j = block(j, j-1) @ U_star(j-1)`` from the top down, as nested pairs
    ``(T_n, (T_{n-1}, ... (T_1, None)))``; the sojourn matrix of level
    ``k`` is ``U_star @ T_n @ ... @ T_{k+1}``.  On an infinite band,
    ``W`` holds the whole family side by side, level ``k`` in columns
    ``offsets[k]:offsets[k+1]``; ``factors`` is then ``None``, and on a
    finite band ``W`` and ``offsets`` are.  A step on an infinite band costs
    one ``M x sum(M)`` product for the correction and one for the update;
    it builds a new ``W`` and never writes into the old one, so earlier
    states stay valid, and each state retains exactly one ``W``.

    ``u_K`` is the running partial row sum over ``K_set`` restricted to
    levels ``0..n``; ``u_star_K`` exposes it once ``n`` has reached
    ``max(K_set)`` and is ``None`` before that.  ``q_diag_n`` caches the
    diagonal of ``block(n, n)`` for the stopping rule.
    """

    n: int
    U_star: np.ndarray
    factors: tuple | None
    W: np.ndarray | None
    offsets: np.ndarray | None
    u_star: np.ndarray
    u_K: np.ndarray
    K_set: frozenset[int]
    q_diag_n: np.ndarray

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
    wide = gen.bandwidth is None
    return RecursionState(
        n=0,
        U_star=u0,
        factors=None,
        W=u0 if wide else None,
        offsets=np.array([0, u0.shape[0]]) if wide else None,
        u_star=u_vec,
        u_K=u_vec.copy() if 0 in ks else np.zeros_like(u_vec),
        K_set=ks,
        q_diag_n=np.diag(q00).copy(),
    )


def advance(state: RecursionState, gen: BlockGenerator) -> RecursionState:
    """Advance the rolling state from level ``n`` to ``n + 1``.

    The new ``U_star`` inverts the local exit matrix at level ``n + 1``.
    Its correction sum ``sum_l sojourn_matrix(state, l) @ block(l, n+1)``
    runs over the levels ``l`` that the band reaches.  On a finite band it
    runs top down over ``l = n .. n + 1 - b``, carrying one row of products
    ``U_star @ T_n @ ... @ T_{l+1}`` down the factor chain, and the step
    factor ``block(n+1, n) @ U_star(n)`` joins ``factors``.  On an infinite
    band it is the single product ``W @ block_column(n+1, 0, n)``, and the
    new ``W`` is ``U_star(n+1) @ block(n+1, n) @ W`` with ``U_star(n+1)``
    appended.  The partial row-sum vector updates by a single left product
    with ``U_star @ block(n+1, n)``.
    """
    n, n1 = state.n, state.n + 1
    m1 = gen.phase_count(n1)
    q_next = gen.block_array(n1, n1)
    q_down = gen.block_array(n1, n)

    if state.W is not None:
        col = gen.block_column(n1, 0, n)
        if col.shape != (state.W.shape[1], m1):
            raise InvalidBlock(
                f"block column {n1} over levels 0..{n} has shape {col.shape}, "
                f"expected {(state.W.shape[1], m1)}"
            )
        correction = state.W @ col
    else:
        lo = max(0, n1 - gen.bandwidth)
        correction = np.zeros((state.U_star.shape[0], m1))
        row, node = state.U_star, state.factors
        for l in range(n, lo - 1, -1):
            b = gen.block_array(l, n1)
            if b.any():
                correction += row @ b
            if l > lo:
                factor, node = node
                row = row @ factor
    u1 = lu_inverse(-q_next - q_down @ correction, f"level {n1} exit matrix")

    step = u1 @ q_down
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

    if state.W is None:
        factors, W, offsets = (q_down @ state.U_star, state.factors), None, None
    else:
        factors = None
        W = np.concatenate([step @ state.W, u1], axis=1)
        offsets = np.append(state.offsets, state.offsets[-1] + m1)
    return RecursionState(
        n=n1,
        U_star=u1,
        factors=factors,
        W=W,
        offsets=offsets,
        u_star=u_vec,
        u_K=u_k,
        K_set=state.K_set,
        q_diag_n=np.diag(q_next).copy(),
    )


def sojourn_matrix(state: RecursionState, k: int) -> np.ndarray:
    """Expected-sojourn matrix for level ``k``.

    Entry ``(i, j)`` is the expected total time spent in ``(k, j)`` before
    the chain first visits any level above ``n``, starting from ``(n, i)``.
    On an infinite band it is a column slice of ``W``; otherwise it is
    multiplied out on demand as ``U_star @ T_n @ ... @ T_{k+1}``.
    """
    if not 0 <= k <= state.n:
        raise IndexOutOfRange(f"level {k} outside 0..{state.n}")
    if state.W is not None:
        return state.W[:, state.offsets[k] : state.offsets[k + 1]]
    product, node = state.U_star, state.factors
    for _ in range(state.n - k):
        factor, node = node
        product = product @ factor
    return product


def sojourn_rows(state: RecursionState, seed: np.ndarray) -> tuple[np.ndarray, ...]:
    """Rows ``seed @ sojourn_matrix(state, k)`` for ``k = 0..n``.

    On an infinite band this is ``seed @ W`` split at the level offsets.
    Otherwise it is one backward sweep: ``x_n = seed @ U_star``, then
    ``x_{k-1} = x_k @ T_k``, so each level costs one row-matrix product.  A
    seed with ``seed @ u_star = 1`` gives rows summing to one.
    """
    if state.W is not None:
        return tuple(np.split(seed @ state.W, state.offsets[1:-1]))
    x, node = seed @ state.U_star, state.factors
    rows = [x]
    while node is not None:
        factor, node = node
        x = x @ factor
        rows.append(x)
    rows.reverse()
    return tuple(rows)
