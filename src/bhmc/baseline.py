"""Independent reference solvers used to cross-validate the primary path.

All three methods reach a stationary approximation through routes that
share no code with the sequential recursion: a direct linear solve of the
augmented truncation, the classical backward R-matrix recursion for
block-tridiagonal chains, and a left-null-vector solve of a finite
generator.  The two linear solves factor a ``scipy.sparse`` matrix with
sparse LU (``splu``), under the same relative pivot guard as the
recursion's dense LU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import IndexOutOfRange, InvalidBlock, NotQbd, SingularBlock
from .generator import BlockGenerator, check_distribution, principal_submatrix
from .recursions import PIVOT_RTOL, lu_inverse

if TYPE_CHECKING:  # scipy.sparse is imported where it is used, to keep import light
    import scipy.sparse

__all__ = [
    "BrightTaylorResult",
    "lbcl_direct",
    "bright_taylor",
    "brute_force_stationary",
]


@dataclass(frozen=True)
class BrightTaylorResult:
    """Blocked stationary approximation plus the rate matrices behind it.

    ``R[k-1]`` is the backward-recursed rate matrix ``R_k`` that carries
    ``blocks[k-1]`` to ``blocks[k]``, for ``k = 1..K_star``.
    """

    blocks: tuple[np.ndarray, ...]
    R: tuple[np.ndarray, ...]

    def flatten(self) -> np.ndarray:
        return np.concatenate(self.blocks)


def _left_solve(
    matrix: scipy.sparse.sparray, rhs: np.ndarray, what: str
) -> np.ndarray:
    """Solve ``x @ matrix = rhs`` by sparse LU with the shared pivot guard.

    Factors ``matrix.T``; a pivot of ``U`` below ``PIVOT_RTOL`` times the
    largest row norm of ``matrix.T``, or an exactly singular factor, is
    reported as SingularBlock.
    """
    import scipy.sparse
    import scipy.sparse.linalg

    a = scipy.sparse.csc_array(matrix.T)
    scale = abs(a).sum(axis=1).max()
    if scale == 0.0 or not np.isfinite(scale):
        raise SingularBlock(f"{what}: matrix is zero or non-finite")
    try:
        lu = scipy.sparse.linalg.splu(a)
    except RuntimeError as exc:  # splu: "Factor is exactly singular"
        raise SingularBlock(f"{what}: matrix is exactly singular") from exc
    if np.abs(lu.U.diagonal()).min() < PIVOT_RTOL * scale:
        raise SingularBlock(f"{what}: pivot below {PIVOT_RTOL} * max row norm")
    return lu.solve(rhs)


def lbcl_direct(gen: BlockGenerator, n: int, alpha_n: np.ndarray) -> np.ndarray:
    """Stationary vector of the augmented truncation, by direct linear solve.

    Solves ``x @ (-Q_n) = alpha_hat`` for the principal submatrix ``Q_n``
    over levels ``0..n``, with ``alpha_hat`` carrying ``alpha_n`` on the
    last block, then normalizes.  Returns the flat probability vector over
    all states of levels ``0..n``.
    """
    sub = principal_submatrix(gen, n)
    last = sub.level_slice(n)
    alpha = check_distribution(alpha_n, last.stop - last.start)
    rhs = np.zeros(sub.dim)
    rhs[last] = alpha
    x = _left_solve(-sub.data, rhs, f"augmented truncation at level {n}")
    return x / x.sum()


def bright_taylor(
    gen: BlockGenerator, K_star: int, tail_levels: int = 0
) -> BrightTaylorResult:
    """Classical backward R-matrix approximation for block-tridiagonal chains.

    The recursion ``R_k = block(k-1, k) @ inv(-block(k, k) - R_{k+1} @
    block(k+1, k))`` starts from a zero matrix placed ``tail_levels``
    levels above ``K_star``; the extra burn-in sharpens the retained
    ``R_1..R_{K_star}``.  The boundary vector solves the censored balance
    equation at level 0 and the blocks ``pi_0 @ R_1 @ ... @ R_k`` are
    normalized over levels ``0..K_star``, which biases mass slightly
    upward relative to the untruncated normalization.
    """
    if gen.bandwidth != 1:
        raise NotQbd(f"bandwidth must be 1, got {gen.bandwidth}")
    if K_star < 0 or tail_levels < 0:
        raise IndexOutOfRange("K_star and tail_levels must be nonnegative")
    top = K_star + tail_levels
    kept: dict[int, np.ndarray] = {}
    r_above = np.zeros((gen.phase_count(top), gen.phase_count(top + 1)))
    for k in range(top, 0, -1):
        core = -gen.block_array(k, k) - r_above @ gen.block_array(k + 1, k)
        inv = lu_inverse(core, f"R recursion at level {k}")
        r_above = gen.block_array(k - 1, k) @ inv
        if k <= K_star:
            kept[k] = r_above
    boundary = gen.block_array(0, 0)
    if top >= 1:
        r1 = r_above  # holds R_1 after the loop
        boundary = boundary + r1 @ gen.block_array(1, 0)
    pi0 = _null_left_vector(boundary)
    blocks = [pi0]
    for k in range(1, K_star + 1):
        blocks.append(blocks[-1] @ kept[k])
    total = sum(b.sum() for b in blocks)
    return BrightTaylorResult(
        blocks=tuple(b / total for b in blocks),
        R=tuple(kept[k] for k in range(1, K_star + 1)),
    )


def _null_left_vector(matrix: np.ndarray | scipy.sparse.sparray) -> np.ndarray:
    """Solve ``x @ A = 0`` with the last balance equation swapped for ``x e = 1``."""
    import scipy.sparse

    a = scipy.sparse.csc_array(matrix, dtype=float)
    m = a.shape[0]
    ones = scipy.sparse.csc_array(np.ones((m, 1)))
    a = scipy.sparse.hstack([a[:, : m - 1], ones], format="csc")
    rhs = np.zeros(m)
    rhs[-1] = 1.0
    return _left_solve(a, rhs, "left null vector")


def brute_force_stationary(
    q_hat: np.ndarray | scipy.sparse.sparray | scipy.sparse.spmatrix,
) -> np.ndarray:
    """Stationary vector of a finite proper generator by sparse solve.

    Accepts a dense array or any ``scipy.sparse`` matrix; both take the same
    path through CSC form.  Replaces the last column (a deterministic
    choice, for reproducibility) with the normalization equation.  The input
    must have zero row sums and be irreducible; a singular reduced system
    signals reducibility.
    """
    import scipy.sparse

    q = q_hat if scipy.sparse.issparse(q_hat) else np.asarray(q_hat, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1] or q.shape[0] == 0:
        raise InvalidBlock(f"expected a nonempty square matrix, got shape {q.shape}")
    return _null_left_vector(q)
