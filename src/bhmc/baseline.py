"""Independent reference solvers used to cross-validate the primary path.

All three methods reach a stationary approximation through routes that
share no code with the sequential recursion: a direct linear solve of the
augmented truncation, the classical backward R-matrix recursion for
block-tridiagonal chains, and a left-null-vector solve of a finite
generator.  The two linear solves factor a ``scipy.sparse`` matrix with
sparse LU (``splu``).  The left null vector is held to the recursion's
relative pivot guard; the augmented truncation's answer is checked
instead (see ``lbcl_direct``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import IndexOutOfRange, InvalidBlock, NotQbd, SingularBlock
from .generator import BlockGenerator, _as_number, check_distribution, principal_submatrix
from .recursions import PIVOT_RTOL, lu_inverse

if TYPE_CHECKING:  # scipy.sparse is imported where it is used, to keep import light
    import scipy.sparse
    import scipy.sparse.linalg

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


# lbcl_direct's answer checks, set by measurement over about 6000
# truncations (random chains of 1-4 phases on bands of width 1, 2, 3 and
# infinite, at levels up to 400, and the catalog): the relative backward
# error never passed 0.4 eps, the most negative entry -21 eps of the largest.
BACKWARD_RTOL = 1e-14
NEGATIVE_RTOL = 256 * np.finfo(float).eps


def _splu(
    a: scipy.sparse.csc_array, what: str, **options
) -> tuple[scipy.sparse.linalg.SuperLU, float]:
    """Sparse LU of ``a`` and its largest row norm; ``options`` go to ``splu``.

    A zero or non-finite ``a``, or an exactly singular factor, is reported
    as SingularBlock.
    """
    import scipy.sparse.linalg

    scale = abs(a).sum(axis=1).max()
    if scale == 0.0 or not np.isfinite(scale):
        raise SingularBlock(f"{what}: matrix is zero or non-finite")
    try:
        return scipy.sparse.linalg.splu(a, **options), scale
    except RuntimeError as exc:  # splu: "Factor is exactly singular"
        raise SingularBlock(f"{what}: matrix is exactly singular") from exc


def lbcl_direct(gen: BlockGenerator, n: int, alpha_n: np.ndarray) -> np.ndarray:
    """Stationary vector of the augmented truncation, by direct linear solve.

    Solves ``x @ (-Q_n) = alpha_hat`` for the principal submatrix ``Q_n``
    over levels ``0..n``, with ``alpha_hat`` carrying ``alpha_n`` on the
    last block, then normalizes.  Returns the flat probability vector over
    all states of levels ``0..n``.  An ``n`` that is no integer raises
    ConfigError, a negative one IndexOutOfRange.

    The answer is checked, not the pivots: the truncation's LU pivots
    shrink with depth while the solve stays accurate.  SingularBlock is
    raised when the relative backward error
    ``|x @ (-Q_n) - alpha_hat| / (|Q_n| |x| + |alpha_hat|)``, in max norms,
    exceeds ``BACKWARD_RTOL``, or when an entry of the normalized vector is
    below ``-NEGATIVE_RTOL`` times its largest.
    """
    import scipy.sparse

    n = _as_number(n, "n", int)
    sub = principal_submatrix(gen, n)
    last = sub.level_slice(n)
    alpha = check_distribution(alpha_n, last.stop - last.start)
    rhs = np.zeros(sub.dim)
    rhs[last] = alpha
    # x @ -Q_n = rhs, solved with the transpose factored.  -Q_n is a
    # nonsingular M-matrix, which needs no pivoting: a threshold of 0 keeps
    # the diagonal pivots, where row swaps for size could hit an exact zero.
    what = f"augmented truncation at level {n}"
    a = scipy.sparse.csc_array(-sub.data.T)
    lu, scale = _splu(a, what, diag_pivot_thresh=0.0)
    x = lu.solve(rhs)
    backward = np.abs(a @ x - rhs).max() / (scale * np.abs(x).max() + alpha.max())
    if not backward <= BACKWARD_RTOL:  # true on NaN too
        raise SingularBlock(
            f"{what}: relative backward error {backward:.1e} exceeds {BACKWARD_RTOL}"
        )
    pi = x / x.sum()
    if not pi.min() >= -NEGATIVE_RTOL * pi.max():
        raise SingularBlock(
            f"{what}: entry {pi.min():.1e} is negative beyond {NEGATIVE_RTOL:.1e} of the largest"
        )
    return pi


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
    upward relative to the untruncated normalization.  ``K_star`` and
    ``tail_levels`` must be integers (else ConfigError) and nonnegative
    (else IndexOutOfRange).
    """
    if gen.bandwidth != 1:
        raise NotQbd(f"bandwidth must be 1, got {gen.bandwidth}")
    K_star = _as_number(K_star, "K_star", int)
    tail_levels = _as_number(tail_levels, "tail_levels", int)
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
    # a is factored as assembled, in CSC, and solved transposed: x @ a = rhs
    lu, scale = _splu(a, "left null vector")
    if np.abs(lu.U.diagonal()).min() < PIVOT_RTOL * scale:
        raise SingularBlock(f"left null vector: pivot below {PIVOT_RTOL} * max row norm")
    return lu.solve(rhs, trans="T")


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
