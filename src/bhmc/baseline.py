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
from itertools import accumulate
from typing import TYPE_CHECKING

import numpy as np

from .errors import IndexOutOfRange, InvalidBlock, NotQbd, SingularBlock
from .generator import BlockGenerator, _as_floats, _as_number, _check_generator, _last_level_vector
from .generator import principal_submatrix
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
    ``blocks[k-1]`` to ``blocks[k]``, for ``k = 1..K_star``.  ``tail_mass``
    is the mass of the levels ``K_star+1..K_star+tail_levels``, whose
    blocks are not kept; the blocks and ``tail_mass`` sum to one.
    """

    blocks: tuple[np.ndarray, ...]
    R: tuple[np.ndarray, ...]
    tail_mass: float

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
    last block as in ``lbcl_augment``, then normalizes.  Returns the flat
    probability vector over all states of levels ``0..n``.  An ``n`` that
    is no integer raises ConfigError, a negative one IndexOutOfRange.

    The answer is checked, not the pivots: the truncation's LU pivots
    shrink with depth while the solve stays accurate.  SingularBlock is
    raised when the relative backward error
    ``|x @ (-Q_n) - alpha_hat| / (|Q_n| |x| + |alpha_hat|)``, in max norms,
    exceeds ``BACKWARD_RTOL``, or when an entry of the normalized vector is
    below ``-NEGATIVE_RTOL`` times its largest.
    """
    import scipy.sparse

    sub = principal_submatrix(gen, n)
    rhs = _last_level_vector(sub, alpha_n)
    # x @ -Q_n = rhs, solved with the transpose factored.  -Q_n is a
    # nonsingular M-matrix, which needs no pivoting: a threshold of 0 keeps
    # the diagonal pivots, where row swaps for size could hit an exact zero.
    what = f"augmented truncation at level {sub.n}"
    a = scipy.sparse.csc_array(-sub.data.T)
    lu, scale = _splu(a, what, diag_pivot_thresh=0.0)
    x = lu.solve(rhs)
    backward = np.abs(a @ x - rhs).max() / (scale * np.abs(x).max() + rhs.max())
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
    block(k+1, k))`` starts from a zero matrix at level
    ``top = K_star + tail_levels``; the extra burn-in sharpens the retained
    ``R_1..R_{K_star}``.  The levels above ``K_star`` keep no matrix: on
    the way down they fold into one vector, ``h = R_k @ (1 + h)`` from
    ``h = 0`` at ``top``, a sum of nonnegative terms, and
    ``blocks[K_star] @ h`` is the mass of those levels.  The boundary
    vector solves the censored balance equation at level 0, and the
    blocks ``pi_0 @ R_1 @ ... @ R_k`` are normalized over levels
    ``0..top``, tail included, which biases mass slightly upward relative
    to the untruncated normalization; ``tail_mass`` is the tail's share.
    With ``tail_levels = 0`` the tail is empty and the blocks are
    normalized over ``0..K_star``.  ``K_star`` and ``tail_levels`` must be
    integers (else ConfigError) and nonnegative (else IndexOutOfRange).  A
    non-finite ``R_k``, from an inverse past double range, raises
    SingularBlock naming level ``k``, and a mass of levels ``0..top``
    past double range, in the kept blocks or in the tail, raises
    SingularBlock too.
    """
    _check_generator(gen)
    if gen.bandwidth != 1:
        raise NotQbd(f"bandwidth must be 1, got {gen.bandwidth}")
    K_star = _as_number(K_star, "K_star", int)
    tail_levels = _as_number(tail_levels, "tail_levels", int)
    if K_star < 0 or tail_levels < 0:
        raise IndexOutOfRange("K_star and tail_levels must be nonnegative")
    top = K_star + tail_levels
    r = np.zeros((gen.phase_count(top), gen.phase_count(top + 1)))  # R_{top+1}
    h = np.zeros(r.shape[0])  # pi_top @ h is the mass above level top: none
    kept, failed, k = [], None, 1
    try:
        for k in range(top, 0, -1):
            core = -gen.block_array(k, k) - r @ gen.block_array(k + 1, k)
            r = gen.block_array(k - 1, k) @ lu_inverse(core, f"R recursion at level {k}")
            if k <= K_star:
                kept.append(r)
            else:
                with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
                    h = r @ (1.0 + h)
    except SingularBlock as exc:  # raised too by the core that reads a non-finite R_{k+1}
        failed, k = exc, k + 1
    if not np.isfinite(r).all():  # that R_k, or R_1, which no core reads
        raise SingularBlock(f"R recursion at level {k}: R_{k} is not finite") from failed
    if failed is not None:
        raise failed
    pi0 = _null_left_vector(gen.block_array(0, 0) + r @ gen.block_array(1, 0))
    R = kept[::-1]
    with np.errstate(over="ignore", invalid="ignore"):  # a mass past double range raises below
        blocks = list(accumulate(R, np.matmul, initial=pi0))
        tail = blocks[-1] @ h
        total = sum(b.sum() for b in blocks) + tail  # + 0.0 without a tail: the same bits
    if not np.isfinite(total):  # nor then is the tail, a nonnegative part of it
        raise SingularBlock(f"R recursion: the mass of levels 0..{top} is not finite")
    return BrightTaylorResult(tuple(b / total for b in blocks), tuple(R), float(tail / total))


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
    signals reducibility.  An input that is not a nonempty square numeric
    matrix raises InvalidBlock.
    """
    import scipy.sparse

    q = q_hat if scipy.sparse.issparse(q_hat) else _as_floats(q_hat, InvalidBlock, "generator")
    if q.ndim != 2 or q.shape[0] != q.shape[1] or q.shape[0] == 0:
        raise InvalidBlock(f"expected a nonempty square matrix, got shape {q.shape}")
    return _null_left_vector(q)
