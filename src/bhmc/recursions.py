"""Rolling first-exit recursion state for upper block-Hessenberg chains.

At level ``n`` the recursion defines the sojourn family: the matrices
``sojourn_matrix(state, gen, k)``, ``k = 0..n``, whose ``(i, j)`` entry is
the expected total sojourn time in ``(k, j)`` before the chain first climbs
above level ``n`` when started in ``(n, i)``.  Member ``n`` is ``U_star``,
the inverse of the local exit matrix.  The state also carries the row-sum
vector ``u_star`` over the whole family and the partial row-sum vector
``u_star_K`` over the index set ``K_set``.

Every band keeps the family in one form.  The members of the levels the
next exit correction reads sit side by side in one wide array ``W``: on a
band of width ``b`` those are the window levels ``lo..n`` with
``lo = max(0, n + 1 - b)``, on an infinite band all levels ``0..n``.  A
step reads the stacked block column over the window and costs one
exit-matrix inversion.  A finite band reads the correction, the update
and the new step factor from one product ``block(n+1, n) @ W``; an
infinite band, whose ``W`` grows, passes over ``W`` twice (see
``advance``).  On a finite band the members below the window are kept in
product form, as the step factors ``T_j = block(j, j-1) @ U_star(j-1)``:
member ``k < lo`` is the window's lowest member times
``T_lo @ ... @ T_{k+1}``, and memory grows by one factor per level.  An
infinite band keeps no factors; its ``W`` grows by one member per level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, islice, pairwise
from typing import Iterator

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetri, dlange

from .errors import ConfigError, IndexOutOfRange, PhaseMismatch, SingularBlock
from .generator import BlockGenerator, _as_floats, _as_number, _check_generator, _lowest_reaching

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
# lu_inverse splits a matrix of more rows than this into halves, where the
# halves measured faster than one getri; no smaller matrix changes path.
SPLIT = 64


def lu_inverse(matrix: np.ndarray, what: str) -> np.ndarray:
    """Invert a nonsingular M-matrix; tiny pivots raise SingularBlock.

    Every matrix the library inverts is a nonsingular M-matrix: the exit
    matrices, ``-block(0, 0)`` and the cores of ``bright_taylor``.

    A 1x1 matrix ``[[x]]`` is inverted as ``[[1.0 / x]]``, with no LAPACK
    call: ``getri`` on a 1x1 factor performs that one division, so the
    bits are the same without the three LAPACK calls and the pivot scan.
    Any larger matrix of at most ``SPLIT`` rows is one leaf: LAPACK
    ``getrf`` and then ``getri``, which inverts in place from the factors,
    without the wrapper overhead of ``scipy.linalg.lu_factor`` and cheaper
    than ``getrs`` against the identity.  ``getri`` gets a fixed ``64 * m``
    workspace, the blocked size LAPACK's own workspace query returns.  But
    ``getri`` runs at a fraction of the speed of a matrix product, so a
    larger matrix ``[[C11, C12], [C21, C22]]`` is inverted through the
    Schur complement of its leading half: ``X = inv(C11)``,
    ``S = C22 - C21 X C12``, ``Y = inv(S)``, and six half-size products
    assemble the inverse.  The halves recurse until every leaf fits.  They
    need no pivoting between them, because the leading blocks and Schur
    complements of a nonsingular M-matrix are again nonsingular M-matrices.

    The guard takes no numpy reduction, which on a 1x1 exit matrix would
    cost more than the inverse.  Its scale is LAPACK ``dlange("I")`` of the
    whole matrix, the largest absolute row sum, each row summed in column
    order; a scale that is zero, NaN or infinite raises "matrix is zero or
    non-finite".  Every pivot of every leaf's ``U`` must then reach
    ``PIVOT_RTOL`` times that scale, a test that is false on a NaN pivot
    too, or "pivot below" is raised; an exactly zero pivot, which ``getrf``
    reports through ``info``, fails like any tiny one.  On a 1x1 matrix the
    scale is ``abs(x)`` and the pivot is ``x``, which always passes once
    the scale has.
    """
    m = np.asarray(matrix, dtype=float)
    x = m.item() if m.shape == (1, 1) else None
    scale = dlange("I", m) if x is None else abs(x)  # 0.0 on an empty matrix
    if 0.0 < scale < np.inf:  # false on NaN too
        return _inverse(m, PIVOT_RTOL * scale, what) if x is None else np.array([[1.0 / x]])
    raise SingularBlock(f"{what}: matrix is zero or non-finite")


def _inverse(m: np.ndarray, cut: float, what: str) -> np.ndarray:
    """``lu_inverse`` below its scale check, every leaf pivot held to ``cut``."""
    size = m.shape[0]
    if size <= SPLIT:
        lu, piv, _ = dgetrf(m)
        # cut <= nan is false, so a NaN pivot fails; the maps run in C
        if all(map(cut.__le__, map(abs, lu.diagonal().tolist()))):
            return dgetri(lu, piv, 64 * size, 1)[0]  # lwork, overwrite_lu
        raise SingularBlock(f"{what}: pivot below {PIVOT_RTOL} * max row norm")
    h = size // 2
    x = _inverse(m[:h, :h], cut, what)
    # negated in place, so that each block of the inverse is one product
    # written where it belongs
    neg_x_c12 = x @ m[:h, h:]
    neg_x_c12 *= -1.0
    neg_c21_x = m[h:, :h] @ x
    neg_c21_x *= -1.0
    schur = m[h:, :h] @ neg_x_c12
    schur += m[h:, h:]
    y = _inverse(schur, cut, what)
    out = np.empty((size, size))
    np.matmul(y, neg_c21_x, out=out[h:, :h])
    np.matmul(neg_x_c12, y, out=out[:h, h:])
    np.matmul(neg_x_c12, out[h:, :h], out=out[:h, :h])
    out[:h, :h] += x
    out[h:, h:] = y
    return out


@dataclass
class RecursionState:
    """First-exit quantities at the current level ``n``.

    ``W`` holds the sojourn matrices of the window levels ``lo..n`` side by
    side, at widths read from the generator; the last, ``W.shape[0]`` wide,
    is ``U_star``.  ``lo`` is the lowest level that reaches column ``n + 1``.
    On a finite band, ``factors`` links the step factors
    ``T_j = block(j, j-1) @ U_star(j-1)`` from the top down, as nested pairs
    ``(T_n, (T_{n-1}, ... (T_1, None)))``; the factors of window levels wait
    there until their level leaves the window, and the sojourn matrix of a
    level ``k < lo`` is the window's lowest member times
    ``T_lo @ ... @ T_{k+1}``.  An infinite band has ``lo = 0`` and
    ``factors = None``.  A step builds a new ``W`` and never writes into
    the old one, so earlier states stay valid.

    ``u_K`` is the running partial row sum over ``K_set`` restricted to
    levels ``0..n``; ``u_star_K`` exposes it once ``n`` has reached
    ``max(K_set)`` and is ``None`` before that.  ``q_diag_n`` caches the
    diagonal of ``block(n, n)`` for the stopping rule.
    """

    n: int
    W: np.ndarray
    factors: tuple | None
    u_star: np.ndarray
    u_K: np.ndarray
    K_set: frozenset[int]
    q_diag_n: np.ndarray

    @property
    def U_star(self) -> np.ndarray:
        return self.W[:, self.W.shape[1] - self.W.shape[0] :]

    @property
    def u_star_K(self) -> np.ndarray | None:
        return self.u_K if self.n >= max(self.K_set) else None


def _normalize_k_set(K_set) -> frozenset[int]:
    """``K_set`` as a frozenset of integer levels; it must be nonempty and nonnegative."""
    try:
        ks = frozenset(_as_number(k, "each level in K_set", int) for k in K_set)
    except TypeError as exc:
        raise ConfigError(f"K_set must be a set of integer levels, got {K_set!r}") from exc
    if not ks or min(ks) < 0:
        raise ConfigError(f"K_set must be nonempty and nonnegative, got {sorted(ks)}")
    return ks


def init_state(gen: BlockGenerator, K_set=frozenset({0})) -> RecursionState:
    """State at level 0: ``U_star = (-block(0,0))^-1``, ``u_star = U_star e``.

    The row sums pass the health test of every level (``_checked``), so a
    subnormal ``block(0, 0)``, whose inverse leaves double range, or a bad
    one that makes ``u_star`` nonpositive raises SingularBlock naming
    level 0.  A ``gen`` that is no BlockGenerator raises ConfigError.
    """
    _check_generator(gen)
    ks = _normalize_k_set(K_set)
    q00 = gen.block_array(0, 0)
    u0 = lu_inverse(-q00, "level 0 exit matrix")
    u_vec = u0.sum(axis=1)
    u_k = u_vec.copy() if 0 in ks else np.zeros_like(u_vec)
    return _checked(RecursionState(0, u0, None, u_vec, u_k, ks, np.diag(q00).copy()))


def _checked(state: RecursionState) -> RecursionState:
    """``state`` once its row sums pass the one health test of every level.

    Positivity and finiteness are guaranteed in exact arithmetic; losing
    them above level 0 means overflow or accumulated rounding has exhausted
    double precision at this depth.  Level 0 has accumulated no rounding,
    so its messages name the inverse of ``-block(0, 0)``, its one input.
    One test passes ``u_star`` in ``(0, inf)`` and ``u_K`` finite and above
    ``-1e-12`` times its largest entry; it is false on NaN too.  Only a
    failing state runs the checks that name the loss.  An extreme is read
    at argmax/argmin, which land on the first NaN as the min/max
    reductions propagate it, at a fraction of their call cost.
    """
    u_vec, u_k = state.u_star, state.u_K
    k_top = u_k.item(u_k.argmax())
    # the conditional, not max(k_top, 0.0): no call; k_top is not NaN here
    if (0.0 < u_vec.item(u_vec.argmin()) and u_vec.item(u_vec.argmax()) < np.inf and k_top < np.inf
            and u_k.item(u_k.argmin()) >= -1e-12 * (k_top if k_top > 0.0 else 0.0)):
        return state
    if not (np.all(np.isfinite(u_vec)) and np.all(np.isfinite(u_k))):
        cause = ("the expected sojourn times exceed double range at this depth" if state.n
                 else "the inverse of -block(0, 0) exceeds double range")
        raise SingularBlock(f"u_star overflowed at level {state.n}; {cause}")
    if not np.all(u_vec > 0.0):
        cause = ("accumulated rounding has exhausted double precision at this depth" if state.n
                 else "the inverse of -block(0, 0) has a row sum that is not positive")
        raise SingularBlock(f"positivity of u_star lost at level {state.n}; {cause}")
    raise SingularBlock(f"positivity of u_star_K lost at level {state.n}")


def advance(state: RecursionState, gen: BlockGenerator) -> RecursionState:
    """Advance the rolling state from level ``n`` to ``n + 1``.

    The new ``U_star`` inverts the local exit matrix at level ``n + 1``.
    Its correction sum ``sum_l block(n+1, n) @ sojourn_matrix(state, gen, l)
    @ block(l, n+1)`` runs over the window levels ``l = lo..n``, the levels
    that reach column ``n + 1``, against ``col = block_column(n+1, lo, n)``.
    The new ``W`` is ``U_star(n+1) @ block(n+1, n) @ W``, less the member of
    level ``lo`` once it leaves the band, with ``U_star(n+1)`` appended.

    A finite band forms ``S = block(n+1, n) @ W`` once: the correction is
    ``S @ col``, the new ``W`` is ``U_star(n+1) @ S`` past the leaving
    member, and the step factor ``T_{n+1} = block(n+1, n) @ U_star(n)``
    that joins ``factors`` is the last member of ``S``, copied when ``S``
    holds more.  An infinite band, whose ``W`` grows with ``n``, computes
    ``block(n+1, n) @ (W @ col)`` and ``(U_star(n+1) @ block(n+1, n)) @ W``,
    two passes over ``W`` where ``S`` would make three.  The partial
    row sums update by the same left factor, ``U_star(n+1) @ block(n+1, n)``,
    which a finite band applies as two vector products.  The new state
    returns through ``_checked``, the health test ``init_state`` passes
    level 0 through too.

    ``gen`` must be the generator ``state`` was built from, by
    ``init_state`` and earlier steps; ``init_state`` refuses one that is no
    BlockGenerator, and a step, which runs once per level, does not test it
    again.
    """
    n, n1 = state.n, state.n + 1
    lo = _lowest_reaching(gen, n1)
    q_next = gen.block_array(n1, n1)
    q_down = gen.block_array(n1, n)
    m1 = q_next.shape[0]
    col = gen.block_column(n1, lo, n, (state.W.shape[1], m1))
    finite = gen.bandwidth is not None
    if finite:
        s = q_down @ state.W
        correction = s @ col
    else:  # W grows with n: s would be a third pass over it
        correction = q_down @ (state.W @ col)
    u1 = lu_inverse(-q_next - correction, f"level {n1} exit matrix")
    step = None if finite else u1 @ q_down  # an infinite band's update of W

    # numpy's own overflow warnings are silenced: _checked names the loss
    with np.errstate(over="ignore", invalid="ignore"):
        u_vec = u1 @ (1.0 + q_down @ state.u_star)
        u_k = u1 @ (q_down @ state.u_K) if finite else step @ state.u_K
        if n1 in state.K_set:
            u_k += u1.sum(axis=1)

    factors, kept = None, state.W
    if finite:  # T_{n+1} is the last member of s, copied so that it keeps no more
        t = s if s.shape[1] == state.W.shape[0] else s[:, -state.W.shape[0] :].copy()
        cut = gen.phase_count(lo) if lo < _lowest_reaching(gen, n1 + 1) else 0  # lo leaves
        factors, kept = (t, state.factors), s[:, cut:]
    w = u1
    if kept.size:  # the new family, written once into one array
        k = kept.shape[1]
        w = np.empty((m1, k + m1))
        np.matmul(u1 if finite else step, kept, out=w[:, :k])
        w[:, k:] = u1
    return _checked(RecursionState(n1, w, factors, u_vec, u_k, state.K_set, q_next.diagonal().copy()))


def _chain(node: tuple | None) -> Iterator[np.ndarray]:
    """The factors of a ``factors`` chain, top down."""
    while node is not None:
        factor, node = node
        yield factor


def _below_window(state: RecursionState, lo: int, k: int) -> Iterator[np.ndarray]:
    """The step factors ``T_lo, ..., T_{k+1}`` that carry window level ``lo`` down to ``k``."""
    # the chain starts at T_n; the factors of the window levels are skipped
    return islice(_chain(state.factors), state.n - lo, state.n - k)


def sojourn_matrix(state: RecursionState, gen: BlockGenerator, k: int) -> np.ndarray:
    """Expected-sojourn matrix for level ``k``.

    Entry ``(i, j)`` is the expected total time spent in ``(k, j)`` before
    the chain first visits any level above ``n``, starting from ``(n, i)``.
    Only member ``k`` is built.  A window level's matrix is a column slice
    of ``W``, sharing its memory: no identity product is formed, so it
    keeps the bits of ``W``.  A lower level's is one running product, the
    window's lowest member multiplied down through the step factors, in
    the order the walk of ``sojourn_rows`` takes with a seed.  A ``k``
    that is no integer raises ConfigError, one outside ``0..n``
    IndexOutOfRange.
    """
    k = _as_number(k, "k", int)
    if not 0 <= k <= state.n:
        raise IndexOutOfRange(f"level {k} outside 0..{state.n}")
    lo = _lowest_reaching(gen, state.n + 1)
    if k >= lo:
        start = sum(map(gen.phase_count, range(lo, k)))
        return state.W[:, start : start + gen.phase_count(k)]
    return reduce(np.matmul, _below_window(state, lo, k), state.W[:, : gen.phase_count(lo)])


def sojourn_rows(
    state: RecursionState, gen: BlockGenerator, seed: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Rows ``seed @ sojourn_matrix(state, gen, k)`` for ``k = 0..n``.

    The window's rows are ``seed @ W``, split by level, and each lower
    level costs one row-matrix product of the same walk down the step
    factors that ``sojourn_matrix`` takes.  A seed with
    ``seed @ u_star = 1`` gives rows summing to one; one that is not
    numeric, or not of length ``M_n``, raises PhaseMismatch.
    """
    m = state.W.shape[0]
    seed = _as_floats(seed, PhaseMismatch, "seed")
    if seed.shape != (m,):
        raise PhaseMismatch(f"seed has shape {seed.shape}, but level {state.n} has {m} phases")
    lo = _lowest_reaching(gen, state.n + 1)
    row = seed @ state.W
    widths = map(gen.phase_count, range(lo, state.n + 1))
    rows = [row[a:b] for a, b in pairwise(accumulate(widths, initial=0))]
    below = list(accumulate(_below_window(state, lo, 0), np.matmul, initial=rows[0]))[1:]
    return (*below[::-1], *rows)
