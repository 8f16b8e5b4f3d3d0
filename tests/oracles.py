"""Independent oracles used to freeze expected values.

Most of what is here is computed by a route that shares nothing with the
package's recursion machinery: closed-form balance equations, product
forms, dense grid solves, and trajectory simulation.  The direct
cross-checks at the end assemble from the package's sojourn family or
principal submatrix what the solver keeps in closed or recursive form,
``lbcl_direct_dense`` is the dense-LU reference for the sparse baseline,
and ``drift_blockwise`` measures the drift driver's stopping distance on
assembled approximations.  ``lattice_block_loop`` and ``lu_inverse_getrs``
keep the move-by-move lattice blocks and the ``getrs`` inverse that the
package replaced, ``lu_inverse_reductions`` the numpy-reduction guard that
the LAPACK ``dlange`` scale replaced, ``lu_inverse_getri`` the
whole-matrix ``getri`` that inversion by halves replaced above the split
size, and ``family_blocks_mp`` is the
40-digit reference for the sojourn family.  ``incoming_support_loop``,
``outgoing_support_loop`` and ``select_pivot_loop`` are the set-by-set
pivot selection that the boolean-mask form replaced, and
``principal_submatrix_rows`` is the unchecked row-by-row assembly that the
checked column walk replaced.  ``heavy_tail_column_sliced`` builds each
heavy-tail block column afresh by slice, as before the model kept its jump
kernel.  ``heavy_tail_pi`` and ``lattice_product_pi`` are exact laws:
the heavy tail's level-crossing recursion and the default-wall lattice's
product form.  ``advance_health_reductions`` is ``advance``'s health test
as numpy's min and max reductions took it.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse

from bhmc import (
    IndexOutOfRange,
    PrincipalSubmatrix,
    advance,
    brute_force_stationary,
    init_state,
    principal_submatrix,
    select_pivot_drift,
    sojourn_matrix,
    tv_distance,
)
from bhmc.errors import EmptyCandidateSet, SingularBlock
from bhmc.lfp import TAU_REL, PivotSelection
from bhmc.recursions import PIVOT_RTOL, lu_inverse
from bhmc.solver import _pivot_blocks


def geometric_pi(lam: float, mu: float, levels: int) -> np.ndarray:
    """Birth-death balance: pi_k = (1 - rho) rho^k for the single-server queue."""
    rho = lam / mu
    return (1 - rho) * rho ** np.arange(levels + 1)


def mmc_pi(lam: float, mu: float, c: int, levels: int) -> np.ndarray:
    """Multi-server stationary law from the product of birth/death ratios.

    Exact normalization: the tail above ``levels`` is geometric with ratio
    ``lam / (c mu)`` and is summed in closed form.
    """
    w = [1.0]
    for k in range(1, levels + 1):
        w.append(w[-1] * lam / (min(k, c) * mu))
    w = np.array(w)
    rho = lam / (c * mu)
    tail = w[-1] * rho / (1 - rho)
    return w / (w.sum() + tail)


def poisson_pi(lam: float, mu: float, levels: int) -> np.ndarray:
    """Infinite-server stationary law: Poisson(lam / mu), unnormalized tail dropped."""
    a = lam / mu
    w = np.array([a**k / math.factorial(k) for k in range(levels + 1)])
    return w * math.exp(-a)


def conditional(pi: np.ndarray, n: int) -> np.ndarray:
    """Stationary law restricted to levels 0..n and renormalized."""
    head = pi[: n + 1]
    return head / head.sum()


def heavy_tail_pi(mu: float, tail_c: float, levels: int) -> np.ndarray:
    """Exact law of ``make_heavy_tail_mg1(mu, tail_c)`` on levels ``0..levels``.

    The cut between levels ``i - 1`` and ``i`` is crossed downward at rate
    ``mu pi_i`` and upward by every jump from a level ``l < i`` of at least
    ``i - l``, whose rates sum to ``T(m) = tail_c / (2 m (m + 1))``,
    ``m = i - l``.  So ``mu pi_i = sum_{l<i} pi_l T(i - l)``, and the mean
    drift gives ``pi_0 = 1 - tail_c / (2 mu)``.  Every term is positive,
    so the recursion subtracts nothing; it costs one dot product per level.
    """
    m = np.arange(levels, 0, -1.0)
    t_rev = tail_c / (2.0 * m * (m + 1.0))  # T(levels), ..., T(1)
    pi = np.empty(levels + 1)
    pi[0] = 1.0 - tail_c / (2.0 * mu)
    for i in range(1, levels + 1):
        pi[i] = (pi[:i] @ t_rev[levels - i :]) / mu
    return pi


def lattice_product_pi(rates: dict[str, float], levels: int) -> np.ndarray:
    """Exact law of the default-wall quadrant walk, in (level, phase) order.

    With every wall rate at its interior value, ``x`` and ``y`` are two
    independent single-server queues, so ``pi(x, y) = (1 - rx)(1 - ry)
    rx^x ry^y`` with ``rx = east / west`` and ``ry = north / south``.
    Level ``k`` holds the points ``(x, k - x)``, ``x = 0..k``.
    """
    rx, ry = rates["east"] / rates["west"], rates["north"] / rates["south"]
    blocks = []
    for k in range(levels + 1):
        x = np.arange(k + 1)
        blocks.append((1 - rx) * (1 - ry) * rx**x * ry ** (k - x))
    return np.concatenate(blocks)


def lattice_grid_pi(rates: dict[str, float], grid: int) -> np.ndarray:
    """Dense stationary solve of the quadrant walk truncated to a grid.

    States (x, y) with 0 <= x, y < grid; outward moves at the artificial
    outer boundary are dropped (their rates never enter the generator).
    Returns the flat vector ordered by (level, phase) = (x + y, x) for all
    levels the grid covers, so it aligns with the package's block layout.
    """
    e, w, n, s = rates["east"], rates["west"], rates["north"], rates["south"]
    ew = rates.get("east_wall", e)
    ww = rates.get("west_wall", w)
    nw = rates.get("north_wall", n)
    sw = rates.get("south_wall", s)
    idx = {(x, y): x * grid + y for x in range(grid) for y in range(grid)}
    q = np.zeros((grid * grid, grid * grid))
    for (x, y), i in idx.items():
        moves = [(1, 0, ew if x == 0 else e), (0, 1, nw if y == 0 else n)]
        if x > 0:
            moves.append((-1, 0, ww if y == 0 else w))
        if y > 0:
            moves.append((0, -1, sw if x == 0 else s))
        for dx, dy, rate in moves:
            tx, ty = x + dx, y + dy
            if tx < grid and ty < grid:
                q[i, idx[(tx, ty)]] += rate
                q[i, i] -= rate
    pi = brute_force_stationary(q)
    ordered = []
    for level in range(2 * grid - 1):
        for x in range(level + 1):
            y = level - x
            ordered.append(pi[idx[(x, y)]] if x < grid and y < grid else 0.0)
    return np.array(ordered)


def lattice_block_loop(k: int, l: int, rates: dict[str, float]) -> np.ndarray:
    """Block ``(k, l)`` of ``make_lattice_rw_2d`` built move by move.

    ``rates`` holds all eight rates, the four compass rates and the four
    ``*_wall`` rates.  Each phase ``x`` of level ``k`` lists its admissible
    unit steps from ``(x, k - x)``; the diagonal sums their rates in the
    order east, north, west, south, starting from 0.
    """
    e, w, n, s = rates["east"], rates["west"], rates["north"], rates["south"]
    ew, ww, nw, sw = (rates[f"{d}_wall"] for d in ("east", "west", "north", "south"))

    def moves(x, y):
        yield 1, 0, ew if x == 0 else e
        yield 0, 1, nw if y == 0 else n
        if x > 0:
            yield -1, 0, ww if y == 0 else w
        if y > 0:
            yield 0, -1, sw if x == 0 else s

    out = np.zeros((k + 1, l + 1))
    if abs(l - k) > 1:
        return out
    for x in range(k + 1):
        y = k - x
        if l == k:
            out[x, x] = -sum(rate for _, _, rate in moves(x, y))
        else:
            for dx, dy, rate in moves(x, y):
                if k + dx + dy == l:
                    out[x, x + dx] = rate
    return out


def lu_inverse_getrs(matrix: np.ndarray) -> np.ndarray:
    """Inverse by LAPACK ``getrf`` and ``getrs`` against the identity.

    The route ``lu_inverse`` took before it called ``getri``; it has no
    pivot guard, so callers pass well-conditioned matrices.
    """
    lu, piv, _ = scipy.linalg.lapack.dgetrf(np.asarray(matrix, dtype=float))
    inverse, _ = scipy.linalg.lapack.dgetrs(lu, piv, np.eye(lu.shape[0], order="F"))
    return inverse


def lu_inverse_getri(matrix: np.ndarray, what: str) -> np.ndarray:
    """Inverse by one whole-matrix LAPACK ``getrf`` and ``getri``.

    The route ``lu_inverse`` took at every size before it inverted a large
    matrix by halves, with the same ``dlange`` guard and messages.
    """
    m = np.asarray(matrix, dtype=float)
    scale = scipy.linalg.lapack.dlange("I", m)
    if 0.0 < scale < np.inf:  # false on NaN too
        lu, piv, _ = scipy.linalg.lapack.dgetrf(m)
        if all(PIVOT_RTOL * scale <= abs(p) for p in lu.diagonal().tolist()):
            return scipy.linalg.lapack.dgetri(lu, piv, lwork=64 * m.shape[0], overwrite_lu=True)[0]
        raise SingularBlock(f"{what}: pivot below {PIVOT_RTOL} * max row norm")
    raise SingularBlock(f"{what}: matrix is zero or non-finite")


def lu_inverse_reductions(matrix: np.ndarray, what: str) -> np.ndarray:
    """``lu_inverse`` with its guard taken by numpy reductions.

    The route ``lu_inverse`` took before its guard moved to ``dlange`` and
    a pivot loop: the scale is ``np.abs(m).sum(axis=1).max()``, a pairwise
    sum, and the smallest pivot is a numpy ``min``; the inverse is the same
    ``getrf`` and ``getri``, with the same messages.
    """
    m = np.asarray(matrix, dtype=float)
    scale = np.abs(m).sum(axis=1).max() if m.size else 0.0
    if 0.0 < scale < np.inf:  # false on NaN too
        lu, piv, _ = scipy.linalg.lapack.dgetrf(m)
        if np.abs(lu.diagonal()).min() >= PIVOT_RTOL * scale:
            return scipy.linalg.lapack.dgetri(lu, piv, lwork=64 * m.shape[0], overwrite_lu=True)[0]
        raise SingularBlock(f"{what}: pivot below {PIVOT_RTOL} * max row norm")
    raise SingularBlock(f"{what}: matrix is zero or non-finite")


def advance_health_reductions(state, gen) -> str | None:
    """The message ``advance`` raises from ``state`` on a finite band, or None.

    The new row sums are formed as ``advance`` forms them, and tested as
    the test read before it took its extremes at argmax and argmin: with
    numpy's ``min`` and ``max`` reductions.
    """
    n1 = state.n + 1
    q_next, q_down = gen.block_array(n1, n1), gen.block_array(n1, state.n)
    col = gen.block_column(n1, max(0, n1 - gen.bandwidth), state.n)
    u1 = lu_inverse(-q_next - (q_down @ state.W) @ col, f"level {n1} exit matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        u_vec = u1 @ (1.0 + q_down @ state.u_star)
        u_k = u1 @ (q_down @ state.u_K)
        if n1 in state.K_set:
            u_k += u1.sum(axis=1)
    k_top = u_k.max()
    if (0.0 < u_vec.min() and u_vec.max() < np.inf and k_top < np.inf
            and u_k.min() >= -1e-12 * max(k_top, 0.0)):
        return None
    if not (np.all(np.isfinite(u_vec)) and np.all(np.isfinite(u_k))):
        return (f"u_star overflowed at level {n1}; the expected sojourn times "
                "exceed double range at this depth")
    if not np.all(u_vec > 0.0):
        return (f"positivity of u_star lost at level {n1}; accumulated rounding "
                "has exhausted double precision at this depth")
    return f"positivity of u_star_K lost at level {n1}"


def mm1_sojourn_at_zero_mc(
    lam: float, mu: float, start: int, top: int, paths: int, seed: int
) -> tuple[float, float]:
    """Trajectory estimate of the expected time at level 0 before exceeding ``top - 1``.

    Simulates the birth-death jump chain with exponential holding times
    from level ``start`` until the first visit to level ``top``; returns
    the sample mean and standard error of the accumulated time at level 0.
    """
    rng = np.random.default_rng(seed)
    level = np.full(paths, start, dtype=np.int64)
    at_zero_time = np.zeros(paths)
    alive = np.ones(paths, dtype=bool)
    while alive.any():
        lv = level[alive]
        rate = np.where(lv == 0, lam, lam + mu)
        hold = rng.exponential(1.0 / rate)
        acc = at_zero_time[alive]
        acc[lv == 0] += hold[lv == 0]
        at_zero_time[alive] = acc
        up = rng.random(lv.shape) < np.where(lv == 0, 1.0, lam / (lam + mu))
        lv = np.where(up, lv + 1, lv - 1)
        level[alive] = lv
        survivors = lv < top
        alive_idx = np.flatnonzero(alive)
        alive[alive_idx[~survivors]] = False
    mean = at_zero_time.mean()
    sem = at_zero_time.std(ddof=1) / math.sqrt(paths)
    return float(mean), float(sem)


def family_blocks(gen, n: int, K_set=(0,)):
    """Whole sojourn family at level ``n`` by the full-family recursion.

    Keeps every member ``F[0..n]`` and multiplies each by ``block(j, j-1)``
    and then by ``U_j`` at every level ``j``, with blocks read straight from
    the callback; the correction reads the same products
    ``block(j, j-1) @ F[l]``, so its rounding is that of a finite band's
    step.  It inverts with the package's ``lu_inverse``, so the comparison
    with the product form checks the form and not which LAPACK routine
    rounds the inverses; ``family_blocks_mp`` checks the rounding.
    Returns the family, the row sums ``u_star`` carried by their own
    recursion, and the partial row sums over the levels of ``K_set`` up to
    ``n``, summed directly from the family.
    """

    def blk(k, l):
        return np.asarray(gen.block(k, l), dtype=float)

    family = [lu_inverse(-blk(0, 0), "oracle level 0")]
    u_star = family[0].sum(axis=1)
    for j in range(1, n + 1):
        q_down = blk(j, j - 1)
        lo = 0 if gen.bandwidth is None else max(0, j - gen.bandwidth)
        down = [q_down @ f for f in family]
        correction = sum(down[l] @ blk(l, j) for l in range(lo, j))
        u_j = lu_inverse(-blk(j, j) - correction, f"oracle level {j}")
        family = [u_j @ f for f in down] + [u_j]
        u_star = u_j @ (1.0 + q_down @ u_star)
    u_star_K = sum(family[l].sum(axis=1) for l in K_set if l <= n)
    return family, u_star, u_star_K


def family_blocks_mp(gen, n: int):
    """The family and ``u_star`` of ``family_blocks`` at 40 digits.

    Every block converts exactly to an mpmath matrix, and the recursion,
    inverses included, runs at 40 digits; the results are rounded to
    float64 only on return, so at the small ``n`` the tests use they are
    the exact values to within one rounding.
    """

    def blk(k, l):
        return mpmath.matrix(np.asarray(gen.block(k, l), dtype=float).tolist())

    def ones(k):
        return mpmath.ones(gen.phase_count(k), 1)

    def to_float(a):
        return np.array(a.tolist(), dtype=float).reshape(a.rows, a.cols)

    with mpmath.workdps(40):
        family = [(-blk(0, 0)) ** -1]
        u_star = family[0] * ones(0)
        for j in range(1, n + 1):
            q_down = blk(j, j - 1)
            lo = 0 if gen.bandwidth is None else max(0, j - gen.bandwidth)
            correction = family[lo] * blk(lo, j)
            for l in range(lo + 1, j):
                correction += family[l] * blk(l, j)
            u_j = (-blk(j, j) - q_down * correction) ** -1
            step = u_j * q_down
            family = [step * f for f in family] + [u_j]
            u_star = u_j * (ones(j) + q_down * u_star)
        return [to_float(f) for f in family], to_float(u_star)[:, 0]


def u_star_K_direct(state, gen) -> np.ndarray:
    """Partial row sums over ``K_set`` straight from the sojourn family.

    Cross-check for the recursive ``u_star_K``; both must agree.
    """
    if state.n < max(state.K_set):
        raise IndexOutOfRange(
            f"level {state.n} below max(K_set) = {max(state.K_set)}"
        )
    return sum(sojourn_matrix(state, gen, l).sum(axis=1) for l in state.K_set)


def residual_q_norm_direct(gen, approx) -> float:
    """Q-weighted residual by explicit assembly; oracle for the closed form.

    Computes ``|| x @ Q_n ||`` weighted per state by the reciprocal of its
    diagonal rate, where ``x`` is the flattened approximation and ``Q_n``
    the assembled principal submatrix.
    """
    sub = principal_submatrix(gen, approx.n)
    x = approx.flatten()
    if x.shape[0] != sub.dim:
        raise IndexOutOfRange(
            f"approximation has {x.shape[0]} states, submatrix {sub.dim}"
        )
    # dense product: BLAS keeps the cancelling interior columns at zero,
    # where a sparse product leaves rounding noise of about 1e-17 per column
    resid = x @ sub.data.toarray()
    weights = 1.0 / np.abs(sub.data.diagonal())
    return float(np.abs(resid) @ weights)


def lbcl_direct_dense(gen, n: int, alpha_n: np.ndarray) -> np.ndarray:
    """Dense reference for ``lbcl_direct``: the augmented truncation by dense LU.

    Fills ``Q_n`` over levels ``0..n`` block by block straight from the
    callback, solves ``x @ (-Q_n) = alpha_hat`` with ``alpha_n`` on the last
    block by dense LU with partial pivoting, and normalizes.
    """
    counts = [gen.phase_count(k) for k in range(n + 1)]
    off = np.concatenate(([0], np.cumsum(counts)))
    q = np.zeros((off[-1], off[-1]))
    for k in range(n + 1):
        hi = n if gen.bandwidth is None else min(n, k + gen.bandwidth)
        for l in range(max(0, k - 1), hi + 1):
            q[off[k] : off[k + 1], off[l] : off[l + 1]] = gen.block(k, l)
    rhs = np.zeros(off[-1])
    rhs[off[n] :] = alpha_n
    x = scipy.linalg.lu_solve(scipy.linalg.lu_factor(-q.T), rhs)
    return x / x.sum()


def drift_blockwise(gen, cert, opts):
    """The drift driver with its stopping distance taken on assembled blocks.

    Walks the schedule of ``opts`` like ``solve_mip_drift``: at each
    checkpoint it assembles the approximation from the drift pivot and
    takes ``tv_distance`` to the previous one, stopping below ``epsilon``,
    at ``max_level`` or at the end of an explicit schedule.  Returns the
    distances (``None`` first, as in the trace), the final blocks, and at
    each later checkpoint the seed difference ``a - c``: ``a`` seeds the
    previous approximation at its level ``p``, and ``c`` is recovered from
    the current one through ``blocks[p] = c @ U_star(p)``.
    """
    state = init_state(gen, opts.K_set)
    steps, diffs, prev = [], [], None
    for level in opts.checkpoint_schedule.iterate(max(max(opts.K_set), 1)):
        while state.n < min(level, opts.max_level):
            state = advance(state, gen)
        pivot = select_pivot_drift(state, gen, cert).pivot
        blocks = _pivot_blocks(state, gen, pivot)
        seed = np.zeros(state.u_star.shape[0])
        seed[pivot] = 1.0 / state.u_star[pivot]
        if prev is None:
            steps.append(None)
        else:
            p_state, p_seed, p_blocks = prev
            steps.append(tv_distance(np.concatenate(p_blocks), np.concatenate(blocks)))
            c = np.linalg.solve(p_state.U_star.T, blocks[p_state.n])
            diffs.append(p_seed - c)
        prev = state, seed, blocks
        if (steps[-1] is not None and steps[-1] < opts.epsilon) or state.n >= opts.max_level:
            break
    return steps, blocks, diffs


def incoming_support_loop(gen, n: int) -> frozenset[int]:
    """Phases of level ``n`` with a positive column sum in ``block(n+1, n)``, one by one."""
    col_sums = gen.block_array(n + 1, n).sum(axis=0)
    return frozenset(int(j) for j in np.nonzero(col_sums > 0.0)[0])


def outgoing_support_loop(state, gen) -> frozenset[int]:
    """Phases whose ``U_star @ block(n, n-1) @ e`` entry exceeds ``TAU_REL`` times the largest."""
    if state.n == 0:
        raise IndexOutOfRange("outgoing support is undefined at level 0")
    w = state.U_star @ gen.block_array(state.n, state.n - 1).sum(axis=1)
    top = w.max()
    if top <= 0.0:
        return frozenset()
    return frozenset(int(i) for i in np.nonzero(w > TAU_REL * top)[0])


def select_pivot_loop(state, I, O) -> PivotSelection:
    """Ratio-maximizing pivot with the argmax set gathered candidate by candidate."""
    if state.u_star_K is None:
        raise IndexOutOfRange(
            f"u_star_K unavailable: level {state.n} below max(K_set)"
        )
    candidates = sorted(I & O)
    if not candidates:
        raise EmptyCandidateSet(f"no candidate phase at level {state.n}")
    ratios = state.u_star_K[candidates] / state.u_star[candidates]
    if not np.all(np.isfinite(ratios)):
        raise SingularBlock(
            f"non-finite occupancy ratio at level {state.n}; u_star or "
            "u_star_K has left double range"
        )
    best = float(ratios.max())
    if not best > 0.0:
        raise EmptyCandidateSet(
            f"all candidate ratios vanish at level {state.n}"
        )
    j_star = tuple(
        j for j, r in zip(candidates, ratios) if r >= best * (1.0 - TAU_REL)
    )
    pivot = j_star[0]
    return PivotSelection(
        I_plus=frozenset(I),
        O_plus=frozenset(O),
        J_star=j_star,
        pivot=pivot,
        ratio=float(state.u_star_K[pivot] / state.u_star[pivot]),
    )


def principal_submatrix_rows(gen, n: int) -> PrincipalSubmatrix:
    """The truncation to levels ``0..n`` assembled block row by block row, unchecked.

    Block row ``k`` spans the contiguous columns of levels ``k - 1`` to
    ``k + bandwidth`` (to ``n`` without a band), read one ``block`` call
    per block, so its blocks are stacked side by side and its nonzeros
    found in one pass.
    """
    counts = [gen.phase_count(k) for k in range(n + 1)]
    offsets = np.concatenate(([0], np.cumsum(counts)))
    dim = int(offsets[-1])
    rows, cols, vals = [], [], []
    for k in range(n + 1):
        lo = max(0, k - 1)
        hi = n if gen.bandwidth is None else min(n, k + gen.bandwidth)
        strip = np.concatenate([gen.block_array(k, l) for l in range(lo, hi + 1)], axis=1)
        r, c = np.nonzero(strip)
        rows.append(r + offsets[k])
        cols.append(c + offsets[lo])
        vals.append(strip[r, c])
    # np.nonzero lists entries row by row, columns ascending: already CSR order
    indptr = np.searchsorted(np.concatenate(rows), np.arange(dim + 1))
    data = scipy.sparse.csr_array(
        (np.concatenate(vals), np.concatenate(cols), indptr), shape=(dim, dim)
    )
    return PrincipalSubmatrix(n, offsets, data)


def heavy_tail_column_sliced(mu: float, tail_c: float = 1.0):
    """``make_heavy_tail_mg1(mu, tail_c).column_blocks``, each column built afresh.

    The up jumps ``d = j - l`` of the rows ``l = lo..min(hi, j - 1)`` are
    one kernel evaluation on a float range, then the diagonal and the down
    entry are set; every call allocates its column and shares nothing.
    """
    a0 = -(mu + tail_c / 4.0)

    def column_blocks(j: int, lo: int, hi: int) -> np.ndarray:
        col = np.zeros(hi - lo + 1)
        up = max(min(j, hi + 1) - lo, 0)
        d = np.arange(j - lo, j - lo - up, -1.0)
        col[:up] = tail_c / (d * (d + 1.0) * (d + 2.0))
        if lo <= j <= hi:
            col[j - lo] = a0 + mu if j == 0 else a0
        if lo <= j + 1 <= hi:
            col[j + 1 - lo] = mu
        return col[:, None]

    return column_blocks
