"""Independent oracles used to freeze expected values.

Most of what is here is computed by a route that shares nothing with the
package's recursion machinery: closed-form balance equations, product
forms, dense grid solves, and trajectory simulation.  The two direct
cross-checks at the end assemble from the package's sojourn family or
principal submatrix what the solver keeps in closed or recursive form, and
``lbcl_direct_dense`` is the dense-LU reference for the sparse baseline.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from bhmc import (
    IndexOutOfRange,
    brute_force_stationary,
    principal_submatrix,
    sojourn_matrix,
)


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

    Keeps every member ``F[0..n]`` and multiplies each by
    ``U_j @ block(j, j-1)`` at every level ``j``, with plain numpy inverses
    and blocks read straight from the callback.  Returns the family, the
    row sums ``u_star`` carried by their own recursion, and the partial row
    sums over the levels of ``K_set`` up to ``n``, summed directly from the
    family.
    """

    def blk(k, l):
        return np.asarray(gen.block(k, l), dtype=float)

    family = [np.linalg.inv(-blk(0, 0))]
    u_star = family[0].sum(axis=1)
    for j in range(1, n + 1):
        q_down = blk(j, j - 1)
        lo = 0 if gen.bandwidth is None else max(0, j - gen.bandwidth)
        correction = sum(family[l] @ blk(l, j) for l in range(lo, j))
        u_j = np.linalg.inv(-blk(j, j) - q_down @ correction)
        step = u_j @ q_down
        family = [step @ f for f in family] + [u_j]
        u_star = u_j @ (1.0 + q_down @ u_star)
    u_star_K = sum(family[l].sum(axis=1) for l in K_set if l <= n)
    return family, u_star, u_star_K


def u_star_K_direct(state) -> np.ndarray:
    """Partial row sums over ``K_set`` straight from the sojourn family.

    Cross-check for the recursive ``u_star_K``; both must agree.
    """
    if state.n < max(state.K_set):
        raise IndexOutOfRange(
            f"level {state.n} below max(K_set) = {max(state.K_set)}"
        )
    return sum(sojourn_matrix(state, l).sum(axis=1) for l in state.K_set)


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
