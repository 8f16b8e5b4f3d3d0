"""Catalog of concrete upper block-Hessenberg generators.

Scalar-phase queueing models keep their oracles hand-verifiable; the
single-, multi- and infinite-server queues are one birth-death chain,
built by ``_birth_death`` from a birth rate, a per-server death rate and
a server count.  The two-dimensional lattice walk exercises level-varying
phase counts; the heavy-tailed M/G/1-type generator exercises a genuinely
infinite upper band with an exact analytic tail.  Phases are 0-indexed
throughout.

The scalar models build each block that does not change with the level
once per generator, as a read-only array, and return that array on every
call; a block that changes with the level is built at each call, so no
store grows with the level.  No solver, check or baseline writes into a
block, so a shared block is safe; a caller that writes to a block copies
it first (``np.array(block)``), or the write raises ``ValueError``.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .errors import BadRates, ConfigError, UnstableModel
from .generator import BlockGenerator

__all__ = [
    "MODEL_IDS",
    "build_model",
    "make_mm1",
    "make_mmc",
    "make_ld_qbd_birth_death",
    "make_heavy_tail_mg1",
    "make_lattice_rw_2d",
]


def build_model(model_id: str, params: Mapping[str, float]) -> BlockGenerator:
    """Instantiate the catalog model ``model_id`` with its rate parameters."""
    if model_id not in MODEL_IDS:
        raise ConfigError(f"unknown model {model_id!r}; expected one of {MODEL_IDS}")
    try:
        return _MAKERS[model_id](**dict(params))
    except TypeError as exc:
        raise ConfigError(f"bad parameters for {model_id}: {exc}") from exc


def _require_positive(**rates: float) -> None:
    for name, value in rates.items():
        if not (value > 0.0) or not np.isfinite(value):
            raise BadRates(f"rate {name!r} must be strictly positive, got {value!r}")


def _scalar(x: float) -> np.ndarray:
    return np.array([[x]], dtype=float)


def _shared(x: float) -> np.ndarray:
    """A read-only 1x1 block, built once and returned on every call that needs it."""
    b = _scalar(x)
    b.flags.writeable = False
    return b


def _one_phase(_k: int) -> int:
    return 1


def _birth_death(lam: float, mu: float, servers: float) -> BlockGenerator:
    """Scalar chain with birth rate ``lam`` and death rate ``min(k, servers) * mu`` at ``k >= 1``.

    The blocks that do not change with the level are shared: the birth
    rate, zero, level 0's diagonal and, from level ``servers`` on, where
    every server is busy, the death rate and the diagonal.  The others are
    built at each call.
    """
    up, zero, first = _shared(lam), _shared(0.0), _shared(-lam)
    # the death rate with every server busy; inf, and never served, when ``servers`` is
    busy = servers * mu
    down, diag = _shared(busy), _shared(-(lam + busy))

    def block(k: int, l: int) -> np.ndarray:
        if l == k + 1:
            return up
        if k >= servers:
            return diag if l == k else down if l == k - 1 else zero
        if l == k:
            return _scalar(-(lam + k * mu)) if k >= 1 else first
        if l == k - 1 and k >= 1:
            return _scalar(k * mu)
        return zero

    return BlockGenerator(_one_phase, block, bandwidth=1)


def make_mm1(lam: float, mu: float) -> BlockGenerator:
    """Single-server queue: birth rate ``lam``, death rate ``mu``.

    Stable when ``lam < mu``; the stationary law is geometric with ratio
    ``lam / mu``.
    """
    _require_positive(lam=lam, mu=mu)
    if lam >= mu:
        raise UnstableModel(f"mm1 requires lam < mu, got lam={lam}, mu={mu}")
    return _birth_death(lam, mu, 1)


def make_mmc(lam: float, mu: float, c: int) -> BlockGenerator:
    """Multi-server queue: death rate ``min(k, c) * mu`` at level ``k``.

    Stable when ``lam < c * mu``.
    """
    _require_positive(lam=lam, mu=mu)
    if not (np.isfinite(c) and c >= 1 and c == int(c)):
        raise BadRates(f"server count must be an integer >= 1, got {c!r}")
    c = int(c)
    if lam >= c * mu:
        raise UnstableModel(
            f"mmc requires lam < c * mu, got lam={lam}, c*mu={c * mu}"
        )
    return _birth_death(lam, mu, c)


def make_ld_qbd_birth_death(lam: float, mu: float) -> BlockGenerator:
    """Infinite-server queue: death rate ``k * mu`` at level ``k``.

    Always ergodic for positive rates; the stationary law is Poisson with
    mean ``lam / mu``.  Its unbounded diagonal exercises genuinely
    level-dependent behavior.
    """
    _require_positive(lam=lam, mu=mu)
    return _birth_death(lam, mu, np.inf)


def make_heavy_tail_mg1(mu: float, tail_c: float = 1.0) -> BlockGenerator:
    """Level-independent M/G/1-type generator with a cubic jump tail.

    Scalar phase.  Upward jump rates are ``A_j = tail_c / (j (j+1) (j+2))``
    for ``j >= 1``, so both ``sum_j A_j = tail_c / 4`` and
    ``sum_j j A_j = tail_c / 2`` telescope in closed form, giving exact
    conservativity and an exact mean-drift check.  Downward rate ``mu``;
    the local rate absorbs the rest.  Stable when ``mu > tail_c / 2``.
    The stationary tail decays quadratically, which is what makes this
    model a stress case for truncation-based solvers.

    The jump rates are evaluated once, into one read-only array built at
    the first ``column_blocks`` call and rebuilt at twice its size when a
    column reaches past it, so a solve to level ``n`` keeps ``O(n)``
    floats.  The column of up jumps only, the one each recursion level
    reads, is a view of that array.  ``block`` shares its diagonal, down
    and zero blocks read-only and builds each up-jump block afresh.
    """
    _require_positive(mu=mu, tail_c=tail_c)
    up_mean = tail_c / 2.0
    if mu <= up_mean:
        raise UnstableModel(
            f"mean drift requires mu > {up_mean} (= tail_c / 2), got mu={mu}"
        )
    a0 = -(mu + tail_c / 4.0)

    def up_rate(j):
        return tail_c / (j * (j + 1.0) * (j + 2.0))

    def local_rate(k: int) -> float:
        # boundary level has no downward transition; its rate folds in
        return a0 + mu if k == 0 else a0

    first, local, down, zero = map(_shared, (local_rate(0), local_rate(1), mu, 0.0))

    def block(k: int, l: int) -> np.ndarray:
        if l == k:
            return local if k >= 1 else first
        if l == k - 1 and k >= 1:
            return down
        if l > k:
            return _scalar(up_rate(l - k))
        return zero

    # the jump kernel, reversed: rev[i] = up_rate(len(rev) - i), so the up
    # jumps d = j - l of a column, l = lo..min(hi, j - 1), are the run of
    # rev from len(rev) - (j - lo) on; read-only, it is served as views
    rev = np.empty(0)

    def column_blocks(j: int, lo: int, hi: int) -> np.ndarray:
        # block(l, j) for l = lo..hi: the up jumps fill the prefix l < j
        # (up_rate on a float array gives the same floats as on each
        # integer), then the diagonal and the down entry.  One call reads
        # one kernel, so a concurrent rebuild cannot mix two.
        nonlocal rev
        kernel, up = rev, max(min(j, hi + 1) - lo, 0)
        if up and len(kernel) < j - lo:
            size = max(len(kernel), 64)
            while size < j - lo:
                size *= 2
            kernel = up_rate(np.arange(size, 0, -1.0))
            kernel.flags.writeable = False
            rev = kernel
        start = len(kernel) - (j - lo)
        if lo <= hi < j:  # up jumps only: a view of the kernel
            return kernel[start : start + up, None]
        col = np.zeros(hi - lo + 1)
        col[:up] = kernel[start : start + up]
        if lo <= j <= hi:
            col[j - lo] = local_rate(j)
        if lo <= j + 1 <= hi:
            col[j + 1 - lo] = mu
        return col[:, None]

    def tail_column(L: int, lo: int, hi: int) -> np.ndarray:
        # telescoping tail: sum_{j > m} A_j = tail_c / (2 (m+1) (m+2)), m = L - l
        m = L - np.arange(lo, hi + 1, dtype=float)
        return tail_c / (2.0 * (m + 1.0) * (m + 2.0))

    return BlockGenerator(
        _one_phase,
        block,
        bandwidth=None,
        tail_column=tail_column,
        column_blocks=column_blocks,
    )


def make_lattice_rw_2d(
    east: float,
    west: float,
    north: float,
    south: float,
    east_wall: float | None = None,
    west_wall: float | None = None,
    north_wall: float | None = None,
    south_wall: float | None = None,
) -> BlockGenerator:
    """Unit-step random walk on the nonnegative quadrant.

    The level of a lattice point ``(x, y)`` is ``x + y`` and its phase is
    ``x``, so level ``k`` has ``k + 1`` phases and every jump moves the
    level by exactly one.  Interior rates are the four compass rates; on a
    wall the blocked inward move disappears and the two moves along or
    away from that wall take the corresponding ``*_wall`` rate (defaulting
    to the interior rate).  Positive recurrence needs an inward bias
    (``west > east``, ``south > north``); this is asserted by the caller,
    not verified here.
    """
    east_wall = east if east_wall is None else east_wall
    west_wall = west if west_wall is None else west_wall
    north_wall = north if north_wall is None else north_wall
    south_wall = south if south_wall is None else south_wall
    _require_positive(
        east=east,
        west=west,
        north=north,
        south=south,
        east_wall=east_wall,
        west_wall=west_wall,
        north_wall=north_wall,
        south_wall=south_wall,
    )

    def phase_count(k: int) -> int:
        return k + 1

    def block(k: int, l: int) -> np.ndarray:
        out = np.zeros((k + 1, l + 1))
        if abs(l - k) > 1 or out.size == 0:
            return out
        # phase x of level k is the point (x, k - x): the x = 0 wall is
        # phase 0 and the y = 0 wall is phase k
        x = np.arange(k + 1)
        if l == k + 1:
            out[x, x + 1] = east
            out[x, x] = north
            out[0, 1] = east_wall
            out[k, k] = north_wall
        elif l == k - 1:
            out[x[1:], x[:-1]] = west
            out[x[:-1], x[:-1]] = south
            out[k, k - 1] = west_wall
            out[0, 0] = south_wall
        elif k == 0:
            out[0, 0] = -(east_wall + north_wall)
        else:
            # each total sums its moves east, north, west, south
            out[x, x] = -(east + north + west + south)
            out[0, 0] = -(east_wall + north + south_wall)
            out[k, k] = -(east + north_wall + west_wall)
        return out

    return BlockGenerator(phase_count, block, bandwidth=1)


_MAKERS = {
    "mm1": make_mm1,
    "mmc": make_mmc,
    "ld_qbd_birth_death": make_ld_qbd_birth_death,
    "heavy_tail_mg1": make_heavy_tail_mg1,
    "lattice_rw_2d": make_lattice_rw_2d,
}
MODEL_IDS = tuple(_MAKERS)
