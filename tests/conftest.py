"""Shared model fixtures and helpers."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from bhmc import (
    BlockGenerator,
    advance,
    init_state,
    make_heavy_tail_mg1,
    make_lattice_rw_2d,
    make_ld_qbd_birth_death,
    make_mm1,
    make_mmc,
)

LATTICE_RATES = dict(east=1.0, west=3.0, north=1.0, south=3.0)

# Coupled 2-phase level-dependent QBD: phase switching plus per-phase
# arrival/service rates, with the service pool capped at three levels.
PHASE_SWITCH = np.array([[-1.0, 1.0], [2.0, -2.0]])
ARRIVALS_2P = np.array([1.0, 0.5])
SERVICES_2P = np.array([2.5, 2.0])


def two_phase_ldqbd() -> BlockGenerator:
    def block(k: int, l: int) -> np.ndarray:
        cap = min(k, 3)
        if l == k:
            drain = ARRIVALS_2P + (SERVICES_2P * cap if k >= 1 else 0.0)
            return PHASE_SWITCH - np.diag(drain)
        if l == k + 1:
            return np.diag(ARRIVALS_2P)
        if l == k - 1 and k >= 1:
            return np.diag(SERVICES_2P * cap)
        return np.zeros((2, 2))

    return BlockGenerator(lambda k: 2, block, bandwidth=1)


# Level/phase-independent QBD whose phase process is autonomous, so the
# stationary law is the product of a geometric level law and the phase
# chain's stationary vector (0.4, 0.6).
QBD_PHASE_GEN = np.array([[-1.5, 1.5], [1.0, -1.0]])
QBD_VARPI = np.array([0.4, 0.6])
QBD_LAM, QBD_MU = 1.0, 2.0


def two_phase_product_qbd() -> BlockGenerator:
    eye = np.eye(2)

    def block(k: int, l: int) -> np.ndarray:
        if l == k:
            return QBD_PHASE_GEN - (QBD_LAM + (QBD_MU if k >= 1 else 0.0)) * eye
        if l == k + 1:
            return QBD_LAM * eye
        if l == k - 1 and k >= 1:
            return QBD_MU * eye
        return np.zeros((2, 2))

    return BlockGenerator(lambda k: 2, block, bandwidth=1)


def tandem(lam: float, mu1: float, mu2: float) -> BlockGenerator:
    """Two M/M/1 queues in tandem (Jackson 1957), with moves inside a level.

    Level ``k`` counts the customers in the system and phase ``y`` those at
    node 2, so level ``k`` has ``k + 1`` phases.  An arrival (rate ``lam``)
    keeps the phase; a node-1 service (``mu1``, when ``y < k``) moves a
    customer to node 2 inside the level; a node-2 service (``mu2``, when
    ``y > 0``) leaves the system from level ``k`` to ``k - 1``.
    """

    def block(k: int, l: int) -> np.ndarray:
        out = np.zeros((k + 1, l + 1))
        y = np.arange(k + 1)
        if l == k + 1:
            out[y, y] = lam
        elif l == k:
            out[y[:-1], y[:-1] + 1] = mu1
            out[y, y] = -(lam + mu1 * (y < k) + mu2 * (y > 0))
        elif l == k - 1:
            out[y[1:], y[1:] - 1] = mu2
        return out

    return BlockGenerator(lambda k: k + 1, block, bandwidth=1)


def _rate_table(seed: int, shape):
    """Cached uniform(0.2, 1) rate blocks, one per ``(k, l)``.

    Each block comes from its own ``default_rng([seed, k, l])``; it is
    drawn on the first read only and returned read-only, since every later
    read shares it.
    """

    @lru_cache(maxsize=None)
    def rates(k, l):
        r = np.random.default_rng([seed, k, l]).uniform(0.2, 1.0, shape(k, l))
        r.flags.writeable = False
        return r

    return rates


def _geometric_tail(rates):
    """``tail_column`` of a chain whose row rates ``j`` levels up are ``a_l * 0.5**j``.

    Here ``a_l = rates(l, l+1) @ e``; beyond level ``L`` the rates sum to
    ``a_l * 0.5**(L - l)``.
    """

    def tail_column(L, lo, hi):
        return np.concatenate(
            [rates(l, l + 1).sum(axis=1) * 0.5 ** (L - l) for l in range(lo, hi + 1)]
        )

    return tail_column


def random_banded(bandwidth: int | None, phases: int, seed: int) -> BlockGenerator:
    """Level-dependent chain with random rates up to ``bandwidth`` levels up.

    With ``bandwidth=None`` the chain jumps ``j >= 1`` levels up at rates
    ``rates(k, k+1) * 0.5**j``, which sum to ``rates(k, k+1)``, so the
    diagonal and the tail row sums have a closed form.  Downward rates
    outweigh the upward drift, so the chain is ergodic.
    """
    drift = 2 if bandwidth is None else bandwidth  # sum_j j * (rate of jump j)
    rates = _rate_table(seed, lambda k, l: (phases, phases))

    def off_level(k, l):
        if l == k - 1:
            return 2.0 * drift * rates(k, l)
        if l > k and bandwidth is None:
            return rates(k, k + 1) * 0.5 ** (l - k)
        if k < l <= k + drift:
            return rates(k, l) / (l - k)
        return np.zeros((phases, phases))

    def block(k, l):
        if l != k:
            return off_level(k, l)
        local = rates(k, k).copy()
        np.fill_diagonal(local, 0.0)
        if bandwidth is None:
            ups = [rates(k, k + 1)]
        else:
            ups = [off_level(k, j) for j in range(k + 1, k + bandwidth + 1)]
        downs = [off_level(k, k - 1)] if k else []
        out = local.sum(axis=1) + sum(b.sum(axis=1) for b in downs + ups)
        return local - np.diag(out)

    tail = _geometric_tail(rates) if bandwidth is None else None
    return BlockGenerator(lambda k: phases, block, bandwidth=bandwidth, tail_column=tail)


def random_varying(seed: int, bandwidth: int | None = None) -> BlockGenerator:
    """Chain whose level ``k`` has ``1 + k % 3`` phases.

    Row ``i`` of level ``k`` jumps ``j`` levels up, ``1 <= j <= bandwidth``
    (every ``j >= 1`` with ``bandwidth=None``), at total rate
    ``a_k[i] * 0.5**j``, spread over the target phases by random weights,
    so the upward rates sum to ``a_k[i] * (1 - 0.5**bandwidth)`` (to
    ``a_k[i]`` without a band) and the diagonal has a closed form, as have
    the tail row sums without a band.  As in ``random_banded``, the
    downward rates scale with the upward drift.
    """
    kept = 1.0 if bandwidth is None else 1.0 - 0.5**bandwidth
    # sum_j j * 0.5**j over the jumps the band allows
    drift = 2.0 if bandwidth is None else sum(j * 0.5**j for j in range(1, bandwidth + 1))

    def phases(k):
        return 1 + k % 3

    rates = _rate_table(seed, lambda k, l: (phases(k), phases(l)))

    def up_total(k):
        return rates(k, k + 1).sum(axis=1)

    def block(k, l):
        if l == k - 1:
            return 2.0 * drift * rates(k, l)
        if l > k and (bandwidth is None or l <= k + bandwidth):
            w = rates(k, l)
            return (up_total(k) * 0.5 ** (l - k) / w.sum(axis=1))[:, None] * w
        if l != k:
            return np.zeros((phases(k), phases(l)))
        local = rates(k, k).copy()
        np.fill_diagonal(local, 0.0)
        out = local.sum(axis=1) + up_total(k) * kept
        if k:
            out += block(k, k - 1).sum(axis=1)
        return local - np.diag(out)

    tail = _geometric_tail(rates) if bandwidth is None else None
    return BlockGenerator(phases, block, bandwidth=bandwidth, tail_column=tail)


def drive_to(gen: BlockGenerator, n: int, k_set=frozenset({0})):
    state = init_state(gen, k_set)
    for _ in range(n):
        state = advance(state, gen)
    return state


@pytest.fixture
def mm1():
    return make_mm1(1.0, 2.0)


@pytest.fixture
def mmc():
    return make_mmc(1.0, 1.0, 2)


@pytest.fixture
def ld_qbd():
    return make_ld_qbd_birth_death(2.0, 1.0)


@pytest.fixture
def heavy():
    return make_heavy_tail_mg1(3.0, 1.0)


@pytest.fixture
def lattice():
    return make_lattice_rw_2d(**LATTICE_RATES)


@pytest.fixture
def catalog(mm1, mmc, ld_qbd, heavy, lattice):
    return {
        "mm1": mm1,
        "mmc": mmc,
        "ld_qbd_birth_death": ld_qbd,
        "heavy_tail_mg1": heavy,
        "lattice_rw_2d": lattice,
    }
