"""Support sets, ratio-maximizing pivots, and the legacy drift rule."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bhmc import (
    BlockGenerator,
    DriftCertificate,
    EmptyCandidateSet,
    IndexOutOfRange,
    SingularBlock,
    UnsupportedInfiniteBand,
    incoming_support,
    init_state,
    make_heavy_tail_mg1,
    outgoing_support,
    select_pivot,
    select_pivot_drift,
)
from conftest import drive_to, two_phase_ldqbd


def test_incoming_support_mm1(mm1):
    for n in (0, 3, 7):
        assert incoming_support(mm1, n) == frozenset({0})


def test_incoming_support_zero_column():
    def block(k, l):
        if l == k:
            return np.array([[-2.0, 0.0], [0.0, -3.0]])
        if l == k + 1:
            return np.array([[1.0, 0.0], [2.0, 0.0]])
        if l == k - 1 and k >= 1:
            return np.array([[1.0, 0.0], [1.0, 0.0]])
        return np.zeros((2, 2))

    gen = BlockGenerator(lambda k: 2, block, bandwidth=1)
    assert incoming_support(gen, 1) == frozenset({0})


def test_incoming_support_lattice(lattice):
    # every level-2 phase receives a unit step down from level 3
    assert incoming_support(lattice, 2) == frozenset({0, 1, 2})


def test_outgoing_support_mm1(mm1):
    state = drive_to(mm1, 1)
    assert outgoing_support(state, mm1) == frozenset({0})
    with pytest.raises(IndexOutOfRange):
        outgoing_support(init_state(mm1), mm1)


def isolated_phase_gen() -> BlockGenerator:
    """Phase 1 of level >= 1 has no route down, not even through phase 0."""

    def block(k, l):
        if k == 0:
            if l == 0:
                return np.array([[-1.0]])
            if l == 1:
                return np.array([[0.5, 0.5]])
            return np.zeros((1, 2 if l >= 1 else 1))
        if l == k:
            return np.diag([-3.0, -3.0])
        if l == k + 1:
            return np.array([[1.0, 0.0], [0.0, 3.0]])
        if l == k - 1:
            down = np.zeros((2, 1 if k == 1 else 2))
            down[0, 0] = 2.0
            return down
        return np.zeros((2, 2 if l >= 1 else 1))

    return BlockGenerator(lambda k: 1 if k == 0 else 2, block, bandwidth=1)


def test_outgoing_support_excludes_structurally_isolated_phase():
    gen = isolated_phase_gen()
    state = drive_to(gen, 1)
    assert outgoing_support(state, gen) == frozenset({0})


def test_outgoing_support_full_when_all_positive():
    gen = two_phase_ldqbd()
    state = drive_to(gen, 2)
    assert outgoing_support(state, gen) == frozenset({0, 1})


def test_select_pivot_mm1_hand_values(mm1):
    state = drive_to(mm1, 2)
    sel = select_pivot(state, frozenset({0}), frozenset({0}))
    assert sel.pivot == 0
    assert sel.J_star == (0,)
    assert sel.ratio == pytest.approx(4.0 / 7.0, abs=1e-15)
    assert 0.0 < sel.ratio <= 1.0


def test_select_pivot_empty_candidates(mm1):
    state = drive_to(mm1, 2)
    with pytest.raises(EmptyCandidateSet):
        select_pivot(state, frozenset(), frozenset({0}))


def test_select_pivot_needs_u_star_K(mm1):
    state = drive_to(mm1, 2, k_set=frozenset({5}))
    with pytest.raises(IndexOutOfRange):
        select_pivot(state, frozenset({0}), frozenset({0}))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_select_pivot_non_finite_ratio_is_singular_block(mm1):
    inf = np.array([np.inf])
    state = replace(drive_to(mm1, 2), u_star=inf, u_K=inf)
    with pytest.raises(SingularBlock, match="level 2"):
        select_pivot(state, frozenset({0}), frozenset({0}))


def test_select_pivot_tie_breaks_to_smallest_index():
    # symmetric two-phase chain: both phases give identical ratios
    eye = np.eye(2)

    def block(k, l):
        if l == k:
            return np.array([[-3.5, 0.5], [0.5, -3.5]]) if k >= 1 else np.array(
                [[-1.5, 0.5], [0.5, -1.5]]
            )
        if l == k + 1:
            return eye
        if l == k - 1 and k >= 1:
            return 2.0 * eye
        return np.zeros((2, 2))

    gen = BlockGenerator(lambda k: 2, block, bandwidth=1)
    state = drive_to(gen, 3)
    sel = select_pivot(state, frozenset({0, 1}), frozenset({0, 1}))
    assert sel.J_star == (0, 1)
    assert sel.pivot == 0


def test_zero_row_consistency_outside_outgoing_support():
    """Phases outside the outgoing support carry no mass in u_star_K."""
    gen = isolated_phase_gen()
    for n in (2, 4, 6):
        state = drive_to(gen, n)
        out = outgoing_support(state, gen)
        scale = state.u_star_K.max()
        for i in set(range(2)) - out:
            assert state.u_star_K[i] <= 1e-12 * scale


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9))
@settings(max_examples=50, deadline=None)
def test_select_pivot_optimality_random_feasible(seed, n):
    """No feasible mixture beats the unit mass at the chosen pivot."""
    gen = two_phase_ldqbd()
    state = drive_to(gen, n)
    inc = incoming_support(gen, n)
    out = outgoing_support(state, gen)
    sel = select_pivot(state, inc, out)
    rng = np.random.default_rng(seed)
    for _ in range(25):
        alpha = np.zeros(2)
        support = sorted(inc)
        alpha[support] = rng.dirichlet(np.ones(len(support)))
        r = (alpha @ state.u_star_K) / (alpha @ state.u_star)
        assert r <= sel.ratio + 1e-12


def test_select_pivot_drift_mm1_hand_value(mm1):
    cert = DriftCertificate(
        v_blocks=lambda l: np.array([float(l + 1)]), b=1.0
    )
    state = drive_to(mm1, 1)
    sel = select_pivot_drift(state, mm1, cert)
    assert sel.pivot == 0
    # y_1 = v_1 + U_1* Q_{1,2} v_2 = 2 + 1*1*3 = 5, over u_1* = 3
    assert sel.objective == pytest.approx(5.0 / 3.0)


def test_select_pivot_drift_two_phase_runs():
    gen = two_phase_ldqbd()
    cert = DriftCertificate(
        v_blocks=lambda l: np.full(2, float(l + 1)), b=1.0
    )
    state = drive_to(gen, 4)
    sel = select_pivot_drift(state, gen, cert)
    assert sel.pivot in (0, 1)
    assert sel.objective > 0


def test_select_pivot_drift_refuses_infinite_band():
    gen = make_heavy_tail_mg1(3.0, 1.0)
    cert = DriftCertificate(
        v_blocks=lambda l: np.array([float(l + 1)]), b=1.0
    )
    state = drive_to(gen, 3)
    with pytest.raises(UnsupportedInfiniteBand):
        select_pivot_drift(state, gen, cert)


def test_drift_certificate_rejects_nonpositive_v():
    cert = DriftCertificate(v_blocks=lambda l: np.array([0.0]), b=1.0)
    with pytest.raises(ValueError):
        cert.v(3)
