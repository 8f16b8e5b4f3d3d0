"""Support sets, ratio-maximizing pivots, and the legacy drift rule."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from bhmc import (
    BlockGenerator,
    DriftCertificate,
    EmptyCandidateSet,
    IndexOutOfRange,
    NonpositiveWeight,
    PhaseMismatch,
    SingularBlock,
    UnsupportedInfiniteBand,
    incoming_support,
    init_state,
    make_heavy_tail_mg1,
    outgoing_support,
    select_pivot,
    select_pivot_drift,
    sojourn_matrix,
    solve_mip_drift,
)
from bhmc.lfp import TAU_REL
from bhmc.recursions import RecursionState
from conftest import drive_to, random_banded, two_phase_ldqbd


def _members(mask: np.ndarray) -> frozenset[int]:
    """The phases a boolean support mask holds, as the set-by-set oracles list them."""
    assert mask.dtype == bool and mask.ndim == 1
    return frozenset(np.flatnonzero(mask).tolist())


def _mask(m: int, phases) -> np.ndarray:
    """Boolean mask over ``m`` phases holding ``phases``."""
    mask = np.zeros(m, dtype=bool)
    mask[list(phases)] = True
    return mask


def test_incoming_support_mm1(mm1):
    for n in (0, 3, 7):
        inc = incoming_support(mm1, n)
        assert _members(inc) == oracles.incoming_support_loop(mm1, n) == frozenset({0})


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
    inc = incoming_support(gen, 1)
    assert _members(inc) == oracles.incoming_support_loop(gen, 1) == frozenset({0})


def test_incoming_support_lattice(lattice):
    # every level-2 phase receives a unit step down from level 3
    inc = incoming_support(lattice, 2)
    assert _members(inc) == oracles.incoming_support_loop(lattice, 2) == frozenset({0, 1, 2})


def test_outgoing_support_mm1(mm1):
    state = drive_to(mm1, 1)
    out = outgoing_support(state, mm1)
    assert _members(out) == oracles.outgoing_support_loop(state, mm1) == frozenset({0})
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
    out = outgoing_support(state, gen)
    assert _members(out) == oracles.outgoing_support_loop(state, gen) == frozenset({0})


def test_outgoing_support_full_when_all_positive():
    gen = two_phase_ldqbd()
    state = drive_to(gen, 2)
    out = outgoing_support(state, gen)
    assert _members(out) == oracles.outgoing_support_loop(state, gen) == frozenset({0, 1})


def test_select_pivot_mm1_hand_values(mm1):
    state = drive_to(mm1, 2)
    sel = select_pivot(state, _mask(1, {0}), _mask(1, {0}))
    assert sel.pivot == 0
    assert sel.J_star.tolist() == [0]
    assert sel.ratio == pytest.approx(4.0 / 7.0, abs=1e-15)
    assert 0.0 < sel.ratio <= 1.0


def _flat_state(u_star, u_K) -> RecursionState:
    """A level-3 state whose occupancy ratios are ``u_K / u_star``."""
    m = len(u_star)
    return RecursionState(
        n=3, W=np.eye(m), factors=None, u_star=np.array(u_star),
        u_K=np.array(u_K), K_set=frozenset({0}), q_diag_n=-np.ones(m),
    )


def test_select_pivot_empty_candidates(mm1):
    state = drive_to(mm1, 2)
    with pytest.raises(EmptyCandidateSet):
        select_pivot(state, _mask(1, ()), _mask(1, {0}))
    state = _flat_state([1.0, 2.0], [0.5, 1.0])
    with pytest.raises(EmptyCandidateSet, match="no candidate phase at level 3"):
        select_pivot(state, _mask(2, {0}), _mask(2, {1}))
    with pytest.raises(EmptyCandidateSet, match="all candidate ratios vanish at level 3"):
        select_pivot(_flat_state([1.0, 2.0], [0.0, 0.0]), _mask(2, {0, 1}), _mask(2, {0, 1}))


def test_select_pivot_needs_u_star_K(mm1):
    state = drive_to(mm1, 2, k_set=frozenset({5}))
    with pytest.raises(IndexOutOfRange):
        select_pivot(state, _mask(1, {0}), _mask(1, {0}))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_select_pivot_non_finite_ratio_is_singular_block(mm1):
    inf = np.array([np.inf])
    state = replace(drive_to(mm1, 2), u_star=inf, u_K=inf)
    with pytest.raises(SingularBlock, match="level 2"):
        select_pivot(state, _mask(1, {0}), _mask(1, {0}))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 1])
def test_select_pivot_any_non_finite_candidate_ratio_is_singular_block(bad, where):
    """One NaN or infinite ratio raises, whether or not it is the largest."""
    u_K = [0.5, 0.25]
    u_K[where] = bad
    state = _flat_state([1.0, 2.0], u_K)
    both = _mask(2, {0, 1})
    with pytest.raises(SingularBlock, match="non-finite occupancy ratio at level 3"):
        select_pivot(state, both, both)
    # outside the candidates it is never read
    sel = select_pivot(state, both, _mask(2, {1 - where}))
    assert sel.pivot == 1 - where


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
    sel = select_pivot(state, _mask(2, {0, 1}), _mask(2, {0, 1}))
    assert sel.J_star.tolist() == [0, 1]
    assert sel.pivot == 0


def test_zero_row_consistency_outside_outgoing_support():
    """Phases outside the outgoing support carry no mass in u_star_K."""
    gen = isolated_phase_gen()
    for n in (2, 4, 6):
        state = drive_to(gen, n)
        out = outgoing_support(state, gen)
        assert _members(out) == oracles.outgoing_support_loop(state, gen)
        scale = state.u_star_K.max()
        for i in np.flatnonzero(~out):
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
        support = np.flatnonzero(inc)
        alpha[support] = rng.dirichlet(np.ones(len(support)))
        r = (alpha @ state.u_star_K) / (alpha @ state.u_star)
        assert r <= sel.ratio + 1e-12


def _outcome(fn, *args):
    """What ``fn`` selects, as sets, or the class and message of what it raises.

    The masks and the index array of ``select_pivot`` are read as the sets
    and the tuple that the set-by-set oracle keeps.
    """
    try:
        sel = fn(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc).__name__, str(exc)
    fields = [sel.I_plus, sel.O_plus, sel.J_star]
    if isinstance(sel.J_star, np.ndarray):
        fields = [_members(sel.I_plus), _members(sel.O_plus), tuple(sel.J_star.tolist())]
    return repr((*fields, sel.pivot, sel.ratio))


@st.composite
def selection_cases(draw):
    """A level-3 state and its two support blocks, crowded with ties at the TAU_REL cut.

    The ratios are drawn from the best ratio, its cut ``best * (1 - TAU_REL)``
    and a few ulps to either side of both, and ``u_star`` from a short pool,
    so exact ties and ties one rounding apart are common.  ``U_star`` is the
    identity and ``block(3, 2)`` has one nonzero column, so the outgoing
    weights are the drawn values exactly, again placed around the cut.
    """
    m = draw(st.integers(1, 6))
    best = draw(st.floats(1e-6, 1.0))
    cut = best * (1.0 - TAU_REL)
    near = [best, cut, *np.nextafter([best, cut], 0.0), *np.nextafter([best, cut], 2.0)]
    ratios = draw(st.lists(st.sampled_from(near + [0.5 * best, 0.0]), min_size=m, max_size=m))
    u_star = draw(st.lists(st.sampled_from([1.0, 0.7, 3.0, 12.5]), min_size=m, max_size=m))
    u_star = np.array(u_star)
    state = RecursionState(
        n=3, W=np.eye(m), factors=None, u_star=u_star,
        u_K=np.array(ratios) * u_star, K_set=frozenset({0}), q_diag_n=-np.ones(m),
    )
    top = draw(st.floats(1e-3, 1e3))
    tail = top * TAU_REL
    weights = [top, tail, *np.nextafter([tail, top], 0.0), *np.nextafter([tail, top], 2.0), 0.0]
    down = np.zeros((m, m))
    down[:, 0] = draw(st.lists(st.sampled_from(weights), min_size=m, max_size=m))
    up = np.array(draw(st.lists(st.sampled_from([0.0, 5e-324, 0.25, 1.0]), min_size=m * m,
                                max_size=m * m))).reshape(m, m)
    blocks = {(3, 2): down, (4, 3): up}
    gen = BlockGenerator(lambda k: m, lambda k, l: blocks.get((k, l), np.zeros((m, m))),
                         bandwidth=1)
    subsets = st.frozensets(st.integers(0, m - 1))
    return gen, state, draw(subsets), draw(subsets)


@given(selection_cases())
@settings(max_examples=300, deadline=None)
def test_array_selection_matches_set_oracle(case):
    """Supports and pivots equal the set-by-set reference bit for bit, errors included."""
    gen, state, I, O = case
    m = state.u_star.size
    inc = incoming_support(gen, 3)
    out = outgoing_support(state, gen)
    assert _members(inc) == oracles.incoming_support_loop(gen, 3)
    assert _members(out) == oracles.outgoing_support_loop(state, gen)
    for pair in ((_members(inc), _members(out)), (I, O), (I, frozenset(range(m)))):
        got = _outcome(select_pivot, state, *(_mask(m, s) for s in pair))
        assert got == _outcome(oracles.select_pivot_loop, state, *pair)


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


@pytest.mark.parametrize("bandwidth, n", [(1, 5), (2, 1), (3, 7)])
def test_select_pivot_drift_matches_blockwise_sum(bandwidth, n):
    """The objective equals v_n + sum_k sojourn(k) @ sum_l block(k, l) @ v_l, block by block."""
    gen = random_banded(bandwidth, 2, 3)
    cert = DriftCertificate(lambda l: np.array([1.0 + l, 2.0 + 0.5 * l]), b=1.0)
    state = drive_to(gen, n)
    y = cert.v(n, 2).copy()
    for k in range(max(0, n - bandwidth + 1), n + 1):
        for l in range(n + 1, k + bandwidth + 1):
            y += sojourn_matrix(state, gen, k) @ gen.block(k, l) @ cert.v(l, 2)
    objective = y / state.u_star
    sel = select_pivot_drift(state, gen, cert)
    assert sel.pivot == int(np.argmin(objective))
    assert sel.objective == pytest.approx(objective.min(), rel=1e-13)


def test_drift_vector_of_wrong_length_is_phase_mismatch(mm1):
    """The length is checked before the signs."""
    cert = DriftCertificate(lambda l: np.array([-1.0, 2.0]), b=1.0)
    with pytest.raises(PhaseMismatch, match=r"drift vector at level 1 has length 2, expected 1"):
        solve_mip_drift(mm1, cert)


def test_select_pivot_drift_refuses_infinite_band():
    gen = make_heavy_tail_mg1(3.0, 1.0)
    cert = DriftCertificate(
        v_blocks=lambda l: np.array([float(l + 1)]), b=1.0
    )
    state = drive_to(gen, 3)
    with pytest.raises(UnsupportedInfiniteBand):
        select_pivot_drift(state, gen, cert)


@pytest.mark.parametrize(
    "vec, ok",
    [
        ([], True),
        ([1.0, 2.0], True),
        ([5e-324], True),
        ([np.nan], False),
        ([1.0, np.nan], False),
        ([1.0, np.inf], False),
        ([-np.inf, 1.0], False),
        ([0.0], False),
        ([-0.0], False),
        ([1.0, -1e-300], False),
    ],
)
def test_drift_certificate_v_decisions(vec, ok):
    """Every entry must lie in (0, inf); an empty vector is left to the length check."""
    cert = DriftCertificate(lambda l: np.array(vec, dtype=float), b=1.0)
    if ok:
        np.testing.assert_array_equal(cert.v(2, len(vec)), vec)
    else:
        with pytest.raises(NonpositiveWeight, match="drift vector at level 2"):
            cert.v(2, len(vec))


def test_non_numeric_drift_vector_is_nonpositive_weight(mm1):
    cert = DriftCertificate(lambda l: "x", 1.0)
    with pytest.raises(NonpositiveWeight, match=r"^drift vector at level 1 is not numeric: could"):
        solve_mip_drift(mm1, cert)


def test_select_pivot_drift_on_a_nan_objective_is_singular_block(mm1):
    """A NaN objective leaves no tie; it is named at its level, as ``select_pivot`` names NaN."""
    cert = DriftCertificate(lambda l: np.array([float(l + 1)]), b=1.0)
    state = replace(drive_to(mm1, 2), u_star=np.array([np.nan]))
    with pytest.raises(SingularBlock, match=r"^drift objective nan at level 2; "):
        select_pivot_drift(state, mm1, cert)


def test_drift_certificate_rejects_nonpositive_v():
    cert = DriftCertificate(v_blocks=lambda l: np.array([0.0]), b=1.0)
    with pytest.raises(ValueError):
        cert.v(3, 1)
