"""First-exit recursion: frozen hand values, cross-formulas, invariants."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import given, settings, strategies as st

import oracles
from bhmc import (
    BlockGenerator,
    IndexOutOfRange,
    InvalidBlock,
    PhaseMismatch,
    SingularBlock,
    advance,
    bright_taylor,
    init_state,
    lbcl_direct,
    make_mm1,
    principal_submatrix,
    sojourn_matrix,
    sojourn_rows,
)
from bhmc import baseline, recursions
from bhmc.recursions import PIVOT_RTOL, SPLIT, lu_inverse
from bhmc.solver import _pivot_blocks
from oracles import u_star_K_direct
from conftest import (
    drive_to,
    random_banded,
    random_varying,
    two_phase_ldqbd,
    two_phase_product_qbd,
)


def test_init_state_mm1(mm1):
    state = init_state(mm1, {0})
    np.testing.assert_allclose(state.U_star, [[1.0]])
    np.testing.assert_allclose(state.u_star, [1.0])
    np.testing.assert_allclose(state.u_star_K, [1.0])
    np.testing.assert_array_equal(state.q_diag_n, [-1.0])


def test_init_state_scalar_inverse():
    def block(k, l):
        return np.array([[-4.0 if k == l else (4.0 if l == k + 1 else 0.0)]])

    gen = BlockGenerator(lambda k: 1, block, bandwidth=1)
    state = init_state(gen)
    np.testing.assert_allclose(state.U_star, [[0.25]])


def test_init_state_two_phase_adjugate_inverse():
    q00 = np.array([[-2.0, 1.0], [1.0, -3.0]])

    def block(k, l):
        if (k, l) == (0, 0):
            return q00
        if l == k + 1:
            return np.eye(2)
        if l == k - 1 and k >= 1:
            return np.eye(2)
        if l == k:
            return np.array([[-3.0, 1.0], [1.0, -4.0]])
        return np.zeros((2, 2))

    gen = BlockGenerator(lambda k: 2, block, bandwidth=1)
    state = init_state(gen)
    expected = np.array([[0.6, 0.2], [0.2, 0.4]])  # adjugate of -q00 over det 5
    np.testing.assert_allclose(state.U_star, expected, atol=1e-14)
    np.testing.assert_allclose(-q00 @ state.U_star, np.eye(2), atol=1e-14)


def test_init_state_singular_block():
    gen = BlockGenerator(lambda k: 1, lambda k, l: np.zeros((1, 1)), bandwidth=1)
    with pytest.raises(SingularBlock):
        init_state(gen)


def test_advance_mm1_hand_values(mm1):
    state = advance(init_state(mm1, {0}), mm1)
    np.testing.assert_allclose(state.U_star, [[1.0]])
    np.testing.assert_allclose(sojourn_matrix(state, mm1, 0), [[2.0]])
    np.testing.assert_allclose(state.u_star, [3.0])
    state = advance(state, mm1)
    np.testing.assert_allclose(state.U_star, [[1.0]])
    np.testing.assert_allclose(sojourn_matrix(state, mm1, 0), [[4.0]])
    np.testing.assert_allclose(sojourn_matrix(state, mm1, 1), [[2.0]])
    np.testing.assert_allclose(state.u_star, [7.0])
    # pattern u_n* = 2^(n+1) - 1
    for n in range(3, 10):
        state = advance(state, mm1)
        assert state.u_star.item() == pytest.approx(2 ** (n + 1) - 1)


def test_advance_singular_exit_matrix():
    # level 1 has no upward rate: paths can never exit above it, so the
    # level-1 exit matrix is exactly singular (2 - 2 * 1 * 1 = 0)
    def block(k, l):
        if l == k:
            return np.array([[-1.0 if k == 0 else -2.0]])
        if l == k + 1:
            return np.array([[1.0 if k == 0 else 0.0]])
        if l == k - 1 and k >= 1:
            return np.array([[2.0]])
        return np.zeros((1, 1))

    walk = BlockGenerator(lambda k: 1, block, bandwidth=1)
    state = init_state(walk)
    with pytest.raises(SingularBlock):
        advance(state, walk)


@pytest.mark.filterwarnings("error")
def test_exactly_singular_inverse_raises_singular_block_without_warning():
    # LAPACK reports the exactly zero second pivot through ``info``
    with pytest.raises(SingularBlock, match="pivot below"):
        lu_inverse(np.array([[1.0, 1.0], [1.0, 1.0]]), "rank one")
    with pytest.raises(SingularBlock, match="pivot below"):
        lu_inverse(np.array([[0.0, 0.0], [0.0, 1.0]]), "zero column")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.0])
def test_lu_inverse_non_finite_or_zero_matrix_raises_singular_block(bad):
    zero_or_bad = [np.full((m, m), bad) for m in (1, 3)] + [np.zeros((0, 0))]
    one_bad = np.eye(3)
    one_bad[1, 2] = bad
    for a in zero_or_bad + ([one_bad] if bad != 0.0 else []):
        with pytest.raises(SingularBlock, match="^entry: matrix is zero or non-finite$"):
            lu_inverse(a, "entry")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    # 1e-308 is subnormal with a finite inverse; 5e-324's overflows to inf
    "value", [1.0 / 3.0, -2.5, 1e300, -1e-300, 1e-308, 5e-324, -5e-324]
)
def test_scalar_lu_inverse_is_getrf_getri_bit_for_bit(value):
    a = np.array([[value]])
    got = lu_inverse(a, "scalar")
    assert got.dtype == np.float64 and got.shape == (1, 1) and got.flags.writeable
    assert got.tobytes() == oracles.lu_inverse_getri(a, "scalar").tobytes()


@pytest.mark.filterwarnings("error")
def test_lu_inverse_pivot_at_the_cut():
    """A pivot of ``PIVOT_RTOL * scale * (1 +- 1e-6)`` is accepted above the cut, refused below."""
    # upper triangular with its rows permuted: partial pivoting restores the
    # order, so the pivots are the diagonal and the last is set exactly
    a = np.array([[2.0, -1.0, 0.5], [0.0, 3.0, 1.0], [0.0, 0.0, 0.0]])
    scale = 4.0  # the largest absolute row sum, 3 + 1
    for factor in (1.0 + 1e-6, 1.0 - 1e-6):
        a[2, 2] = -PIVOT_RTOL * scale * factor
        permuted = a[[2, 0, 1]]
        if factor > 1.0:
            got = lu_inverse(permuted, "cut")
            assert got.tobytes() == oracles.lu_inverse_reductions(permuted, "cut").tobytes()
            np.testing.assert_allclose(got @ permuted, np.eye(3), atol=1e-9)
        else:
            with pytest.raises(SingularBlock, match="^cut: pivot below 1e-13 \\* max row norm$"):
                lu_inverse(permuted, "cut")


def _guard_outcome(fn, a: np.ndarray):
    """The inverse's bytes, or the message of the SingularBlock raised."""
    try:
        return fn(a, "case").tobytes()
    except SingularBlock as exc:
        return str(exc)


@st.composite
def guard_cases(draw):
    """Square matrices for the LU guard, many with a pivot next to the cut.

    Dense ones have rows long enough that a pairwise numpy row sum and
    LAPACK's column-order sum can round apart; some carry a NaN, an
    infinity or a zero row.  The rest are upper triangular with their rows
    permuted, so partial pivoting restores the order, the pivots are the
    diagonal, and the last is drawn within ``1e-6`` (relative) of the cut.
    """
    kind = draw(st.sampled_from(["dense", "non-finite", "zero row", "near cut", "near cut"]))
    m = draw(st.integers(1 if kind in ("dense", "non-finite") else 2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-200, 200))
    a = rng.uniform(-1.0, 1.0, (m, m)) * scale
    if kind == "non-finite":
        a[rng.integers(m), rng.integers(m)] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    elif kind == "zero row":
        a[rng.integers(m)] = 0.0
    elif kind == "near cut":
        a = np.triu(a)
        a[np.diag_indices(m)] = np.abs(a.diagonal()) + scale
        a[-1, -1] = 0.0
        cut = PIVOT_RTOL * np.abs(a).sum(axis=1).max()
        a[-1, -1] = cut * (1.0 + draw(st.floats(-1e-6, 1e-6)))
        a = a[rng.permutation(m)]
    return a


@given(guard_cases())
@settings(max_examples=300, deadline=None)
def test_lu_inverse_guard_matches_reduction_oracle(a):
    """Same inverse bits and, away from the cut, the same raise-or-accept as numpy reductions."""
    got = _guard_outcome(lu_inverse, a)
    expected = _guard_outcome(oracles.lu_inverse_reductions, a)
    if got == expected:
        return
    # only a pivot within 1e-12 (relative) of the cut may be decided apart
    assert isinstance(got, str) != isinstance(expected, str), (got, expected)
    scale = np.abs(a).sum(axis=1).max()
    lu, _, _ = scipy.linalg.lapack.dgetrf(a)
    ratio = np.abs(lu.diagonal()).min() / (PIVOT_RTOL * scale)
    assert abs(ratio - 1.0) <= 1e-12, (ratio, got, expected)


def _assert_inverts_like_getri(a: np.ndarray, got: np.ndarray) -> None:
    """Bit for bit the whole-matrix ``getri`` up to ``SPLIT`` rows, to 1e-13 relative above."""
    expected = oracles.lu_inverse_getri(a, "oracle")
    if a.shape[0] <= SPLIT:
        assert got.tobytes() == expected.tobytes(), a.shape
    else:
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max(), a.shape


def test_lu_inverse_matches_getrs_oracle():
    """Inverses like ``getrs`` on the identity and like the whole-matrix ``getri``; exact at 1x1."""
    rng = np.random.default_rng(5)
    for m in range(1, 301):
        a = rng.uniform(-1.0, 1.0, (m, m))
        a += np.diag(np.abs(a).sum(axis=1) + rng.uniform(0.1, 1.0, m))
        expected = oracles.lu_inverse_getrs(a)
        got = lu_inverse(a, "dominant")
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max(), m
        _assert_inverts_like_getri(a, got)
    # the scalar-phase chains' digests rest on bit-identical 1x1 inverses
    for value in [*rng.uniform(-10.0, 10.0, 200), 3.0, -1.0 / 3.0, 1e-300, -7e299]:
        a = np.array([[value]])
        assert lu_inverse(a, "scalar").tobytes() == oracles.lu_inverse_getrs(a).tobytes()


def test_lu_inverse_by_halves_matches_getri_oracle_on_m_matrices(monkeypatch, lattice):
    """The nonsingular M-matrices a lattice solve and its R recursion invert at levels 60..200.

    They have 61 to 201 phases, so most are inverted by halves.
    """
    captured = {}

    def spy(matrix, what):
        captured[what] = matrix
        return lu_inverse(matrix, what)

    monkeypatch.setattr(recursions, "lu_inverse", spy)
    monkeypatch.setattr(baseline, "lu_inverse", spy)
    drive_to(lattice, 200)
    bright_taylor(lattice, 200)
    monkeypatch.undo()
    for k in range(60, 201):
        for what in (f"level {k} exit matrix", f"R recursion at level {k}"):
            a = captured[what]
            _assert_inverts_like_getri(a, lu_inverse(a, what))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m", [2, 7, 60, 65, 130, 257])
def test_nearly_singular_inverse_raises_singular_block(m):
    rng = np.random.default_rng(m)
    a = rng.uniform(0.0, 1.0, (m, m))
    a[-1] = a[:-1].sum(axis=0)
    with pytest.raises(SingularBlock, match="pivot below"):
        lu_inverse(a, "dependent rows")
    a[-1, -1] += 1e-15
    with pytest.raises(SingularBlock, match="pivot below"):
        lu_inverse(a, "nearly dependent rows")


@pytest.mark.filterwarnings("error")
def test_tiny_pivot_late_in_second_leaf_raises_singular_block():
    """Every pivot of every leaf meets the cut, not just the first leaf's or the first one."""
    m = 100  # leaves a[:50, :50] and, as a is upper triangular, a[50:, 50:]
    assert m > SPLIT >= m // 2
    a = np.triu(np.full((m, m), -0.01))
    np.fill_diagonal(a, 1.0)
    np.testing.assert_allclose(lu_inverse(a, "whole") @ a, np.eye(m), atol=1e-12)
    a[m - 10, m - 10] = 1e-20  # the 41st pivot of the second leaf
    with pytest.raises(SingularBlock, match="^late: pivot below 1e-13 \\* max row norm$"):
        lu_inverse(a, "late")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "u_star, u_K, match",
    [
        (1e308, 1.0, "u_star overflowed at level 3"),
        (np.nan, 1.0, "u_star overflowed at level 3"),
        (1.0, np.inf, "u_star overflowed at level 3"),
        (-5.0, 1.0, "positivity of u_star lost at level 3"),
        (1.0, -1.0, "positivity of u_star_K lost at level 3"),
    ],
)
def test_advance_health_test_names_each_loss(u_star, u_K, match):
    """Hand-built level-2 row sums that fail each of advance's checks, without a numpy warning."""
    gen = make_mm1(1.0, 2.0)
    state = replace(drive_to(gen, 2), u_star=np.array([u_star]), u_K=np.array([u_K]))
    with pytest.raises(SingularBlock, match=match):
        advance(state, gen)


_HEALTH_VALUES = [np.nan, np.inf, -np.inf, 0.0, -0.0, -1e-300, 1e-300, 1.0, 2.5, 1e307, -1.0]


@given(
    st.lists(st.sampled_from(_HEALTH_VALUES), min_size=2, max_size=2),
    st.lists(st.sampled_from(_HEALTH_VALUES), min_size=2, max_size=2),
)
@settings(max_examples=200, deadline=None)
def test_advance_health_test_matches_reduction_oracle(u_star, u_K):
    """Pass or the same raise as the test written with numpy's min and max reductions."""
    gen = two_phase_product_qbd()
    state = replace(drive_to(gen, 2), u_star=np.array(u_star), u_K=np.array(u_K))
    want = oracles.advance_health_reductions(state, gen)
    try:
        advance(state, gen)
    except SingularBlock as exc:
        assert str(exc) == want
    else:
        assert want is None


def test_u_star_K_recursive_equals_direct(mm1):
    state = drive_to(mm1, 2)
    np.testing.assert_allclose(state.u_star_K, [4.0])
    np.testing.assert_allclose(u_star_K_direct(state, mm1), state.u_star_K)


def test_u_star_K_full_index_set_is_u_star(mm1):
    n = 6
    state = drive_to(mm1, n, k_set=frozenset(range(n + 1)))
    np.testing.assert_allclose(u_star_K_direct(state, mm1), state.u_star)
    np.testing.assert_allclose(state.u_star_K, state.u_star, rtol=1e-12)


def test_u_star_K_before_max_K_raises(mm1):
    state = drive_to(mm1, 2, k_set=frozenset({4}))
    assert state.u_star_K is None
    with pytest.raises(IndexOutOfRange):
        u_star_K_direct(state, mm1)


def test_sojourn_matrix_accessors(mm1):
    state = drive_to(mm1, 2)
    np.testing.assert_array_equal(sojourn_matrix(state, mm1, 2), state.U_star)
    np.testing.assert_allclose(sojourn_matrix(state, mm1, 0), [[4.0]])
    with pytest.raises(IndexOutOfRange):
        sojourn_matrix(state, mm1, 3)
    with pytest.raises(IndexOutOfRange):
        sojourn_matrix(state, mm1, -1)
    with pytest.raises(PhaseMismatch, match=r"shape \(2,\), but level 2 has 1 phases"):
        sojourn_rows(state, mm1, np.ones(2))
    with pytest.raises(PhaseMismatch, match=r"shape \(1, 1\)"):
        sojourn_rows(state, mm1, np.ones((1, 1)))


def test_family_nonnegative_and_u_star_consistency():
    gen = two_phase_ldqbd()
    state = init_state(gen, {0, 1})
    for _ in range(12):
        state = advance(state, gen)
        assert np.all(np.diag(state.U_star) > 0.0)
        family = [sojourn_matrix(state, gen, k) for k in range(state.n + 1)]
        for f in family:
            assert f.min() >= -1e-14
        total = sum(f.sum(axis=1) for f in family)
        np.testing.assert_allclose(total, state.u_star, rtol=1e-10)
        if state.u_star_K is not None:
            assert np.all(state.u_star_K <= state.u_star + 1e-12)
            np.testing.assert_allclose(
                state.u_star_K, u_star_K_direct(state, gen), rtol=1e-10
            )


def test_alternative_product_formula():
    """Family entries equal U_star times the descending one-step products."""
    gen = two_phase_ldqbd()
    state = init_state(gen)
    u_stars = [state.U_star]
    for n in range(1, 9):
        state = advance(state, gen)
        u_stars.append(state.U_star)
        for k in range(n + 1):
            prod = np.eye(2)
            for m in range(n - 1, k - 1, -1):
                prod = prod @ (gen.block_array(m + 1, m) @ u_stars[m])
            expected = state.U_star @ prod
            np.testing.assert_allclose(
                sojourn_matrix(state, gen, k),
                expected,
                rtol=1e-10,
                atol=1e-12 * max(1.0, expected.max()),
            )


def test_stationary_identity_against_deep_reference():
    """pi_l matches pi_n times the descending products, per the deep oracle."""
    gen = two_phase_ldqbd()
    n, depth = 8, 60
    ref = lbcl_direct(gen, depth, np.array([0.5, 0.5]))
    blocks = [ref[2 * k : 2 * k + 2] for k in range(depth + 1)]
    state = init_state(gen)
    u_stars = [state.U_star]
    for _ in range(n):
        state = advance(state, gen)
        u_stars.append(state.U_star)
    for l in range(n):
        prod = np.eye(2)
        for m in range(n - 1, l - 1, -1):
            prod = prod @ (gen.block_array(m + 1, m) @ u_stars[m])
        np.testing.assert_allclose(blocks[n] @ prod, blocks[l], rtol=1e-6)


def test_heavy_tail_uses_full_history(heavy):
    # with an infinite band the exit correction reaches every retained level,
    # read as one block column through the provider's callback ...
    state = drive_to(heavy, 25)
    columns = []

    def column_blocks(j, lo, hi):
        columns.append((j, lo, hi))
        return heavy.column_blocks(j, lo, hi)

    spied = replace(heavy, column_blocks=column_blocks)
    assert advance(state, spied).u_star.item() > 0
    assert columns == [(26, 0, 25)]

    # ... or block by block when the provider has no column callback
    fetched = []

    def block(k, l):
        fetched.append((k, l))
        return heavy.block(k, l)

    plain = replace(heavy, block=block, column_blocks=None)
    assert advance(state, plain).u_star.item() > 0
    assert {k for k, l in fetched if l == 26} == set(range(27))


def test_column_shape_mismatch_is_invalid_block(heavy):
    state = drive_to(heavy, 4)
    short = replace(heavy, column_blocks=lambda j, lo, hi: np.zeros((hi - lo, 1)))
    with pytest.raises(InvalidBlock, match=r"block column 5 over levels 0\.\.4"):
        advance(state, short)


def test_wide_update_leaves_earlier_states_valid(heavy):
    for gen in (heavy, random_banded(2, 2, seed=7)):
        state = drive_to(gen, 10)
        before = [sojourn_matrix(state, gen, k).copy() for k in range(11)]
        advance(advance(state, gen), gen)
        for k in range(11):
            np.testing.assert_array_equal(sojourn_matrix(state, gen, k), before[k])
        if gen.bandwidth is None:
            assert state.factors is None


def test_wide_update_matches_concatenated_family():
    gen = random_banded(None, 2, seed=13)
    state = init_state(gen)
    for n in range(1, 12):
        before = state.W.copy()
        new = advance(state, gen)
        step = new.U_star @ gen.block_array(n, n - 1)
        want = np.concatenate([step @ state.W, new.U_star], axis=1)
        assert new.W.tobytes() == want.tobytes(), n
        assert state.W.tobytes() == before.tobytes(), n
        state = new


def test_finite_band_update_reads_one_down_product(lattice):
    """``W`` and the new step factor come from ``block(n+1, n) @ W``, computed once."""
    for gen in (lattice, random_banded(2, 2, seed=7), random_banded(3, 3, seed=11)):
        state = init_state(gen)
        for n in range(1, 12):
            before = state.W.copy()
            new = advance(state, gen)
            down = gen.block_array(n, n - 1) @ state.W
            # level n - b leaves the window: it does not reach column n + 1
            cut = gen.phase_count(n - gen.bandwidth) if n >= gen.bandwidth else 0
            u1 = new.U_star.copy()
            want = np.concatenate([u1 @ down[:, cut:], u1], axis=1)
            assert new.W.tobytes() == want.tobytes(), (gen.bandwidth, n)
            factor = new.factors[0]
            assert factor.tobytes() == down[:, -state.W.shape[0] :].tobytes(), (gen.bandwidth, n)
            assert factor.base is None and new.factors[1] is state.factors
            assert state.W.tobytes() == before.tobytes(), (gen.bandwidth, n)
            state = new


@pytest.mark.parametrize("bandwidth", [None, 1, 2, 3])
def test_advance_reads_the_window_of_the_checked_walk(bandwidth):
    """For each column ``n + 1``, ``advance`` reads the levels ``principal_submatrix`` reads below it."""
    for base in (random_banded(bandwidth, 2, seed=5), random_varying(23, bandwidth)):
        reads = []

        def column_blocks(j, lo, hi):
            reads.append((j, lo, hi))
            return np.concatenate([base.block_array(l, j) for l in range(lo, hi + 1)])

        gen = replace(base, column_blocks=column_blocks)
        principal_submatrix(gen, 10)
        walk = {j: range(lo, j) for j, lo, _ in reads}
        reads.clear()
        state = init_state(gen)
        for _ in range(9):  # levels 0..8 step to columns 1..9
            state = advance(state, gen)
        stepped = {j: range(lo, hi + 1) for j, lo, hi in reads}
        assert stepped == {j: walk[j] for j in range(1, 10)}, bandwidth


def _family_chains(catalog):
    """The catalog plus multi-phase, banded and infinite-band test chains."""
    return dict(
        catalog,
        two_phase_ldqbd=two_phase_ldqbd(),
        two_phase_product_qbd=two_phase_product_qbd(),
        band2=random_banded(2, 2, seed=7),
        band3=random_banded(3, 3, seed=11),
        band_inf=random_banded(None, 2, seed=13),
        band_inf_varying=random_varying(seed=17),
        band3_varying=random_varying(seed=19, bandwidth=3),
    )


def test_product_form_matches_family_oracle(catalog):
    """Window slices, lower products, pivot blocks and sweeps equal the whole-family recursion."""
    gens = _family_chains(catalog)
    k_set = frozenset({0, 2})
    rng = np.random.default_rng(3)

    def close(a, b):
        return np.abs(a - b).max() <= 1e-13 * max(1.0, np.abs(b).max())

    for name, gen in gens.items():
        state = init_state(gen, k_set)
        for n in range(13):
            if n:
                state = advance(state, gen)
            family, u_star, u_star_K = oracles.family_blocks(gen, n, k_set)
            for k in range(n + 1):
                assert close(sojourn_matrix(state, gen, k), family[k]), (name, n, k)
            assert close(state.u_star, u_star), (name, n)
            if n >= max(k_set):
                assert close(state.u_star_K, u_star_K), (name, n)
            for p in range(u_star.shape[0]):
                blocks = _pivot_blocks(state, gen, p)
                for k in range(n + 1):
                    assert close(blocks[k], family[k][p] / u_star[p]), (name, n, p, k)
            seed = rng.uniform(0.1, 1.0, u_star.shape[0])
            seed /= seed @ u_star
            rows = sojourn_rows(state, gen, seed)
            for k in range(n + 1):
                assert close(rows[k], seed @ family[k]), (name, n, k)


def test_recursion_error_against_mp_reference(catalog):
    """The float64 family and ``u_star`` are within ``4 eps u_star.max()`` of 40 digits.

    The error of each member, relative to the largest entry of the family,
    grows with the expected sojourn times; on these chains it stays below
    1.7 ``eps * u_star.max()`` at every level up to 12.
    """
    eps = np.finfo(float).eps
    for name, gen in _family_chains(catalog).items():
        state = init_state(gen)
        for n in range(13):
            if n:
                state = advance(state, gen)
            family, u_star = oracles.family_blocks_mp(gen, n)
            bound = 4.0 * eps * u_star.max()
            scale = max(np.abs(f).max() for f in family)
            for k in range(n + 1):
                err = np.abs(sojourn_matrix(state, gen, k) - family[k]).max()
                assert err <= bound * scale, (name, n, k, err / scale)
            err = np.abs(state.u_star - u_star).max()
            assert err <= bound * u_star.max(), (name, n, err / u_star.max())
