"""Reference solvers: direct solve, R-matrix recursion, sparse null vector."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse

import oracles
from bhmc import (
    BlockGenerator,
    IndexOutOfRange,
    InvalidBlock,
    NotQbd,
    SingularBlock,
    SolverOptions,
    baseline,
    bright_taylor,
    brute_force_stationary,
    lbcl_augment,
    lbcl_direct,
    make_heavy_tail_mg1,
    make_lattice_rw_2d,
    make_mm1,
    principal_submatrix,
    sojourn_matrix,
    solve_mip,
    tv_distance,
)
from conftest import (
    LATTICE_RATES,
    drive_to,
    random_banded,
    two_phase_ldqbd,
    two_phase_product_qbd,
)


def test_lbcl_direct_mm1_hand_values(mm1):
    pi = lbcl_direct(mm1, 2, np.array([1.0]))
    np.testing.assert_allclose(pi, [4.0 / 7.0, 2.0 / 7.0, 1.0 / 7.0], atol=1e-15)


def test_lbcl_direct_single_level(mm1):
    np.testing.assert_array_equal(lbcl_direct(mm1, 0, np.array([1.0])), [1.0])


def test_lbcl_direct_properties(lattice):
    pi = lbcl_direct(lattice, 9, np.full(10, 0.1))
    assert pi.min() >= -1e-15
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)


def test_brute_force_two_state_balance():
    pi = brute_force_stationary(np.array([[-1.0, 1.0], [2.0, -2.0]]))
    np.testing.assert_allclose(pi, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)


def test_brute_force_single_state():
    np.testing.assert_array_equal(brute_force_stationary(np.array([[0.0]])), [1.0])


def test_brute_force_rejects_non_square():
    with pytest.raises(InvalidBlock):
        brute_force_stationary(np.zeros((2, 3)))
    with pytest.raises(InvalidBlock, match="square"):
        brute_force_stationary(scipy.sparse.csr_array(np.ones((2, 3))))
    with pytest.raises(InvalidBlock, match="square"):
        brute_force_stationary(np.zeros((0, 0)))


def test_brute_force_detects_reducible():
    # two absorbing states: the reduced system is singular
    q = np.zeros((2, 2))
    with pytest.raises(SingularBlock):
        brute_force_stationary(q)


# (generator, depth) pairs for the sparse-vs-dense differential tests
def differential_cases(catalog):
    depths = {
        "mm1": 60,
        "mmc": 40,
        "ld_qbd_birth_death": 12,
        "heavy_tail_mg1": 50,
        "lattice_rw_2d": 15,
    }
    cases = [(name, gen, depths[name]) for name, gen in catalog.items()]
    cases += [
        ("two_phase_ldqbd", two_phase_ldqbd(), 30),
        ("two_phase_product_qbd", two_phase_product_qbd(), 30),
    ]
    cases += [
        (f"random_banded({b})", random_banded(b, 3, seed=11), 25)
        for b in (1, 2, 3, None)
    ]
    return cases


def test_lbcl_direct_matches_dense_oracle(catalog):
    rng = np.random.default_rng(5)
    for name, gen, n in differential_cases(catalog):
        alpha = rng.uniform(0.1, 1.0, gen.phase_count(n))
        alpha /= alpha.sum()
        sparse = lbcl_direct(gen, n, alpha)
        dense = oracles.lbcl_direct_dense(gen, n, alpha)
        assert tv_distance(sparse, dense) < 1e-13, name


@pytest.mark.parametrize(
    "seed, n",
    [(1, 64), (1, 100), (1, 150), (1, 200), (524, 57), (524, 120), (524, 150), (524, 200)],
)
def test_lbcl_direct_deep_truncations_match_dense_oracle(seed, n):
    # splu's smallest pivot here is below 1e-13 of the largest row norm,
    # yet the answer is accurate: lbcl_direct checks the answer, not the
    # pivots.  At seed 524 and n >= 120, row swaps for size met an exact
    # zero pivot; the diagonal pivots of the M-matrix -Q_n do not.
    gen = random_banded(2, 1, seed)
    one = np.array([1.0])
    assert tv_distance(lbcl_direct(gen, n, one), oracles.lbcl_direct_dense(gen, n, one)) < 1e-13


@pytest.mark.parametrize(
    "bound, message",
    [("BACKWARD_RTOL", "relative backward error"), ("NEGATIVE_RTOL", "is negative beyond")],
)
def test_lbcl_direct_checks_its_answer(monkeypatch, bound, message):
    # at level 200 the vector has an entry of -1.2e-15, below a zero bound
    monkeypatch.setattr(baseline, bound, 0.0)
    with pytest.raises(SingularBlock, match=f"^augmented truncation at level 200: .*{message}"):
        lbcl_direct(random_banded(None, 1, 25), 200, np.array([1.0]))


def test_brute_force_same_for_dense_and_sparse_input(catalog):
    rng = np.random.default_rng(6)
    for name, gen, n in differential_cases(catalog):
        alpha = rng.uniform(0.1, 1.0, gen.phase_count(n))
        alpha /= alpha.sum()
        q = lbcl_augment(principal_submatrix(gen, n), alpha)
        assert scipy.sparse.issparse(q)
        from_sparse = brute_force_stationary(q)
        from_dense = brute_force_stationary(q.toarray())
        assert np.abs(from_sparse - from_dense).max() < 1e-13, name
        # the augmented generator's stationary law is lbcl_direct's vector
        dense_lbcl = oracles.lbcl_direct_dense(gen, n, alpha)
        assert tv_distance(from_sparse, dense_lbcl) < 1e-13, name


REDUCIBLE_3 = np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])


@pytest.mark.parametrize(
    "q",
    [REDUCIBLE_3, scipy.sparse.csr_array(REDUCIBLE_3), scipy.sparse.coo_matrix(REDUCIBLE_3)],
    ids=["dense", "csr_array", "coo_matrix"],
)
def test_brute_force_reducible_is_singular_block(q):
    # a closed class {0, 1} and an absorbing state 2: no unique stationary law
    with pytest.raises(SingularBlock, match="singular"):
        brute_force_stationary(q)


def test_brute_force_nearly_reducible_trips_pivot_guard():
    # two closed pairs coupled at rate 1e-15: LU succeeds, with a tiny pivot
    eps = 1e-15
    q = np.array(
        [
            [-1.0, 1.0, 0.0, 0.0],
            [1.0, -1.0 - eps, eps, 0.0],
            [0.0, eps, -1.0 - eps, 1.0],
            [0.0, 0.0, 1.0, -1.0],
        ]
    )
    for given in (q, scipy.sparse.csr_array(q)):
        with pytest.raises(SingularBlock, match="pivot below"):
            brute_force_stationary(given)


def test_principal_submatrix_negative_level_is_index_error(mm1):
    with pytest.raises(IndexOutOfRange):
        principal_submatrix(mm1, -1)


def _spoiled_mm1(at, value):
    base = make_mm1(1.0, 2.0)
    return replace(base, block=lambda k, l: np.array([[value]]) if (k, l) == at else base.block(k, l))


@pytest.mark.parametrize(
    "at, value, message",
    [
        ((3, 4), -0.5, r"^block\(3,4\) has a negative entry$"),
        ((2, 2), np.nan, r"^block\(2,2\) contains non-finite entries$"),
    ],
)
def test_baselines_refuse_bad_blocks(at, value, message):
    gen, n, alpha = _spoiled_mm1(at, value), 6, np.array([1.0])
    with pytest.raises(InvalidBlock, match=message):
        lbcl_direct(gen, n, alpha)
    with pytest.raises(InvalidBlock, match=message):
        brute_force_stationary(lbcl_augment(principal_submatrix(gen, n), alpha))


def test_brute_force_agrees_with_lbcl_direct(mmc):
    n = 12
    alpha = np.array([1.0])
    direct = lbcl_direct(mmc, n, alpha)
    dense = brute_force_stationary(lbcl_augment(principal_submatrix(mmc, n), alpha))
    assert tv_distance(direct, dense) < 1e-12


def test_bright_taylor_mm1_fixed_point(mm1):
    result = bright_taylor(mm1, K_star=60)
    # scalar rate matrix: minimal root of 2R^2 - 3R + 1, i.e. 0.5, not 1
    assert abs(result.R[0].item() - 0.5) < 1e-10
    assert all(r.item() <= 0.5 + 1e-12 for r in result.R)
    pi = result.flatten()
    geo = oracles.geometric_pi(1.0, 2.0, 60)
    assert np.abs(pi[:21] - geo[:21]).max() < 1e-8


def test_bright_taylor_burn_in_sharpens_tail(mm1):
    plain = bright_taylor(mm1, K_star=20)
    burned = bright_taylor(mm1, K_star=20, tail_levels=40)
    # with burn-in, R_20 is already converged; without, it is zero-initialized
    assert abs(burned.R[-1].item() - 0.5) < 1e-10
    assert abs(plain.R[-1].item() - 0.5) > 1e-3


def test_bright_taylor_without_a_tail_has_no_tail_mass(mm1):
    result = bright_taylor(mm1, K_star=20)
    assert result.tail_mass == 0.0
    assert len(result.blocks) == 21 and len(result.R) == 20


@pytest.mark.parametrize(
    "make, K_star, tail_levels",
    [(lambda: make_lattice_rw_2d(**LATTICE_RATES), 20, 40), (lambda: make_mm1(0.95, 1.0), 100, 200)],
    ids=["lattice", "mm1"],
)
def test_bright_taylor_tail_mass_is_the_mass_of_the_levels_it_keeps_no_blocks_for(
    make, K_star, tail_levels
):
    gen = make()
    got = bright_taylor(gen, K_star, tail_levels)
    blocks, tail = oracles.bright_taylor_kept(gen, K_star, tail_levels)
    assert len(got.blocks) == K_star + 1 and len(got.R) == K_star
    assert abs(got.tail_mass - tail) <= 1e-14 * tail
    assert max(np.abs(a - b).max() for a, b in zip(got.blocks, blocks, strict=True)) <= 1e-14
    assert abs(sum(b.sum() for b in got.blocks) + got.tail_mass - 1.0) <= 1e-14


def test_bright_taylor_tail_levels_keep_no_matrix():
    # keeping R_3..R_152 of the lattice (k x (k+1) phases) would take 9.8 MB
    lattice, K_star, top = make_lattice_rw_2d(**LATTICE_RATES), 2, 152
    kept = sum(8 * k * (k + 1) for k in range(K_star + 1, top + 1))
    tracemalloc.start()
    try:
        bright_taylor(lattice, K_star, top - K_star)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the recursion's working set at the top level: a few 152 x 153 matrices
    assert peak < 0.2 * kept, (peak, kept)


@pytest.mark.parametrize("K_star, tail_levels", [(0, 3), (3, 0)], ids=["tail", "blocks"])
def test_bright_taylor_refuses_a_mass_past_double_range(K_star, tail_levels):
    # R_k = 1e200 at every level (no way down), so the mass of level 2 is 1e400
    def block(k, l):
        return np.array([[1e200 if l == k + 1 else -1.0 if l == k else 0.0]])

    gen = BlockGenerator(lambda k: 1, block, 1)
    assert bright_taylor(gen, 0, 1).tail_mass == 1.0  # 1e200 / (1 + 1e200) in doubles
    with pytest.raises(SingularBlock, match=r"^R recursion: the mass of levels 0\.\.3 is not finite$"):
        bright_taylor(gen, K_star, tail_levels)


def test_bright_taylor_refuses_infinite_band():
    with pytest.raises(NotQbd):
        bright_taylor(make_heavy_tail_mg1(3.0, 1.0), K_star=10)


@pytest.mark.parametrize("K_star, level", [(3, 3), (5, 5), (1, 1)])
def test_bright_taylor_names_the_level_whose_inverse_overflows(K_star, level):
    # the core -block(k, k) = [[3e-310]] inverts to inf at the top level k;
    # the next core only fails on the non-finite R_k, and at K_star = 1 no
    # core follows it at all
    with pytest.raises(SingularBlock, match=rf"^R recursion at level {level}: R_{level} is not"):
        bright_taylor(make_mm1(1e-310, 2e-310), K_star)


def test_bright_taylor_reraises_a_failed_core_whose_r_is_finite():
    # level 3 has no transitions: R_4 is zero and finite, the level-3 core is zero
    mm1 = make_mm1(1.0, 2.0)
    dead = BlockGenerator(lambda k: 1, lambda k, l: mm1.block(k, l) * (k != 3), 1)
    match = r"^R recursion at level 3: matrix is zero or non-finite$"
    with pytest.raises(SingularBlock, match=match):
        bright_taylor(dead, 5)


def test_bright_taylor_matches_mip_on_two_phase():
    gen = two_phase_ldqbd()
    approx = solve_mip(gen, SolverOptions(epsilon=1e-9))
    result = bright_taylor(gen, K_star=3 * approx.n)
    assert tv_distance(result.flatten(), approx.flatten()) < 1e-8


def test_oracle_triangle_matched_alpha(catalog):
    """Three independent routes agree at matched level and direction."""
    from bhmc.lfp import incoming_support, outgoing_support, select_pivot

    depths = {
        "mm1": 20,
        "mmc": 20,
        "ld_qbd_birth_death": 10,
        "heavy_tail_mg1": 40,
        "lattice_rw_2d": 10,
    }
    for name, gen in catalog.items():
        n = depths[name]
        state = drive_to(gen, n)
        sel = select_pivot(
            state, incoming_support(gen, n), outgoing_support(state, gen)
        )
        recursion = np.concatenate(
            [
                sojourn_matrix(state, gen, k)[sel.pivot, :] / state.u_star[sel.pivot]
                for k in range(n + 1)
            ]
        )
        alpha = np.eye(gen.phase_count(n))[sel.pivot]
        direct = lbcl_direct(gen, n, alpha)
        dense = brute_force_stationary(
            lbcl_augment(principal_submatrix(gen, n), alpha)
        )
        assert tv_distance(recursion, direct) < 1e-10, name
        assert tv_distance(recursion, dense) < 1e-10, name
        assert tv_distance(direct, dense) < 1e-10, name


def test_deep_truncation_reference_error_decreases(mm1):
    """Approximation error vs a deep reference shrinks monotonically in n."""
    deep = lbcl_direct(mm1, 120, np.array([1.0]))
    errors = []
    for n in range(4, 17, 3):
        state = drive_to(mm1, n)
        from bhmc.lfp import incoming_support, outgoing_support, select_pivot

        sel = select_pivot(
            state, incoming_support(mm1, n), outgoing_support(state, mm1)
        )
        approx = np.concatenate(
            [
                sojourn_matrix(state, mm1, k)[sel.pivot, :] / state.u_star[sel.pivot]
                for k in range(n + 1)
            ]
        )
        errors.append(tv_distance(approx, deep))
    assert all(a > b for a, b in zip(errors, errors[1:]))
