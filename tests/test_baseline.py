"""Reference solvers: direct solve, R-matrix recursion, dense null vector."""

import numpy as np
import pytest

import oracles
from bhmc import (
    InvalidBlock,
    NotQbd,
    SingularBlock,
    SolverOptions,
    bright_taylor,
    brute_force_stationary,
    lbcl_augment,
    lbcl_direct,
    make_heavy_tail_mg1,
    principal_submatrix,
    sojourn_matrix,
    solve_mip,
    tv_distance,
)
from conftest import drive_to, two_phase_ldqbd


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


def test_brute_force_detects_reducible():
    # two absorbing states: the reduced system is singular
    q = np.zeros((2, 2))
    with pytest.raises(SingularBlock):
        brute_force_stationary(q)


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


def test_bright_taylor_refuses_infinite_band():
    with pytest.raises(NotQbd):
        bright_taylor(make_heavy_tail_mg1(3.0, 1.0), K_star=10)


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
                sojourn_matrix(state, k)[sel.pivot, :] / state.u_star[sel.pivot]
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
                sojourn_matrix(state, k)[sel.pivot, :] / state.u_star[sel.pivot]
                for k in range(n + 1)
            ]
        )
        errors.append(tv_distance(approx, deep))
    assert all(a > b for a, b in zip(errors, errors[1:]))
