"""Catalog model construction, stability guards, and oracle agreement."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from bhmc import (
    BadRates,
    ConfigError,
    SolverOptions,
    UnstableModel,
    build_model,
    make_heavy_tail_mg1,
    make_lattice_rw_2d,
    make_ld_qbd_birth_death,
    make_mm1,
    make_mmc,
    solve_mip,
    tv_distance,
    validate_proper_q,
)
from conftest import LATTICE_RATES


def test_mm1_blocks(mm1):
    np.testing.assert_array_equal(mm1.block(0, 0), [[-1.0]])
    np.testing.assert_array_equal(mm1.block(4, 4), [[-3.0]])
    np.testing.assert_array_equal(mm1.block(4, 5), [[1.0]])
    np.testing.assert_array_equal(mm1.block(4, 3), [[2.0]])
    np.testing.assert_array_equal(mm1.block(3, 1), [[0.0]])  # outside band


def test_mm1_unstable_and_bad_rates():
    with pytest.raises(UnstableModel):
        make_mm1(2.0, 2.0)
    with pytest.raises(BadRates):
        make_mm1(-1.0, 2.0)


def test_mm1_matches_geometric_oracle(mm1):
    approx = solve_mip(mm1, SolverOptions(epsilon=1e-9))
    pi = oracles.geometric_pi(1.0, 2.0, approx.n)
    assert tv_distance(approx.flatten(), pi) < 1e-8


def test_mmc_death_rates(mmc):
    assert mmc.block(1, 0).item() == 1.0
    assert mmc.block(2, 1).item() == 2.0
    assert mmc.block(5, 4).item() == 2.0  # min(k, c) rule caps at c


def test_mmc_unstable():
    with pytest.raises(UnstableModel):
        make_mmc(3.0, 1.0, 2)


@pytest.mark.parametrize("c", [2.5, float("inf"), float("nan"), 0, -3.0])
def test_mmc_server_count_must_be_a_positive_integer(c):
    # int(c) would solve a 2-server queue for c = 2.5 and raise a bare
    # OverflowError or ValueError for an infinite or NaN count
    with pytest.raises(BadRates, match=rf"server count must be an integer >= 1, got {c!r}"):
        make_mmc(1.0, 1.0, c)


def test_mmc_integral_float_server_count(mmc):
    assert np.array_equal(make_mmc(1.0, 1.0, 2.0).block(5, 4), mmc.block(5, 4))


def test_mmc_matches_erlang_oracle(mmc):
    approx = solve_mip(mmc, SolverOptions(epsilon=1e-9))
    pi = oracles.mmc_pi(1.0, 1.0, 2, approx.n)
    assert tv_distance(approx.flatten(), pi) < 1e-8


def test_ld_qbd_matches_poisson_oracle(ld_qbd):
    approx = solve_mip(ld_qbd, SolverOptions(epsilon=1e-9))
    pi = oracles.poisson_pi(2.0, 1.0, approx.n)
    assert tv_distance(approx.flatten(), pi) < 1e-8


def test_heavy_tail_closed_form_sums():
    gen = make_heavy_tail_mg1(3.0, 1.0)
    N = 4000
    up = np.array([gen.block(1, 1 + j).item() for j in range(1, N + 1)])
    # partial sums match the telescoped limits 1/4 and 1/2 minus exact tails
    assert up.sum() == pytest.approx(0.25 - 0.5 / ((N + 1) * (N + 2)), abs=1e-12)
    weighted = (np.arange(1, N + 1) * up).sum()
    assert weighted == pytest.approx(0.5 - 1.0 / (N + 2), abs=1e-12)
    assert gen.block(1, 1).item() == pytest.approx(-13.0 / 4.0)
    assert gen.block(0, 0).item() == pytest.approx(3.0 - 13.0 / 4.0)


def test_heavy_tail_column_blocks_match_block(heavy):
    for j, lo, hi in [(0, 0, 0), (0, 0, 3), (1, 0, 4), (26, 0, 25), (40, 5, 45), (7, 9, 12)]:
        stacked = np.concatenate([heavy.block(l, j) for l in range(lo, hi + 1)])
        np.testing.assert_array_equal(heavy.column_blocks(j, lo, hi), stacked)


def test_heavy_tail_quadratic_decay_over_decades():
    # pi_k ~ c / k^2: the doubling ratio (2k)^2 pi_2k / (k^2 pi_k) tends to 1
    approx = solve_mip(make_heavy_tail_mg1(3.0, 1.0), SolverOptions(epsilon=1e-8))
    assert approx.converged and approx.n >= 3200
    pi = approx.flatten()
    ks = [100, 200, 400, 800, 1600]
    gaps = [abs((2 * k) ** 2 * pi[2 * k] / (k**2 * pi[k]) - 1.0) for k in ks]
    assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps
    assert all(g <= 0.01 for k, g in zip(ks, gaps) if k >= 800), gaps


def test_heavy_tail_drift_guard():
    with pytest.raises(UnstableModel):
        make_heavy_tail_mg1(0.4, 1.0)  # 0.4 < tail_c / 2


def test_heavy_tail_jump_rates_strictly_decreasing():
    gen = make_heavy_tail_mg1(3.0, 1.0)
    rates = [gen.block(2, 2 + j).item() for j in range(1, 30)]
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_heavy_tail_tail_column_matches_partial_sums(heavy):
    # tail_column(L) - tail_column(L + 200) is a finite sum of blocks, with no truncation
    for L, lo, hi in [(0, 0, 0), (5, 0, 5), (12, 3, 9), (40, 40, 40)]:
        tail, far = heavy.tail_column(L, lo, hi), heavy.tail_column(L + 200, lo, hi)
        assert tail.shape == (hi - lo + 1,)
        for l in range(lo, hi + 1):
            between = sum(heavy.block(l, m).item() for m in range(L + 1, L + 201))
            assert tail[l - lo] - far[l - lo] == pytest.approx(between, rel=1e-12)
    # a whole upward tail is tail_c / 4, the rate the diagonal pays for it
    assert heavy.tail_column(2, 2, 2).item() == pytest.approx(0.25)
    assert heavy.tail_column(2, 2, 2).item() == -heavy.block(2, 2).item() - heavy.block(2, 1).item()


def test_lattice_phase_counts_and_shapes(lattice):
    assert lattice.phase_count(3) == 4
    for k, l in [(2, 3), (3, 2), (3, 3), (0, 1)]:
        assert lattice.block(k, l).shape == (k + 1, l + 1)


def test_lattice_unit_step_mapping(lattice):
    # (x=1, y=1) sits at level 2, phase 1; the +x step lands at level 3, phase 2
    up = lattice.block(2, 3)
    assert up[1, 2] == LATTICE_RATES["east"]
    assert up[1, 1] == LATTICE_RATES["north"]


def test_lattice_blocks_equal_loop_oracle():
    """Closed-form blocks are bit-identical to the move-by-move loop.

    All eight rates differ, and the three diagonal sums round differently
    under any other summation order, so a wall rate read in the wrong place
    or a reordered sum shows up.
    """
    rates = dict(
        east=1.0 / 3.0, west=0.7, north=0.2, south=3.0 / 11.0,
        east_wall=2.3, west_wall=0.3, north_wall=1.7, south_wall=1.1,
    )
    gen = make_lattice_rw_2d(**rates)
    for k in range(61):
        for l in range(max(k - 2, -1), k + 3):
            got, expected = gen.block(k, l), oracles.lattice_block_loop(k, l, rates)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), (k, l)
    assert validate_proper_q(gen, 60).ok


def test_lattice_bad_rates():
    with pytest.raises(BadRates):
        make_lattice_rw_2d(1.0, 0.0, 1.0, 3.0)


def test_lattice_matches_grid_oracle(lattice):
    approx = solve_mip(lattice, SolverOptions(epsilon=1e-8))
    grid = oracles.lattice_grid_pi(LATTICE_RATES, 40)
    assert tv_distance(approx.flatten(), grid) < 1e-6


def test_lattice_wall_rates_change_boundary_blocks():
    gen = make_lattice_rw_2d(
        1.0, 3.0, 1.0, 3.0, east_wall=0.5, south_wall=4.0, west_wall=2.5, north_wall=0.75
    )
    up = gen.block(1, 2)
    assert up[0, 1] == 0.5  # x = 0: east uses the wall rate
    assert up[1, 1] == 0.75  # y = 0: north uses the wall rate
    down = gen.block(2, 1)
    assert down[0, 0] == 4.0  # (0, 2): south along the x = 0 wall
    assert down[2, 1] == 2.5  # (2, 0): west along the y = 0 wall
    assert validate_proper_q(gen, 10).ok


def test_every_catalog_model_validates(catalog):
    for name, gen in catalog.items():
        report = validate_proper_q(gen, 20, tol=1e-12)
        assert report.ok, f"{name}: {report.violations[:3]}"


def test_build_model_dispatch():
    gen = build_model("mm1", {"lam": 1.0, "mu": 2.0})
    assert gen.block(0, 0).item() == -1.0
    with pytest.raises(ConfigError):
        build_model("nope", {})
    with pytest.raises(ConfigError):
        build_model("mm1", {"lam": 1.0, "mu": 2.0, "extra": 1.0})


@given(
    lam=st.floats(0.1, 1.0),
    over=st.floats(1.1, 4.0),
    n=st.integers(1, 12),
)
@settings(max_examples=40, deadline=None)
def test_mm1_blocks_always_conservative(lam, over, n):
    gen = make_mm1(lam, lam * over)
    row = sum(gen.block(n, l).item() for l in range(max(0, n - 1), n + 2))
    assert row == pytest.approx(0.0, abs=1e-12)
