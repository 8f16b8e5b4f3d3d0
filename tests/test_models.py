"""Catalog model construction, stability guards, and oracle agreement."""

from dataclasses import replace

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
from conftest import LATTICE_RATES, tandem


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
    """Every range ``lo..hi`` up to 45, of every column ``j`` up to 47, bit for bit.

    The grid holds ``j = 0``, ranges wholly above the down entry
    (``lo > j + 1``) and wholly in the up jumps (``hi < j - 1``), and
    ranges holding the diagonal ``j`` and the down entry ``j + 1``.
    """
    for j in range(48):
        column = np.concatenate([heavy.block(l, j) for l in range(46)])
        for lo in range(46):
            for hi in range(lo, 46):
                got = heavy.column_blocks(j, lo, hi)
                assert got.shape == (hi - lo + 1, 1), (j, lo, hi)
                assert got.tobytes() == column[lo : hi + 1].tobytes(), (j, lo, hi)


# columns around the kernel's growth from 64 to 128 to 256 entries, and one
# that needs 2048 at once
GROWTH_COLUMNS = (63, 64, 65, 128, 129, 1025)


def _growth_ranges(j: int):
    """Ranges ``lo..hi`` of column ``j``: ``lo`` at both ends, ``hi`` below, at and above ``j``."""
    for lo in (0, 1, j - 1, j, j + 1):
        for hi in (j - 2, j - 1, j, j + 1, j + 5):
            if lo <= hi:
                yield lo, hi


@pytest.mark.parametrize("fresh", [True, False], ids=["fresh", "growing"])
def test_heavy_tail_column_blocks_across_kernel_growth(fresh):
    """Each growth column, read first by a fresh generator or in order by one, bit for bit."""
    mu, tail_c = 3.0, 1.0
    oracle = oracles.heavy_tail_column_sliced(mu, tail_c)
    heavy = make_heavy_tail_mg1(mu, tail_c)
    for j in GROWTH_COLUMNS:
        if fresh:
            heavy = make_heavy_tail_mg1(mu, tail_c)
        column = np.concatenate([heavy.block(l, j) for l in range(j + 6)])
        for lo, hi in _growth_ranges(j):
            got = heavy.column_blocks(j, lo, hi)
            assert got.shape == (hi - lo + 1, 1), (j, lo, hi)
            assert got.tobytes() == column[lo : hi + 1].tobytes(), (j, lo, hi)
            assert got.tobytes() == oracle(j, lo, hi).tobytes(), (j, lo, hi)


def test_heavy_tail_columns_are_read_only(heavy):
    want = oracles.heavy_tail_column_sliced(3.0, 1.0)
    with pytest.raises(ValueError, match="read-only"):
        heavy.column_blocks(70, 0, 69)[0, 0] = 1.0  # up jumps only: a view of the kernel
    heavy.column_blocks(70, 3, 71)[0, 0] = 1.0  # with the diagonal: the caller's copy
    for j, lo, hi in [(70, 0, 69), (70, 3, 71), (71, 0, 70), (300, 0, 299)]:
        assert heavy.column_blocks(j, lo, hi).tobytes() == want(j, lo, hi).tobytes()


# (generator, a block key at levels 5 and 9 whose block does not change
# with the level); mmc(1, 1, 2) has every server busy from level 2 on
SHARED_BLOCKS = [
    (make_mm1(1.0, 2.0), lambda k: (k, k)),
    (make_mm1(1.0, 2.0), lambda k: (k, k - 1)),
    (make_mm1(1.0, 2.0), lambda k: (k, k + 1)),
    (make_mm1(1.0, 2.0), lambda k: (k, k + 3)),
    (make_mmc(1.0, 1.0, 2), lambda k: (k, k)),
    (make_mmc(1.0, 1.0, 2), lambda k: (k, k - 1)),
    (make_ld_qbd_birth_death(2.0, 1.0), lambda k: (k, k + 1)),
    (make_ld_qbd_birth_death(2.0, 1.0), lambda k: (k, k - 2)),
    (make_heavy_tail_mg1(3.0, 1.0), lambda k: (k, k)),
    (make_heavy_tail_mg1(3.0, 1.0), lambda k: (k, k - 1)),
    (make_heavy_tail_mg1(3.0, 1.0), lambda k: (k, k - 4)),
]


@pytest.mark.parametrize("gen, key", SHARED_BLOCKS)
def test_level_independent_catalog_blocks_are_shared_and_read_only(gen, key):
    b = gen.block(*key(5))
    assert gen.block(*key(9)) is b
    with pytest.raises(ValueError, match="read-only"):
        b[0, 0] = 1.0


def test_level_dependent_catalog_blocks_stay_fresh():
    """Each call builds a block that changes with the level, so no cache grows with it."""
    mmc, ld_qbd = make_mmc(1.0, 1.0, 5), make_ld_qbd_birth_death(2.0, 1.0)
    heavy = make_heavy_tail_mg1(3.0, 1.0)
    for gen, k, l in [(mmc, 3, 3), (mmc, 3, 2), (ld_qbd, 4, 4), (ld_qbd, 4, 3), (heavy, 2, 7)]:
        b = gen.block(k, l)
        assert b.flags.writeable and gen.block(k, l) is not b


def test_heavy_tail_generators_share_no_kernel():
    small, large = make_heavy_tail_mg1(3.0, 1.0), make_heavy_tail_mg1(3.0, 2.0)
    small.column_blocks(100, 0, 99)
    large.column_blocks(500, 0, 499)  # grows its own kernel past the other's
    for gen, tail_c in ((small, 1.0), (large, 2.0)):
        want = oracles.heavy_tail_column_sliced(3.0, tail_c)
        for j in (100, 500):
            assert gen.column_blocks(j, 0, j - 1).tobytes() == want(j, 0, j - 1).tobytes()


def test_heavy_tail_solve_same_with_sliced_columns(heavy):
    sliced = replace(heavy, column_blocks=oracles.heavy_tail_column_sliced(3.0, 1.0))
    opts = SolverOptions(epsilon=1e-7)
    got, want = solve_mip(heavy, opts), solve_mip(sliced, opts)
    assert got.n == want.n > 1024  # past two growths of the kernel
    assert b"".join(b.tobytes() for b in got.blocks) == b"".join(
        b.tobytes() for b in want.blocks
    )
    assert repr(got.pivot_trace) == repr(want.pivot_trace)


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


def test_lattice_product_law_agrees_with_grid_oracle():
    grid = oracles.lattice_grid_pi(LATTICE_RATES, 40)
    law = oracles.lattice_product_pi(LATTICE_RATES, 78)
    assert tv_distance(grid, law) < 1e-13


@pytest.mark.parametrize("eps", [1e-8, 1e-14])
def test_lattice_error_to_its_product_law(lattice, eps):
    """L1 distance of the solve to the exact law, the law's mass above the stop included."""
    approx = solve_mip(lattice, SolverOptions(epsilon=eps))
    law = oracles.lattice_product_pi(LATTICE_RATES, approx.n)
    error = tv_distance(approx.flatten(), law) + (1.0 - law.sum())
    # measured: 19.8 eps at n = 18 and 21.4 eps at n = 32, far above the
    # law's mass above n (0.06 and 0.02 of the error): augmentation error
    assert error < 30 * eps


def test_tandem_validates():
    assert validate_proper_q(tandem(1.0, 2.0, 3.0), 20).ok


@pytest.mark.parametrize(
    "rates, eps, bound",
    [
        # measured: 6.18e-7 at n = 25 and 4.64e-14 at n = 46
        ((1.0, 2.0, 3.0), 1e-8, 1e-6),
        ((1.0, 2.0, 3.0), 1e-14, 7e-14),
        # measured: 6.94e-7 at n = 73 and 7.97e-13 at n = 142
        ((1.0, 1.5, 1.25), 1e-8, 1e-6),
        ((1.0, 1.5, 1.25), 1e-14, 1.2e-12),
    ],
)
def test_tandem_error_to_its_jackson_law(rates, eps, bound):
    """L1 distance to the product law, the law's mass above the stop included.

    The chain moves inside a level (a node-1 service), which no catalog
    chain with growing phases does.  At eps 1e-8 the error is 60-70 eps and
    the law's mass above ``n`` is 0.05-0.2 of it: augmentation error, as on
    the lattice.
    """
    approx = solve_mip(tandem(*rates), SolverOptions(epsilon=eps))
    assert approx.converged
    law = oracles.tandem_pi(*rates, approx.n)
    assert tv_distance(approx.flatten(), law) + (1.0 - law.sum()) < bound


@pytest.mark.parametrize("eps", [1e-6, 1e-7])
def test_heavy_tail_error_is_twice_the_law_mass_above_the_stop(eps):
    """The answer is the exact law conditioned on levels 0..n.

    Its L1 error is then the law's mass above ``n`` twice over: once
    missing above ``n``, once spread over the levels kept.
    """
    approx = solve_mip(make_heavy_tail_mg1(1.0, 1.0), SolverOptions(epsilon=eps))
    pi = oracles.heavy_tail_pi(1.0, 1.0, approx.n)
    above = 1.0 - pi.sum()
    error = tv_distance(approx.flatten(), pi) + above
    assert error == pytest.approx(2.0 * above, rel=0.01)


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
    # a params that is no mapping: dict() raises TypeError or ValueError
    for params in (5, "lam", ["lam"]):
        with pytest.raises(ConfigError, match="bad parameters for mm1"):
            build_model("mm1", params)


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
