"""Drivers, residuals, stopping, schedules, block reads, and distance utilities."""

import gc
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from oracles import drift_blockwise, residual_q_norm_direct
from bhmc import solver
from bhmc import (
    Approximation,
    BadDistribution,
    BlockGenerator,
    CheckpointSchedule,
    ConfigError,
    DriftCertificate,
    FixedDirection,
    IndexOutOfRange,
    PhaseMismatch,
    SingularBlock,
    SolverOptions,
    UnsupportedInfiniteBand,
    bright_taylor,
    lbcl_direct,
    make_heavy_tail_mg1,
    make_ld_qbd_birth_death,
    make_mm1,
    principal_submatrix,
    residual_q_norm,
    solve,
    solve_fixed_direction,
    solve_mip,
    solve_mip_drift,
    sojourn_matrix,
    tv_distance,
    validate_proper_q,
)
from conftest import (
    QBD_VARPI,
    drive_to,
    random_banded,
    tandem,
    two_phase_ldqbd,
    two_phase_product_qbd,
)

MM1_CERT = DriftCertificate(
    v_blocks=lambda l: np.array([float(l + 1)]), b=1.0
)


# ---------------------------------------------------------------- options


def test_options_validation():
    with pytest.raises(ConfigError):
        SolverOptions(epsilon=1.5)
    with pytest.raises(ConfigError):
        SolverOptions(epsilon=0.0)
    with pytest.raises(ConfigError):
        SolverOptions(K_set=frozenset())
    with pytest.raises(ConfigError):
        SolverOptions(K_set=frozenset({-1}))
    with pytest.raises(ConfigError):
        SolverOptions(max_level=0)
    with pytest.raises(ConfigError):
        SolverOptions(
            K_set=frozenset({3}),
            checkpoint_schedule=CheckpointSchedule(kind="explicit", levels=(1, 5)),
        )


def test_schedule_validation_and_iteration():
    with pytest.raises(ConfigError):
        CheckpointSchedule(kind="bogus")
    with pytest.raises(ConfigError):
        CheckpointSchedule(kind="arithmetic", stride=0)
    with pytest.raises(ConfigError):
        CheckpointSchedule(kind="geometric", factor=1.0)
    with pytest.raises(ConfigError):
        CheckpointSchedule(kind="explicit", levels=(3, 3))
    it = CheckpointSchedule(kind="arithmetic", stride=4).iterate(2)
    assert [next(it) for _ in range(3)] == [2, 6, 10]
    it = CheckpointSchedule(kind="geometric", factor=1.5).iterate(1)
    assert [next(it) for _ in range(5)] == [1, 2, 3, 5, 8]
    it = CheckpointSchedule(kind="explicit", levels=(2, 9)).iterate(0)
    assert list(it) == [2, 9]
    # from the third level on, factor * n is past double range
    it = CheckpointSchedule(kind="geometric", factor=1e300).iterate(1)
    levels = [next(it) for _ in range(4)]
    assert levels[1] > 1e299 and levels == sorted(set(levels))


# ---------------------------------------------------------------- residuals


def test_residual_closed_form_pattern(mm1):
    state = drive_to(mm1, 1)
    assert residual_q_norm(state, 0) == pytest.approx(1.0 / 9.0, abs=1e-16)
    state = drive_to(mm1, 2)
    assert residual_q_norm(state, 0) == pytest.approx(1.0 / 21.0, abs=1e-16)
    values = []
    for n in range(1, 12):
        state = drive_to(mm1, n)
        values.append(residual_q_norm(state, 0))
        assert values[-1] == pytest.approx(1.0 / (3.0 * (2 ** (n + 1) - 1)))
    assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "u_star, q, match",
    [
        (np.inf, -1.0, "residual underflowed at level 2"),
        (np.nan, -1.0, "residual underflowed at level 2"),
        (1.0, 0.0, r"undefined at level 2: phase 0 has \|q\(n, j; n, j\)\| \* u_star\(j\) = 0"),
        (0.0, -1.0, "residual undefined at level 2"),
    ],
)
def test_residual_q_norm_refuses_a_residual_it_cannot_represent(mm1, u_star, q, match):
    state = replace(drive_to(mm1, 2), u_star=np.array([u_star]), q_diag_n=np.array([q]))
    with pytest.raises(SingularBlock, match=match):
        residual_q_norm(state, 0)


def test_residual_direct_matches_closed_form(mm1):
    for n in (1, 2):
        state = drive_to(mm1, n)
        blocks = tuple(
            sojourn_matrix(state, mm1, k)[0, :] / state.u_star[0] for k in range(n + 1)
        )
        approx = Approximation(n, blocks, (), 0.0, True, "mip_new")
        direct = residual_q_norm_direct(mm1, approx)
        closed = residual_q_norm(state, 0)
        assert abs(direct - closed) <= 1e-14 * closed


def test_residual_identity_every_checkpoint_all_models(catalog):
    """Closed form vs direct assembly at every checkpoint of moderate runs.

    Tolerances keep the checkpoint residuals above the direct route's
    absolute rounding floor of about 1e-16.
    """
    eps = {
        "mm1": 1e-7,
        "mmc": 1e-5,
        "ld_qbd_birth_death": 5e-4,
        "heavy_tail_mg1": 3e-4,
        "lattice_rw_2d": 1e-3,
    }
    from bhmc.solver import _pivot_blocks, _select_at
    from bhmc.recursions import advance, init_state

    for name, gen in catalog.items():
        state = init_state(gen, {0})
        while True:
            state = advance(state, gen)
            sel = _select_at(state, gen)
            closed = residual_q_norm(state, sel.pivot)
            approx = Approximation(
                state.n, _pivot_blocks(state, gen, sel.pivot), (), closed, True, "mip_new"
            )
            direct = residual_q_norm_direct(gen, approx)
            assert 0.0 < closed <= 1.0, name
            assert abs(direct - closed) / closed <= 1e-12, (name, state.n)
            if closed < eps[name]:
                break


def test_sign_facts_of_truncated_residual(mmc):
    from bhmc.generator import principal_submatrix

    approx = solve_mip(mmc, SolverOptions(epsilon=1e-6))
    sub = principal_submatrix(mmc, approx.n)
    resid = approx.flatten() @ sub.data.toarray()
    assert np.all(resid <= 1e-12)
    assert np.abs(resid).max() > 0.0


# ---------------------------------------------------------------- solve_mip


def test_solve_mip_geometric(mm1):
    approx = solve_mip(mm1, SolverOptions(epsilon=1e-10))
    assert approx.converged and approx.variant == "mip_new"
    assert approx.residual < 1e-10
    pi = oracles.geometric_pi(1.0, 2.0, approx.n)
    assert tv_distance(approx.flatten(), pi) <= 1e-9
    assert approx.flatten().sum() == pytest.approx(1.0, abs=1e-12)
    assert approx.flatten().min() >= 0.0


def test_solve_mip_blocks_are_conditional_on_scalar_birth_death(catalog):
    """The augmentation is exact for scalar birth-death chains at every level."""
    cases = {
        "mm1": oracles.geometric_pi(1.0, 2.0, 60),
        "mmc": oracles.mmc_pi(1.0, 1.0, 2, 60),
        "ld_qbd_birth_death": oracles.poisson_pi(2.0, 1.0, 60),
    }
    for name, pi in cases.items():
        gen = catalog[name]
        for n in (1, 3, 7, 11, 16):
            sched = CheckpointSchedule(kind="explicit", levels=(n,))
            approx = solve_mip(
                gen,
                SolverOptions(epsilon=1e-3, checkpoint_schedule=sched, max_level=n),
            )
            assert approx.n == n
            cond = oracles.conditional(pi, n)
            assert tv_distance(approx.flatten(), cond) < 1e-12, (name, n)


@pytest.mark.parametrize("lam", [28.0, 40.0])
def test_solve_mip_high_load_infinite_server(lam):
    """Level 0 carries mass e^-lam: the best K_set = {0} ratio is tiny but positive."""
    gen = make_ld_qbd_birth_death(lam, 1.0)
    approx = solve_mip(gen, SolverOptions(epsilon=1e-14))
    assert approx.converged
    cond = oracles.conditional(oracles.poisson_pi(lam, 1.0, approx.n), approx.n)
    assert tv_distance(approx.flatten(), cond) < 1e-12


def test_solve_mip_overflow_is_singular_block():
    # u_star = 2^(n+1) - 1 leaves double range at level 1023, before the
    # residual can reach epsilon
    sched = CheckpointSchedule(kind="arithmetic", stride=100)
    opts = SolverOptions(epsilon=1e-310, checkpoint_schedule=sched)
    with pytest.raises(SingularBlock, match="level 1023"):
        solve_mip(make_mm1(1.0, 2.0), opts)


def test_solve_mip_not_converged_returns_cap_approximation(mm1):
    approx = solve_mip(mm1, SolverOptions(epsilon=1e-10, max_level=5))
    assert not approx.converged
    assert approx.n == 5
    assert approx.flatten().sum() == pytest.approx(1.0, abs=1e-12)
    assert approx.pivot_trace[-1].level == 5


def test_solve_mip_respects_explicit_schedule(mm1):
    # residual at level 4 is 1/93 > 1e-3; at level 8 it is 1/1533 < 1e-3
    sched = CheckpointSchedule(kind="explicit", levels=(4, 8))
    approx = solve_mip(mm1, SolverOptions(epsilon=1e-3, checkpoint_schedule=sched))
    assert [r.level for r in approx.pivot_trace] == [4, 8]
    assert approx.n == 8 and approx.converged


def test_explicit_schedule_stops_at_its_last_level(mm1):
    # the residual at level 3 is 1/45, far above epsilon; the run must not
    # go on towards max_level, where u_star overflows at level 1023
    sched = CheckpointSchedule(kind="explicit", levels=(3,))
    opts = SolverOptions(epsilon=1e-12, checkpoint_schedule=sched, max_level=3000)
    for approx in (
        solve_mip(mm1, opts),
        solve_fixed_direction(mm1, FixedDirection(np.array([1.0])), opts),
    ):
        assert approx.n == 3 and not approx.converged
        assert [r.level for r in approx.pivot_trace] == [3]
        assert approx.flatten().sum() == pytest.approx(1.0, abs=1e-12)


def test_solve_dispatch(mm1):
    a = solve(mm1, SolverOptions(epsilon=1e-6), "mip_new")
    assert a.converged
    with pytest.raises(ConfigError):
        solve(mm1, SolverOptions(), "mip_drift")
    with pytest.raises(ConfigError):
        solve(mm1, SolverOptions(), "fixed_direction")
    with pytest.raises(ConfigError, match="unknown variant"):
        solve(mm1, SolverOptions(), "mip")


def test_residual_decreases_below_any_tried_epsilon(catalog):
    """Residuals at checkpoints eventually undercut every tolerance tried.

    Banded catalog models are pushed to 1e-8.  The heavy-tailed model's
    residual decays only quadratically in the level, so driving it to
    1e-8 needs ~30k levels: there we assert strict decrease and 1e-5.
    """
    targets = {
        "mm1": 1e-8,
        "mmc": 1e-8,
        "ld_qbd_birth_death": 1e-8,
        "lattice_rw_2d": 1e-8,
        "heavy_tail_mg1": 1e-5,
    }
    for name, gen in catalog.items():
        approx = solve_mip(gen, SolverOptions(epsilon=targets[name], max_level=2000))
        assert approx.converged, name
        residuals = [r.residual for r in approx.pivot_trace]
        assert residuals[-1] < targets[name]
        if name == "heavy_tail_mg1":
            assert all(a > b for a, b in zip(residuals, residuals[1:]))


# ---------------------------------------------------------------- drift path


def test_solve_mip_drift_agrees_with_primary(mm1):
    sched = CheckpointSchedule(kind="arithmetic", stride=5)
    opts = SolverOptions(epsilon=1e-6, checkpoint_schedule=sched)
    legacy = solve_mip_drift(mm1, MM1_CERT, opts)
    primary = solve_mip(mm1, opts)
    assert legacy.converged and legacy.variant == "mip_drift"
    assert tv_distance(legacy.flatten(), primary.flatten()) < 2e-6
    pi = oracles.geometric_pi(1.0, 2.0, legacy.n)
    assert tv_distance(legacy.flatten(), pi) < 1e-5


def test_solve_mip_drift_records_step_distance(mm1):
    legacy = solve_mip_drift(mm1, MM1_CERT, SolverOptions(epsilon=1e-5))
    trace = legacy.pivot_trace
    assert trace[0].step_distance is None
    assert all(r.step_distance is not None for r in trace[1:])
    assert trace[-1].step_distance < 1e-5
    assert legacy.flatten().sum() == pytest.approx(1.0, abs=1e-12)


# one schedule of each kind in CheckpointSchedule.ARGS; a kind missing here
# fails the tests parametrized over that table
SCHEDULES = {
    "every": CheckpointSchedule(),
    "arithmetic": CheckpointSchedule(kind="arithmetic", stride=7),
    "geometric": CheckpointSchedule(kind="geometric", factor=1.3),
    "explicit": CheckpointSchedule(kind="explicit", levels=(3, 4, 10, 50, 51, 200, 494, 600)),
}


def _assert_drift_matches_blockwise(gen, cert, opts):
    """Step distances, stop level and blocks against the blockwise oracle."""
    approx = solve_mip_drift(gen, cert, opts)
    steps, blocks, diffs = drift_blockwise(gen, cert, opts)
    got = [r.step_distance for r in approx.pivot_trace]
    assert len(got) == len(steps) and got[0] is None and steps[0] is None
    for mine, ref in zip(got[1:], steps[1:]):
        assert abs(mine - ref) <= 1e-14, (mine, ref)
    assert approx.n == len(blocks) - 1
    assert all(np.array_equal(a, b) for a, b in zip(approx.blocks, blocks))
    return approx, diffs


@pytest.mark.parametrize("kind", sorted(CheckpointSchedule.ARGS))
def test_drift_step_distance_matches_blockwise_mm1(kind):
    # the schedules between them skip 0, 1 and many factors between checkpoints
    opts = SolverOptions(epsilon=1e-12, checkpoint_schedule=SCHEDULES[kind])
    approx, _ = _assert_drift_matches_blockwise(make_mm1(0.95, 1.0), MM1_CERT, opts)
    assert len(approx.pivot_trace) > 2


@pytest.mark.parametrize("make_gen", [two_phase_ldqbd, two_phase_product_qbd])
@pytest.mark.parametrize("kind", ["every", "arithmetic", "geometric"])
def test_drift_step_distance_mixed_sign_sweep(make_gen, kind):
    cert = DriftCertificate(v_blocks=lambda l: np.full(2, float(l + 1)), b=1.0)
    opts = SolverOptions(epsilon=1e-10, checkpoint_schedule=SCHEDULES[kind])
    approx, diffs = _assert_drift_matches_blockwise(make_gen(), cert, opts)
    assert approx.converged
    # the seed differences change sign, so the distance takes the sweep
    assert any(d.min() < -1e-9 and d.max() > 1e-9 for d in diffs)


@pytest.mark.parametrize(
    "gen, a, sweeps",
    [
        (make_mm1(1.0, 2.0), [np.inf], False),
        (make_mm1(1.0, 2.0), [-np.inf], False),
        (make_mm1(1.0, 2.0), [np.nan], True),
        (two_phase_product_qbd(), [1e6, 1e6], False),
        (two_phase_product_qbd(), [-1e6, -1e6], False),
        (two_phase_product_qbd(), [1e6, -1e6], True),
        (two_phase_product_qbd(), [1e6, np.nan], True),
    ],
)
def test_step_distance_sweeps_only_a_seed_difference_of_mixed_sign(monkeypatch, gen, a, sweeps):
    """A difference of one sign, infinite entries included, is read off ``u_star``; NaN sweeps."""
    prev, state = drive_to(gen, 3), drive_to(gen, 5)
    calls = []
    monkeypatch.setattr(solver, "sojourn_rows", lambda *args: calls.append(args) or (args[2],))
    with np.errstate(invalid="ignore"):
        solver._step_distance(prev, np.array(a), state, solver._pivot_seed(state, 0), gen)
    assert bool(calls) == sweeps


def _profiled_calls(make, max_level: int) -> int:
    """``call`` and ``c_call`` events of a fresh ``make()`` solve forced to ``max_level``."""
    gen, opts = make(), SolverOptions(epsilon=1e-14, max_level=max_level)
    events = 0

    def count(frame, event, arg):
        nonlocal events
        events += event in ("call", "c_call")

    gc.collect()  # no finalizer of an earlier test's garbage runs, and is counted, in the solve
    gc.disable()
    sys.setprofile(count)
    try:
        solve_mip(gen, opts)
    finally:
        sys.setprofile(None)
        gc.enable()
    return events


def _calls_of_levels_101_to_200(make) -> int:
    solve_mip(make(), SolverOptions(max_level=5))  # imports and caches
    return _profiled_calls(make, 200) - _profiled_calls(make, 100)


def test_calls_per_level_stay_at_the_recorded_count():
    """A tripwire on the fixed cost of a scalar level, in calls, which unlike time are exact.

    The levels 101..200 of a ``make_mm1(0.98, 1)`` solve forced to level
    200 (it does not converge there, so the checked walk over the blocks
    runs too) made 14227 Python and C calls before the level went to its
    numpy-call floor, 13327 after, 11527 once a 1x1 exit matrix was
    inverted by one division and the catalog served its level-independent
    blocks built once, and 11227 once the solve read its blocks straight
    from the generator, without a per-solve block store, and
    ``block_array`` read one phase count for a diagonal block.  An extreme
    read at argmax or argmin counts two calls where a reduction counted
    one, for about a third of its time.  Calls into LAPACK's f2py
    wrappers are no C-function calls to the profiler and go uncounted.
    The count includes numpy's own Python wrappers, so a numpy or Python
    upgrade (this was recorded with numpy 2.4, Python 3.11) means
    re-recording it.
    """
    assert _calls_of_levels_101_to_200(lambda: make_mm1(0.98, 1.0)) <= 11227


def test_calls_per_infinite_band_level_stay_at_the_recorded_count():
    """The same tripwire on the infinite band, ``make_heavy_tail_mg1(1, 1)``.

    Its levels 101..200 made 10831 calls before the scalar inverse and the
    shared catalog blocks and 10131 after; the checked walk reads its
    columns from ``column_blocks``.  Reading the blocks without a store
    made 10231, since the provider reads it brings back cost more calls
    than the store's work, and 10131 again once ``block_array`` read one
    phase count for a diagonal block.
    """
    assert _calls_of_levels_101_to_200(lambda: make_heavy_tail_mg1(1.0, 1.0)) <= 10131


def test_pivot_trace_is_bounded(heavy):
    # heavy tail decays slowly enough to outlast the retention window
    approx = solve_mip(heavy, SolverOptions(epsilon=1e-30, max_level=1100))
    assert not approx.converged
    assert len(approx.pivot_trace) == 1024
    assert approx.pivot_trace[-1].level == 1100


def test_solve_mip_drift_refuses_infinite_band():
    with pytest.raises(UnsupportedInfiniteBand):
        solve_mip_drift(
            make_heavy_tail_mg1(3.0, 1.0), MM1_CERT, SolverOptions(epsilon=1e-3)
        )


# ------------------------------------------------------- fixed direction


def test_fixed_direction_scalar_matches_primary(catalog):
    # heavy_tail_mg1 is the only test of the fixed-direction sweep on an infinite band
    for name, eps in (("mm1", 1e-8), ("heavy_tail_mg1", 1e-5)):
        gen = catalog[name]
        opts = SolverOptions(epsilon=eps)
        fixed = solve_fixed_direction(gen, FixedDirection(np.array([1.0])), opts)
        primary = solve_mip(gen, opts)
        assert fixed.n == primary.n, name
        assert tv_distance(fixed.flatten(), primary.flatten()) < 1e-14, name
        assert fixed.residual == pytest.approx(primary.residual), name


def test_fixed_direction_two_phase_product_form():
    gen = two_phase_product_qbd()
    opts = SolverOptions(epsilon=1e-8)
    approx = solve_fixed_direction(gen, FixedDirection(QBD_VARPI), opts)
    assert approx.converged
    assert approx.flatten().sum() == pytest.approx(1.0, abs=1e-12)
    rho = 0.5
    truth = np.concatenate(
        [(1 - rho) * rho**k * QBD_VARPI for k in range(approx.n + 1)]
    )
    assert tv_distance(approx.flatten(), truth) < 1e-6


def test_fixed_direction_rejects_bad_direction():
    with pytest.raises(BadDistribution, match="direction must be strictly positive"):
        FixedDirection(np.array([1.0, 0.0]))  # zero entry
    with pytest.raises(BadDistribution, match="direction sums to 1.4, expected 1"):
        FixedDirection(np.array([0.7, 0.7]))  # not a distribution
    with pytest.raises(BadDistribution, match="^direction is not numeric: could not convert"):
        FixedDirection("ab")


def test_fixed_direction_phase_count_mismatch(lattice):
    with pytest.raises(PhaseMismatch):
        solve_fixed_direction(
            lattice, FixedDirection(np.array([0.5, 0.5])), SolverOptions(epsilon=1e-4)
        )


# ------------------------------------------------------------ utilities


def test_tv_distance_examples():
    assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 2.0
    assert tv_distance([0.5, 0.5], [0.5, 0.25, 0.25]) == pytest.approx(0.5)


@given(
    a=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    b=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
)
@settings(max_examples=80, deadline=None)
def test_tv_distance_symmetry_and_nonnegativity(a, b):
    d_ab = tv_distance(a, b)
    assert d_ab >= 0.0
    assert d_ab == pytest.approx(tv_distance(b, a))
    assert tv_distance(a, a) == 0.0


def _assert_matches_lbcl_direct(gen):
    approx = solve_mip(gen, SolverOptions(epsilon=1e-10))
    assert approx.converged
    alpha = np.zeros(gen.phase_count(approx.n))
    alpha[approx.pivot_trace[-1].pivot] = 1.0
    assert tv_distance(approx.flatten(), lbcl_direct(gen, approx.n, alpha)) < 1e-10


@given(
    bandwidth=st.sampled_from([1, 2, 3, None]),
    phases=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_solve_mip_matches_lbcl_direct_on_random_chains(bandwidth, phases, seed):
    _assert_matches_lbcl_direct(random_banded(bandwidth, phases, seed))


# loads 1 / mu_i in [0.2, 0.75] keep the stop below about 100 levels
@given(mu1=st.floats(4 / 3, 5.0), mu2=st.floats(4 / 3, 5.0))
@settings(max_examples=20, deadline=None)
def test_solve_mip_matches_lbcl_direct_on_tandem_chains(mu1, mu2):
    _assert_matches_lbcl_direct(tandem(1.0, mu1, mu2))


@given(
    bandwidth=st.integers(1, 3),
    phases=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    # geometric checkpoints grow too far apart: on some chains double
    # precision runs out before two consecutive ones agree
    kind=st.sampled_from(["every", "arithmetic"]),
)
# stops at level 57, where a pivot guard on lbcl_direct's LU refused the
# truncation although its answer is accurate
@example(bandwidth=2, phases=1, seed=524, kind="arithmetic")
@settings(max_examples=30, deadline=None)
def test_solve_mip_drift_matches_oracles_on_random_chains(bandwidth, phases, seed, kind):
    gen = random_banded(bandwidth, phases, seed)
    cert = DriftCertificate(v_blocks=lambda l: np.full(phases, float(l + 1)), b=1.0)
    # 1e-8 keeps the stop level near 50, so the Hypothesis budget stays small
    opts = SolverOptions(epsilon=1e-8, checkpoint_schedule=SCHEDULES[kind])
    approx, _ = _assert_drift_matches_blockwise(gen, cert, opts)
    assert approx.converged
    alpha = np.zeros(phases)
    alpha[approx.pivot_trace[-1].pivot] = 1.0
    assert tv_distance(approx.flatten(), lbcl_direct(gen, approx.n, alpha)) < 1e-10


# ---------------------------------------------------------------- block reads

READ_MODELS = {
    "mm1": lambda: make_mm1(1.0, 2.0),
    "two_phase_ldqbd": two_phase_ldqbd,
    "two_phase_product_qbd": two_phase_product_qbd,
    "random_banded(2, 2)": lambda: random_banded(2, 2, 3),
    "heavy_tail": lambda: make_heavy_tail_mg1(3.0, 1.0),
}


def _drivers(gen: BlockGenerator, opts: SolverOptions) -> dict:
    """Every driver that takes ``gen``, by name; the drift rule needs a finite band."""
    m = gen.phase_count(0)
    direction = FixedDirection(np.full(m, 1.0 / m))
    drivers = {
        "solve_mip": lambda g: solve_mip(g, opts),
        "solve_fixed_direction": lambda g: solve_fixed_direction(g, direction, opts),
    }
    if gen.bandwidth is not None:
        cert = DriftCertificate(lambda l: np.arange(1.0, m + 1.0) + l, b=1.0)
        drivers["solve_mip_drift"] = lambda g: solve_mip_drift(g, cert, opts)
    return drivers


def _with_block(gen, wrap):
    """``gen`` with ``wrap`` applied to every block and stacked column its callbacks return."""
    cols = gen.column_blocks
    return replace(
        gen,
        block=lambda k, l: wrap((k, l), gen.block(k, l)),
        column_blocks=None if cols is None else lambda j, lo, hi: wrap((j, lo, hi), cols(j, lo, hi)),
    )


@pytest.mark.parametrize("model", sorted(READ_MODELS))
def test_a_solve_reads_each_block_at_most_three_times(model):
    """A solve keeps no block store, but no sweep re-reads the window either.

    ``block(n+1, n)`` is read by the checkpoint at ``n``, the step and the
    checkpoint at ``n + 1``, and no block or column more often; the fixed
    direction, whose checkpoint reads no block, reads each exactly once.
    """
    gen = READ_MODELS[model]()
    for name, run in _drivers(gen, SolverOptions(epsilon=1e-6)).items():
        fetched = Counter()

        def count(key, b):
            fetched[key] += 1
            return b

        assert run(_with_block(gen, count)).converged, name
        most = 1 if name == "solve_fixed_direction" else 3
        over = sorted(key for key, calls in fetched.items() if calls > most)
        assert fetched and not over, f"{name} read {over} more than {most} times"


def _read_only(_key, b):
    b = np.array(b, dtype=float)
    b.flags.writeable = False
    return b


def _same_approximation(a, b) -> bool:
    return (
        a.n == b.n
        and a.converged == b.converged
        and a.pivot_trace == b.pivot_trace
        and all(x.tobytes() == y.tobytes() for x, y in zip(a.blocks, b.blocks))
    )


def _plain_trace(approx) -> bool:
    """Every record field is exactly ``int``, ``float`` or ``None``, as the report writes them.

    A numpy scalar, a subclass of ``float`` or not, makes the YAML dumpers raise.
    """
    fields = [v for r in approx.pivot_trace for v in vars(r).values()]
    return all(type(v) in (int, float, type(None)) for v in fields)


@pytest.mark.parametrize("model", sorted(READ_MODELS))
def test_read_only_blocks_give_identical_results(model):
    """Nothing writes into a block the provider hands out, so sharing one is safe."""
    gen = READ_MODELS[model]()
    frozen = _with_block(gen, _read_only)
    # the capped run stops unconverged, which re-checks every block read
    for opts in (SolverOptions(epsilon=1e-6), SolverOptions(epsilon=1e-12, max_level=6)):
        for name, run in _drivers(gen, opts).items():
            approx = run(gen)
            assert _same_approximation(approx, run(frozen)), name
            assert _plain_trace(approx), name
    assert validate_proper_q(frozen, 12) == validate_proper_q(gen, 12)
    sub, ro = principal_submatrix(gen, 12), principal_submatrix(frozen, 12)
    assert sub.data.toarray().tobytes() == ro.data.toarray().tobytes()
    m = gen.phase_count(12)
    alpha = np.full(m, 1.0 / m)
    assert lbcl_direct(frozen, 12, alpha).tobytes() == lbcl_direct(gen, 12, alpha).tobytes()
    if gen.bandwidth == 1:
        want, got = bright_taylor(gen, 12, 6), bright_taylor(frozen, 12, 6)
        for name in ("blocks", "R"):
            pairs = zip(getattr(want, name), getattr(got, name), strict=True)
            assert all(x.tobytes() == y.tobytes() for x, y in pairs), name
