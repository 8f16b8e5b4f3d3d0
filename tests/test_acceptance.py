"""Acceptance suite: the exit criteria, one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
pass; each criterion is a separate test with its tolerance pinned inline.
"""

import time

import numpy as np
import pytest

import oracles
from oracles import residual_q_norm_direct
from bhmc import (
    Approximation,
    CheckpointSchedule,
    DriftCertificate,
    FixedDirection,
    SolverOptions,
    UnsupportedInfiniteBand,
    bright_taylor,
    brute_force_stationary,
    incoming_support,
    lbcl_augment,
    lbcl_direct,
    make_heavy_tail_mg1,
    make_lattice_rw_2d,
    make_ld_qbd_birth_death,
    make_mm1,
    make_mmc,
    outgoing_support,
    principal_submatrix,
    residual_q_norm,
    select_pivot,
    sojourn_matrix,
    solve_fixed_direction,
    solve_mip,
    solve_mip_drift,
    tv_distance,
)
from bhmc.recursions import advance, init_state
from bhmc.solver import _pivot_blocks, _select_at
from conftest import (
    LATTICE_RATES,
    QBD_VARPI,
    drive_to,
    two_phase_ldqbd,
    two_phase_product_qbd,
)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_geometric_exactness():
    started = time.perf_counter()
    gen = make_mm1(1.0, 2.0)
    approx = solve_mip(gen, SolverOptions(epsilon=1e-10, K_set=frozenset({0})))
    elapsed = time.perf_counter() - started

    ok = approx.converged and approx.n >= 30
    geo = oracles.geometric_pi(1.0, 2.0, 30)
    tv = tv_distance(approx.flatten()[:31], geo)
    ok &= tv <= 1e-9
    # hand-verifiable waypoints
    state = drive_to(gen, 2)
    ok &= np.allclose(
        np.concatenate(_pivot_blocks(state, 0)), [4 / 7, 2 / 7, 1 / 7], atol=1e-15
    )
    for n in (1, 2, 5, 9):
        st = drive_to(gen, n)
        ok &= st.u_star.item() == pytest.approx(2 ** (n + 1) - 1)
        ok &= residual_q_norm(st, 0) == pytest.approx(
            1.0 / (3 * (2 ** (n + 1) - 1))
        )
    ok &= elapsed < 1.0
    _report(
        1,
        "geometric exactness",
        ok,
        f"stop n={approx.n}, TV(levels 0..30)={tv:.3e} <= 1e-9, {elapsed:.2f}s",
    )


def catalog_with_epsilons():
    """Catalog models with identity-check tolerances chosen so that the
    checkpoint residuals stay above the double-precision floor of the
    direct-assembly oracle (about 1e-16 absolute; past that depth the
    relative gap is pure rounding noise)."""
    return [
        ("mm1", make_mm1(1.0, 2.0), 1e-7),
        ("mmc", make_mmc(1.0, 1.0, 2), 1e-5),
        ("ld_qbd_birth_death", make_ld_qbd_birth_death(2.0, 1.0), 5e-4),
        ("heavy_tail_mg1", make_heavy_tail_mg1(3.0, 1.0), 3e-4),
        ("lattice_rw_2d", make_lattice_rw_2d(**LATTICE_RATES), 1e-3),
    ]


def test_criterion_2_residual_identity():
    worst = 0.0
    checkpoints = 0
    for name, gen, eps in catalog_with_epsilons():
        state = init_state(gen, {0})
        while True:
            state = advance(state, gen)
            sel = _select_at(state, gen)
            closed = residual_q_norm(state, sel.pivot)
            approx = Approximation(
                state.n, _pivot_blocks(state, sel.pivot), (), closed, True, "mip_new"
            )
            direct = residual_q_norm_direct(gen, approx)
            rel = abs(direct - closed) / closed
            worst = max(worst, rel)
            checkpoints += 1
            assert 0.0 < closed <= 1.0, (name, state.n)
            assert rel <= 1e-12, (name, state.n, rel)
            if closed < eps:  # residual at stop < epsilon
                break
    _report(
        2,
        "residual identity",
        worst <= 1e-12,
        f"{checkpoints} checkpoints over 5 models, worst relative gap {worst:.2e}",
    )


def test_criterion_3_oracle_triangle():
    cases = [
        ("mm1", make_mm1(1.0, 2.0), 20),
        ("mmc", make_mmc(1.0, 1.0, 2), 20),
        ("two_phase_ldqbd", two_phase_ldqbd(), 15),
        ("lattice_rw_2d", make_lattice_rw_2d(**LATTICE_RATES), 10),
        ("heavy_tail_mg1", make_heavy_tail_mg1(3.0, 1.0), 55),
    ]
    worst = 0.0
    for name, gen, n in cases:
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
        for a, b in ((recursion, direct), (recursion, dense), (direct, dense)):
            d = tv_distance(a, b)
            worst = max(worst, d)
            assert d <= 1e-10, (name, d)
    _report(3, "oracle triangle", worst <= 1e-10, f"worst pairwise TV {worst:.2e}")


def test_criterion_4_bright_taylor_cross_method():
    worst = 0.0
    for name, gen, oracle in [
        ("mm1", make_mm1(1.0, 2.0), None),
        ("mmc", make_mmc(1.0, 1.0, 2), None),
    ]:
        approx = solve_mip(gen, SolverOptions(epsilon=1e-10))
        result = bright_taylor(gen, K_star=3 * approx.n)
        d = tv_distance(result.flatten(), approx.flatten())
        worst = max(worst, d)
        assert d <= 1e-8, (name, d)
    mm1_result = bright_taylor(make_mm1(1.0, 2.0), K_star=60)
    r1 = mm1_result.R[0].item()
    ok = abs(r1 - 0.5) <= 1e-10 and worst <= 1e-8
    _report(
        4,
        "Bright-Taylor cross-method",
        ok,
        f"worst TV {worst:.2e} <= 1e-8, scalar R={r1:.12f} (minimal root 0.5)",
    )


def test_criterion_5_heavy_tail_regime():
    gen = make_heavy_tail_mg1(3.0, 1.0)
    approx = solve_mip(gen, SolverOptions(epsilon=1e-4))
    assert approx.converged and approx.residual < 1e-4
    depth = 4 * approx.n
    ref = lbcl_direct(gen, depth, np.array([1.0]))
    k_values = [k for k in range(20, depth // 2 + 1)]
    worst = 0.0
    for k in k_values[-10:]:  # the largest available pairs
        ratio = (2 * k) ** 2 * ref[2 * k] / (k**2 * ref[k])
        worst = max(worst, abs(ratio - 1.0))
        assert abs(ratio - 1.0) <= 0.10, (k, ratio)
    _report(
        5,
        "heavy-tail regime",
        worst <= 0.10,
        f"stop n={approx.n}, quadratic-decay ratio off by at most "
        f"{worst:.3f} over k={k_values[-10]}..{k_values[-1]}",
    )


def test_criterion_6_lfp_optimality():
    rng = np.random.default_rng(20250810)
    checkpoints = [
        (make_mm1(1.0, 2.0), 5),
        (make_mm1(1.0, 2.0), 12),
        (make_mmc(1.0, 1.0, 2), 6),
        (make_mmc(1.0, 1.0, 2), 14),
        (make_ld_qbd_birth_death(2.0, 1.0), 7),
        (two_phase_ldqbd(), 5),
        (two_phase_ldqbd(), 11),
        (make_lattice_rw_2d(**LATTICE_RATES), 6),
        (make_lattice_rw_2d(**LATTICE_RATES), 9),
        (make_heavy_tail_mg1(3.0, 1.0), 12),
    ]
    worst_excess = -np.inf
    for gen, n in checkpoints:
        state = drive_to(gen, n)
        inc = incoming_support(gen, n)
        sel = select_pivot(state, inc, outgoing_support(state, gen))
        support = np.flatnonzero(inc)
        for _ in range(100):
            alpha = np.zeros(state.u_star.shape[0])
            alpha[support] = rng.dirichlet(np.ones(len(support)))
            r = (alpha @ state.u_star_K) / (alpha @ state.u_star)
            worst_excess = max(worst_excess, r - sel.ratio)
            assert r <= sel.ratio + 1e-12, (n, r, sel.ratio)
    _report(
        6,
        "LFP optimality",
        worst_excess <= 1e-12,
        f"1000 random feasible directions, worst excess {worst_excess:.2e}",
    )


def test_criterion_7_legacy_path_agreement():
    gen = make_mm1(1.0, 2.0)
    cert = DriftCertificate(
        v_blocks=lambda l: np.array([float(l + 1)]), b=1.0
    )
    opts = SolverOptions(
        epsilon=1e-6, checkpoint_schedule=CheckpointSchedule(kind="arithmetic", stride=5)
    )
    legacy = solve_mip_drift(gen, cert, opts)
    primary = solve_mip(gen, opts)
    d = tv_distance(legacy.flatten(), primary.flatten())
    refused = False
    try:
        solve_mip_drift(make_heavy_tail_mg1(3.0, 1.0), cert, opts)
    except UnsupportedInfiniteBand:
        refused = True
    ok = legacy.converged and d <= 2e-6 and refused
    _report(
        7,
        "legacy-path agreement",
        ok,
        f"TV {d:.2e} <= 2e-6 (drift n={legacy.n}, primary n={primary.n}); "
        f"infinite band refused: {refused}",
    )


def test_criterion_8_sojourn_semantics():
    started = time.perf_counter()
    mean, sem = oracles.mm1_sojourn_at_zero_mc(
        1.0, 2.0, start=2, top=3, paths=100_000, seed=20240817
    )
    elapsed = time.perf_counter() - started
    state = drive_to(make_mm1(1.0, 2.0), 2)
    recursion_value = sojourn_matrix(state, 0).item()
    deviation = abs(mean - recursion_value) / sem
    ok = recursion_value == pytest.approx(4.0) and deviation <= 3.0 and elapsed < 30.0
    _report(
        8,
        "sojourn semantics",
        ok,
        f"MC {mean:.4f} +- {sem:.4f} vs recursion {recursion_value}, "
        f"{deviation:.2f} standard errors, {elapsed:.1f}s",
    )


def test_criterion_9_fixed_direction_path():
    gen = two_phase_product_qbd()
    eps = 1e-6
    free = SolverOptions(epsilon=eps)
    n_star = max(
        solve_mip(gen, free).n,
        solve_fixed_direction(gen, FixedDirection(QBD_VARPI), free).n,
    )
    matched = SolverOptions(
        epsilon=eps,
        checkpoint_schedule=CheckpointSchedule(kind="explicit", levels=(n_star,)),
        max_level=n_star,
    )
    primary = solve_mip(gen, matched)
    fixed = solve_fixed_direction(gen, FixedDirection(QBD_VARPI), matched)
    d = tv_distance(primary.flatten(), fixed.flatten())
    ok = d <= 2 * eps and primary.n == fixed.n == n_star
    _report(
        9,
        "fixed-direction path",
        ok,
        f"TV {d:.2e} <= 2e-6 at matched depth n={n_star}",
    )
