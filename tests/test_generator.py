"""Block provider, assembly, augmentation, and validation checks."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bhmc
from bhmc import (
    BadDistribution,
    BlockGenerator,
    ConfigError,
    IndexOutOfRange,
    InvalidBlock,
    MissingTailInfo,
    lbcl_augment,
    Violation,
    make_heavy_tail_mg1,
    make_lattice_rw_2d,
    make_mm1,
    principal_submatrix,
    solve_mip,
    validate_proper_q,
)
from bhmc.generator import _BATCH
from conftest import LATTICE_RATES, random_banded, two_phase_ldqbd
from oracles import principal_submatrix_rows


def test_principal_submatrix_mm1_n1(mm1):
    sub = principal_submatrix(mm1, 1)
    np.testing.assert_array_equal(sub.data.toarray(), [[-1.0, 1.0], [2.0, -3.0]])


def test_principal_submatrix_n0_is_first_block(mm1):
    sub = principal_submatrix(mm1, 0)
    np.testing.assert_array_equal(sub.data.toarray(), [[-1.0]])


def test_principal_submatrix_mm1_n2_tridiagonal(mm1):
    sub = principal_submatrix(mm1, 2)
    expected = [[-1.0, 1.0, 0.0], [2.0, -3.0, 1.0], [0.0, 2.0, -3.0]]
    np.testing.assert_array_equal(sub.data.toarray(), expected)


def test_principal_submatrix_nesting(mm1, lattice):
    for gen in (mm1, lattice):
        big = principal_submatrix(gen, 6)
        small = principal_submatrix(gen, 5)
        d = small.dim
        np.testing.assert_array_equal(
            big.data.toarray()[:d, :d], small.data.toarray()
        )


def test_row_sums_nonpositive_and_banded_zero(lattice):
    n, bandwidth = 7, 1
    sub = principal_submatrix(lattice, n)
    rows = sub.data.sum(axis=1)
    assert np.all(rows <= 1e-12)
    interior = slice(0, int(sub.level_offsets[n - bandwidth + 1]))
    np.testing.assert_array_equal(rows[interior], 0.0)


def test_lbcl_augment_mm1_n1(mm1):
    sub = principal_submatrix(mm1, 1)
    out = lbcl_augment(sub, np.array([1.0]))
    np.testing.assert_allclose(out.toarray(), [[-1.0, 1.0], [2.0, -2.0]])


def test_lbcl_augment_n0_single_state(mm1):
    out = lbcl_augment(principal_submatrix(mm1, 0), np.array([1.0]))
    np.testing.assert_array_equal(out.toarray(), [[0.0]])


def closed_three_level_chain() -> BlockGenerator:
    """Birth-death on levels 0..2 only; its band fits inside any n >= 2."""

    def block(k, l):
        up = 1.0 if k < 2 else 0.0
        down = 2.0 if k >= 1 else 0.0
        if l == k:
            return np.array([[-(up + down)]])
        if l == k + 1:
            return np.array([[up]])
        if l == k - 1 and k >= 1:
            return np.array([[down]])
        return np.zeros((1, 1))

    return BlockGenerator(lambda k: 1, block, bandwidth=1)


def test_lbcl_augment_no_deficit_returns_input():
    sub = principal_submatrix(closed_three_level_chain(), 2)
    out = lbcl_augment(sub, np.array([1.0]))
    np.testing.assert_array_equal(out.toarray(), sub.data.toarray())


@given(
    weights=st.lists(st.floats(0.01, 1.0), min_size=8, max_size=8),
    n=st.integers(2, 6),
)
@settings(max_examples=60, deadline=None)
def test_lbcl_augment_yields_proper_generator(weights, n):
    lattice = bhmc.make_lattice_rw_2d(1.0, 3.0, 1.0, 3.0)
    sub = principal_submatrix(lattice, n)
    alpha = np.array(weights[: n + 1])
    alpha /= alpha.sum()
    out = lbcl_augment(sub, alpha).toarray()
    np.testing.assert_allclose(out.sum(axis=1), 0.0, atol=1e-12)
    off = out - np.diag(np.diag(out))
    assert np.all(off >= -1e-15)
    assert np.all(np.diag(out) <= 1e-15)


def test_lbcl_augment_rejects_bad_distribution(mm1):
    sub = principal_submatrix(mm1, 1)
    with pytest.raises(BadDistribution):
        lbcl_augment(sub, np.array([0.5, 0.5]))  # wrong length
    with pytest.raises(BadDistribution):
        lbcl_augment(sub, np.array([2.0]))  # does not sum to 1
    with pytest.raises(BadDistribution):
        lbcl_augment(sub, np.array([-1.0]))
    with pytest.raises(BadDistribution, match="^distribution is not numeric: could not convert"):
        bhmc.lbcl_direct(mm1, 1, "x")


def test_validate_mm1_clean(mm1):
    report = validate_proper_q(mm1, 5, tol=1e-12)
    assert report.ok
    assert report.violations == ()


def test_validate_heavy_tail_via_tail_mass():
    gen = make_heavy_tail_mg1(3.0, 1.0)
    assert gen.bandwidth is None
    report = validate_proper_q(gen, 10, tol=1e-12)
    assert report.ok


def test_validate_rejects_positive_diagonal():
    base = make_mm1(1.0, 2.0)

    def bad_block(k, l):
        if (k, l) == (1, 1):
            return np.array([[3.0]])
        return base.block(k, l)

    gen = BlockGenerator(base.phase_count, bad_block, bandwidth=1)
    with pytest.raises(InvalidBlock):
        validate_proper_q(gen, 3)


def test_validate_rejects_negative_off_diagonal():
    base = make_mm1(1.0, 2.0)

    def bad_block(k, l):
        if (k, l) == (2, 3):
            return np.array([[-0.5]])
        return base.block(k, l)

    gen = BlockGenerator(base.phase_count, bad_block, bandwidth=1)
    with pytest.raises(InvalidBlock):
        validate_proper_q(gen, 3)


def test_validate_refuses_out_of_range_arguments(mm1):
    with pytest.raises(IndexOutOfRange, match=r"levels must be nonnegative, got -1"):
        validate_proper_q(mm1, -1)
    for tol in (-1.0, np.nan, np.inf):
        with pytest.raises(ConfigError, match=rf"tol must be finite and nonnegative, got {tol}"):
            validate_proper_q(mm1, 3, tol)
    assert validate_proper_q(mm1, 0, 0.0).ok


def test_validate_requires_tail_info():
    base = make_heavy_tail_mg1(3.0, 1.0)
    gen = BlockGenerator(base.phase_count, base.block)  # no band, no tail
    with pytest.raises(MissingTailInfo):
        validate_proper_q(gen, 3)


def test_validate_reports_conservativity_violation():
    def block(k, l):
        if l == k:
            return np.array([[-1.0]])
        if l == k + 1:
            return np.array([[0.9]])  # leaks 0.1 per level
        if l == k - 1 and k >= 1:
            return np.array([[0.0]])
        return np.zeros((1, 1))

    gen = BlockGenerator(lambda k: 1, block, bandwidth=1)
    report = validate_proper_q(gen, 2)
    assert not report.ok
    assert len(report.violations) == 3


def test_validate_maps_violation_to_level_and_phase():
    # an extra up-rate of 0.5 leaves states (2, 1) and (3, 0) only
    gen = _spoiled(_spoiled(two_phase_ldqbd(), (2, 3), (1, 1), 1.0), (3, 4), (0, 0), 1.5)
    report = validate_proper_q(gen, 4)
    assert report.violations == (
        Violation(2, 1, 0.5),
        Violation(3, 0, 0.5),
    )


def test_level_without_phases_is_invalid_block(mm1):
    def phase_count(k):
        return 0 if k == 3 else 1

    def block(k, l):
        return np.zeros((phase_count(k), phase_count(l))) if 3 in (k, l) else mm1.block(k, l)

    with pytest.raises(InvalidBlock, match=r"level 3 has phase_count 0"):
        solve_mip(BlockGenerator(phase_count, block, bandwidth=1))


def test_block_array_checks_shape(mm1):
    def bad_block(k, l):
        return np.zeros((2, 2))

    gen = BlockGenerator(mm1.phase_count, bad_block, bandwidth=1)
    with pytest.raises(InvalidBlock):
        gen.block_array(0, 0)


@pytest.mark.parametrize("bandwidth", [0, -1, 1.5, "2", True])
@pytest.mark.parametrize(
    "use", [solve_mip, lambda gen: validate_proper_q(gen, 5)], ids=["solve_mip", "validate"]
)
def test_bandwidth_outside_the_number_rule_is_config_error(mm1, bandwidth, use):
    with pytest.raises(ConfigError, match=r"^bandwidth must be "):
        use(BlockGenerator(mm1.phase_count, mm1.block, bandwidth=bandwidth))


def test_non_numeric_block_is_invalid_block(mm1):
    gen = replace(mm1, block=lambda k, l: "x" if (k, l) == (2, 2) else mm1.block(k, l))
    for use in (solve_mip, lambda gen: principal_submatrix(gen, 3)):
        with pytest.raises(InvalidBlock, match=r"^block\(2,2\) is not numeric: could not convert"):
            use(gen)


def test_non_numeric_provider_column_is_invalid_block():
    heavy = make_heavy_tail_mg1(3.0, 1.0)
    columns = replace(heavy, column_blocks=lambda j, lo, hi: "x")
    with pytest.raises(InvalidBlock, match=r"^block column 0 over levels 0..1 is not numeric: could"):
        principal_submatrix(columns, 3)
    tail = replace(heavy, tail_column=lambda L, lo, hi: "x")
    with pytest.raises(InvalidBlock, match=r"^tail_column is not numeric: could not convert"):
        validate_proper_q(tail, 3)


def test_block_column_stacks_blocks_without_callback(mm1):
    col = mm1.block_column(3, 1, 4)
    np.testing.assert_array_equal(col, [[0.0], [1.0], [-3.0], [2.0]])
    assert col.dtype == float


def test_check_blocks_names_first_bad_block_on_infinite_band():
    heavy = make_heavy_tail_mg1(3.0, 1.0)
    principal_submatrix(heavy, 40)  # a valid model passes, column by column
    bad = replace(
        heavy,
        block=lambda k, l: np.array([[-1.0]]) if (k, l) == (1, 3) else heavy.block(k, l),
        column_blocks=None,
    )
    principal_submatrix(bad, 2)  # column 3 lies beyond levels 0..2
    with pytest.raises(InvalidBlock, match=r"block\(1,3\) has a negative entry"):
        principal_submatrix(bad, 3)


def _spoiled(gen, at, entry, value):
    def block(k, l):
        b = np.array(gen.block(k, l), dtype=float)
        if (k, l) == at:
            b[entry] = value
        return b

    return replace(gen, block=block)


@pytest.mark.parametrize(
    "at, entry, value, message",
    [
        ((2, 2), (1, 1), 0.5, r"block\(2,2\) has a positive diagonal entry"),
        ((2, 2), (0, 1), -0.5, r"block\(2,2\) has a negative off-diagonal entry"),
        ((3, 2), (1, 0), np.nan, r"block\(3,2\) contains non-finite entries"),
        ((1, 2), (0, 0), -1.0, r"block\(1,2\) has a negative entry"),
        ((2, 2), (0, 0), np.inf, r"block\(2,2\) contains non-finite entries"),
        ((1, 2), (1, 1), np.inf, r"block\(1,2\) contains non-finite entries"),
        ((2, 2), (1, 1), -np.inf, r"block\(2,2\) contains non-finite entries"),
    ],
)
def test_check_blocks_names_bad_block_in_column(at, entry, value, message):
    gen = two_phase_ldqbd()
    principal_submatrix(gen, 6)
    with pytest.raises(InvalidBlock, match=message):
        principal_submatrix(_spoiled(gen, at, entry, value), 6)


def _misshapen(k, l):
    return np.zeros((2, 3))


def _raising(k, l):
    raise LookupError(f"no block ({k},{l})")


@pytest.mark.parametrize(
    "at, fault, message",
    [
        ((4, 4), _misshapen, r"block\(1,2\) has a negative entry"),
        ((1, 1), _misshapen, r"block\(1,1\) has shape \(2, 3\)"),
        ((5, 5), _raising, r"block\(1,2\) has a negative entry"),
    ],
)
def test_bad_columns_are_named_in_column_order(at, fault, message):
    """Column 2 has a negative entry; ``fault`` spoils an earlier or a later column."""
    base = _spoiled(two_phase_ldqbd(), (1, 2), (0, 0), -1.0)
    gen = replace(base, block=lambda k, l: fault(k, l) if (k, l) == at else base.block(k, l))
    with pytest.raises(InvalidBlock, match=message):
        principal_submatrix(gen, 6)


def test_check_blocks_reports_column_that_disagrees_with_blocks():
    heavy = make_heavy_tail_mg1(3.0, 1.0)

    def column_blocks(j, lo, hi):
        col = heavy.column_blocks(j, lo, hi)
        return -col if j == 4 else col

    with pytest.raises(InvalidBlock, match=r"block column 4 over levels 0\.\.5"):
        principal_submatrix(replace(heavy, column_blocks=column_blocks), 8)


def test_misshapen_block_column_disagrees_with_its_blocks():
    """A ``column_blocks`` that drops a row fails the shape test, though every block passes."""
    heavy = make_heavy_tail_mg1(3.0, 1.0)

    def column_blocks(j, lo, hi):
        col = heavy.column_blocks(j, lo, hi)
        return col[1:] if j == 4 else col

    message = r"^block column 4 over levels 0\.\.5 disagrees with its blocks$"
    with pytest.raises(InvalidBlock, match=message):
        principal_submatrix(replace(heavy, column_blocks=column_blocks), 8)


WALK_CASES = {
    "lattice": lambda: make_lattice_rw_2d(**LATTICE_RATES),
    "two_phase_ldqbd": two_phase_ldqbd,
    "heavy_tail": lambda: make_heavy_tail_mg1(3.0, 1.0),
    "heavy_tail_by_block": lambda: replace(make_heavy_tail_mg1(3.0, 1.0), column_blocks=None),
    "random_band_1": lambda: random_banded(1, 3, 0),
    "random_band_3": lambda: random_banded(3, 2, 1),
    "random_band_inf": lambda: random_banded(None, 2, 2),
}
ROW_SUM_CASES = {k: v for k, v in WALK_CASES.items() if k != "heavy_tail_by_block"}


@pytest.mark.parametrize("case", sorted(WALK_CASES))
def test_column_walk_matches_row_walk_byte_for_byte(case):
    gen, n = WALK_CASES[case](), 12
    got, want = principal_submatrix(gen, n).data, principal_submatrix_rows(gen, n).data
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("case", sorted(ROW_SUM_CASES))
def test_check_blocks_row_sums_match_submatrix(case):
    """The row sums validate_proper_q adds up batch by batch equal the dense rows'.

    Each diagonal block is doubled, so every row leaks and is reported.
    """
    base, n = ROW_SUM_CASES[case](), 12
    tail_column = base.tail_column
    if base.bandwidth is None and tail_column is None:  # any tail will do: both sides add it
        tail_column = lambda L, lo, hi: np.zeros(sum(map(base.phase_count, range(lo, hi + 1))))
    gen = replace(
        base,
        block=lambda k, l: 2.0 * base.block(k, l) if k == l else base.block(k, l),
        tail_column=tail_column,
        column_blocks=None,
    )
    q = principal_submatrix_rows(gen, n + (gen.bandwidth or 0)).data.toarray()
    offsets = principal_submatrix(gen, n).level_offsets
    want, scale = q.sum(axis=1)[: offsets[-1]], np.abs(q).sum(axis=1)[: offsets[-1]]
    if gen.bandwidth is None:
        tail = gen.tail_column(n, 0, n)
        want, scale = want + tail, scale + np.abs(tail)
    report = validate_proper_q(gen, n, tol=0.0)
    assert len(report.violations) == offsets[-1]
    sums = np.array([v.value for v in report.violations])
    assert [offsets[v.level] + v.phase for v in report.violations] == list(range(offsets[-1]))
    assert np.all(np.abs(sums - want) <= 1e-15 * scale)


def test_columns_are_checked_across_batches():
    """A bad column past the first batch is named, before a later column that raises."""
    base = make_mm1(1.0, 2.0)
    j = _BATCH + 5

    def block(k, l):
        if (k, l) == (j, j):
            return np.array([[1.0]])
        if (k, l) == (j + 3, j + 3):
            raise LookupError("unreadable")
        return base.block(k, l)

    gen = replace(base, block=block)
    principal_submatrix(gen, j - 1)
    with pytest.raises(InvalidBlock, match=rf"^block\({j},{j}\) has a positive diagonal entry$"):
        principal_submatrix(gen, 2 * _BATCH + 10)
    sub = principal_submatrix(base, 3 * _BATCH + 1)  # a last batch of one column
    assert sub.data.nnz == 3 * (3 * _BATCH + 2) - 2


def test_unconverged_stop_checks_blocks_in_bounded_memory():
    """The check after an unconverged stop holds a batch of columns, not the truncation.

    On an infinite band the truncation to 1001 levels has about 5e5
    nonzeros, some 25 MB assembled; the checked walk holds about 2 MB.
    """
    heavy = make_heavy_tail_mg1(1.0, 1.0)
    tracemalloc.start()
    try:
        approx = solve_mip(heavy, bhmc.SolverOptions(epsilon=1e-12, max_level=1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not approx.converged and approx.n == 1000
    assert peak < 8e6


def test_validate_proper_q_misshapen_tail_column_is_invalid_block():
    gen = replace(make_heavy_tail_mg1(3.0, 1.0), tail_column=lambda L, lo, hi: np.zeros(hi - lo))
    with pytest.raises(InvalidBlock, match=r"tail_column has shape \(4,\), expected \(5,\)"):
        validate_proper_q(gen, 4)
