"""Lazy block access to upper block-Hessenberg generators.

A continuous-time Markov chain on states (level, phase) is upper
block-Hessenberg when the level can drop by at most one per transition:
block(k, l) is zero whenever ``l < k - 1``.  Blocks are supplied through
callbacks so that nothing is materialized before it is needed; levels may
have different phase counts and all shapes are derived from
``phase_count``, never assumed constant.
"""

from __future__ import annotations

import numbers
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from .errors import BadDistribution, ConfigError, IndexOutOfRange, InvalidBlock

if TYPE_CHECKING:  # scipy.sparse is imported where it is used, to keep import light
    import scipy.sparse

__all__ = [
    "BlockGenerator",
    "PrincipalSubmatrix",
    "ValidationReport",
    "Violation",
    "validate_proper_q",
    "principal_submatrix",
    "lbcl_augment",
]


def _as_number(value, where: str, kind: type = float):
    """``value`` as a float, or as an int when ``kind`` is ``int``.

    A number is any real but a bool, an integer an integral one (``1.0e+4``
    is 10000).  Anything else, text included, is a ConfigError naming ``where``.
    """
    # float and int first: their type test is cheap, the ABC's costs microseconds when cold
    if isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool):
        try:
            if kind is not int:
                return float(value)
            if isinstance(value, (int, numbers.Integral)) or float(value).is_integer():
                return int(value)
        except OverflowError:
            pass  # an int past double range is no float
    what = "an integer" if kind is int else "a number"
    raise ConfigError(f"{where} must be {what}, got {value!r}")


def _as_floats(value, error: type, what: str) -> np.ndarray:
    """``value`` as a float array, or ``error`` saying ``what`` is not numeric.

    The one reader of array input on paths that run once per call: a
    config's arrays, a tail column, a distribution, a seed, a generator
    handed to a baseline and the vectors of a distance.  The readers that
    run per level or per checkpoint, ``block_array``, ``block_column`` and
    ``DriftCertificate.v``, convert inline instead: there a call to this
    one would add to the calls per level, and its ``what``, which names the
    level, would be formatted on every read rather than on a failing one.
    """
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise error(f"{what} is not numeric: {exc}") from exc


@dataclass(frozen=True)
class BlockGenerator:
    """Callback view of a level-blocked generator matrix.

    Parameters
    ----------
    phase_count : callable
        Maps a level ``k >= 0`` to its number of phases ``M_k >= 1``.
    block : callable
        Maps ``(k, l)`` to the ``M_k x M_l`` rate block.  Must return a
        zero matrix for ``l < k - 1`` and, when ``bandwidth`` is set, for
        ``l > k + bandwidth``.  Providers must be pure: repeated calls
        return identical values.  A solve relies on it: a step and the
        checkpoints around it read the same block separately, up to three
        times.  Nothing in the library writes into a block, so a provider
        may cache its blocks and hand out the same array each time.
    bandwidth : int, optional
        Upper band limit ``b >= 1`` with ``block(k, l) = 0`` for
        ``l > k + b``, an integer under the rule ``SolverOptions`` reads
        integers by (``2.0`` is 2; ``True``, ``1.5`` and ``"2"`` are
        refused), else ConfigError at construction.  ``None`` means the
        upper band is genuinely infinite.
    tail_column : callable
        Maps ``(L, lo, hi)``, ``hi <= L``, to the exact tail row sums
        ``sum_{m > L} block(l, m) @ e`` for ``l = lo..hi``, stacked into a
        vector of length ``M_lo + ... + M_hi``.  A generator without a
        band must give it, else ConfigError at construction; with a band
        it may be left out.
    column_blocks : callable, optional
        Maps ``(j, lo, hi)`` to the blocks ``block(l, j)`` for
        ``l = lo..hi`` stacked top to bottom, an array of shape
        ``(M_lo + ... + M_hi, M_j)``.  It must agree with ``block``; it
        lets a provider build a whole block column in one expression,
        which is what the infinite-band recursion reads at every level.
        Without it, ``block_column`` stacks single ``block`` calls.  It may
        return a read-only view of an array the provider keeps, since a
        solve writes into no block.

    ``block_array`` checks that a block converts to floats and has its
    shape; ``block_column`` checks a column's shape when its caller gives
    it, as the recursion step and the drift rule do.  One checked column
    walk, the one :func:`principal_submatrix` assembles, checks signs and
    finiteness; the validator, the baselines, the load of inline tables and
    the solver's check after a failure all read the blocks through it.
    A callback that is not callable is a ConfigError naming its field, at
    construction.
    """

    phase_count: Callable[[int], int]
    block: Callable[[int, int], np.ndarray]
    bandwidth: int | None = None
    tail_column: Callable[[int, int, int], np.ndarray] | None = None
    column_blocks: Callable[[int, int, int], np.ndarray] | None = None

    def __post_init__(self):
        for name in ("phase_count", "block", "tail_column", "column_blocks"):
            value = getattr(self, name)
            if not callable(value) and (value is not None or name in ("phase_count", "block")):
                raise ConfigError(f"{name} must be callable, got {type(value).__name__}")
        if self.bandwidth is None and self.tail_column is None:
            raise ConfigError("an infinite band (bandwidth None) needs tail_column")
        if self.bandwidth is not None:
            object.__setattr__(self, "bandwidth", _as_number(self.bandwidth, "bandwidth", int))
            if self.bandwidth < 1:
                raise ConfigError(f"bandwidth must be >= 1, got {self.bandwidth}")

    def block_array(self, k: int, l: int) -> np.ndarray:
        """Fetch ``block(k, l)`` as a float array with its shape and ``M_k >= 1`` checked."""
        b = self.block(k, l)
        try:
            b = np.asarray(b, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidBlock(f"block({k},{l}) is not numeric: {exc}") from exc
        m = self.phase_count(k)  # a diagonal block makes one phase_count call
        want = (m, m if l == k else self.phase_count(l))
        if want[0] < 1:
            raise InvalidBlock(f"level {k} has phase_count {want[0]}, expected at least 1")
        if b.shape != want:
            raise InvalidBlock(
                f"block({k},{l}) has shape {b.shape}, expected {want}"
            )
        return b

    def block_column(self, j: int, lo: int, hi: int, shape: tuple | None = None) -> np.ndarray:
        """Blocks ``block(l, j)``, ``l = lo..hi``, stacked as one float array.

        Uses ``column_blocks`` when the provider has it.  A caller that knows
        the shape ``(M_lo + ... + M_hi, M_j)`` without summing phase counts
        level by level passes it as ``shape``, and a column of another shape
        raises InvalidBlock; without ``shape`` the shape is left to the caller.
        """
        if self.column_blocks is None:  # a single block needs no copy
            col = self.block_array(lo, j) if lo == hi else np.concatenate(
                [self.block_array(l, j) for l in range(lo, hi + 1)])
        else:
            try:
                col = np.asarray(self.column_blocks(j, lo, hi), dtype=float)
            except (TypeError, ValueError) as exc:
                raise InvalidBlock(
                    f"block column {j} over levels {lo}..{hi} is not numeric: {exc}"
                ) from exc
        if shape is None or col.shape == shape:
            return col
        raise InvalidBlock(
            f"block column {j} over levels {lo}..{hi} has shape {col.shape}, expected {shape}"
        )


def _check_generator(gen) -> None:
    """Refuse a ``gen`` that is no BlockGenerator with a ConfigError naming its type.

    Its ``phase_count(0)`` must be an integer too, else ConfigError naming
    ``phase_count``: a float or a text count would otherwise fail deep in a
    solve as a bare TypeError.  Only level 0 is read, once per call; the
    per-level readers test no type, since that would add to every level.
    """
    if not isinstance(gen, BlockGenerator):
        raise ConfigError(f"gen must be a BlockGenerator, got {type(gen).__name__}")
    m = gen.phase_count(0)
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool):
        raise ConfigError(f"phase_count must return an integer, got {m!r} at level 0")


@dataclass(frozen=True)
class Violation:
    """A row sum of state ``(level, phase)`` off zero; bad signs and non-finite entries raise."""

    level: int
    phase: int
    value: float


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate_proper_q` over levels ``0..levels``."""

    levels: int
    tol: float
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class PrincipalSubmatrix:
    """Sparse leading principal submatrix over levels ``0..n``.

    ``data`` is a ``scipy.sparse`` CSR array holding the nonzero entries of
    the blocks ``block(k, l)``, ``k, l <= n``.  ``level_offsets[k]`` is the
    first flat index of level ``k``; ``level_offsets[n + 1]`` equals the
    matrix dimension.
    """

    n: int
    level_offsets: np.ndarray
    data: scipy.sparse.csr_array

    def level_slice(self, k: int) -> slice:
        return slice(int(self.level_offsets[k]), int(self.level_offsets[k + 1]))

    @property
    def dim(self) -> int:
        return int(self.level_offsets[-1])


def _check_block_signs(k: int, l: int, b: np.ndarray) -> None:
    if not np.all(np.isfinite(b)):
        raise InvalidBlock(f"block({k},{l}) contains non-finite entries")
    if k == l:
        off = b - np.diag(np.diag(b))
        if np.any(off < 0.0):
            raise InvalidBlock(f"block({k},{k}) has a negative off-diagonal entry")
        if np.any(np.diag(b) > 0.0):
            raise InvalidBlock(f"block({k},{k}) has a positive diagonal entry")
    elif np.any(b < 0.0):
        raise InvalidBlock(f"block({k},{l}) has a negative entry")


def validate_proper_q(
    gen: BlockGenerator, levels: int, tol: float = 1e-12
) -> ValidationReport:
    """Check conservativity over the first ``levels + 1`` levels.

    Every state ``(k, i)`` with ``k <= levels`` must have a row sum of
    magnitude at most ``tol``.  The rows are added up batch by batch from
    the checked column walk (see :func:`principal_submatrix`): over the band
    when there is one, otherwise through ``levels`` plus the exact
    ``tail_column`` beyond it.  A ``levels`` that is no integer or a
    ``tol`` that is no number raises ConfigError, a negative ``levels``
    IndexOutOfRange, and a negative or non-finite ``tol`` ConfigError.

    Raises
    ------
    InvalidBlock
        On a negative off-diagonal entry, a positive diagonal entry, a
        non-finite block entry, or a misshapen or non-numeric block or tail
        column.
    """
    _check_generator(gen)
    levels, tol = _as_number(levels, "levels", int), _as_number(tol, "tol")
    if levels < 0:
        raise IndexOutOfRange(f"levels must be nonnegative, got {levels}")
    if not 0.0 <= tol < np.inf:
        raise ConfigError(f"tol must be finite and nonnegative, got {tol}")
    offsets = _level_offsets(gen, levels + (gen.bandwidth or 0))
    rows = np.zeros(offsets[-1])
    for r, _, v in _checked_columns(gen, offsets):
        np.add.at(rows, r, v)
    offsets = offsets[: levels + 2]
    rows = rows[: offsets[-1]]
    if gen.bandwidth is None:
        tail = _as_floats(gen.tail_column(levels, 0, levels), InvalidBlock, "tail_column")
        if tail.shape != rows.shape:
            raise InvalidBlock(f"tail_column has shape {tail.shape}, expected {rows.shape}")
        rows = rows + tail
    # a NaN row sum fails the test too
    bad = np.nonzero(~(np.abs(rows) <= tol))[0]
    level = np.searchsorted(offsets, bad, side="right") - 1
    violations = tuple(
        Violation(int(k), int(i - offsets[k]), float(rows[i]))
        for k, i in zip(level, bad)
    )
    return ValidationReport(levels, tol, violations)


def _level_offsets(gen: BlockGenerator, n: int) -> np.ndarray:
    """The first flat index of each level ``0..n``, then the dimension."""
    if n < 0:
        raise IndexOutOfRange(f"level must be nonnegative, got {n}")
    return np.concatenate(([0], np.cumsum([gen.phase_count(k) for k in range(n + 1)])))


def _lowest_reaching(gen: BlockGenerator, j: int) -> int:
    """The lowest level whose blocks reach block column ``j``; 0 on an infinite band."""
    return 0 if gen.bandwidth is None else max(0, j - gen.bandwidth)


_BATCH = 32  # columns tested at once; a check holds no more than these


def _checked_columns(gen: BlockGenerator, offsets: np.ndarray) -> Iterator[tuple]:
    """Yield the nonzeros ``(rows, cols, vals)`` of levels ``0..n``, in column batches.

    ``offsets`` is ``_level_offsets(gen, n)``.  Each batch is tested once:
    diagonals of the blocks ``block(j, j)`` nonpositive, all other entries
    nonnegative, all finite.  Only the first column that fails or is
    misshapen is split into blocks, to raise InvalidBlock naming the
    culprit; an error reading a column is re-raised once the columns
    before it pass.
    """
    n = len(offsets) - 2
    spans = [(_lowest_reaching(gen, j), min(j + 1, n)) for j in range(n + 1)]

    def name_bad_block(j: int) -> None:
        lo, hi = spans[j]
        for k in range(lo, hi + 1):
            _check_block_signs(k, j, gen.block_array(k, j))
        raise InvalidBlock(f"block column {j} over levels {lo}..{hi} disagrees with its blocks")

    def tested(batch: list) -> tuple:
        rows, cols, vals = map(np.concatenate, zip(*batch)) if batch else np.zeros((3, 0))
        s = np.where(rows == cols, -vals, vals)  # the diagonal flipped, one sign covers all
        ok = (s >= 0.0) & (s < np.inf)
        if not ok.all():
            name_bad_block(int(np.searchsorted(offsets, cols[ok.argmin()], side="right")) - 1)
        return rows, cols, vals

    batch = []
    for j, (lo, hi) in enumerate(spans):
        try:
            col = gen.block_column(j, lo, hi)
        except Exception:
            tested(batch)  # an earlier bad column is named first
            raise
        width = offsets[j + 1] - offsets[j]
        if width < 1 or col.shape != (offsets[hi + 1] - offsets[lo], width):
            tested(batch)
            name_bad_block(j)
        r, c = np.nonzero(col)
        batch.append((r + offsets[lo], c + offsets[j], col[r, c]))
        if len(batch) == _BATCH or j == n:
            yield tested(batch)
            batch = []


def _check_levels(gen: BlockGenerator, n: int) -> None:
    """Check the blocks among levels ``0..n`` by the checked column walk, one batch at a time."""
    deque(_checked_columns(gen, _level_offsets(gen, n)), 0)


def principal_submatrix(gen: BlockGenerator, n: int) -> PrincipalSubmatrix:
    """Assemble the blocks among levels ``0..n`` sparse, read by the checked column walk.

    Column ``j`` is one ``block_column`` call over the levels that reach
    it; a bad block raises InvalidBlock, the first in column order first.
    An ``n`` that is no integer raises ConfigError, a negative one
    IndexOutOfRange.
    """
    import scipy.sparse

    _check_generator(gen)
    n = _as_number(n, "n", int)
    offsets = _level_offsets(gen, n)
    rows, cols, vals = map(np.concatenate, zip(*_checked_columns(gen, offsets)))
    # collected column by column, the entries convert to canonical CSR
    data = scipy.sparse.coo_array((vals, (rows, cols)), shape=(offsets[-1], offsets[-1])).tocsr()
    return PrincipalSubmatrix(n, offsets, data)


def check_distribution(
    alpha: np.ndarray, size: int | None, tol: float = 1e-12, what: str = "distribution"
) -> np.ndarray:
    """Validate a probability vector of length ``size`` (any if None); errors name it ``what``."""
    a = _as_floats(alpha, BadDistribution, what).ravel()
    if size is not None and a.shape != (size,):
        raise BadDistribution(f"{what} has length {a.size}, expected {size}")
    if np.any(a < 0.0) or not np.all(np.isfinite(a)):
        raise BadDistribution(f"{what} entries must be finite and nonnegative")
    if abs(a.sum() - 1.0) > tol:
        raise BadDistribution(f"{what} sums to {float(a.sum())!r}, expected 1")
    return a


def _last_level_vector(sub: PrincipalSubmatrix, alpha_n: np.ndarray) -> np.ndarray:
    """``alpha_n``, checked as a distribution, on the last level of ``sub`` and zeros elsewhere."""
    last = sub.level_slice(sub.n)
    out = np.zeros(sub.dim)
    out[last] = check_distribution(alpha_n, last.stop - last.start)
    return out


def lbcl_augment(
    sub: PrincipalSubmatrix, alpha_n: np.ndarray
) -> scipy.sparse.csr_array:
    """Redirect each row's truncated rate into the last level block.

    The row deficits (the negated row sums of the principal submatrix) are
    distributed over the last block's columns according to ``alpha_n``,
    producing a finite proper generator with zero row sums, returned as a
    sparse CSR array.  Only rows with a nonzero deficit change.  A ``sub``
    that is no PrincipalSubmatrix raises ConfigError.
    """
    import scipy.sparse

    if not isinstance(sub, PrincipalSubmatrix):
        raise ConfigError(f"sub must be a PrincipalSubmatrix, got {type(sub).__name__}")
    target = _last_level_vector(sub, alpha_n)
    deficit = -sub.data.sum(axis=1)
    # a sparse outer product forms only the nonzero deficit x alpha entries
    added = scipy.sparse.csr_array(deficit[:, None]) @ scipy.sparse.csr_array(
        target[None, :]
    )
    return sub.data + added
