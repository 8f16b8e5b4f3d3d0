"""Lazy block access to upper block-Hessenberg generators.

A continuous-time Markov chain on states (level, phase) is upper
block-Hessenberg when the level can drop by at most one per transition:
block(k, l) is zero whenever ``l < k - 1``.  Blocks are supplied through
callbacks so that nothing is materialized before it is needed; levels may
have different phase counts and all shapes are derived from
``phase_count``, never assumed constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BadDistribution, IndexOutOfRange, InvalidBlock, MissingTailInfo

__all__ = [
    "BlockGenerator",
    "PrincipalSubmatrix",
    "ValidationReport",
    "Violation",
    "validate_proper_q",
    "principal_submatrix",
    "lbcl_augment",
]


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
        return identical values.
    bandwidth : int, optional
        Upper band limit ``b`` with ``block(k, l) = 0`` for ``l > k + b``.
        ``None`` means the upper band is genuinely infinite.
    row_tail_mass : callable, optional
        Exact analytic tail row sum ``(k, i, L) -> sum_{l > L}
        (block(k, l) @ e)[i]``.  Required for conservativity checks when
        ``bandwidth`` is absent.
    """

    phase_count: Callable[[int], int]
    block: Callable[[int, int], np.ndarray]
    bandwidth: int | None = None
    row_tail_mass: Callable[[int, int, int], float] | None = None

    def block_array(self, k: int, l: int) -> np.ndarray:
        """Fetch ``block(k, l)`` as a float array with its shape checked."""
        b = np.asarray(self.block(k, l), dtype=float)
        want = (self.phase_count(k), self.phase_count(l))
        if b.shape != want:
            raise InvalidBlock(
                f"block({k},{l}) has shape {b.shape}, expected {want}"
            )
        return b


@dataclass(frozen=True)
class Violation:
    """One proper-Q-matrix violation at state ``(level, phase)``."""

    kind: str  # "stability" or "conservativity"
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
    """Dense leading principal submatrix over levels ``0..n``.

    ``level_offsets[k]`` is the first flat index of level ``k``;
    ``level_offsets[n + 1]`` equals the matrix dimension.
    """

    n: int
    level_offsets: np.ndarray
    data: np.ndarray

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
    """Check stability and conservativity over the first ``levels + 1`` levels.

    Every state ``(k, i)`` with ``k <= levels`` must have a finite diagonal
    rate (stability) and a row sum of magnitude at most ``tol``
    (conservativity).  Banded generators are summed exactly over the band;
    otherwise the exact analytic ``row_tail_mass`` supplies the part of the
    row beyond the diagonal.

    Raises
    ------
    MissingTailInfo
        If the generator has neither ``bandwidth`` nor ``row_tail_mass``.
    InvalidBlock
        On a negative off-diagonal entry, a positive diagonal entry, or a
        non-finite block entry.
    """
    if gen.bandwidth is None and gen.row_tail_mass is None:
        raise MissingTailInfo(
            "cannot check row sums: generator has no bandwidth and no row_tail_mass"
        )
    violations: list[Violation] = []
    for k in range(levels + 1):
        mk = gen.phase_count(k)
        if gen.bandwidth is not None:
            hi = k + gen.bandwidth
            tail = np.zeros(mk)
        else:
            hi = k  # explicit through the diagonal; callback covers l > k
            tail = np.array(
                [gen.row_tail_mass(k, i, k) for i in range(mk)], dtype=float
            )
        row = tail
        diag_block = None
        for l in range(max(0, k - 1), hi + 1):
            b = gen.block_array(k, l)
            _check_block_signs(k, l, b)
            row = row + b.sum(axis=1)
            if l == k:
                diag_block = b
        diag = np.diag(diag_block)
        for i in range(mk):
            if not np.isfinite(diag[i]):
                violations.append(Violation("stability", k, i, float(diag[i])))
            if abs(row[i]) > tol:
                violations.append(Violation("conservativity", k, i, float(row[i])))
    return ValidationReport(levels, tol, tuple(violations))


def principal_submatrix(gen: BlockGenerator, n: int) -> PrincipalSubmatrix:
    """Assemble the dense generator restriction to levels ``0..n``."""
    if n < 0:
        raise IndexOutOfRange(f"level must be nonnegative, got {n}")
    counts = [gen.phase_count(k) for k in range(n + 1)]
    offsets = np.concatenate(([0], np.cumsum(counts)))
    dim = int(offsets[-1])
    data = np.zeros((dim, dim))
    for k in range(n + 1):
        rows = slice(offsets[k], offsets[k + 1])
        hi = n if gen.bandwidth is None else min(n, k + gen.bandwidth)
        for l in range(max(0, k - 1), hi + 1):
            data[rows, offsets[l] : offsets[l + 1]] = gen.block_array(k, l)
    return PrincipalSubmatrix(n, offsets, data)


def check_distribution(alpha: np.ndarray, size: int, tol: float = 1e-12) -> np.ndarray:
    """Validate a probability row vector of the given length."""
    a = np.asarray(alpha, dtype=float).ravel()
    if a.shape != (size,):
        raise BadDistribution(f"distribution has length {a.size}, expected {size}")
    if np.any(a < 0.0) or not np.all(np.isfinite(a)):
        raise BadDistribution("distribution entries must be finite and nonnegative")
    if abs(a.sum() - 1.0) > tol:
        raise BadDistribution(f"distribution sums to {a.sum()!r}, expected 1")
    return a


def lbcl_augment(sub: PrincipalSubmatrix, alpha_n: np.ndarray) -> np.ndarray:
    """Redirect each row's truncated rate into the last level block.

    The row deficits (the negated row sums of the principal submatrix) are
    distributed over the last block's columns according to ``alpha_n``,
    producing a finite proper generator with zero row sums.
    """
    last = sub.level_slice(sub.n)
    alpha = check_distribution(alpha_n, last.stop - last.start)
    deficit = -sub.data.sum(axis=1)
    out = sub.data.copy()
    out[:, last] += np.outer(deficit, alpha)
    return out
