"""Correctness checks the benchmark applies to every operation's output.

Each check returns a list of problems; an empty list means the output
passed.  The references are computed here from closed forms, except for
chains without one, which are compared with ``bhmc.baseline.lbcl_direct``
at the same stop level and augmentation direction.  Tolerances are those
of the acceptance suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import bhmc.baseline

SUM_TOL = 1e-12
RESIDUAL_RTOL = 1e-12
# Rounding floor of the direct residual sum: at eps 1e-14 the closed form
# and the direct sum differ by up to about 4e-16 absolute.
RESIDUAL_ATOL = 1e-14
LBCL_TOL = 1e-10
BRIGHT_TAYLOR_TOL = 1e-8  # a different truncation (three times deeper)


class CheckFailed(Exception):
    """An output failed a check."""


@dataclass(frozen=True)
class Reference:
    """Reference law over levels ``0..n``, given the generator and the outcome."""

    law: Callable | None
    tol: float
    name: str


def closed_form(law: Callable[[int], np.ndarray], tol: float) -> Reference:
    """Closed-form law; ``law(n)`` gives the flat law over levels ``0..n``, unnormalized."""
    return Reference(lambda gen, out: law(out.n), tol, "closed form")


LBCL_DIRECT = Reference(
    lambda gen, out: bhmc.baseline.lbcl_direct(gen, out.n, out.alpha), LBCL_TOL, "lbcl_direct"
)
NO_REFERENCE = Reference(None, 0.0, "none")


def geometric_law(lam: float, mu: float) -> Callable[[int], np.ndarray]:
    rho = lam / mu
    return lambda n: (1.0 - rho) * rho ** np.arange(n + 1)


def mmc_law(lam: float, mu: float, c: int) -> Callable[[int], np.ndarray]:
    def law(n: int) -> np.ndarray:
        w = [1.0]
        for k in range(1, n + 1):
            w.append(w[-1] * lam / (min(k, c) * mu))
        return np.array(w)

    return law


def poisson_law(lam: float, mu: float) -> Callable[[int], np.ndarray]:
    a = lam / mu
    return lambda n: np.array([math.exp(k * math.log(a) - a - math.lgamma(k + 1)) for k in range(n + 1)])


def product_qbd_law(lam: float, mu: float, varpi: np.ndarray) -> Callable[[int], np.ndarray]:
    rho = lam / mu
    return lambda n: np.outer(rho ** np.arange(n + 1), varpi).ravel()


def residual_blockwise(gen, blocks) -> float:
    """Q-weighted residual ``sum_s |(x Q_n)_s| / |Q_n[s, s]|``, one column level at a time."""
    n = len(blocks) - 1
    total = 0.0
    for l in range(n + 1):
        lo = 0 if gen.bandwidth is None else max(0, l - gen.bandwidth)
        col = np.zeros(gen.phase_count(l))
        for k in range(lo, min(n, l + 1) + 1):
            b = gen.block_array(k, l)
            col += blocks[k] @ b
            if k == l:
                diag = np.abs(np.diag(b))
        total += float(np.abs(col) @ (1.0 / diag))
    return total


def check_outcome(gen, out, reference: Reference) -> list[str]:
    """Every check on one output: convergence, a probability vector, the residual, the reference."""
    problems = []
    if not out.converged:
        problems.append(f"not converged at level {out.n}")
    if len(out.blocks) != out.n + 1:
        problems.append(f"{len(out.blocks)} blocks for stop level {out.n}")
        return problems
    flat = np.concatenate(out.blocks)
    if not np.all(np.isfinite(flat)) or flat.min() < 0.0:
        problems.append("distribution has a negative or non-finite entry")
    if abs(flat.sum() - 1.0) > SUM_TOL:
        problems.append(f"distribution sums to {flat.sum()!r}")
    direct = residual_blockwise(gen, out.blocks)
    if not abs(direct - out.residual) <= RESIDUAL_RTOL * out.residual + RESIDUAL_ATOL:
        problems.append(f"residual {out.residual!r} but blockwise recompute gives {direct!r}")
    if reference.law is not None:
        ref = np.asarray(reference.law(gen, out), dtype=float).ravel()
        ref = ref / ref.sum()
        tv = float(np.abs(flat - ref).sum()) if ref.shape == flat.shape else math.inf
        if not tv <= reference.tol:
            problems.append(f"TV {tv:.3e} to {reference.name} exceeds {reference.tol:g}")
    return problems


def parse_distribution(text: str) -> tuple[np.ndarray, ...]:
    """Blocks from a ``level,phase,probability`` CSV (phases 1-indexed)."""
    lines = text.splitlines()
    if not lines or lines[0] != "level,phase,probability":
        raise CheckFailed("distribution CSV has no level,phase,probability header")
    levels: list[list[float]] = []
    for line in lines[1:]:
        k, i, p = line.split(",")
        k, i = int(k), int(i)
        if k == len(levels):
            levels.append([])
        if k != len(levels) - 1 or i != len(levels[k]) + 1:
            raise CheckFailed(f"distribution CSV row out of order: {line!r}")
        levels[k].append(float(p))
    return tuple(np.array(b) for b in levels)


def check_comparisons(comparisons: dict) -> list[str]:
    """The report's own baseline distances must meet the acceptance tolerances."""
    limits = {"lbcl_direct": LBCL_TOL, "brute_force": LBCL_TOL, "bright_taylor": BRIGHT_TAYLOR_TOL}
    return [
        f"{name} TV {info['tv_distance']:.3e} exceeds {limits[name]:g}"
        for name, info in comparisons.items()
        if not info["tv_distance"] <= limits[name]
    ]
