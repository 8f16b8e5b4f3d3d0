"""Workloads of the bhmc benchmark: seeded model parameters and the operations of one pass.

A workload is a fixed list of operations.  Each operation builds its
generator (or reads its YAML file) and solves it; one pass runs every
operation once.  Seed 0 uses the nominal rates; any other seed scales each
rate by a factor within ``1 +- JITTER``, drawn from the seed and the case
name, so the same seed always gives the same inputs.
"""

from __future__ import annotations

import hashlib
import io
import zlib
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

import bhmc.cli
import bhmc.models
import bhmc.solver
from bhmc import BlockGenerator, DriftCertificate, FixedDirection, SolverOptions

import checks

# Rates move by at most +-0.01 %.  The stop level of mm1(0.98, 1) moves
# by about 1 % for that, and its solve time by about 2 %; a jitter of
# +-0.2 % would move the stop level by 20 % and the solve time by 40 %,
# which would swamp the run-to-run spread the benchmark must resolve.
JITTER = 1e-4

WORKLOADS = {
    "banded_deep": (
        "finite-band chains at eps 1e-14 through all three drivers; the retained-family "
        "update in advance dominates, and the lattice splits BLAS flops from per-block overhead"
    ),
    "heavy_tail": (
        "infinite upper band: the correction sum visits every retained level, about 139k "
        "block callbacks per solve; the banded product form cannot apply here"
    ),
    "cli_compare": (
        "bhmc run on YAML files with baseline comparisons; dense baselines, submatrix "
        "assembly and YAML/CSV writing dominate and the solve is under 10 % of the pass"
    ),
}

# Case names per workload, in pass order.  Per-layer metrics are keyed by them.
CASES = {
    "banded_deep": ("mm1", "lattice", "mmc", "ld_qbd", "ldqbd_2p", "drift_mm1", "fixed_qbd"),
    "heavy_tail": ("heavy_tail",),
    "cli_compare": ("cli_lattice", "cli_mm1", "cli_fixed_qbd"),
}

# Phase generator of the product-form QBD; its stationary vector is
# (0.4, 0.6), which is also the fixed direction.  It is never jittered.
QBD_PHASE_GEN = np.array([[-1.5, 1.5], [1.0, -1.0]])
QBD_VARPI = np.array([0.4, 0.6])


def jitter(seed: int, case: str, *rates: float) -> list[float]:
    """Scale each rate by a seeded factor in ``1 +- JITTER``; seed 0 keeps them."""
    if seed == 0:
        return [float(r) for r in rates]
    rng = np.random.default_rng([seed, zlib.crc32(case.encode())])
    return [float(r) * (1.0 + JITTER * rng.uniform(-1.0, 1.0)) for r in rates]


def two_phase_ldqbd(arrivals, services, switch) -> BlockGenerator:
    """Coupled two-phase level-dependent QBD with the service pool capped at three levels."""
    arrivals, services = np.asarray(arrivals), np.asarray(services)
    phase_gen = np.array([[-switch[0], switch[0]], [switch[1], -switch[1]]])

    def block(k: int, l: int) -> np.ndarray:
        cap = min(k, 3)
        if l == k:
            drain = arrivals + (services * cap if k >= 1 else 0.0)
            return phase_gen - np.diag(drain)
        if l == k + 1:
            return np.diag(arrivals)
        if l == k - 1 and k >= 1:
            return np.diag(services * cap)
        return np.zeros((2, 2))

    return BlockGenerator(lambda k: 2, block, bandwidth=1)


def product_qbd(lam: float, mu: float) -> BlockGenerator:
    """Level- and phase-independent QBD whose phase process is autonomous."""
    eye = np.eye(2)

    def block(k: int, l: int) -> np.ndarray:
        if l == k:
            return QBD_PHASE_GEN - (lam + (mu if k >= 1 else 0.0)) * eye
        if l == k + 1:
            return lam * eye
        if l == k - 1 and k >= 1:
            return mu * eye
        return np.zeros((2, 2))

    return BlockGenerator(lambda k: 2, block, bandwidth=1)


@dataclass(frozen=True)
class Outcome:
    """What one operation produced, in the form the checks read."""

    n: int
    blocks: tuple[np.ndarray, ...]
    residual: float
    converged: bool
    alpha: np.ndarray  # augmentation direction on level n
    digest: str  # identifies the output bit for bit


def approx_digest(approx) -> str:
    h = hashlib.sha256(str(approx.n).encode())
    for b in approx.blocks:
        h.update(np.ascontiguousarray(b, dtype=float).tobytes())
    return h.hexdigest()


def _pivot_alpha(approx) -> np.ndarray:
    last = approx.pivot_trace[-1]
    alpha = np.zeros(len(approx.blocks[approx.n]))
    if last.pivot is None:
        return alpha
    alpha[last.pivot] = 1.0
    return alpha


@dataclass(frozen=True)
class SolveOp:
    """Build a generator and call one driver on it."""

    case: str
    make: Callable[[], BlockGenerator]
    solve: Callable[[BlockGenerator], object]
    reference: checks.Reference
    direction: np.ndarray | None = None

    def run(self, tracer=None):
        if tracer is None:
            gen = self.make()
            return gen, self.solve(gen)
        gen = tracer.wrap("models.build", self.make)()
        return gen, self.solve(replace(gen, block=tracer.wrap("generator.block", gen.block)))

    def outcome(self, result) -> Outcome:
        _, approx = result
        alpha = self.direction if self.direction is not None else _pivot_alpha(approx)
        return Outcome(
            approx.n, approx.blocks, approx.residual, approx.converged, alpha,
            approx_digest(approx),
        )

    def digest(self, result) -> str:
        return approx_digest(result[1])

    def generator(self, result) -> BlockGenerator:
        return result[0]


@dataclass(frozen=True)
class CliOp:
    """``bhmc run`` on one YAML file, in process."""

    case: str
    config: Path
    make: Callable[[], BlockGenerator]  # the same chain, built by the benchmark
    reference: checks.Reference
    direction: np.ndarray | None = None

    @property
    def distribution(self) -> Path:
        return self.config.with_suffix(".csv")

    @property
    def report(self) -> Path:
        return self.config.with_suffix(".report.yaml")

    def run(self, tracer=None):
        main = bhmc.cli.main if tracer is None else tracer.wrap("cli.main", bhmc.cli.main)
        with redirect_stdout(io.StringIO()):
            return main(["run", str(self.config)])

    def digest(self, code) -> str:
        if code != 0:
            return f"exit code {code}"
        return hashlib.sha256(self.distribution.read_bytes()).hexdigest()

    def out_bytes(self) -> int:
        return self.distribution.stat().st_size + self.report.stat().st_size

    def outcome(self, code) -> Outcome:
        if code != 0:
            raise checks.CheckFailed(f"{self.case}: bhmc run exited with {code}")
        csv = self.distribution.read_bytes()
        report = yaml.safe_load(self.report.read_text())["result"]
        blocks = checks.parse_distribution(csv.decode())
        if self.direction is not None:
            alpha = self.direction
        else:
            alpha = np.zeros(len(blocks[-1]))
            alpha[report["pivot_trace"][-1]["pivot"] - 1] = 1.0
        problems = checks.check_comparisons(report.get("comparisons", {}))
        if problems:
            raise checks.CheckFailed(f"{self.case}: " + "; ".join(problems))
        if report["stop_level"] != len(blocks) - 1:
            raise checks.CheckFailed(
                f"{self.case}: report stop level {report['stop_level']} but CSV has "
                f"{len(blocks)} levels"
            )
        return Outcome(
            len(blocks) - 1, blocks, float(report["residual"]), bool(report["converged"]),
            alpha, hashlib.sha256(csv).hexdigest(),
        )

    def generator(self, _code) -> BlockGenerator:
        return self.make()


def _mip(eps: float):
    return lambda gen: bhmc.solver.solve_mip(gen, SolverOptions(epsilon=eps))


def banded_deep(seed: int, quick: bool = False) -> list[SolveOp]:
    # ``quick`` (the smoke test) stops shallower wherever the reference check
    # holds at any depth; the fixed-direction law is only met to about 100 eps.
    e14, e12 = (1e-6, 1e-6) if quick else (1e-14, 1e-12)
    lam, mu = jitter(seed, "mm1", 0.98, 1.0)
    lat = jitter(seed, "lattice", 1.0, 1.2, 1.0, 1.2)
    c_lam, c_mu = jitter(seed, "mmc", 9.0, 1.0)
    p_lam, p_mu = jitter(seed, "ld_qbd", 20.0, 1.0)
    a1, a2, s1, s2, w1, w2 = jitter(seed, "ldqbd_2p", 1.0, 0.5, 2.5, 2.0, 1.0, 2.0)
    d_lam, d_mu = jitter(seed, "drift_mm1", 0.95, 1.0)
    q_lam, q_mu = jitter(seed, "fixed_qbd", 1.0, 1.05)
    cert = DriftCertificate(v_blocks=lambda l: np.full(1, 1.0 + l), b=1.0)
    varpi = FixedDirection(QBD_VARPI)
    return [
        SolveOp("mm1", lambda: bhmc.models.make_mm1(lam, mu), _mip(e14),
                checks.closed_form(checks.geometric_law(lam, mu), 1e-9)),
        SolveOp("lattice", lambda: bhmc.models.make_lattice_rw_2d(*lat), _mip(e14),
                checks.NO_REFERENCE),
        SolveOp("mmc", lambda: bhmc.models.make_mmc(c_lam, c_mu, 10), _mip(e14),
                checks.closed_form(checks.mmc_law(c_lam, c_mu, 10), 1e-9)),
        SolveOp("ld_qbd", lambda: bhmc.models.make_ld_qbd_birth_death(p_lam, p_mu), _mip(e14),
                checks.closed_form(checks.poisson_law(p_lam, p_mu), 1e-9)),
        SolveOp("ldqbd_2p", lambda: two_phase_ldqbd((a1, a2), (s1, s2), (w1, w2)), _mip(e14),
                checks.LBCL_DIRECT),
        SolveOp("drift_mm1", lambda: bhmc.models.make_mm1(d_lam, d_mu),
                lambda gen: bhmc.solver.solve_mip_drift(gen, cert, SolverOptions(epsilon=e12)),
                checks.closed_form(checks.geometric_law(d_lam, d_mu), 1e-9)),
        SolveOp("fixed_qbd", lambda: product_qbd(q_lam, q_mu),
                lambda gen: bhmc.solver.solve_fixed_direction(gen, varpi, SolverOptions(epsilon=1e-12)),
                checks.closed_form(checks.product_qbd_law(q_lam, q_mu, QBD_VARPI), 1e-9),
                direction=QBD_VARPI),
    ]


def heavy_tail(seed: int, quick: bool = False) -> list[SolveOp]:
    mu, tail_c = jitter(seed, "heavy_tail", 1.0, 1.0)
    return [
        SolveOp("heavy_tail", lambda: bhmc.models.make_heavy_tail_mg1(mu, tail_c),
                _mip(1e-3 if quick else 3e-6), checks.LBCL_DIRECT),
    ]


def cli_configs(seed: int, quick: bool = False) -> dict[str, dict]:
    """The YAML documents of ``cli_compare``, by case name."""
    # bright_taylor runs three times deeper, so its distance to a solve is
    # about 100 eps; quick stays below its 1e-8 tolerance.
    eps = 1e-11 if quick else 1e-14
    lat = dict(zip(("east", "west", "north", "south"),
                   jitter(seed, "cli_lattice", 1.0, 1.5, 1.0, 1.5)))
    m_lam, m_mu = jitter(seed, "cli_mm1", 0.95, 1.0)
    q_lam, q_mu = jitter(seed, "cli_fixed_qbd", 1.0, 1.05)
    every = ["lbcl_direct", "bright_taylor", "brute_force"]
    eye = np.eye(2)
    inline = {
        "bandwidth": 1,
        "levels": [{"0": (QBD_PHASE_GEN - q_lam * eye).tolist(), "1": (q_lam * eye).tolist()}],
        "tail": {
            "-1": (q_mu * eye).tolist(),
            "0": (QBD_PHASE_GEN - (q_lam + q_mu) * eye).tolist(),
            "1": (q_lam * eye).tolist(),
        },
    }
    return {
        "cli_lattice": {"model": {"name": "lattice_rw_2d", "params": lat},
                        "solver": {"epsilon": eps}, "compare": every},
        "cli_mm1": {"model": {"name": "mm1", "params": {"lam": m_lam, "mu": m_mu}},
                    "solver": {"epsilon": eps}, "compare": every},
        "cli_fixed_qbd": {"model": {"inline": inline},
                          "solver": {"variant": "fixed_direction",
                                     "epsilon": 1e-12,
                                     "varpi": QBD_VARPI.tolist()},
                          "compare": ["lbcl_direct", "bright_taylor"]},
    }


def cli_compare(seed: int, workdir: Path, quick: bool = False) -> list[CliOp]:
    """Write the YAML files into ``workdir`` and return one operation per file."""
    docs = cli_configs(seed, quick)
    paths = {}
    for case, doc in docs.items():
        path = workdir / f"{case}.yaml"
        doc = dict(doc, output={"distribution": str(path.with_suffix(".csv")),
                                "report": str(path.with_suffix(".report.yaml"))})
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        paths[case] = path
    lat = docs["cli_lattice"]["model"]["params"]
    mm1 = docs["cli_mm1"]["model"]["params"]
    q_lam, q_mu = jitter(seed, "cli_fixed_qbd", 1.0, 1.05)
    return [
        CliOp("cli_lattice", paths["cli_lattice"],
              lambda: bhmc.models.make_lattice_rw_2d(**lat), checks.NO_REFERENCE),
        CliOp("cli_mm1", paths["cli_mm1"], lambda: bhmc.models.make_mm1(**mm1),
              checks.closed_form(checks.geometric_law(mm1["lam"], mm1["mu"]), 1e-9)),
        CliOp("cli_fixed_qbd", paths["cli_fixed_qbd"], lambda: product_qbd(q_lam, q_mu),
              checks.closed_form(checks.product_qbd_law(q_lam, q_mu, QBD_VARPI), 1e-9),
              direction=QBD_VARPI),
    ]


def operations(name: str, seed: int, workdir: Path, quick: bool = False) -> list:
    if name == "banded_deep":
        return banded_deep(seed, quick)
    if name == "heavy_tail":
        return heavy_tail(seed, quick)
    if name == "cli_compare":
        return cli_compare(seed, workdir, quick)
    raise ValueError(f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}")


def set_up(name: str, seed: int, workdir: Path) -> int:
    """The set-up a user pays before the first solve: build every generator or load every YAML file.

    Returns the number of generators built, so the work cannot be skipped.
    """
    if name == "cli_compare":
        return len([bhmc.cli.load_config(workdir / f"{case}.yaml") for case in CASES[name]])
    return len([op.make() for op in operations(name, seed, workdir)])
