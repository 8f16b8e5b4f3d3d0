"""Config-driven batch front end.

A run configuration is one YAML document naming either a catalog model or
inline banded block tables, the solver variant and its options, optional
baseline comparisons, and output paths.  ``run`` writes the distribution
as CSV and a machine-parseable YAML report; ``inspect`` dumps the full
per-checkpoint state at one level; ``validate`` checks the generator for
proper-Q-matrix violations.  Identical configs produce byte-identical
distribution files; phase labels in all output are 1-indexed.

Exit codes: 0 converged, 2 not converged, 1 error.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np
import yaml

from . import baseline
from .errors import BhmcError, ConfigError
from .generator import BlockGenerator, _as_floats, _as_number, _check_levels
from .generator import lbcl_augment, principal_submatrix, validate_proper_q
from .lfp import DriftCertificate
from .models import build_model
from .recursions import advance, init_state
from .solver import (
    Approximation,
    CheckpointSchedule,
    FixedDirection,
    SolverOptions,
    _check_variant,
    _select_at,
    residual_q_norm,
    solve,
    tv_distance,
)

BASELINE_NAMES = ("lbcl_direct", "bright_taylor", "brute_force")

# The report never folds a line: libyaml and PyYAML's own emitter fold long
# double-quoted strings at different places, and unfolded they agree byte
# for byte.  This is the largest width libyaml accepts.
REPORT_WIDTH = 2**31 - 1


@dataclass
class RunConfig:
    """Parsed and validated run configuration."""

    generator: BlockGenerator
    options: SolverOptions
    variant: str
    cert: DriftCertificate | None
    direction: FixedDirection | None
    compare: tuple[str, ...]
    distribution_path: str | None
    report_path: str | None
    validate_levels: int
    validate_tol: float
    raw: dict


def _mapping(node: Any, where: str, allowed: set[str] | None = None) -> dict:
    """``node`` as a mapping, with every key in ``allowed`` when that is given."""
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(node).__name__}")
    if allowed is not None and not set(node) <= allowed:
        raise ConfigError(f"unknown keys {sorted(set(node) - allowed)} in {where}")
    return node


def _number(value: Any, where: str, kind: type = float):
    """``value`` as a ``kind`` under the library's rule, text parsed first.

    Integer text is read by ``int`` first, so it is not rounded through a float.
    """
    if isinstance(value, str):
        for parse in (int, float) if kind is int else (float,):
            try:
                value = parse(value)
                break
            except ValueError:
                pass  # the rule refuses the text itself, naming ``where``
    return _as_number(value, where, kind)


def _int_list(value: Any, name: Callable[[str], str], key: str) -> list[int]:
    if not isinstance(value, list):
        raise ConfigError(f"{name(key)} must be a list of integers, got {value!r}")
    return [_number(x, name(f"{key}[{i}]"), int) for i, x in enumerate(value)]


def _matrix(node: Any, where: str) -> np.ndarray:
    m = _as_floats(node, ConfigError, where)
    if m.ndim != 2:
        raise ConfigError(f"{where} must be a nested (row-major) array of rows")
    return m


def _inline_generator(node: Any) -> BlockGenerator:
    """Generator from explicit per-level block tables plus a repeating tail.

    ``levels[k]`` maps column offsets (as strings or ints, e.g. ``"-1"``,
    ``"0"``, ``"1"``) to blocks; ``levels[0]`` has no ``-1``, as no level
    lies below it.  Levels beyond the explicit list reuse the
    ``tail`` table (default: the last explicit level's table), which forces
    a constant phase count in the tail.
    """
    node = _mapping(node, "model.inline", {"bandwidth", "levels", "tail"})
    if "bandwidth" not in node or "levels" not in node:
        raise ConfigError("model.inline needs 'bandwidth' and 'levels'")

    def phase_count(k: int) -> int:
        return counts[k] if k < explicit else tail_m

    def block(k: int, l: int) -> np.ndarray:
        table = tables[k] if k < explicit else tail
        b = table.get(l - k)
        if b is None or l < 0:
            return np.zeros((phase_count(k), phase_count(l)))
        return b

    # built first: the band it checks bounds the offsets of the tables read next
    bandwidth = _number(node["bandwidth"], "model.inline.bandwidth", int)
    gen = BlockGenerator(phase_count, block, bandwidth)
    raw_levels = node["levels"]
    if not isinstance(raw_levels, list) or not raw_levels:
        raise ConfigError("model.inline.levels must be a nonempty list")

    def parse_table(table: Any, where: str) -> dict[int, np.ndarray]:
        table = _mapping(table, where)
        out = {}
        for key, value in table.items():
            offset = _number(key, f"{where}: offset", int)
            if offset < -1 or offset > bandwidth:
                raise ConfigError(
                    f"{where}: offset {offset} outside -1..{bandwidth}"
                )
            out[offset] = _matrix(value, f"{where}[{key}]")
        if 0 not in out:
            raise ConfigError(f"{where} must include the diagonal block '0'")
        return out

    tables = [parse_table(t, f"model.inline.levels[{k}]") for k, t in enumerate(raw_levels)]
    if -1 in tables[0]:
        raise ConfigError(
            "model.inline.levels[0]: offset -1 has no level below; give the tail its own table"
        )
    tail = parse_table(node["tail"], "model.inline.tail") if "tail" in node else tables[-1]
    counts = [t[0].shape[0] for t in tables]
    tail_m = tail[0].shape[0]
    if counts[-1] != tail_m:
        raise ConfigError(
            f"last explicit level has {counts[-1]} phases but tail has {tail_m}"
        )
    explicit = len(tables)
    _check_levels(gen, explicit + bandwidth)  # shapes, signs
    return gen


def _build_generator(node: Any) -> BlockGenerator:
    node = _mapping(node, "model")
    if ("name" in node) == ("inline" in node):
        raise ConfigError("model needs exactly one of 'name' or 'inline'")
    if "inline" in node:
        _mapping(node, "model", {"inline"})
        return _inline_generator(node["inline"])
    _mapping(node, "model", {"name", "params"})
    params = _mapping(node.get("params", {}), "model.params")
    return build_model(node["name"], {k: _number(v, f"model.params.{k}") for k, v in params.items()})


def _build_schedule(node: Any, name: Callable[[str], str]) -> CheckpointSchedule:
    node = _mapping(node, name("schedule"), {"kind", "stride", "factor", "levels"})
    kind = node.get("kind", "every")
    if isinstance(kind, str) and kind in CheckpointSchedule.ARGS:  # it names others
        unread = sorted(node.keys() - {"kind", CheckpointSchedule.ARGS[kind]})
        if unread:
            key = name("schedule." + unread[0])
            raise ConfigError(f"{key} is not read by schedule kind {kind}")
    kwargs: dict[str, Any] = {"kind": kind}
    if "stride" in node:
        kwargs["stride"] = _number(node["stride"], name("schedule.stride"), int)
    if "factor" in node:
        kwargs["factor"] = _number(node["factor"], name("schedule.factor"))
    if "levels" in node:
        kwargs["levels"] = tuple(_int_list(node["levels"], name, "schedule.levels"))
    return CheckpointSchedule(**kwargs)


def _options(base: SolverOptions, node: dict, name: Callable[[str], str]) -> SolverOptions:
    """``base`` with the settings of ``node``, a ``solver:`` mapping; errors name ``name(key)``."""
    kwargs: dict[str, Any] = {}
    if "epsilon" in node:
        kwargs["epsilon"] = _number(node["epsilon"], name("epsilon"))
    if "k_set" in node:
        kwargs["K_set"] = frozenset(_int_list(node["k_set"], name, "k_set"))
    if "max_level" in node:
        kwargs["max_level"] = _number(node["max_level"], name("max_level"), int)
    if node.get("schedule") is not None:
        kwargs["checkpoint_schedule"] = _build_schedule(node["schedule"], name)
    return replace(base, **kwargs)


def _build_cert(node: Any, gen: BlockGenerator) -> DriftCertificate:
    node = _mapping(node, "solver.drift", {"v", "b"})
    v_node = _mapping(node.get("v"), "solver.drift.v", {"affine", "vectors"})
    if ("affine" in v_node) == ("vectors" in v_node):
        raise ConfigError("solver.drift.v needs exactly one of 'affine' or 'vectors'")
    if "affine" in v_node:
        aff = _mapping(v_node["affine"], "solver.drift.v.affine", {"intercept", "slope"})
        intercept = _number(aff.get("intercept", 1.0), "solver.drift.v.affine.intercept")
        slope = _number(aff.get("slope", 1.0), "solver.drift.v.affine.slope")

        def v_blocks(l: int) -> np.ndarray:
            return np.full(gen.phase_count(l), intercept + slope * l)

    else:
        raw = v_node["vectors"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("solver.drift.v.vectors must be a nonempty list")
        vectors = [_as_floats(v, ConfigError, f"solver.drift.v.vectors[{l}]")
                   for l, v in enumerate(raw)]

        def v_blocks(l: int) -> np.ndarray:
            if l >= len(vectors):
                raise ConfigError(
                    f"drift vectors cover levels 0..{len(vectors) - 1}, but level {l} was read; "
                    f"on bandwidth {gen.bandwidth} they support max_level up to "
                    f"{len(vectors) - 1 - gen.bandwidth}"
                )
            return vectors[l]

    cert = DriftCertificate(v_blocks=v_blocks, b=_number(node.get("b", 1.0), "solver.drift.b"))
    if "vectors" in v_node:  # every given vector is checked, read or not
        for l in range(len(vectors)):
            cert.v(l, gen.phase_count(l))
    return cert


def load_config(path: str | Path) -> RunConfig:
    """Parse and check one YAML run configuration, variant included, before any solve."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    raw = _mapping(raw, "config", {"model", "solver", "compare", "output", "validate"})
    if "model" not in raw:
        raise ConfigError("config needs a 'model' section")
    gen = _build_generator(raw["model"])

    sol = _mapping(
        raw.get("solver", {}),
        "solver",
        {"variant", "epsilon", "k_set", "max_level", "schedule", "drift", "varpi"},
    )
    options = _options(SolverOptions(), sol, "solver.{}".format)
    variant = sol.get("variant", "mip_new")
    cert = _build_cert(sol["drift"], gen) if "drift" in sol else None
    direction = None
    if "varpi" in sol:
        direction = FixedDirection(_as_floats(sol["varpi"], ConfigError, "solver.varpi"))
    _check_variant(variant, cert, direction)

    compare = raw.get("compare", [])
    if not isinstance(compare, list):
        raise ConfigError("compare must be a list of baseline names")
    for name in compare:
        if name not in BASELINE_NAMES:
            raise ConfigError(
                f"unknown baseline {name!r}; expected one of {BASELINE_NAMES}"
            )
    if "bright_taylor" in compare and gen.bandwidth != 1:
        raise ConfigError(f"compare: bright_taylor needs bandwidth 1, got {gen.bandwidth}")

    out = _mapping(raw.get("output", {}), "output", {"distribution", "report"})
    for key, value in out.items():
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"output.{key} must be a path, got {value!r}")
    val = _mapping(raw.get("validate", {}), "validate", {"levels", "tol"})

    return RunConfig(
        generator=gen,
        options=options,
        variant=variant,
        cert=cert,
        direction=direction,
        compare=tuple(compare),
        distribution_path=out.get("distribution"),
        report_path=out.get("report"),
        validate_levels=_number(val.get("levels", 20), "validate.levels", int),
        validate_tol=_number(val.get("tol", 1e-12), "validate.tol"),
        raw=raw,
    )


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace | None) -> RunConfig:
    """``cfg`` with the flags in ``args`` read by ``_options``, as the keys they override."""
    node = {k: getattr(args, k, None) for k in ("epsilon", "k_set", "max_level", "schedule")}
    if node["k_set"] is not None:
        node["k_set"] = node["k_set"].split(",")
    if node["schedule"] is not None:
        node["schedule"] = _parse_schedule_flag(node["schedule"])
    node = {k: v for k, v in node.items() if v is not None}
    cfg.options = _options(cfg.options, node, lambda k: "--" + k.split("[")[0].replace("_", "-"))
    return cfg


def _parse_schedule_flag(text: str) -> dict[str, Any]:
    """``KIND:ARG`` as a ``solver.schedule`` mapping; ARG is the stride, the factor or levels."""
    kind, colon, arg = text.partition(":")
    node: dict[str, Any] = {"kind": kind}
    # every:ARG reads as a stride, which _build_schedule refuses by name
    key = "stride" if kind == "every" and colon else CheckpointSchedule.ARGS.get(kind)
    if key is not None:
        node[key] = arg.split(",") if kind == "explicit" else arg
    return node


def _write(path: str, text: str, where: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {where} {path}: {exc}") from exc


def _write_distribution(path: str, approx: Approximation) -> None:
    lines = ["level,phase,probability"]
    for k, blk in enumerate(approx.blocks):
        for i, p in enumerate(blk):
            lines.append(f"{k},{i + 1},{p:.17g}")
    _write(path, "\n".join(lines) + "\n", "output.distribution")


def _trace_payload(approx: Approximation) -> list[dict]:
    out = []
    for rec in approx.pivot_trace:
        entry = {
            "level": rec.level,
            "pivot": None if rec.pivot is None else rec.pivot + 1,
            "ratio": None if rec.ratio is None else float(rec.ratio),
            "residual": float(rec.residual),
        }
        if rec.step_distance is not None:
            entry["step_distance"] = float(rec.step_distance)
        out.append(entry)
    return out


def _comparisons(cfg: RunConfig, approx: Approximation) -> dict[str, dict]:
    """Pairwise distances between the primary answer and requested baselines."""
    results: dict[str, dict] = {}
    flat = approx.flatten()
    pivot = approx.pivot_trace[-1].pivot
    if pivot is None:
        alpha = cfg.direction.varpi
    else:
        alpha = np.eye(len(approx.blocks[approx.n]))[pivot]
    for name in cfg.compare:
        depth, overhang = approx.n, 0.0
        if name == "lbcl_direct":
            other = baseline.lbcl_direct(cfg.generator, depth, alpha)
        elif name == "brute_force":
            sub = principal_submatrix(cfg.generator, depth)
            other = baseline.brute_force_stationary(lbcl_augment(sub, alpha))
        else:  # bright_taylor over levels 0..3n: the levels above n count by their mass
            depth = 3 * approx.n
            bt = baseline.bright_taylor(cfg.generator, approx.n, depth - approx.n)
            other, overhang = bt.flatten(), bt.tail_mass
        results[name] = {"depth": depth, "tv_distance": float(tv_distance(flat, other) + overhang)}
    return results


def run(config_path: str, args: argparse.Namespace | None = None) -> int:
    """Execute the configured solve; write distribution, report, comparisons."""
    cfg = _apply_overrides(load_config(config_path), args)
    started = time.perf_counter()
    approx = solve(cfg.generator, cfg.options, cfg.variant, cfg.cert, cfg.direction)
    elapsed = time.perf_counter() - started
    comparisons = _comparisons(cfg, approx)
    if cfg.distribution_path:
        _write_distribution(cfg.distribution_path, approx)
    report = {
        "config": cfg.raw,
        "result": {
            "variant": approx.variant,
            "converged": bool(approx.converged),
            "stop_level": int(approx.n),
            "residual": float(approx.residual),
            "epsilon": float(cfg.options.epsilon),
            "total_mass": float(approx.flatten().sum()),
            "pivot_trace": _trace_payload(approx),
            "wall_time_s": elapsed,
        },
    }
    if comparisons:
        report["result"]["comparisons"] = comparisons
    if cfg.report_path:
        # libyaml's emitter, when PyYAML has it, writes the same bytes faster
        dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
        text = yaml.dump(report, Dumper=dumper, sort_keys=False, width=REPORT_WIDTH)
        _write(cfg.report_path, text, "output.report")
    status = "converged" if approx.converged else "NOT converged"
    print(
        f"{status} at level {approx.n}: residual {approx.residual:.6g} "
        f"(epsilon {cfg.options.epsilon:g}), {elapsed:.3f}s"
    )
    for name, info in comparisons.items():
        print(f"compare {name}: tv_distance {info['tv_distance']:.6g}")
    return 0 if approx.converged else 2


def _format_array(a: np.ndarray) -> str:
    return np.array2string(np.asarray(a), precision=12, suppress_small=False)


def inspect(config_path: str, level: int, args: argparse.Namespace | None = None) -> int:
    """Print the full checkpoint state at one level."""
    cfg = _apply_overrides(load_config(config_path), args)
    if level < 0 or level > cfg.options.max_level:
        raise ConfigError(f"level {level} outside 0..max_level={cfg.options.max_level}")
    state = init_state(cfg.generator, cfg.options.K_set)
    for _ in range(level):
        state = advance(state, cfg.generator)
    print(f"level: {state.n}")
    print(f"U_star:\n{_format_array(state.U_star)}")
    print(f"u_star: {_format_array(state.u_star)}")
    if state.u_star_K is None:
        print("u_star_K: (not yet defined: level below max(K_set))")
        return 0
    print(f"u_star_K: {_format_array(state.u_star_K)}")
    sel = _select_at(state, cfg.generator)
    print(f"I_plus: {(np.flatnonzero(sel.I_plus) + 1).tolist()}")
    print(f"O_plus: {(np.flatnonzero(sel.O_plus) + 1).tolist()}")
    print(f"J_star: {(sel.J_star + 1).tolist()}")
    print(f"pivot: {sel.pivot + 1}")
    print(f"ratio: {sel.ratio:.17g}")
    print(f"residual: {residual_q_norm(state, sel.pivot):.17g}")
    return 0


def validate(config_path: str) -> int:
    """Run proper-Q-matrix validation on the configured generator."""
    cfg = load_config(config_path)
    report = validate_proper_q(cfg.generator, cfg.validate_levels, cfg.validate_tol)
    if report.ok:
        print(
            f"OK: no violations over levels 0..{report.levels} at tol {report.tol:g}"
        )
        return 0
    for v in report.violations:
        print(f"conservativity: level {v.level} phase {v.phase + 1} value {v.value:.6g}")
    print(f"{len(report.violations)} violation(s)")
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bhmc",
        description="Stationary distributions of upper block-Hessenberg Markov chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("config", help="path to YAML run configuration")
        p.add_argument("--epsilon", default=None, help="override stopping tolerance")
        p.add_argument("--k-set", default=None, help="override index set, e.g. '0' or '0,1,2'")
        p.add_argument("--max-level", default=None, help="override level cap")
        p.add_argument(
            "--schedule",
            default=None,
            help="override checkpoint schedule: every | arithmetic:S | geometric:F | explicit:N1,N2,...",
        )

    p_run = sub.add_parser("run", help="solve and write distribution + report")
    add_common(p_run)
    p_ins = sub.add_parser("inspect", help="dump recursion state at one level")
    add_common(p_ins)
    p_ins.add_argument("--level", required=True, help="level to inspect")
    p_val = sub.add_parser("validate", help="check the generator for violations")
    p_val.add_argument("config", help="path to YAML run configuration")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return run(args.config, args)
        if args.command == "inspect":
            return inspect(args.config, _number(args.level, "--level", int), args)
        return validate(args.config)
    except BhmcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
