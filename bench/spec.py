"""What the benchmark reports: workloads, metrics, units, directions and bounds.

``benchmark_json()`` is the content of ``BENCHMARK.json`` at the repository
root; ``bench/record.py`` writes it from here, so the file and the code
cannot drift apart.
"""

from __future__ import annotations

from tracing import LAYERS
from workloads import CASES, WORKLOADS

RUN_SECONDS = 20
COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]

# bound: share of the parent's median by which the metric may worsen.  On a
# shared 2-core host the unscaled pass times of ten seeds spread by 7-24 %
# (quartile distance over median), because host speed drifts by up to 2x
# over tens of seconds; scaled by a reference kernel timed alongside (see
# run.py) they spread by 4-12 %, so the time bounds are the widest allowed.
# peak_mem_mb is deterministic up to tracemalloc noise of about 3 % on the
# 0.3 MB heavy_tail peak.
END_TO_END = [
    {"name": "pass_norm_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "levels_per_norm_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_mem_mb", "unit": "MB", "better": "lower", "bound": 0.15},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]

ALL_CASES = [case for cases in CASES.values() for case in cases]


def _per_layer() -> list[dict]:
    rows = [
        ("recursions.advance_calls", "count", "lower"),
        ("recursions.advance_self_s", "s", "lower"),
        ("recursions.lu_calls", "count", "lower"),
        ("recursions.lu_s", "s", "lower"),
        ("generator.block_calls", "count", "lower"),
        ("generator.block_s", "s", "lower"),
        ("generator.principal_submatrix_calls", "count", "lower"),
        ("generator.principal_submatrix_s", "s", "lower"),
        ("lfp.select_calls", "count", "lower"),
        ("lfp.select_s", "s", "lower"),
        ("solver.solve_calls", "count", "lower"),
        ("solver.self_s", "s", "lower"),
    ]
    rows += [(f"solver.solve_s.{case}", "s", "lower") for case in ALL_CASES]
    rows += [(f"solver.stop_level.{case}", "level", "lower") for case in ALL_CASES]
    for name in ("lbcl_direct", "bright_taylor", "brute_force"):
        rows += [(f"baseline.{name}_calls", "count", "lower"), (f"baseline.{name}_s", "s", "lower")]
    rows += [
        ("cli.load_config_s", "s", "lower"),
        ("cli.self_s", "s", "lower"),
        ("cli.output_bytes", "B", "lower"),
        ("models.build_s", "s", "lower"),
    ]
    rows += [(f"{layer}.errors", "count", "lower") for layer in LAYERS]
    rows += [
        ("trace.overhead_frac", "frac", "lower"),
        ("trace.coverage_frac", "frac", "higher"),
        ("trace.unmeasured", "count", "lower"),
    ]
    return [{"name": n, "unit": u, "better": b} for n, u, b in rows]


PER_LAYER = _per_layer()
UNITS = {m["name"]: m["unit"] for m in END_TO_END + PER_LAYER}

# Which end-to-end metric each per-layer metric should move, and on which workload.
SHOULD_MOVE = {
    "recursions.advance_*": "pass_norm_s, levels_per_norm_s, peak_mem_mb on banded_deep; pass_norm_s on heavy_tail",
    "recursions.lu_*": "pass_norm_s on banded_deep (lattice)",
    "generator.block_*": "pass_norm_s on heavy_tail",
    "generator.principal_submatrix_*": "pass_norm_s on cli_compare",
    "lfp.select_*": "pass_norm_s on banded_deep",
    "solver.*": "pass_norm_s on banded_deep",
    "baseline.*": "pass_norm_s on cli_compare",
    "cli.*": "pass_norm_s, setup_s on cli_compare",
    "models.build_s": "setup_s on all",
    "*.errors, trace.*": "failed operations (the result's failed count) on all",
}


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }
