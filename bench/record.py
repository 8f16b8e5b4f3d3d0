"""Write ``BENCHMARK.json`` and the seed-0 data point of the benchmark.

    python3 bench/record.py [--seconds 20]

Runs every workload at seed 0 through ``bench/run.py``, once untraced and
once traced, each in its own process, then writes:

* ``BENCHMARK.json`` at the repository root, from ``spec.py``;
* ``bench/results_seed0.json``: machine info, the end-to-end metrics, the
  per-layer table, stop levels and output digests, which end-to-end metric
  each per-layer metric should move, and the known defects as reproduced
  by this run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run  # pins BLAS and puts src/ on the path
import spec
import workloads
from bhmc import EmptyCandidateSet, SolverOptions, make_ld_qbd_birth_death, solve_mip

RESULTS = run.BENCH / "results_seed0.json"


def bench_run(name: str, trace: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", name, "--seed", "0",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    lines = proc.stdout.splitlines()
    pick = {line.split(" ", 1)[0]: line.split(" ", 1)[1] for line in lines[:-1]
            if line.startswith(("machine ", "detail "))}
    return {
        "machine": json.loads(pick["machine"]),
        "detail": json.loads(pick["detail"]),
        "result": json.loads(lines[-1]),
    }


def known_defects() -> list[dict]:
    """Each defect with what the current code does on its reproducer."""
    try:
        solve_mip(make_ld_qbd_birth_death(28.0, 1.0), SolverOptions(epsilon=1e-14))
        observed = "solved without error"
    except EmptyCandidateSet as exc:
        observed = f"EmptyCandidateSet: {exc}"
    return [{
        "reproducer": "solve_mip(make_ld_qbd_birth_death(28, 1), SolverOptions(epsilon=1e-14))",
        "observed": observed,
        "cause": (
            "With K_set={0} the candidate ratios scale with pi_0 = exp(-lam/mu) and fall "
            "below the absolute floor TAU_REL = 1e-12 in select_pivot, so an ergodic chain "
            "is called vanishing."
        ),
        "effect_on_benchmark": "banded_deep uses ld_qbd_birth_death(20, 1), which solves",
        "fix": "ROADMAP item 5 (numerical-health guards)",
    }]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    args = parser.parse_args()

    (run.ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
    record: dict = {"seed": 0, "run_seconds": args.seconds, "workloads": {}}
    for name in workloads.WORKLOADS:
        untraced = bench_run(name, 0, args.seconds)
        traced = bench_run(name, 1, args.seconds)
        record["machine"] = untraced["machine"]
        record["workloads"][name] = {
            "why": workloads.WORKLOADS[name],
            "end_to_end": {k: v["value"] for k, v in untraced["result"]["metrics"].items()},
            "attempted": untraced["result"]["attempted"] + traced["result"]["attempted"],
            "failed": untraced["result"]["failed"] + traced["result"]["failed"],
            "detail": untraced["detail"],
            "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            "traced_detail": traced["detail"],
        }
        print(f"{name}: {record['workloads'][name]['end_to_end']}")
    record["units"] = spec.UNITS
    record["better"] = {m["name"]: m["better"] for m in spec.END_TO_END + spec.PER_LAYER}
    record["should_move"] = spec.SHOULD_MOVE
    record["known_defects"] = known_defects()
    RESULTS.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
