"""Benchmark of the bhmc first-exit solver: time to solution, memory and per-layer cost.

    python3 bench/run.py --workload banded_deep --seed 0 --seconds 20 --trace 0

Workloads: ``banded_deep``, ``heavy_tail``, ``cli_compare`` (see
``workloads.py``).  One process, OpenBLAS pinned to one thread.  A run:

1. measures ``setup_s`` in fresh interpreters (``--trace 0`` only);
2. runs one checked pass: every output is checked against its reference
   (``checks.py``), and, with ``--trace 0``, each operation runs under
   tracemalloc for ``peak_mem_mb``.  This pass is also the warm-up;
3. for ``--seconds`` seconds, runs timed passes (``--trace 0``), or
   alternates untraced and traced passes (``--trace 1``).  Every output of
   these passes must match the checked pass bit for bit.  Before each
   operation a fixed reference kernel is timed, outside the operation's
   time; ``pass_norm_s`` is the median pass time scaled by the median
   reference time, which cancels the drift of a shared host's speed.

Human-readable lines come first; the last line of standard output is the
JSON result.  Operations that raise, do not converge, exit non-zero or
fail a check are counted in ``failed``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Pinned before numpy is first imported, here or in a set-up interpreter.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)
if not (SRC / "bhmc" / "__init__.py").is_file():
    raise SystemExit(f"bench: no bhmc sources under {SRC}")
sys.path[:0] = [str(SRC), str(BENCH)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import check_outcome  # noqa: E402

SETUP_RUNS = 5
# Median reference_seconds() on the 2-core host the benchmark was written
# on; it only sets the scale of the normalized metrics.
REF_NOMINAL_S = 0.06
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import bhmc, bhmc.cli
import workloads
from pathlib import Path
built = workloads.set_up(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
print(time.perf_counter() - t0, built)
"""


def reference_seconds() -> float:
    """Time a fixed kernel: half small-array numpy calls, like the recursions, half BLAS.

    A shared host's speed drifts by up to 2x over tens of seconds.  The
    kernel sees the same drift as the passes timed next to it, so pass
    time over kernel time is steady where pass time alone is not.
    """
    one = np.ones((1, 1))
    family = [one] * 200
    dense = np.random.default_rng(0).random((200, 200))
    start = perf_counter()
    for _ in range(100):
        [one @ f for f in family]
        dense @ dense
    return perf_counter() - start


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():  # a plain checkout has no history to name
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "bhmc").glob("*.py")):
        source.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def measure_setup(name: str, seed: int, workdir: Path) -> list[float]:
    """Seconds to import bhmc and build the workload, once per fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]), **BLAS_ENV)
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, name, str(seed), str(workdir)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[0]))
    return times


class Run:
    """Operations of one workload and what their passes produced."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.stop_levels: dict[str, int] = {}
        self.peak_bytes = 0
        self.failed_ops = 0
        self.ref_s: list[float] = []

    def _fail(self, case: str, why: str) -> None:
        if len(self.failures) < 50:
            self.failures.append(f"{case}: {why}")

    def checked_pass(self, measure_memory: bool) -> None:
        """Run every operation once and check its output against the reference."""
        for op in self.ops:
            self.attempted += 1
            if measure_memory:
                tracemalloc.start()
            try:
                result = op.run()
            except Exception as exc:
                self._fail(op.case, f"{type(exc).__name__}: {exc}")
                self.failed_ops += 1
                continue
            finally:
                if measure_memory:
                    self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            try:
                out = op.outcome(result)
                problems = check_outcome(op.generator(result), out, op.reference)
            except Exception as exc:
                problems = [f"{type(exc).__name__}: {exc}"]
            else:
                self.digests[op.case] = out.digest
                self.stop_levels[op.case] = out.n
            for p in problems:
                self._fail(op.case, p)
            self.failed_ops += bool(problems)

    def timed_pass(self, tracer=None) -> tuple[float, int]:
        """Wall seconds of the operations alone, and bytes the CLI wrote."""
        gc.collect()  # every pass starts from the same heap
        seconds, out_bytes = 0.0, 0
        for op in self.ops:
            self.attempted += 1
            if tracer is not None:
                tracer.case = op.case
            self.ref_s.append(reference_seconds())
            start = perf_counter()
            try:
                result = op.run(tracer)
            except Exception as exc:
                seconds += perf_counter() - start
                self._fail(op.case, f"{type(exc).__name__}: {exc}")
                self.failed_ops += 1
                continue
            seconds += perf_counter() - start
            try:
                digest = op.digest(result)
                if isinstance(op, workloads.CliOp):
                    out_bytes += op.out_bytes()
            except Exception as exc:
                digest = f"{type(exc).__name__}: {exc}"
            if digest != self.digests.get(op.case):
                self._fail(op.case, f"output differs from the checked pass ({digest})")
                self.failed_ops += 1
        return seconds, out_bytes

    @property
    def levels(self) -> int:
        return sum(self.stop_levels.values())


def timed_loop(seconds: float, body) -> None:
    """Call ``body`` until ``seconds`` have passed, at least once."""
    started = perf_counter()
    body()
    while perf_counter() - started < seconds:
        body()


def measure(name: str, seed: int, seconds: float, trace: bool,
            workdir: Path) -> tuple[dict, dict, Run]:
    """Run one workload; returns (metrics, detail, run)."""
    run = Run(workloads.operations(name, seed, workdir))
    detail: dict = {}
    if not trace:
        setup = measure_setup(name, seed, workdir)
        detail["setup_s"] = setup
    run.checked_pass(measure_memory=not trace)
    untraced: list[float] = []
    if not trace:
        timed_loop(seconds, lambda: untraced.append(run.timed_pass()[0]))
        pass_s = statistics.median(untraced)
        norm_s = pass_s * REF_NOMINAL_S / statistics.median(run.ref_s)
        detail["raw"] = {"pass_s": pass_s, "levels_per_s": run.levels / pass_s}
        metrics = {
            "pass_norm_s": norm_s,
            "levels_per_norm_s": run.levels / norm_s,
            "peak_mem_mb": run.peak_bytes / 1e6,
            "setup_s": statistics.median(setup),
        }
    else:
        traced: list[tuple[float, dict]] = []
        scaled: dict[bool, list[float]] = {False: [], True: []}

        def timed_scaled(tracer=None):
            # pass time over the reference time measured within the pass
            mark = len(run.ref_s)
            t, out_bytes = run.timed_pass(tracer)
            scaled[tracer is not None].append(t / statistics.median(run.ref_s[mark:]))
            return t, out_bytes

        def pair():
            untraced.append(timed_scaled()[0])
            tracer = tracing.Tracer()
            tracer.install()
            try:
                t, out_bytes = timed_scaled(tracer)
            finally:
                tracer.uninstall()
            layer = tracer.metrics(t, spec.ALL_CASES)
            layer["cli.output_bytes"] = out_bytes
            traced.append((t, layer))
            detail["unmeasured"] = sorted(set(tracer.unmeasured))

        timed_loop(seconds, pair)
        metrics = {
            key: statistics.median(layer[key] for _, layer in traced) for key in traced[0][1]
        }
        metrics["trace.overhead_frac"] = (
            statistics.median(scaled[True]) / statistics.median(scaled[False]) - 1.0
        )
        detail["traced_pass_s"] = [t for t, _ in traced]
    detail["pass_s"] = untraced
    detail["ref_s"] = run.ref_s
    detail["stop_levels"] = run.stop_levels
    detail["digests"] = run.digests
    detail["failed_frac"] = run.failed_ops / run.attempted
    detail["failures"] = run.failures
    return metrics, detail, run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        metrics, detail, run = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    wanted = spec.PER_LAYER if args.trace else spec.END_TO_END
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    print(f"bench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("machine " + json.dumps(machine_info()))
    print("detail " + json.dumps(detail))
    notes = {
        "pass_norm_s": f"median of {len(detail['pass_s'])} passes, scaled by "
                       f"{len(detail['ref_s'])} reference timings",
        "setup_s": f"median of {SETUP_RUNS} fresh interpreters",
        "trace.overhead_frac": f"{len(detail.get('traced_pass_s', []))} traced passes",
    }
    for m in wanted:
        print(f"  {m['name']:<40} {metrics[m['name']]:>14.6g} {m['unit']:<6} "
              f"{notes.get(m['name'], '')}".rstrip())
    if "raw" in detail:
        print(f"  {'pass_s (unscaled)':<40} {detail['raw']['pass_s']:>14.6g} s")
        print(f"  {'levels_per_s (unscaled)':<40} {detail['raw']['levels_per_s']:>14.6g} 1/s")
    print(f"  {'failed_frac':<40} {detail['failed_frac']:>14.6g} "
          f"({run.failed_ops} of {run.attempted} operations)")
    for line in detail["failures"]:
        print(f"  FAILED {line}")
    result = {
        "correct": run.failed_ops == 0,
        "attempted": run.attempted,
        "failed": run.failed_ops,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
