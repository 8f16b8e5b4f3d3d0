"""Print a SHA-256 digest of every benchmark operation's output, to compare commits bit for bit.

    python3 tools/digests.py [SEED ...]

For each workload of ``bench/workloads.py``, at seeds 0 and 7 unless
others are given, prints one line per operation with two digests, so that
a change which moves one part of an output can show the other part
unchanged.  A solve prints ``workload seed case answer=… trace=…``: the
answer digest covers its stop level, residual, convergence flag and
blocks, the trace digest its whole pivot trace.  A ``bhmc run`` operation
prints ``workload seed case csv=… report=…``: the distribution CSV, and
the YAML report with its ``wall_time_s`` line left out and the temporary
directory the files are written to named ``WORKDIR``.  The sources are read
from the ``src`` and ``bench`` directories beside this script's directory,
with OpenBLAS pinned to one thread as the benchmark pins it, so running the
script from two checkouts and comparing the lines shows whether their
outputs are identical.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"  # before numpy loads OpenBLAS
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def _sha(*parts: bytes) -> str:
    return hashlib.sha256(b"".join(parts)).hexdigest()


def solve_digest(approx) -> str:
    head = repr((approx.n, approx.residual, approx.converged)).encode()
    blocks = (np.ascontiguousarray(b, dtype=float).tobytes() for b in approx.blocks)
    return f"answer={_sha(head, *blocks)} trace={_sha(repr(approx.pivot_trace).encode())}"


def cli_digest(op, workdir: str) -> str:
    report = op.report.read_text().replace(workdir, "WORKDIR").splitlines(keepends=True)
    kept = "".join(line for line in report if "wall_time_s" not in line)
    return f"csv={_sha(op.distribution.read_bytes())} report={_sha(kept.encode())}"


def main(seeds: list[int]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            for seed in seeds:
                for op in workloads.operations(name, seed, Path(tmp)):
                    result = op.run()
                    if isinstance(op, workloads.CliOp):
                        digest = cli_digest(op, tmp) if result == 0 else f"exit code {result}"
                    else:
                        digest = solve_digest(result[1])
                    print(name, seed, op.case, digest, flush=True)


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]] or [0, 7])
