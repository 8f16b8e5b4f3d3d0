"""Smoke test of the benchmark itself, at reduced depth.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import pytest

import run  # pins BLAS and puts src/ on the path
import spec
import tracing
import workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_runs_checked_timed_and_traced(name, tmp_path):
    bench = run.Run(workloads.operations(name, 7, tmp_path, quick=True))
    bench.checked_pass(measure_memory=True)
    assert bench.failures == []
    assert bench.peak_bytes > 0
    seconds, _ = bench.timed_pass()
    assert seconds > 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_s, out_bytes = bench.timed_pass(tracer)
    finally:
        tracer.uninstall()
    assert bench.failures == [] and bench.failed_ops == 0
    layer = tracer.metrics(traced_s, spec.ALL_CASES)
    assert tracer.unmeasured == []
    assert layer["solver.solve_calls"] == len(bench.ops)
    assert layer["generator.block_calls"] > 0
    assert abs(layer["trace.coverage_frac"] - 1.0) < 0.05
    for case in workloads.CASES[name]:
        assert layer[f"solver.stop_level.{case}"] == bench.stop_levels[case]
    assert (out_bytes > 0) == (name == "cli_compare")


@dataclass(frozen=True)
class Perturbed:
    """An operation whose output has 1e-8 of mass moved from level 0 to level 1."""

    op: workloads.SolveOp

    def __getattr__(self, name):
        return getattr(self.op, name)

    def outcome(self, result):
        out = self.op.outcome(result)
        blocks = [b.copy() for b in out.blocks]
        blocks[0][0] -= 1e-8
        blocks[1][0] += 1e-8
        return replace(out, blocks=tuple(blocks))


@pytest.mark.parametrize("case", ["mm1", "ldqbd_2p", "fixed_qbd"])
def test_perturbed_distribution_counts_as_a_failure(case, tmp_path):
    op = next(op for op in workloads.banded_deep(0, quick=True) if op.case == case)
    bench = run.Run([op, Perturbed(op)])
    bench.checked_pass(measure_memory=False)
    assert bench.attempted == 2
    assert bench.failed_ops == 1
    assert all(line.startswith(case) for line in bench.failures)


def test_missing_hook_is_reported_unmeasured(monkeypatch, tmp_path):
    gone = ("recursions.gone", "bhmc.solver", "no_such_function")
    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + (gone,))
    bench = run.Run(workloads.heavy_tail(0, quick=True))
    bench.checked_pass(measure_memory=False)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_s, _ = bench.timed_pass(tracer)
    finally:
        tracer.uninstall()
    assert bench.failed_ops == 0
    assert tracer.unmeasured == ["recursions.gone (bhmc.solver.no_such_function is missing)"]
    assert tracer.metrics(traced_s, spec.ALL_CASES)["trace.unmeasured"] == 1
