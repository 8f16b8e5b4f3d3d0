"""Public surface: export lists resolve, and library failures are BhmcErrors."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import bhmc
from bhmc import (
    BhmcError,
    CheckpointSchedule,
    SolverOptions,
    bright_taylor,
    brute_force_stationary,
    init_state,
    lbcl_direct,
    make_mm1,
    principal_submatrix,
)

MODULES = sorted(
    f"bhmc.{info.name}" for info in pkgutil.iter_modules(bhmc.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(name)
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"{name}.__all__ lists missing {attr!r}"


def test_star_import():
    namespace: dict = {}
    exec("from bhmc import *", namespace)
    assert "solve_mip" in namespace


@pytest.mark.parametrize(
    "call",
    [
        lambda gen: principal_submatrix(gen, -1),
        lambda gen: lbcl_direct(gen, -1, np.array([1.0])),
        lambda gen: bright_taylor(gen, -1),
        lambda gen: brute_force_stationary(np.ones(3)),
        lambda gen: init_state(gen, []),
        lambda gen: init_state(gen, ["x"]),
        lambda gen: SolverOptions(max_level="9"),
        lambda gen: SolverOptions(epsilon=None),
        lambda gen: CheckpointSchedule(kind="arithmetic", stride="2"),
        lambda gen: CheckpointSchedule(kind="geometric", factor="2"),
        lambda gen: CheckpointSchedule(kind="explicit", levels=("a",)),
    ],
    ids=[
        "principal_submatrix",
        "lbcl_direct",
        "bright_taylor",
        "brute_force",
        "init_state_empty",
        "init_state_not_integer",
        "options_max_level_str",
        "options_epsilon_none",
        "schedule_stride_str",
        "schedule_factor_str",
        "schedule_levels_str",
    ],
)
def test_invalid_argument_is_bhmc_error(call):
    with pytest.raises(BhmcError):
        call(make_mm1(1.0, 2.0))


def test_benchmark_hooks_resolve():
    # the benchmark's tracer wraps these names; a missing one goes unmeasured
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for kind, module, name in tracing.HOOKS:
        assert callable(getattr(importlib.import_module(module), name, None)), kind
