"""Public surface: export lists resolve, and library failures are BhmcErrors."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bhmc
from bhmc import (
    BhmcError,
    BlockGenerator,
    CheckpointSchedule,
    ConfigError,
    DriftCertificate,
    EmptyCandidateSet,
    FixedDirection,
    InvalidBlock,
    SingularBlock,
    SolverOptions,
    bright_taylor,
    brute_force_stationary,
    init_state,
    lbcl_direct,
    make_heavy_tail_mg1,
    make_mm1,
    principal_submatrix,
    solve_mip,
    validate_proper_q,
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


def test_import_leaves_sparse_solvers_unloaded():
    # the baselines import scipy.sparse.linalg on first use; loading it at
    # import time would add about 40 ms to every process start
    code = (
        "import bhmc, bhmc.cli, sys; "
        "print('scipy.sparse.linalg' in sys.modules)"
    )
    src = str(Path(bhmc.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


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


@pytest.mark.parametrize(
    "call, field",
    [
        (lambda: CheckpointSchedule(kind="explicit", levels=5), "levels"),
        (lambda: SolverOptions(checkpoint_schedule="every"), "checkpoint_schedule"),
        (lambda: SolverOptions(K_set={50}, max_level=10), "K_set"),
        (lambda: CheckpointSchedule(kind="geometric", factor=np.inf), "factor"),
        (lambda: SolverOptions(K_set={0.7, 2.2}), "K_set"),
        (lambda: SolverOptions(K_set={0, np.nan}), "K_set"),
        (lambda: SolverOptions(max_level=7.9), "max_level"),
        (lambda: SolverOptions(max_level=True), "max_level"),
        (lambda: CheckpointSchedule(kind="arithmetic", stride=np.inf), "stride"),
        (lambda: SolverOptions(epsilon=10**400), "epsilon"),
        (lambda: bright_taylor(make_mm1(1.0, 2.0), 2.5), "K_star"),
        (lambda: bright_taylor(make_mm1(1.0, 2.0), True), "K_star"),
        (lambda: bright_taylor(make_mm1(1.0, 2.0), 3, 1.5), "tail_levels"),
        (lambda: lbcl_direct(make_mm1(1.0, 2.0), 2.5, np.array([1.0])), "^n must be"),
        (lambda: principal_submatrix(make_mm1(1.0, 2.0), 2.5), "^n must be"),
        (lambda: principal_submatrix(make_mm1(1.0, 2.0), "3"), "^n must be"),
        (lambda: validate_proper_q(make_mm1(1.0, 2.0), 2.5), "levels"),
        (lambda: validate_proper_q(make_mm1(1.0, 2.0), 2, "tight"), "tol"),
    ],
    ids=[
        "schedule_levels_int",
        "options_schedule_str",
        "k_set_above_cap",
        "factor_inf",
        "k_set_fractional",
        "k_set_nan",
        "max_level_fractional",
        "max_level_bool",
        "stride_inf",
        "epsilon_overflow",
        "bright_taylor_k_star_fractional",
        "bright_taylor_k_star_bool",
        "bright_taylor_tail_levels_fractional",
        "lbcl_direct_n_fractional",
        "principal_submatrix_n_fractional",
        "principal_submatrix_n_str",
        "validate_levels_fractional",
        "validate_tol_str",
    ],
)
def test_malformed_option_is_config_error_naming_field(call, field):
    with pytest.raises(ConfigError, match=field):
        call()


def test_integral_reals_are_integers():
    opts = SolverOptions(K_set={0.0, 2.0}, max_level=1.0e4)
    assert opts.K_set == {0, 2} and opts.max_level == 10000
    assert all(type(k) is int for k in opts.K_set) and type(opts.max_level) is int
    mm1 = make_mm1(1.0, 2.0)
    assert type(principal_submatrix(mm1, 3.0).n) is int
    assert type(validate_proper_q(mm1, 3.0).levels) is int
    one = np.array([1.0])
    assert lbcl_direct(mm1, 3.0, one).tobytes() == lbcl_direct(mm1, 3, one).tobytes()
    assert len(bright_taylor(mm1, 3.0, 2.0).R) == 3


def _edited_mm1(edit) -> BlockGenerator:
    """mm1(1, 2) with ``edit(k, l, block)`` applied to every block."""
    mm1 = make_mm1(1.0, 2.0)
    return BlockGenerator(lambda k: 1, lambda k, l: edit(k, l, mm1.block(k, l)), bandwidth=1)


@pytest.mark.parametrize(
    "gen, block, cause",
    [
        # up-rate -0.5: pivot selection finds no candidate at level 1
        (
            _edited_mm1(lambda k, l, b: b - 1.5 * (l == k + 1) + 1.5 * (l == k)),
            r"block\(0,0\) has a positive diagonal",
            EmptyCandidateSet,
        ),
        # NaN diagonal at level 3: its exit matrix is non-finite
        (
            _edited_mm1(lambda k, l, b: b * np.nan if k == l == 3 else b),
            r"block\(3,3\) contains non-finite",
            SingularBlock,
        ),
    ],
    ids=["negative_up_rate", "nan_diagonal"],
)
def test_numerical_failure_is_traced_to_bad_block(gen, block, cause):
    with pytest.raises(InvalidBlock, match=block) as info:
        solve_mip(gen, SolverOptions(epsilon=1e-8))
    assert isinstance(info.value.__cause__, cause)


def test_non_converged_stop_is_traced_to_bad_block():
    # the negative rate leaves every exit matrix regular, so the run would
    # otherwise stop at the cap and report only that it did not converge
    heavy = make_heavy_tail_mg1(3.0, 1.0)
    bad = replace(
        heavy,
        block=lambda k, l: -np.ones((1, 1)) if (k, l) == (1, 3) else heavy.block(k, l),
        column_blocks=None,
    )
    with pytest.raises(InvalidBlock, match=r"block\(1,3\) has a negative entry"):
        solve_mip(bad, SolverOptions(max_level=150))


def test_numerical_failure_on_valid_blocks_keeps_its_class():
    # level 1 has no upward rate, so its exit matrix is singular; every
    # block has the right signs, so the SingularBlock stands
    stuck = _edited_mm1(lambda k, l, b: {(1, 1): b + 1.0, (1, 2): b - 1.0}.get((k, l), b))
    with pytest.raises(SingularBlock, match="level 1 exit matrix"):
        solve_mip(stuck, SolverOptions(epsilon=1e-8))


def _bench_hooks() -> tuple:
    """``HOOKS`` of the benchmark's tracer, read from its file."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.HOOKS


def test_benchmark_hooks_resolve():
    # the benchmark's tracer wraps these names; a missing one goes unmeasured
    for kind, module, name in _bench_hooks():
        assert callable(getattr(importlib.import_module(module), name, None)), kind


def _counted(calls: Counter, key, fn):
    def counted(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return counted


def test_benchmark_hooks_are_the_names_callers_read(tmp_path, monkeypatch, capsys):
    # a layer whose caller stopped reading the hooked name would trace as empty
    hooks = [(module, name) for _kind, module, name in _bench_hooks()]
    calls: Counter = Counter()
    for module, name in hooks:
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, name, _counted(calls, (module, name), getattr(mod, name)))
    gen, opts = make_mm1(1.0, 2.0), SolverOptions(epsilon=1e-6)
    cert = DriftCertificate(lambda l: np.full(1, 1.0 + l), b=1.0)
    bhmc.solver.solve_mip_drift(gen, cert, opts)
    bhmc.solver.solve_fixed_direction(gen, FixedDirection(np.ones(1)), opts)
    cfg = tmp_path / "run.yaml"
    cfg.write_text(
        "model: {name: mm1, params: {lam: 1.0, mu: 2.0}}\n"
        "compare: [lbcl_direct, bright_taylor, brute_force]\n"
        f"output: {{distribution: {tmp_path / 'd.csv'}, report: {tmp_path / 'r.yaml'}}}\n"
    )
    assert bhmc.cli.main(["run", str(cfg)]) == 0
    assert [hook for hook in hooks if not calls[hook]] == []
