"""Public surface: export lists resolve, and library failures are BhmcErrors."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

import bhmc
from bhmc import (
    BadDistribution,
    BadRates,
    BlockGenerator,
    CheckpointSchedule,
    ConfigError,
    DriftCertificate,
    FixedDirection,
    IndexOutOfRange,
    InvalidBlock,
    PhaseMismatch,
    SingularBlock,
    SolverOptions,
    bright_taylor,
    brute_force_stationary,
    incoming_support,
    init_state,
    lbcl_augment,
    lbcl_direct,
    make_heavy_tail_mg1,
    make_lattice_rw_2d,
    make_mm1,
    make_mmc,
    principal_submatrix,
    residual_q_norm,
    solve,
    solve_fixed_direction,
    solve_mip,
    solve_mip_drift,
    sojourn_matrix,
    sojourn_rows,
    tv_distance,
    validate_proper_q,
)

MODULES = sorted(
    f"bhmc.{info.name}" for info in pkgutil.iter_modules(bhmc.__path__)
)
# the modules whose public names the package exports; the CLI is not one
LIBRARY = ("baseline", "errors", "generator", "lfp", "models", "recursions", "solver")


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(name)
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"{name}.__all__ lists missing {attr!r}"


def test_star_import():
    # the package surface is the union of its modules' __all__ (errors has
    # none: all its names are its exception classes), and __init__ imports
    # every module with * rather than repeating a list of names
    exported, listed = {}, set()
    exec("from bhmc import *", exported)
    for name in LIBRARY:
        module = importlib.import_module(f"bhmc.{name}")
        public = [n for n in vars(module) if not n.startswith("_")]
        for attr in getattr(module, "__all__", public):
            assert exported.get(attr) is getattr(module, attr), f"bhmc lacks {name}.{attr}"
            listed.add(attr)
    # beyond the listed names, the package holds only its submodules
    extra = set(exported) - listed - {"__builtins__"}
    assert all(isinstance(exported[n], ModuleType) for n in extra), extra
    init = ast.parse(Path(bhmc.__file__).read_text())
    imported = [a.name for node in init.body if isinstance(node, ast.ImportFrom) for a in node.names]
    assert imported == ["*"] * len(LIBRARY)


def test_every_error_class_is_raised_by_name():
    # a class whose last raise site is deleted would linger as public surface
    src = Path(bhmc.__file__).parent
    errors = ast.parse((src / "errors.py").read_text())
    declared = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = {
        node.exc.func.id
        for path in src.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name)
    }
    assert sorted(declared - raised - {"BhmcError"}) == []


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
    "call, error, message",
    [
        (lambda gen: principal_submatrix(gen, -1), IndexOutOfRange, None),
        (lambda gen: lbcl_direct(gen, -1, np.array([1.0])), IndexOutOfRange, None),
        (lambda gen: bright_taylor(gen, -1), IndexOutOfRange, None),
        (lambda gen: brute_force_stationary(np.ones(3)), InvalidBlock, None),
        (lambda gen: init_state(gen, []), ConfigError, None),
        (lambda gen: init_state(gen, ["x"]), ConfigError, None),
        (lambda gen: SolverOptions(max_level="9"), ConfigError, None),
        (lambda gen: SolverOptions(epsilon=None), ConfigError, None),
        (lambda gen: CheckpointSchedule(kind="arithmetic", stride="2"), ConfigError, None),
        (lambda gen: CheckpointSchedule(kind="geometric", factor="2"), ConfigError, None),
        (lambda gen: CheckpointSchedule(kind="explicit", levels=("a",)), ConfigError, None),
        (
            lambda gen: tv_distance(["x"], [1.0]),
            BadDistribution,
            "^tv_distance's first vector is not numeric: could not convert",
        ),
        (
            lambda gen: brute_force_stationary([["a"]]),
            InvalidBlock,
            "^generator is not numeric: could not convert",
        ),
        (
            lambda gen: sojourn_rows(init_state(gen), gen, np.array(["a"])),
            PhaseMismatch,
            "^seed is not numeric: could not convert",
        ),
        (lambda gen: residual_q_norm(init_state(gen), 0.5), IndexOutOfRange, None),
        # a model rate is a number but no bool, as every library number is
        (lambda gen: make_mm1("1", 2), BadRates, None),
        (lambda gen: make_mm1(None, 2), BadRates, None),
        (lambda gen: make_mm1(True, 2), BadRates, None),
        (lambda gen: make_heavy_tail_mg1("2"), BadRates, None),
        (lambda gen: make_lattice_rw_2d(1, "x", 1, 1.2), BadRates, None),
        (lambda gen: make_mmc(1, 1, "3"), BadRates, None),
        (lambda gen: make_mmc(1, 1, True), BadRates, None),
        (
            lambda gen: tv_distance([1.0], ["y"]),
            BadDistribution,
            "^tv_distance's second vector is not numeric: could not convert",
        ),
        (
            lambda gen: incoming_support(gen, -5),
            IndexOutOfRange,
            "^incoming support is undefined at level -5$",
        ),
        # None reads as NaN; a NaN or infinite entry has no distance
        (lambda gen: tv_distance(None, [1.0]), BadDistribution, None),
        (lambda gen: tv_distance([1.0], [np.nan]), BadDistribution, None),
        (lambda gen: tv_distance([np.inf], [1.0]), BadDistribution, None),
        (lambda gen: brute_force_stationary(np.full((2, 2), np.nan)), SingularBlock, None),
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
        "tv_distance_str",
        "brute_force_str",
        "sojourn_rows_seed_str",
        "residual_pivot_fractional",
        "mm1_rate_str",
        "mm1_rate_none",
        "mm1_rate_bool",
        "heavy_tail_rate_str",
        "lattice_rate_str",
        "mmc_servers_str",
        "mmc_servers_bool",
        "tv_distance_second_str",
        "incoming_support_negative",
        "tv_distance_none",
        "tv_distance_nan",
        "tv_distance_inf",
        "brute_force_nan",
    ],
)
def test_invalid_argument_is_bhmc_error(call, error, message):
    with pytest.raises(error, match=message):
        call(make_mm1(1.0, 2.0))


MM1 = make_mm1(1.0, 2.0)


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
        (lambda: SolverOptions(K_set=5), "^K_set must be a set of integer levels"),
        (lambda: CheckpointSchedule(kind="explicit", levels=()), "^explicit schedule needs"),
        # a driver refuses a mistyped argument by name before level 0
        (lambda: solve_mip(MM1, {}), "^opts must be a SolverOptions, got dict$"),
        (lambda: solve_mip("mm1"), "^gen must be a BlockGenerator, got str$"),
        # so does every library entry point that reads a generator first
        (lambda: init_state("mm1"), "^gen must be a BlockGenerator, got str$"),
        (lambda: principal_submatrix("mm1", 3), "^gen must be a BlockGenerator, got str$"),
        (
            lambda: lbcl_direct("mm1", 3, np.array([1.0])),
            "^gen must be a BlockGenerator, got str$",
        ),
        (lambda: validate_proper_q("mm1", 3), "^gen must be a BlockGenerator, got str$"),
        (lambda: bright_taylor("mm1", 3), "^gen must be a BlockGenerator, got str$"),
        (lambda: lbcl_augment("x", np.ones(1)), "^sub must be a PrincipalSubmatrix, got str$"),
        (lambda: solve_mip_drift(MM1, None), "^variant mip_drift needs a drift"),
        (lambda: solve_mip_drift(MM1, "v"), "^cert must be a DriftCertificate"),
        (
            lambda: solve_fixed_direction(MM1, np.array([1.0])),
            "^direction must be a FixedDirection, got ndarray$",
        ),
        (
            lambda: solve(MM1, None, "fixed_direction", direction=[1.0]),
            "^direction must be a FixedDirection, got list$",
        ),
        (lambda: sojourn_matrix(init_state(MM1), MM1, "0"), "^k must be an integer, got '0'$"),
        (lambda: sojourn_matrix(init_state(MM1), MM1, 0.5), "^k must be an integer, got 0.5$"),
        # a phase count is read at level 0 once, by every entry point's generator test
        (
            lambda: solve_mip(replace(MM1, phase_count=lambda k: 1.0)),
            "^phase_count must return an integer, got 1.0 at level 0$",
        ),
        (
            lambda: solve_mip(replace(MM1, phase_count=lambda k: "1")),
            "^phase_count must return an integer, got '1' at level 0$",
        ),
        # a callback that is not callable is refused at construction, naming its field
        (lambda: solve_mip(BlockGenerator(1, 2, 1)), "^phase_count must be callable, got int$"),
        (lambda: BlockGenerator(MM1.phase_count, 2, 1), "^block must be callable, got int$"),
        (lambda: replace(MM1, tail_column=3), "^tail_column must be callable, got int$"),
        (lambda: replace(MM1, column_blocks=3), "^column_blocks must be callable, got int$"),
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
        "k_set_int",
        "schedule_levels_empty",
        "solve_mip_opts_dict",
        "solve_mip_gen_str",
        "init_state_gen_str",
        "principal_submatrix_gen_str",
        "lbcl_direct_gen_str",
        "validate_gen_str",
        "bright_taylor_gen_str",
        "lbcl_augment_sub_str",
        "drift_cert_none",
        "drift_cert_str",
        "fixed_direction_array",
        "solve_direction_list",
        "sojourn_matrix_k_str",
        "sojourn_matrix_k_fractional",
        "solve_mip_phase_count_float",
        "solve_mip_phase_count_str",
        "generator_phase_count_int",
        "generator_block_int",
        "generator_tail_column_int",
        "generator_column_blocks_int",
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
    assert type(replace(mm1, bandwidth=2.0).bandwidth) is int
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
        # up-rate -0.5: u_star at level 0 is -2, which the health test refuses
        (
            _edited_mm1(lambda k, l, b: b - 1.5 * (l == k + 1) + 1.5 * (l == k)),
            r"block\(0,0\) has a positive diagonal",
            SingularBlock,
        ),
        # NaN diagonal at level 3: its exit matrix is non-finite
        (
            _edited_mm1(lambda k, l, b: b * np.nan if k == l == 3 else b),
            r"block\(3,3\) contains non-finite",
            SingularBlock,
        ),
        # the same at level 0, whose state init_state builds inside the trace
        (
            _edited_mm1(lambda k, l, b: b * np.nan if k == l == 0 else b),
            r"block\(0,0\) contains non-finite",
            SingularBlock,
        ),
    ],
    ids=["negative_up_rate", "nan_diagonal", "nan_level_0_diagonal"],
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
