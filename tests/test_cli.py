"""Config parsing, outputs, determinism, exit codes, and overrides."""

import re
from pathlib import Path

import numpy as np
import pytest
import yaml

import oracles
from bhmc import (
    CheckpointSchedule,
    ConfigError,
    InvalidBlock,
    NonpositiveWeight,
    PhaseMismatch,
    SolverOptions,
    bright_taylor,
    make_mm1,
    solve,
    tv_distance,
)
from bhmc.cli import REPORT_WIDTH, _apply_overrides, _build_parser, _number, load_config, main

MM1_CONFIG = """
model:
  name: mm1
  params: {{lam: 1.0, mu: 2.0}}
solver:
  variant: mip_new
  epsilon: {epsilon}
  k_set: [0]
compare: [lbcl_direct, bright_taylor, brute_force]
output:
  distribution: {dist}
  report: {report}
"""


def write_config(tmp_path, name="run.yaml", epsilon="1.0e-8"):
    dist = tmp_path / "dist.csv"
    report = tmp_path / "report.yaml"
    cfg = tmp_path / name
    cfg.write_text(MM1_CONFIG.format(epsilon=epsilon, dist=dist, report=report))
    return cfg, dist, report


def test_run_mm1_outputs(tmp_path, capsys):
    cfg, dist, report = write_config(tmp_path)
    assert main(["run", str(cfg)]) == 0
    lines = dist.read_text().strip().splitlines()
    assert lines[0] == "level,phase,probability"
    level, phase, prob = lines[1].split(",")
    assert (level, phase) == ("0", "1")
    assert abs(float(prob) - 0.5) < 1e-7
    # probabilities sum to one and round-trip exactly
    probs = np.array([float(ln.split(",")[2]) for ln in lines[1:]])
    assert abs(probs.sum() - 1.0) < 1e-10
    payload = yaml.safe_load(report.read_text())
    res = payload["result"]
    assert res["converged"] is True
    assert res["residual"] < 1e-8
    assert res["comparisons"]["lbcl_direct"]["tv_distance"] < 1e-10
    assert res["comparisons"]["brute_force"]["tv_distance"] < 1e-10
    assert res["comparisons"]["bright_taylor"]["tv_distance"] < 1e-6
    assert "wall_time_s" in res
    out = capsys.readouterr().out
    assert "converged" in out


@pytest.mark.parametrize(
    "model",
    [
        "name: mm1\n  params: {lam: 0.95, mu: 1.0}",
        "name: lattice_rw_2d\n  params: {east: 1.0, west: 1.5, north: 1.0, south: 1.5}",
    ],
    ids=["mm1", "lattice"],
)
def test_run_bright_taylor_distance_is_taken_over_levels_0_to_3n(tmp_path, model):
    cfg, report = tmp_path / "run.yaml", tmp_path / "report.yaml"
    cfg.write_text(
        f"model:\n  {model}\nsolver:\n  epsilon: 1.0e-10\ncompare: [bright_taylor]\n"
        f"output:\n  report: {report}\n"
    )
    assert main(["run", str(cfg)]) == 0
    got = yaml.safe_load(report.read_text())["result"]["comparisons"]["bright_taylor"]
    loaded = load_config(cfg)
    approx = solve(loaded.generator, loaded.options, loaded.variant, loaded.cert, loaded.direction)
    every_level = bright_taylor(loaded.generator, 3 * approx.n)  # keeps the blocks above n
    assert got["depth"] == 3 * approx.n
    assert abs(got["tv_distance"] - tv_distance(approx.flatten(), every_level.flatten())) <= 1e-14


def test_run_deterministic_distribution(tmp_path):
    cfg, dist, report = write_config(tmp_path)
    assert main(["run", str(cfg)]) == 0
    first = dist.read_bytes()
    first_report = yaml.safe_load(report.read_text())
    assert main(["run", str(cfg)]) == 0
    assert dist.read_bytes() == first
    second_report = yaml.safe_load(report.read_text())
    first_report["result"].pop("wall_time_s")
    second_report["result"].pop("wall_time_s")
    assert first_report == second_report


def test_run_exit_code_not_converged(tmp_path):
    cfg, dist, report = write_config(tmp_path)
    assert main(["run", str(cfg), "--epsilon", "1e-10", "--max-level", "5"]) == 2
    payload = yaml.safe_load(report.read_text())
    assert payload["result"]["converged"] is False
    assert payload["result"]["stop_level"] == 5


def test_run_epsilon_out_of_range_is_config_error(tmp_path, capsys):
    cfg, _, _ = write_config(tmp_path, epsilon="1.5")
    assert main(["run", str(cfg)]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_overflow_exits_1(tmp_path, capsys):
    cfg, _, _ = write_config(tmp_path, epsilon="1.0e-310")
    assert main(["run", str(cfg), "--schedule", "arithmetic:100"]) == 1
    assert "error: u_star overflowed at level 1023" in capsys.readouterr().err


@pytest.mark.parametrize("c, shown", [("2.5", "2.5"), (".inf", "inf"), (".nan", "nan")])
def test_run_mmc_with_non_integral_server_count_exits_1(tmp_path, capsys, c, shown):
    cfg = tmp_path / "mmc.yaml"
    cfg.write_text(f"model:\n  name: mmc\n  params: {{lam: 1.0, mu: 1.0, c: {c}}}\n")
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"error: server count must be an integer >= 1, got {shown}" in err
    assert "Traceback" not in err


def test_heavy_tail_with_compare(tmp_path):
    cfg = tmp_path / "heavy.yaml"
    dist = tmp_path / "dist.csv"
    cfg.write_text(
        f"""
model:
  name: heavy_tail_mg1
  params: {{mu: 3.0, tail_c: 1.0}}
solver:
  epsilon: 1.0e-4
compare: [lbcl_direct]
output:
  distribution: {dist}
"""
    )
    assert main(["run", str(cfg)]) == 0
    assert dist.exists()


def test_bright_taylor_compare_off_bandwidth_1_is_refused_at_load(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "heavy.yaml"
    dist = tmp_path / "dist.csv"
    cfg.write_text(
        f"""
model:
  name: heavy_tail_mg1
  params: {{mu: 3.0, tail_c: 1.0}}
solver:
  epsilon: 1.0e-4
compare: [lbcl_direct, bright_taylor]
output:
  distribution: {dist}
"""
    )
    message = "compare: bright_taylor needs bandwidth 1, got None"
    with pytest.raises(ConfigError, match=message):
        load_config(cfg)
    monkeypatch.setattr("bhmc.cli.solve", lambda *a: pytest.fail("solved a refused config"))
    assert main(["run", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not dist.exists()


def test_inspect_prints_hand_values(tmp_path, capsys):
    cfg, _, _ = write_config(tmp_path)
    assert main(["inspect", str(cfg), "--level", "2"]) == 0
    out = capsys.readouterr().out
    assert "u_star: [7.]" in out
    assert "u_star_K: [4.]" in out
    assert "pivot: 1" in out
    assert "residual: 0.047619047619047616" in out
    assert main(["inspect", str(cfg), "--level", "0"]) == 0
    assert "U_star:\n[[1.]]" in capsys.readouterr().out


INSPECT_MODELS = {
    "mm1": "{name: mm1, params: {lam: 1.0, mu: 2.0}}",
    "lattice": "{name: lattice_rw_2d, params: {east: 1.0, west: 1.5, north: 1.0, south: 1.5}}",
}


@pytest.mark.parametrize("level", [0, 2, 10])
@pytest.mark.parametrize("model", sorted(INSPECT_MODELS))
def test_inspect_prints_recorded_bytes(tmp_path, capsys, model, level):
    """``inspect`` prints byte for byte what the set-by-set selection printed."""
    cfg = tmp_path / f"{model}.yaml"
    cfg.write_text(f"model: {INSPECT_MODELS[model]}\n")
    assert main(["inspect", str(cfg), "--level", str(level)]) == 0
    recorded = Path(__file__).parent / "data" / "inspect" / f"{model}_level{level}.txt"
    assert capsys.readouterr().out.encode() == recorded.read_bytes()


def test_inspect_below_the_largest_index_has_no_u_star_K(tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("model: {name: mm1, params: {lam: 1.0, mu: 2.0}}\nsolver: {k_set: [0, 3]}\n")
    assert main(["inspect", str(cfg), "--level", "2"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("u_star: [7.]\nu_star_K: (not yet defined: level below max(K_set))\n")


def test_inspect_level_beyond_cap(tmp_path, capsys):
    cfg, _, _ = write_config(tmp_path)
    assert main(["inspect", str(cfg), "--level", "3", "--max-level", "2"]) == 1
    assert "error:" in capsys.readouterr().err


def test_validate_verb(tmp_path, capsys):
    cfg, _, _ = write_config(tmp_path)
    assert main(["validate", str(cfg)]) == 0
    assert "OK" in capsys.readouterr().out


@pytest.mark.parametrize(
    "section, message",
    [
        ("validate: {levels: -3}", "levels must be nonnegative, got -3"),
        ("validate: {levels: -1}", "levels must be nonnegative, got -1"),
        ("validate: {tol: -1}", "tol must be finite and nonnegative, got -1.0"),
        ("validate: {tol: .nan}", "tol must be finite and nonnegative, got nan"),
    ],
)
def test_validate_out_of_range_exits_1(tmp_path, capsys, section, message):
    cfg = tmp_path / "validate.yaml"
    cfg.write_text(f"model: {{name: mm1, params: {{lam: 1.0, mu: 2.0}}}}\n{section}\n")
    assert main(["validate", str(cfg)]) == 1
    out = capsys.readouterr()
    assert out.err == f"error: {message}\n" and out.out == ""


def test_validate_flags_leaky_inline_model(tmp_path, capsys):
    cfg = tmp_path / "leaky.yaml"
    cfg.write_text(
        """
model:
  inline:
    bandwidth: 1
    levels:
      - {"0": [[-1.0]], "1": [[0.9]]}
    tail: {"-1": [[2.0]], "0": [[-3.0]], "1": [[0.9]]}
"""
    )
    assert main(["validate", str(cfg)]) == 1
    assert "conservativity" in capsys.readouterr().out


def test_inline_negative_rate_fails_at_load(tmp_path, capsys):
    cfg = tmp_path / "negative.yaml"
    cfg.write_text(
        """
model:
  inline:
    bandwidth: 1
    levels:
      - {"0": [[-1.0]], "1": [[-1.0]]}
    tail: {"-1": [[2.0]], "0": [[-3.0]], "1": [[1.0]]}
"""
    )
    with pytest.raises(InvalidBlock, match=r"block\(0,1\) has a negative entry"):
        load_config(cfg)
    assert main(["run", str(cfg)]) == 1
    assert "error: block(0,1) has a negative entry" in capsys.readouterr().err


def test_exponent_form_model_params(tmp_path, capsys):
    """YAML reads 5e-1 as a string; it loads as the number 0.5."""
    cfg = tmp_path / "params.yaml"
    written = []
    for lam in ("0.5", "5e-1"):
        dist = tmp_path / f"dist_{lam}.csv"
        cfg.write_text(
            f"model: {{name: mm1, params: {{lam: {lam}, mu: 1.0}}}}\n"
            f"output: {{distribution: {dist}}}\n"
        )
        assert main(["run", str(cfg)]) == 0
        written.append(dist.read_bytes())
    assert written[0] == written[1]
    cfg.write_text("model: {name: mm1, params: {lam: abc, mu: 1.0}}\n")
    assert main(["run", str(cfg)]) == 1
    assert "error: model.params.lam must be a number, got 'abc'" in capsys.readouterr().err


def test_inline_model_matches_catalog(tmp_path):
    """Inline block tables reproducing the single-server queue solve identically."""
    dist = tmp_path / "dist.csv"
    cfg = tmp_path / "inline.yaml"
    cfg.write_text(
        f"""
model:
  inline:
    bandwidth: 1
    levels:
      - {{"0": [[-1.0]], "1": [[1.0]]}}
    tail: {{"-1": [[2.0]], "0": [[-3.0]], "1": [[1.0]]}}
solver:
  epsilon: 1.0e-8
output:
  distribution: {dist}
"""
    )
    assert main(["run", str(cfg)]) == 0
    lines = dist.read_text().strip().splitlines()[1:]
    probs = np.array([float(ln.split(",")[2]) for ln in lines])
    geo = oracles.geometric_pi(1.0, 2.0, len(probs) - 1)
    assert tv_distance(probs, geo) < 1e-7


@pytest.mark.parametrize("emitter", ["as_installed", "pure_python"])
def test_report_bytes_match_safe_dumper(tmp_path, monkeypatch, emitter):
    """The report is PyYAML's SafeDumper output, with libyaml or without it.

    The config puts a non-ASCII output path longer than 80 characters with
    spaces in it, a ``None`` value and nested block lists into the report.
    Such a path is written double-quoted, which the two emitters would fold
    at different places within 80 columns.
    """
    if emitter == "pure_python":
        monkeypatch.delattr(yaml, "CSafeDumper", raising=False)
    out_dir = tmp_path / ("résumé ünïcode directory " * 3).strip()
    out_dir.mkdir()
    report = out_dir / "report.yaml"
    assert len(str(report)) > 80
    cfg = tmp_path / "run.yaml"
    cfg.write_text(
        f"""
model:
  inline:
    bandwidth: 1
    levels:
      - {{"0": [[-1.0]], "1": [[1.0]]}}
    tail: {{"-1": [[2.0]], "0": [[-3.0]], "1": [[1.0]]}}
solver:
  epsilon: 1.0e-8
  schedule: null
compare: [lbcl_direct]
output:
  report: "{report}"
""",
        encoding="utf-8",
    )
    assert main(["run", str(cfg)]) == 0
    written = report.read_text()
    payload = yaml.safe_load(written)
    assert payload["config"]["output"]["report"] == str(report)
    assert payload["config"]["solver"]["schedule"] is None
    assert written == yaml.dump(
        payload, Dumper=yaml.SafeDumper, sort_keys=False, width=REPORT_WIDTH
    )


def test_schedule_and_kset_overrides(tmp_path):
    cfg, dist, report = write_config(tmp_path)
    assert main(["run", str(cfg), "--schedule", "arithmetic:6", "--k-set", "0,1"]) == 0
    payload = yaml.safe_load((tmp_path / "report.yaml").read_text())
    levels = [rec["level"] for rec in payload["result"]["pivot_trace"]]
    assert levels == list(range(levels[0], levels[-1] + 1, 6))


@pytest.mark.parametrize(
    "flag, value, key",
    [
        ("--epsilon", "1e-7", "epsilon: 1.0e-7"),
        ("--k-set", "0,2", "k_set: [0, 2]"),
        ("--max-level", "500", "max_level: 500"),
        ("--schedule", "every", "schedule: {kind: every}"),
        ("--schedule", "arithmetic:3", "schedule: {kind: arithmetic, stride: 3}"),
        ("--schedule", "geometric:2.5", "schedule: {kind: geometric, factor: 2.5}"),
        ("--schedule", "explicit:4,9", "schedule: {kind: explicit, levels: [4, 9]}"),
    ],
)
def test_flag_reads_as_its_solver_key(tmp_path, flag, value, key):
    """A flag over a config gives the options of that config with the key set instead."""
    base = {
        "model": {"name": "mm1", "params": {"lam": 1.0, "mu": 2.0}},
        "solver": {
            "epsilon": 0.01, "k_set": [1], "max_level": 900, "schedule": {"kind": "geometric"}
        },
    }
    plain, keyed = tmp_path / "plain.yaml", tmp_path / "keyed.yaml"
    plain.write_text(yaml.safe_dump(base))
    base["solver"].update(yaml.safe_load(f"{{{key}}}"))
    keyed.write_text(yaml.safe_dump(base))
    args = _build_parser().parse_args(["run", str(plain), flag, value])
    flagged = _apply_overrides(load_config(plain), args).options
    assert flagged == load_config(keyed).options != load_config(plain).options


@pytest.mark.parametrize(
    "flag, section, key",
    [
        ("every:5", None, "--schedule.stride"),
        ("every:", None, "--schedule.stride"),
        (None, "schedule: {kind: every, stride: 5}", "solver.schedule.stride"),
        (None, "schedule: {stride: 5}", "solver.schedule.stride"),
        (None, "schedule: {kind: arithmetic, stride: 2, factor: 2.0}", "solver.schedule.factor"),
        (None, "schedule: {kind: geometric, levels: [3]}", "solver.schedule.levels"),
        (None, "schedule: {kind: explicit, levels: [3], stride: 2}", "solver.schedule.stride"),
    ],
)
def test_unread_schedule_argument_is_config_error(tmp_path, capsys, flag, section, key):
    """A schedule argument its kind does not read is named, not dropped."""
    cfg = tmp_path / "run.yaml"
    solver = f"solver: {{{section}}}\n" if section else ""
    cfg.write_text(f"model: {{name: mm1, params: {{lam: 1.0, mu: 2.0}}}}\n{solver}")
    flags = ["--schedule", flag] if flag else []
    with pytest.raises(ConfigError, match=f"^{re.escape(key)} is not read by schedule kind "):
        _apply_overrides(load_config(cfg), _build_parser().parse_args(["run", str(cfg), *flags]))
    assert main(["run", str(cfg), *flags]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key} is not read")


SCHEDULE_VALUES = {"stride": 2, "factor": 2.0, "levels": [3]}


@pytest.mark.parametrize("kind", sorted(CheckpointSchedule.ARGS))
def test_each_schedule_kind_reads_only_its_argument(tmp_path, kind):
    """Over every kind the library has, each field but the one it reads is refused by name."""
    read = CheckpointSchedule.ARGS[kind]
    for key, value in SCHEDULE_VALUES.items():
        cfg = tmp_path / "run.yaml"
        schedule = {"kind": kind, key: value}
        model = {"name": "mm1", "params": {"lam": 1.0, "mu": 2.0}}
        cfg.write_text(yaml.safe_dump({"model": model, "solver": {"schedule": schedule}}))
        if key == read:
            assert load_config(cfg).options.checkpoint_schedule.kind == kind
        else:
            message = f"^solver.schedule.{key} is not read by schedule kind {kind}$"
            with pytest.raises(ConfigError, match=message):
                load_config(cfg)


@pytest.mark.parametrize("variant", ["mip_drift", "fixed_direction", "x"])
def test_variant_check_is_the_solvers(tmp_path, capsys, variant):
    """A config missing its variant's input fails at load with ``solve``'s message."""
    with pytest.raises(ConfigError) as err:
        solve(make_mm1(1.0, 2.0), SolverOptions(), variant)
    cfg = tmp_path / "variant.yaml"
    cfg.write_text(
        f"model: {{name: mm1, params: {{lam: 1.0, mu: 2.0}}}}\nsolver: {{variant: {variant}}}\n"
    )
    with pytest.raises(ConfigError, match=re.escape(str(err.value))):
        load_config(cfg)
    for command in (["run"], ["inspect", "--level", "1"], ["validate"]):
        assert main([command[0], str(cfg), *command[1:]]) == 1
        assert capsys.readouterr().err == f"error: {err.value}\n"


def test_config_error_messages(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("model: {name: nope}\n")
    with pytest.raises(ConfigError, match="unknown model"):
        load_config(bad)
    bad.write_text("model: {name: mm1, params: {lam: 1.0, mu: 2.0}}\nsolver: {variant: x}\n")
    with pytest.raises(ConfigError, match="variant"):
        load_config(bad)
    bad.write_text("solver: {epsilon: 0.1}\n")
    with pytest.raises(ConfigError, match="model"):
        load_config(bad)
    bad.write_text("model: {name: mm1, inline: {}}\n")
    with pytest.raises(ConfigError, match="exactly one"):
        load_config(bad)
    bad.write_text("model: {name: mm1, params: {lam: 1.0, mu: 2.0}}\ncompare: [nope]\n")
    with pytest.raises(ConfigError, match="baseline"):
        load_config(bad)


@pytest.mark.parametrize(
    "section, key",
    [
        ("solver: {epsilon: abc}", "solver.epsilon"),
        ("solver: {schedule: {kind: arithmetic, stride: abc}}", "solver.schedule.stride"),
        ("solver: {schedule: {kind: geometric, factor: .inf}}", "factor"),
        ("solver: {max_level: [1]}", "solver.max_level"),
        ("validate: {levels: x}", "validate.levels"),
        ("solver: {variant: fixed_direction, varpi: abc}", "solver.varpi"),
        ("solver: {variant: mip_drift, drift: {v: {vectors: [abc]}}}", "solver.drift.v.vectors"),
        ("solver: {max_level: 7.9}", "solver.max_level"),
        ("solver: {max_level: yes}", "solver.max_level"),
        ("solver: {max_level: .nan}", "solver.max_level"),
        ("solver: {schedule: {kind: arithmetic, stride: 2.5}}", "solver.schedule.stride"),
        ("solver: {schedule: {kind: explicit, levels: [3.2]}}", "solver.schedule.levels"),
        ("solver: {k_set: [0.7]}", "solver.k_set"),
        ("validate: {levels: 3.5}", "validate.levels"),
        ("model: {inline: {bandwidth: 1.5, levels: [{'0': [[-1.0]]}]}}", "model.inline.bandwidth"),
        ("output: {distribution: 5}", "output.distribution"),
        ("output: {distribution: [x]}", "output.distribution"),
        ("output: {report: 5}", "output.report"),
        ("output: {report: [x]}", "output.report"),
    ],
)
def test_malformed_number_is_config_error(tmp_path, capsys, section, key):
    bad = tmp_path / "bad.yaml"
    mm1 = "" if section.startswith("model:") else "model: {name: mm1, params: {lam: 1.0, mu: 2.0}}\n"
    bad.write_text(f"{mm1}{section}\n")
    with pytest.raises(ConfigError, match=key):
        load_config(bad)
    assert main(["run", str(bad)]) == 1
    assert f"error: {key}" in capsys.readouterr().err


MM1_MODEL = "model: {name: mm1, params: {lam: 1.0, mu: 2.0}}\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (MM1_MODEL + "solver: 5", "solver must be a mapping, got int"),
        (MM1_MODEL + "solver: {foo: 1}", "unknown keys ['foo'] in solver"),
        (MM1_MODEL + "solver: {k_set: 5}", "solver.k_set must be a list of integers, got 5"),
        (
            "model: {inline: {bandwidth: 1, levels: [{'0': [-1.0]}]}}",
            "model.inline.levels[0][0] must be a nested (row-major) array of rows",
        ),
        (
            "model: {inline: {bandwidth: 1, levels: [{'0': [[-1.0]], '1': [[x]]}]}}",
            "model.inline.levels[0][1] is not numeric: could not convert string to float: 'x'",
        ),
        (
            MM1_MODEL + "solver: {variant: fixed_direction, varpi: abc}",
            "solver.varpi is not numeric: could not convert string to float: 'abc'",
        ),
        (
            MM1_MODEL + "solver: {variant: mip_drift, drift: {v: {vectors: [abc]}}}",
            "solver.drift.v.vectors[0] is not numeric: could not convert string to float: 'abc'",
        ),
        (
            "model: {inline: {levels: [{'0': [[-1.0]]}]}}",
            "model.inline needs 'bandwidth' and 'levels'",
        ),
        ("model: {inline: {bandwidth: 1, levels: []}}", "model.inline.levels must be a nonempty list"),
        (
            "model: {inline: {bandwidth: 1, levels: [{'0': [[-1.0]], '2': [[1.0]]}]}}",
            "model.inline.levels[0]: offset 2 outside -1..1",
        ),
        (
            "model: {inline: {bandwidth: 1, levels: [{'-1': [[5.0]], '0': [[-1.0]], '1': [[1.0]]},"
            " {'-1': [[2.0]], '0': [[-3.0]], '1': [[1.0]]}]}}",
            "model.inline.levels[0]: offset -1 has no level below; give the tail its own table",
        ),
        (
            "model: {inline: {bandwidth: 1, levels: [{'1': [[1.0]]}]}}",
            "model.inline.levels[0] must include the diagonal block '0'",
        ),
        (
            "model: {inline: {bandwidth: 1, levels: [{'0': [[-1.0, 1.0], [1.0, -1.0]]}],"
            " tail: {'0': [[-1.0]]}}}",
            "last explicit level has 2 phases but tail has 1",
        ),
        (
            MM1_MODEL + "solver: {variant: mip_drift, drift: {v: {}}}",
            "solver.drift.v needs exactly one of 'affine' or 'vectors'",
        ),
        (
            MM1_MODEL + "solver: {variant: mip_drift, drift: {v: {vectors: []}}}",
            "solver.drift.v.vectors must be a nonempty list",
        ),
        # no text: the config path is a directory
        (None, "cannot read config {cfg}: [Errno 21] Is a directory: '{cfg}'"),
        # the parser's own report follows on the next lines
        ("model: {name: mm1", "config {cfg} is not valid YAML: while parsing a flow mapping"),
        (MM1_MODEL + "compare: lbcl_direct", "compare must be a list of baseline names"),
    ],
    ids=[
        "solver_not_mapping",
        "solver_unknown_key",
        "k_set_not_list",
        "inline_block_not_rows",
        "inline_block_not_numeric",
        "varpi_not_numeric",
        "drift_vector_not_numeric",
        "inline_no_bandwidth",
        "inline_no_levels",
        "inline_offset_outside_band",
        "inline_down_block_at_level_0",
        "inline_no_diagonal",
        "inline_tail_phases",
        "drift_v_neither_form",
        "drift_vectors_empty",
        "config_unreadable",
        "config_not_yaml",
        "compare_not_list",
    ],
)
def test_malformed_config_names_its_cause(tmp_path, capsys, text, message):
    cfg = tmp_path
    if text is not None:
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(text + "\n")
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[0] == "error: " + message.replace("{cfg}", str(cfg))


def test_inline_level_leaving_out_an_offset_reads_zero(tmp_path):
    """A table without an in-band offset gives that block as zeros of the right shape."""
    cfg = tmp_path / "inline.yaml"
    cfg.write_text(
        "model: {inline: {bandwidth: 2, levels: [{'0': [[-1.0]], '1': [[1.0]]}],"
        " tail: {'-1': [[2.0]], '0': [[-3.0]], '1': [[1.0]]}}}\n"
    )
    gen = load_config(cfg).generator
    np.testing.assert_array_equal(gen.block(0, 2), [[0.0]])
    np.testing.assert_array_equal(gen.block(3, 5), [[0.0]])
    np.testing.assert_array_equal(gen.block(3, 4), [[1.0]])
    approx = solve(gen, SolverOptions(epsilon=1e-8))
    assert tv_distance(approx.flatten(), oracles.geometric_pi(1.0, 2.0, approx.n)) < 1e-7


@pytest.mark.parametrize("key, shown", [("1.5", "1.5"), ("x", "'x'")])
def test_inline_offset_must_be_an_integer(tmp_path, key, shown):
    cfg = tmp_path / "inline.yaml"
    cfg.write_text(f"model: {{inline: {{bandwidth: 1, levels: [{{0: [[-1.0]], {key}: [[1.0]]}}]}}}}\n")
    with pytest.raises(ConfigError) as err:
        load_config(cfg)
    assert str(err.value) == f"model.inline.levels[0]: offset must be an integer, got {shown}"


def test_integral_real_loads_as_integer(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(
        "model: {name: mm1, params: {lam: 1.0, mu: 2.0}}\n"
        "solver: {max_level: 1.0e+4, k_set: [0, 2.0]}\n"
    )
    opts = load_config(cfg).options
    assert opts.max_level == 10000 and type(opts.max_level) is int
    assert opts.K_set == {0, 2}


@pytest.mark.parametrize(
    "text, want",
    [("9007199254740993", 9007199254740993), ("1e4", 10000), ("1.0e+4", 10000), (" 7 ", 7)],
)
def test_integer_text_is_read_exactly(text, want):
    """Integer text is not rounded through a float; integral float text still loads."""
    got = _number(text, "--max-level", int)
    assert got == want and type(got) is int


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--epsilon", "abc"),
        ("--max-level", "2.5"),
        ("--max-level", "1e400"),
        ("--k-set", "0,0.7"),
        ("--level", "abc"),
    ],
)
def test_malformed_flag_is_config_error(tmp_path, capsys, flag, value):
    cfg, _, _ = write_config(tmp_path)
    command = "inspect" if flag == "--level" else "run"
    assert main([command, str(cfg), flag, value]) == 1
    assert f"error: {flag} must be" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["distribution", "report"])
def test_unwritable_output_is_config_error(tmp_path, capsys, key):
    target = tmp_path / "missing_dir" / "out"
    cfg = tmp_path / "run.yaml"
    cfg.write_text(
        "model: {name: mm1, params: {lam: 1.0, mu: 2.0}}\n"
        f"output: {{{key}: {target}}}\n"
    )
    assert main(["run", str(cfg)]) == 1
    assert f"error: cannot write output.{key} {target}" in capsys.readouterr().err


def test_nonpositive_drift_weight_exits_1(tmp_path, capsys):
    cfg = tmp_path / "drift.yaml"
    cfg.write_text(
        "model: {name: mm1, params: {lam: 1.0, mu: 2.0}}\n"
        "solver: {variant: mip_drift, drift: {v: {affine: {intercept: 1.0, slope: -1.0}}}}\n"
    )
    assert main(["run", str(cfg)]) == 1
    assert "error: drift vector at level 1" in capsys.readouterr().err


def _drift_config(tmp_path, v: dict, name: str) -> Path:
    """A ``mip_drift`` run on ``mm1(1, 2)`` with drift vectors ``v``, writing ``name``.csv."""
    cfg = tmp_path / f"{name}.yaml"
    doc = {
        "model": {"name": "mm1", "params": {"lam": 1.0, "mu": 2.0}},
        "solver": {"variant": "mip_drift", "drift": {"v": v}},
        "output": {"distribution": str(tmp_path / f"{name}.csv")},
    }
    cfg.write_text(yaml.safe_dump(doc))
    return cfg


def test_drift_vectors_config_runs_as_its_affine_form(tmp_path, capsys):
    """Vectors equal to an affine form's give its CSV byte for byte; the stop at 20 reads v_21."""
    affine = _drift_config(tmp_path, {"affine": {"intercept": 1.0, "slope": 1.0}}, "affine")
    vectors = _drift_config(tmp_path, {"vectors": [[1.0 + l] for l in range(22)]}, "vectors")
    assert main(["run", str(affine)]) == 0
    assert main(["run", str(vectors)]) == 0
    assert capsys.readouterr().out.count("converged at level 20:") == 2
    assert (tmp_path / "vectors.csv").read_bytes() == (tmp_path / "affine.csv").read_bytes()


@pytest.mark.parametrize(
    "values, error, message",
    [
        ([[-1.0]] + [[1.0 + l] for l in range(1, 26)], NonpositiveWeight,
         "drift vector at level 0 must be strictly positive"),
        ([[1.0], [2.0], [3.0], [4.0, 4.0], [5.0]], PhaseMismatch,
         "drift vector at level 3 has length 2, expected 1"),
    ],
    ids=["negative_level_0", "wrong_length"],
)
def test_drift_vectors_are_checked_at_load(tmp_path, capsys, monkeypatch, values, error, message):
    """Every given vector is checked before the solve, including ones the solve never reads."""
    cfg = _drift_config(tmp_path, {"vectors": values}, "vectors")
    with pytest.raises(error, match=f"^{message}$"):
        load_config(cfg)
    monkeypatch.setattr("bhmc.cli.solve", lambda *a: pytest.fail("solved a refused config"))
    assert main(["run", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_drift_vectors_coverage_names_the_level_read_and_the_cap_they_support(tmp_path, capsys):
    """21 vectors cover levels 0..20; the rule at n reads n..n+1, so they support max_level 19."""
    cfg = _drift_config(tmp_path, {"vectors": [[1.0 + l] for l in range(21)]}, "vectors")
    assert main(["run", str(cfg), "--max-level", "20"]) == 1
    assert capsys.readouterr().err == (
        "error: drift vectors cover levels 0..20, but level 21 was read; "
        "on bandwidth 1 they support max_level up to 19\n"
    )
    assert main(["run", str(cfg), "--max-level", "19"]) == 2


def test_drift_variant_via_config(tmp_path):
    report = tmp_path / "report.yaml"
    cfg = tmp_path / "drift.yaml"
    cfg.write_text(
        f"""
model:
  name: mm1
  params: {{lam: 1.0, mu: 2.0}}
solver:
  variant: mip_drift
  epsilon: 1.0e-6
  schedule: {{kind: arithmetic, stride: 5}}
  drift:
    b: 1.0
    v:
      affine: {{intercept: 1.0, slope: 1.0}}
output:
  report: {report}
"""
    )
    assert main(["run", str(cfg)]) == 0
    payload = yaml.safe_load(report.read_text())
    assert payload["result"]["variant"] == "mip_drift"
    assert payload["result"]["pivot_trace"][-1]["step_distance"] < 1e-6


def test_fixed_direction_variant_via_config(tmp_path):
    report = tmp_path / "report.yaml"
    cfg = tmp_path / "fd.yaml"
    cfg.write_text(
        f"""
model:
  name: mm1
  params: {{lam: 1.0, mu: 2.0}}
solver:
  variant: fixed_direction
  epsilon: 1.0e-6
  varpi: [1.0]
output:
  report: {report}
"""
    )
    assert main(["run", str(cfg)]) == 0
    payload = yaml.safe_load(report.read_text())
    assert payload["result"]["variant"] == "fixed_direction"
    assert payload["result"]["pivot_trace"][-1]["pivot"] is None


def test_readme_yaml_examples_load(tmp_path):
    """Each YAML example in the README loads; snippets without a model get mm1."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = re.findall(r"^```yaml\n(.*?)^```", readme, flags=re.DOTALL | re.MULTILINE)
    assert len(examples) >= 4  # the complete config, inline tables, drift, varpi
    for i, text in enumerate(examples):
        if "model" not in yaml.safe_load(text):
            text = "model: {name: mm1, params: {lam: 1.0, mu: 2.0}}\n" + text
        cfg = tmp_path / f"readme_{i}.yaml"
        cfg.write_text(text)
        load_config(cfg)
