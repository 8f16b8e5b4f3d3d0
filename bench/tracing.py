"""Layer spans recorded from outside the program.

The tracer replaces public functions of ``bhmc`` by wrappers, in the module
namespace the caller reads them from, and wraps the ``block`` callback of
every generator the benchmark builds or loads.  Each call records a span:
its kind (``layer.name``), start, end and parent span.  Spans stay in
memory until the pass ends; self time is a span's duration minus the time
its direct children cover.  A hook whose target is missing is reported as
unmeasured, and its time stays in its parent's self time.
"""

from __future__ import annotations

import importlib
from collections import Counter
from dataclasses import replace
from time import perf_counter

LAYERS = ("generator", "recursions", "lfp", "solver", "baseline", "cli", "models")

# (span kind, module the caller reads the name from, name)
HOOKS = (
    ("recursions.advance", "bhmc.solver", "advance"),
    ("recursions.lu", "bhmc.recursions", "lu_inverse"),
    ("lfp.select", "bhmc.solver", "incoming_support"),
    ("lfp.select", "bhmc.solver", "outgoing_support"),
    ("lfp.select", "bhmc.solver", "select_pivot"),
    ("lfp.select", "bhmc.solver", "select_pivot_drift"),
    ("solver.solve", "bhmc.solver", "solve_mip"),
    ("solver.solve", "bhmc.solver", "solve_mip_drift"),
    ("solver.solve", "bhmc.solver", "solve_fixed_direction"),
    ("generator.principal_submatrix", "bhmc.baseline", "principal_submatrix"),
    ("generator.principal_submatrix", "bhmc.cli", "principal_submatrix"),
    ("baseline.lbcl_direct", "bhmc.baseline", "lbcl_direct"),
    ("baseline.bright_taylor", "bhmc.baseline", "bright_taylor"),
    ("baseline.brute_force", "bhmc.baseline", "brute_force_stationary"),
    ("cli.load_config", "bhmc.cli", "load_config"),
    ("models.build", "bhmc.cli", "build_model"),
)


class Tracer:
    """Spans of one traced pass."""

    def __init__(self):
        self.kinds: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack = [-1]
        self.case = ""  # operation whose spans are being recorded
        self.solves: list[tuple[int, str, int]] = []  # (span, case, stop level)
        self.errors: Counter[str] = Counter()
        self._raised: list[BaseException] = []
        self.unmeasured: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, kind: str, fn, on_result=None):
        """``fn`` with a span of ``kind`` around every call."""
        kinds, parents, starts, ends, stack = (
            self.kinds, self.parents, self.starts, self.ends, self.stack
        )

        def traced(*args, **kwargs):
            sid = len(starts)
            kinds.append(kind)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._count_error(kind, exc)
                raise
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(sid, result)
            return result

        return traced

    def _count_error(self, kind: str, exc: BaseException) -> None:
        # An exception is counted once, in the innermost layer it passed.
        if not any(e is exc for e in self._raised):
            self._raised.append(exc)
            self.errors[kind.split(".")[0]] += 1

    def _solved(self, sid: int, approx) -> None:
        self.solves.append((sid, self.case, int(approx.n)))

    def _loaded(self, _sid: int, cfg) -> None:
        try:
            cfg.generator = replace(
                cfg.generator, block=self.wrap("generator.block", cfg.generator.block)
            )
        except (AttributeError, TypeError):
            self.unmeasured.append("generator.block of bhmc.cli.load_config results")

    def install(self) -> None:
        """Replace every hooked name by its traced wrapper."""
        for kind, module_name, name in HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, name, None)
            if not callable(fn):
                self.unmeasured.append(f"{kind} ({module_name}.{name} is missing)")
                continue
            on_result = {"solver.solve": self._solved, "cli.load_config": self._loaded}.get(kind)
            self._saved.append((module, name, fn))
            setattr(module, name, self.wrap(kind, fn, on_result))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.starts)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[sid] - self.starts[sid]
        return [e - s - c for s, e, c in zip(self.starts, self.ends, child)]

    def metrics(self, pass_s: float, cases) -> dict[str, float]:
        """Per-layer metrics of the pass; ``pass_s`` is its traced wall time."""
        selfs = self.self_times()
        calls: Counter[str] = Counter(self.kinds)
        self_s: Counter[str] = Counter()
        for kind, t in zip(self.kinds, selfs):
            self_s[kind] += t
        out = {
            "recursions.advance_calls": calls["recursions.advance"],
            "recursions.advance_self_s": self_s["recursions.advance"],
            "recursions.lu_calls": calls["recursions.lu"],
            "recursions.lu_s": self_s["recursions.lu"],
            "generator.block_calls": calls["generator.block"],
            "generator.block_s": self_s["generator.block"],
            "generator.principal_submatrix_calls": calls["generator.principal_submatrix"],
            "generator.principal_submatrix_s": self_s["generator.principal_submatrix"],
            "lfp.select_calls": calls["lfp.select"],
            "lfp.select_s": self_s["lfp.select"],
            "solver.solve_calls": calls["solver.solve"],
            "solver.self_s": self_s["solver.solve"],
        }
        solve_s = dict.fromkeys(cases, 0.0)
        stop = dict.fromkeys(cases, 0)
        for sid, case, n in self.solves:
            solve_s[case] += self.ends[sid] - self.starts[sid]
            stop[case] = n
        for case in cases:
            out[f"solver.solve_s.{case}"] = solve_s[case]
            out[f"solver.stop_level.{case}"] = stop[case]
        for name in ("lbcl_direct", "bright_taylor", "brute_force"):
            out[f"baseline.{name}_calls"] = calls[f"baseline.{name}"]
            out[f"baseline.{name}_s"] = self_s[f"baseline.{name}"]
        out["cli.load_config_s"] = self_s["cli.load_config"]
        out["cli.self_s"] = self_s["cli.main"]
        out["models.build_s"] = self_s["models.build"]
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]
        out["trace.coverage_frac"] = sum(selfs) / pass_s if pass_s > 0 else 0.0
        out["trace.unmeasured"] = len(self.unmeasured)
        return out
