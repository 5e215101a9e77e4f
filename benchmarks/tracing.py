"""Outside-in span tracing of modmhd's public functions.

Wrappers are installed by rebinding module attributes, so the library
itself is untouched.  Several modules import functions by name (for
example ``dynamics`` does ``from .projection import helmholtz_project``),
so every ``modmhd`` module attribute that *is* the original function is
rebound, not just the defining module's.  Install only in a process that
is meant to be traced: the untraced benchmark never imports this file.

Spans are kept in memory as ``(name, start, end, parent, run_id)`` and
written out once, when the traced worker ends.  A span's self time is its
duration minus the time covered by its direct children; calls are
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

#: (module, function) pairs traced; span names are "<module>.<function>".
TRACED = (
    ("operators", ("grad", "div", "curl", "advect", "cross")),
    ("projection", ("poisson_solve", "helmholtz_project")),
    ("electromagnetics", ("h_from_a", "current_from_a", "force_modified")),
    ("state", ("validate_state",)),
    ("dynamics", ("compute_rhs", "step_rk4", "cfl_dt", "enforce_gauge", "run")),
    ("diagnostics", ("diagnostics",)),
    ("scenarios", ("random_solenoidal", "manufactured", "build_scenario")),
    ("analysis", ("convergence_study", "state_error")),
    ("snapshot", ("write_snapshot", "read_snapshot")),
    ("config", ("parse_config",)),
    ("cli", ("main",)),
)

OPERATORS = ("grad", "div", "curl", "advect", "cross")
BUILDERS = ("scenarios.random_solenoidal", "scenarios.manufactured",
            "scenarios.build_scenario")


class Tracer:
    """Span and counter store for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, run_id]
        self.counts: dict[str, float] = defaultdict(float)
        self.run_id = 0
        self._stack: list[int] = []

    def wrap(self, fn, name: str, count=None):
        """Return fn wrapped in a span; ``count(args, result)`` adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [name, time.perf_counter(), 0.0, parent, self.run_id]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function at every modmhd import site."""
        modules = [m for key, m in sys.modules.items()
                   if key == "modmhd" or key.startswith("modmhd.")]
        for mod_name, functions in TRACED:
            # modmhd.diagnostics is shadowed by the function of that name
            module = importlib.import_module(f"modmhd.{mod_name}")
            for fn_name in functions:
                original = getattr(module, fn_name)
                wrapped = self.wrap(original, f"{mod_name}.{fn_name}",
                                    _COUNTERS.get(f"{mod_name}.{fn_name}"))
                for site in modules:
                    for attr, value in list(vars(site).items()):
                        if value is original:
                            setattr(site, attr, wrapped)

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "run_id")
        with open(path, "w") as handle:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "counts": dict(self.counts)}, handle)


def _operator_bytes(tracer, args, result):
    arrays = [a for a in args if isinstance(a, np.ndarray)]
    tracer.counts["operators.bytes_computed"] += (
        sum(a.nbytes for a in arrays) + result.nbytes)


def _helmholtz_noop(tracer, args, result):
    if result[0] is args[0]:
        tracer.counts["projection.helmholtz_project.noop"] += 1


def _snapshot_bytes(tracer, args, result):
    tracer.counts["snapshot.write_snapshot.bytes"] += os.path.getsize(args[0])


_COUNTERS = {f"operators.{op}": _operator_bytes for op in OPERATORS}
_COUNTERS["projection.helmholtz_project"] = _helmholtz_noop
_COUNTERS["snapshot.write_snapshot"] = _snapshot_bytes


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer numbers from one traced worker (set-up plus one segment).

    Returns the ``<module>.<function>.<quantity>`` values listed in
    BENCHMARK.json except ``trace.overhead_frac``, which needs the
    untraced run and is added by the caller.
    """
    n = len(spans)
    names = [s[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += dur[i]

    def parent_name(i):
        return names[spans[i][3]] if spans[i][3] >= 0 else None

    def has_ancestor(i, wanted):
        p = spans[i][3]
        while p >= 0:
            if names[p] in wanted:
                return True
            p = spans[p][3]
        return False

    def select(name):
        return [i for i in range(n) if names[i] == name]

    def calls(name):
        return float(len(select(name)))

    def total(name):
        return float(sum(dur[i] for i in select(name)))

    def self_time(name):
        return float(sum(dur[i] - child_time[i] for i in select(name)))

    m: dict[str, float] = {}
    for fn in ("poisson_solve", "helmholtz_project"):
        m[f"projection.{fn}.calls"] = calls(f"projection.{fn}")
        m[f"projection.{fn}.s"] = total(f"projection.{fn}")
    m["projection.poisson_solve.op_applies"] = float(sum(
        1 for i in select("operators.div")
        if parent_name(i) == "projection.poisson_solve"))
    helm = m["projection.helmholtz_project.calls"]
    m["projection.helmholtz_project.noop_frac"] = (
        counts.get("projection.helmholtz_project.noop", 0.0) / helm if helm else 0.0)

    m["dynamics.step_rk4.self_s"] = self_time("dynamics.step_rk4")
    m["dynamics.compute_rhs.calls"] = calls("dynamics.compute_rhs")
    m["dynamics.compute_rhs.self_s"] = self_time("dynamics.compute_rhs")
    m["dynamics.cfl_dt.s"] = total("dynamics.cfl_dt")
    m["dynamics.enforce_gauge.calls"] = calls("dynamics.enforce_gauge")
    m["dynamics.enforce_gauge.s"] = total("dynamics.enforce_gauge")

    for op in OPERATORS:
        m[f"operators.{op}.calls"] = calls(f"operators.{op}")
        m[f"operators.{op}.self_s"] = self_time(f"operators.{op}")
    m["operators.bytes_computed"] = counts.get("operators.bytes_computed", 0.0)

    for fn in ("h_from_a", "current_from_a", "force_modified"):
        m[f"electromagnetics.{fn}.s"] = total(f"electromagnetics.{fn}")
    rhs_calls = m["dynamics.compute_rhs.calls"]
    rhs_curls = sum(1 for i in select("operators.curl")
                    if has_ancestor(i, ("dynamics.compute_rhs",)))
    m["electromagnetics.curls_per_rhs"] = rhs_curls / rhs_calls if rhs_calls else 0.0

    m["state.validate_state.calls"] = calls("state.validate_state")
    m["state.validate_state.s"] = total("state.validate_state")

    diag = select("diagnostics.diagnostics")
    diag_s = sum(dur[i] for i in diag)
    m["diagnostics.diagnostics.calls"] = float(len(diag))
    m["diagnostics.diagnostics.record_ms"] = 1e3 * diag_s / len(diag) if diag else 0.0
    ohm_s = sum(dur[i] for i in select("projection.helmholtz_project")
                if parent_name(i) == "diagnostics.diagnostics")
    m["diagnostics.ohm_share"] = ohm_s / diag_s if diag_s else 0.0

    m["scenarios.build.s"] = float(sum(
        dur[i] for i in range(n)
        if names[i] in BUILDERS and not has_ancestor(i, BUILDERS)))
    m["scenarios.mms_source.calls"] = calls("scenarios.mms_source")
    m["scenarios.mms_source.s"] = total("scenarios.mms_source")

    m["analysis.convergence_study.s"] = total("analysis.convergence_study")
    m["analysis.state_error.s"] = total("analysis.state_error")

    m["snapshot.write_snapshot.calls"] = calls("snapshot.write_snapshot")
    m["snapshot.write_snapshot.s"] = total("snapshot.write_snapshot")
    m["snapshot.write_snapshot.bytes"] = counts.get("snapshot.write_snapshot.bytes", 0.0)
    m["snapshot.read_snapshot.s"] = total("snapshot.read_snapshot")
    m["config.parse_config.s"] = total("config.parse_config")
    run_in_cli = sum(dur[i] for i in select("dynamics.run")
                     if has_ancestor(i, ("cli.main",)))
    m["cli.overhead_s"] = total("cli.main") - run_in_cli
    return m
