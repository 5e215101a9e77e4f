"""Every function the benchmark's tracer wraps still exists in modmhd."""

import importlib
import importlib.util
import os
import sys

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "tracing.py")


def test_traced_names_resolve(monkeypatch):
    # load the tracer's name table without writing bytecode next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    missing = [f"{module}.{name}"
               for module, names in tracing.TRACED
               for name in names
               if not callable(getattr(importlib.import_module(f"modmhd.{module}"),
                                       name, None))]
    assert tracing.TRACED and not missing, f"traced but not defined: {missing}"
