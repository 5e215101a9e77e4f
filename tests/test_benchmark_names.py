"""Every name that the benchmark's tracer and worker use still exists in modmhd."""

import ast
import dataclasses
import functools
import importlib
import importlib.util
import os
import sys

BENCHMARKS = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks")
TRACING = os.path.join(BENCHMARKS, "tracing.py")
WORKER = os.path.join(BENCHMARKS, "worker.py")


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


#: The worker's local names for a RunConfig and for diagnostics records.
_WORKER_OBJECTS = {"cfg": ("config", "RunConfig"),
                   "first": ("diagnostics", "DiagnosticsRecord"),
                   "last": ("diagnostics", "DiagnosticsRecord"),
                   "r": ("diagnostics", "DiagnosticsRecord")}


def _attribute_path(node):
    """(root name, [attributes]) of a chain like m.a.b or self.m.a.b."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    root = node.id if isinstance(node, ast.Name) else None
    names.reverse()
    if root == "self" and names[:1] == ["m"]:
        root, names = "m", names[1:]
    return root, names


def test_worker_names_resolve():
    # parsed, not imported or run: the worker's module m is modmhd with
    # modmhd.cli imported
    with open(WORKER) as handle:
        tree = ast.parse(handle.read(), WORKER)
    importlib.import_module("modmhd.cli")
    modmhd = importlib.import_module("modmhd")
    chains, read = set(), {}
    for node in ast.walk(tree):
        root, names = _attribute_path(node)
        if root == "m" and names:
            chains.add(tuple(names))
        elif root in _WORKER_OBJECTS and len(names) == 1:
            read.setdefault(root, set()).add(names[0])

    def resolves(chain):
        try:
            functools.reduce(getattr, chain, modmhd)
        except AttributeError:
            return False
        return True

    assert ("dynamics", "run") in chains and ("cfl_dt",) in chains
    missing = [".".join(c) for c in sorted(chains) if not resolves(c)]
    assert not missing, f"worker.py reads m.{missing} that modmhd lacks"
    assert read.keys() == _WORKER_OBJECTS.keys()
    for name, attrs in read.items():
        module, cls_name = _WORKER_OBJECTS[name]
        cls = getattr(importlib.import_module(f"modmhd.{module}"), cls_name)
        known = set(dir(cls)) | {f.name for f in dataclasses.fields(cls)}
        assert attrs <= known, f"worker.py reads {sorted(attrs - known)} of {cls_name}"
