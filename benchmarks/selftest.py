"""Smoke self-test of the benchmark itself (about 20 seconds).

    python3 benchmarks/selftest.py

Runs every workload at reduced size (run.py --smoke), untraced and
traced, and checks that the result line names every metric of
BENCHMARK.json with its unit, that the checks pass, that the traced
counts repeat exactly between two traced runs, and that the benchmark
refuses to report anything in a tree without the modmhd sources.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time

from run import BENCH_DIR, ROOT, WORKLOADS, load_spec
from tracing import Tracer, layer_metrics

COUNTS = ("projection.poisson_solve.calls", "projection.poisson_solve.op_applies",
          "dynamics.compute_rhs.calls", "operators.curl.calls",
          "operators.bytes_computed", "electromagnetics.curls_per_rhs",
          "diagnostics.diagnostics.calls", "snapshot.write_snapshot.bytes")


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "benchmarks", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc, wanted):
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"], out
    assert out["correct"] is True and out["failed"] == 0, proc.stdout
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    assert list(out["metrics"]) == [m["name"] for m in wanted], out["metrics"]
    for m in wanted:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    return {k: v["value"] for k, v in out["metrics"].items()}


def check_self_time():
    """Self time is a span's duration minus its direct children's."""
    tracer = Tracer()
    inner = tracer.wrap(lambda: time.sleep(0.02), "dynamics.compute_rhs")
    outer = tracer.wrap(lambda: (inner(), inner(), time.sleep(0.01)),
                        "dynamics.step_rk4")
    outer()
    m = layer_metrics(tracer.spans, tracer.counts)
    assert m["dynamics.compute_rhs.calls"] == 2, m
    assert 0.04 <= m["dynamics.compute_rhs.self_s"] < 0.05, m
    assert 0.01 <= m["dynamics.step_rk4.self_s"] < 0.02, m


def main() -> int:
    spec = load_spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "metric names must be unique"
    evaluated = [w["name"] for w in spec["workloads"]]
    assert evaluated == list(WORKLOADS[:len(evaluated)]), evaluated
    check_self_time()

    for workload in WORKLOADS:
        common = ("--workload", workload, "--seed", "5", "--seconds", "1", "--smoke")
        e2e = result_of(bench(*common, "--trace", "0"), spec["end_to_end"])
        assert all(v > 0 for v in e2e.values()), e2e
        first = result_of(bench(*common, "--trace", "1"), spec["per_layer"])
        second = result_of(bench(*common, "--trace", "1"), spec["per_layer"])
        for name in COUNTS:
            assert first[name] == second[name], (workload, name, first, second)
        expect = 2.0 if workload == "traditional_64" else 3.0
        assert first["electromagnetics.curls_per_rhs"] == expect, first
        print(f"ok {workload}: setup {e2e['setup_s']:.3f} s, "
              f"{e2e['ms_per_step']:.2f} ms/step, "
              f"op_applies {first['projection.poisson_solve.op_applies']:.0f}")

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "benchmarks"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "traditional_64", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)
    print("ok: a tree without src/modmhd is refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
