"""One benchmark worker: a fresh process that sets up one workload and runs it.

run.py starts this file once per set-up sample, so every worker pays
process start, ``import modmhd`` and scenario construction.  The worker
then runs measured segments of the workload from the same initial state,
checks each result, and prints one JSON line:

    {"setup_end": <time.monotonic() when set-up ended>,
     "segments": [{"wall_s", "steps", "failures"}, ...],
     "peak_rss_mb": ..., "layers": {...}}

``setup_end`` is read on the system-wide monotonic clock so that the
parent can subtract its own spawn time.  With ``--trace 1`` the wrappers
from tracing.py are installed before set-up, exactly one segment runs, and
``layers`` holds the per-layer numbers; the spans are written to
``--spans``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import replace

import numpy as np

# Full-size settings; --smoke shrinks every workload for the self-test.
RUN_N = {False: 64, True: 16}
CLI_N = {False: 32, True: 16}
MMS_RES = {False: (16, 32), True: (8, 16)}
MMS_T_END = {False: 0.25, True: 0.05}
# Errors of the seed commit on the manufactured problem, per resolution.
MMS_SEED_ERRORS = {
    False: (0.037087930115336024, 0.009326824089460412),
    True: (0.028562013631136026, 0.007333414316124286),
}
MMS_ERR_RTOL = 1e-6     # far above roundoff, far below a change of scheme
RUN_STEPS = 5           # one record interval: records after step 0 and 5
RECORD_EVERY = 5
CLI_STEPS = 10
CLI_GAUGE_N = 2


def _cube(m, n):
    two_pi = 2.0 * math.pi
    return m.GridSpec(n, n, n, two_pi, two_pi, two_pi)


def _t_end(m, state, params, steps):
    """A t_end that the run reaches in exactly `steps` steps for any seed.

    dt changes by far less than half a step over a segment, so the
    clipped final step is always step number `steps`.
    """
    return (steps - 0.5) * m.cfl_dt(state, params)


class RandomRun:
    """random_solenoidal marched by dynamics.run (modified or traditional)."""

    def __init__(self, formulation, m, seed, smoke, tracer, workdir):
        self.m = m
        self.formulation = m.Formulation[formulation]
        grid = _cube(m, RUN_N[smoke])
        self.params = m.PhysParams(gauge=m.GaugePolicy.every_step())
        self.state = m.random_solenoidal(grid, self.formulation, seed=seed,
                                         order=2).state
        self.t_end = _t_end(m, self.state, self.params, RUN_STEPS)
        self.a_scale = m.operators.l2_norm(self.state.mag, grid)

    def segment(self):
        taken = [0]

        def on_step(state, step):
            taken[0] = step

        try:
            final, records = self.m.dynamics.run(
                self.state, self.params, self.t_end,
                out_every=RECORD_EVERY, on_step=on_step)
        except self.m.SimulationError as exc:
            return taken[0], [f"SimulationError: {exc}"]
        steps = taken[0]
        first, last = records[0], records[-1]
        fails = []
        if final.t != self.t_end:
            fails.append(f"final t {final.t!r} != t_end {self.t_end!r}")
        if len(records) != 1 + -(-steps // RECORD_EVERY):
            fails.append(f"{len(records)} records for {steps} steps")
        mass_drift = abs(last.mass - first.mass) / first.mass
        if not mass_drift <= 1e-11:
            fails.append(f"mass drift {mass_drift:.3e} > 1e-11")
        if self.formulation is self.m.Formulation.MODIFIED:
            worst = max(r.divA_l2 for r in records)
            if not worst <= 1e-10 * self.a_scale:
                fails.append(f"divA_l2 {worst:.3e} > 1e-10 * ||A|| = "
                             f"{1e-10 * self.a_scale:.3e}")
        else:
            growth = (last.divH_l2 - first.divH_l2) / max(steps, 1)
            if not growth <= 1e-11:
                fails.append(f"divH_l2 growth {growth:.3e}/step > 1e-11")
            e_drift = abs(last.e_tot - first.e_tot) / first.e_tot
            if not e_drift <= 1e-3:
                fails.append(f"e_tot drift {e_drift:.3e} > 1e-3")
        return steps, fails


class Manufactured:
    """Criterion-7 manufactured-solution convergence study (MODIFIED).

    The problem has no random input, so the seed does not change it.
    """

    def __init__(self, m, seed, smoke, tracer, workdir):
        self.m = m
        self.smoke = smoke
        self.tracer = tracer
        # the first build is the uncached sympy derivation
        m.manufactured(_cube(m, MMS_RES[smoke][0]), m.Formulation.MODIFIED)

    def segment(self):
        m = self.m
        source_calls = [0]

        def factory(n):
            case = m.manufactured(_cube(m, n), m.Formulation.MODIFIED)
            inner = case.source

            def source(grid, t):
                source_calls[0] += 1
                return inner(grid, t)

            if self.tracer is not None:
                source = self.tracer.wrap(source, "scenarios.mms_source")
            return replace(case, source=source)

        try:
            res = m.analysis.convergence_study(
                factory, MMS_RES[self.smoke], t_end=MMS_T_END[self.smoke])
        except m.SimulationError as exc:
            return source_calls[0] // 4, [f"SimulationError: {exc}"]
        steps = source_calls[0] // 4       # one source call per RK4 stage
        fails = []
        if res.mode != "exact":
            fails.append(f"mode {res.mode!r} != 'exact'")
        if not abs(res.order - 2.0) <= 0.3:
            fails.append(f"fitted order {res.order:.4f} outside 2.0 +/- 0.3")
        for n, err, ref in zip(res.resolutions, res.errors,
                               MMS_SEED_ERRORS[self.smoke]):
            if not abs(err - ref) <= MMS_ERR_RTOL * ref:
                fails.append(f"error at n={n} is {err!r}, seed commit {ref!r}")
        return steps, fails


class CliCheckpoint:
    """`modmhd run` with every_n gauge, a record and a snapshot every step."""

    def __init__(self, m, seed, smoke, tracer, workdir):
        self.m = m
        self.workdir = workdir
        n = CLI_N[smoke]
        base = "".join(f"grid.{k} = {v}\n" for k, v in (
            ("nx", n), ("ny", n), ("nz", n),
            ("lx", 2 * math.pi), ("ly", 2 * math.pi), ("lz", 2 * math.pi)))
        base += ('scenario.name = "random_solenoidal"\nformulation = modified\n'
                 f"seed = {seed}\nnumerics.gauge_policy = every_n\n"
                 f"numerics.gauge_n = {CLI_GAUGE_N}\nnumerics.out_every = 1\n"
                 "numerics.snapshot_every = 1\n")
        cfg = m.parse_config(base)
        case = cfg.build_case()
        self.t_end = _t_end(m, case.state, cfg.phys(), CLI_STEPS)
        self.config_path = os.path.join(workdir, "run.cfg")
        with open(self.config_path, "w") as handle:
            handle.write(base + f"numerics.t_end = {self.t_end!r}\n")

    def segment(self):
        m = self.m
        self.out = tempfile.mkdtemp(prefix="run-", dir=self.workdir)
        with contextlib.redirect_stdout(io.StringIO()):
            code = m.cli.main(["run", "--config", self.config_path,
                               "--out-dir", self.out])
        if code != 0:
            return 0, [f"exit code {code}"]
        fails = []
        names = sorted(f for f in os.listdir(self.out) if f.startswith("snapshot_"))
        indices = [int(f[len("snapshot_"):-len(".bin")]) for f in names]
        steps = indices[-1] if indices else 0
        if indices != list(range(steps + 1)):
            fails.append(f"snapshots {indices} are not steps 0..{steps}")
        with open(os.path.join(self.out, "diagnostics.csv"), newline="") as handle:
            table = list(csv.reader(handle))
        if tuple(table[0]) != tuple(m.CSV_COLUMNS):
            fails.append(f"diagnostics.csv header {table[0]} != CSV_COLUMNS")
        if len(table) - 1 != steps + 1:
            fails.append(f"{len(table) - 1} diagnostics rows for {steps} steps")
        final = m.snapshot.read_snapshot(os.path.join(self.out, "final.bin"))
        if final.t != self.t_end:
            fails.append(f"final.bin t {final.t!r} != t_end {self.t_end!r}")
        for name, arr in (("mag", final.mag), ("v", final.v),
                          ("rho", final.rho), ("p", final.p)):
            if not np.isfinite(arr).all():
                fails.append(f"final.bin field {name} is not finite")
        return steps, fails

    def cleanup(self):
        shutil.rmtree(self.out, ignore_errors=True)


WORKLOADS = {
    "modified_64": functools.partial(RandomRun, "MODIFIED"),
    "traditional_64": functools.partial(RandomRun, "TRADITIONAL"),
    "mms_convergence": Manufactured,
    "cli_checkpoint_32": CliCheckpoint,
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--deadline", type=float, required=True,
                    help="time.monotonic() after which no segment starts")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="where a traced worker writes its spans")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(args.repo, "src"))
    import modmhd
    import modmhd.cli          # noqa: F401  (modmhd does not import cli)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    workload = WORKLOADS[args.workload](modmhd, args.seed, args.smoke,
                                        tracer, args.workdir)
    setup_end = time.monotonic()

    segments = []
    while True:
        if tracer is not None:
            tracer.run_id = len(segments) + 1
        start = time.perf_counter()
        try:
            steps, fails = workload.segment()
        except Exception:                    # report, keep measuring
            steps, fails = 0, [traceback.format_exc(limit=3)]
        wall = time.perf_counter() - start
        segments.append({"wall_s": wall, "steps": steps, "failures": fails})
        if hasattr(workload, "cleanup"):
            workload.cleanup()
        if tracer is not None or time.monotonic() + wall > args.deadline:
            break

    result = {
        "setup_end": setup_end,
        "segments": segments,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from tracing import layer_metrics
        result["layers"] = layer_metrics(tracer.spans, tracer.counts)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
