"""modmhd benchmark: one workload, measured end to end or traced by layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs serially in fresh single Python processes (worker.py),
one at a time, with BLAS pinned to one thread.  ``--trace 0`` starts a
fixed number of workers, each of which sets up once and then runs
checked segments until its share of ``--seconds`` is used, and reports
the end-to-end metrics as medians over set-ups, segments and workers.
``--trace 1`` runs one untraced worker and then one traced worker that
runs exactly one segment, and reports the per-layer metrics of the traced
worker plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable report.  ``--repo`` points the same benchmark code at
another source tree (compare.py uses it to measure two commits alike).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

#: BENCHMARK.json's workloads first; modified_64 is kept for ad-hoc runs
#: (see README.md for why it is not in the evaluated set)
WORKLOADS = ("traditional_64", "mms_convergence", "cli_checkpoint_32",
             "modified_64")
WORKERS_PER_RUN = 3         # set-up samples per untraced run
#: every workload process sees one BLAS/OpenMP thread
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
RUN_TIMEOUT_S = 170.0
STARTED = time.monotonic()


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def tail(samples) -> str:
    """Median plus the highest percentile with at least ten samples beyond."""
    xs = sorted(samples)
    n = len(xs)
    text = f"median {statistics.median(xs):.6g} (n={n})"
    for p in (99, 95, 90, 75):
        k = math.ceil(p / 100.0 * n)          # samples at or below the pXX rank
        if n - k >= 10:
            return text + f", p{p} {xs[k - 1]:.6g}"
    return text + ", too few samples for a tail percentile"


def start_worker(repo, workload, seed, deadline, trace, smoke, workdir, spans=None):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--repo", repo, "--workload", workload, "--seed", str(seed),
           "--deadline", repr(deadline), "--trace", str(trace),
           "--workdir", workdir]
    if smoke:
        cmd.append("--smoke")
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, **THREAD_ENV)
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(5.0, RUN_TIMEOUT_S - (spawned - STARTED)))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["setup_end"] - spawned
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="modmhd benchmark (see module doc)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--repo", default=ROOT,
                    help="source tree whose src/modmhd is measured")
    ap.add_argument("--smoke", action="store_true",
                    help="reduced problem sizes, for the self-test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    repo = os.path.abspath(args.repo)
    if not os.path.isfile(os.path.join(repo, "src", "modmhd", "__init__.py")):
        print(f"error: no modmhd sources under {repo}/src", file=sys.stderr)
        return 2
    spec = load_spec()
    out_root = os.path.join(ROOT, ".bench_out")
    workdir = os.path.join(out_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return measure(args, spec, repo, workdir, out_root)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec, repo, workdir, out_root) -> int:
    start = time.monotonic()

    def run(deadline, trace=0, spans=None):
        return start_worker(repo, args.workload, args.seed, deadline, trace,
                            args.smoke, workdir, spans)

    if args.trace:
        workers = [run(start + args.seconds / 2)]
        spans = os.path.join(out_root, f"spans-{args.workload}-{args.seed}.json")
        traced = run(0.0, trace=1, spans=spans)
        untraced_wall = statistics.median(s["wall_s"] for s in workers[0]["segments"])
        values = dict(traced["layers"])
        values["trace.overhead_frac"] = (
            traced["segments"][0]["wall_s"] / untraced_wall - 1.0)
        workers.append(traced)
        wanted = spec["per_layer"]
    else:
        workers = [run(start + (i + 1) * args.seconds / WORKERS_PER_RUN)
                   for i in range(WORKERS_PER_RUN)]
        segments = [s for w in workers for s in w["segments"]]
        samples = {
            "setup_s": [w["setup_s"] for w in workers],
            "wall_s": [s["wall_s"] for s in segments],
            "ms_per_step": [1e3 * s["wall_s"] / max(s["steps"], 1) for s in segments],
            "peak_rss_mb": [w["peak_rss_mb"] for w in workers],
        }
        passed = sum(1 for s in segments if not s["failures"])
        values = {k: statistics.median(v) for k, v in samples.items()}
        values["check_pass_frac"] = passed / len(segments)
        wanted = spec["end_to_end"]
        units = {m["name"]: m["unit"] for m in wanted}
        for name, xs in samples.items():
            print(f"{args.workload} {name} [{units[name]}]: {tail(xs)}")

    segments = [s for w in workers for s in w["segments"]]
    failed = sum(1 for s in segments if s["failures"])
    steps = [s["steps"] for s in segments]
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(workers)} workers, {len(segments)} segments, steps {steps}, "
          f"{failed} failed, {time.monotonic() - start:.1f} s")
    for s in segments:
        for failure in s["failures"]:
            print(f"  check failed: {failure}")

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": len(segments),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
