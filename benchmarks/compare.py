"""Compare two source trees on the benchmark, or check one tree's steadiness.

    python3 benchmarks/compare.py --base PARENT_TREE --head CHANGE_TREE \\
        [--workloads modified_64,traditional_64] [--pairs 10] [--first-seed 0]

Both trees are measured by this directory's run.py (``--repo``) for
BENCHMARK.json's ``run_seconds``, so the benchmark code and settings are
identical.  Pair i runs both sides on seed ``--first-seed + i``,
alternating which side runs first.  Each workload gets its own rows:
for every end-to-end metric, each side's median and quartiles, the
head's win fraction over the pairs (ties count for neither), and a
verdict:

* ``unresolved`` the base's own spread (quartile distance over median) is
                 wider than the bound, and not every head run beats every
                 base run;
* ``worse``      otherwise, the head's median is worse than the base's by
                 more than the metric's bound in BENCHMARK.json;
* ``better``     the head wins at least 9/10 of the pairs and the medians
                 differ by more than the base's quartile distance;
* ``same``       none of the above.

Without ``--head`` only the base is run, and each metric's spread is
shown against its bound (a benchmark is steady when every spread except
set-up time's is below a third of its bound).  ``--save`` writes every
run's metrics as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import BENCH_DIR, load_spec


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def run_once(tree, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--repo", tree,
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"failed": out["failed"], "attempted": out["attempted"],
            **{k: v["value"] for k, v in out["metrics"].items()}}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4))


def verdict(metric, base, head):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    gain = (lambda h, b: h < b) if lower else (lambda h, b: h > b)
    b1, bmed, b3 = quartiles(base)
    hmed = statistics.median(head)
    wins = sum(1 for b, h in zip(base, head) if gain(h, b)) / len(base)
    worse_by = (hmed - bmed) / bmed if lower else (bmed - hmed) / bmed
    if len(base) > 1 and spread(base) > bound and not all(
            gain(h, b) for h in head for b in base):
        return wins, "unresolved"
    if worse_by > bound:
        return wins, "worse"
    if wins >= 0.9 and gain(hmed, bmed) and abs(hmed - bmed) > b3 - b1:
        return wins, "better"
    return wins, "same"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="paired benchmark comparison")
    ap.add_argument("--base", required=True, help="parent source tree")
    ap.add_argument("--head", help="changed source tree")
    ap.add_argument("--workloads", help="comma-separated; default: BENCHMARK.json's")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--save", help="write every run's metrics here (JSON)")
    args = ap.parse_args(argv)

    spec = load_spec()
    seconds = spec["run_seconds"]
    sides = {"base": os.path.abspath(args.base)}
    if args.head:
        sides["head"] = os.path.abspath(args.head)
    runs = {}
    names = [w["name"] for w in spec["workloads"]]
    for workload in args.workloads.split(",") if args.workloads else names:
        got = {side: [] for side in sides}
        for i in range(args.pairs):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for side in order:
                got[side].append(run_once(sides[side], workload,
                                          args.first_seed + i, seconds))
        runs[workload] = got
        report(workload, spec, got)
    if args.save:
        with open(args.save, "w") as handle:
            json.dump({"sides": sides, "seconds": seconds, "runs": runs},
                      handle, indent=1)
    return 0


def report(workload, spec, got):
    failed = {side: sum(r["failed"] for r in rs) for side, rs in got.items()}
    print(f"\n== {workload}: {len(got['base'])} runs per side, failed "
          f"segments {failed}")
    for metric in spec["end_to_end"]:
        name, unit, bound = metric["name"], metric["unit"], metric["bound"]
        base = [r[name] for r in got["base"]]
        q1, med, q3 = quartiles(base)
        line = (f"{name:16s} base {med:.6g} [{q1:.6g}, {q3:.6g}] {unit}, "
                f"spread {spread(base) if len(base) > 1 else 0.0:.3f} "
                f"(bound {bound})")
        if "head" in got:
            head = [r[name] for r in got["head"]]
            h1, hmed, h3 = quartiles(head)
            wins, word = verdict(metric, base, head)
            line += (f" | head {hmed:.6g} [{h1:.6g}, {h3:.6g}], "
                     f"change {hmed / med - 1.0:+.3f}, wins {wins:.2f}: {word}")
        print(line)


if __name__ == "__main__":
    sys.exit(main())
