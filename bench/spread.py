"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json's bounds.

    python3 bench/spread.py [--workloads W ...] [--seeds 10] [--sets 2]

Runs bench/run.py for BENCHMARK.json's run_seconds once per seed (1, 2, ...)
per workload, `--sets` times over the same seeds, all on the checked-out
commit.  For each workload and metric it prints,
per set, the median and the spread (first to third quartile, as
statistics.quantiles(values, n=4) gives them, over the median), and how much
worse the last set's median is than the first's.  A spread or a drift above
its bound is marked FAIL; a spread above a third of its bound is marked high.
Exits 1 if anything failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / med if med else float("inf")


def worse_by(first, last, better):
    if not first:
        return 0.0
    change = (last - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    args = ap.parse_args(argv)

    seeds = range(1, args.seeds + 1)
    ok = True
    for workload in args.workloads:
        sets = []
        for k in range(args.sets):
            runs = [one_run(workload, s, spec["run_seconds"]) for s in seeds]
            sets.append(runs)
            print(f"# {workload} set {k + 1}: {len(runs)} runs", flush=True)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cols = []
            for runs in sets:
                med, sp = spread([r[name] for r in runs])
                flag = ""
                if sp > bound:
                    flag, ok = "FAIL", False
                elif sp > bound / 3:
                    flag = "high"
                cols.append(f"median {med:.6g} spread {sp:.4f} {flag}".rstrip())
            line = f"{workload:16s} {name:18s} bound {bound:<5} " + " | ".join(cols)
            if len(sets) > 1:
                first = statistics.median(r[name] for r in sets[0])
                last = statistics.median(r[name] for r in sets[-1])
                drift = worse_by(first, last, metric["better"])
                flag = " FAIL" if drift > bound else ""
                if flag:
                    ok = False
                line += f" | worse by {drift:+.4f}{flag}"
            print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
