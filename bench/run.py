"""The benchmark's one command.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With --trace 0 it measures set-up, runs
the workload for S seconds (whole mix cycles) in a fresh single-threaded
process, checks every answer in another process and prints the end-to-end
metrics.  With --trace 1 it runs a fixed list of instances twice, untraced and
traced, and prints the per-layer metrics and the tracing overhead.  The last
line of stdout is one JSON object; the line before it holds the details
(tail percentile and sample count, failing instances, set-up samples).
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import clock  # noqa: E402
from gen import WORKLOADS, cycle_length  # noqa: E402
from tracing import merge_summaries  # noqa: E402

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.2),
    ("latency_p50_s", "s", "lower", 0.2),
    ("latency_tail_s", "s", "lower", 0.25),
    ("success_share", "ratio", "higher", 0.02),
    ("peak_rss_mb", "MiB", "lower", 0.1),
)

# name, unit, better
PER_LAYER = (
    ("scalars.self_s", "s", "lower"),
    ("scalars.cyc_mul_calls", "count", "lower"),
    ("scalars.cyc_add_calls", "count", "lower"),
    ("signatures.self_s", "s", "lower"),
    ("signatures.tensor_calls", "count", "lower"),
    ("signatures.contract_calls", "count", "lower"),
    ("signatures.permute_calls", "count", "lower"),
    ("signatures.holo_calls", "count", "lower"),
    ("signatures.decompose_atoms_calls", "count", "lower"),
    ("signatures.entries_built", "entries", "lower"),
    ("signatures.peak_entries", "entries", "lower"),
    ("evaluation.contract_s", "s", "lower"),
    ("evaluation.merge_calls", "count", "lower"),
    ("evaluation.family_s", "s", "lower"),
    ("evaluation.brute_s", "s", "lower"),
    ("evaluation.float_err_max", "ratio", "lower"),
    ("classify.classify_set_s", "s", "lower"),
    ("classify.self_s", "s", "lower"),
    ("classify.decompose_s", "s", "lower"),
    ("classify.distinct_functions", "count", "lower"),
    ("grids.parse_s", "s", "lower"),
    ("reductions.build_s", "s", "lower"),
    ("synthesis.self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.interpreter_share", "ratio", "lower"),
    ("cli.numpy_loaded", "count", "lower"),
    ("cli.brute_fallbacks", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

SETUP_SAMPLES = 5
# The tail percentile is fixed per workload, so that runs of two commits
# report the same percentile; at 20 s each leaves at least ten instances
# beyond it, also on a host 1.5x slower than the baseline machine.
TAIL_PERCENTILE = {"contract-exact": 80, "contract-float": 80,
                   "family-dispatch": 75, "cli-cold": 85}
# Instances in a traced run: whole mix cycles, independent of time, so that
# call counts repeat exactly.
TRACE_COUNT = {"contract-exact": 12, "contract-float": 12,
               "family-dispatch": 8, "cli-cold": 20}
TIME_LIMIT_S = 170


class BenchError(RuntimeError):
    pass


class Child:
    """A child process read line by line.

    It runs in its own process group with everything it starts (cli-cold's
    commands), and the whole group is killed if the run's time runs out or
    the reader fails.
    """

    def __init__(self, cmd, deadline, stdin_text=None):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, text=True, stdout=subprocess.PIPE,
            stdin=subprocess.PIPE if stdin_text is not None else subprocess.DEVNULL,
            start_new_session=True)
        self.timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                     self.kill)
        self.timer.start()
        if stdin_text is not None:
            self.proc.stdin.write(stdin_text)
            self.proc.stdin.close()

    def kill(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.timer.cancel()
        if self.proc.poll() is None:
            self.kill()
        self.proc.wait()
        self.proc.stdout.close()
        return False

    def lines(self):
        for line in self.proc.stdout:
            try:
                msg = json.loads(line)
            except ValueError:  # not ours: the program printed to stdout
                continue
            if isinstance(msg, dict):
                yield msg

    def finish(self):
        code = self.proc.wait()
        if code != 0:
            raise BenchError(f"{self.proc.args[1]} exited with code {code}")


def run_worker(workload, seed, mode, deadline, workdir, seconds=0.0, count=0,
               spans_out=None):
    """(set-up seconds, results, done record) of one worker process."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--seconds", str(seconds), "--count", str(count),
           "--workdir", workdir]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    loop_before = clock.loop_s()
    setup = None
    results, done = [], None
    with Child(cmd, deadline) as child:
        for msg in child.lines():
            if "ready" in msg:
                start_s = clock.reference_s(msg["imported_at"] - child.start,
                                            loop_before, msg["import_loop_s"])
                setup = start_s + msg["warm_s"]
            elif "result" in msg:
                results.append(msg["result"])
            elif "done" in msg:
                done = msg
        child.finish()
    if setup is None or (mode != "setup" and done is None):
        raise BenchError(f"worker ({mode}) ended early")
    return setup, results, done


def run_check(workload, seed, results, deadline):
    text = "".join(json.dumps({"result": r}) + "\n" for r in results)
    verdict = None
    with Child([sys.executable, os.path.join(HERE, "check.py"),
                "--workload", workload, "--seed", str(seed)], deadline,
               stdin_text=text) as child:
        for msg in child.lines():
            verdict = msg
        child.finish()
    if verdict is None:
        raise BenchError("check.py printed no verdict")
    return verdict


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def timed_run(args, deadline, workdir):
    def setup_only():
        return run_worker(args.workload, args.seed, "setup", deadline, workdir)[0]

    # set-up samples before and after the timed worker (itself one sample),
    # so that their median spans the run's changes in host speed
    setups = [setup_only() for _ in range(SETUP_SAMPLES // 2)]
    setup, results, done = run_worker(args.workload, args.seed, "timed",
                                      deadline, workdir, seconds=args.seconds)
    setups.append(setup)
    setups += [setup_only() for _ in range(SETUP_SAMPLES - len(setups))]
    verdict = run_check(args.workload, args.seed, results, deadline)

    lat = [r["seconds"] for r in results]
    n = len(lat)
    pct = TAIL_PERCENTILE[args.workload]
    tail = percentile(lat, pct) if n > 1 else lat[0]
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": n / sum(lat),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail,
        "success_share": (n - verdict["failed"]) / n,
        "peak_rss_mb": done["peak_rss_kib"] / 1024.0,
    }
    wall = [r["wall_s"] for r in results]
    details = {
        "instances": n, "cycles": n // cycle_length(args.workload),
        "tail_percentile": pct, "tail_beyond": sum(x > tail for x in lat),
        "wall_s": sum(wall), "wall_p50_s": statistics.median(wall),
        "wall_throughput_per_s": n / sum(wall),
        "speed_vs_reference": sum(wall) / sum(lat),
        "failed_share": verdict["failed"] / n, "wrong": verdict["wrong"],
        "problems": verdict["problems"][:40], "setup_samples_s": setups,
    }
    return verdict, {k: (metrics[k], u) for k, u, _, _ in END_TO_END}, details


def traced_run(args, deadline, workdir):
    count = TRACE_COUNT[args.workload]
    spans_out = os.path.join(ROOT, ".bench_runs",
                             f"spans-{args.workload}-seed{args.seed}.json")
    _, plain_results, plain = run_worker(args.workload, args.seed, "fixed",
                                         deadline, os.path.join(workdir, "fixed"),
                                         count=count)
    _, results, traced = run_worker(args.workload, args.seed, "traced", deadline,
                                    os.path.join(workdir, "traced"), count=count,
                                    spans_out=spans_out)
    plain_s = sum(r["seconds"] for r in plain_results)
    traced_s = sum(r["seconds"] for r in results)
    verdict = run_check(args.workload, args.seed, results, deadline)

    children = plain.get("child_stats")
    if children:  # cli-cold: one process per command
        summary = merge_summaries(c["trace"] for c in traced["child_stats"])
        cli = {"import_s": statistics.mean(c["import_s"] for c in children),
               "main_s": statistics.mean(c["main_s"] for c in children),
               "interpreter_share": statistics.mean(
                   (c["wall_s"] - c["main_s"]) / c["wall_s"] for c in children),
               "numpy_loaded": sum(c["numpy_loaded"] for c in children)}
    else:
        summary = traced["trace"]
        cli = {"import_s": plain["import_s"], "main_s": 0.0,
               "interpreter_share": 0.0,
               "numpy_loaded": int(plain["numpy_loaded"])}
    self_s, calls, incl = summary["self_s"], summary["calls"], summary["incl_s"]
    values = {
        "scalars.self_s": self_s["scalars"],
        "scalars.cyc_mul_calls": calls["cyc_mul"],
        "scalars.cyc_add_calls": calls["cyc_add"],
        "signatures.self_s": self_s["signatures"],
        "signatures.tensor_calls": calls["tensor"],
        "signatures.contract_calls": calls["contract"],
        "signatures.permute_calls": calls["permute"],
        "signatures.holo_calls": calls["holo"],
        "signatures.decompose_atoms_calls": calls["decompose_atoms"],
        "signatures.entries_built": summary["entries_built"],
        "signatures.peak_entries": summary["peak_entries"],
        "evaluation.contract_s": incl["contract"],
        "evaluation.merge_calls": calls["merge"],
        "evaluation.family_s": incl["family"],
        "evaluation.brute_s": incl["brute"],
        "evaluation.float_err_max": verdict["float_err_max"],
        "classify.classify_set_s": incl["classify_set"],
        "classify.self_s": self_s["classify"],
        "classify.decompose_s": summary["classify_decompose_s"],
        "classify.distinct_functions": summary["distinct_functions"],
        "grids.parse_s": incl["parse"],
        "reductions.build_s": incl["build"],
        "synthesis.self_s": self_s["synthesis"],
        "cli.import_s": cli["import_s"],
        "cli.main_s": cli["main_s"],
        "cli.interpreter_share": cli["interpreter_share"],
        "cli.numpy_loaded": cli["numpy_loaded"],
        "cli.brute_fallbacks": verdict["brute_fallbacks"],
        "trace.overhead_s": traced_s - plain_s,
    }
    details = {
        "instances": count, "untraced_s": plain_s, "traced_s": traced_s,
        "self_s_by_layer": self_s,
        "span_totals": traced["span_totals"], "spans_file": spans_out,
        "failed_share": verdict["failed"] / count, "wrong": verdict["wrong"],
        "problems": verdict["problems"][:40],
    }
    return verdict, {k: (values[k], u) for k, u, _ in PER_LAYER}, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "holant", "cli.py")):
        print("bench: no src/holant/cli.py here; run from the root of a "
              "checkout of the program", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = os.path.join(ROOT, ".bench_runs",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        run = traced_run if args.trace else timed_run
        verdict, metrics, details = run(args, deadline, workdir)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, **details}
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": verdict["wrong"] == 0,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
