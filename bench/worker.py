"""One workload process: set-up, then a timed, fixed or traced instance loop.

Run by run.py, never by hand:

    python3 bench/worker.py --workload W --seed N --mode timed --seconds S
    python3 bench/worker.py --workload W --seed N --mode fixed|traced --count K

It prints JSON lines on stdout: {"ready": ...} once `holant.cli` is imported
and the warm-up instance (index -1) has run, one {"result": ...} per instance,
and a final {"done": ...}.  Instances are generated and converted to the
program's input types outside the timed region; answers are checked later,
by check.py in another process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext

T_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

import holant.cli  # noqa: E402,F401  (part of set-up: what every user pays)

IMPORTED_AT = time.perf_counter()
IMPORT_S = IMPORTED_AT - T_START

import gen  # noqa: E402
from holant.classify import classify_set  # noqa: E402
from holant.evaluation import holant_contract, holant_E, holant_KM, holant_T  # noqa: E402
from holant.grids import SignatureGrid, grid_from_json, require_valid  # noqa: E402
from holant.reductions import (graph_from_json, independent_set_grid,  # noqa: E402
                               monomer_dimer_grid)
from holant.scalars import format_scalar, parse_scalar  # noqa: E402
from holant.signatures import K1, K2  # noqa: E402
import clock  # noqa: E402
from tracing import NoSpans, Spans, Tracer  # noqa: E402

CLI_TIMEOUT_S = 120


def emit(obj):
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")
    sys.stdout.flush()


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


# -- in-process workloads ------------------------------------------------------------
#
# prepare(inst) builds the program's inputs outside the timed region;
# run(prepared, spans) is the timed instance and returns the answer object.

def to_float_grid(grid):
    """Coerce every vertex to complex, as `--backend float` does."""
    return SignatureGrid({v: f.to_approx() for v, f in grid.vertices.items()},
                         grid.edges, grid.dangling, grid.bipartition)


def prepare_contract(inst):
    if inst["family"] == "torus":
        return inst["family"], grid_from_json(inst["grid"])
    return inst["family"], (graph_from_json(inst["graph"]),
                            parse_scalar(inst["activity"]))


def run_contract(prepared, spans, to_float):
    family, data = prepared
    if family == "torus":
        grid = data
    else:
        graph, act = data
        build = independent_set_grid if family == "is" else monomer_dimer_grid
        with spans.span("reductions.build"):
            grid = build(graph, act)
    if to_float:
        with spans.span("signatures.to_approx"):
            grid = to_float_grid(grid)
    with spans.span("evaluation.holant_contract"):
        z = holant_contract(grid).value
    return {"Z": format_scalar(z)}


def prepare_family(inst):
    return inst["grid"]


def run_family(grid_obj, spans):
    """grid JSON -> parse + validate -> classify -> certified engine -> text."""
    with spans.span("grids.grid_from_json"):
        grid = grid_from_json(grid_obj)
        require_valid(grid)
    with spans.span("classify.classify_set"):
        report = classify_set(set(grid.vertices.values()))
    with spans.span("evaluation.family"):
        if report.cond_T:
            engine, z = "T", holant_T(grid)
        elif report.cond_OE.status == "holds":
            engine, z = "OE", holant_E(grid, strip=report.cond_OE.witness)
        elif report.cond_KE:
            engine, z = "KE", holant_E(grid, strip="K1")
        elif report.cond_KM:
            K = K1 if report.cond_KM[0] == "K1" else K2
            engine, z = "KM", holant_KM(grid, K=K)
        else:
            engine, z = "contract", holant_contract(grid)
    with spans.span("scalars.format_scalar"):
        text = format_scalar(z.value)
    return {"Z": text, "engine": engine}


# -- cli-cold ---------------------------------------------------------------------------

class CliRunner:
    """Each instance is one fresh `python -m holant.cli` process.

    In fixed and traced modes the process is cli_child.py instead, which
    imports the same module, times the import and `main(argv)`, and with
    --profile runs `main` under the tracer.
    """

    def __init__(self, workdir, mode):
        self.workdir = workdir
        self.mode = mode
        self.env = child_env()
        self.child_stats = []

    def prepare(self, inst):
        d = os.path.join(self.workdir, str(inst["index"]))
        os.makedirs(d, exist_ok=True)
        for name, obj in inst["files"].items():
            with open(os.path.join(d, name), "w") as fh:
                json.dump(obj, fh)
        return d, inst["argv"]

    def run(self, prepared, spans):
        d, argv = prepared
        stats_path = os.path.join(d, "child-stats.json")
        if self.mode == "timed":
            cmd = [sys.executable, "-m", "holant.cli", *argv]
        else:
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"),
                   "--stats", stats_path]
            if self.mode == "traced":
                cmd.append("--profile")
            cmd += ["--", *argv]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=d, env=self.env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        end = time.perf_counter()
        out = {"exit": proc.returncode, "stdout": proc.stdout,
               "stderr": proc.stderr[-4000:]}
        if self.mode != "timed" and os.path.exists(stats_path):
            with open(stats_path) as fh:
                stats = json.load(fh)
            stats["wall_s"] = end - start
            self.child_stats.append(stats)
            for name, (a, b) in stats.pop("spans").items():
                spans.add(name, a, b, parent=spans.current())
        return out


# -- the loop -----------------------------------------------------------------------------

def make_runner(workload, workdir, mode):
    """(prepare, run, CliRunner or None) for the workload."""
    if workload in ("contract-exact", "contract-float"):
        to_float = workload == "contract-float"
        return prepare_contract, lambda p, s: run_contract(p, s, to_float), None
    if workload == "family-dispatch":
        return prepare_family, run_family, None
    cli = CliRunner(workdir, mode)
    return cli.prepare, cli.run, cli


def time_instance(run, prepared, spans, name, tracer=None):
    """(answer, error, wall seconds, reference seconds) of one instance.

    The tracer, if any, is on only around the instance: a profiler slows all
    bytecode, the calibration loop's too.
    """
    before = clock.loop_s()
    with spans.span(name), (tracer.active() if tracer else nullcontext()):
        t0 = time.perf_counter()
        try:
            answer, error = run(prepared, spans), None
        except Exception:  # a failing instance is a result, not a crash
            answer, error = None, traceback.format_exc(limit=8)
        wall = time.perf_counter() - t0
    return answer, error, wall, clock.reference_s(wall, before, clock.loop_s())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "timed", "fixed", "traced"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--count", type=int, default=0)
    ap.add_argument("--workdir", required=True,
                    help="scratch directory for cli-cold input files")
    ap.add_argument("--spans-out", help="where the traced mode writes its spans")
    args = ap.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    prepare, run, cli = make_runner(args.workload, args.workdir, args.mode)

    # set-up: the import above plus the untimed warm-up instance.  The
    # import is timed by run.py from the process's start to IMPORTED_AT (the
    # clock is system-wide) and closed by a calibration loop here; the
    # warm-up is timed like any instance.
    import_loop_s = clock.loop_s()
    prepared = prepare(gen.instance(args.workload, args.seed, -1))
    warm_s = time_instance(run, prepared, NoSpans(), "warm-up")[3]
    if cli is not None:  # per-layer figures cover the counted instances only
        cli.child_stats.clear()
    emit({"ready": True, "imported_at": IMPORTED_AT,
          "import_loop_s": import_loop_s, "warm_s": warm_s})
    if args.mode == "setup":
        return 0

    spans = Spans() if args.mode == "traced" else NoSpans()
    # cli-cold children trace themselves (cli_child.py --profile)
    tracer = Tracer() if args.mode == "traced" and cli is None else None
    cycle = gen.cycle_length(args.workload)
    wall_s = 0.0
    index = 0
    while True:
        if args.mode == "timed":
            # whole mix cycles only, so every run has the same proportions
            if index % cycle == 0 and wall_s >= args.seconds:
                break
        elif index >= args.count:
            break
        inst = gen.instance(args.workload, args.seed, index)
        prepared = prepare(inst)
        answer, error, wall, ref = time_instance(
            run, prepared, spans,
            f"instance/{index}" if args.mode == "traced" else "instance", tracer)
        wall_s += wall
        emit({"result": {"index": index, "family": inst["family"],
                         "seconds": ref, "wall_s": wall, "answer": answer,
                         "error": error}})
        index += 1

    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    done = {"done": True, "wall_s": wall_s, "instances": index,
            "peak_rss_kib": child_kib if cli is not None else self_kib,
            "import_s": IMPORT_S, "numpy_loaded": "numpy" in sys.modules}
    if tracer is not None:
        done["trace"] = tracer.summary()
    if cli is not None:
        done["child_stats"] = cli.child_stats
    if args.mode == "traced":
        done["span_totals"] = spans.totals()
        with open(args.spans_out, "w") as fh:
            json.dump({"columns": ["id", "parent", "name", "start", "end"],
                       "rows": spans.rows}, fh)
    emit(done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
