"""Answer checker, run in its own process after the timed one.

    python3 bench/check.py --workload W --seed N < results.jsonl

Reads the worker's {"result": ...} lines, regenerates each instance from the
seed and checks the answer independently of the timed process:

- every closed grid against a complex128 numpy contraction written here
  (`np.tensordot` over the grid's edges, rescaled as it goes so that large
  answers do not overflow), within a relative tolerance;
- independent-set and matching instances for exact equality with
  `independent_set_poly_brute` / `matching_poly_brute`;
- family-dispatch instances for the engine their family certifies;
- cli-cold outputs against the CLI contract (exit code 0, one line of compact
  JSON with sorted keys, no traceback, the keys tests/test_cli.py reads) and
  against the library's in-process answer.

An instance "fails" when it raised, exited unexpectedly or broke the output
contract, and is "wrong" when it returned a value that disagrees with the
reference.  Prints one JSON verdict line.
"""

from __future__ import annotations

import argparse
import heapq
import json
import math
import os
import re
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

import gen  # noqa: E402
from holant.classify import classify_set, report_to_json  # noqa: E402
from holant.evaluation import holant_brute, realize_gadget  # noqa: E402
from holant.formulas import eval_formula, formula_from_json  # noqa: E402
from holant.grids import grid_from_json  # noqa: E402
from holant.reductions import (CspInstance, csp_value_brute,  # noqa: E402
                               graph_from_json, independent_set_grid,
                               independent_set_poly_brute, matching_poly_brute,
                               monomer_dimer_grid)
from holant.scalars import format_scalar, parse_scalar, to_complex  # noqa: E402
from holant.signatures import signature_from_json, signature_to_json  # noqa: E402
from holant import synthesis  # noqa: E402

RTOL = 1e-8      # relative to |Z|
ATOL = 1e-12     # relative to the contraction of |f|, for an answer of 0
MAX_TABLE = 1 << 22
_S = math.sqrt(0.5)


class Failed(Exception):
    """The instance broke its contract (no usable answer)."""


class Wrong(Exception):
    """The instance answered, and the answer disagrees with the reference."""


# -- scalar literals --------------------------------------------------------------

_R = r"\d+(?:/\d+)?"


def literal(obj):
    """A scalar the program printed -> ("exact", 4 Fractions) or ("approx", complex).

    Accepts the exact grammar format_scalar writes (rationals, a+bi forms,
    [-][1/]sqrt2, {"zeta8": [...]}) and, for floats, {"re", "im"} objects or
    strings that parse as a complex number.
    """
    zero = Fraction(0)
    if isinstance(obj, dict):
        if "zeta8" in obj:
            return "exact", tuple(Fraction(str(c)) for c in obj["zeta8"])
        if "re" in obj or "im" in obj:
            return "approx", complex(float(obj.get("re", 0)), float(obj.get("im", 0)))
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return "approx", complex(obj)
    if not isinstance(obj, str):
        raise ValueError(f"not a scalar literal: {obj!r}")
    s = obj.strip()
    neg = s.startswith("-")
    root = s[1:] if neg else s
    sign = -1 if neg else 1
    if root in ("sqrt2", "1/sqrt2"):
        h = Fraction(1) if root == "sqrt2" else Fraction(1, 2)
        return "exact", (zero, sign * h, zero, -sign * h)
    if re.fullmatch(rf"-?{_R}", s):
        return "exact", (Fraction(s), zero, zero, zero)
    m = re.fullmatch(rf"(-?{_R})([+-])({_R})?i", s)
    if m:
        b = Fraction(m.group(3) or 1) * (-1 if m.group(2) == "-" else 1)
        return "exact", (Fraction(m.group(1)), zero, b, zero)
    m = re.fullmatch(rf"(-?)({_R})?i", s)
    if m:
        b = Fraction(m.group(2) or 1) * (-1 if m.group(1) else 1)
        return "exact", (zero, zero, b, zero)
    try:
        return "approx", complex(s.replace(" ", "").replace("i", "j"))
    except ValueError:
        raise ValueError(f"not a scalar literal: {obj!r}") from None


def _surd(a: Fraction, b: Fraction) -> float:
    """a + b*sqrt2 as a float, accurate even when the two terms cancel."""
    if not b:
        return float(a)
    if not a or (a > 0) == (b > 0):
        return float(a) + float(b) * math.sqrt(2)
    # a + b sqrt2 = (a^2 - 2 b^2) / (a - b sqrt2); the denominator cannot cancel
    k = max(abs(a), abs(b))
    k = k.numerator.bit_length() - k.denominator.bit_length()
    a, b = a / Fraction(2) ** k, b / Fraction(2) ** k
    return math.ldexp(float((a * a - 2 * b * b) / Fraction(float(a) - float(b) * math.sqrt(2))), k)


def scaled(lit, e: int) -> complex:
    """The literal's value divided by 2**e, without overflow or cancellation."""
    kind, v = lit
    if kind == "approx":
        return complex(math.ldexp(v.real, -e), math.ldexp(v.imag, -e))
    c0, c1, c2, c3 = (c / Fraction(2) ** e for c in v)
    # z = (1 + i) / sqrt2, so c1 z + c3 z^3 = (c1 - c3 + (c1 + c3) i) sqrt2 / 2
    return complex(_surd(c0, (c1 - c3) / 2), _surd(c2, (c1 + c3) / 2))


# -- numpy reference contraction ---------------------------------------------------

def _order(legs, ends):
    """Sweep order: next is the vertex that grows the open legs least."""
    links = {v: 0 for v in legs}
    visited = set()
    order = []
    unvisited = iter(sorted(legs))
    heap = []
    while len(order) < len(legs):
        v = None
        while heap:
            key, w = heapq.heappop(heap)
            if w not in visited and key == len(legs[w]) - 2 * links[w]:
                v = w
                break
        if v is None:  # start a new component
            v = next(w for w in unvisited if w not in visited)
        visited.add(v)
        order.append(v)
        for e in legs[v]:
            for w in ends[e]:
                if w not in visited:
                    links[w] += 1
                    heapq.heappush(heap, (len(legs[w]) - 2 * links[w], w))
    return order


def _contract(tensors, legs, order):
    """Sweep the vertices in `order` into one running tensor.

    Returns (mantissa, log2 scale): Z = mantissa * 2**scale.
    """
    run = np.ones((), dtype=complex)
    run_legs = []
    log2 = 0.0
    for v in order:
        t, lv = tensors[v], list(legs[v])
        while True:  # self-loops first
            dup = next((e for e in lv if lv.count(e) == 2), None)
            if dup is None:
                break
            i = lv.index(dup)
            j = lv.index(dup, i + 1)
            t = np.trace(t, axis1=i, axis2=j)
            lv = [e for k, e in enumerate(lv) if k not in (i, j)]
        shared = [e for e in lv if e in run_legs]
        run = np.tensordot(run, t, axes=([run_legs.index(e) for e in shared],
                                         [lv.index(e) for e in shared]))
        run_legs = [e for e in run_legs if e not in shared] + \
                   [e for e in lv if e not in shared]
        if run.size > MAX_TABLE:
            raise RuntimeError("reference contraction too wide")
        peak = float(np.max(np.abs(run)))
        if peak == 0.0:
            return 0j, 0.0
        run = run / peak
        log2 += math.log2(peak)
    return complex(run), log2


def reference(grid):
    """(Z, |terms|) of a closed grid, each as (mantissa, log2 scale)."""
    ends = {}
    for n, (p, q) in enumerate(grid.edges):
        ends[n] = (p[0], q[0])
    port = {}
    for n, (p, q) in enumerate(grid.edges):
        port[p] = n
        port[q] = n
    legs, tensors, abs_tensors = {}, {}, {}
    for v, f in grid.vertices.items():
        legs[v] = [port[(v, s)] for s in range(1, f.arity + 1)]
        t = np.array([to_complex(x) for x in f.values], dtype=complex)
        tensors[v] = t.reshape((2,) * f.arity)
        abs_tensors[v] = np.abs(tensors[v]).astype(complex)
    order = _order(legs, ends)
    return _contract(tensors, legs, order), _contract(abs_tensors, legs, order)


def compare(answer_lit, ref):
    """Relative error of the answer against the reference; raises Wrong.

    The tolerance is relative to |Z|.  An answer of exactly 0 passes when the
    reference is negligible next to the contraction of |f|, i.e. rounding.
    """
    (m, l2), (ma, la) = ref
    e = math.floor(la) if ma else 0
    r = m * 2.0 ** (l2 - e) if m else 0j
    s = abs(ma) * 2.0 ** (la - e)
    try:
        z = scaled(answer_lit, e)
    except OverflowError:
        raise Wrong("answer overflows the reference's scale") from None
    err = abs(z - r)
    if err <= RTOL * abs(r) or (z == 0 and abs(r) <= ATOL * s):
        return err / abs(r) if r else 0.0
    raise Wrong(f"|Z - reference| = {err:.3g} x 2^{e}, reference {r:.6g} x 2^{e}")


def exact_equal(answer_lit, value, what):
    want = literal(format_scalar(value))
    if answer_lit != want:
        raise Wrong(f"Z differs from {what}")


# -- per-workload checks ---------------------------------------------------------------

def check_contract(inst, answer, stats, exact):
    lit = literal(answer["Z"])
    if exact and lit[0] != "exact":
        raise Failed("exact instance answered in floating point")
    if inst["family"] == "torus":
        grid = grid_from_json(inst["grid"])
    else:
        g = graph_from_json(inst["graph"])
        act = parse_scalar(inst["activity"])
        if inst["family"] == "is":
            grid = independent_set_grid(g, act)
            oracle = independent_set_poly_brute
        else:
            grid = monomer_dimer_grid(g, act)
            oracle = matching_poly_brute
        if lit[0] == "exact":
            exact_equal(lit, oracle(g, act, budget=64), oracle.__name__)
    rel = compare(lit, reference(grid))
    if lit[0] == "approx":
        stats["float_err_max"] = max(stats["float_err_max"], rel)


def check_family(inst, answer, stats):
    if answer.get("engine") != inst["family"]:
        raise Wrong(f"engine {answer.get('engine')} for a {inst['family']} grid")
    compare(literal(answer["Z"]), reference(grid_from_json(inst["grid"])))


def _canon(obj):
    return json.dumps(obj, sort_keys=True)


def _need(out, *keys):
    missing = [k for k in keys if k not in out]
    if missing:
        raise Failed(f"output lacks {missing}")


def _grid_Z(obj):
    return holant_brute(grid_from_json(obj), budget=30).value


def check_cli(inst, answer, stats):
    kind, files, argv = inst["family"], inst["files"], inst["argv"]
    if "Traceback" in answer["stderr"]:
        raise Failed("traceback: " + answer["stderr"].strip().splitlines()[-1])
    if answer["exit"] != 0:
        raise Failed(f"exit code {answer['exit']}")
    lines = answer["stdout"].splitlines()
    if len(lines) != 1:
        raise Failed(f"{len(lines)} output lines")
    try:
        out = json.loads(lines[0])
    except ValueError:
        raise Failed("output is not JSON") from None
    if not isinstance(out, dict) or \
            json.dumps(out, sort_keys=True, separators=(",", ":")) != lines[0]:
        raise Failed("output is not one compact, key-sorted JSON object")

    if kind.startswith("eval"):
        _need(out, "Z", "abs", "arg", "evaluator", "backend")
        if "--force" not in argv and out["evaluator"] == "brute":
            stats["brute_fallbacks"] += 1
        want = _grid_Z(files["g.json"])
        if kind == "eval-float":
            if out["backend"] != "approx" or not isinstance(out["Z"], str):
                raise Failed("float Z is not a complex-number string")
            lit = literal(out["Z"])
            if abs(lit[1] - to_complex(want)) > 1e-9 * max(1.0, abs(to_complex(want))):
                raise Wrong("float Z differs from holant_brute")
        else:
            lit = literal(out["Z"])
            if out["backend"] != "exact" or lit[0] != "exact":
                raise Failed("exact backend printed an inexact Z")
            exact_equal(lit, want, "holant_brute")
    elif kind == "realize-grid":
        _need(out, "arity", "fn")
        want = realize_gadget(grid_from_json(files["g.json"]))
        if signature_from_json(out["fn"]) != want:
            raise Wrong("realized function differs from realize_gadget")
    elif kind == "realize-formula":
        _need(out, "arity", "fn")
        want = eval_formula(formula_from_json(files["psi.json"]))
        if signature_from_json(out["fn"]) != want:
            raise Wrong("realized function differs from eval_formula")
    elif kind == "classify":
        fns = [signature_from_json(f) for f in files["fns.json"]["functions"]]
        if _canon(out) != _canon(report_to_json(classify_set(fns))):
            raise Wrong("report differs from classify_set")
    elif kind.startswith("synth-"):
        check_synth(out, files["req.json"])
    elif kind == "transform":
        _need(out, "grid")
        if _grid_Z(out["grid"]) != _grid_Z(files["g.json"]):
            raise Wrong("transform changed Z")
    elif kind == "reduce-is":
        _need(out, "Z", "matches_oracle")
        g = graph_from_json(files["graph.json"])
        want = independent_set_poly_brute(g, parse_scalar(argv[-2]))
        exact_equal(literal(out["Z"]), want, "independent_set_poly_brute")
        if out["matches_oracle"] is not True:
            raise Wrong("matches_oracle is not true")
    elif kind == "csp2holant":
        _need(out, "grid")
        csp = files["csp.json"]
        cons = tuple((signature_from_json(c["fn"]), tuple(c["scope"]))
                     for c in csp["constraints"])
        want = csp_value_brute(CspInstance(frozenset(csp["variables"]), cons))
        if _grid_Z(out["grid"]) != want:
            raise Wrong("compiled grid's Z differs from csp_value_brute")
    elif kind.startswith("suite-"):
        _need(out, "failures", "passed")
        if out["failures"] != 0 or out["passed"] is not True:
            raise Wrong("suite reports failures")
    else:  # verify-identities
        _need(out, "checks", "passed")
        if out["passed"] is not True:
            raise Wrong("identities failed")


def _matrix(rows):
    from holant.signatures import Transform2
    return Transform2(*[parse_scalar(x) for row in rows for x in row])


def check_synth(out, req):
    kind = req["kind"]
    if kind in ("pldu", "triangularize"):
        _need(out, "kind", "factors", "order", "residual")
        M = _matrix(req["matrix"])
        fact = synthesis.pldu(M) if kind == "pldu" else \
            synthesis.triangularize(M, req.get("side", "upper"))
        want = {name: [[format_scalar(m.a), format_scalar(m.b)],
                       [format_scalar(m.c), format_scalar(m.d)]]
                for name, m in fact.factors}
        if _canon(out["factors"]) != _canon(want) or out["residual"] > 1e-9:
            raise Wrong("factors differ from the library's")
        return
    if kind == "unitary-completion":
        _need(out, "fn")
        want = synthesis.unitary_completion([parse_scalar(x) for x in req["column"]])
        if _canon(out["fn"]) != _canon(signature_to_json(want)):
            raise Wrong("completion differs from the library's")
        return
    _need(out, "formula", "claimed", "provenance", "residual")
    sig = {k: signature_from_json(v) for k, v in req.items() if k != "kind"}
    if kind == "binary-from-ghz":
        rec = synthesis.binary_from_ghz(sig["f"], sig["target"])
    elif kind == "binary-from-tractable-pair":
        rec = synthesis.binary_from_tractable_pair(sig["f"], sig["g"], sig["target"])
    elif kind == "ghz-from-w":
        rec = synthesis.ghz_from_w(sig["f"], sig["s1"], sig["s2"])
    elif kind == "express-E":
        rec = synthesis.express_E(sig["f"])
    else:
        rec = synthesis.express_M(sig["f"])
    scale = max(1.0, rec.claimed.max_abs())
    if _canon(out["claimed"]) != _canon(signature_to_json(rec.claimed)) or \
            out["residual"] > 1e-6 * scale:
        raise Wrong("recipe differs from the library's")


CHECKS = {"contract-exact": lambda i, a, s: check_contract(i, a, s, True),
          "contract-float": lambda i, a, s: check_contract(i, a, s, False),
          "family-dispatch": check_family, "cli-cold": check_cli}


def check_results(workload, seed, results):
    """Verdict over worker results (dicts with index, answer, error)."""
    stats = {"float_err_max": 0.0, "brute_fallbacks": 0}
    problems = []
    failed = wrong = 0
    for res in results:
        inst = gen.instance(workload, seed, res["index"])
        status = None
        try:
            if res["error"] is not None:
                raise Failed("raised: " + res["error"].strip().splitlines()[-1])
            CHECKS[workload](inst, res["answer"], stats)
        except Failed as e:
            status, reason = "failed", str(e)
        except Wrong as e:
            status, reason = "wrong", str(e)
        except Exception as e:  # the reference itself could not be formed
            status, reason = "failed", f"check raised {type(e).__name__}: {e}"
        if status is not None:
            failed += 1
            wrong += status == "wrong"
            problems.append({"index": res["index"], "family": inst["family"],
                             "status": status, "reason": reason[:300]})
    return {"attempted": len(results), "failed": failed, "wrong": wrong,
            "problems": problems, **stats}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    results = [json.loads(line)["result"] for line in sys.stdin if line.strip()]
    print(json.dumps(check_results(args.workload, args.seed, results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
