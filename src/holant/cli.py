"""Batch command-line surface.

Every command reads JSON, writes one JSON object to stdout, and exits with
0 (ok), 1 (validation), 2 (budget), 3 (numeric degeneracy) or 4 (suite
failure).  Identical inputs, flags and seed produce byte-identical output.
Output is RFC 8259 JSON: non-finite scalars are refused when parsed, and a
result that overflows to infinity or NaN exits 3 with an error line.

Output shapes:

- `eval` returns `Z`, `abs`, `arg`, `evaluator` and `backend`.  An exact `Z`
  is a scalar literal as `format_scalar` writes it (a string, or a
  `{"zeta8": [...]}` object); an approximate `Z` is one complex-number string
  such as `"2.0+0.0i"`, which `complex(s.replace("i", "j"))` reads back bit
  for bit when both parts are finite.
- `transform` and `csp2holant` return `{"grid": <grid>}`.
- `reduce-is` returns `grid`, `n`, `m` and `Z`; `--check` adds `oracle` and
  `matches_oracle`.  A negative activity such as `-1/2`, `-i` or `-sqrt2` is
  read as the activity, not as an option.
- Every suite, `verify-identities` included, returns `checks` (or, for
  `oracle-equivalence`, `grids` and `equal`), an integer `failures` and
  `passed`, which is `failures == 0`.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from dataclasses import dataclass

from .scalars import (ParseError, as_scalar, format_scalar, is_exact,
                      parse_scalar, to_complex)
from .signatures import (ArityMismatch, Signature, Transform2, holo, K1, K2,
                         signature_from_json, signature_to_json,
                         sig_max_residual)
from .grids import (SignatureGrid, ValidationError, grid_from_json,
                    grid_to_json, load_grid, require_valid, validate)
from .formulas import (BudgetExceeded, LabelViolation, MultiplicityError,
                       formula_from_json, formula_to_json, formula_to_gadget)
from .evaluation import (CapExceeded, FamilyViolation,
                         contract_network, holant_brute, holant_contract,
                         holant_E, holant_KM, holant_T, realize_gadget)
from .classify import DegenerateInput, classify_set, report_to_json
from .synthesis import (Factorization, GadgetRecipe, ParameterDegenerate,
                        PreconditionViolated, SingularMatrix, ZeroVector,
                        binary_from_ghz, binary_from_tractable_pair,
                        express_E, express_M, ghz_from_w, pldu,
                        triangularize, unitary_completion, verify_appendix)
from .reductions import (CspInstance, DegreeTooLarge, NotBipartite,
                         RuleInapplicable, SimpleGraph, UnusedVariable,
                         csp_to_grid, graph_from_json, independent_set_grid,
                         independent_set_poly_brute, rewrite, strip_K,
                         valiant_transform)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BUDGET = 2
EXIT_NUMERIC = 3
EXIT_SUITE = 4


class NonFiniteResult(ArithmeticError):
    pass


_BUDGET_ERRORS = (BudgetExceeded, CapExceeded, DegreeTooLarge)
_NUMERIC_ERRORS = (SingularMatrix, ZeroVector, ParameterDegenerate,
                   PreconditionViolated, DegenerateInput, ZeroDivisionError,
                   OverflowError, NonFiniteResult)


@dataclass(frozen=True)
class CliConfig:
    backend: str = "exact"   # exact | float
    tol: float = 1e-9
    order: str = "greedy"    # greedy | exhaustive
    seed: int = 0
    budget_edges: int = 24
    cap: int = 12
    force: str = None
    pretty: bool = False


def _emit(obj, cfg) -> None:
    layout = {"indent": 1} if cfg.pretty else {"separators": (",", ":")}
    try:
        text = json.dumps(obj, sort_keys=True, allow_nan=False, **layout)
    except ValueError:
        # an infinite or NaN number has no RFC 8259 JSON form
        raise NonFiniteResult("result is not finite (overflow or NaN)") from None
    sys.stdout.write(text + "\n")


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _coerce_backend(grid: SignatureGrid, cfg) -> SignatureGrid:
    if cfg.backend != "float":
        return grid
    verts = {vid: Signature([to_complex(v) for v in f.values], f.arity)
             for vid, f in grid.vertices.items()}
    return SignatureGrid(verts, grid.edges, grid.dangling, grid.bipartition)


def _transform_from_json(obj) -> Transform2:
    rows = [[parse_scalar(x) for x in row] for row in obj]
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise ParseError("transform must be a 2x2 matrix")
    return Transform2(rows[0][0], rows[0][1], rows[1][0], rows[1][1])


def _transform_to_json(M: Transform2):
    return [[format_scalar(M.a), format_scalar(M.b)],
            [format_scalar(M.c), format_scalar(M.d)]]


# -- eval ------------------------------------------------------------------------

def _auto_evaluator(grid: SignatureGrid, cfg):
    """Pick the cheapest evaluator the classifier certifies."""
    report = classify_set(set(grid.vertices.values()), tol=cfg.tol, cap=cfg.cap)
    if report.cond_T:
        return "T"
    if report.cond_OE.status == "holds":
        return ("E", report.cond_OE.witness)
    if report.cond_KE:
        return "E:K1"
    if report.cond_KM:
        return f"KM:{report.cond_KM[0]}"
    return "contract"


def _run_evaluator(grid: SignatureGrid, choice, cfg):
    witness = None
    if isinstance(choice, tuple):
        choice, witness = choice
    if choice == "T":
        return choice, holant_T(grid, tol=cfg.tol)
    if choice == "E":
        return choice, holant_E(grid, strip=witness, tol=cfg.tol)
    if choice == "E:K1":
        return choice, holant_E(grid, strip="K1", tol=cfg.tol)
    if choice in ("KM:K1", "KM:K2"):
        K = K1 if choice.endswith("K1") else K2
        return choice, holant_KM(grid, K=K, tol=cfg.tol)
    if choice == "brute":
        return choice, holant_brute(grid, budget=cfg.budget_edges)
    if choice == "contract":
        if cfg.order == "exhaustive":
            return "brute", holant_brute(grid, budget=cfg.budget_edges)
        try:
            return choice, holant_contract(grid, cap=cfg.cap)
        except CapExceeded:
            return "brute", holant_brute(grid, budget=cfg.budget_edges)
    raise ValidationError(f"unknown evaluator {choice!r}")


def _format_Z(value):
    """Exact values as format_scalar writes them; floats as one "a+bi" string."""
    if is_exact(value):
        return format_scalar(value)
    z = complex(value)
    re_text, im_text = repr(z.real), repr(z.imag)
    return f"{re_text}{'' if im_text.startswith('-') else '+'}{im_text}i"


def command_eval(args, cfg) -> int:
    grid = _coerce_backend(load_grid(args.grid), cfg)
    choice = cfg.force if cfg.force else _auto_evaluator(grid, cfg)
    name, z = _run_evaluator(grid, choice, cfg)
    _emit({
        "Z": _format_Z(z.value),
        "abs": z.magnitude(),
        "arg": z.argument(),
        "evaluator": name,
        "backend": z.backend,
    }, cfg)
    return EXIT_OK


# -- realize ---------------------------------------------------------------------

def command_realize(args, cfg) -> int:
    obj = _load_json(args.source)
    if "atoms" in obj:
        grid = formula_to_gadget(formula_from_json(obj))
    else:
        grid = grid_from_json(obj)
        require_valid(grid)
    grid = _coerce_backend(grid, cfg)
    if cfg.order == "exhaustive":
        out = realize_gadget(grid, budget=cfg.budget_edges)
    else:
        out = contract_network(grid, cap=cfg.cap)
    _emit({"arity": out.arity, "fn": signature_to_json(out)}, cfg)
    return EXIT_OK


# -- classify ----------------------------------------------------------------------

def _load_functions(path):
    obj = _load_json(path)
    if isinstance(obj, dict):
        obj = obj.get("functions", [])
    return [signature_from_json(f) for f in obj]


def command_classify(args, cfg) -> int:
    fns = _load_functions(args.functions)
    report = classify_set(fns, tol=cfg.tol, cap=cfg.cap)
    _emit(report_to_json(report), cfg)
    return EXIT_OK


# -- synth -------------------------------------------------------------------------

def _factorization_json(fact: Factorization, original: Transform2):
    prod = fact.product()
    resid = max(abs(to_complex(prod.entry(r, c)) - to_complex(original.entry(r, c)))
                for r in range(2) for c in range(2))
    return {
        "kind": fact.kind,
        "factors": {name: _transform_to_json(m) for name, m in fact.factors},
        "order": [name for name, _ in fact.factors],
        "residual": resid,
    }


def _recipe_json(recipe: GadgetRecipe, cap: int):
    got = recipe.realize(cap=cap)
    if got.is_exact() and recipe.claimed.is_exact() and got == recipe.claimed:
        resid = 0.0
    else:
        resid = sig_max_residual(got, recipe.claimed)
    return {
        "formula": formula_to_json(recipe.formula),
        "claimed": signature_to_json(recipe.claimed),
        "provenance": {k: str(v) for k, v in sorted(recipe.provenance.items())},
        "residual": resid,
    }


def command_synth(args, cfg) -> int:
    spec = _load_json(args.request)
    kind = spec.get("kind")
    if kind == "pldu":
        M = _transform_from_json(spec["matrix"])
        _emit(_factorization_json(pldu(M), M), cfg)
        return EXIT_OK
    if kind == "triangularize":
        M = _transform_from_json(spec["matrix"])
        fact = triangularize(M, spec.get("side", "upper"))
        _emit(_factorization_json(fact, M), cfg)
        return EXIT_OK
    if kind == "unitary-completion":
        vec = [parse_scalar(x) for x in spec["column"]]
        out = unitary_completion(vec)
        _emit({"fn": signature_to_json(out)}, cfg)
        return EXIT_OK
    if kind == "binary-from-ghz":
        recipe = binary_from_ghz(signature_from_json(spec["f"]),
                                 signature_from_json(spec["target"]))
        _emit(_recipe_json(recipe, cfg.cap), cfg)
        return EXIT_OK
    if kind == "binary-from-tractable-pair":
        recipe = binary_from_tractable_pair(signature_from_json(spec["f"]),
                                            signature_from_json(spec["g"]),
                                            signature_from_json(spec["target"]))
        _emit(_recipe_json(recipe, cfg.cap), cfg)
        return EXIT_OK
    if kind == "ghz-from-w":
        recipe = ghz_from_w(signature_from_json(spec["f"]),
                            signature_from_json(spec["s1"]),
                            signature_from_json(spec["s2"]))
        _emit(_recipe_json(recipe, cfg.cap), cfg)
        return EXIT_OK
    if kind == "express-E":
        M = None
        if spec.get("transform") is not None:
            M = _transform_from_json(spec["transform"])
        recipe = express_E(signature_from_json(spec["f"]), M=M, tol=cfg.tol)
        _emit(_recipe_json(recipe, cfg.cap), cfg)
        return EXIT_OK
    if kind == "express-M":
        recipe = express_M(signature_from_json(spec["f"]), tol=cfg.tol)
        _emit(_recipe_json(recipe, cfg.cap), cfg)
        return EXIT_OK
    raise ValidationError(f"unknown synth kind {kind!r}")


# -- reductions ----------------------------------------------------------------------

def command_transform(args, cfg) -> int:
    grid = load_grid(args.grid)
    M = _transform_from_json(json.loads(args.matrix))
    out = valiant_transform(grid, M)
    _emit({"grid": grid_to_json(out)}, cfg)
    return EXIT_OK


def command_reduce_is(args, cfg) -> int:
    g = graph_from_json(_load_json(args.graph))
    lam = parse_scalar(args.activity)
    grid = independent_set_grid(g, lam, cap=cfg.cap)
    z = holant_contract(grid, cap=cfg.cap).value
    out = {"grid": grid_to_json(grid), "n": g.n, "m": len(g.edges),
           "Z": format_scalar(z)}
    if args.check:
        oracle = independent_set_poly_brute(g, lam)
        out["oracle"] = format_scalar(oracle)
        out["matches_oracle"] = as_scalar(z) == as_scalar(oracle)
    _emit(out, cfg)
    return EXIT_OK


def command_csp2holant(args, cfg) -> int:
    obj = _load_json(args.csp)
    if "constraints" in obj:
        variables = obj.get("variables", [])
        constraints = [(signature_from_json(c["fn"]), tuple(c["scope"]))
                       for c in obj["constraints"]]
    else:
        # a fully-bound formula, multiplicity discipline not required
        if obj.get("free"):
            raise ValidationError("#CSP instances have no free variables")
        variables = obj.get("bound", [])
        constraints = [(signature_from_json(a["fn"]), tuple(a["scope"]))
                       for a in obj.get("atoms", [])]
    csp = CspInstance(frozenset(variables), tuple(constraints))
    _emit({"grid": grid_to_json(csp_to_grid(csp))}, cfg)
    return EXIT_OK


# -- suites --------------------------------------------------------------------------

def _suite_verify_identities(cfg, draws):
    checks = verify_appendix(draws=draws, seed=cfg.seed, tol=max(cfg.tol, 1e-6))
    rows = [{"name": c.name, "draws": c.draws,
             "max_residual": c.max_residual, "passed": c.passed}
            for c in checks]
    failures = sum(not c.passed for c in checks)
    return {"suite": "verify-identities", "checks": rows,
            "failures": failures, "passed": failures == 0}


def _rand_exact_closed(rng, nv):
    from .scalars import Cyc
    while True:
        sigs = {}
        stubs = []
        for v in range(nv):
            k = rng.randint(1, 3)
            sigs[v] = Signature([Cyc(rng.randint(-3, 3)) for _ in range(1 << k)], k)
            stubs += [(v, p) for p in range(1, k + 1)]
        if len(stubs) % 2:
            continue
        rng.shuffle(stubs)
        edges = tuple((stubs[2 * i], stubs[2 * i + 1])
                      for i in range(len(stubs) // 2))
        return SignatureGrid(sigs, edges)


def _suite_oracle_equivalence(cfg, draws):
    rng = random.Random(cfg.seed)
    equal = 0
    for _ in range(draws):
        grid = _rand_exact_closed(rng, rng.randint(2, 5))
        a = holant_contract(grid, cap=14).value
        b = holant_brute(grid, budget=30).value
        if as_scalar(a) == as_scalar(b):
            equal += 1
    failures = draws - equal
    return {"suite": "oracle-equivalence", "grids": draws, "equal": equal,
            "failures": failures, "passed": failures == 0}


def _suite_closure_laws(cfg, draws):
    from .scalars import Cyc
    rng = random.Random(cfg.seed)
    rows = []

    def law(name, fn):
        bad = 0
        for _ in range(draws):
            if not fn(rng):
                bad += 1
        rows.append({"name": name, "draws": draws, "failures": bad,
                     "passed": bad == 0})

    def rand_sig(rng, k):
        return Signature([Cyc(rng.randint(-3, 3)) for _ in range(1 << k)], k)

    def permute_compose(rng):
        k = rng.randint(1, 4)
        f = rand_sig(rng, k)
        pi = list(range(1, k + 1))
        rho = list(range(1, k + 1))
        rng.shuffle(pi)
        rng.shuffle(rho)
        lhs = f.permute(pi).permute(rho)
        # slot m of f reads pi(m) in the inner step, then rho resolves it
        comp = [rho[pi[m - 1] - 1] for m in range(1, k + 1)]
        return lhs == f.permute(comp)

    def holo_compose(rng):
        f = rand_sig(rng, rng.randint(1, 3))
        while True:
            M = Transform2(*[Cyc(rng.randint(-2, 2)) for _ in range(4)])
            N = Transform2(*[Cyc(rng.randint(-2, 2)) for _ in range(4)])
            if M.is_invertible() and N.is_invertible():
                break
        return holo(M, holo(N, f)) == holo(M @ N, f)

    def gadget_agrees(rng):
        grid = _rand_exact_closed(rng, rng.randint(2, 4))
        # open one random port pair into dangling legs
        if not grid.edges:
            return True
        edges = list(grid.edges)
        p, q = edges.pop(rng.randrange(len(edges)))
        open_grid = SignatureGrid(grid.vertices, tuple(edges), (p, q))
        a = contract_network(open_grid, cap=14)
        b = realize_gadget(open_grid, budget=30)
        return a.values == b.values

    def valiant_preserves(rng):
        grid = rewrite(_rand_exact_closed(rng, rng.randint(2, 4)), "a_subdivide")
        while True:
            M = Transform2(*[Cyc(rng.randint(-2, 2)) for _ in range(4)])
            if M.is_invertible():
                break
        z1 = holant_brute(grid, budget=30).value
        z2 = holant_brute(valiant_transform(grid, M), budget=30).value
        return as_scalar(z1) == as_scalar(z2)

    def subdivide_roundtrip(rng):
        grid = _rand_exact_closed(rng, rng.randint(2, 4))
        back = rewrite(rewrite(grid, "a_subdivide"), "b_unsubdivide")
        z1 = holant_brute(grid, budget=30).value
        z2 = holant_brute(back, budget=30).value
        return as_scalar(z1) == as_scalar(z2)

    def strip_preserves(rng):
        base = _rand_exact_closed(rng, rng.randint(2, 3))
        K = K1 if rng.random() < 0.5 else K2
        grid = SignatureGrid({v: holo(K, f) for v, f in base.vertices.items()},
                             base.edges)
        z1 = holant_brute(grid, budget=30).value
        z2 = holant_brute(strip_K(grid, K), budget=30).value
        return as_scalar(z1) == as_scalar(z2)

    law("permute-compose", permute_compose)
    law("holographic-compose", holo_compose)
    law("gadget-vs-brute", gadget_agrees)
    law("transform-preserves-Z", valiant_preserves)
    law("subdivide-roundtrip-Z", subdivide_roundtrip)
    law("strip-preserves-Z", strip_preserves)
    failures = sum(r["failures"] for r in rows)
    return {"suite": "closure-laws", "checks": rows,
            "failures": failures, "passed": failures == 0}


_SUITES = {
    "verify-identities": (_suite_verify_identities, 50),
    "oracle-equivalence": (_suite_oracle_equivalence, 200),
    "closure-laws": (_suite_closure_laws, 40),
}


def command_suite(args, cfg) -> int:
    runner, default_draws = _SUITES[args.name]
    out = runner(cfg, args.draws if args.draws else default_draws)
    _emit(out, cfg)
    return EXIT_OK if out["passed"] else EXIT_SUITE


def command_verify_identities(args, cfg) -> int:
    out = _suite_verify_identities(cfg, args.draws if args.draws else 50)
    _emit(out, cfg)
    return EXIT_OK if out["passed"] else EXIT_SUITE


# -- driver ---------------------------------------------------------------------------

_NEGATIVE_SCALAR = re.compile(r"^-(?:\d|i$|sqrt2$)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="holant",
        description="Evaluate, classify, synthesize and reduce Boolean "
                    "holant instances.")
    p.add_argument("--backend", choices=("exact", "float"), default="exact")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--order", choices=("greedy", "exhaustive"), default="greedy")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget-edges", type=int, default=24, dest="budget_edges")
    p.add_argument("--cap", type=int, default=12,
                   help="arity cap for the contraction engine")
    p.add_argument("--force", default=None,
                   metavar="{brute,contract,T,E,E:K1,KM:K1,KM:K2}",
                   help="evaluator override for `eval`")
    p.add_argument("--pretty", action="store_true")

    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("eval", help="partition function of a closed grid")
    c.add_argument("grid")
    c.set_defaults(fn=command_eval)

    c = sub.add_parser("realize", help="signature a gadget or formula realizes")
    c.add_argument("source", help="grid or formula JSON file")
    c.set_defaults(fn=command_realize)

    c = sub.add_parser("classify", help="dichotomy report for a function set")
    c.add_argument("functions")
    c.set_defaults(fn=command_classify)

    c = sub.add_parser("synth", help="run a synthesis request")
    c.add_argument("request")
    c.set_defaults(fn=command_synth)

    c = sub.add_parser("transform", help="holographic transform of a bipartite grid")
    c.add_argument("grid")
    c.add_argument("matrix", help='2x2 matrix JSON, e.g. "[[0,1],[1,0]]"')
    c.set_defaults(fn=command_transform)

    c = sub.add_parser("reduce-is", help="independent-set polynomial as a grid")
    # argparse reads only -N and -N.N as negative numbers; widen that to every
    # negative scalar literal (-1/2, -i, -1+2i, -sqrt2, -1/sqrt2) so that the
    # activity needs no `--` in front of it.
    c._negative_number_matcher = _NEGATIVE_SCALAR
    c.add_argument("graph")
    c.add_argument("activity")
    c.add_argument("--check", action="store_true",
                   help="also compare with the enumeration oracle")
    c.set_defaults(fn=command_reduce_is)

    c = sub.add_parser("csp2holant", help="compile a #CSP instance to a grid")
    c.add_argument("csp")
    c.set_defaults(fn=command_csp2holant)

    c = sub.add_parser("verify-identities", help="replay the closed-form identities")
    c.add_argument("--draws", type=int, default=0)
    c.set_defaults(fn=command_verify_identities)

    c = sub.add_parser("suite", help="run a named property suite")
    c.add_argument("name", choices=sorted(_SUITES))
    c.add_argument("--draws", type=int, default=0)
    c.set_defaults(fn=command_suite)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = CliConfig(backend=args.backend, tol=args.tol, order=args.order,
                    seed=args.seed, budget_edges=args.budget_edges,
                    cap=args.cap, force=args.force, pretty=args.pretty)
    try:
        return args.fn(args, cfg)
    except _BUDGET_ERRORS as e:
        _emit({"error": str(e), "kind": type(e).__name__}, cfg)
        return EXIT_BUDGET
    except _NUMERIC_ERRORS as e:
        _emit({"error": str(e), "kind": type(e).__name__}, cfg)
        return EXIT_NUMERIC
    except (ValidationError, ParseError, ArityMismatch, MultiplicityError,
            LabelViolation, FamilyViolation, NotBipartite, RuleInapplicable,
            UnusedVariable, ValueError, KeyError, OSError,
            json.JSONDecodeError) as e:
        _emit({"error": str(e), "kind": type(e).__name__}, cfg)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
