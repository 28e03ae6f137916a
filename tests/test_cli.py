import json

import pytest

from holant.cli import main
from holant.grids import SignatureGrid, grid_to_json
from holant.reductions import graph_from_json, independent_set_poly_brute
from holant.scalars import ONE, ZETA, parse_scalar, to_complex
from holant.signatures import K1, Signature, holo, signature_from_json

EQ2 = Signature.named("EQ", 2)
EQ3 = Signature.named("EQ", 3)


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def triangle_json():
    g = SignatureGrid({0: EQ2, 1: EQ2, 2: EQ2},
                      edges=[((0, 2), (1, 1)), ((1, 2), (2, 1)),
                             ((2, 2), (0, 1))])
    return grid_to_json(g)


class TestEval:
    def test_triangle(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", triangle_json())
        code, out = run(capsys, ["eval", path])
        assert code == 0
        assert out["Z"] == "2"
        assert out["abs"] == pytest.approx(2.0)
        assert out["arg"] == pytest.approx(0.0)
        assert out["evaluator"] == "T"
        assert out["backend"] == "exact"

    def test_float_backend(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", triangle_json())
        code, out = run(capsys, ["--backend", "float", "eval", path])
        assert code == 0
        assert out["backend"] == "approx"
        assert abs(complex(*_reim(out["Z"])) - 2) < 1e-9

    def test_exact_zeta8_value(self, tmp_path, capsys):
        # Z = 1 + zeta8 has no string literal, so it stays a zeta8 object
        g = SignatureGrid({0: Signature([ONE, ZETA]), 1: Signature([1, 1])},
                          edges=[((0, 1), (1, 1))])
        path = write(tmp_path, "g.json", grid_to_json(g))
        code, out = run(capsys, ["eval", path])
        assert code == 0
        assert out["backend"] == "exact"
        assert out["Z"] == {"zeta8": ["1", "1", "0", "0"]}
        code, out = run(capsys, ["--backend", "float", "eval", path])
        assert code == 0
        assert out["backend"] == "approx"
        assert isinstance(out["Z"], str)
        assert abs(complex(*_reim(out["Z"])) - to_complex(ONE + ZETA)) < 1e-12

    def test_force_brute(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", triangle_json())
        code, out = run(capsys, ["--force", "brute", "eval", path])
        assert code == 0
        assert out["evaluator"] == "brute"
        assert out["Z"] == "2"

    def test_open_grid_rejected(self, tmp_path, capsys):
        g = SignatureGrid({0: EQ2}, dangling=[(0, 1), (0, 2)])
        path = write(tmp_path, "g.json", grid_to_json(g))
        code, out = run(capsys, ["eval", path])
        assert code == 1
        assert "error" in out

    def test_missing_file(self, capsys):
        code, out = run(capsys, ["eval", "/nonexistent/g.json"])
        assert code == 1

    def test_budget_exit(self, tmp_path, capsys):
        n = 30
        g = SignatureGrid({v: EQ2 for v in range(n)},
                          edges=[((v, 2), ((v + 1) % n, 1)) for v in range(n)])
        path = write(tmp_path, "g.json", grid_to_json(g))
        code, out = run(capsys, ["--force", "brute", "--budget-edges", "8",
                                 "eval", path])
        assert code == 2
        assert out["kind"] == "BudgetExceeded"

    def test_determinism(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", triangle_json())
        main(["eval", path])
        first = capsys.readouterr().out
        main(["eval", path])
        second = capsys.readouterr().out
        assert first == second


def _reim(s):
    try:
        return float(s), 0.0
    except ValueError:
        z = complex(s.replace(" ", "").replace("i", "j"))
        return z.real, z.imag


class TestRealize:
    def test_grid_source(self, tmp_path, capsys):
        g = SignatureGrid({0: EQ3, 1: Signature([1, 1])},
                          edges=[((0, 3), (1, 1))],
                          dangling=[(0, 1), (0, 2)])
        path = write(tmp_path, "g.json", grid_to_json(g))
        code, out = run(capsys, ["realize", path])
        assert code == 0
        got = signature_from_json(out["fn"])
        assert got == EQ2

    def test_formula_source(self, tmp_path, capsys):
        psi = {"free": ["x", "z"], "bound": ["y"],
               "atoms": [{"fn": {"named": "EQ", "arity": 2}, "scope": ["x", "y"]},
                         {"fn": {"named": "NEQ"}, "scope": ["y", "z"]}]}
        path = write(tmp_path, "psi.json", psi)
        code, out = run(capsys, ["realize", path])
        assert code == 0
        got = signature_from_json(out["fn"])
        assert got == Signature([0, 1, 1, 0])


class TestClassify:
    def test_universal_pair(self, tmp_path, capsys):
        payload = {"functions": [{"named": "EQ", "arity": 3},
                                 {"named": "ONE", "arity": 3}]}
        path = write(tmp_path, "fns.json", payload)
        code, out = run(capsys, ["classify", path])
        assert code == 0
        assert out["verdict"] == "Universal"

    def test_bare_list_accepted(self, tmp_path, capsys):
        path = write(tmp_path, "fns.json", [{"named": "EQ", "arity": 2}])
        code, out = run(capsys, ["classify", path])
        assert code == 0
        assert out["cond_T"] is True
        assert out["verdict"] == "NotUniversal"


class TestSynth:
    def test_pldu(self, tmp_path, capsys):
        req = {"kind": "pldu", "matrix": [[2, 1], [1, 1]]}
        path = write(tmp_path, "req.json", req)
        code, out = run(capsys, ["synth", path])
        assert code == 0
        assert out["kind"] == "pldu"
        assert out["residual"] <= 1e-12
        assert out["order"] == ["p", "l", "d", "u"]

    def test_singular_exit_code(self, tmp_path, capsys):
        req = {"kind": "pldu", "matrix": [[1, 2], [2, 4]]}
        path = write(tmp_path, "req.json", req)
        code, out = run(capsys, ["synth", path])
        assert code == 3
        assert out["kind"] == "SingularMatrix"

    def test_express_M(self, tmp_path, capsys):
        req = {"kind": "express-M",
               "f": {"values": [0, 1, 1, 0, 1, 0, 0, 0]}}
        path = write(tmp_path, "req.json", req)
        code, out = run(capsys, ["synth", path])
        assert code == 0
        assert out["residual"] == 0.0
        assert out["formula"]["labels"]

    def test_unknown_kind(self, tmp_path, capsys):
        path = write(tmp_path, "req.json", {"kind": "alchemy"})
        code, out = run(capsys, ["synth", path])
        assert code == 1


class TestTransformCmd:
    def test_preserves_value(self, tmp_path, capsys):
        g = SignatureGrid({0: EQ2, 1: Signature.named("NEQ")},
                          edges=[((0, 1), (1, 1)), ((0, 2), (1, 2))],
                          bipartition={0: "L", 1: "R"})
        path = write(tmp_path, "g.json", grid_to_json(g))
        code, out = run(capsys, ["transform", path, "[[1,1],[0,1]]"])
        assert code == 0
        g2 = out["grid"]
        path2 = write(tmp_path, "g2.json", g2)
        _, z1 = run(capsys, ["--force", "brute", "eval", path])
        _, z2 = run(capsys, ["--force", "brute", "eval", path2])
        assert z1["Z"] == z2["Z"]

    def test_non_bipartite_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", triangle_json())
        code, out = run(capsys, ["transform", path, "[[1,1],[0,1]]"])
        assert code == 1
        assert out["kind"] == "NotBipartite"


class TestReduceIs:
    def test_triangle_check(self, tmp_path, capsys):
        graph = {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}
        path = write(tmp_path, "g.json", graph)
        code, out = run(capsys, ["reduce-is", path, "3", "--check"])
        assert code == 0
        assert out["Z"] == "10"  # 1 + 3*3
        assert out["matches_oracle"] is True

    def test_rational_activity(self, tmp_path, capsys):
        graph = {"n": 2, "edges": [[0, 1]]}
        path = write(tmp_path, "g.json", graph)
        code, out = run(capsys, ["reduce-is", path, "-1/2", "--check"])
        assert code == 0
        assert out["Z"] == "0"  # 1 + 2*(-1/2)
        assert out["matches_oracle"] is True

    @pytest.mark.parametrize("activity",
                             ["-1/3", "-i", "-2i", "-1+2i", "-sqrt2", "-1/sqrt2"])
    def test_negative_literals(self, tmp_path, capsys, activity):
        graph = {"n": 3, "edges": [[0, 1], [1, 2]]}
        path = write(tmp_path, "g.json", graph)
        code, out = run(capsys, ["reduce-is", path, activity, "--check"])
        assert code == 0
        want = independent_set_poly_brute(graph_from_json(graph),
                                          parse_scalar(activity))
        assert parse_scalar(out["Z"]) == want
        assert out["matches_oracle"] is True

    def test_grid_graph_10x10(self, tmp_path, capsys):
        # the compiled grid contracts at arity 12, within the default cap
        n = 10
        edges = ([[r * n + c, r * n + c + 1] for r in range(n) for c in range(n - 1)]
                 + [[r * n + c, r * n + c + n] for r in range(n - 1) for c in range(n)])
        path = write(tmp_path, "g.json", {"n": n * n, "edges": edges})
        code, out = run(capsys, ["reduce-is", path, "1"])
        assert code == 0
        assert out["Z"] == str(_grid_independent_sets(n))
        assert out["Z"] == "2030049051145980050"  # OEIS A006506(10)

    def test_emits_grid(self, tmp_path, capsys):
        graph = {"n": 2, "edges": [[0, 1]]}
        path = write(tmp_path, "g.json", graph)
        code, out = run(capsys, ["reduce-is", path, "1"])
        assert code == 0
        assert "grid" in out
        assert "Z" in out


def _grid_independent_sets(n):
    """Independent sets of the n x n grid graph by a row transfer matrix: a row
    is a bit mask with no two adjacent bits, and consecutive rows are disjoint."""
    rows = [r for r in range(1 << n) if not r & (r >> 1)]
    count = dict.fromkeys(rows, 1)
    for _ in range(n - 1):
        count = {r: sum(c for s, c in count.items() if not r & s) for r in rows}
    return sum(count.values())


def run_text(capsys, tmp_path, text, argv):
    """Run one command on a grid file holding `text`; the output must be one
    line of strict JSON (no NaN or Infinity)."""
    path = tmp_path / "g.json"
    path.write_text(text)
    code = main(argv + [str(path)])
    out = capsys.readouterr().out
    assert out.count("\n") == 1

    def refuse(name):
        raise AssertionError(f"non-JSON constant {name} in output")
    return code, json.loads(out, parse_constant=refuse)


def _two_unaries(a, b):
    """Grid text: two copies of the unary [a, b] joined by one edge."""
    fn = f'{{"unary": [{a}, {b}]}}'
    return ('{"vertices": [{"id": 0, "fn": %s}, {"id": 1, "fn": %s}],'
            ' "edges": [[[0, 1], [1, 1]]]}' % (fn, fn))


class TestNonFinite:
    @pytest.mark.parametrize("literal", ['{"re": "nan"}', '{"re": "inf"}',
                                         '{"im": "-inf"}', "NaN", "Infinity",
                                         "-Infinity", "1e400"])
    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_literal_rejected(self, tmp_path, capsys, literal, backend):
        code, out = run_text(capsys, tmp_path, _two_unaries(literal, 1),
                             ["--backend", backend, "eval"])
        assert code == 1
        assert out["kind"] == "ParseError"

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_overflowing_result_exits_numeric(self, tmp_path, capsys, backend):
        big = '{"re": 1e200}'
        code, out = run_text(capsys, tmp_path, _two_unaries(big, big),
                             ["--backend", backend, "eval"])
        assert code == 3
        assert out["kind"] == "NonFiniteResult"
        assert set(out) == {"error", "kind"}


class TestMalformedGrid:
    @pytest.mark.parametrize("text", [
        "[1, 2]",
        '{"vertices": [{"id": 0, "fn": {"values": 5}}]}',
        '{"vertices": [{"id": [0], "fn": {"values": [1, 1]}}],'
        ' "dangling": [[[0], 1]]}',
        '{"vertices": [{"id": "a", "fn": {"named": "EQ_2"}},'
        ' {"id": 0, "fn": {"named": "EQ_2"}}],'
        ' "edges": [[["a", 1], [0, 1]], [["a", 2], [0, 2]]]}',
    ])
    @pytest.mark.parametrize("command", ["eval", "realize"])
    def test_exits_validation(self, tmp_path, capsys, text, command):
        code, out = run_text(capsys, tmp_path, text, [command])
        assert code == 1
        assert out["kind"] == "ParseError"
        assert set(out) == {"error", "kind"}


class TestCsp2Holant:
    def test_compiles_and_matches(self, tmp_path, capsys):
        csp = {"variables": ["x", "y"],
               "constraints": [{"fn": {"values": [0, 1, 1, 1]},
                                "scope": ["x", "y"]},
                               {"fn": {"named": "NEQ"}, "scope": ["x", "y"]}]}
        path = write(tmp_path, "csp.json", csp)
        code, out = run(capsys, ["csp2holant", path])
        assert code == 0
        path2 = write(tmp_path, "g.json", out["grid"])
        code2, z = run(capsys, ["eval", path2])
        assert code2 == 0
        assert z["Z"] == "2"  # x != y and (x or y): two satisfying pairs

    def test_formula_shape_accepted(self, tmp_path, capsys):
        psi = {"free": [], "bound": ["x", "y"],
               "atoms": [{"fn": {"named": "NEQ"}, "scope": ["x", "y"]},
                         {"fn": {"values": [0, 1, 1, 1]}, "scope": ["x", "y"]}]}
        path = write(tmp_path, "psi.json", psi)
        code, out = run(capsys, ["csp2holant", path])
        assert code == 0

    def test_free_variables_rejected(self, tmp_path, capsys):
        psi = {"free": ["x"], "bound": ["y"],
               "atoms": [{"fn": {"named": "NEQ"}, "scope": ["x", "y"]}]}
        path = write(tmp_path, "psi.json", psi)
        code, out = run(capsys, ["csp2holant", path])
        assert code == 1


class TestSuites:
    def test_verify_identities(self, capsys):
        code, out = run(capsys, ["verify-identities", "--draws", "5"])
        assert code == 0
        assert len(out["checks"]) == 17
        assert all(c["passed"] for c in out["checks"])
        assert out["failures"] == 0
        assert out["passed"] is True

    def test_oracle_equivalence_suite(self, capsys):
        code, out = run(capsys, ["suite", "oracle-equivalence", "--draws", "25"])
        assert code == 0
        assert out["failures"] == 0

    def test_closure_laws_suite(self, capsys):
        code, out = run(capsys, ["suite", "closure-laws", "--draws", "10"])
        assert code == 0
        assert out["failures"] == 0

    def test_unknown_suite_name(self, capsys):
        with pytest.raises(SystemExit):
            main(["suite", "spectral"])


class TestOutputContract:
    def test_compact_json_single_line(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", triangle_json())
        main(["eval", path])
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert ": " not in out

    def test_pretty_json_multiline(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", triangle_json())
        main(["--pretty", "eval", path])
        out = capsys.readouterr().out
        assert out.count("\n") > 1

    def test_keys_sorted(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", triangle_json())
        main(["eval", path])
        out = capsys.readouterr().out
        obj = json.loads(out)
        assert list(obj) == sorted(obj)
