"""Tests of the benchmark itself (not collected by the program's test suite).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracing import NoSpans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _digest(workload, seed, count):
    h = hashlib.sha256()
    for i in range(-1, count):
        h.update(gen.instance_bytes(workload, seed, i))
    return h.hexdigest()


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(workload):
    count = gen.cycle_length(workload)
    here = _digest(workload, 7, count)
    assert here == _digest(workload, 7, count)
    assert here != _digest(workload, 8, count)
    # a fresh interpreter with another hash seed gives the same bytes
    code = (f"import sys; sys.path.insert(0, {HERE!r}); import test_bench; "
            f"print(test_bench._digest({workload!r}, 7, {count}))")
    env = dict(os.environ, PYTHONHASHSEED="123")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == here


def test_generator_covers_the_families():
    torus = gen.instance("contract-exact", 3, 0)
    assert torus["family"] == "torus"
    values = [v for vert in torus["grid"]["vertices"] for v in vert["fn"]["values"]]
    assert any(isinstance(v, dict) and "zeta8" in v for v in values)
    mix = [gen.instance("family-dispatch", 3, i) for i in range(8)]
    assert {(m["family"], m["shared"]) for m in mix} == set(gen.FAMILY_MIX)
    for m in mix:
        fns = [json.dumps(v["fn"]) for v in m["grid"]["vertices"]]
        distinct = len(set(fns))
        assert (distinct <= 2) if m["shared"] else (distinct > len(fns) // 2)
    kinds = {gen.instance("cli-cold", 3, i)["family"]
             for i in range(gen.cycle_length("cli-cold"))}
    assert kinds == set(gen.CLI_MIX)


def _answer(workload, index):
    prepare, run_fn, _ = worker.make_runner(workload, None, "timed")
    return run_fn(prepare(gen.instance(workload, 5, index)), NoSpans())


def _perturb(z):
    """Z scaled by 1 + 1e-6: far outside the checker's 1e-8 tolerance."""
    kind, v = check.literal(z)
    if kind == "exact":
        return {"zeta8": [str(c * Fraction(1000001, 1000000)) for c in v]}
    w = v * (1 + 1e-6)
    return {"re": w.real, "im": w.imag}


@pytest.mark.parametrize("workload,index", [
    ("contract-exact", 1),     # independent sets: exact oracle and numpy
    ("contract-exact", 2),     # matchings
    ("contract-float", 3),     # a torus in floats: numpy only
    ("family-dispatch", 1),    # T ring with distinct functions
])
def test_checker_rejects_a_perturbed_Z(workload, index):
    answer = _answer(workload, index)
    good = {"index": index, "answer": answer, "error": None}
    verdict = check.check_results(workload, 5, [good])
    assert verdict["failed"] == 0, verdict
    bad = dict(good, answer=dict(answer, Z=_perturb(answer["Z"])))
    verdict = check.check_results(workload, 5, [bad])
    assert verdict["failed"] == 1 and verdict["wrong"] == 1, verdict


def test_checker_counts_errors_and_contract_breaks():
    err = {"index": 0, "answer": None, "error": "Traceback ...\nValueError: x\n"}
    verdict = check.check_results("contract-exact", 5, [err])
    assert verdict["failed"] == 1 and verdict["wrong"] == 0
    inst = gen.instance("cli-cold", 5, 0)
    assert inst["family"] == "eval-exact"
    broken = {"index": 0, "error": None,
              "answer": {"exit": 0, "stderr": "", "stdout": '{"Z": "1"}\n'}}
    verdict = check.check_results("cli-cold", 5, [broken])
    assert verdict["failed"] == 1 and verdict["wrong"] == 0


def test_exact_value_survives_cancellation():
    # 41345306842 i written with ~1e125 coefficients that cancel in floats
    big = 99445887337408194136416536219702850079008437470540757825882379586629596289677356779196313679814682311096049864215638310912000  # noqa: E501
    c2 = 140637722594789506266926692537315772441348892983588970164527152151374143649479856772926971652213328046277157083094410263003136  # noqa: E501
    z = check.scaled(("exact", (Fraction(0), Fraction(-big), Fraction(c2),
                                Fraction(-big))), 0)
    assert z.real == 0.0
    assert abs(z.imag - 41345306842.87) < 1.0


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_names_match_benchmark_json(trace):
    assert [w["name"] for w in SPEC["workloads"]] == list(gen.WORKLOADS)
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "cli-cold",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = _last_json(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds == {n: b for n, _, _, b in run.END_TO_END}


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "contract-exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
