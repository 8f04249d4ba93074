"""Tests of the benchmark: its output checker and a smoke run of each workload.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import outcheck
from run import ENTRY, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

PATH5 = "n 5\n0 1\n1 2\n2 3\n3 4\n"
# a 5-cycle with a pendant vertex 5 on vertex 4
ODD = "0 1\n1 2\n2 3\n3 4\n4 0\n4 5\n"


def bicert_check(path: Path, *flags: str) -> tuple[str, int]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", ENTRY, "check", *flags, str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    return done.stdout, done.returncode


@pytest.fixture(params=["json", "text"])
def as_json(request) -> bool:
    return request.param == "json"


def checked(tmp_path: Path, text: str, as_json: bool):
    """Input graph, parsed reports, exit code and double-cover verdict."""
    path = tmp_path / "g.txt"
    path.write_text(text)
    out, code = bicert_check(path, *(["--json"] if as_json else []))
    g = outcheck.read_input(str(path), "edgelist")
    return g, outcheck.parse_report(out, as_json), code, outcheck.double_cover_bipartite(g)


def test_accepts_genuine_outputs(tmp_path, as_json):
    for text, verdict in ((PATH5, "bipartite"), (ODD, "odd_cycle")):
        g, reports, code, bipartite = checked(tmp_path, text, as_json)
        assert {r["verdict"] for r in reports} == {verdict}
        assert outcheck.check_report(g, reports, code, bipartite) == []


def test_accepts_dimacs_input(tmp_path):
    path = tmp_path / "g.dimacs"
    path.write_text("c five-cycle\np edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n")
    out, code = bicert_check(path, "--format", "dimacs")
    g = outcheck.read_input(str(path), "dimacs")
    reports = outcheck.parse_report(out, False)
    assert code == 1
    assert outcheck.check_report(g, reports, code, outcheck.double_cover_bipartite(g)) == []


def test_rejects_flipped_side(tmp_path, as_json):
    g, reports, code, bipartite = checked(tmp_path, PATH5, as_json)
    sides = reports[0]["sides"]
    v = sides["side0"].pop(0)
    sides["side1"] = sorted(sides["side1"] + [v])
    problems = outcheck.check_report(g, reports, code, bipartite)
    assert any("do not cross" in p for p in problems)


def test_rejects_sides_that_miss_a_vertex(tmp_path, as_json):
    g, reports, code, bipartite = checked(tmp_path, PATH5, as_json)
    reports[1]["sides"]["side1"].pop()
    problems = outcheck.check_report(g, reports, code, bipartite)
    assert any("partition" in p for p in problems)


def test_rejects_even_cycle(tmp_path, as_json):
    g, reports, code, bipartite = checked(tmp_path, ODD, as_json)
    reports[2]["cycle"].pop()
    problems = outcheck.check_report(g, reports, code, bipartite)
    assert any("even length" in p for p in problems)


def test_rejects_unclosed_cycle(tmp_path, as_json):
    g, reports, code, bipartite = checked(tmp_path, ODD, as_json)
    # path 1-2-3-4-5 is odd and simple, but 5-1 is not an edge
    reports[3]["cycle"] = [1, 2, 3, 4, 5]
    problems = outcheck.check_report(g, reports, code, bipartite)
    assert any("not edges" in p for p in problems)


def test_rejects_repeated_cycle_vertex(tmp_path, as_json):
    g, reports, code, bipartite = checked(tmp_path, ODD, as_json)
    reports[0]["cycle"] = [0, 1, 0]
    problems = outcheck.check_report(g, reports, code, bipartite)
    assert any("repeats" in p for p in problems)


@pytest.mark.parametrize("text, wrong_exit", [(PATH5, 1), (ODD, 0), (ODD, 2)])
def test_rejects_exit_code_not_matching_verdict(tmp_path, text, wrong_exit):
    g, reports, _, bipartite = checked(tmp_path, text, True)
    problems = outcheck.check_report(g, reports, wrong_exit, bipartite)
    assert any("exit code" in p for p in problems)


def test_rejects_verdict_against_double_cover(tmp_path):
    g, reports, code, bipartite = checked(tmp_path, ODD, False)
    problems = outcheck.check_report(g, reports, code, not bipartite)
    assert any("double cover" in p for p in problems)


def test_rejects_missing_algorithm(tmp_path):
    g, reports, code, bipartite = checked(tmp_path, PATH5, True)
    problems = outcheck.check_report(g, reports[1:], code, bipartite)
    assert any("one answer per algorithm" in p for p in problems)


@pytest.mark.parametrize("n, pairs, expected", [
    (0, [], True),
    (3, [(0, 1), (1, 2), (2, 0)], False),
    (4, [(0, 1), (1, 2), (2, 3), (3, 0)], True),
    (2, [(0, 1), (1, 1)], False),
    (6, [(0, 1), (2, 3), (3, 4), (4, 2)], False),
])
def test_double_cover_verdict(n, pairs, expected):
    assert outcheck.double_cover_bipartite(outcheck.InputGraph(n, pairs)) is expected


def test_has_edges_on_loop_and_missing_pair():
    g = outcheck.InputGraph(3, [(0, 1), (2, 2)])
    found = g.has_edges(np.array([1, 2, 0]), np.array([0, 2, 2]))
    assert found.tolist() == [True, True, False]


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "0.02"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _benchmark()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
