"""End-to-end runs of the bicert command through main()."""

from __future__ import annotations

import csv
import gc
import io
import json
import os
import re
import resource
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from array import array
from contextlib import redirect_stdout
from functools import partial
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import bicert.cli as cli
import bicert.formats
import bicert.graph
from bicert import (
    ALGORITHM_NAMES,
    Bipartition,
    CheckOutcome,
    OddCycle,
    brute_force_bipartite,
    build_graph,
    canonicalize_bipartition,
    connected_components,
    flip_component,
    simplify,
    verify_outcome,
)
from bicert.checkers import run_instrumented
from bicert.formats import parse_edge_list, write_dot, write_edge_list
from bicert.generators import GenSpec, generate
from bicert.graph import MAX_EDGES
from conftest import graphs

GOLDEN = Path(__file__).parent / "golden"

# certificates a faulty checker might return, as functions of n: one the
# verifier rejects, and two too malformed for it to verify
MALFORMED_SIDES = {
    "rejected": lambda n: [0] * n,
    "short": lambda n: [0] * (n - 1),
    "non-binary": lambda n: [0, 2] + [0] * (n - 2),
}


@pytest.fixture
def even_file(tmp_path):
    path = tmp_path / "even.txt"
    path.write_text("n 4\n0 1\n1 2\n2 3\n3 0\n")
    return str(path)


@pytest.fixture
def odd_file(tmp_path):
    path = tmp_path / "odd.txt"
    path.write_text("0 1\n1 2\n2 0\n")
    return str(path)


class TestCheckExitCodes:
    def test_bipartite_is_zero(self, even_file, capsys):
        assert cli.main(["check", even_file]) == 0
        assert "verdict=bipartite" in capsys.readouterr().out

    def test_odd_cycle_is_one(self, odd_file, capsys):
        assert cli.main(["check", odd_file]) == 1
        assert "verdict=odd_cycle" in capsys.readouterr().out

    def test_missing_file_is_two(self, tmp_path, capsys):
        assert cli.main(["check", str(tmp_path / "absent.txt")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_parse_error_is_two(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0 x\n")
        assert cli.main(["check", str(path)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_unknown_algo_is_two(self, even_file, capsys):
        assert cli.main(["check", even_file, "--algo", "bogus"]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_is_two(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_rejected_certificate_is_three(self, odd_file, capsys, monkeypatch):
        for side in MALFORMED_SIDES.values():
            def broken(g, algorithm):
                return CheckOutcome(bipartition=Bipartition(side(g.n))), 0

            monkeypatch.setattr(cli, "run_instrumented", broken)
            assert cli.main(["check", odd_file, "--algo", "growth"]) == 3
            assert "internal error:" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt, text", [
        ("edgelist", "0 4000000000\n"),
        ("edgelist", "n 4000000000\n"),
        ("dimacs", "p edge 4000000000 0\n"),
    ], ids=["edge", "header", "dimacs"])
    def test_vertex_count_over_the_cap_is_two(self, fmt, text, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text(text)
        assert cli.main(["check", str(path), "--format", fmt]) == 2
        assert "exceeds the limit" in capsys.readouterr().err

    @pytest.mark.parametrize("text, line", [
        (f"0 {'1' * 5000}\n", 1),      # read line by line
        (f"n 5\n0 {'1' * 5000}\n", 2),  # in the writer's layout, read in bulk first
    ], ids=["line-walk", "bulk"])
    def test_id_too_long_for_int_is_two(self, text, line, tmp_path, capsys):
        path = tmp_path / "long.txt"
        path.write_text(text)
        assert cli.main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: line {line}: vertex id of 5000 digits is too long\n"

    @pytest.mark.parametrize("fmt, text, message", [
        ("edgelist", "n 5\n0 99999999999999999999\n",
         "line 2: vertex id exceeds declared count 5: 0 99999999999999999999"),
        ("dimacs", "p edge 5 1\ne 1 99999999999999999999\n",
         "line 2: vertex ids must lie in [1, 5]: 1 99999999999999999999"),
    ], ids=["edgelist", "dimacs"])
    def test_id_past_a_64_bit_slot_is_two(self, fmt, text, message, tmp_path, capsys):
        path = tmp_path / "wide.txt"
        path.write_text(text)
        assert cli.main(["check", str(path), "--format", fmt]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("fmt, text, message", [
        ("edgelist", "n 5\n0 2147483648\n",
         "line 2: vertex id exceeds declared count 5: 0 2147483648"),
        ("dimacs", "p edge 5 1\ne 1 2147483649\n",
         "line 2: vertex ids must lie in [1, 5]: 1 2147483649"),
    ], ids=["edgelist", "dimacs"])
    def test_id_past_a_4_byte_slot_in_the_writer_layout_is_two(self, fmt, text, message,
                                                               tmp_path, capsys):
        # the bulk read's array refuses 2**31 with an OverflowError, which
        # sends the file to the line walk, and the walk names the line
        path = tmp_path / "wide.txt"
        path.write_text(text)
        assert cli.main(["check", str(path), "--format", fmt]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_non_utf8_file_is_two(self, tmp_path, capsys):
        path = tmp_path / "bytes.txt"
        path.write_bytes(b"0 1\n\xff\xfe 2\n")
        assert cli.main(["check", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("fmt, text", [
        ("edgelist", "n 5\n0 1\n1 2\n2 3\n3 0\n"),  # the writers' layout: the bulk read
        ("edgelist", "# a square\n0 1\n1 2\n2 3\n3 0\n"),  # a comment: the line walk
        ("dimacs", "p edge 3 3\ne 1 2\ne 2 3\ne 3 1\n"),
    ], ids=["bulk", "walk", "dimacs"])
    def test_byte_order_mark_is_skipped(self, fmt, text, tmp_path, capsys):
        # as Windows editors and PowerShell write UTF-8
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        code = cli.main(["check", str(plain), "--format", fmt, "--json"])
        out = capsys.readouterr().out
        assert cli.main(["check", str(marked), "--format", fmt, "--json"]) == code
        assert capsys.readouterr().out == out
        assert code == (1 if fmt == "dimacs" else 0)

    def test_unexpected_exception_is_three(self, even_file, capsys, monkeypatch):
        def crash(g, algorithm):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr(cli, "run_instrumented", crash)
        assert cli.main(["check", even_file]) == 3
        assert "internal error: ZeroDivisionError: boom" in capsys.readouterr().err

    @pytest.mark.parametrize("path_fixture, code", [("even_file", 0), ("odd_file", 1)])
    def test_closed_stdout_keeps_the_verdict(self, path_fixture, code, request,
                                             tmp_path, capsys, monkeypatch):
        # `bicert check ... | head`: the reader closes the pipe early
        with open(tmp_path / "stdout", "w") as target:
            class ClosedPipe:
                def write(self, text):
                    raise BrokenPipeError(32, "Broken pipe")

                def flush(self):
                    pass

                def fileno(self):
                    return target.fileno()

            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            path = request.getfixturevalue(path_fixture)
            assert cli.main(["check", path, "--json"]) == code
            # stdout's descriptor now leads to os.devnull
            assert os.path.samestat(os.fstat(target.fileno()), os.stat(os.devnull))
        assert capsys.readouterr().err == ""

    def test_disagreement_is_three(self, even_file, capsys, monkeypatch):
        flip_flop = iter(range(100))

        def fickle(g, algorithm):
            if next(flip_flop) % 2 == 0:
                return CheckOutcome(bipartition=Bipartition([0] * g.n)), 0
            return CheckOutcome(odd_cycle=OddCycle([0], [0])), 0

        monkeypatch.setattr(cli, "run_instrumented", fickle)
        monkeypatch.setattr(cli, "verify_outcome", lambda g, o: True)
        assert cli.main(["check", even_file]) == 3
        assert "disagree" in capsys.readouterr().err


class TestCheckOutput:
    def test_all_runs_every_algorithm(self, even_file, capsys):
        cli.main(["check", even_file])
        out = capsys.readouterr().out
        for name in ("growth", "flip", "dsu", "forest"):
            assert f"algorithm={name}" in out

    def test_single_algorithm(self, even_file, capsys):
        cli.main(["check", even_file, "--algo", "dsu"])
        out = capsys.readouterr().out
        assert out.count("algorithm=") == 1

    def test_bipartite_text_lists_sides(self, even_file, capsys):
        cli.main(["check", even_file, "--algo", "growth"])
        out = capsys.readouterr().out
        assert "side0: 0 2" in out
        assert "side1: 1 3" in out

    def test_cycle_text_lists_vertices(self, odd_file, capsys):
        cli.main(["check", odd_file, "--algo", "dsu"])
        assert "cycle: " in capsys.readouterr().out

    def test_json_shape(self, even_file, capsys):
        cli.main(["check", even_file, "--json"])
        reports = json.loads(capsys.readouterr().out)
        assert [r["algorithm"] for r in reports] == ["growth", "flip", "dsu", "forest"]
        for r in reports:
            assert r["verdict"] == "bipartite"
            assert r["n"] == 4 and r["m"] == 4
            # sides may be swapped between algorithms but always split the cycle
            assert sorted(r["sides"]["side0"] + r["sides"]["side1"]) == [0, 1, 2, 3]
            assert {tuple(sorted(r["sides"]["side0"]))} <= {(0, 2), (1, 3)}
            assert "elapsed_ns" not in r

    def test_json_cycle_field(self, odd_file, capsys):
        cli.main(["check", odd_file, "--json", "--algo", "forest"])
        (report,) = json.loads(capsys.readouterr().out)
        assert report["cycle"] == [1, 0, 2] or len(report["cycle"]) == 3

    def test_timing_is_opt_in(self, even_file, capsys):
        cli.main(["check", even_file])
        assert "elapsed_ns" not in capsys.readouterr().out
        cli.main(["check", even_file, "--timing"])
        assert "elapsed_ns" in capsys.readouterr().out

    def test_dot_file_written(self, even_file, tmp_path, capsys):
        target = tmp_path / "out.dot"
        cli.main(["check", even_file, "--dot", str(target)])
        capsys.readouterr()
        text = target.read_text()
        assert text.startswith("graph certified {")
        assert "fillcolor" in text

    def test_dot_verifies_each_certificate_once(self, even_file, tmp_path, monkeypatch, capsys):
        # the four runs are verified once each, and the DOT renders the first as verified
        calls = []

        def counted(g, outcome):
            calls.append(outcome)
            return verify_outcome(g, outcome)

        monkeypatch.setattr(cli, "verify_outcome", counted)
        monkeypatch.setattr(bicert.formats, "verify_outcome", counted)
        target = tmp_path / "out.dot"
        assert cli.main(["check", even_file, "--dot", str(target)]) == 0
        capsys.readouterr()
        assert len(calls) == 4
        assert target.read_text() == write_dot(parse_edge_list(Path(even_file).read_text()),
                                               calls[0])

    def test_dimacs_format_flag(self, tmp_path, capsys):
        path = tmp_path / "g.col"
        path.write_text("p edge 3 3\ne 1 2\ne 2 3\ne 3 1\n")
        assert cli.main(["check", str(path), "--format", "dimacs"]) == 1
        capsys.readouterr()

    def test_repeated_runs_are_byte_identical(self, odd_file, capsys):
        cli.main(["check", odd_file])
        first = capsys.readouterr().out
        cli.main(["check", odd_file])
        assert capsys.readouterr().out == first


class TestGen:
    def test_golden_bytes(self, capsys):
        assert cli.main(
            ["gen", "--kind", "random", "--n", "12", "--m", "20", "--seed", "7"]
        ) == 0
        expected = (GOLDEN / "random_n12_m20_s7.txt").read_text()
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("gen_argv, fmt, golden", [
        # a 41-cycle on fresh vertices, closed at the end of the edge stream
        (["--kind", "planted-odd-cycle", "--left", "500", "--right", "500",
          "--m", "2000", "--cycle-len", "41", "--seed", "3", "--format", "dimacs"],
         "dimacs", "check_planted_odd_cycle_late_s3.txt"),
        # the first odd cycle closes inside a 678-vertex component, so the
        # flip and dsu searches cover a large region, and flip's path has
        # equal-length rivals that only the sorted neighbor order separates
        (["--kind", "random", "--n", "3000", "--m", "2000", "--seed", "69"],
         "edgelist", "check_random_n3000_m2000_s69.txt"),
    ])
    def test_certificate_golden_bytes(self, gen_argv, fmt, golden, tmp_path, capsys):
        assert cli.main(["gen", *gen_argv]) == 0
        path = tmp_path / "g.txt"
        path.write_text(capsys.readouterr().out)
        assert cli.main(["check", str(path), "--format", fmt]) == 1
        assert capsys.readouterr().out == (GOLDEN / golden).read_text()

    @pytest.mark.parametrize("gen_argv, code, golden", [
        (["--kind", "planted-bipartite", "--left", "8", "--right", "7",
          "--m", "30", "--seed", "5"],
         0, "check_json_planted_bipartite_l8_r7_m30_s5.json"),
        (["--kind", "random", "--n", "20", "--m", "30", "--seed", "11"],
         1, "check_json_random_n20_m30_s11.json"),
    ], ids=["bipartite", "odd"])
    def test_json_golden_bytes(self, gen_argv, code, golden, tmp_path, capsys):
        assert cli.main(["gen", *gen_argv]) == 0
        path = tmp_path / "g.txt"
        path.write_text(capsys.readouterr().out)
        assert cli.main(["check", str(path), "--json", "--algo", "all"]) == code
        assert capsys.readouterr().out == (GOLDEN / golden).read_text()

    def test_gen_pipes_into_check(self, tmp_path, capsys):
        cli.main(["gen", "--kind", "planted-bipartite", "--left", "4",
                  "--right", "4", "--m", "12", "--seed", "9"])
        path = tmp_path / "g.txt"
        path.write_text(capsys.readouterr().out)
        assert cli.main(["check", str(path)]) == 0
        capsys.readouterr()

    def test_dimacs_output(self, capsys):
        cli.main(["gen", "--kind", "forest", "--n", "4", "--seed", "0",
                  "--format", "dimacs"])
        assert capsys.readouterr().out.startswith("p edge 4 ")

    def test_conflicting_size_flags_rejected(self, capsys):
        assert cli.main(
            ["gen", "--kind", "random", "--n", "5", "--m", "3", "--p", "0.5"]
        ) == 2
        capsys.readouterr()

    def test_forest_rejects_m(self, capsys):
        assert cli.main(["gen", "--kind", "forest", "--n", "5", "--m", "3"]) == 2
        capsys.readouterr()

    def test_vertex_count_over_the_cap_is_two(self, capsys):
        assert cli.main(["gen", "--kind", "forest", "--n", "4000000000"]) == 2
        assert "exceeds the limit" in capsys.readouterr().err

    def test_same_seed_same_bytes(self, capsys):
        argv = ["gen", "--kind", "random", "--n", "30", "--p", "0.2", "--seed", "5"]
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        assert capsys.readouterr().out == first


# graphs of twice the size at which --algo all splits over two processes
BIG = {
    "bipartite": GenSpec(kind="planted_bipartite", n_left=8_000, n_right=8_000,
                         m=2 * cli._FORK_EDGES, seed=15),
    "odd": GenSpec(kind="planted_odd_cycle", n_left=8_000, n_right=8_000,
                   m=2 * cli._FORK_EDGES, cycle_len=31, seed=15),
}


@pytest.fixture(scope="module", params=list(BIG))
def big(request, tmp_path_factory):
    """(graph, path of its edge list, exit code) for each graph of ``BIG``."""
    g = generate(BIG[request.param])
    path = tmp_path_factory.mktemp("big") / f"{request.param}.txt"
    path.write_text(write_edge_list(g))
    return g, str(path), 0 if request.param == "bipartite" else 1


@pytest.fixture
def forks(monkeypatch):
    """The pid of each fork made since, through the real ``os.fork``."""
    pids = []
    fork = os.fork

    def spy():
        pids.append(fork())
        return pids[-1]

    monkeypatch.setattr(os, "fork", spy)
    return pids


@pytest.fixture
def link_passes(monkeypatch):
    """Reads the pid of each adjacency link pass made since, in this process or a fork."""
    read_end, write_end = os.pipe()
    link = bicert.graph.link_slots

    def spy(*args):
        os.write(write_end, b"%d\n" % os.getpid())
        link(*args)

    # the private build calls it in graph, the shared build in cli
    monkeypatch.setattr(bicert.graph, "link_slots", spy)
    monkeypatch.setattr(cli, "link_slots", spy)

    def passes():
        os.set_blocking(read_end, False)
        try:
            return [int(pid) for pid in os.read(read_end, 1 << 16).split()]
        except BlockingIOError:  # nothing written
            return []

    yield passes
    os.close(read_end)
    os.close(write_end)


# a check whose worker prints its pid and sleeps in flip; growth and dsu
# run in the parent, which then waits for the worker's answer
SLEEPY_CHECK = """
import os, sys, time
sys.path.insert(0, sys.argv[1])
import bicert.cli as cli
run = cli.run_instrumented
def sleepy(g, algorithm):
    if algorithm == "flip":
        print(os.getpid(), flush=True)
        time.sleep(60)
    return run(g, algorithm)
cli.run_instrumented = sleepy
sys.exit(cli.main(["check", sys.argv[2]]))
"""


def running(pid):
    """Whether ``pid`` is a process that has not ended (a zombie has ended)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def raising(exc):
    """A stand-in for a call that fails with ``exc``."""
    def raise_(*args):
        raise exc
    return raise_


def forked_half(here: bool) -> list[Bipartition]:
    """The bipartitions of one half of a forked run of all four checkers."""
    g = generate(BIG["bipartite"])
    runs = cli._certified_runs(g, ALGORITHM_NAMES)
    return [outcome.bipartition for outcome, _, _ in runs[0 if here else 1::2]]


def two_paths() -> bicert.graph.Graph:
    return build_graph(5, [(0, 1), (1, 2), (3, 4)])


def one_checker(name: str) -> list[Bipartition]:
    return [run_instrumented(two_paths(), name)[0].bipartition]


# every producer of a Bipartition, as a call that returns the ones it made
BIPARTITION_PRODUCERS = {
    **{name: partial(one_checker, name) for name in ALGORITHM_NAMES},
    "forked-here": partial(forked_half, True),
    "forked-worker": partial(forked_half, False),
    "brute_force_bipartite": lambda: [brute_force_bipartite(two_paths())],
    "flip_component": lambda: [flip_component(Bipartition([0, 1, 0, 0, 1]), [3, 4])],
    "canonicalize_bipartition": lambda: [canonicalize_bipartition(
        connected_components(two_paths()), Bipartition([1, 0, 1, 0, 1]))],
}


@pytest.mark.parametrize("producer", [
    pytest.param(name, marks=pytest.mark.skipif(
        name.startswith("forked") and not hasattr(os, "fork"), reason="no os.fork"))
    for name in BIPARTITION_PRODUCERS
])
def test_every_side_is_bytes(producer, request):
    # one byte per vertex from every producer: no list is built or rebuilt
    forks = request.getfixturevalue("forks") if hasattr(os, "fork") else []
    made = BIPARTITION_PRODUCERS[producer]()
    assert made and all(type(bp.side) is bytes for bp in made)
    assert len(forks) == producer.startswith("forked")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
class TestTwoProcesses:
    """With at least ``_FORK_EDGES`` edges, flip and forest run in a forked worker."""

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_all_is_the_four_singles_joined(self, big, flags, forks, capsys):
        g, path, code = big
        assert cli.main(["check", path, *flags]) == code
        out = capsys.readouterr().out
        assert len(forks) == 1
        singles = []
        for name in ALGORITHM_NAMES:
            assert cli.main(["check", path, "--algo", name, *flags]) == code
            singles.append(capsys.readouterr().out)
        assert len(forks) == 1  # a single checker runs here
        if flags:
            reports = [report for single in singles for report in json.loads(single)]
            assert out == json.dumps(reports, indent=2) + "\n"
        else:
            assert out == "".join(singles)
        assert_no_child_left()

    def test_runs_are_the_serial_runs(self, big, forks):
        g = big[0]
        runs = cli._certified_runs(g, ALGORITHM_NAMES)
        assert len(forks) == 1
        assert [(outcome, ops) for outcome, ops, _ in runs] == [
            run_instrumented(g, name) for name in ALGORITHM_NAMES
        ]
        for outcome, _, _ in runs:
            if outcome.is_bipartite:
                assert type(outcome.bipartition.side) is bytes
        assert_no_child_left()

    @pytest.mark.parametrize("fault, message", [
        ("rejected", "checker 'flip' returned a certificate its verifier rejects"),
        ("raises", "the checker worker raised RuntimeError: flip broke"),
        ("exits", "the checker worker ended without an answer"
                  " (wait status 2304, exit code 9)"),
    ])
    def test_worker_failure_is_three(self, fault, message, big, forks, capsys,
                                     monkeypatch):
        run = cli.run_instrumented

        def faulty(g, algorithm):
            if algorithm != "flip":
                return run(g, algorithm)
            if fault == "rejected":
                return CheckOutcome(bipartition=Bipartition([0] * g.n)), 0
            if fault == "raises":
                raise RuntimeError("flip broke")
            os._exit(9)

        monkeypatch.setattr(cli, "run_instrumented", faulty)
        assert cli.main(["check", big[1]]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"internal error: {message}\n")
        if fault == "raises":  # the worker's own traceback comes first
            assert captured.err.startswith("Traceback (most recent call last):\n")
            assert "\nRuntimeError: flip broke\n" in captured.err
        assert len(forks) == 1
        assert_no_child_left()

    def test_failing_half_here_kills_the_worker(self, big, forks, capsys, monkeypatch):
        run = cli.run_instrumented

        def faulty(g, algorithm):
            if algorithm == "growth":
                raise RuntimeError("growth broke")
            if algorithm == "flip":
                time.sleep(60)  # a worker that was waited for, not killed, takes this long
            return run(g, algorithm)

        monkeypatch.setattr(cli, "run_instrumented", faulty)
        t0 = time.monotonic()
        assert cli.main(["check", big[1]]) == 3
        assert time.monotonic() - t0 < 30
        assert "internal error: RuntimeError: growth broke" in capsys.readouterr().err
        assert len(forks) == 1
        assert_no_child_left()

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the worker asks Linux's prctl to die with its parent")
    def test_worker_dies_with_a_killed_parent(self, big, tmp_path):
        script = tmp_path / "sleepy_check.py"
        script.write_text(SLEEPY_CHECK)
        src = str(Path(cli.__file__).resolve().parents[1])
        check = subprocess.Popen([sys.executable, str(script), src, big[1]],
                                 stdout=subprocess.PIPE, text=True)
        worker = None
        try:
            worker = int(check.stdout.readline())
            check.send_signal(signal.SIGTERM)
            assert check.wait(timeout=10) == -signal.SIGTERM
            deadline = time.monotonic() + 1
            while running(worker) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not running(worker)
        finally:
            check.kill()
            check.wait()
            check.stdout.close()
            if worker is not None and running(worker):
                os.kill(worker, signal.SIGKILL)

    def test_one_link_pass_runs_here_and_is_kept(self, big, forks, link_passes):
        g = build_graph(big[0].n, big[0].edges())  # no adjacency yet
        runs = cli._certified_runs(g, ALGORITHM_NAMES)
        assert len(forks) == 1
        assert link_passes() == [os.getpid()]
        assert [(outcome, ops) for outcome, ops, _ in runs] == [
            run_instrumented(big[0], name) for name in ALGORITHM_NAMES
        ]
        assert g._adj_source is None
        assert g.adjacency() == build_graph(g.n, g.edges()).adjacency()
        link_passes()  # the fresh graph's
        again = cli._certified_runs(g, ALGORITHM_NAMES)
        assert [(outcome, ops) for outcome, ops, _ in again] == [
            (outcome, ops) for outcome, ops, _ in runs
        ]
        assert link_passes() == []  # the second fork shares the kept adjacency
        assert len(forks) == 2
        assert_no_child_left()

    def test_the_link_pass_runs_here_even_when_this_half_never_asks(self, big, forks,
                                                                   link_passes):
        # dsu asks for the adjacency only to extract an odd cycle
        g = build_graph(big[0].n, big[0].edges())
        runs = cli._two_halves(g, ("dsu", "forest"))
        assert len(forks) == 1
        assert link_passes() == [os.getpid()]
        assert [(outcome, ops) for outcome, ops, _ in runs] == [
            run_instrumented(big[0], name) for name in ("dsu", "forest")
        ]
        assert g._adj_source is None
        assert g.adjacency() == build_graph(g.n, g.edges()).adjacency()
        assert_no_child_left()

    def test_ids_are_four_bytes_in_every_table(self, big, forks):
        assert array("i").itemsize == 4
        private = build_graph(big[0].n, big[0].edges())
        for table in (private.ends, *private.adjacency()):
            assert (table.typecode, table.itemsize) == ("i", 4)
        shared = build_graph(big[0].n, big[0].edges())
        cli._certified_runs(shared, ALGORITHM_NAMES)
        assert len(forks) == 1
        head, nxt = shared.adjacency()
        for view in head, nxt:
            assert isinstance(view, memoryview)
            assert (view.format, view.itemsize) == ("i", 4)
        assert (head.nbytes, nxt.nbytes) == (4 * shared.n, 8 * shared.m)
        assert_no_child_left()

    def test_no_region_runs_all_here(self, big, forks, link_passes, monkeypatch):
        import mmap

        monkeypatch.setattr(mmap, "mmap", raising(OSError(12, "Cannot allocate memory")))
        g = build_graph(big[0].n, big[0].edges())
        runs = cli._certified_runs(g, ALGORITHM_NAMES)
        assert forks == []
        assert link_passes() == [os.getpid()]
        assert [(outcome, ops) for outcome, ops, _ in runs] == [
            run_instrumented(big[0], name) for name in ALGORITHM_NAMES
        ]

    def test_a_loop_forks_nothing_and_prints_the_same(self, forks, tmp_path, capsys,
                                                     monkeypatch):
        # all four checkers answer a loop in their pre-pass, so a fork can only cost
        base = generate(GenSpec(kind="planted_bipartite", n_left=2_000, n_right=2_000,
                                m=cli._FORK_EDGES - 1, seed=1))
        path = tmp_path / "loop.txt"
        path.write_text(write_edge_list(build_graph(base.n, [*base.edges(), (7, 7)])))
        assert cli.main(["check", str(path), "--json"]) == 1
        serial = capsys.readouterr().out
        assert forks == []
        monkeypatch.setattr(cli, "_worth_forking", lambda g, algorithms: True)
        assert cli.main(["check", str(path), "--json"]) == 1
        assert capsys.readouterr().out == serial
        assert len(forks) == 1
        assert_no_child_left()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="counts open descriptors in /proc/self/fd")
    @pytest.mark.parametrize("ending", ["forked", "fork-fails", "no-region", "half-raises",
                                        "link-raises", "first-pipe-fails",
                                        "second-pipe-fails"])
    def test_every_ending_closes_its_pipes_and_reaps(self, ending, big, monkeypatch):
        g = build_graph(big[0].n, big[0].edges())
        serial = [run_instrumented(big[0], name) for name in ALGORITHM_NAMES]
        run = cli.run_instrumented
        pipe = os.pipe
        pipes_left = {"first-pipe-fails": 0, "second-pipe-fails": 1}.get(ending)

        def pipe_or_emfile():
            nonlocal pipes_left
            if pipes_left == 0:
                raise OSError(24, "Too many open files")
            pipes_left -= 1
            return pipe()

        def dsu_broke(g, algorithm):
            if algorithm == "dsu":
                raise RuntimeError("dsu broke")
            return run(g, algorithm)

        if ending == "fork-fails":
            monkeypatch.setattr(os, "fork", raising(BlockingIOError(11, "no process")))
        elif ending == "no-region":
            import mmap

            monkeypatch.setattr(mmap, "mmap", raising(OSError(12, "no memory")))
        elif ending == "link-raises":
            monkeypatch.setattr(cli, "link_slots", raising(RuntimeError("link broke")))
        elif ending == "half-raises":
            monkeypatch.setattr(cli, "run_instrumented", dsu_broke)
        elif ending.endswith("pipe-fails"):
            monkeypatch.setattr(os, "pipe", pipe_or_emfile)
        open_fds = len(os.listdir("/proc/self/fd"))
        if ending.endswith("raises"):
            with pytest.raises(RuntimeError, match=" broke"):
                cli._certified_runs(g, ALGORITHM_NAMES)
        else:
            runs = cli._certified_runs(g, ALGORITHM_NAMES)
            assert [(outcome, ops) for outcome, ops, _ in runs] == serial
        assert len(os.listdir("/proc/self/fd")) == open_fds
        assert_no_child_left()

    def test_import_leaves_mmap_unloaded(self):
        # only a check that forks maps the shared region
        src = str(Path(cli.__file__).resolve().parents[1])
        probe = ("import sys; sys.path.insert(0, sys.argv[1]); import bicert.cli;"
                 " print('mmap' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe, src], capture_output=True,
                             text=True, check=True).stdout
        assert out == "False\n"

    def test_the_threshold_is_fork_edges(self, forks):
        for m, forked in ((cli._FORK_EDGES - 1, 0), (cli._FORK_EDGES, 1)):
            g = generate(GenSpec(kind="planted_bipartite", n_left=2_000, n_right=2_000,
                                 m=m, seed=1))
            cli._certified_runs(g, ALGORITHM_NAMES)
            assert len(forks) == forked
        assert_no_child_left()

    def test_below_the_threshold_or_on_one_cpu_nothing_forks(self, big, capsys,
                                                            monkeypatch):
        path, code = big[1], big[2]

        def no_fork():
            raise RuntimeError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        small = generate(GenSpec(kind="planted_bipartite", n_left=2_000, n_right=2_000,
                                 m=cli._FORK_EDGES - 1, seed=1))
        assert len(cli._certified_runs(small, ALGORITHM_NAMES)) == 4
        assert cli.main(["check", path, "--algo", "forest"]) == code
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert cli.main(["check", path]) == code
        assert "verdict" in capsys.readouterr().out

    def test_without_affinity_the_cpu_count_decides(self, big, forks, capsys, monkeypatch):
        # platforms without sched_getaffinity fall back on os.cpu_count()
        path, code = big[1], big[2]
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        outs = []
        for cpus, forked in ((1, 0), (None, 0), (2, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert cli.main(["check", path]) == code
            outs.append(capsys.readouterr().out)
            assert len(forks) == forked
        assert outs[1] == outs[0] and outs[2] == outs[0]
        assert_no_child_left()

    def test_no_process_to_spare_runs_all_here(self, big, capsys, monkeypatch):
        path, code = big[1], big[2]
        assert cli.main(["check", path]) == code
        expected = capsys.readouterr().out

        def no_process():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_process)
        assert cli.main(["check", path]) == code
        assert capsys.readouterr().out == expected

    def test_bench_cell_at_the_threshold_forks(self, forks, capsys):
        assert cli.main(["bench", "--kinds", "planted-bipartite", "--sizes",
                         f"4000,{cli._FORK_EDGES}", "--seeds", "1", "--repeat", "2"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        assert [row[0] for row in rows] == sorted(2 * list(ALGORITHM_NAMES))
        assert {row[6] for row in rows} == {"bipartite"}
        assert len(forks) == 2
        assert_no_child_left()


def passes_over_its_first_clash(run):
    """``run`` with a planted defect: dsu reads the edge that first closes an odd cycle as
    a copy of edge 0, so it closes on a later edge, if any, with a valid cycle."""
    def faulty(g, algorithm):
        outcome, ops = run(g, algorithm)
        if algorithm != "dsu" or outcome.is_bipartite:
            return outcome, ops
        ends = g.ends[:]
        eid = outcome.odd_cycle.edge_ids[-1]
        ends[2 * eid:2 * eid + 2] = ends[0:2]
        it = iter(ends)
        return run(build_graph(g.n, zip(it, it)), algorithm)
    return faulty


def miscounts(name, by):
    """``run`` with a planted defect: ``name``'s ops counter is off by ``by``."""
    def planted(run):
        def faulty(g, algorithm):
            outcome, ops = run(g, algorithm)
            return outcome, ops + by if algorithm == name else ops
        return faulty
    return planted


# random graphs hold many odd cycles, so dsu finds another past its first
AGREEMENT_GRAPHS = {
    "odd": lambda m: GenSpec(kind="random", n=m, m=m, seed=18),
    "bipartite": lambda m: GenSpec(kind="planted_bipartite", n_left=m // 2,
                                   n_right=m // 2, m=m, seed=18),
}
fork_only = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


class TestAgreement:
    """Beyond one verdict: flip and dsu close on one edge, the counters add up."""

    @pytest.mark.parametrize("m, forked", [
        (300, 0), pytest.param(2 * cli._FORK_EDGES, 1, marks=fork_only),
    ], ids=["serial", "forked"])
    @pytest.mark.parametrize("kind, defect, message", [
        ("odd", passes_over_its_first_clash,
         r"flip and dsu close their cycles on different edges: flip=(\d+), dsu=(\d+)"),
        ("bipartite", miscounts("dsu", 1),
         r"dsu's unions \((\d+)\) and forest's examined edges \((\d+)\) add up to"
         r" (\d+), not m=(\d+)"),
        ("bipartite", miscounts("forest", -1),
         r"dsu's unions \((\d+)\) and forest's examined edges \((\d+)\) add up to"
         r" (\d+), not m=(\d+)"),
        ("bipartite", miscounts("growth", -1),
         r"growth absorbed (\d+) of n=(\d+) vertices on a bipartite verdict"),
    ], ids=["dsu-past-its-first-clash", "dsu-one-union-more", "forest-one-edge-fewer",
            "growth-one-vertex-fewer"])
    def test_a_planted_defect_is_three(self, kind, defect, message, m, forked, forks,
                                       tmp_path, capsys, monkeypatch):
        g = generate(AGREEMENT_GRAPHS[kind](m))
        path = tmp_path / "g.txt"
        path.write_text(write_edge_list(g))
        code = 0 if kind == "bipartite" else 1
        assert cli.main(["check", str(path)]) == code
        capsys.readouterr()
        monkeypatch.setattr(cli, "run_instrumented", defect(cli.run_instrumented))
        assert cli.main(["check", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        found = re.fullmatch(f"internal error: {message}\n", captured.err)
        assert found
        values = [int(value) for value in found.groups()]
        if kind == "odd":  # flip's edge is where dsu should have closed
            closing = run_instrumented(g, "flip")[0].odd_cycle.edge_ids[-1]
            assert values[0] == closing < values[1]
        elif len(values) == 4:  # unions, examined, their sum, m
            assert values[0] + values[1] == values[2] != values[3] == g.m
        else:
            assert values == [g.n - 1, g.n]
        assert len(forks) == 2 * forked
        assert_no_child_left()

    @given(graphs(max_n=10, max_m=20))
    def test_correct_runs_pass_every_agreement(self, g):
        runs = cli._certified_runs(g, ALGORITHM_NAMES)
        (growth, _, _), (flip, _, _), (dsu, unions, _), (_, examined, _) = runs
        if growth.is_bipartite:
            assert [runs[0][1], unions + examined] == [g.n, g.m]
        else:
            assert flip.odd_cycle.edge_ids[-1] == dsu.odd_cycle.edge_ids[-1]


class TestBench:
    def run(self, argv, capsys):
        code = cli.main(argv)
        out = capsys.readouterr().out
        return code, list(csv.reader(io.StringIO(out)))

    def test_csv_contract(self, capsys):
        code, rows = self.run(
            ["bench", "--kinds", "random", "forest", "--sizes", "8,12",
             "--seeds", "1", "2", "--repeat", "2"],
            capsys,
        )
        assert code == 0
        assert rows[0] == list(cli.BENCH_CSV_HEADER)
        body = rows[1:]
        # 2 kinds x 1 size x 2 seeds x 2 reps x 4 algorithms
        assert len(body) == 32
        keys = [(r[0], r[1], int(r[2]), int(r[3]), int(r[4]), int(r[5]))
                for r in body]
        assert keys == sorted(keys)
        for r in body:
            assert r[0] in ("growth", "flip", "dsu", "forest")
            assert r[6] in ("bipartite", "odd_cycle")
            assert int(r[7]) >= 0 and int(r[8]) >= 0

    def test_verdicts_agree_within_cell(self, capsys):
        code, rows = self.run(
            ["bench", "--kinds", "random", "--sizes", "6,9", "10,15",
             "--seeds", "0", "1", "2"],
            capsys,
        )
        assert code == 0
        cells: dict[tuple, set] = {}
        for r in rows[1:]:
            cells.setdefault((r[1], r[2], r[3], r[4]), set()).add(r[6])
        for verdicts in cells.values():
            assert len(verdicts) == 1

    def test_planted_kinds_get_expected_verdicts(self, capsys):
        code, rows = self.run(
            ["bench", "--kinds", "planted-bipartite", "planted-odd-cycle",
             "--sizes", "20,30", "--seeds", "3", "--cycle-len", "5"],
            capsys,
        )
        assert code == 0
        verdicts = {r[1]: r[6] for r in rows[1:]}
        assert verdicts["planted_bipartite"] == "bipartite"
        assert verdicts["planted_odd_cycle"] == "odd_cycle"

    @pytest.mark.parametrize("fault", ["rejected", "short", "non-binary", "disagree"])
    def test_internal_error_is_three(self, fault, capsys, monkeypatch):
        answers = iter(range(100))
        side = MALFORMED_SIDES.get(fault, MALFORMED_SIDES["rejected"])

        def faulty(g, algorithm):
            if fault == "disagree" and next(answers) % 2:
                return CheckOutcome(odd_cycle=OddCycle([0], [0])), 0
            return CheckOutcome(bipartition=Bipartition(side(g.n))), 0

        monkeypatch.setattr(cli, "run_instrumented", faulty)
        if fault == "disagree":
            monkeypatch.setattr(cli, "verify_outcome", lambda g, o: True)
        code = cli.main(["bench", "--kinds", "random", "--sizes", "8,12",
                         "--seeds", "1"])
        captured = capsys.readouterr()
        assert code == 3
        assert "internal error:" in captured.err
        assert captured.out.splitlines()[0] == ",".join(cli.BENCH_CSV_HEADER)

    def test_malformed_size_is_usage_error(self, capsys):
        assert cli.main(["bench", "--kinds", "random", "--sizes", "8",
                         "--seeds", "1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("kind, cell, message", [
        ("random", "a,b", "size 'a,b' must be two integers"),
        ("planted-odd-cycle", "2,0", "size n=2 is smaller than cycle_len=3"),
    ], ids=["not-integers", "below-cycle-len"])
    def test_unusable_size_cell_is_named(self, kind, cell, message, capsys):
        code = cli.main(["bench", "--kinds", kind, "--sizes", cell, "--seeds", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("cell, name, value", [("-3,2", "n", -3), ("10,-5", "m", -5)])
    @pytest.mark.parametrize("kind", ["random", "forest"])
    def test_negative_size_cell_is_named(self, cell, name, value, kind, capsys):
        code = cli.main(["bench", "--kinds", kind, "--sizes", "4,4", cell,
                         "--seeds", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"error: size {cell!r}: {name} must be"
                                f" non-negative, got {value}\n")

    @pytest.mark.parametrize("kind, cell, message", [
        ("planted-bipartite", "4,10000000000",
         f"planted_bipartite may make 10000000000 edges, more than the limit of {MAX_EDGES}"),
        ("random", "4,7", "m=7 exceeds the 6 distinct pairs available"),
    ], ids=["over-the-edge-cap", "over-the-distinct-pairs"])
    def test_a_bad_cell_after_a_good_one_builds_nothing(self, kind, cell, message,
                                                       capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "generate", lambda spec: built.append(spec) or generate(spec))
        code = cli.main(["bench", "--kinds", kind, "--sizes", "100,200", cell, "--seeds", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert built == []

    @pytest.mark.parametrize("kinds, sizes, seeds, m", [
        (["forest"], ["6,5"], ["1", "1"], 5),
        (["forest"], ["6,5", "6,5"], ["1"], 5),
        (["forest", "forest"], ["6,5"], ["1"], 5),
        (["forest"], ["6,5", "6,3"], ["1"], 3),  # forest ignores m: the same graph
    ], ids=["seed", "size", "kind", "same-graph"])
    def test_a_repeated_cell_builds_nothing(self, kinds, sizes, seeds, m, capsys, monkeypatch):
        # its rows would repeat an earlier cell's keys; --repeat times a cell again
        built = []
        monkeypatch.setattr(cli, "generate", lambda spec: built.append(spec) or generate(spec))
        code = cli.main(["bench", "--kinds", *kinds, "--sizes", *sizes, "--seeds", *seeds])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"error: cell kind=forest n=6 m={m} seed=1 builds the graph"
                                " of an earlier cell (--repeat times a cell again)\n")
        assert built == []

    @pytest.mark.parametrize("repeat", ["0", "-1"])
    def test_repeat_below_one_is_usage_error(self, repeat, capsys):
        code = cli.main(["bench", "--kinds", "random", "--sizes", "10,10",
                         "--seeds", "1", "--repeat", repeat])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: --repeat")

    def test_stable_apart_from_timing(self, capsys):
        argv = ["bench", "--kinds", "forest", "--sizes", "12,0", "--seeds", "4"]
        _, first = self.run(argv, capsys)
        _, second = self.run(argv, capsys)
        strip = lambda rows: [r[:7] + r[8:] for r in rows]
        assert strip(first) == strip(second)


class TestCollector:
    """main() runs with the collector as its caller left it, and leaves it so."""

    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def collecting(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("case, code, reaches_spies", [
        ("even", 0, True), ("odd", 1, True), ("parse-error", 2, False),
        ("usage", 2, False), ("internal", 3, True), ("gen", 0, True), ("bench", 0, True),
    ])
    def test_runs_in_the_callers_state(self, case, code, reaches_spies, collecting,
                                       even_file, odd_file, tmp_path, capsys, monkeypatch):
        seen = []
        run, generate = cli.run_instrumented, cli.generate

        def spy(g, algorithm):
            seen.append(gc.isenabled())
            if case == "internal":
                raise ZeroDivisionError("boom")
            return run(g, algorithm)

        monkeypatch.setattr(cli, "run_instrumented", spy)
        monkeypatch.setattr(cli, "generate",
                            lambda spec: seen.append(gc.isenabled()) or generate(spec))
        bad = tmp_path / "bad.txt"
        bad.write_text("0 x\n")
        argv = {"even": ["check", even_file], "odd": ["check", odd_file],
                "parse-error": ["check", str(bad)], "usage": ["check"],
                "internal": ["check", even_file],
                "gen": ["gen", "--kind", "forest", "--n", "5"],
                "bench": ["bench", "--kinds", "forest", "--sizes", "5,0", "--seeds", "1"]}[case]
        assert cli.main(argv) == code
        capsys.readouterr()
        assert gc.isenabled() is collecting
        assert set(seen) == ({collecting} if reaches_spies else set())

    @pytest.mark.parametrize("make, build", [
        (lambda: GenSpec(kind="random", n=2000, m=20000, seed=1), generate),
        (lambda: generate(GenSpec(kind="random", n=300, m=20000, allow_multi=True,
                                  allow_loops=True, seed=2)), simplify),
    ], ids=["generate", "simplify"])
    def test_duplicate_sets_leave_the_collector_nothing(self, make, build):
        # a set of (u, v) tuples tracks one more object per edge: 28 (generate)
        # and 23 (simplify) collections at these thresholds
        arg = make()
        runs = []

        def count(phase, info):
            if phase == "start":
                runs.append(info["generation"])

        was, thresholds = gc.isenabled(), gc.get_threshold()
        gc.set_threshold(700, 10, 10)
        gc.enable()
        gc.collect()  # no allocation counted before the build
        gc.callbacks.append(count)
        try:
            build(arg)
        finally:
            gc.callbacks.remove(count)
            gc.set_threshold(*thresholds)
            (gc.enable if was else gc.disable)()
        assert len(runs) <= 1

    @pytest.mark.parametrize("small, large", [
        (["check", "{odd}", "--json"], ["check", "{big}", "--json"]),
        (["check", "{odd}", "--dot", "{dot}"], ["check", "{big}", "--dot", "{dot}"]),
        (["gen", "--kind", "random", "--n", "3", "--m", "2"],
         ["gen", "--kind", "random", "--n", "300", "--m", "900", "--loops"]),
        (["bench", "--kinds", "random", "--sizes", "3,2", "--seeds", "1"],
         ["bench", "--kinds", "random", "planted-odd-cycle", "--sizes", "300,900",
          "--seeds", "1", "2", "--repeat", "2"]),
    ], ids=["check", "dot", "gen", "bench"])
    def test_runs_leave_no_cyclic_garbage_of_their_own(self, small, large, odd_file,
                                                       tmp_path, capsys):
        # what the collector would have freed is argparse's parser alone:
        # the same amount whatever the size of the graphs
        big = tmp_path / "big.txt"
        cli.main(["gen", "--kind", "random", "--n", "400", "--m", "1200", "--seed", "2"])
        big.write_text(capsys.readouterr().out)
        paths = {"odd": odd_file, "big": str(big), "dot": str(tmp_path / "g.dot")}

        def garbage(argv):
            gc.collect()
            was = gc.isenabled()
            gc.disable()  # no automatic collection between main() and ours
            try:
                cli.main([arg.format(**paths) for arg in argv])
                capsys.readouterr()
                return gc.collect()
            finally:
                if was:
                    gc.enable()

        assert garbage(large) == garbage(small)


def reference_report(g, name: str, outcome, elapsed: int, timing: bool) -> dict:
    """One checker's report as the dict the ``--json`` list holds."""
    report: dict = {"algorithm": name, "verdict": outcome.branch, "n": g.n, "m": g.m}
    if outcome.bipartition is not None:
        side = outcome.bipartition.side
        report["sides"] = {"side0": [v for v, s in enumerate(side) if s == 0],
                           "side1": [v for v, s in enumerate(side) if s == 1]}
    else:
        report["cycle"] = list(outcome.odd_cycle.vertices)
    if timing:
        report["elapsed_ns"] = elapsed
    return report


def reference_text(report: dict) -> str:
    """The text form of one ``reference_report``, newline included."""
    lines = [f"algorithm={report['algorithm']} verdict={report['verdict']}"
             f" n={report['n']} m={report['m']}"]
    for label, vertices in report.get("sides", {}).items():
        lines.append(f"  {label}: " + " ".join(map(str, vertices)))
    if "cycle" in report:
        lines.append("  cycle: " + " ".join(map(str, report["cycle"])))
    if "elapsed_ns" in report:
        lines.append(f"  elapsed_ns: {report['elapsed_ns']}")
    return "\n".join(lines) + "\n"


def check_output(g, *flags: str, algo: str = "all", elapsed: int = 0) -> tuple[str, list[dict]]:
    """``bicert check`` of ``g`` through ``cli.main``, with every checker's
    elapsed time read as ``elapsed``: its stdout, and the reference reports
    built from ``run_instrumented``.
    """
    real = cli._certified_runs

    def fixed_elapsed(graph, algorithms):
        return [(outcome, ops, elapsed) for outcome, ops, _ in real(graph, algorithms)]

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        Path(path).write_text(write_edge_list(g))
        out = io.StringIO()
        with mock.patch.object(cli, "_certified_runs", fixed_elapsed), redirect_stdout(out):
            cli.main(["check", path, "--algo", algo, *flags])
    names = ALGORITHM_NAMES if algo == "all" else (algo,)
    reports = [reference_report(g, name, run_instrumented(g, name)[0], elapsed,
                                "--timing" in flags)
               for name in names]
    return out.getvalue(), reports


def star(leaves: int):
    """Vertex 0 joined to each of 1..leaves: sides of 1 and ``leaves`` vertices."""
    return build_graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def odd_cycle(k: int):
    return build_graph(k, [(v, (v + 1) % k) for v in range(k)])


class TestReportWriter:
    """The text and --json reports match the reports built as dicts, byte for byte.

    The reference is the report a dict-and-join writer prints:
    ``json.dumps(reports, indent=2)`` for --json, one joined line per list
    for text.  The writer streams each side or cycle in runs of
    ``cli._RUN`` vertex ids, so the lengths around a run boundary are
    pinned here.
    """

    @given(graphs(max_n=12, max_m=24), st.booleans(), st.integers(0, 2**63))
    def test_matches_the_reference(self, g, timing, elapsed):
        flags = ["--timing"] if timing else []
        out, reports = check_output(g, "--json", *flags, elapsed=elapsed)
        assert out == json.dumps(reports, indent=2) + "\n"
        out, reports = check_output(g, *flags, elapsed=elapsed)
        assert out == "".join(map(reference_text, reports))

    @pytest.mark.parametrize("g", [
        build_graph(0, []),
        build_graph(3, []),                     # isolated vertices only
        build_graph(4, [(0, 1), (2, 2)]),       # a loop certificate
        build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
    ], ids=["empty", "isolated", "loop", "five-cycle"])
    def test_edge_cases(self, g):
        for flags in ([], ["--timing"]):
            out, reports = check_output(g, "--json", *flags, elapsed=12)
            assert out == json.dumps(reports, indent=2) + "\n"
            out, reports = check_output(g, *flags, elapsed=12)
            assert out == "".join(map(reference_text, reports))

    @pytest.mark.parametrize("algo", ["all", *ALGORITHM_NAMES])
    @pytest.mark.parametrize("path_fixture", ["even_file", "odd_file"])
    def test_check_writes_what_json_dumps_writes(self, algo, path_fixture, request, capsys):
        path = request.getfixturevalue(path_fixture)
        g = parse_edge_list(Path(path).read_text())
        names = ALGORITHM_NAMES if algo == "all" else (algo,)
        reports = [reference_report(g, name, run_instrumented(g, name)[0], 0, False)
                   for name in names]
        cli.main(["check", path, "--json", "--algo", algo])
        assert capsys.readouterr().out == json.dumps(reports, indent=2) + "\n"

    R = cli._RUN

    @pytest.mark.parametrize("g, lengths", [
        (build_graph(0, []), {0}),
        (build_graph(1, []), {0, 1}),
        (build_graph(R, []), {0, R}),
        (build_graph(R + 1, []), {0, R + 1}),
        (star(R), {1, R}),
        (star(R + 1), {1, R + 1}),
        (star(2 * R + 1), {1, 2 * R + 1}),
        (build_graph(2, [(1, 1)]), {1}),        # a loop: a cycle of one vertex
        (odd_cycle(R - 1), {R - 1}),
        (odd_cycle(R + 1), {R + 1}),
    ], ids=["0", "1", "R", "R+1", "star-R", "star-R+1", "star-2R+1",
            "cycle-1", "cycle-R-1", "cycle-R+1"])
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_lists_around_a_run_boundary(self, g, lengths, as_json):
        out, reports = check_output(g, *(["--json"] if as_json else []))
        lists = [ids for report in reports
                 for ids in (report["sides"].values() if "sides" in report
                             else [report["cycle"]])]
        assert set(map(len, lists)) == lengths
        if as_json:
            assert out == json.dumps(reports, indent=2) + "\n"
        else:
            assert out == "".join(map(reference_text, reports))

    def test_empty_side_is_written_as_json_dumps_and_join_write_it(self):
        # the text line keeps the space after the colon
        g = build_graph(2, [])
        out, _ = check_output(g, algo="growth")
        assert out == "algorithm=growth verdict=bipartite n=2 m=0\n  side0: 0 1\n  side1: \n"
        out, _ = check_output(g, "--json", algo="growth")
        assert '"side0": [\n        0,\n        1\n      ],\n      "side1": []\n' in out


# requests for more edges than a graph may hold; each must exit 2 at once
SIZE_PROBES = {
    "gen-m": ["gen", "--kind", "planted-bipartite", "--left", "1", "--right", "1",
              "--m", "10000000000"],
    "bench-m": ["bench", "--kinds", "planted-bipartite", "--sizes", "4,10000000000",
                "--seeds", "1"],
    "gen-p": ["gen", "--kind", "random", "--n", "10000000", "--p", "0.0"],
    "check-dimacs-m": ["check", "--format", "dimacs", "{dimacs}"],
}
# the address space each probe may use: enough to import bicert with numpy,
# so that a probe that draws its pairs ends in MemoryError (exit 3) within
# seconds, and one that enumerates them in the timeout
PROBE_ADDRESS_SPACE = 512 << 20


def _cap_address_space():
    """In the probe's child process only, before it runs Python."""
    resource.setrlimit(resource.RLIMIT_AS, (PROBE_ADDRESS_SPACE, PROBE_ADDRESS_SPACE))


class TestSizeContract:
    """Sizes bicert cannot hold are bad input, refused before any memory is spent."""

    @pytest.mark.parametrize("argv", SIZE_PROBES.values(), ids=list(SIZE_PROBES))
    def test_the_probe_exits_two_at_once(self, argv, tmp_path):
        dimacs = tmp_path / "g.dimacs"
        dimacs.write_text("p edge 3 2000000000\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1"}
        done = subprocess.run(
            [sys.executable, "-m", "bicert.cli", *(a.format(dimacs=dimacs) for a in argv)],
            capture_output=True, text=True, env=env, timeout=10,
            preexec_fn=_cap_address_space)
        assert done.returncode == 2, done.stderr
        assert done.stdout == ""
        assert f"the limit of {MAX_EDGES}\n" in done.stderr


class TestCheckMemory:
    """tracemalloc peak of a whole ``bicert check`` run per vertex, report included.

    The input is a header-only file, 2×10⁵ vertices and no edges, so every
    byte is per-vertex state: the checkers' tables, the certificates and the
    report.  Measured with stdout on os.devnull, text and --json alike:

    algo      per-vertex objects  flat tables, streamed report  4-byte ids  bytes sides
    growth    123-131 B           19 B                          14.6 B      8.2 B
    flip      153 B               42 B                          25.6 B      18.6 B
    dsu       113-122 B           20 B                          15.4 B      8.4 B
    forest    122-131 B           42 B                          25.2 B      19.2 B
    all       170 B               66 B                          49.2 B      23.6 B
    all, dot  —                   233 B                         49.2 B      23.6 B

    The last row writes the first checker's certificate with ``--dot`` as
    well; the DOT took 233 B per vertex while it was built whole, and is
    written in runs now.  The last column holds each ``Bipartition.side``
    as ``bytes``, one byte per vertex, where it held a list of 8-byte
    pointers.
    """

    N = 200_000
    BOUNDS = {"growth": 12, "flip": 24, "dsu": 12, "forest": 24, "all": 32}

    # the two writers share the run writer, so the singles write text and
    # all writes --json; the DOT rendering is the same with either
    @pytest.mark.parametrize("algo, as_json, dot", [
        *((algo, False, False) for algo in ALGORITHM_NAMES), ("all", True, False),
        ("all", False, True),
    ], ids=[*ALGORITHM_NAMES, "all-json", "all-dot"])
    def test_peak_bytes_per_vertex(self, algo, as_json, dot, tmp_path, monkeypatch):
        path = tmp_path / "g.txt"
        path.write_text(f"n {self.N}\n")
        argv = ["check", str(path), "--algo", algo, *(["--json"] if as_json else []),
                *(["--dot", str(tmp_path / "g.dot")] if dot else [])]
        with open(os.devnull, "w") as devnull:
            monkeypatch.setattr(sys, "stdout", devnull)
            tracemalloc.start()
            try:
                code = cli.main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak / self.N <= self.BOUNDS[algo]

    def test_all_on_a_star(self, tmp_path, monkeypatch):
        # 2×10⁵ leaves, so the checkers run in two processes and this one
        # runs growth and dsu; growth's queue of a Python int per leaf made
        # it 51.8 B per vertex, its 4-byte queue 21.3 B
        leaves = 200_000
        path = tmp_path / "star.txt"
        path.write_text(f"n {leaves + 1}\n" + "".join(f"0 {leaf}\n" for leaf in range(1, leaves + 1)))
        with open(os.devnull, "w") as devnull:
            monkeypatch.setattr(sys, "stdout", devnull)
            tracemalloc.start()
            try:
                code = cli.main(["check", str(path), "--algo", "all"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak / (leaves + 1) <= self.BOUNDS["all"]

    def test_forest_certificate_at_the_far_end_of_a_path(self, tmp_path, monkeypatch):
        # a 10⁵-vertex path closed into a triangle at its far end: forest's
        # fundamental cycle costs its own 3 edges, not the tree's depth (the
        # climb of one end to its root into a dict measured 272 B per vertex)
        n = 100_000
        path = tmp_path / "g.txt"
        path.write_text(f"n {n}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1))
                        + f"{n - 3} {n - 1}\n")
        with open(os.devnull, "w") as devnull:
            monkeypatch.setattr(sys, "stdout", devnull)
            tracemalloc.start()
            try:
                code = cli.main(["check", str(path), "--algo", "forest"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 1
        assert peak / n <= 128


class TestCertificateSearchMemory:
    """tracemalloc peak of a whole ``bicert check`` run per vertex on an odd
    cycle of 100,001 vertices, stdout on os.devnull.

    Each checker's certificate holds the cycle's path of 100,000 vertices,
    so the region ``bfs_path`` searches is the whole graph.  Measured:
    growth 165.4 B, flip 163.6 B, dsu 163.6 B.  The same search with two
    dicts of distances in place of the two tables measured 331-356 B.
    """

    N = 100_001

    @pytest.mark.parametrize("algo", ["growth", "flip", "dsu"])
    def test_peak_bytes_per_vertex(self, algo, tmp_path, monkeypatch):
        path = tmp_path / "g.txt"
        path.write_text(f"n {self.N}\n" + "".join(f"{i} {(i + 1) % self.N}\n"
                                                  for i in range(self.N)))
        with open(os.devnull, "w") as devnull:
            monkeypatch.setattr(sys, "stdout", devnull)
            tracemalloc.start()
            try:
                code = cli.main(["check", str(path), "--algo", algo])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 1
        assert peak / self.N <= 224
