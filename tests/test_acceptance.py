"""Acceptance gates for the whole package.

Each test prints exactly one ACCEPTANCE line (PASS or FAIL) on the real
terminal, bypassing capture, and then fails loudly if its criterion does
not hold.  Budgets and tolerances are pinned in the asserts; nothing here
is adaptive.
"""

from __future__ import annotations

import csv
import io
import itertools
import time
from contextlib import contextmanager

import bicert.cli as cli
from bicert import (
    ALGORITHM_NAMES,
    GenSpec,
    SplitMix64,
    brute_force_bipartite,
    build_graph,
    check,
    check_path_parity,
    connected_components,
    count_proper_2colorings,
    find_odd_cycle_exhaustive,
    find_path,
    flip_component,
    generate,
    run_instrumented,
    simplify,
    verify_bipartition,
    verify_outcome,
)


@contextmanager
def reported(capsys, number: int, title: str):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} {title}")


def test_criterion_1_exhaustive_five_vertex_equivalence(capsys):
    with reported(capsys, 1, "exhaustive 5-vertex oracle equivalence"):
        slots = list(itertools.combinations(range(5), 2))
        started = time.perf_counter()
        for mask in range(1 << len(slots)):
            pairs = [slots[i] for i in range(len(slots)) if mask >> i & 1]
            g = build_graph(5, pairs)
            colorable = brute_force_bipartite(g) is not None
            assert colorable == (find_odd_cycle_exhaustive(g) is None)
            for outcome, _, _ in cli._certified_runs(g, ALGORITHM_NAMES):
                assert outcome.is_bipartite == colorable
        assert time.perf_counter() - started < 10.0


def test_criterion_2_randomized_oracle_equivalence(capsys):
    with reported(capsys, 2, "10,000 random graphs match the brute oracle"):
        started = time.perf_counter()
        for i in range(10_000):
            rng = SplitMix64(i)
            n = 1 + rng.below(12)
            if i % 2:
                spec = GenSpec(kind="random", n=n, m=rng.below(25),
                               allow_loops=True, allow_multi=True, seed=i)
            else:
                cap = n * (n - 1) // 2
                spec = GenSpec(kind="random", n=n,
                               m=rng.below(min(24, cap) + 1), seed=i)
            g = generate(spec)
            want = brute_force_bipartite(g) is not None
            for outcome, _, _ in cli._certified_runs(g, ALGORITHM_NAMES):
                assert verify_outcome(g, outcome)
                assert outcome.is_bipartite == want
        assert time.perf_counter() - started < 60.0


def test_criterion_3_planted_families(capsys):
    with reported(capsys, 3, "planted instances keep their planted verdict"):
        for i in range(1_000):
            rng = SplitMix64(10_000 + i)
            total = 2 + rng.below(1999)
            left = 1 + rng.below(total - 1)
            g = generate(GenSpec(kind="planted_bipartite", n_left=left,
                                 n_right=total - left,
                                 m=rng.below(2 * total + 1), seed=i))
            for outcome, _, _ in cli._certified_runs(g, ALGORITHM_NAMES):
                assert outcome.is_bipartite
        for i in range(1_000):
            rng = SplitMix64(20_000 + i)
            base = rng.below(1990)
            cycle_len = 3 + 2 * rng.below(5)
            if base >= 2:
                spec = GenSpec(kind="planted_odd_cycle", n_left=base // 2,
                               n_right=base - base // 2,
                               m=rng.below(2 * base + 1),
                               cycle_len=cycle_len, seed=i)
            else:
                spec = GenSpec(kind="planted_odd_cycle", n_left=base,
                               n_right=0, cycle_len=cycle_len, seed=i)
            g = generate(spec)
            for outcome, _, _ in cli._certified_runs(g, ALGORITHM_NAMES):
                assert not outcome.is_bipartite


def test_criterion_4_certificate_invariants(capsys):
    with reported(capsys, 4, "flip, path parity, simplify, coloring count"):
        # flipping a union of whole components keeps the assignment proper
        for i in range(1_000):
            rng = SplitMix64(30_000 + i)
            total = 2 + rng.below(40)
            left = 1 + rng.below(total - 1)
            g = generate(GenSpec(kind="planted_bipartite", n_left=left,
                                 n_right=total - left,
                                 m=rng.below(61), seed=i))
            bp = check(g, "growth").bipartition
            labeling = connected_components(g)
            groups = labeling.members()
            verts = [v for c in range(labeling.k) if rng.below(2)
                     for v in groups[c]]
            assert verify_bipartition(g, flip_component(bp, verts))

        # every path alternates sides under a verified assignment
        parity_pairs = 0
        for i in range(300):
            rng = SplitMix64(40_000 + i)
            n = 1 + rng.below(6)
            cap = n * (n - 1) // 2
            g = generate(GenSpec(kind="random", n=n,
                                 m=rng.below(cap + 1), seed=i))
            outcome = check(g, "forest")
            if not outcome.is_bipartite:
                continue
            for a in range(n):
                for b in range(n):
                    path = find_path(g, range(n), a, b)
                    if path is not None:
                        assert check_path_parity(outcome.bipartition, path)
                        parity_pairs += 1
        assert parity_pairs > 1_000

        # removing duplicate edges never changes any verdict
        for i in range(500):
            rng = SplitMix64(50_000 + i)
            g = generate(GenSpec(kind="random", n=2 + rng.below(9),
                                 m=rng.below(31), allow_loops=i % 2 == 0,
                                 allow_multi=True, seed=i))
            simple = simplify(g).graph
            for name in ALGORITHM_NAMES:
                assert check(g, name).branch == check(simple, name).branch

        # a 2-colorable graph has exactly 2^(component count) colorings
        bipartite_seen = 0
        for i in range(300):
            rng = SplitMix64(60_000 + i)
            n = 1 + rng.below(16)
            if i % 3 == 0:
                g = generate(GenSpec(kind="forest", n=n, seed=i))
            else:
                cap = n * (n - 1) // 2
                g = generate(GenSpec(kind="random", n=n,
                                     m=rng.below(min(n + 2, cap) + 1),
                                     seed=i))
            if brute_force_bipartite(g) is None:
                continue
            bipartite_seen += 1
            assert count_proper_2colorings(g) == 2 ** connected_components(g).k
        assert bipartite_seen >= 100


def test_criterion_5_byte_determinism(capsys, tmp_path):
    with reported(capsys, 5, "check and gen byte-reproduce their output"):
        even = tmp_path / "even.txt"
        even.write_text("n 4\n0 1\n1 2\n2 3\n3 0\n")
        odd = tmp_path / "odd.txt"
        odd.write_text("0 1\n1 2\n2 0\n")

        def run(argv):
            code = cli.main(argv)
            return code, capsys.readouterr().out

        invocations = [
            ["check", str(even)],
            ["check", str(odd)],
            ["check", str(odd), "--json"],
            ["check", str(even), "--algo", "dsu"],
            ["gen", "--kind", "random", "--n", "40", "--m", "80",
             "--seed", "11", "--multi"],
            ["gen", "--kind", "planted-bipartite", "--left", "6",
             "--right", "5", "--m", "20", "--seed", "2"],
            ["gen", "--kind", "planted-odd-cycle", "--left", "4",
             "--right", "4", "--m", "10", "--cycle-len", "5", "--seed", "3"],
            ["gen", "--kind", "forest", "--n", "25", "--seed", "8",
             "--format", "dimacs"],
        ]
        for argv in invocations:
            code_a, out_a = run(argv)
            code_b, out_b = run(argv)
            assert out_a
            assert (code_a, out_a) == (code_b, out_b)

        first, second = tmp_path / "a.dot", tmp_path / "b.dot"
        run(["check", str(even), "--dot", str(first)])
        run(["check", str(even), "--dot", str(second)])
        assert first.read_bytes() == second.read_bytes()


def test_criterion_6_desk_scale_performance(capsys):
    with reported(capsys, 6, "million-edge budgets and bench CSV contract"):
        g = generate(GenSpec(kind="random", n=10**6, m=10**6,
                             allow_multi=True, seed=123))
        started = time.perf_counter()
        by_dsu = run_instrumented(g, "dsu")[0]
        dsu_seconds = time.perf_counter() - started
        started = time.perf_counter()
        by_flip = run_instrumented(g, "flip")[0]
        flip_seconds = time.perf_counter() - started
        assert verify_outcome(g, by_dsu)
        assert verify_outcome(g, by_flip)
        assert by_dsu.branch == by_flip.branch
        assert dsu_seconds < 5.0
        assert flip_seconds < 60.0

        code = cli.main(["bench", "--kinds", "random", "planted-bipartite",
                         "--sizes", "40,60", "80,120",
                         "--seeds", "1", "2", "--repeat", "2"])
        out = capsys.readouterr().out
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == list(cli.BENCH_CSV_HEADER)
        cells: dict[tuple, set] = {}
        for r in rows[1:]:
            cells.setdefault(tuple(r[1:6]), set()).add(r[0])
        assert len(cells) == 2 * 2 * 2 * 2
        for algos in cells.values():
            assert algos == set(ALGORITHM_NAMES)


def test_criterion_7_self_certification_gate(capsys, tmp_path):
    with reported(capsys, 7, "no verifier ever rejects a checker's output"):
        rejections = 0
        outcomes = 0
        for i in range(2_000):
            rng = SplitMix64(70_000 + i)
            case = i % 5
            if case == 0:
                n = 1 + rng.below(30)
                cap = n * (n - 1) // 2
                spec = GenSpec(kind="random", n=n,
                               m=rng.below(min(60, cap) + 1), seed=i)
            elif case == 1:
                spec = GenSpec(kind="random", n=1 + rng.below(15),
                               m=rng.below(41), allow_loops=True,
                               allow_multi=True, seed=i)
            elif case == 2:
                total = 2 + rng.below(60)
                left = 1 + rng.below(total - 1)
                spec = GenSpec(kind="planted_bipartite", n_left=left,
                               n_right=total - left, m=rng.below(121), seed=i)
            elif case == 3:
                base = rng.below(40)
                cycle_len = 3 + 2 * rng.below(4)
                if base >= 2:
                    spec = GenSpec(kind="planted_odd_cycle", n_left=base // 2,
                                   n_right=base - base // 2,
                                   m=rng.below(2 * base + 1),
                                   cycle_len=cycle_len, seed=i)
                else:
                    spec = GenSpec(kind="planted_odd_cycle", n_left=base,
                                   n_right=0, cycle_len=cycle_len, seed=i)
            else:
                spec = GenSpec(kind="forest", n=1 + rng.below(50), seed=i)
            g = generate(spec)
            runs = [(*run_instrumented(g, name), 0) for name in ALGORITHM_NAMES]
            for outcome, _, _ in runs:
                outcomes += 1
                if not verify_outcome(g, outcome):
                    rejections += 1
            cli._agree(g, ALGORITHM_NAMES, runs)
        assert outcomes == 8_000
        assert rejections == 0

        # the CLI's internal-failure exit code stays unused on real input
        for content, expected in (("0 1\n1 2\n2 0\n", 1), ("0 1\n1 2\n", 0)):
            path = tmp_path / f"gate{expected}.txt"
            path.write_text(content)
            assert cli.main(["check", str(path)]) == expected
            capsys.readouterr()
