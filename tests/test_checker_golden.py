"""Every checker's raw outcome and counter, pinned on a seeded corpus.

The corpus holds graphs of all four ``generate`` kinds, up to about 2,000
vertices, with parallel edges and (for some random graphs) loops.  Each
line of ``golden/checker_outcomes.txt`` reads
``kind seed algorithm branch counter sha256``; the hash covers the
certificate exactly as ``run_instrumented`` returns it (dsu's raw sides,
each cycle's vertex and edge-id order) together with the counter.  A side
is hashed as the text of its list of ints (``[0, 1, ...]``), so that the
hashes do not depend on how a ``Bipartition`` stores its side.

Regenerate the file, after a change that is meant to alter an outcome,
with ``PYTHONPATH=src python tests/test_checker_golden.py >
tests/golden/checker_outcomes.txt``.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from bicert import ALGORITHM_NAMES, GenSpec, generate, run_instrumented
from bicert.cli import main
from bicert.formats import write_dimacs
from bicert.generators import KIND_NAMES

GOLDEN = Path(__file__).parent / "golden" / "checker_outcomes.txt"
SEEDS = range(20)
CORPUS = [(kind, seed) for kind in KIND_NAMES for seed in SEEDS]


def spec(kind: str, seed: int) -> GenSpec:
    n = 10 + (seed * 389) % 1990
    if kind == "random":
        return GenSpec(kind=kind, n=n, m=n * (1 + seed % 4) // 4, seed=seed,
                       allow_multi=seed % 2 == 1, allow_loops=seed % 6 == 5)
    if kind == "forest":
        return GenSpec(kind=kind, n=n, seed=seed)
    left = 1 + (seed * 211) % (n - 1)
    m = n * (1 + seed % 3) // 2
    if kind == "planted_bipartite":
        return GenSpec(kind=kind, n_left=left, n_right=n - left, m=m, seed=seed)
    return GenSpec(kind=kind, n_left=left, n_right=n - left, m=m,
                   cycle_len=3 + 2 * ((seed * 47) % 150), seed=seed)


def outcome_lines(kind: str, seed: int) -> list[str]:
    g = generate(spec(kind, seed))
    lines = []
    for name in ALGORITHM_NAMES:
        outcome, counter = run_instrumented(g, name)
        if outcome.bipartition is not None:
            text = f"{list(outcome.bipartition.side)}"
        else:
            text = f"{outcome.odd_cycle.vertices} {outcome.odd_cycle.edge_ids}"
        digest = hashlib.sha256(f"{text} {counter}".encode()).hexdigest()
        lines.append(f"{kind} {seed} {name} {outcome.branch} {counter} {digest}")
    return lines


def golden() -> dict[tuple[str, int], list[str]]:
    pinned: dict[tuple[str, int], list[str]] = {}
    for line in GOLDEN.read_text().splitlines():
        kind, seed = line.split()[:2]
        pinned.setdefault((kind, int(seed)), []).append(line)
    return pinned


def test_golden_file_covers_the_corpus():
    assert sorted(golden()) == sorted(CORPUS)


def test_corpus_reaches_both_branches_and_loops():
    branches = {line.split()[3] for lines in golden().values() for line in lines}
    assert branches == {"bipartite", "odd_cycle"}
    assert any(generate(spec("random", seed)).first_loop is not None for seed in SEEDS)


@pytest.mark.parametrize("kind, seed", CORPUS)
def test_outcomes_and_counters_match_golden(kind, seed):
    assert outcome_lines(kind, seed) == golden()[(kind, seed)]


# the benchmark's late odd cycle (perfbench odd-late, seed 1): a 301-cycle on
# fresh vertices closes the stream, then one bridge joins it to the base
ODD_LATE = GenSpec(kind="planted_odd_cycle", n_left=40_000, n_right=40_000, m=160_000,
                   cycle_len=301, seed=1)
ODD_LATE_CYCLES = {
    "growth": "60c0b114da9c3866f6a702127392a9716e52f9ba868be9c802a56d97fdbfd1f1",
    "flip": "48785d881d6fc65399ca1e3679c8bc1dd69e1de0c1932754a75c60e79032cb7a",
    "dsu": "48785d881d6fc65399ca1e3679c8bc1dd69e1de0c1932754a75c60e79032cb7a",
    "forest": "ccf765509d033bd14d254f48cc84069101604a672adfc7b941f3cc95c341f204",
}
ODD_LATE_DIMACS_STDOUT = "eefbbb22f6a87e05f2ce341a26c5407cd844719015d36a7af211db8cd974156c"


def test_benchmark_scale_certificates_match_pinned(tmp_path, capsys):
    g = generate(ODD_LATE)
    for name in ALGORITHM_NAMES:
        cycle = run_instrumented(g, name)[0].odd_cycle
        text = f"{cycle.vertices} {cycle.edge_ids}"
        assert hashlib.sha256(text.encode()).hexdigest() == ODD_LATE_CYCLES[name], name
    path = tmp_path / "odd.dimacs"
    path.write_text(write_dimacs(g))
    assert main(["check", str(path), "--format", "dimacs"]) == 1
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == ODD_LATE_DIMACS_STDOUT


if __name__ == "__main__":
    for kind, seed in CORPUS:
        print("\n".join(outcome_lines(kind, seed)))
