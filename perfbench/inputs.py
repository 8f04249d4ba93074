"""Generate one workload's inputs with bicert's public generators, once.

Usage: python3 inputs.py WORKLOAD SEED SCALE OP RESULT [OUTDIR]

Runs ``generate`` plus ``write_edge_list`` or ``write_dimacs`` once over
every input of the workload, the work ``bicert gen`` does, with a span
around each call tagged with operation id OP.  With OUTDIR it also saves
the files there, plus a tiny warm-up file.  RESULT receives each file's
path, format, the ``bicert check`` flags it is run with, n and m, the edge
count and the spans.  The same arguments give the same files.

One pass per process, as ``bicert gen`` runs: in one process, later passes
over a large graph ran up to 40% slower than the first, so repeated passes
would time the process's age.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from spans import Recorder

from bicert.formats import write_dimacs, write_edge_list
from bicert.generators import GenSpec, generate

LARGE_EDGES = 160_000
ODD_CYCLE_LEN = 301
SMALL_FILES = 240
SMALL_KINDS = ("random", "planted_bipartite", "planted_odd_cycle", "forest")
# the warm-up file: the workload's first file at a few dozen edges
WARMUP_SCALE = 0.0004
WRITERS = {"edgelist": write_edge_list, "dimacs": write_dimacs}


def _small_spec(kind: str, rng: random.Random) -> GenSpec:
    n = rng.randint(20, 300)
    seed = rng.getrandbits(64)
    if kind == "random":
        return GenSpec(kind=kind, n=n, m=rng.randint(n // 2, 2 * n), seed=seed)
    if kind == "planted_bipartite":
        return GenSpec(kind=kind, n_left=n // 2, n_right=n - n // 2,
                       m=rng.randint(n, 3 * n), seed=seed)
    if kind == "planted_odd_cycle":
        cycle_len = 2 * rng.randint(1, min(15, (n - 4) // 2)) + 1
        base = n - cycle_len
        return GenSpec(kind=kind, n_left=base // 2, n_right=base - base // 2,
                       m=rng.randint(base, 2 * base), cycle_len=cycle_len, seed=seed)
    return GenSpec(kind="forest", n=n, seed=seed)


def workload_files(workload: str, seed: int, scale: float):
    """(file name, format, check flags, GenSpec) for each input file."""
    m = max(16, round(LARGE_EDGES * scale))
    if workload == "bipartite-large":
        spec = GenSpec(kind="planted_bipartite", n_left=m // 4, n_right=m // 4,
                       m=m, seed=seed % 2**64)
        return [("bipartite.txt", "edgelist", ["--json"], spec)]
    if workload == "odd-late":
        spec = GenSpec(kind="planted_odd_cycle", n_left=m // 4, n_right=m // 4,
                       m=m, cycle_len=ODD_CYCLE_LEN, seed=seed % 2**64)
        return [("odd.dimacs", "dimacs", ["--format", "dimacs"], spec)]
    if workload == "small-cli":
        rng = random.Random(seed)
        count = max(len(SMALL_KINDS), round(SMALL_FILES * scale))
        return [(f"small-{i:03d}.txt", "edgelist", [],
                 _small_spec(SMALL_KINDS[i % len(SMALL_KINDS)], rng))
                for i in range(count)]
    raise ValueError(f"unknown workload {workload!r}")


def one_pass(specs: list, op: int, outdir: Path | None) -> dict:
    rec = Recorder(op)
    files = []
    for name, fmt, flags, spec in specs:
        span = rec.begin("generators.generate")
        g = generate(spec)
        rec.end(span)
        span = rec.begin("formats.write")
        text = WRITERS[fmt](g)
        rec.end(span)
        path = None
        if outdir is not None:
            path = outdir / name
            path.write_text(text)
        files.append({"path": path and str(path), "format": fmt, "flags": flags,
                      "n": g.n, "m": g.m})
    return {"files": files, "edges": sum(f["m"] for f in files), "spans": rec.spans}


def main(argv: list[str]) -> int:
    workload, seed, scale, op, result, *outdir = argv
    made = one_pass(workload_files(workload, int(seed), float(scale)), int(op),
                    Path(outdir[0]) if outdir else None)
    if outdir:
        name, fmt, flags, spec = workload_files(workload, int(seed), WARMUP_SCALE)[0]
        warmup = one_pass([("warmup-" + name, fmt, flags, spec)], -1, Path(outdir[0]))
        made["warmup"] = warmup["files"][0]
    with open(result, "w") as f:
        json.dump(made, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
