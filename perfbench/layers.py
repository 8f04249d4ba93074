"""Memory and work counts of the graph and checkers layers, in one process.

Usage: python3 layers.py MANIFEST RESULT

For every input file in MANIFEST, a JSON list of {"path", "format"}: parse
it, take the tracemalloc size of one ``build_graph`` result, then run each
checker through ``run_instrumented`` under tracemalloc, keeping its peak and
its ops counter.  This pass is kept apart from the timed runs because tracemalloc
slows every allocation.  RESULT receives the largest graph and checker
sizes over the files and each checker's ops summed over them.
"""

from __future__ import annotations

import json
import sys
import tracemalloc
from pathlib import Path

from bicert.checkers import ALGORITHM_NAMES, run_instrumented
from bicert.formats import parse_dimacs, parse_edge_list
from bicert.graph import build_graph

PARSERS = {"edgelist": parse_edge_list, "dimacs": parse_dimacs}
MIB = 2**20


def measure(files: list[dict]) -> dict:
    graph_mib = 0.0
    peak_mib = 0.0
    ops = dict.fromkeys(ALGORITHM_NAMES, 0)
    for f in files:
        g = PARSERS[f["format"]](Path(f["path"]).read_text())
        tracemalloc.start()
        try:
            built = build_graph(g.n, g.pairs)
            graph_mib = max(graph_mib, tracemalloc.get_traced_memory()[0] / MIB)
            del built
            for name in ALGORITHM_NAMES:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                _, count = run_instrumented(g, name)
                peak_mib = max(peak_mib, (tracemalloc.get_traced_memory()[1] - base) / MIB)
                ops[name] += count
        finally:
            tracemalloc.stop()
    return {"graph_mib": graph_mib, "peak_mib": peak_mib, "ops": ops}


def main(argv: list[str]) -> int:
    manifest, result = argv
    with open(manifest) as f:
        files = json.load(f)
    with open(result, "w") as f:
        json.dump(measure(files), f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
