"""Independent checker for `bicert check` output.

Shares no code with bicert: it parses the input file itself, parses the
report (JSON or text), checks every certificate against the file's edges,
checks the exit code against the verdict, and compares the verdict with a
separate computation, the connected components of the bipartite double
cover (u-v', u'-v) from scipy.  G is bipartite iff no vertex shares a
component with its own copy.

Usage: python3 outcheck.py MANIFEST RESULT
MANIFEST is a JSON list of {"input", "format", "output", "exit", "json"};
RESULT receives {"checked": k, "failures": [{"index", "problems"}]}.
"""

from __future__ import annotations

import json
import sys

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

ALGORITHMS = ("growth", "flip", "dsu", "forest")
EXIT_FOR_VERDICT = {"bipartite": 0, "odd_cycle": 1}


class InputGraph:
    """Vertex count and endpoint arrays, as read from the input file."""

    def __init__(self, n: int, pairs: list[tuple[int, int]]):
        self.n = n
        arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        self.u = arr[:, 0]
        self.v = arr[:, 1]
        lo = np.minimum(self.u, self.v)
        hi = np.maximum(self.u, self.v)
        self._keys = np.unique(lo * max(n, 1) + hi)

    @property
    def m(self) -> int:
        return len(self.u)

    def has_edges(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise: is {a[i], b[i]} an edge (or loop, when a == b)?"""
        if len(self._keys) == 0:
            return np.zeros(len(a), dtype=bool)
        keys = np.minimum(a, b) * max(self.n, 1) + np.maximum(a, b)
        pos = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        return self._keys[pos] == keys


def read_edge_list(text: str) -> InputGraph:
    declared = None
    first = True
    pairs = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if first and tokens[0] == "n":
            declared = int(tokens[1])
        else:
            pairs.append((int(tokens[0]), int(tokens[1])))
        first = False
    if declared is None:
        declared = 1 + max((max(p) for p in pairs), default=-1)
    return InputGraph(declared, pairs)


def read_dimacs(text: str) -> InputGraph:
    n = 0
    pairs = []
    for raw in text.splitlines():
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        if tokens[0] == "p":
            n = int(tokens[2])
        elif tokens[0] == "e":
            pairs.append((int(tokens[1]) - 1, int(tokens[2]) - 1))
    return InputGraph(n, pairs)


READERS = {"edgelist": read_edge_list, "dimacs": read_dimacs}


def read_input(path: str, fmt: str) -> InputGraph:
    with open(path, encoding="utf-8") as f:
        return READERS[fmt](f.read())


def double_cover_bipartite(g: InputGraph) -> bool:
    """Verdict from the components of the double cover, computed by scipy."""
    n = g.n
    if n == 0 or g.m == 0:
        return True
    rows = np.concatenate([g.u, g.u + n])
    cols = np.concatenate([g.v + n, g.v])
    cover = coo_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)),
                       shape=(2 * n, 2 * n))
    _, labels = connected_components(cover, directed=False)
    return not bool(np.any(labels[:n] == labels[n:]))


def _ints(text: str) -> list[int]:
    return [int(t) for t in text.split()]


def parse_text_report(text: str) -> list[dict]:
    reports: list[dict] = []
    for line in text.splitlines():
        if line.startswith("algorithm="):
            fields = dict(tok.split("=", 1) for tok in line.split())
            reports.append({"algorithm": fields["algorithm"],
                            "verdict": fields["verdict"],
                            "n": int(fields["n"]), "m": int(fields["m"])})
            continue
        key, _, rest = line.strip().partition(":")
        if key in ("side0", "side1"):
            reports[-1].setdefault("sides", {})[key] = _ints(rest)
        elif key == "cycle":
            reports[-1]["cycle"] = _ints(rest)
        elif line.strip():
            raise ValueError(f"unexpected report line {line[:60]!r}")
    return reports


def parse_report(text: str, as_json: bool) -> list[dict]:
    return json.loads(text) if as_json else parse_text_report(text)


def _bipartition_problems(g: InputGraph, sides: dict) -> list[str]:
    side0 = np.array(sides.get("side0", []), dtype=np.int64)
    side1 = np.array(sides.get("side1", []), dtype=np.int64)
    both = np.concatenate([side0, side1])
    if len(both) != g.n or not np.array_equal(np.sort(both), np.arange(g.n)):
        return ["sides do not partition 0..n-1"]
    side = np.zeros(g.n, dtype=np.int8)
    side[side1] = 1
    bad = int(np.count_nonzero(side[g.u] == side[g.v]))
    return [f"{bad} edges do not cross the sides"] if bad else []


def _cycle_problems(g: InputGraph, cycle: list[int]) -> list[str]:
    k = len(cycle)
    if k % 2 == 0:
        return [f"cycle has even length {k}"]
    verts = np.array(cycle, dtype=np.int64)
    if np.any((verts < 0) | (verts >= g.n)):
        return ["cycle vertex out of range"]
    if len(np.unique(verts)) != k:
        return ["cycle repeats a vertex"]
    missing = int(np.count_nonzero(~g.has_edges(verts, np.roll(verts, -1))))
    return [f"{missing} consecutive cycle pairs are not edges"] if missing else []


def check_report(g: InputGraph, reports: list[dict], exit_code: int,
                 bipartite: bool) -> list[str]:
    """Every reason the report, its exit code or its verdict is wrong."""
    problems: list[str] = []
    if sorted(r.get("algorithm") for r in reports) != sorted(ALGORITHMS):
        problems.append("report does not hold one answer per algorithm")
    verdicts = {r.get("verdict") for r in reports}
    if len(verdicts) != 1 or not verdicts <= set(EXIT_FOR_VERDICT):
        return problems + [f"verdicts {sorted(map(str, verdicts))} are not one known verdict"]
    (verdict,) = verdicts
    if exit_code != EXIT_FOR_VERDICT[verdict]:
        problems.append(f"exit code {exit_code} does not match verdict {verdict}")
    if (verdict == "bipartite") != bipartite:
        problems.append(f"verdict {verdict} disagrees with the double cover")
    for r in reports:
        name = r.get("algorithm")
        if (r.get("n"), r.get("m")) != (g.n, g.m):
            problems.append(f"{name}: n, m do not match the file")
        if verdict == "bipartite":
            found = _bipartition_problems(g, r.get("sides", {}))
        else:
            found = _cycle_problems(g, r.get("cycle", []))
        problems.extend(f"{name}: {p}" for p in found)
    return problems


def check_records(records: list[dict]) -> list[dict]:
    """Check each run's saved output; inputs and verdicts are read once."""
    graphs: dict[str, tuple[InputGraph, bool]] = {}
    failures = []
    for i, rec in enumerate(records):
        if rec["input"] not in graphs:
            g = read_input(rec["input"], rec["format"])
            graphs[rec["input"]] = (g, double_cover_bipartite(g))
        g, bipartite = graphs[rec["input"]]
        try:
            with open(rec["output"], encoding="utf-8") as f:
                reports = parse_report(f.read(), rec["json"])
            problems = check_report(g, reports, rec["exit"], bipartite)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            problems = [f"unreadable report: {exc!r}"]
        if problems:
            failures.append({"index": i, "problems": problems})
    return failures


def main(argv: list[str]) -> int:
    manifest, result = argv
    with open(manifest) as f:
        records = json.load(f)
    failures = check_records(records)
    with open(result, "w") as f:
        json.dump({"checked": len(records), "failures": failures}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
