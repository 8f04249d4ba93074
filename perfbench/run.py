"""Benchmark of `bicert check` and `bicert gen`, run from the root of a checkout.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every timed sample is one whole `bicert check` process, launched from this
process, one at a time (a closed loop with one client), its output saved to
a file and checked afterwards by outcheck.py.  This process imports neither
bicert nor numpy and never reads a report: a child's peak RSS as the kernel
reports it is at least this process's own peak, so it has to stay small.

With --trace 0 the last line of stdout is the JSON result with the
end-to-end metrics; with --trace 1 each sample alternates between a traced
process (traced_check.py) and a plain one, and the result holds the
per-layer metrics from the spans, from the generation spans, and from the
tracemalloc pass in layers.py.  Inputs, outputs and spans go under
.perfbench/ in the checkout; the spans and the result stay there as
.perfbench/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

from spans import duration_ms

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("bipartite-large", "odd-late", "small-cli")
ALGORITHMS = ("growth", "flip", "dsu", "forest")
# what the installed `bicert` console script runs
ENTRY = "import sys; from bicert.cli import main; sys.exit(main())"
# setups per untraced run; setup_s is their median
SETUP_REPEATS = 3
# share of --seconds spent in generation passes; the rest times checks
GEN_SHARE = 0.35
OK_EXITS = (0, 1)


class Spawner:
    """Runs child processes one at a time with stdout and stderr in files."""

    def __init__(self, env: dict):
        self.env = env

    def run(self, argv: list[str], out: Path, err: Path) -> dict:
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
        t0 = time.perf_counter_ns()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env,
                             file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall_ns = time.perf_counter_ns() - t0
        return {"wall_ns": wall_ns, "exit": os.waitstatus_to_exitcode(status),
                "maxrss_kib": usage.ru_maxrss}

    def run_ok(self, argv: list[str], out: Path, err: Path) -> None:
        """Run a helper that must succeed; its failure stops the benchmark."""
        code = self.run(argv, out, err)["exit"]
        if code != 0:
            raise RuntimeError(f"{argv[0]} exited {code}: " + err.read_text()[-2000:])


class Run:
    def __init__(self, args: argparse.Namespace, root: Path):
        self.args = args
        self.work = root / ".perfbench" / (
            f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
        self.work.mkdir(parents=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        self.spawner = Spawner(env)
        self.workload_args = [args.workload, str(args.seed), str(args.scale)]
        self.files: list[dict] = []
        self.records: list[dict] = []
        self.samples: list[dict] = []
        self.gen_spans: list[dict] = []
        self.gen_edges = 0
        self.gen_passes = 0
        self.check_spans: list[dict] = []

    def path(self, name: str) -> Path:
        return self.work / name

    def check_argv(self, f: dict) -> list[str]:
        return ["check", *f["flags"], f["path"]]

    def setup(self) -> float:
        """Write the inputs, then run one untimed warm-up check; seconds."""
        t0 = time.perf_counter()
        inputs = self.path("inputs")
        inputs.mkdir(exist_ok=True)
        made = self.generation(inputs)
        self.files = made["files"]
        warm = self.spawner.run(["-c", ENTRY, *self.check_argv(made["warmup"])],
                                self.path("warmup.out"), self.path("warmup.err"))
        if warm["exit"] not in OK_EXITS:
            raise RuntimeError("warm-up bicert check exited "
                               f"{warm['exit']}: " + self.path("warmup.err").read_text()[-2000:])
        return time.perf_counter() - t0

    def generation(self, outdir: Path | None = None) -> dict:
        """One generation pass over the inputs in its own process; with
        ``outdir``, the files are saved there."""
        result = self.path("gen.json")
        self.spawner.run_ok(
            [str(BENCH_DIR / "inputs.py"), *self.workload_args, str(self.gen_passes),
             str(result), *([str(outdir)] if outdir else [])],
            self.path("gen.out"), self.path("gen.err"))
        made = json.loads(result.read_text())
        self.gen_edges = made["edges"]
        self.gen_spans.extend(made["spans"])
        self.gen_passes += 1
        return made

    def sample(self, i: int, f: dict, traced: bool) -> None:
        out, err = self.path(f"out-{i}.txt"), self.path(f"err-{i}.txt")
        if traced:
            argv = [str(BENCH_DIR / "traced_check.py"), str(self.path(f"spans-{i}.json")),
                    str(i), *self.check_argv(f)]
        else:
            argv = ["-c", ENTRY, *self.check_argv(f)]
        s = self.spawner.run(argv, out, err)
        s.update(op=i, traced=traced, input=Path(f["path"]).name)
        self.samples.append(s)
        if s["exit"] in OK_EXITS:
            self.records.append({"input": f["path"], "format": f["format"],
                                 "output": str(out), "exit": s["exit"],
                                 "json": "--json" in f["flags"]})

    def loop(self, traced: bool) -> None:
        """Closed loop over the files for --seconds; with ``traced``, each
        file is checked by a traced process and then by a plain one.
        Generation passes are interleaved so that they take GEN_SHARE of the
        time, and both metrics sample the same stretch of machine time."""
        start = time.perf_counter()
        gen_s = 0.0
        i = 0
        while True:
            now = time.perf_counter()
            if gen_s <= GEN_SHARE * (now - start):
                self.generation()
                gen_s += time.perf_counter() - now
            f = self.files[(i // 2 if traced else i) % len(self.files)]
            self.sample(i, f, traced and i % 2 == 0)
            i += 1
            done = time.perf_counter() - start >= self.args.seconds
            if done and (not traced or i % 2 == 0):
                return

    def check_outputs(self) -> list[dict]:
        manifest, result = self.path("check.json"), self.path("check-result.json")
        manifest.write_text(json.dumps(self.records))
        self.spawner.run_ok([str(BENCH_DIR / "outcheck.py"), str(manifest), str(result)],
                            self.path("outcheck.out"), self.path("outcheck.err"))
        outcome = json.loads(result.read_text())
        if outcome["checked"] != len(self.records):
            raise RuntimeError("output checker skipped records")
        return outcome["failures"]


def _wall_ms(samples: list[dict]) -> float:
    return statistics.median(s["wall_ns"] for s in samples) / 1e6


def _tail(samples: list[dict]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    walls = sorted(s["wall_ns"] / 1e6 for s in samples)
    text = f"p50={statistics.median(walls):.1f} ms over {len(walls)} samples"
    if len(walls) >= 40:
        pct = int(100 * (1 - 10 / len(walls)))
        text += f", p{pct}={walls[int(len(walls) * pct / 100)]:.1f} ms"
    return text


def end_to_end(run: Run) -> dict:
    setups = [run.setup() for _ in range(SETUP_REPEATS)]
    print(f"setup: median {statistics.median(setups):.3f} s of {SETUP_REPEATS}")
    run.loop(traced=False)
    pass_ms = _per_pass_ms(run.gen_spans, ("generators.generate", "formats.write"))
    rate = statistics.median(run.gen_edges / (ms / 1e3) for ms in pass_ms)
    print(f"generation: {len(pass_ms)} passes of {run.gen_edges} edges")
    print(f"bicert check: {_tail(run.samples)}")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "check_p50_ms": (_wall_ms(run.samples), "ms"),
        "gen_edges_per_s": (rate, "edges/s"),
        "peak_rss_mib": (max(s["maxrss_kib"] for s in run.samples) / 1024, "MiB"),
    }


def _total_ms(spans: list[dict], name: str) -> float:
    return sum(duration_ms(s) for s in spans if s["name"] == name)


def _per_pass_ms(spans: list[dict], names: tuple[str, ...]) -> list[float]:
    """Milliseconds spent in spans called ``names``, per generation pass."""
    totals: dict[int, float] = {}
    for s in spans:
        if s["name"] in names:
            totals[s["op"]] = totals.get(s["op"], 0.0) + duration_ms(s)
    return list(totals.values())


def _op_layers(spans: list[dict]) -> dict:
    """Per-layer milliseconds of one traced check process."""
    layers = {f"checkers.{a}_ms": _total_ms(spans, f"checkers.{a}") for a in ALGORITHMS}
    check = next(i for i, s in enumerate(spans) if s["name"] == "cli.check")
    children = sum(duration_ms(s) for s in spans if s["parent"] == check)
    layers.update({
        "formats.parse_ms": _total_ms(spans, "formats.parse"),
        "graph.build_ms": _total_ms(spans, "graph.build"),
        "certificates.verify_ms": _total_ms(spans, "certificates.verify"),
        # self time of cmd_check: reading the file, building and rendering
        # the four reports, writing them
        "cli.render_ms": duration_ms(spans[check]) - children,
        "cli.import_ms": _total_ms(spans, "cli.import"),
    })
    return layers


def per_layer(run: Run) -> dict:
    run.setup()
    run.loop(traced=True)
    traced = [s for s in run.samples if s["traced"]]
    plain = [s for s in run.samples if not s["traced"]]
    ratio = _wall_ms(traced) / _wall_ms(plain)
    print(f"traced bicert check: {_tail(traced)}; untraced: {_tail(plain)}; "
          f"overhead x{ratio:.4f}")
    op_spans = [json.loads(run.path(f"spans-{s['op']}.json").read_text())
                for s in traced if s["exit"] in OK_EXITS]
    run.check_spans = [span for spans in op_spans for span in spans]
    per_op = [_op_layers(spans) for spans in op_spans]
    metrics = {name: (statistics.median(op[name] for op in per_op), "ms")
               for name in per_op[0]}
    manifest, result = run.path("layers-in.json"), run.path("layers.json")
    manifest.write_text(json.dumps(run.files))
    run.spawner.run_ok([str(BENCH_DIR / "layers.py"), str(manifest), str(result)],
                       run.path("layers.out"), run.path("layers.err"))
    memory = json.loads(result.read_text())
    metrics.update({
        "generators.generate_ms": (statistics.median(
            _per_pass_ms(run.gen_spans, ("generators.generate",))), "ms"),
        "formats.write_ms": (statistics.median(
            _per_pass_ms(run.gen_spans, ("formats.write",))), "ms"),
        "graph.graph_mib": (memory["graph_mib"], "MiB"),
        "checkers.peak_mib": (memory["peak_mib"], "MiB"),
        "trace.overhead_ratio": (ratio, "ratio"),
    })
    for name, count in memory["ops"].items():
        metrics[f"checkers.{name}_ops"] = (count, "count")
    return metrics


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="input size factor; below 1 only for smoke tests")
    return p.parse_args(argv)


def _own_peak_kib() -> int:
    """Peak RSS of this process's own memory, which a spawned child's
    ru_maxrss includes.  Not getrusage: that also holds the peak of
    whatever process this one was exec'd from."""
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "bicert" / "cli.py").is_file():
        print("error: run from the root of a bicert checkout (no src/bicert/cli.py)",
              file=sys.stderr)
        return 2
    run = Run(args, root)
    try:
        metrics = per_layer(run) if args.trace else end_to_end(run)
        failures = run.check_outputs()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    if any(s["maxrss_kib"] <= _own_peak_kib() for s in run.samples):
        raise RuntimeError("this process's own peak RSS reaches a child's; "
                           "peak_rss_mib would count it")
    attempted = len(run.samples)
    failed = sum(s["exit"] not in OK_EXITS for s in run.samples)
    for f in failures:
        print(f"wrong output: {run.records[f['index']]['output']}: {f['problems']}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (root / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"result": result, "samples": run.samples,
                              "spans": run.gen_spans + run.check_spans}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
