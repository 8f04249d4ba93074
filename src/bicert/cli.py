"""Command line entry points: check, gen, bench.

Exit codes: 0 bipartite, 1 odd cycle found, 2 usage, input or parse error,
3 internal failure (a certificate failed or was too malformed for its own
verifier, the algorithms disagreed, or any other unexpected exception: a
bug in bicert).
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import marshal
import os
import re
import signal
import sys
import traceback
from contextlib import contextmanager
from functools import partial
from itertools import chain, compress, count, islice
from operator import not_
from pathlib import Path
from typing import Callable, Iterator

from .certificates import Bipartition, CheckOutcome, OddCycle, verify_outcome
from .checkers import ALGORITHM_NAMES, run_instrumented, run_verified
from .errors import InputError, InternalInvariantError, ParseError
from .formats import dot_runs, parse_dimacs, parse_edge_list, write_dimacs, write_edge_list
from .generators import KIND_NAMES, GenSpec, check_spec, generate
from .graph import ID_TYPECODE, Graph, link_slots

EXIT_BIPARTITE = 0
EXIT_ODD_CYCLE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

_PARSERS = {"edgelist": parse_edge_list, "dimacs": parse_dimacs}
_WRITERS = {"edgelist": write_edge_list, "dimacs": write_dimacs}

# CLI spellings of the generator kinds
_KIND_FLAGS = {kind.replace("_", "-"): kind for kind in KIND_NAMES}

BENCH_CSV_HEADER = (
    "algorithm", "kind", "n", "m", "seed", "rep", "verdict", "elapsed_ns", "ops_counter",
)


# a run of four checkers on at least this many edges splits them over two
# processes; below it the fork costs more than it saves (measured crossover
# on a 2-core machine, whole `check --json` runs on planted-bipartite graphs
# of m/2 vertices: 3 ms lost at 1e3 edges, level at 4e3, 11 ms won at 1.6e4)
_FORK_EDGES = 1 << 14

_Run = tuple[CheckOutcome, int, int]  # outcome, ops counter, wall nanoseconds


def _verified_run(g: Graph, name: str) -> _Run:
    """Run one checker and verify its certificate; time the checker alone."""
    return run_verified(g, name, run_instrumented, verify_outcome)


def _worth_forking(g: Graph, algorithms: tuple[str, ...]) -> bool:
    """Whether splitting ``algorithms`` over two processes can pay."""
    # a loop answers all four checkers in their O(1) pre-pass
    if (len(algorithms) < 2 or g.m < _FORK_EDGES or g.first_loop is not None
            or not hasattr(os, "fork")):
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


# prctl's option that sets the signal a process gets when its parent dies
_PR_SET_PDEATHSIG = 1


def _dies_with(parent: int) -> bool:
    """In the forked worker: have Linux SIGKILL it when ``parent`` dies; False if gone."""
    # elsewhere, or if the request fails, a parent killed by a signal leaves
    # the worker running until its half is done
    if not sys.platform.startswith("linux"):
        return True
    try:
        import ctypes

        prctl = ctypes.CDLL(None).prctl
    except (ImportError, OSError, AttributeError):  # no ctypes, C library or prctl
        return True
    prctl.argtypes = (ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong,
                      ctypes.c_ulong)
    prctl.restype = ctypes.c_int
    if prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0) != 0:
        return True
    # a parent that died before the request took effect sent no signal
    return os.getppid() == parent


def _worker_half(g: Graph, names: tuple[str, ...], pipe: int, parent: int) -> None:
    """In the forked worker of ``parent``: run ``names`` and send the answer; never returns.

    The answer is marshalled: per checker its side, the checker's bytes as
    they are, or its cycle's two lists, its ops counter and nanoseconds; or
    an InternalInvariantError's message; or any other exception's traceback.
    """
    try:
        if not _dies_with(parent):
            return
        try:
            runs = [_verified_run(g, name) for name in names]
            answer = marshal.dumps(("runs", [
                (outcome.bipartition.side if outcome.is_bipartite
                 else (outcome.odd_cycle.vertices, outcome.odd_cycle.edge_ids), ops, elapsed)
                for outcome, ops, elapsed in runs
            ]))
        except InternalInvariantError as exc:
            answer = marshal.dumps(("invariant", str(exc)))
        except Exception:  # sent whole; the parent prints it and exits 3
            answer = marshal.dumps(("error", traceback.format_exc()))
        with os.fdopen(pipe, "wb") as out:
            out.write(answer)
    finally:
        os._exit(0)  # no atexit handlers and no flush of the parent's buffers


def _worker_runs(answer: bytes, status: int) -> list[_Run]:
    """The worker's runs, read back from its ``answer``; its failure raised here."""
    try:
        kind, body = marshal.loads(answer)
    except (EOFError, ValueError):  # nothing, or cut short
        raise InternalInvariantError(
            f"the checker worker ended without an answer (wait status {status},"
            f" exit code {os.waitstatus_to_exitcode(status)})"
        ) from None
    if kind == "invariant":
        raise InternalInvariantError(body)
    if kind == "error":
        sys.stderr.write(body)
        raise InternalInvariantError("the checker worker raised " + body.splitlines()[-1])
    return [
        (CheckOutcome(bipartition=Bipartition(certificate))
         if isinstance(certificate, bytes) else CheckOutcome(odd_cycle=OddCycle(*certificate)),
         ops, elapsed)
        for certificate, ops, elapsed in body
    ]


def _shared_slots(g: Graph) -> tuple | None:
    """Slot lists ``(head, nxt)`` that a fork leaves shared between both processes.

    ``g``'s own adjacency when it has one (a fork shares that as it is);
    else views of one anonymous region, mapped here and not yet linked; or
    None when no region can be mapped.
    """
    if g._adj is not None:
        return g._adj
    import mmap  # here only, so that a check that does not fork never loads it

    try:
        region = mmap.mmap(-1, g.ends.itemsize * (g.n + len(g.ends)))  # MAP_SHARED
    except OSError:
        return None
    slots = memoryview(region).cast(ID_TYPECODE)
    return slots[:g.n], slots[g.n:]


def _adopt(shared: tuple[memoryview, memoryview], ready: int) -> tuple | None:
    """In the worker: ``shared`` once the parent announces its build; None if it never will."""
    announced = os.read(ready, 1)
    os.close(ready)
    return shared if announced else None


def _two_halves(g: Graph, algorithms: tuple[str, ...]) -> list[_Run] | None:
    """``algorithms[0::2]`` here and ``algorithms[1::2]`` in a forked worker.

    The adjacency is built once, here, into slot lists both processes map
    (``_shared_slots``): right after the fork, before its own half, this
    process links them (unless ``g`` had them already), keeps them as
    ``g``'s and writes one byte to a "ready" pipe.  The worker's first
    ``g.adjacency()`` call waits for that byte and adopts the same lists,
    so its checkers may stream the edges meanwhile.

    The worker is reaped before this returns or raises: killed first if
    its answer was not read (this half or the build raised).  On Linux the
    worker is also killed when this process dies by a signal (see
    ``_dies_with``).  bicert starts no threads, so the fork copies a
    process in a consistent state.  None, with nothing run, when no region
    can be mapped, no pipe opened or no process forked.
    """
    parent = os.getpid()
    shared = _shared_slots(g)
    if shared is None:  # no memory to spare: the caller runs them all
        return None
    fds: list[int] = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError:  # no descriptor or process to spare: the caller runs them all
        for fd in fds:
            os.close(fd)
        return None
    read_end, write_end, ready_read, ready_write = fds
    if pid == 0:
        os.close(read_end)
        os.close(ready_write)  # else the parent's close is no end-of-file here
        g._adj_source = partial(_adopt, shared, ready_read)
        _worker_half(g, algorithms[1::2], write_end, parent)
    os.close(write_end)
    os.close(ready_read)
    answer = None
    try:
        with os.fdopen(read_end, "rb") as pipe:
            try:
                if g._adj is None:
                    link_slots(g.ends, *shared)
                    g._adj = shared
                os.write(ready_write, b"\1")
            except BrokenPipeError:  # the worker has ended already
                pass
            finally:
                os.close(ready_write)
            mine = [_verified_run(g, name) for name in algorithms[0::2]]
            answer = pipe.read()
    finally:
        if answer is None:
            os.kill(pid, signal.SIGKILL)
        status = os.waitpid(pid, 0)[1]
    runs: list = [None] * len(algorithms)
    runs[0::2], runs[1::2] = mine, _worker_runs(answer, status)
    return runs


def _certified_runs(g: Graph, algorithms: tuple[str, ...]) -> list[_Run]:
    """Run and verify each checker; the runs must agree (``_agree``).

    Returns, per algorithm, its outcome, ops counter and wall nanoseconds
    around the checker only.  With two or more algorithms, at least
    ``_FORK_EDGES`` edges and more than one CPU to run on, every second
    algorithm runs in a forked worker process while the others run here.
    Raises InternalInvariantError when a certificate fails its verifier,
    is too malformed to verify, or the runs disagree, and when the worker
    fails or ends without an answer.
    """
    runs = _two_halves(g, algorithms) if _worth_forking(g, algorithms) else None
    if runs is None:
        runs = [_verified_run(g, name) for name in algorithms]
    _agree(g, algorithms, runs)
    return runs


def _agree(g: Graph, algorithms: tuple[str, ...], runs: list[_Run]) -> None:
    """Raise InternalInvariantError, naming the values, unless the runs agree.

    Their verdicts must be one.  Where the algorithms involved all ran, two
    facts of their routes must hold as well.  flip and dsu both read the
    edges in id order and stop at the first whose prefix is not bipartite,
    so their cycles end in the same edge id.  On a bipartite verdict (so no
    loop), growth absorbs all n vertices, and dsu's unions, n - c for c
    components, and forest's examined non-tree edges, m - (n - c), add up
    to m.
    """
    if len({outcome.branch for outcome, _, _ in runs}) > 1:
        raise InternalInvariantError(
            "algorithms disagree: " + ", ".join(
                f"{name}={outcome.branch}"
                for name, (outcome, _, _) in zip(algorithms, runs)
            )
        )
    ran = dict(zip(algorithms, runs))
    if not runs[0][0].is_bipartite:
        if "flip" in ran and "dsu" in ran:
            flip, dsu = (ran[name][0].odd_cycle.edge_ids[-1] for name in ("flip", "dsu"))
            if flip != dsu:
                raise InternalInvariantError(
                    f"flip and dsu close their cycles on different edges: flip={flip}, dsu={dsu}")
        return
    if "growth" in ran and ran["growth"][1] != g.n:
        raise InternalInvariantError(
            f"growth absorbed {ran['growth'][1]} of n={g.n} vertices on a bipartite verdict")
    if "dsu" in ran and "forest" in ran:
        unions, examined = ran["dsu"][1], ran["forest"][1]
        if unions + examined != g.m:
            raise InternalInvariantError(
                f"dsu's unions ({unions}) and forest's examined edges ({examined})"
                f" add up to {unions + examined}, not m={g.m}")


# vertex ids joined per write: a side or cycle is written in runs of this
# many, so no run of ``check`` holds a string or list of all n of them
_RUN = 1 << 12

_Write = Callable[[str], object]  # sys.stdout.write, say


def _write_ids(write: _Write, ids: Iterator[int], sep: str) -> None:
    """Write ``sep.join(map(str, ids))``, ``_RUN`` ids at a time."""
    lead = ""
    while run := sep.join(map(str, islice(ids, _RUN))):
        write(lead)
        write(run)
        lead = sep


def _write_json_ids(write: _Write, ids: Iterator[int], pad: str) -> None:
    """Write ``ids`` as ``json.dumps(list(ids), indent=2)`` would at the level ``pad``."""
    first = next(ids, None)
    if first is None:
        write("[]")
        return
    inner = pad + "  "
    write("[" + inner)
    _write_ids(write, chain((first,), ids), "," + inner)
    write(pad + "]")


def _certificate_ids(outcome: CheckOutcome) -> list[tuple[str, Iterator[int]]]:
    """The report's vertex lists, each read lazily off the certificate."""
    if outcome.bipartition is None:
        return [("cycle", iter(outcome.odd_cycle.vertices))]
    side = outcome.bipartition.side
    return [("side0", compress(count(), map(not_, side))), ("side1", compress(count(), side))]


def _write_text(write: _Write, g: Graph, algorithm: str, outcome: CheckOutcome,
                elapsed: int, timing: bool) -> None:
    """One checker's answer on one graph, as the text report."""
    write(f"algorithm={algorithm} verdict={outcome.branch} n={g.n} m={g.m}\n")
    for label, ids in _certificate_ids(outcome):
        write(f"  {label}: ")
        _write_ids(write, ids, " ")
        write("\n")
    if timing:
        write(f"  elapsed_ns: {elapsed}\n")


def _write_json(write: _Write, g: Graph, algorithm: str, outcome: CheckOutcome,
                elapsed: int, timing: bool) -> None:
    """One checker's answer on one graph, as an item of the ``--json`` list.

    The bytes are those ``json.dumps(reports, indent=2)`` gives the report
    dict: ``algorithm``, ``verdict``, ``n``, ``m``, then ``sides`` (with
    ``side0`` and ``side1``) or ``cycle``, then ``elapsed_ns`` if ``timing``.
    """
    write(f'{{\n    "algorithm": {json.dumps(algorithm)},'
          f'\n    "verdict": {json.dumps(outcome.branch)},'
          f'\n    "n": {g.n},\n    "m": {g.m},\n    ')
    if outcome.bipartition is None:
        write('"cycle": ')
        _write_json_ids(write, iter(outcome.odd_cycle.vertices), "\n    ")
    else:
        write('"sides": {')
        lead = "\n      "
        for label, ids in _certificate_ids(outcome):
            write(f'{lead}"{label}": ')
            _write_json_ids(write, ids, "\n      ")
            lead = ",\n      "
        write("\n    }")
    if timing:
        write(f',\n    "elapsed_ns": {elapsed}')
    write("\n  }")


@contextmanager
def _reader_may_leave():
    """Write stdout inside this block; a reader that has gone is not an error.

    A reader that closes the pipe early (``bicert check ... | head``) does
    not make the input bad, so the command's own exit code stands.  stdout
    is pointed at os.devnull so that the flush at exit stays quiet.
    """
    try:
        yield
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def cmd_check(args: argparse.Namespace) -> int:
    try:
        text = Path(args.file).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{args.file} is not UTF-8 text: {exc}") from None
    g = _PARSERS[args.format](text)
    del text  # freed before the checkers run: they and the reports read only g
    algos = ALGORITHM_NAMES if args.algo == "all" else (args.algo,)
    runs = _certified_runs(g, algos)
    first = runs[0][0]
    if args.dot:
        with open(args.dot, "w") as out:
            out.writelines(dot_runs(g, first))
    write = sys.stdout.write
    with _reader_may_leave():
        if args.json:  # the bytes of print(json.dumps(reports, indent=2))
            opening = "[\n  "
            for name, (outcome, _, elapsed) in zip(algos, runs):
                write(opening)
                _write_json(write, g, name, outcome, elapsed, args.timing)
                opening = ",\n  "
            write("\n]\n")
        else:
            for name, (outcome, _, elapsed) in zip(algos, runs):
                _write_text(write, g, name, outcome, elapsed, args.timing)
    return EXIT_BIPARTITE if first.is_bipartite else EXIT_ODD_CYCLE


def cmd_gen(args: argparse.Namespace) -> int:
    spec = GenSpec(
        kind=_KIND_FLAGS[args.kind],
        n=args.n,
        n_left=args.left,
        n_right=args.right,
        m=args.m,
        p=args.p,
        cycle_len=args.cycle_len,
        allow_loops=args.loops,
        allow_multi=args.multi,
        seed=args.seed,
    )
    g = generate(spec)
    with _reader_may_leave():
        sys.stdout.write(_WRITERS[args.format](g))
    return EXIT_BIPARTITE


def _bench_spec(kind: str, n: int, m: int, seed: int, cycle_len: int) -> GenSpec:
    if kind == "random":
        return GenSpec(kind="random", n=n, m=m, seed=seed)
    if kind == "planted_bipartite":
        return GenSpec(kind="planted_bipartite", n_left=n // 2,
                       n_right=n - n // 2, m=m, seed=seed)
    if kind == "planted_odd_cycle":
        base = n - cycle_len
        if base < 0:
            raise InputError(
                f"size n={n} is smaller than cycle_len={cycle_len}"
            )
        return GenSpec(kind="planted_odd_cycle", n_left=base // 2,
                       n_right=base - base // 2, m=m, cycle_len=cycle_len,
                       seed=seed)
    return GenSpec(kind="forest", n=n, seed=seed)


def cmd_bench(args: argparse.Namespace) -> int:
    if args.repeat < 1:
        raise InputError(f"--repeat must be at least 1, got {args.repeat}")
    sizes: list[tuple[int, int]] = []
    for token in args.sizes:
        parts = token.split(",")
        if len(parts) != 2:
            raise InputError(f"size {token!r} must look like 'n,m'")
        try:
            n, m = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"size {token!r} must be two integers") from None
        for name, value in (("n", n), ("m", m)):
            if value < 0:
                raise InputError(f"size {token!r}: {name} must be non-negative, got {value}")
        sizes.append((n, m))

    rows: list[tuple] = []  # one per BENCH_CSV_HEADER line
    writer = csv.writer(sys.stdout, lineterminator="\n")

    def emit_and_exit(code: int) -> int:
        rows.sort(key=lambda row: row[:6])
        with _reader_may_leave():
            writer.writerow(BENCH_CSV_HEADER)
            writer.writerows(rows)
        return code

    # every cell is checked before the first is built, so a bad one costs no
    # run; one whose spec an earlier cell has would emit its rows twice
    cells = [(kind, n, m, seed, _bench_spec(kind, n, m, seed, args.cycle_len))
             for kind in map(_KIND_FLAGS.get, args.kinds)
             for n, m in sizes for seed in args.seeds]
    specs = set()
    for kind, n, m, seed, spec in cells:
        check_spec(spec)
        if spec in specs:
            raise InputError(f"cell kind={kind} n={n} m={m} seed={seed} builds the graph"
                             " of an earlier cell (--repeat times a cell again)")
        specs.add(spec)
    for kind, _, _, seed, spec in cells:
        g = generate(spec)
        for rep in range(args.repeat):
            try:
                runs = _certified_runs(g, ALGORITHM_NAMES)
            except InternalInvariantError as exc:
                print(f"internal error: {exc} on kind={kind}"
                      f" n={g.n} m={g.m} seed={seed}", file=sys.stderr)
                return emit_and_exit(EXIT_INTERNAL)
            for algorithm, (outcome, ops, elapsed) in zip(ALGORITHM_NAMES, runs):
                rows.append((algorithm, kind, g.n, g.m, seed,
                             rep, outcome.branch, elapsed, ops))
    return emit_and_exit(EXIT_BIPARTITE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicert",
        description="Certifying bipartiteness checks with verifiable output.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="check a graph file")
    p_check.add_argument("file")
    p_check.add_argument("--format", choices=sorted(_PARSERS), default="edgelist")
    p_check.add_argument("--algo", choices=[*ALGORITHM_NAMES, "all"], default="all")
    p_check.add_argument("--json", action="store_true",
                         help="emit a JSON report instead of text")
    p_check.add_argument("--timing", action="store_true",
                         help="include elapsed_ns (off by default; it breaks"
                              " byte-for-byte reproducibility)")
    p_check.add_argument("--dot", metavar="PATH",
                         help="also write a DOT rendering of the certificate")
    p_check.set_defaults(func=cmd_check)

    p_gen = sub.add_parser("gen", help="generate a seeded graph")
    p_gen.add_argument("--kind", choices=sorted(_KIND_FLAGS), required=True)
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--left", type=int)
    p_gen.add_argument("--right", type=int)
    p_gen.add_argument("--m", type=int)
    p_gen.add_argument("--p", type=float)
    p_gen.add_argument("--cycle-len", type=int, dest="cycle_len")
    p_gen.add_argument("--loops", action="store_true")
    p_gen.add_argument("--multi", action="store_true")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--format", choices=sorted(_WRITERS), default="edgelist")
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="time all four checkers")
    # a token that opens with "-" and a digit is a value, not an option, so
    # that a size cell such as -3,2 reaches the size check (Python 3.13's
    # argparse reads it so; earlier ones take only -3 and -1.5 as values)
    p_bench._negative_number_matcher = re.compile(r"-\.?\d")
    p_bench.add_argument("--kinds", nargs="+", choices=sorted(_KIND_FLAGS),
                         required=True)
    p_bench.add_argument("--sizes", nargs="+", required=True,
                         metavar="N,M", help="size cells, e.g. 100,200")
    p_bench.add_argument("--seeds", nargs="+", type=int, required=True)
    p_bench.add_argument("--repeat", type=int, default=1)
    p_bench.add_argument("--cycle-len", type=int, default=3, dest="cycle_len",
                         help="cycle length for planted-odd-cycle cells")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code.

    The cyclic garbage collector is off meanwhile: graphs, certificates and
    reports hold no reference cycles, so reference counting frees them,
    and each collection would only traverse the growing graph again.  The
    caller's collector state is restored on return.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _dispatch(argv)
    finally:
        if collecting:
            gc.enable()


def _dispatch(argv: list[str] | None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # a bug in bicert; exits 0 and 1 are verdicts
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
