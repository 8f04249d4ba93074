"""`bicert check` with spans around the calls into each module.

Usage: python3 traced_check.py SPANS OP check [check arguments...]

Behaves as the installed ``bicert`` script (same output, same exit code)
and records, in memory, a span for the import of ``bicert.cli`` and for each
call ``cmd_check`` makes into formats (parse), graph (build, inside the
parser), checkers (``run_instrumented``, with its ops counter) and
certificates (``verify_outcome``).  The spans are written to SPANS at exit.
Nothing under ``src/`` is changed: the wrappers replace the names the cli
module looks up, in this process only.
"""

import sys

from spans import Recorder


def main() -> int:
    spans_path, op, *argv = sys.argv[1:]
    rec = Recorder(int(op))
    root = rec.begin("bicert.check")
    span = rec.begin("cli.import")
    import bicert.cli as cli
    import bicert.formats as formats
    rec.end(span)

    run_instrumented = cli.run_instrumented

    def traced_run(g, algorithm):
        span = rec.begin(f"checkers.{algorithm}")
        try:
            outcome, ops = run_instrumented(g, algorithm)
        finally:
            rec.end(span)
        span["ops"] = ops
        return outcome, ops

    cli.run_instrumented = traced_run
    cli.verify_outcome = rec.wrap("certificates.verify", cli.verify_outcome)
    cli.cmd_check = rec.wrap("cli.check", cli.cmd_check)
    formats.build_graph = rec.wrap("graph.build", formats.build_graph)
    for fmt, parse in list(cli._PARSERS.items()):
        cli._PARSERS[fmt] = rec.wrap("formats.parse", parse)
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        rec.end(root)
        rec.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
