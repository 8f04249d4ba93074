"""In-memory span recorder: name, start, end, parent and operation id.

``parent`` is the index of the enclosing span among the spans of the same
operation, or None for a root span.

Spans stay in a list until ``dump`` writes them out, so recording costs two
clock reads and one dict per span.  Only ``time`` is imported here, so a
process can record the import of bicert itself.
"""

import time


class Recorder:
    def __init__(self, op: int = 0):
        self.op = op
        self.spans: list[dict] = []
        self._open: list[int] = []

    def begin(self, name: str) -> dict:
        span = {"name": name, "op": self.op,
                "parent": self._open[-1] if self._open else None,
                "start_ns": time.perf_counter_ns(), "end_ns": None}
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end_ns"] = time.perf_counter_ns()
        self._open.pop()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)
        return traced

    def dump(self, path: str) -> None:
        import json
        with open(path, "w") as f:
            json.dump(self.spans, f)


def duration_ms(span: dict) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e6
