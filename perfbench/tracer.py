"""In-memory spans for the traced run.

A span records one call into a layer, timed from outside around the call:
name, start, end, the span that was open when it began, and the op it
belongs to. Spans stay in memory and are written out when the run ends.
Untraced code paths use ``NULL``, whose spans cost one ``nullcontext``.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter
from contextlib import contextmanager, nullcontext


class Tracer:
    active = True

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.failed: Counter = Counter()  # calls that raised, per layer
        self.op = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "op": self.op, **attrs}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
            rec["ok"] = True
        except Exception:
            rec["ok"] = False
            self.failed[name.split(".", 1)[0]] += 1
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def durations_ms(self, name: str) -> list[float]:
        """Wall times of the spans called ``name`` that did not raise."""
        return [(s["end"] - s["start"]) * 1e3
                for s in self.spans if s["name"] == name and s.get("ok")]

    def self_ms(self) -> dict[str, float]:
        """Median self time per span name: a span minus its children."""
        child = Counter()
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        by_name: dict[str, list[float]] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child[s["id"]]
            by_name.setdefault(s["name"], []).append(own * 1e3)
        return {k: statistics.median(v) for k, v in sorted(by_name.items())}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                row = dict(s)
                row["start"] = (s["start"] - self.t0) * 1e3
                row["end"] = (s["end"] - self.t0) * 1e3
                fh.write(json.dumps(row) + "\n")


class _NullTracer:
    active = False
    op = None

    @staticmethod
    def span(name: str, **attrs):
        return nullcontext()


NULL = _NullTracer()
