"""In-memory spans recorded by the benchmark around calls into the engine.

A span is ``{id, name, trace, parent, start, end, **counts}``. Spans opened
inside another span share its trace id; a root span starts a new trace. The
spans stay in memory and are written as JSON once, when the run ends. A
disabled tracer records nothing and costs one branch per call.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._traces = 0

    @contextmanager
    def span(self, name: str, **counts):
        """Record one span; the yielded dict takes counts known only after
        the call (e.g. ``s["bytes_out"] = ...``)."""
        if not self.enabled:
            yield {}
            return
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._traces += 1
        s = {"id": len(self.spans), "name": name,
             "trace": parent["trace"] if parent else self._traces,
             "parent": parent["id"] if parent else None,
             "start": time.perf_counter(), "end": None, **counts}
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s["end"] = time.perf_counter()
            self._stack.pop()

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name and s["end"] is not None]

    def total_s(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name))

    def self_times_ms(self) -> dict[str, float]:
        """Per span name: summed duration minus the part of each span's
        interval that its child spans cover."""
        children = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                children[s["parent"]].append((s["start"], s["end"]))
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s["end"] is None:
                continue
            covered, reach = 0.0, s["start"]
            for a, b in sorted(children.get(s["id"], [])):
                a, b = max(a, reach), min(b, s["end"])
                if b > a:
                    covered += b - a
                    reach = b
            out[s["name"]] += (s["end"] - s["start"] - covered) * 1e3
        return {k: round(v, 3) for k, v in sorted(out.items())}

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "self_ms": self.self_times_ms()}, f)
