"""In-memory span recorder for the end-to-end benchmark.

Spans are recorded by the benchmark around its calls into each layer's
public functions, never inside the program.  Each span carries a name,
start and end (``time.perf_counter`` seconds), the index of its parent
span and a request id that children inherit.  Everything stays in memory
until :meth:`Tracer.dump` writes it as JSON at the end of a run.

With tracing off, :meth:`Tracer.span` costs one branch and returns a shared
no-op context manager, so the untraced run executes the same code.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional


class _NullSpan:
    """Context manager that records nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL = _NullSpan()


class _Span:
    __slots__ = ("_tracer", "_record")

    def __init__(self, tracer: "Tracer", record: list) -> None:
        self._tracer = tracer
        self._record = record

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(self._record)
        self._record[1] = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._record[2] = time.perf_counter()
        self._tracer._stack.pop()


class Tracer:
    """Records nested spans; ``Tracer(False)`` records nothing.

    A span record is ``[name, start, end, parent, rid, items]``: ``parent``
    is the index of the enclosing span (-1 for a root), ``rid`` the request
    id (inherited from the parent when not given), and ``items`` the number
    of work items the span processed (segments, frames, windows, ...).
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[list] = []
        self._stack: List[int] = []

    def span(self, name: str, rid: Optional[int] = None, items: int = 0):
        """Context manager timing one call into a layer."""
        if not self.enabled:
            return _NULL
        parent = self._stack[-1] if self._stack else -1
        if rid is None and parent >= 0:
            rid = self.spans[parent][4]
        return _Span(self, [name, 0.0, 0.0, parent, rid, items])

    def self_times(self) -> List[float]:
        """Per-span duration minus the durations of its direct children.

        Children of one parent never overlap (the recorder is single
        threaded), so this is the part of the span no child covers.
        """
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Aggregate spans by name: calls, items, busy and self seconds."""
        out: Dict[str, Dict[str, float]] = {}
        for (name, start, end, _, _, items), own in zip(self.spans, self.self_times()):
            row = out.setdefault(
                name, {"calls": 0, "items": 0, "busy_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["items"] += items
            row["busy_s"] += end - start
            row["self_s"] += own
        for row in out.values():
            row["us_per_item"] = (
                row["busy_s"] / row["items"] * 1e6 if row["items"] else 0.0
            )
        return out

    def dump(self, path: Path, meta: Dict[str, object]) -> None:
        """Write spans (times relative to the first span) and layer totals."""
        origin = self.spans[0][1] if self.spans else 0.0
        doc = {
            "meta": meta,
            "layers": self.layers(),
            "spans": [
                {
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    "rid": rid,
                    "items": items,
                }
                for name, start, end, parent, rid, items in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))
