"""In-memory span recorder for the traced benchmark run.

The recorder wraps public entry points of the program's layers *where
their callers look them up*: a method on its class (every caller goes
through the instance), or a function on the module whose global namespace
its callers resolve it in (``repro.bitmap.wah.encode_groups`` is reached
from ``wah.compress`` by a global lookup, so rebinding the module
attribute catches it).  Each call becomes one span: name, wall start,
wall end, parent span and the request id shared by one request's spans.

Spans are kept in compact arrays while the run goes and written out
once, when it ends (:meth:`SpanRecorder.export`).  A layer's self time
is its span's duration minus the time its direct children cover; the
recorder runs in one thread, so children nest strictly inside parents.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["SpanRecorder", "SpanTable"]


class SpanTable:
    """Per-span durations and self times, with per-name aggregates."""

    def __init__(self, names: List[str], name_id, start, end, parent, tag):
        self.names = names
        self.name_id = np.asarray(name_id, dtype=np.int64)
        self.tag = np.asarray(tag, dtype=np.int64)
        self.duration = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
        parent = np.asarray(parent, dtype=np.int64)
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent],
            weights=self.duration[has_parent],
            minlength=self.duration.size,
        )
        self.self_time = self.duration - child_time[: self.duration.size]

    def _mask(self, name: str, tag: Optional[int] = None) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.duration.size, dtype=bool)
        m = self.name_id == self.names.index(name)
        if tag is not None:
            m &= self.tag == tag
        return m

    def busy(self, name: str, tag: Optional[int] = None) -> float:
        """Total wall seconds inside spans of ``name``."""
        return float(self.duration[self._mask(name, tag)].sum())

    def self_s(self, name: str, tag: Optional[int] = None) -> float:
        """Total wall seconds inside ``name`` not covered by child spans."""
        return float(self.self_time[self._mask(name, tag)].sum())


class SpanRecorder:
    """Wraps layer entry points and records one span per call."""

    def __init__(self) -> None:
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._name_id = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._request = array("q")
        self._tag = array("i")
        self._stack: List[int] = []
        self._wrapped: List[Tuple[object, str, object]] = []
        #: Id of the request in flight (-1 outside requests); set by the
        #: workload loop, copied onto every span opened meanwhile.
        self.request_id = -1

    # ---------------------------------------------------------------- wrap
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        tag_of: Optional[Callable[..., int]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``tag_of(*args, **kwargs)`` may return a small integer stored on
        the span (the strategy of a query, for example)."""
        original = getattr(owner, attr)
        nid = self._name_ids.setdefault(name, len(self._names))
        if nid == len(self._names):
            self._names.append(name)
        rec = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = len(rec._start)
            rec._name_id.append(nid)
            rec._parent.append(rec._stack[-1] if rec._stack else -1)
            rec._request.append(rec.request_id)
            rec._tag.append(tag_of(*args, **kwargs) if tag_of is not None else -1)
            rec._end.append(0.0)
            rec._stack.append(idx)
            rec._start.append(time.perf_counter())
            try:
                return original(*args, **kwargs)
            finally:
                rec._end[idx] = time.perf_counter()
                rec._stack.pop()

        setattr(owner, attr, traced)
        self._wrapped.append((owner, attr, original))

    def unwrap(self) -> None:
        """Restore every wrapped attribute (in reverse wrap order)."""
        while self._wrapped:
            owner, attr, original = self._wrapped.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- output
    def mark(self) -> int:
        """Index of the next span (to slice one phase's spans)."""
        return len(self._start)

    def table(self, lo: int = 0) -> SpanTable:
        """Spans from index ``lo`` on as a :class:`SpanTable`; parents
        recorded before ``lo`` are treated as roots."""
        parent = np.asarray(self._parent[lo:], dtype=np.int64) - lo
        parent[parent < 0] = -1
        return SpanTable(
            list(self._names),
            self._name_id[lo:],
            self._start[lo:],
            self._end[lo:],
            parent,
            self._tag[lo:],
        )

    def export(self, path: str, meta: Dict[str, object]) -> None:
        """Write every span as one columnar JSON document (times in
        integer microseconds from the first span)."""
        t0 = self._start[0] if len(self._start) else 0.0
        start = np.rint((np.asarray(self._start) - t0) * 1e6).astype(np.int64)
        end = np.rint((np.asarray(self._end) - t0) * 1e6).astype(np.int64)
        doc = {
            "meta": meta,
            "names": self._names,
            "columns": ["name", "start_us", "end_us", "parent", "request", "tag"],
            "name": list(self._name_id),
            "start_us": start.tolist(),
            "end_us": end.tolist(),
            "parent": list(self._parent),
            "request": list(self._request),
            "tag": list(self._tag),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
