"""Hierarchical spans with an injectable monotonic clock.

A :class:`Tracer` hands out :class:`Span` context managers; nesting is
tracked per thread, so a span opened while another is active records it
as its parent, and spans opened on other threads (the HTTP server's
handler threads, say) start fresh trees.

The clock is injected (default :func:`time.perf_counter`) for two
reasons: tests substitute a fake clock for fully deterministic span
trees, and the wall-clock read stays *inside this module* — instrumented
code in ``repro.core``/``repro.ml`` never touches ``time`` itself, which
keeps sentinel-lint SL002 (no wall clock in deterministic packages)
clean without suppressions.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from types import MappingProxyType

__all__ = ["SpanRecord", "Span", "Tracer"]


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: immutable, ready for export."""

    name: str
    span_id: int
    parent_id: int | None
    start: float
    duration: float
    attributes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """A JSON-serializable representation (used by the JSONL exporter)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpanRecord":
        return cls(
            name=data["name"],
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            start=data["start"],
            duration=data["duration"],
            attributes=dict(data.get("attributes") or {}),
        )


class Span:
    """An in-flight span; use as a context manager.

    Attributes set via :meth:`set` (or the ``span(...)`` keyword
    arguments) land on the finished :class:`SpanRecord`.  A span that
    exits through an exception is still recorded, with an ``error``
    attribute naming the exception type — failed operations are the ones
    an operator most wants to see in a trace.
    """

    __slots__ = ("name", "_tracer", "_attributes", "_span_id", "_parent_id", "_start")

    def __init__(self, tracer: "Tracer", name: str, attributes: dict) -> None:
        self.name = name
        self._tracer = tracer
        self._attributes = attributes
        self._span_id: int | None = None
        self._parent_id: int | None = None
        self._start: float | None = None

    def set(self, **attributes) -> "Span":
        """Attach attributes to the span; returns self for chaining."""
        self._attributes.update(attributes)
        return self

    def __enter__(self) -> "Span":
        self._span_id, self._parent_id = self._tracer._enter()
        self._start = self._tracer._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = self._tracer._clock()
        if exc_type is not None:
            self._attributes.setdefault("error", exc_type.__name__)
        self._tracer._exit(
            SpanRecord(
                name=self.name,
                span_id=self._span_id,
                parent_id=self._parent_id,
                start=self._start,
                duration=end - self._start,
                attributes=self._attributes,
            )
        )
        return False


class Tracer:
    """Collects finished spans; thread-safe; clock injectable.

    Parameters
    ----------
    clock:
        A zero-argument callable returning monotonically non-decreasing
        floats (seconds).  Defaults to :func:`time.perf_counter`; tests
        pass a fake for deterministic durations.
    on_finish:
        Optional callback invoked with each finished :class:`SpanRecord`
        (the recording provider uses it to feed duration histograms).
    max_records:
        When set, keep only the most recent ``max_records`` finished
        spans (a ring buffer).  Long-running processes — the HTTP serving
        tier foremost — would otherwise grow the record list without
        bound; metrics histograms already aggregate the full history.
        Default None preserves the collect-everything behaviour the
        offline experiment harnesses rely on.
    """

    def __init__(
        self,
        *,
        clock: Callable[[], float] = time.perf_counter,
        on_finish: Callable[[SpanRecord], None] | None = None,
        max_records: int | None = None,
    ) -> None:
        if max_records is not None and max_records < 1:
            raise ValueError(f"max_records must be >= 1, got {max_records}")
        self._clock = clock
        self._on_finish = on_finish
        self._lock = threading.Lock()
        self._records: deque[SpanRecord] | list[SpanRecord] = (
            [] if max_records is None else deque(maxlen=max_records)
        )
        self.max_records = max_records
        self._next_id = 1
        self._active = threading.local()

    def span(self, name: str, **attributes) -> Span:
        """A new span; open it with ``with`` (or via :func:`repro.obs.traced`)."""
        return Span(self, name, attributes)

    # --- bookkeeping (called by Span) ---------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._active, "stack", None)
        if stack is None:
            stack = self._active.stack = []
        return stack

    def _enter(self) -> tuple[int, int | None]:
        stack = self._stack()
        parent_id = stack[-1] if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack.append(span_id)
        return span_id, parent_id

    def _exit(self, record: SpanRecord) -> None:
        stack = self._stack()
        if stack and stack[-1] == record.span_id:
            stack.pop()
        with self._lock:
            self._records.append(record)
        if self._on_finish is not None:
            self._on_finish(record)

    # --- reading ------------------------------------------------------------

    def records(self) -> list[SpanRecord]:
        """Finished spans in completion order (children before parents)."""
        with self._lock:
            return list(self._records)

    def records_named(self, name: str) -> list[SpanRecord]:
        return [r for r in self.records() if r.name == name]

    def durations(self, name: str) -> list[float]:
        """Durations (seconds) of every finished span with this name."""
        return [r.duration for r in self.records_named(name)]

    def children_of(self, span_id: int) -> list[SpanRecord]:
        return [r for r in self.records() if r.parent_id == span_id]

    def clear(self) -> None:
        with self._lock:
            self._records.clear()


def index_by_id(records: Iterable[SpanRecord]) -> MappingProxyType:
    """Read-only ``span_id -> record`` index over an export batch."""
    return MappingProxyType({r.span_id: r for r in records})
