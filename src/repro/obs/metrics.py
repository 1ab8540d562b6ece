"""A Prometheus-flavoured metrics registry: counters, gauges, histograms.

Metrics are organised as *families* (one per name) holding label-keyed
children, mirroring the Prometheus data model so the text exporter is a
straight rendering.  Everything is thread-safe (the HTTP server's
handler threads increment concurrently) and stdlib-only.

Histogram buckets are **fixed at creation**: each bucket is an inclusive
upper bound (``value <= bound``), a ``+Inf`` bucket is always implied,
and observations also accumulate ``sum`` and ``count`` — exactly the
cumulative-bucket semantics Prometheus scrapes expect.
"""

from __future__ import annotations

import bisect
import re
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

#: Default latency-shaped buckets in seconds (100 µs … 10 s), chosen to
#: resolve the Table IV step durations (sub-millisecond classifications,
#: tens-of-ms identifications) without configuration.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for decreases")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go up and down (pool widths, queue depths)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket distribution with ``sum`` and ``count``."""

    __slots__ = ("_bounds", "_bucket_counts", "_sum", "_count", "_lock")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError("histogram bucket bounds must be distinct")
        self._bounds = bounds
        self._bucket_counts = [0] * (len(bounds) + 1)  # trailing +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self._bounds, value)
        with self._lock:
            self._bucket_counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def bounds(self) -> tuple[float, ...]:
        return self._bounds

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    def bucket_counts(self) -> list[int]:
        """Per-bucket (non-cumulative) counts, ``+Inf`` bucket last."""
        with self._lock:
            return list(self._bucket_counts)

    def cumulative_counts(self) -> list[int]:
        """Cumulative counts per bound plus ``+Inf`` (the scrape form)."""
        counts = self.bucket_counts()
        total = 0
        out = []
        for c in counts:
            total += c
            out.append(total)
        return out


class MetricFamily:
    """All children of one metric name, keyed by their label values."""

    def __init__(self, name: str, kind: str, help: str, factory) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self._factory = factory
        self._children: dict[tuple[tuple[str, str], ...], object] = {}
        self._lock = threading.Lock()

    def labels(self, **labels: str) -> object:
        for key in labels:
            if not _LABEL_RE.match(key):
                raise ValueError(f"invalid label name {key!r}")
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._factory()
            return child

    def children(self) -> list[tuple[tuple[tuple[str, str], ...], object]]:
        """(label key, child) pairs in sorted label order, for export."""
        with self._lock:
            return sorted(self._children.items())


class MetricsRegistry:
    """Name -> family map; the unit the exporters consume.

    ``counter``/``gauge``/``histogram`` create the family on first use
    and return the child for the given labels (the unlabelled child when
    no labels are passed).  Re-registering a name with a different kind
    is an error — one name, one type, as in Prometheus.
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    def _family(self, name: str, kind: str, help: str, factory) -> MetricFamily:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = MetricFamily(name, kind, help, factory)
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}, not {kind}"
                )
            return family

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._family(name, "counter", help, Counter).labels(**labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._family(name, "gauge", help, Gauge).labels(**labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._family(
            name, "histogram", help, lambda: Histogram(buckets)
        ).labels(**labels)

    def families(self) -> list[MetricFamily]:
        """Families in name order (the exporters' iteration order)."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> MetricFamily | None:
        with self._lock:
            return self._families.get(name)
