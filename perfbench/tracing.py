"""Spans around the calls into each layer, and per-layer metrics from them.

The wrappers live here, not in ``src/``: :meth:`Tracer.install` swaps
each boundary method on its class for a timing wrapper and
:meth:`Tracer.uninstall` puts the original back, so an untraced run
executes exactly the production code.  A span is the tuple
``(id, parent id, layer, method, start ns, end ns, attrs)``; the parent
is the innermost open span of the same thread.  Spans stay in memory
until the run ends.

A layer's self time is its spans' durations minus the part their child
spans cover.  Children of one span run one after another on its thread,
so their durations add up without overlap.  The HTTP server runs in
another process; its ``ServiceApp.handle`` spans become children of the
client request that sent them, matched by gateway id, path and time
(``perf_counter_ns`` reads the system-wide monotonic clock on Linux).
"""

from __future__ import annotations

import bisect
import itertools
import json
import statistics
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

from repro.core.identifier import DeviceIdentifier
from repro.core.persistence import ModelStore
from repro.gateway.gateway import SecurityGateway
from repro.gateway.monitor import DeviceMonitor
from repro.gateway.sentinel_module import SentinelModule
from repro.sdn.controller import Controller
from repro.sdn.switch import OpenVSwitch
from repro.securityservice.http.app import ServiceApp
from repro.securityservice.http.client import HttpTransport
from repro.securityservice.resilience import ResilientTransport
from repro.securityservice.service import IoTSecurityService
from repro.securityservice.sharding import ShardedSecurityService

#: Report-carrying request paths (``requests_per_report``).
REPORT_PATHS = ("/v1/report", "/v1/reports")


def _count_switch(counts, args, result) -> None:
    counts["sdn.switch.frames"] += 1
    counts["sdn.switch.punted"] += result.sent_to_controller


def _count_report(counts, args, result) -> None:
    counts["http.reports"] += 1


def _count_report_batch(counts, args, result) -> None:
    counts["http.reports"] += len(args[1])


def _count_requests(counts, args, result) -> None:
    counts["http.report_requests"] += args[2] in REPORT_PATHS


def _count_sharded(counts, args, result) -> None:
    counts["sharding.reports"] += len(args[1])


def _count_bank(counts, args, result) -> None:
    counts["bank.ids"] += len(result)
    counts["bank.candidates"] += sum(len(c) for c in result)


def _request_attrs(args) -> tuple:
    return (args[0].gateway_id, args[2])


def _handle_attrs(args) -> tuple:
    return (args[3].get("X-Gateway-Id"), args[2].split("?", 1)[0])


@dataclass(frozen=True)
class Boundary:
    layer: str
    owner: type
    method: str
    count: object = None  # (counts, args, result) -> None
    attrs: object = None  # args -> tuple recorded on the span


#: Every boundary call the benchmark times, grouped by layer.
BOUNDARIES = (
    Boundary("sdn.switch", OpenVSwitch, "process_frame", count=_count_switch),
    Boundary("sdn.controller", Controller, "handle_packet_in"),
    Boundary("gateway.sentinel", SentinelModule, "on_packet_in"),
    Boundary("gateway.monitor", DeviceMonitor, "observe"),
    Boundary("gateway.monitor", DeviceMonitor, "flush"),
    Boundary("gateway.profiling", SecurityGateway, "finish_profiling"),
    Boundary("gateway.profiling", SentinelModule, "process_batch"),
    Boundary("gateway.profiling", SentinelModule, "complete_profiling"),
    Boundary("securityservice.resilience", ResilientTransport, "submit"),
    Boundary("securityservice.http.client", HttpTransport, "submit", count=_count_report),
    Boundary(
        "securityservice.http.client", HttpTransport, "submit_many", count=_count_report_batch
    ),
    Boundary(
        "securityservice.http.client",
        HttpTransport,
        "request_json",
        count=_count_requests,
        attrs=_request_attrs,
    ),
    Boundary("securityservice.http.app", ServiceApp, "handle", attrs=_handle_attrs),
    Boundary(
        "securityservice.sharding", ShardedSecurityService, "handle_reports", count=_count_sharded
    ),
    Boundary("securityservice.service", IoTSecurityService, "handle_report"),
    Boundary("securityservice.service", IoTSecurityService, "handle_reports"),
    Boundary("ml.bank", DeviceIdentifier, "classify_batch", count=_count_bank),
    Boundary("core.discriminate", DeviceIdentifier, "discriminate"),
    # The service's train/enroll_type are the boundary; the identifier's
    # fit/add_type also catch the sharded front and ModelStore warm starts,
    # which train without going through IoTSecurityService.
    Boundary("ml.train", IoTSecurityService, "train"),
    Boundary("ml.train", IoTSecurityService, "enroll_type"),
    Boundary("ml.train", DeviceIdentifier, "fit"),
    Boundary("ml.train", DeviceIdentifier, "add_type"),
    Boundary("core.store", ModelStore, "save"),
    Boundary("core.store", ModelStore, "load"),
)

LAYERS = tuple(dict.fromkeys(b.layer for b in BOUNDARIES))


class Tracer:
    """Records spans while installed; accumulates the traced wall time."""

    def __init__(self, id_base: int = 0) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.traced_ns = 0
        self._ids = itertools.count(id_base + 1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._originals: list[tuple[type, str, object]] = []
        self._since = 0

    def install(self) -> None:
        if self._originals:
            return
        for boundary in BOUNDARIES:
            original = boundary.owner.__dict__[boundary.method]
            self._originals.append((boundary.owner, boundary.method, original))
            setattr(boundary.owner, boundary.method, self._wrap(boundary, original))
        self._since = time.perf_counter_ns()

    def uninstall(self) -> None:
        if not self._originals:
            return
        self.traced_ns += time.perf_counter_ns() - self._since
        for owner, method, original in reversed(self._originals):
            setattr(owner, method, original)
        self._originals = []

    def _wrap(self, boundary: Boundary, fn):
        spans, local, lock, ids = self.spans, self._local, self._lock, self._ids
        counts, count, attrs = self.counts, boundary.count, boundary.attrs
        layer, name = boundary.layer, f"{boundary.owner.__name__}.{boundary.method}"
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    (sid, parent, layer, name, start, end, attrs(args) if attrs else None)
                )
            if count is not None:
                with lock:
                    count(counts, args, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def dump(self, path) -> None:
        write_spans(path, self.spans, self.counts, self.traced_ns)


def write_spans(path, spans: list[tuple], counts: Counter, traced_ns: int) -> None:
    """JSON lines: a header with the counts, then one span per line."""
    with open(path, "w") as handle:
        handle.write(json.dumps({"counts": dict(counts), "traced_ns": traced_ns}))
        handle.write("\n")
        for span in spans:
            handle.write(json.dumps(span))
            handle.write("\n")


def load_spans(path) -> tuple[list[tuple], Counter]:
    with open(path) as handle:
        header = json.loads(handle.readline())
        spans = [tuple(json.loads(line)) for line in handle]
    return [(*s[:6], tuple(s[6]) if s[6] else None) for s in spans], Counter(header["counts"])


def link_remote(client: list[tuple], server: list[tuple]) -> list[tuple]:
    """Re-parent server ``ServiceApp.handle`` spans under their client request."""
    requests: dict[tuple, list[tuple]] = defaultdict(list)
    for span in client:
        if span[3] == "HttpTransport.request_json":
            requests[span[6]].append((span[4], span[5], span[0]))
    starts = {}
    for key, items in requests.items():
        items.sort()
        starts[key] = [item[0] for item in items]
    linked = []
    for span in server:
        parent = span[1]
        if span[3] == "ServiceApp.handle" and span[6] in requests:
            items = requests[span[6]]
            i = bisect.bisect_right(starts[span[6]], span[4]) - 1
            if i >= 0 and items[i][1] >= span[5]:
                parent = items[i][2]
        linked.append((span[0], parent, *span[2:]))
    return linked


def layer_metrics(spans: list[tuple], counts: Counter, traced_s: float) -> dict[str, float]:
    """The per-layer metrics: calls, self_s, share, p50_us and the ratios."""
    by_id = {span[0]: span for span in spans}
    covered: Counter = Counter()
    children: Counter = Counter()  # (parent layer, child layer) -> spans
    for span in spans:
        parent = by_id.get(span[1])
        if parent is not None:
            covered[parent[0]] += span[5] - span[4]
            children[(parent[2], span[2])] += 1
    self_ns: Counter = Counter()
    outer: dict[str, list[int]] = defaultdict(list)
    for span in spans:
        self_ns[span[2]] += span[5] - span[4] - covered[span[0]]
        parent = by_id.get(span[1])
        if parent is None or parent[2] != span[2]:
            outer[span[2]].append(span[5] - span[4])
    out: dict[str, float] = {}
    for layer in LAYERS:
        self_s = self_ns[layer] / 1e9
        durations = outer.get(layer, [])
        out[f"{layer}.calls"] = float(len(durations))
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.share"] = self_s / traced_s if traced_s > 0 else 0.0
        out[f"{layer}.p50_us"] = statistics.median(durations) / 1e3 if durations else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    calls = {layer: out[f"{layer}.calls"] for layer in LAYERS}
    frames = counts["sdn.switch.frames"]
    out["sdn.switch.hit_share"] = ratio(frames - counts["sdn.switch.punted"], frames)
    out["securityservice.resilience.attempts_per_submit"] = ratio(
        children[("securityservice.resilience", "securityservice.http.client")],
        calls["securityservice.resilience"],
    )
    out["securityservice.http.client.requests_per_report"] = ratio(
        counts["http.report_requests"], counts["http.reports"]
    )
    out["securityservice.sharding.reports_per_shard_call"] = ratio(
        counts["sharding.reports"],
        children[("securityservice.sharding", "securityservice.service")],
    )
    out["ml.bank.candidates_per_id"] = ratio(counts["bank.candidates"], counts["bank.ids"])
    out["core.discriminate.share_of_ids"] = ratio(
        calls["core.discriminate"], counts["bank.ids"]
    )
    return out


#: Extra ratio metrics (beyond the four per layer), with their units.
RATIO_UNITS = {
    "sdn.switch.hit_share": ("share", "higher"),
    "securityservice.resilience.attempts_per_submit": ("attempts/submit", "lower"),
    "securityservice.http.client.requests_per_report": ("requests/report", "lower"),
    "securityservice.sharding.reports_per_shard_call": ("reports/call", "higher"),
    "ml.bank.candidates_per_id": ("candidates/id", "lower"),
    "core.discriminate.share_of_ids": ("share", "lower"),
}
