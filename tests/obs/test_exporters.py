"""Exporter golden outputs: JSONL traces, Prometheus text, snapshots."""

import math

import pytest

from repro.obs.exporters import (
    metrics_snapshot,
    registry_to_prometheus,
    render_trace_tree,
    trace_from_jsonl,
    trace_to_jsonl,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecord

ROOT = SpanRecord(
    name="identify", span_id=1, parent_id=None, start=10.0, duration=0.004,
    attributes={"label": "Aria"},
)
CHILD = SpanRecord(
    name="identify.classify", span_id=2, parent_id=1, start=10.001,
    duration=0.002, attributes={},
)
ORPHAN = SpanRecord(
    name="train.type", span_id=9, parent_id=99, start=10.002,
    duration=0.001, attributes={},
)


class TestJsonl:
    def test_golden_line(self):
        assert trace_to_jsonl([CHILD]) == (
            '{"attributes":{},"duration":0.002,"name":"identify.classify",'
            '"parent_id":1,"span_id":2,"start":10.001}\n'
        )

    def test_roundtrip(self):
        text = trace_to_jsonl([CHILD, ROOT, ORPHAN])
        assert trace_from_jsonl(text) == [CHILD, ROOT, ORPHAN]

    def test_empty_input_is_empty_output(self):
        assert trace_to_jsonl([]) == ""
        assert trace_from_jsonl("") == []

    def test_blank_lines_skipped(self):
        text = "\n" + trace_to_jsonl([ROOT]) + "\n\n"
        assert trace_from_jsonl(text) == [ROOT]

    def test_bad_line_reports_its_number(self):
        text = trace_to_jsonl([ROOT]) + "not json\n"
        with pytest.raises(ValueError, match="bad trace line 2"):
            trace_from_jsonl(text)

    def test_missing_field_reports_its_number(self):
        with pytest.raises(ValueError, match="bad trace line 1"):
            trace_from_jsonl('{"span_id": 1}\n')


class TestRenderTraceTree:
    def test_tree_indentation_and_attributes(self):
        out = render_trace_tree([CHILD, ROOT])
        assert out.splitlines() == [
            "identify  4.000 ms  [label=Aria]",
            "  identify.classify  2.000 ms",
        ]

    def test_orphans_render_as_roots(self):
        out = render_trace_tree([CHILD, ROOT, ORPHAN])
        lines = out.splitlines()
        assert lines[0].startswith("identify ")
        assert lines[-1] == "train.type  1.000 ms"

    def test_siblings_sorted_by_start(self):
        later = SpanRecord(
            name="b", span_id=3, parent_id=None, start=20.0, duration=0.001
        )
        earlier = SpanRecord(
            name="a", span_id=4, parent_id=None, start=5.0, duration=0.001
        )
        lines = render_trace_tree([later, earlier]).splitlines()
        assert lines[0].startswith("a ") and lines[1].startswith("b ")

    def test_empty(self):
        assert render_trace_tree([]) == ""


class TestPrometheus:
    def test_counter_and_gauge_golden(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", help="Hits.", mode="setup").inc(3)
        registry.counter("hits_total", mode="standby").inc()
        registry.gauge("pool_workers").set(4)
        assert registry_to_prometheus(registry) == (
            "# HELP hits_total Hits.\n"
            "# TYPE hits_total counter\n"
            'hits_total{mode="setup"} 3\n'
            'hits_total{mode="standby"} 1\n'
            "# TYPE pool_workers gauge\n"
            "pool_workers 4\n"
        )

    def test_histogram_golden(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat_seconds", buckets=(0.5, 1.0), span="identify")
        h.observe(0.5)
        h.observe(0.75)
        h.observe(2.0)
        assert registry_to_prometheus(registry) == (
            "# TYPE lat_seconds histogram\n"
            'lat_seconds_bucket{span="identify",le="0.5"} 1\n'
            'lat_seconds_bucket{span="identify",le="1"} 2\n'
            'lat_seconds_bucket{span="identify",le="+Inf"} 3\n'
            'lat_seconds_sum{span="identify"} 3.25\n'
            'lat_seconds_count{span="identify"} 3\n'
        )

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("odd_total", label='a"b\\c\nd').inc()
        out = registry_to_prometheus(registry)
        assert 'label="a\\"b\\\\c\\nd"' in out

    def test_empty_registry(self):
        assert registry_to_prometheus(MetricsRegistry()) == ""

    def test_valid_scrape_shape(self):
        # Every non-comment line: <name>[{labels}] <value>
        registry = MetricsRegistry()
        registry.counter("a_total").inc()
        registry.histogram("b_seconds", buckets=(1.0,)).observe(0.5)
        for line in registry_to_prometheus(registry).splitlines():
            if line.startswith("#"):
                continue
            name_part, value = line.rsplit(" ", 1)
            assert name_part
            float(value)  # must parse


class TestSnapshot:
    def test_counter_and_histogram_shape(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", mode="setup").inc(2)
        registry.histogram("lat_seconds", buckets=(1.0,)).observe(0.25)
        snap = metrics_snapshot(registry)
        assert snap["hits_total"] == {
            "kind": "counter",
            "samples": [{"labels": {"mode": "setup"}, "value": 2.0}],
        }
        (sample,) = snap["lat_seconds"]["samples"]
        assert sample["count"] == 1
        assert sample["sum"] == pytest.approx(0.25)
        assert sample["buckets"] == {1.0: 1, math.inf: 1}

    def test_empty_registry_snapshot(self):
        assert metrics_snapshot(MetricsRegistry()) == {}
