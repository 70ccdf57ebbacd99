"""Tests for the metrics registry (counters, gauges, histograms, merge)."""

import pytest

from repro.obs.hist import LatencyHistogram
from repro.obs.metrics import MetricsRegistry


def test_counter_accumulates_and_rejects_negative():
    reg = MetricsRegistry()
    counter = reg.counter("requests", node=0)
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_instruments_memoized_by_name_and_labels():
    reg = MetricsRegistry()
    assert reg.counter("c", node=0) is reg.counter("c", node=0)
    assert reg.counter("c", node=0) is not reg.counter("c", node=1)
    assert reg.gauge("g") is reg.gauge("g")
    assert reg.histogram("h") is reg.histogram("h")


def test_gauge_last_write_wins():
    reg = MetricsRegistry()
    gauge = reg.gauge("threshold", oid=1)
    gauge.set(2.0)
    gauge.set(5.0)
    assert gauge.value == 5.0


def test_histogram_buckets_and_moments():
    reg = MetricsRegistry()
    hist = reg.histogram("lat")
    assert isinstance(hist, LatencyHistogram)
    for value in (5.0, 50.0, 500.0):
        hist.record(value)
    assert hist.count == 3
    assert hist.sum_ticks / 1024 == 555.0
    assert hist.min == 5.0
    assert hist.max == 500.0
    assert hist.mean == pytest.approx(185.0)
    # three values three binades apart land in three distinct buckets
    assert sorted(hist.buckets.values()) == [1, 1, 1]
    assert hist.quantile(0.5) == pytest.approx(50.0, rel=1 / 64)


def test_counter_value_and_total_helpers():
    reg = MetricsRegistry()
    reg.counter("msgs", category="diff").inc(3)
    reg.counter("msgs", category="lock_grant").inc(2)
    assert reg.counter_value("msgs", category="diff") == 3
    assert reg.counter_value("msgs", category="absent") == 0
    assert reg.counter_total("msgs") == 5


def test_snapshot_is_sorted_and_json_friendly():
    import json

    reg = MetricsRegistry()
    reg.counter("b").inc()
    reg.counter("a", node=1).inc()
    reg.counter("a", node=0).inc()
    reg.gauge("g").set(1.5)
    reg.histogram("h").record(42.0)
    snap = reg.snapshot()
    names = [(c["name"], tuple(sorted(c["labels"].items())))
             for c in snap["counters"]]
    assert names == sorted(names)
    json.dumps(snap)  # round-trippable without default= hooks
    entry = snap["histograms"][0]
    assert entry == {
        "name": "h", "labels": {}, **reg.histogram("h").to_dict()
    }


def test_merge_adds_counters_and_histograms():
    a = MetricsRegistry()
    b = MetricsRegistry()
    a.counter("c", node=0).inc(2)
    b.counter("c", node=0).inc(3)
    b.counter("c", node=1).inc(1)
    a.histogram("h").record(10.0)
    b.histogram("h").record(1000.0)
    a.gauge("g").set(1.0)
    b.gauge("g").set(2.0)
    a.merge(b)
    assert a.counter_value("c", node=0) == 5
    assert a.counter_value("c", node=1) == 1
    hist = a.histogram("h")
    assert hist.count == 2
    assert hist.sum_ticks / 1024 == 1010.0
    assert hist.min == 10.0
    assert hist.max == 1000.0
    assert a.gauge("g").value == 2.0  # last write wins


def test_merge_accepts_snapshot_and_round_trips():
    reg = MetricsRegistry()
    reg.counter("c", node=0).inc(7)
    reg.histogram("h", node=0).record(123.0)
    reg.gauge("g").set(9.0)
    wire = reg.snapshot()

    total = MetricsRegistry()
    total.merge(wire)
    total.merge(wire)
    assert total.counter_value("c", node=0) == 14
    assert total.histogram("h", node=0).count == 2

    rebuilt = MetricsRegistry.from_snapshot(wire)
    assert rebuilt.snapshot() == wire


def test_empty_registry_snapshot():
    reg = MetricsRegistry()
    assert reg.snapshot() == {"counters": [], "gauges": [], "histograms": []}
    assert len(reg) == 0
