"""Unit tests for the metrics registry (repro.obs.metrics)."""

from __future__ import annotations

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_key,
    label_keys,
    merge_snapshots,
    parse_key,
    percentile,
)
from repro.sim.engine import Simulator


# -- series keys --------------------------------------------------------------


def test_format_key_sorts_labels():
    assert format_key("pcie.bytes", {"dir": "up", "device": 0}) == (
        "pcie.bytes{device=0,dir=up}"
    )
    assert format_key("sim.events") == "sim.events"
    assert format_key("sim.events", {}) == "sim.events"


def test_parse_key_roundtrip():
    key = format_key("pcie.bytes", {"device": 3, "dir": "down"})
    name, labels = parse_key(key)
    assert name == "pcie.bytes"
    assert labels == {"device": "3", "dir": "down"}
    assert parse_key("plain.name") == ("plain.name", {})


def test_label_keys_adds_labels_without_clobbering():
    snap = {"link.bytes": 10.0, "link.busy_ns{dir=up}": 2.0}
    out = label_keys(snap, device=1, dir="down")
    # A fresh label is added to every key; an existing label wins.
    assert out == {
        "link.bytes{device=1,dir=down}": 10.0,
        "link.busy_ns{device=1,dir=up}": 2.0,
    }


def test_merge_snapshots_sums_identical_series():
    merged = merge_snapshots(
        [{"a": 1.0, "b": 2.0}, {"a": 3.0, "c": 4.0}]
    )
    assert merged == {"a": 4.0, "b": 2.0, "c": 4.0}


# -- instruments --------------------------------------------------------------


def test_counter_and_gauge_respect_enabled_flag():
    reg = MetricsRegistry()
    counter = reg.counter("events")
    gauge = reg.gauge("depth")
    counter.inc()
    gauge.set(5.0)
    assert counter.value == 0.0 and gauge.value == 0.0  # disabled by default
    reg.enabled = True
    counter.inc(2.0)
    gauge.set(5.0)
    gauge.add(-1.0)
    assert counter.value == 2.0
    assert gauge.value == 4.0


def test_same_series_returns_same_instrument():
    reg = MetricsRegistry(enabled=True)
    a = reg.counter("x.bytes", device=0, dir="up")
    b = reg.counter("x.bytes", dir="up", device=0)  # label order irrelevant
    assert a is b
    assert list(reg.snapshot()) == ["x.bytes{device=0,dir=up}"]


def test_series_type_conflict_raises():
    reg = MetricsRegistry(enabled=True)
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")


def test_histogram_exact_percentiles():
    reg = MetricsRegistry(enabled=True)
    hist = reg.histogram("wait_ns")
    for v in [10.0, 20.0, 30.0, 40.0, 50.0]:
        hist.observe(v)
    assert hist.count == 5
    assert hist.percentile(0) == 10.0
    assert hist.percentile(50) == 30.0
    assert hist.percentile(100) == 50.0
    # Linear interpolation between order statistics.
    assert hist.percentile(25) == pytest.approx(20.0)
    assert hist.percentile(90) == pytest.approx(46.0)


def test_histogram_edge_cases():
    reg = MetricsRegistry(enabled=True)
    hist = reg.histogram("h")
    with pytest.raises(ValueError):
        hist.percentile(50)  # no samples
    hist.observe(7.0)
    assert hist.percentile(0) == hist.percentile(100) == 7.0
    with pytest.raises(ValueError):
        hist.percentile(101)


def test_percentile_is_the_histograms_interpolation():
    samples = [float(v) for v in range(10, 101, 10)]
    reg = MetricsRegistry(enabled=True)
    hist = reg.histogram("h")
    for v in reversed(samples):
        hist.observe(v)
    for p in (0, 12.5, 50, 90, 99, 100):
        assert percentile(samples, p) == hist.percentile(p)
    assert percentile(samples, 50) == 55.0
    for p in (-50, 150):
        with pytest.raises(ValueError):
            percentile(samples, p)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_snapshot_expands_histograms():
    reg = MetricsRegistry(enabled=True)
    reg.counter("events", device=0).inc(3)
    hist = reg.histogram("wait", device=0)
    hist.observe(1.0)
    hist.observe(3.0)
    snap = reg.snapshot()
    assert snap["events{device=0}"] == 3.0
    assert snap["wait.count{device=0}"] == 2.0
    assert snap["wait.sum{device=0}"] == 4.0
    assert snap["wait.p50{device=0}"] == pytest.approx(2.0)
    # An empty histogram contributes count/sum but no percentiles.
    reg.histogram("empty")
    snap = reg.snapshot()
    assert snap["empty.count"] == 0.0
    assert "empty.p50" not in snap


# -- simulator scoping --------------------------------------------------------


def test_simulator_owns_an_isolated_registry():
    sim_a, sim_b = Simulator(), Simulator()
    reg_a, reg_b = sim_a.obs, sim_b.obs
    assert isinstance(reg_a, MetricsRegistry)
    assert reg_a is not reg_b
    assert sim_a.obs is reg_a  # stable per simulator
    assert not reg_a.enabled  # off until enabled
    reg_a.enabled = True
    reg_a.counter("only.in.a").inc()
    assert reg_a.snapshot() == {"only.in.a": 1.0}
    assert reg_b.snapshot() == {}
