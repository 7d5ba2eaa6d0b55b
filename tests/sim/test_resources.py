"""Unit tests for Link."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.resources import Link


def make_link(sim, latency=100.0, bandwidth=1.0, overhead=10.0):
    return Link(sim, "l", latency_ns=latency, bandwidth_bpns=bandwidth, overhead_ns=overhead)


def test_transfer_time_is_overhead_serialization_latency():
    sim = Simulator()
    link = make_link(sim)

    def prog():
        yield from link.transfer(50)
        return sim.now

    proc = sim.spawn(prog())
    sim.run()
    # 10 overhead + 50 B / 1 B/ns + 100 latency
    assert proc.result == pytest.approx(160.0)


def test_fifo_serialization_under_contention():
    sim = Simulator()
    link = make_link(sim)
    times = {}

    def prog(name, nbytes):
        yield from link.transfer(nbytes)
        times[name] = sim.now

    sim.spawn(prog("a", 100))
    sim.spawn(prog("b", 100))
    sim.run()
    # b's serialization starts only when a's finishes: latencies overlap.
    assert times["a"] == pytest.approx(10 + 100 + 100)
    assert times["b"] == pytest.approx(10 + 100 + 10 + 100 + 100)


def test_post_delivers_on_arrival_and_preserves_order():
    sim = Simulator()
    link = make_link(sim)
    arrivals = []
    link.post(32, on_arrival=lambda: arrivals.append(("first", sim.now)))
    link.post(32, on_arrival=lambda: arrivals.append(("second", sim.now)))
    sim.run()
    assert [name for name, _t in arrivals] == ["first", "second"]
    assert arrivals[0][1] < arrivals[1][1]


def test_extra_overhead_shifts_later_traffic():
    sim = Simulator()
    link = make_link(sim)
    ev1 = link.post(10, extra_overhead_ns=500.0)
    ev2 = link.post(10)
    done = {}
    ev1.on_trigger(lambda _v: done.setdefault(1, sim.now))
    ev2.on_trigger(lambda _v: done.setdefault(2, sim.now))
    sim.run()
    assert done[2] - done[1] == pytest.approx(10 + 10)  # second's serialization


def test_link_counts_bytes():
    sim = Simulator()
    link = make_link(sim)
    link.post(100)
    link.post(28)
    sim.run()
    assert link.bytes_carried == 128
    assert link.transfers == 2


def test_link_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Link(sim, "bad", latency_ns=-1, bandwidth_bpns=1)
    with pytest.raises(ValueError):
        Link(sim, "bad", latency_ns=1, bandwidth_bpns=0)
    link = make_link(sim)
    with pytest.raises(ValueError):
        link.post(-5)

