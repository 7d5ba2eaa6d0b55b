"""Unit tests for Link."""

import pytest
from hypothesis import given, settings, strategies as st

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


def test_unawaited_post_still_runs_its_arrival_callback():
    sim = Simulator()
    link = make_link(sim)
    arrivals = []
    link.post(50, on_arrival=lambda: arrivals.append(sim.now))
    sim.run()
    assert arrivals == [10.0 + 50.0 + 100.0]


_sizes = st.integers(min_value=0, max_value=1 << 20)
_overheads = st.sampled_from([0.0, 0.5, 3.0, 250.0, 1e-3])
_gaps = st.floats(min_value=0.0, max_value=5e4, allow_nan=False, allow_infinity=False)


@given(
    latency=st.floats(min_value=0.0, max_value=1e4),
    bandwidth=st.floats(min_value=0.01, max_value=64.0),
    overhead=st.floats(min_value=0.0, max_value=500.0),
    ops=st.lists(st.tuples(_sizes, _overheads, st.none() | _gaps), min_size=1, max_size=40),
)
@settings(max_examples=80, deadline=None)
def test_occupy_equals_the_closed_form_bitwise(latency, bandwidth, overhead, ops):
    """Arrival times and ``busy_ns`` are exactly ``overhead + extra +
    nbytes / bandwidth`` per transfer, queued FIFO from ``max(at, free)``."""
    sim = Simulator()
    link = Link(sim, "l", latency_ns=latency, bandwidth_bpns=bandwidth, overhead_ns=overhead)
    free_at = 0.0
    busy = 0.0
    for nbytes, extra, gap in ops:
        at = None if gap is None else sim.now + gap
        start = max(sim.now if at is None else at, free_at)
        serialization = overhead + extra + nbytes / bandwidth
        free_at = start + serialization
        busy += serialization
        assert link._occupy(nbytes, extra, at=at) == free_at + latency
        assert link.busy_ns == busy
    assert link.transfers == len(ops)
    assert link.bytes_carried == sum(nbytes for nbytes, _e, _g in ops)
