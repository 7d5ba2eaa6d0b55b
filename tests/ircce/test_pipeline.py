"""Unit tests for the pipelined protocol."""

import numpy as np
import pytest

from repro.apps.pingpong import run_pingpong
from repro.rcce.api import RcceOptions
from repro.rcce.session import RcceSession


def make_session(packet=None):
    return RcceSession(options=RcceOptions(pipelined=True, pipeline_packet=packet))


def test_data_integrity_across_packets():
    session = make_session()
    size = 50000
    payload = (np.arange(size) % 251).astype(np.uint8)
    got = {}

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(payload, 1)
        elif comm.rank == 1:
            got["data"] = yield from comm.recv(size, 0)

    session.run(program, ranks=[0, 1])
    assert (got["data"] == payload).all()


def test_pipelined_faster_than_default_for_large_messages():
    slow = run_pingpong(RcceSession(), 0, 10, sizes=[65536], iterations=3)[0]
    fast = run_pingpong(make_session(), 0, 10, sizes=[65536], iterations=3)[0]
    assert fast.throughput_mbps > slow.throughput_mbps * 1.2


def test_small_messages_not_pipelined():
    """Below the 4 kB threshold both configurations behave identically."""
    a = run_pingpong(RcceSession(), 0, 10, sizes=[2048], iterations=3)[0]
    b = run_pingpong(make_session(), 0, 10, sizes=[2048], iterations=3)[0]
    assert a.oneway_ns == pytest.approx(b.oneway_ns)


def test_packet_size_validation():
    from repro.ircce import PipelinedTransport

    with pytest.raises(ValueError):
        PipelinedTransport(packet_bytes=100)  # not line-multiple
    with pytest.raises(ValueError):
        PipelinedTransport(packet_bytes=0)


def test_oversized_packet_rejected_at_use():
    session = make_session(packet=7680)  # two packets cannot fit

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(b"\x01" * 8192, 1)
        else:
            yield from comm.recv(8192, 0)

    with pytest.raises(Exception):
        session.run(program, ranks=[0, 1])


def test_oversized_packet_rejected_before_any_message():
    """Two 4096 B packets overflow the 7680 B buffer: the session fails
    when its communicators are built, not at the first message large
    enough to be pipelined."""
    session = make_session(packet=4096)
    done = []

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(b"\x01" * 100, 1)
            yield from comm.send(b"\x01" * 8192, 1)
        else:
            yield from comm.recv(100, 0)
            done.append(100)
            yield from comm.recv(8192, 0)

    with pytest.raises(ValueError, match="two packets"):
        session.run(program, ranks=[0, 1])
    assert done == []
    assert session.sim.now == 0


def test_alternating_directions_keep_counters_in_sync():
    session = make_session()
    size = 30000
    payload = (np.arange(size) % 251).astype(np.uint8)
    ok = {}

    def program(comm):
        peer = 1 - comm.rank
        for round_ in range(3):
            if comm.rank == 0:
                yield from comm.send(payload, peer)
                data = yield from comm.recv(size, peer)
            else:
                data = yield from comm.recv(size, peer)
                yield from comm.send(data, peer)
        if comm.rank == 0:
            ok["match"] = bool((data == payload).all())

    session.run(program, ranks=[0, 1])
    assert ok["match"]
