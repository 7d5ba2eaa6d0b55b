"""Unit tests for the Rcce communicator (on-chip)."""

import numpy as np
import pytest

from repro.rcce.api import Rcce, RcceOptions
from repro.rcce.session import RcceSession


def test_send_recv_roundtrip(session):
    payload = (np.arange(1000) % 251).astype(np.uint8)
    got = {}

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(payload, 5)
        elif comm.rank == 5:
            got["data"] = yield from comm.recv(1000, 0)

    session.run(program, ranks=[0, 5])
    assert (got["data"] == payload).all()


def test_multi_chunk_message(session):
    """Messages beyond the MPB payload split into chunks."""
    size = 20000  # > 2 chunks of 7680
    payload = (np.arange(size) % 251).astype(np.uint8)
    got = {}

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(payload, 1)
        elif comm.rank == 1:
            got["data"] = yield from comm.recv(size, 0)

    session.run(program, ranks=[0, 1])
    assert (got["data"] == payload).all()


def test_zero_byte_message(session):
    done = {}

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(b"", 1)
        elif comm.rank == 1:
            data = yield from comm.recv(0, 1 - 1)
            done["len"] = len(data)

    session.run(program, ranks=[0, 1])
    assert done["len"] == 0


def test_send_accepts_float_arrays(session):
    values = np.linspace(0, 1, 100)
    got = {}

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(values, 1)
        elif comm.rank == 1:
            raw = yield from comm.recv(values.nbytes, 0)
            got["values"] = raw.view(np.float64)

    session.run(program, ranks=[0, 1])
    assert np.array_equal(got["values"], values)


def test_self_send_rejected(session):
    def program(comm):
        yield from comm.send(b"x", comm.rank)

    with pytest.raises(Exception):
        session.run(program, ranks=[0])


def test_messages_between_pairs_are_ordered(session):
    got = []

    def program(comm):
        if comm.rank == 0:
            for i in range(5):
                yield from comm.send(bytes([i]), 1)
        elif comm.rank == 1:
            for i in range(5):
                data = yield from comm.recv(1, 0)
                got.append(data[0])

    session.run(program, ranks=[0, 1])
    assert got == [0, 1, 2, 3, 4]


def test_bidirectional_concurrent_pairs(session):
    """Two rank pairs communicating simultaneously don't interfere."""
    got = {}

    def program(comm):
        peers = {0: 1, 1: 0, 2: 3, 3: 2}
        peer = peers[comm.rank]
        payload = bytes([comm.rank]) * 100
        if comm.rank % 2 == 0:
            yield from comm.send(payload, peer)
            got[comm.rank] = yield from comm.recv(100, peer)
        else:
            data = yield from comm.recv(100, peer)
            yield from comm.send(bytes([comm.rank]) * 100, peer)
            got[comm.rank] = data

    session.run(program, ranks=[0, 1, 2, 3])
    assert bytes(got[0]) == bytes([1]) * 100
    assert bytes(got[3]) == bytes([2]) * 100


def test_user_mpb_area_reduces_comm_buffer():
    session = RcceSession(options=RcceOptions(user_mpb_bytes=1024))
    comm = session.comm_for(0)
    assert comm.comm_buffer_bytes == 7680 - 1024
    offset = comm.malloc(100)
    assert 0 <= offset < 1024


def test_malloc_requires_user_area(session):
    comm = session.comm_for(0)
    with pytest.raises(RuntimeError):
        comm.malloc(32)


def test_mfree_then_malloc_returns_the_same_offset_on_every_rank():
    session = RcceSession(options=RcceOptions(user_mpb_bytes=1024))
    offsets = {}

    def program(comm):
        first = comm.malloc(64)
        comm.malloc(128)
        comm.mfree(first)
        offsets[comm.rank] = (first, comm.malloc(64))
        return
        yield

    session.run(program, ranks=[0, 5, 47])
    assert len(set(offsets.values())) == 1
    [(first, again)] = set(offsets.values())
    assert again == first


def test_double_mfree_raises():
    comm = RcceSession(options=RcceOptions(user_mpb_bytes=1024)).comm_for(0)
    offset = comm.malloc(32)
    comm.mfree(offset)
    with pytest.raises(ValueError, match="not allocated"):
        comm.mfree(offset)


def test_mfree_requires_user_area(session):
    with pytest.raises(RuntimeError, match="no user MPB area"):
        session.comm_for(0).mfree(0)


def test_seq_channels_are_independent(session):
    """Each direction of a pair advances its own sent/ready streams."""

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(b"ab", 1)
            yield from comm.send(b"cd", 1)
            yield from comm.recv(2, 1)
        else:
            yield from comm.recv(2, 0)
            yield from comm.recv(2, 0)
            yield from comm.send(b"ef", 0)

    session.run(program, ranks=[0, 1])
    sender, receiver = session.comm_for(0).channel(1), session.comm_for(1).channel(0)
    assert sender.out_seq == receiver.in_seq == {"sent": 2, "ready": 2}
    assert sender.in_seq == receiver.out_seq == {"sent": 1, "ready": 1}


def test_seq_counters_wrap_after_254(session):
    """Streams at 253 take 254, then wrap to 1 and 2, skipping 0."""
    for rank, peer in ((0, 1), (1, 0)):
        chan = session.comm_for(rank).channel(peer)
        chan.out_seq.update(sent=253, ready=253)
        chan.in_seq.update(sent=253, ready=253)
    got = []

    def program(comm):
        for k in range(3):
            if comm.rank == 0:
                yield from comm.send(bytes([k]) * 8, 1)
            else:
                got.append(bytes((yield from comm.recv(8, 0))))

    session.run(program, ranks=[0, 1])
    assert got == [bytes([k]) * 8 for k in range(3)]
    assert session.comm_for(0).channel(1).out_seq == {"sent": 2, "ready": 2}
    assert session.comm_for(1).channel(0).in_seq == {"sent": 2, "ready": 2}


def test_comm_buffer_addresses(session):
    comm = session.comm_for(0)
    base = comm.comm_buffer_addr(5)
    assert base is comm.comm_buffer_addr(5)  # resolved once per rank
    assert (base.core, base.offset) == (5, 0)
    assert comm.comm_buffer_addr(5, 64) == base + 64
    for _ in range(2):
        with pytest.raises(ValueError):
            comm.comm_buffer_addr(48)
    with pytest.raises(ValueError):
        comm.comm_buffer_addr(5, comm.comm_buffer_bytes)
