"""Unit tests for isend/irecv request handling."""

import numpy as np
import pytest

from repro.ircce.nonblocking import irecv, isend, wait_all
from repro.rcce.session import RcceSession


def test_isend_irecv_roundtrip(session):
    payload = (np.arange(500) % 251).astype(np.uint8)
    got = {}

    def program(comm):
        if comm.rank == 0:
            req = isend(comm, payload, 1)
            yield from comm.env.compute(cycles=100)  # overlap something
            yield from req.wait()
        elif comm.rank == 1:
            req = irecv(comm, 500, 0)
            data = yield from req.wait()
            got["data"] = data

    session.run(program, ranks=[0, 1])
    assert (got["data"] == payload).all()


def test_sender_buffer_reusable_after_isend(session):
    """isend snapshots the payload; mutating after is safe."""
    got = {}

    def program(comm):
        if comm.rank == 0:
            buf = np.zeros(100, np.uint8)
            buf[:] = 7
            req = isend(comm, buf, 1)
            buf[:] = 9  # reuse immediately
            yield from req.wait()
        elif comm.rank == 1:
            got["data"] = yield from comm.recv(100, 0)

    session.run(program, ranks=[0, 1])
    assert (np.asarray(got["data"]) == 7).all()


def test_isend_payload_is_a_read_only_copy_of_a_bytearray(session):
    """A bytearray rewritten while its isend is queued behind another
    still delivers the bytes it held at the call."""
    got = {}

    def program(comm):
        if comm.rank == 0:
            buf = bytearray(b"\x05" * 64)
            first = isend(comm, bytes(4000), 1)
            second = isend(comm, buf, 1)
            buf[:] = b"\x06" * 64
            yield from wait_all([first, second])
        elif comm.rank == 1:
            yield from comm.recv(4000, 0)
            got["data"] = yield from comm.recv(64, 0)

    session.run(program, ranks=[0, 1])
    assert bytes(got["data"]) == b"\x05" * 64


def test_outstanding_isends_serialize_and_deliver_in_order(session):
    got = {}

    def program(comm):
        if comm.rank == 0:
            reqs = [isend(comm, bytes([i]) * 4000, 1) for i in range(4)]
            yield from wait_all(reqs)
        elif comm.rank == 1:
            datas = []
            for i in range(4):
                datas.append((yield from comm.recv(4000, 0)))
            got["first_bytes"] = [int(d[0]) for d in datas]

    session.run(program, ranks=[0, 1])
    assert got["first_bytes"] == [0, 1, 2, 3]


def test_isends_to_different_peers_do_not_corrupt(session):
    """The regression behind Fig 7: concurrent isends share the MPB
    staging buffer and must serialize."""
    got = {}

    def program(comm):
        if comm.rank == 0:
            a = isend(comm, b"\xaa" * 6000, 1)
            b = isend(comm, b"\xbb" * 6000, 2)
            yield from wait_all([a, b])
        elif comm.rank in (1, 2):
            got[comm.rank] = yield from comm.recv(6000, 0)

    session.run(program, ranks=[0, 1, 2])
    assert bytes(got[1]) == b"\xaa" * 6000
    assert bytes(got[2]) == b"\xbb" * 6000


def test_blocking_send_queues_behind_pending_isend(session):
    got = {}

    def program(comm):
        if comm.rank == 0:
            isend(comm, b"\x01" * 5000, 1)          # never explicitly waited
            yield from comm.send(b"\x02" * 5000, 1)  # must not overtake
        elif comm.rank == 1:
            first = yield from comm.recv(5000, 0)
            second = yield from comm.recv(5000, 0)
            got["order"] = (int(first[0]), int(second[0]))

    session.run(program, ranks=[0, 1])
    assert got["order"] == (1, 2)


def test_test_and_repr(session):
    state = {}

    def program(comm):
        if comm.rank == 0:
            req = isend(comm, b"x" * 10, 1)
            state["before"] = req.test()
            yield from req.wait()
            state["after"] = req.test()
        elif comm.rank == 1:
            yield from comm.recv(10, 0)

    session.run(program, ranks=[0, 1])
    assert state["before"] is False
    assert state["after"] is True


def test_wait_any_returns_first_completion(session):
    from repro.ircce.nonblocking import wait_any

    got = {}

    def program(comm):
        if comm.rank == 0:
            slow = irecv(comm, 7000, 1)
            fast = irecv(comm, 10, 2)
            index = yield from wait_any(comm, [slow, fast])
            got["first"] = index
            yield from slow.wait()
            yield from fast.wait()
        elif comm.rank == 1:
            yield from comm.env.compute(cycles=200000)  # arrive late
            yield from comm.send(b"\x01" * 7000, 0)
        elif comm.rank == 2:
            yield from comm.send(b"\x02" * 10, 0)

    session.run(program, ranks=[0, 1, 2])
    assert got["first"] == 1  # the small, early message wins


def test_recv_any_source_matches_earliest_sender(session):
    from repro.ircce.nonblocking import recv_any_source

    got = {}

    def program(comm):
        if comm.rank == 0:
            src, data = yield from recv_any_source(comm, 100, [1, 2, 3])
            got["first"] = (src, bytes(data[:1]))
            # drain the rest in arrival order
            for _ in range(2):
                src, data = yield from recv_any_source(comm, 100, [1, 2, 3])
        else:
            yield from comm.env.compute(cycles=comm.rank * 50000)
            yield from comm.send(bytes([comm.rank]) * 100, 0)

    session.run(program, ranks=[0, 1, 2, 3])
    assert got["first"] == (1, b"\x01")


def test_recv_any_source_rejects_rendezvous_transport():
    from repro.ircce.nonblocking import recv_any_source
    from repro.vscc.schemes import CommScheme
    from repro.vscc.system import VSCCSystem

    system = VSCCSystem(num_devices=2, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA)

    def program(comm):
        yield from recv_any_source(comm, 5000, [48])

    with pytest.raises(Exception, match="rendezvous"):
        system.run(program, ranks=[0])


def test_recv_any_source_works_on_cached_scheme():
    from repro.ircce.nonblocking import recv_any_source
    from repro.vscc.schemes import CommScheme
    from repro.vscc.system import VSCCSystem

    system = VSCCSystem(num_devices=2, scheme=CommScheme.LOCAL_PUT_REMOTE_GET)
    got = {}

    def program(comm):
        if comm.rank == 0:
            src, data = yield from recv_any_source(comm, 2000, [48, 49])
            got["src"] = src
            got["ok"] = bytes(data) == bytes([src % 251]) * 2000
        elif comm.rank == 49:
            yield from comm.send(bytes([49 % 251]) * 2000, 0)

    system.run(program, ranks=[0, 49])
    assert got["src"] == 49 and got["ok"]


def test_recv_any_source_leaves_no_callback_on_its_watches(session):
    """A wildcard wait withdraws its wake-up from every watched flag, not
    just from the one whose write ended it: a stale callback would keep
    ``has_waiters`` set and make every later write of that flag pulse."""
    from repro.ircce.nonblocking import recv_any_source

    got = []

    def program(comm):
        if comm.rank == 0:
            for _ in range(9):
                src, data = yield from recv_any_source(comm, 100, [1, 2, 3])
                got.append((src, bytes(data) == bytes([src]) * 100))
        else:
            for _ in range(3):
                yield from comm.env.compute(cycles=comm.rank * 50000)
                yield from comm.send(bytes([comm.rank]) * 100, 0)

    session.run(program, ranks=[0, 1, 2, 3])
    assert sorted(got) == [(src, True) for src in (1, 2, 3) for _ in range(3)]
    mpb = session.device.mpb
    for src in (1, 2, 3):
        watch = mpb.watch(session.flags.sent(0, src))
        assert watch._once == [] and not watch.has_waiters, src
