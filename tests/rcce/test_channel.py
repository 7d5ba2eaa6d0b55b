"""Per-peer flag channels: the counters, flags and slots one rank keeps
for one peer (:class:`repro.rcce.api.Channel`)."""

import numpy as np

from repro.ircce.nonblocking import irecv, recv_any_source
from repro.rcce.api import RcceOptions
from repro.rcce.flags import FlagLayout
from repro.rcce.session import RcceSession


def _payload(rank: int, k: int, nbytes: int) -> np.ndarray:
    return ((np.arange(nbytes) * (k + 1) + rank) % 251).astype(np.uint8)


def test_counters_wrap_through_seq_mod(session):
    """300 one-transfer messages take both ends' counters past 254."""
    got = []

    def program(comm):
        for k in range(300):
            if comm.rank == 0:
                yield from comm.send(_payload(0, k, 40), 1)
            else:
                got.append((yield from comm.recv(40, 0)))

    session.run(program, ranks=[0, 1])
    assert all(np.array_equal(data, _payload(0, k, 40)) for k, data in enumerate(got))
    assert len(got) == 300
    value = 0
    for _ in range(300):
        value = FlagLayout.next_seq(value)
    assert value == 46
    sender = session.comm_for(0).channel(1).out_seq
    receiver = session.comm_for(1).channel(0).in_seq
    assert sender == receiver == {"sent": value, "ready": value}


def test_slots_are_kept_per_transport():
    """1 kB messages take the one-slot default protocol and 64 kB ones the
    two-slot pipelined protocol; alternating them both ways on one pair
    must not hand either protocol the other's slots."""
    session = RcceSession(options=RcceOptions(pipelined=True))
    sizes = [1024, 65536, 1024, 65536]
    got = {0: [], 1: []}

    def program(comm):
        peer = 1 - comm.rank
        for k, nbytes in enumerate(sizes):
            if comm.rank == 0:
                yield from comm.send(_payload(0, k, nbytes), peer)
                got[0].append((yield from comm.recv(nbytes, peer)))
            else:
                got[1].append((yield from comm.recv(nbytes, peer)))
                yield from comm.send(_payload(1, k, nbytes), peer)

    session.run(program, ranks=[0, 1])
    for rank in (0, 1):
        for k, nbytes in enumerate(sizes):
            assert np.array_equal(got[rank][k], _payload(1 - rank, k, nbytes))
    # Measured before the channel existed; the clock must not move.
    assert session.sim.now == 926926.829268294
    # Both protocols are sender-first: rank 0's send layouts are in its
    # own buffer, kept once per rank; its receive layouts are rank 1's.
    sender = session.comm_for(0)
    assert len(sender.own_slots) == len(sender.channel(1).peer_slots) == 2


def test_own_buffer_layouts_are_kept_once_per_rank(session):
    """Rank 0 sends to three peers over the sender-first default
    protocol: its slots in its own buffer are resolved once for all of
    them, and no channel keeps a copy."""

    def program(comm):
        if comm.rank == 0:
            for peer in (1, 2, 3):
                yield from comm.send(_payload(0, peer, 64), peer)
        else:
            yield from comm.recv(64, 0)

    session.run(program, ranks=[0, 1, 2, 3])
    sender = session.comm_for(0)
    assert len(sender.own_slots) == 1
    assert all(not sender.channel(peer).peer_slots for peer in (1, 2, 3))
    receiver = session.comm_for(1)
    assert not receiver.own_slots
    assert len(receiver.channel(0).peer_slots) == 1


def test_recv_any_source_after_recv_and_irecv_from_the_same_source(session):
    """The wildcard peek reads the source's counter where the blocking
    recv and the pending irecv left it, and the match queues behind the
    irecv."""
    got = {}

    def program(comm):
        if comm.rank == 0:
            got["recv"] = yield from comm.recv(64, 1)
            request = irecv(comm, 64, 1)
            got["any"] = yield from recv_any_source(comm, 64, [2, 1])
            got["irecv"] = yield from request.wait()
            got["two"] = yield from comm.recv(64, 2)
        elif comm.rank == 1:
            for k in range(3):
                yield from comm.send(_payload(1, k, 64), 0)
        else:
            yield from comm.env.compute(cycles=10_000_000)
            yield from comm.send(_payload(2, 0, 64), 0)

    session.run(program, ranks=[0, 1, 2])
    assert np.array_equal(got["recv"], _payload(1, 0, 64))
    assert np.array_equal(got["irecv"], _payload(1, 1, 64))
    source, data = got["any"]
    assert source == 1 and np.array_equal(data, _payload(1, 2, 64))
    assert np.array_equal(got["two"], _payload(2, 0, 64))


def test_vdma_completion_stream_is_one_counter_per_rank():
    """Each vDMA transfer a rank sends takes the next value of the rank's
    own completion stream, whichever peer it goes to."""
    from repro.vscc.schemes import CommScheme
    from repro.vscc.system import VSCCSystem

    system = VSCCSystem(num_devices=2, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA)
    sender = system.comm_for(0)
    sizes = {48: 3 * sender.slot_bytes, 49: 1024}  # three transfers, then one
    got = {}

    def program(comm):
        if comm.rank == 0:
            for dest, nbytes in sizes.items():
                yield from comm.send(_payload(0, dest, nbytes), dest)
        else:
            got[comm.rank] = yield from comm.recv(sizes[comm.rank], 0)

    system.run(program, ranks=[0, 48, 49])
    for dest, nbytes in sizes.items():
        assert np.array_equal(got[dest], _payload(0, dest, nbytes))
    assert sender.vdma_done_seq == 4
    assert 0 not in sender._channels  # no channel from a rank to itself
