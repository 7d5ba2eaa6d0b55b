"""Integration tests: every scheme moves correct data, all directions."""

import numpy as np
import pytest

from repro.host.dma import granule_sizes
from repro.rcce.api import RcceOptions
from repro.rcce.session import RcceSession
from repro.scc.params import SCCParams
from repro.vscc.schemes import CommScheme
from repro.vscc.system import VSCCSystem

ALL_SCHEMES = list(CommScheme)


def exchange(system, a, b, size):
    payload = (np.arange(size, dtype=np.int64) * 7 % 251).astype(np.uint8)
    got = {}

    def program(comm):
        peer = b if comm.rank == a else a
        if comm.rank == a:
            yield from comm.send(payload, peer)
            got["back"] = yield from comm.recv(size, peer)
        else:
            data = yield from comm.recv(size, peer)
            yield from comm.send(data, peer)

    system.run(program, ranks=[a, b])
    assert bytes(got["back"]) == payload.tobytes()


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.value)
@pytest.mark.parametrize("size", [1, 64, 4096, 8192, 20000])
def test_cross_device_integrity(scheme, size):
    system = VSCCSystem(num_devices=2, scheme=scheme)
    exchange(system, 0, 48, size)


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.value)
def test_onchip_still_works(scheme):
    system = VSCCSystem(num_devices=2, scheme=scheme)
    exchange(system, 0, 13, 10000)


@pytest.mark.parametrize(
    "scheme",
    [CommScheme.LOCAL_PUT_LOCAL_GET_VDMA, CommScheme.REMOTE_PUT_WCB],
    ids=lambda s: s.value,
)
@pytest.mark.parametrize("threshold,size", [(8000, 7700), (20000, 9000), (20000, 20000)])
def test_direct_path_chunks_past_the_buffer(scheme, threshold, size):
    """A direct threshold above the 7680 B communication buffer still
    delivers intact: the direct path chunks like its rendezvous twins."""
    system = VSCCSystem(num_devices=2, scheme=scheme, direct_threshold=threshold)
    exchange(system, 0, 48, size)
    assert system.metrics["scheme.selected{transport=direct-small}"] == 4.0


@pytest.mark.parametrize("buffer_bytes", [32, 64])
@pytest.mark.parametrize("transport", ["vdma", "hw-accel", "onchip-pipelined"])
def test_two_slot_transports_need_two_cache_lines(transport, buffer_bytes):
    """A buffer under two cache lines is refused, not split into 0 B slots."""
    options = RcceOptions(
        pipelined=transport == "onchip-pipelined",
        user_mpb_bytes=SCCParams().mpb_payload_bytes - buffer_bytes,
    )
    if transport == "onchip-pipelined":
        system, peer, size = RcceSession(options=options), 1, 8192
    else:
        system = VSCCSystem(
            num_devices=2, scheme=CommScheme(transport), options=options
        )
        peer, size = 48, 1000
    if buffer_bytes < 64:
        with pytest.raises(ValueError, match="user_mpb_bytes"):
            exchange(system, 0, peer, size)
    else:
        exchange(system, 0, peer, size)


def test_granule_sizes_rejects_non_positive_granule():
    assert granule_sizes(100, 32) == [32, 32, 32, 4]
    with pytest.raises(ValueError, match="granule"):
        granule_sizes(100, 0)


def test_three_devices_vdma_chain():
    """Relay a message across all three devices."""
    system = VSCCSystem(num_devices=3, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA)
    payload = (np.arange(9000) % 251).astype(np.uint8)
    got = {}

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(payload, 48)
        elif comm.rank == 48:
            data = yield from comm.recv(9000, 0)
            yield from comm.send(data, 96)
        elif comm.rank == 96:
            got["data"] = yield from comm.recv(9000, 48)

    system.run(program, ranks=[0, 48, 96])
    assert (got["data"] == payload).all()


def test_concurrent_cross_device_pairs():
    """Multiple pairs sharing the PCIe cables stay correct."""
    system = VSCCSystem(num_devices=2, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA)
    pairs = [(0, 48), (1, 49), (2, 50), (3, 51)]
    got = {}

    def program(comm):
        for a, b in pairs:
            if comm.rank == a:
                payload = bytes([a]) * 6000
                yield from comm.send(payload, b)
            elif comm.rank == b:
                got[b] = yield from comm.recv(6000, a)

    system.run(program, ranks=[r for pair in pairs for r in pair])
    for a, b in pairs:
        assert bytes(got[b]) == bytes([a]) * 6000


def test_bidirectional_same_pair_cross_device():
    """Simultaneous opposite-direction traffic on one pair."""
    system = VSCCSystem(num_devices=2, scheme=CommScheme.REMOTE_PUT_WCB)
    got = {}

    def program(comm):
        peer = 48 if comm.rank == 0 else 0
        mine = bytes([comm.rank + 1]) * 9000
        if comm.rank == 0:
            yield from comm.send(mine, peer)
            got[0] = yield from comm.recv(9000, peer)
        else:
            got[48] = yield from comm.recv(9000, peer)
            yield from comm.send(mine, peer)

    system.run(program, ranks=[0, 48])
    assert bytes(got[0]) == bytes([49]) * 9000
    assert bytes(got[48]) == bytes([1]) * 9000


def test_throughput_ordering_of_schemes():
    """The paper's qualitative ordering at a large message size."""
    from repro.apps.pingpong import run_pingpong

    peaks = {}
    for scheme in ALL_SCHEMES:
        system = VSCCSystem(num_devices=2, scheme=scheme)
        [point] = run_pingpong(system, 0, 48, sizes=[131072], iterations=2)
        peaks[scheme] = point.throughput_mbps
    assert peaks[CommScheme.TRANSPARENT] < 0.2 * peaks[CommScheme.LOCAL_PUT_REMOTE_GET]
    assert peaks[CommScheme.LOCAL_PUT_REMOTE_GET] < peaks[CommScheme.LOCAL_PUT_LOCAL_GET_VDMA]
    assert peaks[CommScheme.LOCAL_PUT_LOCAL_GET_VDMA] <= 1.05 * peaks[CommScheme.HW_ACCEL_REMOTE_PUT]


# -- host-path CRC/sequence envelope (repro.faults link layer) -----------------


def test_host_packet_roundtrip():
    from repro.vscc.protocol import HostPacket

    packet = HostPacket(seq=7, nbytes=1920)
    raw = packet.encode()
    assert len(raw) == 12
    decoded = HostPacket.decode(raw)
    assert decoded == packet


def test_host_packet_rejects_any_single_bit_flip():
    from repro.vscc.protocol import HostPacket

    raw = bytearray(HostPacket(seq=3, nbytes=512).encode())
    for bit in range(len(raw) * 8):
        flipped = bytearray(raw)
        flipped[bit >> 3] ^= 1 << (bit & 7)
        assert HostPacket.decode(bytes(flipped)) is None, f"bit {bit} slipped through"


def test_host_packet_rejects_wrong_length():
    from repro.vscc.protocol import HostPacket

    raw = HostPacket(seq=0, nbytes=1).encode()
    assert HostPacket.decode(raw[:-1]) is None
    assert HostPacket.decode(raw + b"\x00") is None
    assert HostPacket.decode(b"") is None


def test_sequence_tracker_accepts_in_order_and_dedups():
    from repro.vscc.protocol import SequenceTracker

    rx = SequenceTracker()
    assert rx.accept(0) and rx.accept(1)
    assert not rx.accept(1)           # duplicate: dropped, counted
    assert rx.accept(2)
    assert rx.delivered == 3
    assert rx.duplicates == 1
    assert rx.expected == 3


def test_sequence_tracker_raises_on_gap():
    import pytest as _pytest

    from repro.vscc.protocol import ProtocolViolation, SequenceTracker

    rx = SequenceTracker()
    rx.accept(0)
    with _pytest.raises(ProtocolViolation):
        rx.accept(2)                  # 1 is still outstanding
