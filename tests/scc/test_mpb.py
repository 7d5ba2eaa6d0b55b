"""Unit tests for the on-chip memory (MPB/SF) with watchpoints."""

import numpy as np
import pytest

from repro.scc.mpb import MPBMemory, MpbAddr
from repro.scc.params import SCCParams
from repro.sim.engine import Simulator
from repro.sim.errors import DeadlockError


@pytest.fixture
def mem():
    return MPBMemory(Simulator(), SCCParams(), device_id=0)


def test_write_read_roundtrip(mem):
    addr = MpbAddr(0, 5, 128)
    mem.write(addr, b"hello mpb")
    assert bytes(mem.read(addr, 9)) == b"hello mpb"


def test_isolation_between_cores(mem):
    mem.write(MpbAddr(0, 3, 0), b"\xaa" * 64)
    assert mem.read(MpbAddr(0, 4, 0), 64).sum() == 0


def test_span_must_stay_in_lmb(mem):
    with pytest.raises(ValueError):
        mem.read(MpbAddr(0, 0, 8000), 400)
    with pytest.raises(ValueError):
        mem.write(MpbAddr(0, 0, 8192), b"x")
    with pytest.raises(ValueError):
        mem.read(MpbAddr(0, 48, 0), 1)  # no such core


def test_wrong_device_rejected(mem):
    with pytest.raises(ValueError):
        mem.read(MpbAddr(1, 0, 0), 1)


def test_byte_accessors(mem):
    addr = MpbAddr(0, 0, 7700)
    mem.write_byte(addr, 0x5A)
    assert mem.read_byte(addr) == 0x5A


def test_watchpoint_pulses_on_covering_write(mem):
    sim = mem.sim
    seen = []

    def watcher():
        yield mem.watch(MpbAddr(0, 2, 100))
        seen.append(sim.now)

    sim.spawn(watcher())
    sim.call_at(5.0, lambda: mem.write(MpbAddr(0, 2, 96), b"\x01" * 16))
    sim.run()
    assert seen == [5.0]


def test_watchpoint_ignores_other_addresses(mem):
    sim = mem.sim
    seen = []

    def watcher():
        yield mem.watch(MpbAddr(0, 2, 100))
        seen.append(sim.now)

    sim.spawn(watcher(), name="watch")
    sim.call_at(5.0, lambda: mem.write(MpbAddr(0, 2, 101), b"x"))
    with pytest.raises(DeadlockError, match="watch"):  # still parked
        sim.run()
    assert seen == []


def test_many_watchpoints_pulse_only_the_touched_byte(mem):
    """512 watched flag bytes: a payload write pulses none, a flag write one."""
    seen = []

    def watcher(addr):
        yield mem.watch(addr)
        seen.append(addr)

    sf = mem.params.mpb_payload_bytes
    addrs = [MpbAddr(0, core, sf + b) for core in range(8) for b in range(64)]
    for addr in addrs:
        mem.sim.spawn(watcher(addr), name="watch")
    mem.sim.call_at(1.0, lambda: mem.write(MpbAddr(0, 0, 0), bytes(32)))
    mem.sim.call_at(2.0, lambda: mem.write_byte(addrs[70], 1))
    with pytest.raises(DeadlockError) as parked:
        mem.sim.run()
    assert seen == [addrs[70]]
    assert len(parked.value.waiting) == len(addrs) - 1


def test_numpy_and_bytes_payloads(mem):
    payload = np.arange(32, dtype=np.uint8)
    mem.write(MpbAddr(0, 1, 0), payload)
    assert (mem.read(MpbAddr(0, 1, 0), 32) == payload).all()


def test_read_returns_copy(mem):
    addr = MpbAddr(0, 0, 0)
    mem.write(addr, b"\x01" * 8)
    snapshot = mem.read(addr, 8)
    mem.write(addr, b"\x02" * 8)
    assert snapshot.sum() == 8


# -- LMB halves allocated on first write ------------------------------------------


def _allocated(mem):
    return [core for core, half in enumerate(mem._halves) if half is not None]


def test_unwritten_bytes_read_as_zero_without_allocating(mem):
    assert _allocated(mem) == []
    data = mem.read(MpbAddr(0, 9, 100), 64)
    assert data.dtype == np.uint8 and data.shape == (64,) and not data.any()
    assert mem.read_byte(MpbAddr(0, 9, 8191)) == 0
    assert _allocated(mem) == []


def test_zero_read_of_untouched_half_is_a_fresh_array(mem):
    first = mem.read(MpbAddr(0, 9, 0), 8)
    first[:] = 7
    assert not mem.read(MpbAddr(0, 9, 0), 8).any()


def test_first_write_allocates_only_that_core(mem):
    mem.write(MpbAddr(0, 5, 10), b"\x11\x22")
    mem.write_byte(MpbAddr(0, 40, 7700), 0x33)
    assert _allocated(mem) == [5, 40]
    # Bytes of a written half that were never stored still read as zero.
    assert bytes(mem.read(MpbAddr(0, 5, 8), 6)) == b"\x00\x00\x11\x22\x00\x00"
    assert mem.read_byte(MpbAddr(0, 40, 7699)) == 0
    assert mem.read_byte(MpbAddr(0, 40, 7700)) == 0x33


@pytest.mark.parametrize(
    "addr, length",
    [
        (MpbAddr(0, 48, 0), 1),  # no such core
        (MpbAddr(0, -1, 0), 1),  # negative core must not wrap to core 47
        (MpbAddr(0, 3, 8192), 1),  # offset past the LMB half
        (MpbAddr(0, 3, -1), 1),  # negative offset
        (MpbAddr(0, 3, 8000), 400),  # span crosses the LMB boundary
        (MpbAddr(1, 3, 0), 1),  # another device's memory
    ],
)
def test_untouched_core_still_validates(mem, addr, length):
    # A boundary-crossing span is only a fault of the multi-byte accessors.
    crosses_boundary = addr.offset + length > 8192
    with pytest.raises(ValueError):
        mem.read(addr, length)
    with pytest.raises(ValueError):
        mem.write(addr, bytes(length))
    if not crosses_boundary:
        with pytest.raises(ValueError):
            mem.read_byte(addr)
        with pytest.raises(ValueError):
            mem.write_byte(addr, 1)
        with pytest.raises(ValueError):
            mem.watch(addr)
    assert _allocated(mem) == []


def test_watch_on_untouched_core_pulses_on_first_write(mem):
    sim = mem.sim
    seen = []
    flag = MpbAddr(0, 30, mem.params.mpb_payload_bytes + 3)

    def watcher():
        yield mem.watch(flag)
        seen.append(sim.now)

    sim.spawn(watcher())
    assert _allocated(mem) == []
    sim.call_at(2.0, lambda: mem.write_byte(flag, 1))
    sim.run()
    assert seen == [2.0]


# -- single bytes through the half's bytearray ------------------------------------


def test_write_byte_keeps_the_low_eight_bits(mem):
    addr = MpbAddr(0, 7, 7800)
    mem.write_byte(addr, 300)
    assert mem.read_byte(addr) == 44
    mem.write_byte(addr, -1)
    assert mem.read_byte(addr) == 255
    assert type(mem.read_byte(addr)) is int


def test_read_byte_of_untouched_core_allocates_nothing(mem):
    mem.write_byte(MpbAddr(0, 2, 0), 9)
    for offset in (0, 100, 7700, 8191):
        assert mem.read_byte(MpbAddr(0, 11, offset)) == 0
    assert _allocated(mem) == [2]
    assert [core for core, raw in enumerate(mem._bytes) if raw is not None] == [2]


def test_span_reads_and_byte_writes_share_one_store(mem):
    addr = MpbAddr(0, 4, 7700)
    mem.write_byte(addr, 0xA5)
    mem.write_byte(addr + 2, 0x5A)
    assert bytes(mem.read(addr, 3)) == b"\xa5\x00\x5a"
    mem.write(addr + 1, b"\x11")
    assert [mem.read_byte(addr + i) for i in range(3)] == [0xA5, 0x11, 0x5A]


def test_watched_flag_on_touched_core_pulses_on_byte_write(mem):
    sim = mem.sim
    flag = MpbAddr(0, 6, mem.params.mpb_payload_bytes + 9)
    mem.write_byte(flag, 1)
    seen = []

    def watcher():
        yield mem.watch(flag)
        seen.append((sim.now, mem.read_byte(flag)))

    sim.spawn(watcher())
    sim.call_at(3.0, lambda: mem.write_byte(flag + 1, 7))  # a neighbour: no pulse
    sim.call_at(4.0, lambda: mem.write_byte(flag, 2))
    sim.run()
    assert seen == [(4.0, 2)]


@pytest.mark.parametrize("touched", [False, True])
@pytest.mark.parametrize(
    "addr",
    [
        MpbAddr(1, 3, 0),  # another device's memory
        MpbAddr(0, 48, 0),  # no such core
        MpbAddr(0, -1, 0),  # negative core must not wrap to core 47
        MpbAddr(0, 3, 8192),  # offset past the LMB half
        MpbAddr(0, 3, -1),  # negative offset must not wrap to 8191
    ],
)
def test_byte_accessors_validate_on_any_core(mem, addr, touched):
    if touched:
        for core in (3, 47):
            mem.write(MpbAddr(0, core, 0), b"\x01")
    before = _allocated(mem)
    with pytest.raises(ValueError):
        mem.read_byte(addr)
    with pytest.raises(ValueError):
        mem.write_byte(addr, 1)
    assert _allocated(mem) == before
    assert mem.read_byte(MpbAddr(0, 47, 8191)) == 0
