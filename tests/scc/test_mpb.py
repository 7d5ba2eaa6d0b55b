"""Unit tests for the on-chip memory (MPB/SF) with watchpoints."""

import numpy as np
import pytest

from repro.scc.mpb import MPBMemory, MpbAddr
from repro.scc.params import SCCParams
from repro.sim.engine import Simulator


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

    sim.spawn(watcher(), name="daemon:watch")
    sim.call_at(5.0, lambda: mem.write(MpbAddr(0, 2, 101), b"x"))
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
        mem.sim.spawn(watcher(addr), name="daemon:watch")
    mem.sim.call_at(1.0, lambda: mem.write(MpbAddr(0, 0, 0), bytes(32)))
    mem.sim.call_at(2.0, lambda: mem.write_byte(addrs[70], 1))
    mem.sim.run()
    assert seen == [addrs[70]]


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
