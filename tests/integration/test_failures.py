"""Failure injection: protocol violations must be *detected*, not silent."""

import numpy as np
import pytest

from repro.sim.errors import DeadlockError, ProcessFailed
from repro.vscc.schemes import CommScheme
from repro.vscc.system import VSCCSystem


def test_lost_flag_deadlocks_loudly():
    """A receiver waiting for a sender that never comes deadlocks, and
    the simulator names the stuck rank."""
    system = VSCCSystem(num_devices=2)

    def program(comm):
        yield from comm.recv(100, 48)

    with pytest.raises(DeadlockError, match="rank0"):
        system.run(program, ranks=[0])


def test_mismatched_sizes_detected():
    """RCCE semantics require matching sizes; a short recv desynchronizes
    the chunk counters and is caught (deadlock or corrupted data)."""
    system = VSCCSystem(num_devices=2)

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(b"\x01" * 20000, 1)
        else:
            yield from comm.recv(100, 0)  # wrong size

    with pytest.raises((DeadlockError, ProcessFailed, AssertionError)):
        system.run(program, ranks=[0, 1])


def test_send_to_dead_core_rejected():
    system = VSCCSystem(num_devices=2, failure_prob=0.0)
    # kill a core by constructing a layout without it
    from repro.rcce.config import RankLayout, SccConfigFile

    config = SccConfigFile((tuple(c for c in range(48) if c != 5), tuple(range(48))))
    layout = RankLayout.from_config(config)
    with pytest.raises(ValueError):
        layout.rank_of(0, 5)


def test_stale_cache_read_without_consistency_control():
    """Relaxed consistency for real: reading a remote MPB through the
    software cache after the owner rewrote it *without* announce or
    invalidate returns stale data — exactly the hazard §3.1's explicit
    consistency control exists to prevent."""
    from repro.scc.mpb import MpbAddr

    system = VSCCSystem(num_devices=2, scheme=CommScheme.LOCAL_PUT_REMOTE_GET)
    host = system.host
    devices = system.devices
    observed = {}

    def reader():
        env = devices[1].core(0)
        first = yield from host.cache.serve(env, MpbAddr(0, 9, 0), 32)
        # owner rewrites its MPB but does NOT invalidate the host copy
        devices[0].mpb.write(MpbAddr(0, 9, 0), b"\x02" * 32)
        second = yield from host.cache.serve(env, MpbAddr(0, 9, 0), 32)
        observed["first"] = bytes(first)
        observed["second"] = bytes(second)

    devices[0].mpb.write(MpbAddr(0, 9, 0), b"\x01" * 32)
    system.sim.spawn(reader())
    system.sim.run()
    assert observed["first"] == b"\x01" * 32
    assert observed["second"] == b"\x01" * 32  # stale!


def test_vdma_programming_without_extensions_fails():
    system = VSCCSystem(num_devices=2, scheme=CommScheme.TRANSPARENT)

    def program(comm):
        yield from comm.env.mmio_write(0x0, 0)

    with pytest.raises(ProcessFailed, match="extensions") as failed:
        system.run(program, ranks=[0])
    assert isinstance(failed.value.__cause__, RuntimeError)
