"""Unit tests for the fabric dispatch table."""

import numpy as np
import pytest

from repro.host.driver import Host
from repro.scc.chip import SCCDevice
from repro.scc.mpb import MpbAddr
from repro.sim.engine import Simulator
from repro.sim.errors import ProcessFailed


def make_rig(extensions=True, fast_ack=False):
    sim = Simulator()
    devices = [SCCDevice(sim, device_id=i) for i in range(2)]
    for dev in devices:
        dev.boot()
    host = Host(sim, devices, extensions_enabled=extensions, fast_write_ack=fast_ack)
    for dev in devices:
        for core in range(48):
            host.register_rank_regions(dev.device_id, core)
    return sim, devices, host


def test_buffer_read_uses_cache_with_extensions():
    sim, devices, host = make_rig(extensions=True)
    devices[0].mpb.write(MpbAddr(0, 3, 0), b"\x07" * 256)

    def reader():
        data = yield from devices[1].core(0).mpb_read(MpbAddr(0, 3, 0), 256)
        return bytes(data)

    proc = sim.spawn(reader())
    sim.run()
    assert proc.result == b"\x07" * 256
    assert host.cache.demand_fills == 1  # went through the software cache
    assert host.tasks[1].routed_reads == 0


def test_flag_region_read_bypasses_cache():
    """§3.1: flag reads are forwarded without caching."""
    sim, devices, host = make_rig(extensions=True)
    flag = MpbAddr(0, 3, devices[0].params.mpb_payload_bytes + 5)
    devices[0].mpb.write_byte(flag, 9)

    def reader():
        value = yield from devices[1].core(0).read_flag(flag)
        return value

    proc = sim.spawn(reader())
    sim.run()
    assert proc.result == 9
    assert host.cache.demand_fills == 0
    assert host.tasks[1].routed_reads > 0


def test_unregistered_span_routed_transparently():
    sim, devices, host = make_rig(extensions=True)
    # span crossing payload/SF boundary is registered in neither region
    addr = MpbAddr(0, 3, devices[0].params.mpb_payload_bytes - 16)

    def reader():
        data = yield from devices[1].core(0).mpb_read(addr, 32)
        return data

    sim.spawn(reader())
    sim.run()
    assert host.tasks[1].routed_reads > 0


def test_fast_ack_cable_streams_writes():
    sim, devices, host = make_rig(extensions=False, fast_ack=True)
    payload = np.arange(2048, dtype=np.int64).astype(np.uint8)

    def writer():
        t0 = sim.now
        yield from devices[0].core(0).mpb_write(MpbAddr(1, 3, 0), payload)
        return sim.now - t0

    proc = sim.spawn(writer())
    sim.run()
    streamed = proc.result

    sim2, devices2, host2 = make_rig(extensions=False, fast_ack=False)

    def writer2():
        t0 = sim2.now
        yield from devices2[0].core(0).mpb_write(MpbAddr(1, 3, 0), payload)
        return sim2.now - t0

    proc2 = sim2.spawn(writer2())
    sim2.run()
    # fast acks stream at FPGA-ack rate; transparent pays per-line RTTs
    assert streamed < proc2.result / 10
    assert (devices[1].mpb.read(MpbAddr(1, 3, 0), 2048) == payload).all()


def test_wcb_open_requires_extensions():
    sim, devices, host = make_rig(extensions=False)

    def prog():
        env = devices[0].core(0)
        yield from env.device.fabric.wcb_open(env, MpbAddr(1, 0, 0), 64)

    sim.spawn(prog())
    with pytest.raises(ProcessFailed, match="extensions") as failed:
        sim.run()
    assert isinstance(failed.value.__cause__, RuntimeError)


#: A registered payload buffer on the peer device.
BUFFER = MpbAddr(1, 3, 0)


def _flag(params):
    return MpbAddr(1, 3, params.mpb_payload_bytes + 5)


def _straddle(params):
    """A span crossing the payload/SF boundary: registered in neither."""
    return MpbAddr(1, 3, params.mpb_payload_bytes - 16)


def _wcb_open(env):
    yield from env.device.fabric.wcb_open(env, BUFFER, 64)


#: One row per dispatch-table entry:
#: (extensions, fast_ack, setup, access, series the access moves).
DISPATCH_ROWS = [
    pytest.param(
        True, False, None, lambda env, p: env.mpb_read(BUFFER, 64),
        {"softcache.demand_fills"}, id="buffer-read-cached",
    ),
    pytest.param(
        True, False, None, lambda env, p: env.read_flag(_flag(p)),
        {"routed_reads", "sync"}, id="flag-read-routed",
    ),
    pytest.param(
        True, False, None, lambda env, p: env.mpb_read(_straddle(p), 32),
        {"routed_reads", "bulk"}, id="unregistered-read-routed",
    ),
    pytest.param(
        False, False, None, lambda env, p: env.mpb_read(BUFFER, 64),
        {"routed_reads", "bulk"}, id="transparent-read-routed",
    ),
    pytest.param(
        False, True, None, lambda env, p: env.mpb_write(BUFFER, bytes(64)),
        {"bulk"}, id="fast-ack-write-streamed",
    ),
    pytest.param(
        True, False, _wcb_open, lambda env, p: env.mpb_write(BUFFER, bytes(64)),
        {"wcbuf.bytes_combined", "bulk"}, id="buffer-write-wcb",
    ),
    pytest.param(
        True, False, None, lambda env, p: env.mpb_write(_straddle(p), bytes(32)),
        {"routed_writes", "bulk"}, id="unregistered-write-routed",
    ),
    pytest.param(
        False, False, None, lambda env, p: env.mpb_write(BUFFER, bytes(64)),
        {"routed_writes", "bulk"}, id="transparent-write-routed",
    ),
    pytest.param(
        True, False, None, lambda env, p: env.set_flag(_flag(p), 1),
        {"flag_forwards", "sync"}, id="flag-write-fast-ack",
    ),
    pytest.param(
        False, False, None, lambda env, p: env.set_flag(_flag(p), 1),
        {"flag_forwards", "routed_writes", "sync"}, id="flag-write-routed",
    ),
    pytest.param(
        True, False, None, lambda env, p: env.mmio_write(0x200, 1),
        {"ctrl"}, id="mmio",
    ),
]

#: Short row names of the series every access is checked against.
WATCHED = {
    "routed_reads": "commtask.routed_reads{device=0}",
    "routed_writes": "commtask.routed_writes{device=0}",
    "flag_forwards": "commtask.flag_forwards{device=0}",
    "wcbuf.bytes_combined": "wcbuf.bytes_combined{device=0}",
    "softcache.demand_fills": "softcache.demand_fills",
    "sync": "sched.requests{device=0,lane=sync}",
    "bulk": "sched.requests{device=0,lane=bulk}",
    "ctrl": "sched.requests{device=0,lane=ctrl}",
}


@pytest.mark.parametrize("extensions,fast_ack,setup,access,moved", DISPATCH_ROWS)
def test_dispatch_table_row(extensions, fast_ack, setup, access, moved):
    """Each access kind takes exactly its row's path: it moves that
    path's series in ``host.metrics_snapshot()`` and no other watched one."""
    sim, devices, host = make_rig(extensions=extensions, fast_ack=fast_ack)
    env = devices[0].core(0)
    before = {}

    def prog():
        if setup is not None:
            yield from setup(env)
        before.update(host.metrics_snapshot())
        yield from access(env, env.device.params)

    sim.spawn(prog())
    sim.run()
    after = host.metrics_snapshot()
    assert {name for name, key in WATCHED.items() if after[key] != before[key]} == moved
