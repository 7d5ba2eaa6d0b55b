"""Unit tests for the communication task's request paths."""

import numpy as np
import pytest

from repro.host.driver import Host
from repro.scc.chip import SCCDevice
from repro.scc.mpb import MpbAddr
from repro.sim.engine import Simulator
from repro.sim.errors import ProcessFailed


def make_rig(extensions=True, fast_ack=False, n=2):
    sim = Simulator()
    devices = [SCCDevice(sim, device_id=i) for i in range(n)]
    for dev in devices:
        dev.boot()
    host = Host(sim, devices, extensions_enabled=extensions, fast_write_ack=fast_ack)
    for dev in devices:
        for core in range(48):
            host.register_rank_regions(dev.device_id, core)
    return sim, devices, host


def test_transparent_read_moves_real_bytes():
    sim, devices, host = make_rig(extensions=False)
    devices[1].mpb.write(MpbAddr(1, 7, 64), b"transparent!")

    def reader():
        data = yield from devices[0].core(0).mpb_read(MpbAddr(1, 7, 64), 12)
        return bytes(data)

    proc = sim.spawn(reader())
    sim.run()
    assert proc.result == b"transparent!"
    assert host.tasks[0].routed_reads > 0


def test_transparent_read_pays_per_line_round_trips():
    sim, devices, host = make_rig(extensions=False)

    def timed(n):
        t0 = sim.now
        yield from devices[0].core(0).mpb_read(MpbAddr(1, 7, 0), n)
        return sim.now - t0

    p1 = sim.spawn(timed(32))
    sim.run()
    p2 = sim.spawn(timed(320))
    sim.run()
    # ten lines cost roughly ten times one line
    assert p2.result == pytest.approx(10 * p1.result, rel=0.15)


def test_flag_write_fast_ack_much_cheaper_than_transparent():
    def flag_cost(extensions):
        sim, devices, host = make_rig(extensions=extensions)
        flag = MpbAddr(1, 0, devices[1].params.mpb_payload_bytes)

        def prog():
            t0 = sim.now
            yield from devices[0].core(0).set_flag(flag, 1)
            return sim.now - t0

        proc = sim.spawn(prog())
        sim.run()
        return proc.result

    assert flag_cost(True) < flag_cost(False) / 3


def test_flag_write_still_delivered_posted():
    sim, devices, host = make_rig(extensions=True)
    flag = MpbAddr(1, 5, devices[1].params.mpb_payload_bytes + 3)

    def prog():
        yield from devices[0].core(0).set_flag(flag, 77)

    sim.spawn(prog())
    sim.run()
    assert devices[1].mpb.read_byte(flag) == 77


def test_small_direct_write_orders_before_flag():
    sim, devices, host = make_rig(extensions=True)
    target = MpbAddr(1, 3, 0)
    flag = MpbAddr(1, 3, devices[1].params.mpb_payload_bytes)
    observed = {}

    def sender():
        env = devices[0].core(0)
        yield from env.device.fabric.direct_write(env, target, b"tiny")
        yield from env.set_flag(flag, 1)

    def receiver():
        env = devices[1].core(3)
        yield from env.wait_flag(flag, 1)
        data = yield from env.mpb_read(target, 4)
        observed["data"] = bytes(data)

    sim.spawn(sender())
    sim.spawn(receiver())
    sim.run()
    assert observed["data"] == b"tiny"


def test_mmio_requires_extensions():
    sim, devices, host = make_rig(extensions=False)

    def prog():
        yield from devices[0].core(0).mmio_write(0x40, 1)

    sim.spawn(prog())
    with pytest.raises(ProcessFailed, match="extensions") as failed:
        sim.run()
    assert isinstance(failed.value.__cause__, RuntimeError)


def test_mmio_fused_cheaper_than_unfused():
    sim, devices, host = make_rig(extensions=True)

    def timed(fused):
        env = devices[0].core(0)
        t0 = sim.now
        yield from env.device.fabric.mmio_write(
            env, [(0x100, 1), (0x108, 2), (0x110, 3)], fused=fused
        )
        return sim.now - t0

    fused = sim.spawn(timed(True))
    sim.run()
    unfused = sim.spawn(timed(False))
    sim.run()
    assert fused.result < unfused.result
