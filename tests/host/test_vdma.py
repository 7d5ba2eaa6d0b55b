"""Unit tests for the virtual DMA controller."""

import numpy as np
import pytest

from repro.host.driver import Host
from repro.host.mmio import REG_VDMA_ADDR, REG_VDMA_COUNT, REG_VDMA_CTRL
from repro.host.vdma import VdmaCommand
from repro.rcce.flags import SLOT_APP0
from repro.scc.chip import SCCDevice
from repro.scc.mpb import MpbAddr
from repro.sim.engine import Simulator


@pytest.fixture
def rig():
    sim = Simulator()
    devices = [SCCDevice(sim, device_id=i) for i in range(2)]
    for dev in devices:
        dev.boot()
    host = Host(sim, devices)
    return sim, devices, host


def sf_flag(dev, core, slot=0):
    params = dev.params
    return MpbAddr(dev.device_id, core, params.mpb_payload_bytes + 496 + slot)


def test_vdma_copies_between_devices(rig):
    sim, devices, host = rig
    payload = (np.arange(5000) % 251).astype(np.uint8)
    done_flag = sf_flag(devices[0], 0)

    def sender():
        env = devices[0].core(0)
        yield from env.mpb_write(env.local_addr(0), payload)
        cmd = VdmaCommand(dst=MpbAddr(1, 4, 0), completion_flag=done_flag, completion_value=9)
        yield from env.device.fabric.mmio_write(
            env,
            [(REG_VDMA_ADDR, 0), (REG_VDMA_COUNT, len(payload)), (REG_VDMA_CTRL, cmd)],
            fused=True,
        )
        yield from env.wait_flag(done_flag, 9)

    sim.spawn(sender())
    sim.run()
    assert (devices[1].mpb.read(MpbAddr(1, 4, 0), 5000) == payload).all()
    assert host.vdma[0].copies_completed == 1


def test_progress_flags_follow_granules(rig):
    sim, devices, host = rig
    payload = np.ones(3840, np.uint8)
    done_flag = sf_flag(devices[0], 0)
    progress_flag = MpbAddr(1, 4, devices[1].params.mpb_payload_bytes + 0)
    seen = []

    def watcher():
        for expected in (11, 12):
            yield from devices[1].core(4).wait_flag(progress_flag, expected)
            seen.append((expected, sim.now))

    def sender():
        env = devices[0].core(0)
        yield from env.mpb_write(env.local_addr(0), payload)
        cmd = VdmaCommand(
            dst=MpbAddr(1, 4, 0),
            completion_flag=done_flag,
            completion_value=1,
            progress_flag=progress_flag,
            progress_values=(11, 12),
            granule=1920,
        )
        yield from env.device.fabric.mmio_write(
            env,
            [(REG_VDMA_ADDR, 0), (REG_VDMA_COUNT, len(payload)), (REG_VDMA_CTRL, cmd)],
            fused=True,
        )
        yield from env.wait_flag(done_flag, 1)

    sim.spawn(watcher())
    sim.spawn(sender())
    sim.run()
    assert [v for v, _t in seen] == [11, 12]
    assert seen[0][1] < seen[1][1]


def test_same_device_copy_rejected(rig):
    sim, devices, host = rig
    with pytest.raises(ValueError, match="between devices"):
        host.vdma[0].start(
            0, 0, 64,
            VdmaCommand(dst=MpbAddr(0, 5, 0), completion_flag=sf_flag(devices[0], 0)),
        )


def test_bad_count_rejected(rig):
    sim, devices, host = rig
    with pytest.raises(ValueError, match="positive"):
        host.vdma[0].start(
            0, 0, 0,
            VdmaCommand(dst=MpbAddr(1, 5, 0), completion_flag=sf_flag(devices[0], 0)),
        )


def test_missing_progress_values_rejected(rig):
    sim, devices, host = rig
    cmd = VdmaCommand(
        dst=MpbAddr(1, 4, 0),
        completion_flag=sf_flag(devices[0], 0),
        progress_flag=MpbAddr(1, 4, 7680),
        progress_values=(1,),  # 2 granules need 2 values
        granule=64,
    )
    with pytest.raises(ValueError, match="1 progress values for 2 granules"):
        host.vdma[0].start(0, 0, 128, cmd)
    # Rejected where it was programmed: no copy started, none in flight.
    assert host.vdma[0].copies_started == 0
    assert sim.metrics_snapshot()["sim.processes_spawned"] == 0.0


def test_ctrl_register_type_checked(rig):
    sim, devices, host = rig
    with pytest.raises(TypeError):
        host.tasks[0].mmio.write(0, REG_VDMA_CTRL, 1234)
