"""Unit tests for the host DMA engine.

``pull`` and ``push`` return the transfer's kernel record; a process
waits for the transfer by yielding it.
"""

import numpy as np
import pytest

from repro.host.dma import DMAEngine
from repro.host.pcie import PCIeCable, PCIeParams
from repro.scc.chip import SCCDevice
from repro.scc.mpb import MpbAddr
from repro.sim.engine import Simulator


@pytest.fixture
def rig():
    sim = Simulator()
    dev = SCCDevice(sim)
    dev.boot()
    cable = PCIeCable(sim, PCIeParams(), dev)
    return sim, dev, DMAEngine(cable, granule=1920)


def test_pull_delivers_granules_in_order(rig):
    sim, dev, dma = rig
    payload = (np.arange(5000) % 251).astype(np.uint8)
    dev.mpb.write(MpbAddr(0, 3, 0), payload[:5000])
    chunks = []

    def prog():
        yield dma.pull(MpbAddr(0, 3, 0), 5000, lambda off, d: chunks.append((off, d)))

    sim.spawn(prog())
    sim.run()
    assert [off for off, _d in chunks] == [0, 1920, 3840]
    assembled = np.concatenate([d for _off, d in chunks])
    assert (assembled == payload).all()


def test_push_commits_progressively(rig):
    """Each granule lands in device memory at its own arrival: a watcher
    on a granule's last byte sees the payload up to it and none past it."""
    sim, dev, dma = rig
    base = MpbAddr(0, 7, 0)
    payload = (np.arange(4000) % 250 + 1).astype(np.uint8)
    progress = []

    def watcher(end):
        yield dev.mpb.watch(base + (end - 1))
        progress.append((end, int(np.count_nonzero(dev.mpb.read(base, 4000)))))

    def prog():
        yield dma.push(base, payload)

    for end in (1920, 3840, 4000):
        sim.spawn(watcher(end))
    sim.spawn(prog())
    sim.run()
    assert progress == [(1920, 1920), (3840, 3840), (4000, 4000)]
    assert (dev.mpb.read(base, 4000) == payload).all()


def test_granule_override(rig):
    sim, dev, dma = rig
    sizes = []

    def prog():
        yield dma.pull(MpbAddr(0, 0, 0), 1024, lambda off, d: sizes.append(len(d)), granule=256)

    sim.spawn(prog())
    sim.run()
    assert sizes == [256] * 4


def test_wrong_device_rejected(rig):
    """A device mismatch raises when the transfer is requested."""
    sim, dev, dma = rig
    with pytest.raises(ValueError, match="not on device 0"):
        dma.pull(MpbAddr(1, 0, 0), 32, lambda o, d: None)
    with pytest.raises(ValueError, match="not on device 0"):
        dma.push(MpbAddr(1, 0, 0), np.zeros(32, np.uint8))
    assert sim.metrics_snapshot()["sim.processes_spawned"] == 0.0


def test_throughput_includes_descriptor_setup(rig):
    sim, dev, dma = rig
    params = dma.cable.params

    def prog():
        t0 = sim.now
        yield dma.pull(MpbAddr(0, 0, 0), 1920, lambda o, d: None)
        return sim.now - t0

    proc = sim.spawn(prog())
    sim.run()
    expected = (
        params.packet_overhead_ns
        + params.dma_setup_ns
        + 1920 / params.bandwidth_bpns
        + params.latency_ns
    )
    assert proc.result == pytest.approx(expected)


@pytest.mark.parametrize("fuse", [True, False], ids=["fused", "unfused"])
def test_pull_samples_memory_in_its_start_slot(fuse, make_sim):
    """A same-instant write made after ``pull`` is called, but before the
    pull's start slot, is in the pulled data."""
    sim = make_sim(fuse)
    dev = SCCDevice(sim)
    dev.boot()
    dma = DMAEngine(PCIeCable(sim, PCIeParams(), dev), granule=1920)
    addr = MpbAddr(0, 3, 0)
    dev.mpb.write(addr, np.full(64, 1, np.uint8))
    pulled = []

    def prog():
        transfer = dma.pull(addr, 64, lambda off, d: pulled.append(bytes(d)))
        dev.mpb.write(addr, np.full(64, 7, np.uint8))
        yield transfer

    sim.spawn(prog())
    sim.run()
    assert pulled == [bytes([7]) * 64]
    assert dma.bytes_pulled == 64
