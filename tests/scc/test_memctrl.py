"""Unit tests for memory-controller contention."""

import pytest

from repro.scc.chip import SCCDevice
from repro.sim.engine import Simulator


@pytest.fixture
def dev():
    sim = Simulator()
    device = SCCDevice(sim)
    device.boot()
    return device


def test_quadrant_assignment(dev):
    mc = dev.memctrl
    assert mc.controller_of(0) == 0            # tile (0,0): west/south
    assert mc.controller_of(10) == 1           # tile (5,0): east/south
    assert mc.controller_of(37) == 2           # tile (0,3): west/north
    assert mc.controller_of(47) == 3           # tile (5,3): east/north
    # all four quadrants hold 12 cores each
    counts = [0] * 4
    for core in range(48):
        counts[mc.controller_of(core)] += 1
    assert counts == [12, 12, 12, 12]


def test_single_core_unaffected(dev):
    """Uncontended access keeps the calibrated per-line cost."""
    sim = dev.sim
    env = dev.core(0)

    def prog():
        t0 = sim.now
        yield from env.private_read(32 * 100)
        return sim.now - t0

    proc = sim.spawn(prog())
    sim.run()
    assert proc.result == pytest.approx(100 * dev.params.dram_read_line_ns())


def test_many_cores_contend(dev):
    """Twelve cores streaming in one quadrant exceed ~4 cores' worth of
    controller bandwidth and slow down; four cores do not."""
    sim = dev.sim
    quadrant_cores = [c for c in range(48) if dev.memctrl.controller_of(c) == 0]
    times = {}

    def prog(core_id):
        env = dev.core(core_id)
        t0 = sim.now
        yield from env.private_read(32 * 2000)
        times[core_id] = sim.now - t0

    for core in quadrant_cores:
        sim.spawn(prog(core))
    sim.run()
    solo = 2000 * dev.params.dram_read_line_ns()
    slowest = max(times.values())
    assert slowest > 1.5 * solo  # 12 streams into ~4 streams of bandwidth


def test_quadrants_are_independent(dev):
    """One core per quadrant: no cross-quadrant interference."""
    sim = dev.sim
    times = {}

    def prog(core_id):
        env = dev.core(core_id)
        t0 = sim.now
        yield from env.private_read(32 * 500)
        times[core_id] = sim.now - t0

    for core in (0, 10, 37, 47):
        sim.spawn(prog(core))
    sim.run()
    solo = 500 * dev.params.dram_read_line_ns()
    assert all(t == pytest.approx(solo) for t in times.values())


def test_bytes_served_accounting(dev):
    sim = dev.sim

    def prog():
        yield from dev.core(0).private_write(4096)

    sim.spawn(prog())
    sim.run()
    assert dev.memctrl.metrics_snapshot()["memctrl.bytes{mc=0}"] == 4096
