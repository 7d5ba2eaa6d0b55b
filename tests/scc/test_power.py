"""Unit tests for the core clock frequency, which only SCCParams sets."""

import pytest

from repro.scc.chip import SCCDevice
from repro.scc.mpb import MpbAddr
from repro.scc.params import SCCParams
from repro.sim.engine import Simulator


def _device(core_freq_mhz: float) -> SCCDevice:
    device = SCCDevice(Simulator(), SCCParams(core_freq_mhz=core_freq_mhz))
    device.boot()
    return device


def _elapsed(device: SCCDevice, op) -> float:
    sim = device.sim

    def timed():
        t0 = sim.now
        yield from op
        return sim.now - t0

    proc = sim.spawn(timed())
    sim.run()
    return proc.result


def test_down_clocking_slows_compute_proportionally():
    base, slow = _device(533.0), _device(266.5)
    base_ns = _elapsed(base, base.core(0).compute(cycles=100000))
    slow_ns = _elapsed(slow, slow.core(0).compute(cycles=100000))
    assert slow_ns == pytest.approx(2 * base_ns)


def test_down_clocking_slows_communication():
    def write_ns(device):
        env = device.core(0)
        return _elapsed(device, env.mpb_write(env.local_addr(0), b"\x01" * 1024))

    assert write_ns(_device(266.5)) == pytest.approx(2 * write_ns(_device(533.0)))


def test_remote_read_scales_only_its_core_cycle_part():
    """At 400 MHz a remote MPB line read pays its base in 400 MHz core
    cycles; the per-hop router cost stays in 800 MHz mesh cycles."""
    base, slow = SCCParams(), SCCParams(core_freq_mhz=400.0)
    device = _device(400.0)
    hops = slow.hops(0, 47)
    elapsed = _elapsed(device, device.core(0).mpb_read(MpbAddr(0, 47, 0), 32))
    core_part = slow.core_clock.cycles(slow.mpb_remote_read_base_cycles)
    mesh_part = slow.mesh_clock.cycles(2 * slow.mesh_hop_mesh_cycles * hops)
    assert elapsed == core_part + mesh_part
    assert mesh_part == base.mesh_clock.cycles(2 * base.mesh_hop_mesh_cycles * hops)
    assert core_part == pytest.approx(
        base.core_clock.cycles(base.mpb_remote_read_base_cycles) * 533.0 / 400.0
    )
