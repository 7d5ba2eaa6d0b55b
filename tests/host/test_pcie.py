"""Unit tests for the PCIe cable model and its stability rules."""

import pytest

from repro.host.driver import Host
from repro.host.pcie import PCIeCable, PCIeParams
from repro.scc.chip import SCCDevice
from repro.sim.engine import Simulator


def make_devices(sim, n):
    devices = [SCCDevice(sim, device_id=i) for i in range(n)]
    for dev in devices:
        dev.boot()
    return devices


def test_cable_carries_both_directions():
    sim = Simulator()
    [dev] = make_devices(sim, 1)
    cable = PCIeCable(sim, PCIeParams(), dev)
    cable.up.post(100)
    cable.down.post(50)
    sim.run()
    snap = cable.metrics_snapshot()
    assert snap["pcie.bytes{device=0,dir=up}"] == 100
    assert snap["pcie.bytes{device=0,dir=down}"] == 50


def test_params_validation():
    with pytest.raises(ValueError):
        PCIeParams(bandwidth_bpns=0)
    with pytest.raises(ValueError):
        PCIeParams(latency_ns=-1)
    with pytest.raises(ValueError):
        PCIeParams(response_buffer_lines=0)


def test_interdevice_rtt_anchor():
    """§3: an inter-device access costs ~10^4 core cycles."""
    from repro.bench.figures import latency_anchors

    anchors = latency_anchors()
    assert 0.5e4 <= anchors["interdevice_cycles"] <= 2e4
    assert 60 <= anchors["ratio"] <= 220


def test_fast_write_ack_unstable_beyond_two_devices():
    sim = Simulator()
    devices = make_devices(sim, 3)
    with pytest.raises(ValueError, match="unstable"):
        Host(sim, devices, fast_write_ack=True)
    # but explicitly allowed for modelling
    Host(sim, devices, fast_write_ack=True, allow_unstable=True)


def test_fast_write_ack_fine_for_two_devices():
    sim = Simulator()
    devices = make_devices(sim, 2)
    Host(sim, devices, fast_write_ack=True)


def test_host_device_limit_is_five():
    sim = Simulator()
    devices = make_devices(sim, 5)
    Host(sim, devices)
    sim2 = Simulator()
    with pytest.raises(ValueError, match="at most 5"):
        Host(sim2, make_devices(sim2, 6))
