"""Unit tests for voltage/frequency domain management."""

import pytest

from repro.scc.chip import SCCDevice
from repro.scc.mpb import MpbAddr
from repro.scc.power import GLOBAL_CLOCK_MHZ, VOLTAGE_LEVELS
from repro.sim.engine import Simulator


@pytest.fixture
def dev():
    sim = Simulator()
    device = SCCDevice(sim)
    device.boot()
    return device


def test_paper_baseline_is_divider_3(dev):
    """533 MHz = 1600 MHz / 3 (§4 footnote 4)."""
    assert dev.power.base_divider == 3
    assert dev.power.frequency_mhz(0) == pytest.approx(533.33, rel=1e-3)
    assert dev.power.clock_scale(0) == 1.0


def test_six_voltage_domains_of_four_tiles(dev):
    power = dev.power
    assert power.num_voltage_domains == 6
    sizes = [len(power.tiles_in_domain(d)) for d in range(6)]
    assert sizes == [4] * 6
    # 2x2 blocks: tiles (0,0),(1,0),(0,1),(1,1) share domain 0
    params = dev.params
    assert {power.voltage_domain(params.tile_at(x, y)) for x in (0, 1) for y in (0, 1)} == {0}


def test_down_clocking_slows_compute_proportionally(dev):
    sim = dev.sim
    env = dev.core(0)

    def timed():
        t0 = sim.now
        yield from env.compute(cycles=100000)
        return sim.now - t0

    base = sim.spawn(timed())
    sim.run()

    def reclock():
        yield from dev.power.set_frequency(0, env.tile, 6)

    sim.spawn(reclock())
    sim.run()
    slow = sim.spawn(timed())
    sim.run()
    assert slow.result == pytest.approx(2 * base.result)


def test_down_clocking_slows_communication(dev):
    sim = dev.sim
    env = dev.core(0)

    def timed():
        t0 = sim.now
        yield from env.mpb_write(env.local_addr(0), b"\x01" * 1024)
        return sim.now - t0

    base = sim.spawn(timed())
    sim.run()

    def reclock():
        yield from dev.power.set_frequency(0, env.tile, 6)

    sim.spawn(reclock())
    sim.run()
    slow = sim.spawn(timed())
    sim.run()
    assert slow.result == pytest.approx(2 * base.result)


def test_frequency_needs_voltage(dev):
    sim = dev.sim

    def overclock():
        yield from dev.power.set_frequency(0, 0, 2)  # 800 MHz at 0.9 V

    sim.spawn(overclock())
    with pytest.raises(Exception, match="V"):
        sim.run()


def test_voltage_ramp_enables_faster_divider(dev):
    sim = dev.sim

    def prog():
        yield from dev.power.set_voltage(0, 0, 1.1)
        yield from dev.power.set_frequency(0, 0, 2)

    sim.spawn(prog())
    sim.run()
    assert dev.power.frequency_mhz(0) == pytest.approx(800.0)
    assert dev.power.voltage_ramps == 1


def test_lowering_voltage_under_fast_tile_refused(dev):
    sim = dev.sim

    def prog():
        yield from dev.power.set_voltage(0, 0, 0.7)  # tiles at divider 3 need 0.9

    sim.spawn(prog())
    with pytest.raises(Exception, match="lower its frequency"):
        sim.run()


def test_divider_bounds(dev):
    with pytest.raises(ValueError):
        list(dev.power.set_frequency(0, 0, 1))
    with pytest.raises(ValueError):
        list(dev.power.set_voltage(0, 0, 0.95))


@pytest.mark.parametrize("core, scale", [(0, 2.0), (2, 1.0)])
def test_reclocked_tile_scales_flag_and_chunk_costs_exactly(dev, core, scale):
    """Divider 6 doubles every core-cycle cost on tile 0 — remote flag
    writes, flag polls, chunk gets and flag reads alike — while core 2
    on tile 1 keeps the calibrated costs."""
    sim, p = dev.sim, dev.params

    def reclock():
        yield from dev.power.set_frequency(0, 0, 6)

    sim.spawn(reclock())
    sim.run()
    assert dev.power.scales[:2] == [2.0, 1.0]
    env = dev.core(core)
    assert env.clock_scale == scale

    hops = p.hops(core, 20)  # core 20 sits on tile 10, off both tiles
    remote_flag = MpbAddr(0, 20, p.mpb_payload_bytes + 1)
    local_flag = MpbAddr(0, core, p.mpb_payload_bytes + 2)
    spans = {}

    def timed(label, op):
        t0 = sim.now
        yield from op
        spans[label] = (t0, sim.now)

    def program():
        yield from timed("set_flag", env.set_flag(remote_flag, 3))
        dev.mpb.write_byte(local_flag, 4)
        yield from timed("wait_flag", env.wait_flag(local_flag, 4))
        yield from timed("get_chunk", env.get_chunk(MpbAddr(0, 20, 0), 64))
        yield from timed("read_flag", env.read_flag(remote_flag))

    sim.spawn(program())
    sim.run()
    poll = p.core_clock.cycles(p.flag_poll_cycles) + p.local_read_ns()
    cl1 = p.core_clock.cycles(p.cl1invmb_cycles)
    expected = {
        "set_flag": lambda t: t + p.remote_write_ns(hops) * scale,
        "wait_flag": lambda t: t + poll * scale,
        "get_chunk": lambda t: ((t + cl1 * scale) + (2 * p.remote_read_ns(hops)) * scale)
        + (2 * p.dram_write_line_ns()) * scale,
        "read_flag": lambda t: t + p.remote_read_ns(hops) * scale,
    }
    for label, (t0, t1) in spans.items():
        assert t1 == expected[label](t0), label
