"""Unit tests for CoreEnv memory operations and timing."""

import numpy as np
import pytest

import repro.scc.core
from repro.scc.chip import SCCDevice
from repro.scc.mpb import MpbAddr
from repro.sim.engine import Simulator
from repro.sim.errors import ProcessFailed, SimulationError


@pytest.fixture
def dev():
    sim = Simulator()
    device = SCCDevice(sim)
    device.boot()
    return device


def run(sim, gen):
    proc = sim.spawn(gen)
    sim.run()
    return proc.result


def test_local_write_then_read(dev):
    env = dev.core(0)

    def prog():
        yield from env.mpb_write(env.local_addr(0), b"payload!")
        data = yield from env.mpb_read(env.local_addr(0), 8)
        return bytes(data)

    assert run(dev.sim, prog()) == b"payload!"


def test_remote_read_slower_than_local(dev):
    def timed(env, addr):
        sim = env.sim
        t0 = sim.now
        yield from env.cl1invmb()
        yield from env.mpb_read(addr, 32)
        return sim.now - t0

    local = run(dev.sim, timed(dev.core(0), MpbAddr(0, 1, 0)))
    sim2 = Simulator()
    dev2 = SCCDevice(sim2)
    dev2.boot()
    remote = run(sim2, timed(dev2.core(0), MpbAddr(0, 47, 0)))
    assert remote > 2 * local


def test_l1_hit_discount_until_invalidate(dev):
    env = dev.core(0)

    def prog():
        yield from env.mpb_write(env.local_addr(0), b"\x01" * 32)
        t0 = dev.sim.now
        yield from env.mpb_read(env.local_addr(0), 32)
        cold = dev.sim.now - t0
        t0 = dev.sim.now
        yield from env.mpb_read(env.local_addr(0), 32)
        warm = dev.sim.now - t0
        yield from env.cl1invmb()
        t0 = dev.sim.now
        yield from env.mpb_read(env.local_addr(0), 32)
        again_cold = dev.sim.now - t0
        return cold, warm, again_cold

    cold, warm, again_cold = run(dev.sim, prog())
    assert warm < cold
    assert again_cold == pytest.approx(cold)


def test_remote_write_commits_after_delay(dev):
    env = dev.core(0)
    target = MpbAddr(0, 47, 0)
    snapshots = {}

    def writer():
        yield from env.mpb_write(target, b"\xff" * 32)
        # issue returned: data may not be visible yet (posted write)
        snapshots["at_issue"] = int(dev.mpb.read_byte(target))

    dev.sim.spawn(writer())
    dev.sim.run()
    snapshots["final"] = int(dev.mpb.read_byte(target))
    assert snapshots["final"] == 0xFF
    assert snapshots["at_issue"] == 0  # not yet arrived at issue time


def test_mpb_write_stores_one_byte_per_element_on_any_target(dev):
    """A non-uint8 array lands as the same bytes locally and remotely."""
    env = dev.core(0)
    data = np.array([1, 2, 3, 4], np.int32)
    own, remote = env.local_addr(0), MpbAddr(0, 20, 0)

    def prog():
        yield from env.mpb_write(own, data)
        yield from env.mpb_write(remote, data)
        yield 10_000.0  # let the posted remote write arrive
        yield from env.cl1invmb()
        mine = yield from env.mpb_read(own, 8)
        theirs = yield from env.mpb_read(remote, 8)
        return bytes(mine), bytes(theirs)

    expected = bytes([1, 2, 3, 4, 0, 0, 0, 0])
    assert run(dev.sim, prog()) == (expected, expected)


def test_flag_set_and_wait(dev):
    flag = MpbAddr(0, 10, dev.params.mpb_payload_bytes)
    done = {}

    def waiter():
        yield from dev.core(10).wait_flag(flag, 7)
        done["t"] = dev.sim.now

    def setter():
        yield from dev.core(0).compute(cycles=1000)
        yield from dev.core(0).set_flag(flag, 7)

    dev.sim.spawn(waiter())
    dev.sim.spawn(setter())
    dev.sim.run()
    assert done["t"] > dev.params.core_clock.cycles(1000)


def test_wait_flag_rejects_remote_flag(dev):
    with pytest.raises(SimulationError):
        gen = dev.core(0).wait_flag(MpbAddr(0, 47, 8000), 1)
        dev.sim.spawn(gen)
        dev.sim.run()


def _run_past_the_flag_guard(dev, monkeypatch, waiter, flag):
    """Run ``waiter`` on core 0 against a poller on core 1 that keeps
    writing a wrong value to ``flag``, with the flag-wait guard lowered
    to 1 ms; return the cause of the run's failure."""
    monkeypatch.setattr(repro.scc.core, "DEFAULT_FLAG_TIMEOUT_NS", 1e6)

    def noise():
        for _ in range(300):
            yield from dev.core(1).compute(cycles=5000)
            dev.mpb.write_byte(flag, 0)  # wrong value, wakes the watcher

    dev.sim.spawn(waiter(), "waiter")
    dev.sim.spawn(noise(), "noise")
    with pytest.raises(ProcessFailed, match="'waiter' failed") as failed:
        dev.sim.run()
    assert 1e6 < dev.sim.now < 2e6
    return failed.value.__cause__


def test_wait_flag_timeout(dev, monkeypatch):
    flag = dev.core(0).local_addr(8000)

    def waiter():
        yield from dev.core(0).wait_flag(flag, 1)

    cause = _run_past_the_flag_guard(dev, monkeypatch, waiter, flag)
    assert type(cause) is SimulationError
    assert str(cause).startswith("flag wait timed out: dev 0 core 0")


def test_wait_any_flag_timeout(dev, monkeypatch):
    flags = [dev.core(0).local_addr(8000), dev.core(0).local_addr(8001)]

    def waiter():
        yield from dev.core(0).wait_any_flag([(f, lambda v: v == 1) for f in flags])

    cause = _run_past_the_flag_guard(dev, monkeypatch, waiter, flags[0])
    assert type(cause) is SimulationError
    assert str(cause) == "wait_any_flag timed out on core 0"


def test_compute_flops(dev):
    env = dev.core(0)

    def prog():
        t0 = dev.sim.now
        yield from env.compute_flops(1e6, 0.15)
        return dev.sim.now - t0

    elapsed = run(dev.sim, prog())
    # 1e6 flops at 0.15 flop/cycle at 533 MHz
    assert elapsed == pytest.approx(1e6 / 0.15 / 533e6 * 1e9, rel=1e-6)


def test_offdie_access_without_fabric_raises(dev):
    def prog():
        yield from dev.core(0).mpb_read(MpbAddr(1, 0, 0), 32)

    dev.sim.spawn(prog())
    with pytest.raises(Exception):
        dev.sim.run()
