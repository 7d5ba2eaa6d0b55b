"""One-record wake-ups: ``call_at`` callbacks, posted-transfer arrivals
(``Simulator.trigger_at``) and ``after`` timers.

Each is a single object that is both the queue entry and what the
caller holds. The event stream they produce — event counts, per-source
attribution, spawned-process counts — is pinned to the values of the
process-per-timer kernel they replaced, fused and unfused.
"""

import pytest

from repro.scc.chip import SCCDevice
from repro.scc.mpb import MpbAddr
from repro.sim.engine import Simulator
from repro.sim.errors import ProcessFailed
from repro.sim.resources import Link


def _record_program(sim):
    """Posted Link transfers, remote flag writes and four kinds of timer:
    fired, cancelled before arming, cancelled while armed, and one that
    tries to cancel itself from its own callback."""
    dev = SCCDevice(sim)
    sender, receiver = dev.core(0), dev.core(10)
    flag = MpbAddr(0, 10, dev.params.mpb_payload_bytes + 5)
    wire = Link(sim, "wire", latency_ns=40.0, bandwidth_bpns=2.0, overhead_ns=3.0)
    log = []

    sim.after(30.0, lambda: log.append(("fired", sim.now)), name="fire")
    cancelled = sim.after(50.0, lambda: log.append(("never", sim.now)), name="cancel")
    late = sim.after(500.0, lambda: log.append(("never", sim.now)), name="late")

    def self_cancel():
        log.append(("self", sim.now, mid.active, mid.cancel()))

    mid = sim.after(70.0, self_cancel, name="self")
    cancelled.cancel()

    def poster():
        events = [
            wire.post(64, lambda i=i: log.append(("commit", i, sim.now)), payload=i)
            for i in range(3)
        ]
        value = yield events[0]
        log.append(("first", value, sim.now))
        yield (events[2], 1.5)
        log.append(("last", sim.now))
        late.cancel()
        yield from sender.set_flag(flag, 7)  # remote: lands via call_at
        yield from sender.set_flag(flag, 9)

    def waiter():
        yield from receiver.wait_flag(flag, 9)
        log.append(("flag", sim.now))

    sim.spawn(poster(), "poster")
    sim.spawn(waiter(), "waiter")
    return log


#: Counters of the process-per-timer kernel on ``_record_program``.
PINNED = {
    True: {
        "sim.events": 15.0,
        "sim.processes_spawned": 11.0,
        "kernel.fused_yields": 2.0,
        "kernel.events{source=daemon:fire}": 1.0,
        "kernel.events{source=daemon:self}": 1.0,
        "kernel.events{source=poster}": 5.0,
        "kernel.events{source=waiter}": 3.0,
        "kernel.events{source=call_at}": 5.0,
    },
    False: {
        "sim.events": 25.0,
        "sim.processes_spawned": 11.0,
        "kernel.fused_yields": 0.0,
        "kernel.events{source=daemon:fire}": 2.0,
        "kernel.events{source=daemon:late}": 1.0,
        "kernel.events{source=daemon:self}": 2.0,
        "kernel.events{source=poster}": 6.0,
        "kernel.events{source=waiter}": 4.0,
        "kernel.events{source=call_at}": 10.0,
    },
}

PINNED_LOG = [
    ("fired", 30.0),
    ("self", 70.0, True, False),
    ("commit", 0, 75.0),
    ("first", 0, 75.0),
    ("commit", 1, 110.0),
    ("commit", 2, 145.0),
    ("last", 146.5),
    ("flag", 294.0609756097561),
]


@pytest.mark.parametrize("fuse", [True, False], ids=["fused", "unfused"])
def test_record_event_stream_is_pinned(fuse):
    sim = Simulator(fuse_delays=fuse)
    log = _record_program(sim)
    sim.run()
    snap = sim.metrics_snapshot()
    counters = {
        k: v for k, v in snap.items()
        if k.startswith("kernel.") or k in ("sim.events", "sim.processes_spawned")
    }
    assert counters == PINNED[fuse]
    assert sim.events_processed == PINNED[fuse]["sim.events"]
    assert log == PINNED_LOG
    assert sim.now == 294.0609756097561
    assert snap["sim.processes_live"] == 0.0


@pytest.mark.parametrize("fuse", [True, False], ids=["fused", "unfused"])
def test_timer_handle_truth_table(fuse):
    sim = Simulator(fuse_delays=fuse)
    states = {}

    def state(handle):
        return (handle.active, handle.cancelled, handle.fired)

    def self_cancel():
        states["inside"] = state(selfish)
        states["self-cancel"] = selfish.cancel()

    fired = sim.after(10.0, lambda: None)
    cancelled = sim.after(20.0, lambda: None)
    selfish = sim.after(30.0, self_cancel)
    armed = sim.after(40.0, lambda: None)
    assert state(armed) == (True, False, False)
    assert sim.metrics_snapshot()["sim.processes_live"] == 4.0
    assert cancelled.cancel()
    assert not cancelled.cancel()
    assert sim.metrics_snapshot()["sim.processes_live"] == 3.0
    sim.run(until=35.0)
    assert state(armed) == (True, False, False)
    assert state(cancelled) == (False, True, False)
    assert state(fired) == (False, False, True)
    assert states == {"inside": (True, False, True), "self-cancel": False}
    assert state(selfish) == (False, False, True)
    assert not fired.cancel() and not selfish.cancel()
    assert sim.metrics_snapshot()["sim.processes_live"] == 1.0
    assert armed.cancel()
    assert state(armed) == (False, True, False)
    assert sim.metrics_snapshot()["sim.processes_live"] == 0.0
    sim.run()
    assert sim.now == 35.0  # a cancelled timer never advances the clock


def test_timer_callback_failure_fails_fast_under_the_daemon_name():
    sim = Simulator()

    def boom():
        raise RuntimeError("watchdog bug")

    handle = sim.after(5.0, boom, name="dog")
    with pytest.raises(ProcessFailed, match="daemon:dog"):
        sim.run()
    assert handle.fired and not handle.active
    assert isinstance(handle.failure, RuntimeError)
    assert sim.metrics_snapshot()["sim.processes_live"] == 0.0


def test_timer_callback_failure_is_collected_without_fail_fast():
    sim = Simulator(fail_fast=False)
    handle = sim.after(5.0, lambda: 1 / 0, name="dog")
    sim.after(6.0, lambda: None)
    sim.run()
    assert sim.now == 6.0
    assert sim.failures == [handle]
    assert handle.name == "daemon:dog"
    assert isinstance(handle.failure, ZeroDivisionError)


@pytest.mark.parametrize("fuse", [True, False], ids=["fused", "unfused"])
def test_trigger_at_runs_before_then_triggers_with_the_value(fuse):
    sim = Simulator(fuse_delays=fuse)
    seen = []
    event = sim.trigger_at(12.5, value="payload", before=lambda: seen.append(sim.now))
    assert not event.triggered

    def waiter():
        value = yield event
        seen.append((value, sim.now))

    sim.spawn(waiter())
    sim.run()
    assert seen == [12.5, ("payload", 12.5)]
    assert event.value == "payload"
    # A time already past fires at the current instant.
    late = sim.trigger_at(1.0, value=3)
    sim.run()
    assert late.value == 3 and sim.now == 12.5
