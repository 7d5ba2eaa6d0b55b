"""One-record wake-ups: ``call_at`` callbacks, posted-transfer arrivals
(``Simulator.trigger_at``) and ``after`` timers; and :class:`Record`, the
base of the host engines' multi-step records.

Each is a single object that is both the queue entry and what the
caller holds. The event stream they produce — event counts, per-source
attribution, spawned-process counts — is pinned to the values of the
process-per-timer kernel they replaced, fused and unfused.
"""

import pytest

from repro.scc.chip import SCCDevice
from repro.scc.mpb import MpbAddr
from repro.sim.engine import Record, Simulator
from repro.sim.errors import DeadlockError, ProcessFailed
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
def test_record_event_stream_is_pinned(fuse, make_sim):
    sim = make_sim(fuse)
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
def test_timer_handle_truth_table(fuse, make_sim):
    sim = make_sim(fuse)
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
    while not selfish.fired:  # step past the 30 ns timer, not the 40 ns one
        sim.run(max_events=1)
    assert sim.now == 30.0
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
    assert sim.now == 30.0  # a cancelled timer never advances the clock


def test_timer_callback_failure_fails_fast_under_the_daemon_name():
    sim = Simulator()

    def boom():
        raise RuntimeError("watchdog bug")

    handle = sim.after(5.0, boom, name="dog")
    later = sim.after(6.0, lambda: None)
    with pytest.raises(ProcessFailed, match="'daemon:dog' failed") as failed:
        sim.run()
    assert failed.value.process_name == handle.name == "daemon:dog"
    assert repr(failed.value.__cause__) == "RuntimeError('watchdog bug')"
    assert handle.fired and not handle.active
    assert sim.now == 5.0 and later.active
    assert sim.metrics_snapshot()["sim.processes_live"] == 1.0


@pytest.mark.parametrize("fuse", [True, False], ids=["fused", "unfused"])
def test_trigger_at_runs_before_then_triggers_with_the_value(fuse, make_sim):
    sim = make_sim(fuse)
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


class _Steps(Record):
    """Sleep 5 ns, wait for ``event``, then finish with its value or fail."""

    __slots__ = ("event", "fail", "log")

    def __init__(self, sim, event, fail=False, name="daemon:steps.e0"):
        self.event = event
        self.fail = fail
        self.log = []
        Record.__init__(self, sim, name, self._start)

    def _start(self, _):
        self.log.append((0, self.sim.now))
        self._sleep(5.0, self._park)

    def _park(self, _):
        self.log.append((1, self.sim.now))
        self._wait(self.event, self._end)

    def _end(self, value):
        self.log.append((2, self.sim.now))
        if self.fail:
            raise RuntimeError("engine bug")
        self._finish(value)


@pytest.mark.parametrize("fuse", [True, False], ids=["fused", "unfused"])
def test_record_takes_a_spawns_start_slot_and_source(fuse, make_sim):
    sim = make_sim(fuse)
    event = sim.event()
    order = []

    def first():
        order.append("first")
        yield 0.0

    sim.spawn(first(), "first")
    record = _Steps(sim, event)
    # Its body runs in its start slot, after the process spawned before it.
    assert record.log == []
    sim.call_at(20.0, lambda: event.trigger("value"))
    seen = []

    def waiter():
        seen.append((yield record))

    sim.spawn(waiter(), "waiter")
    while len(record.log) < 2:  # step to the record's 5 ns wake-up
        sim.run(max_events=1)
    assert sim.now == 5.0
    assert order == ["first"]
    assert record.log == [(0, 0.0), (1, 5.0)]
    snap = sim.metrics_snapshot()
    assert snap["sim.processes_live"] == 2.0  # the record and its waiter
    sim.run()
    assert record.log[-1] == (2, 20.0)
    assert seen == ["value"] and record.value == "value"
    snap = sim.metrics_snapshot()
    assert snap["sim.processes_spawned"] == 4.0  # two processes, a record, call_at
    assert snap["sim.processes_live"] == 0.0
    assert snap["kernel.events{source=daemon:steps}"] == 3.0
    # Interned at construction, as spawn interns: the table keeps that order.
    assert [k for k in snap if k.startswith("kernel.events")] == [
        "kernel.events{source=first}",
        "kernel.events{source=daemon:steps}",
        "kernel.events{source=call_at}",
        "kernel.events{source=waiter}",
    ]


@pytest.mark.parametrize("fuse", [True, False], ids=["fused", "unfused"])
def test_record_failure_fails_fast_under_its_daemon_name(fuse, make_sim):
    sim = make_sim(fuse)
    event = sim.event()
    record = _Steps(sim, event, fail=True)
    sim.call_at(8.0, event.trigger)
    resumed = []

    def waiter():
        yield record
        resumed.append(sim.now)

    sim.spawn(waiter(), "waiter")
    with pytest.raises(ProcessFailed, match="'daemon:steps.e0' failed") as failed:
        sim.run()
    assert failed.value.process_name == record.name
    assert repr(failed.value.__cause__) == "RuntimeError('engine bug')"
    assert (sim.now, resumed) == (8.0, [])
    assert record.log[-1] == (2, 8.0) and not record.triggered
    # The record is over; its waiter stays parked.
    assert sim.metrics_snapshot()["sim.processes_live"] == 1.0


def test_parked_record_counts_as_live_but_never_deadlocks():
    sim = Simulator()
    record = _Steps(sim, sim.event("never"))
    event = sim.event("also-never")

    def stuck():
        yield event

    sim.spawn(stuck(), "stuck")
    with pytest.raises(DeadlockError) as deadlock:
        sim.run()
    assert deadlock.value.waiting == ["stuck"]
    assert record.log == [(0, 0.0), (1, 5.0)]
    assert sim.metrics_snapshot()["sim.processes_live"] == 2.0
