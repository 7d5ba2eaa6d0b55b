"""Unit tests for the discrete-event kernel."""

import gc
import weakref

import pytest

from repro.sim.engine import Simulator
from repro.sim.errors import DeadlockError, InvalidYield, ProcessFailed, SimulationError


def test_delay_advances_time():
    sim = Simulator()

    def prog():
        yield 10.0
        yield 2.5
        return sim.now

    proc = sim.spawn(prog())
    sim.run()
    assert proc.result == pytest.approx(12.5)
    assert sim.now == pytest.approx(12.5)


def test_processes_interleave_deterministically():
    sim = Simulator()
    order = []

    def prog(name, step):
        for i in range(3):
            yield step
            order.append((name, sim.now))

    sim.spawn(prog("a", 2.0))
    sim.spawn(prog("b", 3.0))
    sim.run()
    # tie at t=6.0 resolves by scheduling order: b's wake-up at 6.0 was
    # enqueued (at t=3.0) before a's (at t=4.0).
    assert order == [
        ("a", 2.0), ("b", 3.0), ("a", 4.0), ("b", 6.0), ("a", 6.0), ("b", 9.0),
    ]


def test_event_wakes_waiter_with_value():
    sim = Simulator()

    def waiter(evt):
        value = yield evt
        return value

    def trigger(evt):
        yield 5.0
        evt.trigger("payload")

    evt = sim.event()
    w = sim.spawn(waiter(evt))
    sim.spawn(trigger(evt))
    sim.run()
    assert w.result == "payload"
    assert sim.now == 5.0


def test_event_is_sticky():
    sim = Simulator()
    evt = sim.event()
    evt.trigger(42)

    def late():
        value = yield evt
        return value

    proc = sim.spawn(late())
    sim.run()
    assert proc.result == 42


def test_event_double_trigger_raises():
    sim = Simulator()
    evt = sim.event()
    evt.trigger()
    with pytest.raises(Exception):
        evt.trigger()


def test_wait_on_process_returns_its_value():
    sim = Simulator()

    def child():
        yield 3.0
        return "done"

    def parent(child_proc):
        value = yield child_proc
        return value + "!"

    c = sim.spawn(child())
    p = sim.spawn(parent(c))
    sim.run()
    assert p.result == "done!"


def test_fail_fast_raises_from_run():
    """A failing process fails the run at once, under its own name and
    with its exception as the cause; a process waiting on it never
    resumes."""
    sim = Simulator()
    resumed = []

    def bad():
        yield 1.0
        raise ValueError("bad")

    def waiter(proc):
        yield proc
        resumed.append(sim.now)

    sim.spawn(waiter(sim.spawn(bad(), "bad")), "waiter")
    with pytest.raises(ProcessFailed, match="'bad' failed") as failed:
        sim.run()
    assert failed.value.process_name == "bad"
    assert repr(failed.value.__cause__) == "ValueError('bad')"
    assert (sim.now, resumed) == (1.0, [])


def test_invalid_yield_detected():
    sim = Simulator()

    def bad():
        yield "not a command"

    sim.spawn(bad())
    with pytest.raises(InvalidYield):
        sim.run()


def test_deadlock_detection():
    sim = Simulator()

    def stuck(evt):
        yield evt

    sim.spawn(stuck(sim.event()))
    with pytest.raises(DeadlockError):
        sim.run()


def test_signal_is_not_sticky():
    sim = Simulator()
    woken = []

    def waiter(sig):
        yield sig
        woken.append(sim.now)

    sig = sim.signal()
    sig.pulse()  # no waiters: lost
    sim.spawn(waiter(sig))
    sim.call_at(4.0, sig.pulse)
    sim.run()
    assert woken == [4.0]


def test_call_at_runs_callback():
    sim = Simulator()
    seen = []
    sim.call_at(7.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [7.0]


def test_spawn_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.spawn(lambda: None)


# -- cancellable timers (Simulator.after / TimerHandle) ------------------------


def test_after_fires_at_the_deadline():
    sim = Simulator()
    fired = []
    handle = sim.after(25.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [25.0]
    assert handle.fired
    assert not handle.active
    assert not handle.cancelled


def test_after_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    handle = sim.after(25.0, lambda: fired.append(sim.now))
    assert handle.active
    assert handle.cancel()
    assert handle.cancelled
    sim.run()
    assert fired == []
    # Cancelling twice is a no-op.
    assert not handle.cancel()


def test_after_cancel_after_firing_is_refused():
    sim = Simulator()
    handle = sim.after(5.0, lambda: None)
    sim.run()
    assert not handle.cancel()
    assert handle.fired


def test_after_timer_does_not_hold_the_simulation():
    """Timers are daemons: a pending timer alone never deadlocks a run."""
    sim = Simulator()
    fired = []
    sim.after(100.0, lambda: fired.append(True))

    def worker():
        yield 10.0

    sim.spawn(worker())
    sim.run()
    # The run finished; whether the daemon timer fired is incidental —
    # the point is that no DeadlockError was raised on its account.


def test_after_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.after(-1.0, lambda: None)


def test_timer_callback_may_cancel_its_own_handle():
    """Self-cancel inside the callback must not double-trigger."""
    sim = Simulator()
    outcome = []

    def fire():
        outcome.append(handle.cancel())  # refused: already fired

    handle = sim.after(3.0, fire)
    sim.run()
    assert outcome == [False]


# -- trigger semantics: the waiter and callback lists are spent once -----------


def test_waiter_parking_after_the_trigger_resumes_at_once():
    sim = Simulator()
    evt = sim.event()
    seen = []

    def trigger():
        yield 5.0
        evt.trigger("v")

    def late(delay, chain):
        yield delay
        before = sim.now
        value = yield ((evt, 2.0) if chain else evt)
        seen.append((before, sim.now, value))

    sim.spawn(trigger())
    sim.spawn(late(8.0, chain=False))
    sim.spawn(late(9.0, chain=True))
    sim.run()
    assert seen == [(8.0, 8.0, "v"), (9.0, 11.0, None)]


def test_waiter_parking_from_a_trigger_callback_resumes_with_the_value():
    sim = Simulator()
    evt = sim.event()
    seen = []

    def late():
        value = yield evt
        seen.append((sim.now, value))

    evt.on_trigger(lambda _v: sim.spawn(late()))
    sim.call_at(3.0, lambda: evt.trigger(42))
    sim.run()
    assert seen == [(3.0, 42)]


def test_on_trigger_after_the_trigger_runs_at_once():
    sim = Simulator()
    evt = sim.event()
    evt.trigger(7)
    seen = []
    evt.on_trigger(seen.append)
    assert seen == [7]


def test_on_trigger_from_inside_a_callback_runs_at_once():
    sim = Simulator()
    evt = sim.event()
    order = []

    def first(value):
        order.append(("first", value))
        evt.on_trigger(lambda v: order.append(("nested", v)))
        order.append(("first-done", value))

    evt.on_trigger(first)
    evt.on_trigger(lambda v: order.append(("second", v)))
    evt.trigger("x")
    assert order == [
        ("first", "x"), ("nested", "x"), ("first-done", "x"), ("second", "x"),
    ]


def test_second_trigger_raises_also_from_a_callback():
    sim = Simulator()
    evt = sim.event("e")
    refused = []

    def retrigger(_value):
        with pytest.raises(SimulationError):
            evt.trigger("again")
        refused.append(True)

    evt.on_trigger(retrigger)
    evt.trigger("once")
    assert refused == [True]
    assert evt.value == "once"
    with pytest.raises(SimulationError):
        evt.trigger("again")


def test_triggered_event_keeps_no_reference_to_its_callbacks():
    class Callback:
        def __call__(self, value):
            pass

    sim = Simulator()
    evt = sim.event()
    cb = Callback()
    ref = weakref.ref(cb)
    evt.on_trigger(cb)
    del cb
    gc.collect()
    assert ref() is not None
    evt.trigger()
    assert ref() is None


def test_simulator_that_ran_a_process_frees_by_refcount():
    gc.collect()
    gc.disable()
    try:
        sim = Simulator()

        def prog():
            yield 1.0
            yield (2.0, 3.0)

        sim.spawn(prog())
        sim.run()
        ref = weakref.ref(sim)
        del sim
        assert ref() is None
    finally:
        gc.enable()
