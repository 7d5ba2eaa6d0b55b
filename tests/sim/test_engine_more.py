"""Additional kernel coverage: run_until, max_events."""

import pytest

from repro.sim.engine import Delay, Simulator
from repro.sim.errors import DeadlockError, SimulationError


def test_run_until_event():
    sim = Simulator()
    evt = sim.event()

    def trigger():
        yield Delay(25.0)
        evt.trigger("v")

    def background():
        for _ in range(100):
            yield Delay(10.0)

    sim.spawn(trigger())
    sim.spawn(background())
    value = sim.run_until(evt)
    assert value == "v"
    assert sim.now == 25.0  # stopped at the trigger, not the background end


def test_run_until_time_limit():
    sim = Simulator()
    evt = sim.event()

    def never():
        while True:
            yield Delay(10.0)

    sim.spawn(never())
    with pytest.raises(SimulationError, match="limit"):
        sim.run_until(evt, limit=100.0)


def test_run_until_deadlock_detected():
    sim = Simulator()
    evt = sim.event()
    other = sim.event()

    def stuck():
        yield other

    sim.spawn(stuck())
    with pytest.raises(DeadlockError):
        sim.run_until(evt)


def test_max_events_stops_early():
    sim = Simulator()

    def ticker():
        for _ in range(100):
            yield Delay(1.0)

    sim.spawn(ticker())
    sim.run(max_events=10)
    assert sim.now < 11.0


def test_event_on_trigger_immediate_when_set():
    sim = Simulator()
    evt = sim.event()
    evt.trigger(5)
    seen = []
    evt.on_trigger(lambda v: seen.append(v))
    assert seen == [5]


def test_signal_once_fires_single_pulse():
    sim = Simulator()
    sig = sim.signal()
    count = []
    sig.once(lambda: count.append(1))
    sig.pulse()
    sig.pulse()
    assert count == [1]
