"""Additional kernel coverage: max_events, event and signal callbacks."""

from repro.sim.engine import Simulator


def test_max_events_stops_early():
    sim = Simulator()

    def ticker():
        for _ in range(100):
            yield 1.0

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
