"""Unit tests for the kernel hot paths: bare-number yields + zero-delay lane.

These pin the behaviours the hot-path overhaul introduced: a bare
``float``/``int`` yield advances time by its value, negative bare
numbers are invalid yields, and the zero-delay fast lane preserves the
global (time, seq) dispatch order against heap-scheduled wake-ups.
"""

import pytest

from repro.sim.engine import Event, Simulator
from repro.sim.errors import DeadlockError, InvalidYield


def test_bare_float_yield_advances_time():
    sim = Simulator()

    def prog():
        yield 10.0
        yield 2.5
        return sim.now

    proc = sim.spawn(prog())
    sim.run()
    assert proc.result == pytest.approx(12.5)


def test_bare_int_yield_advances_time():
    sim = Simulator()

    def prog():
        yield 7
        yield 3
        return sim.now

    proc = sim.spawn(prog())
    sim.run()
    assert proc.result == pytest.approx(10.0)


def test_negative_bare_yield_is_invalid():
    sim = Simulator()

    def prog():
        yield -1.0

    sim.spawn(prog())
    with pytest.raises(InvalidYield):
        sim.run()


def test_zero_delay_yields_preserve_seq_order():
    """A zero-delay storm interleaves in exact spawn order, round-robin."""
    sim = Simulator()
    order = []

    def prog(name):
        for i in range(3):
            order.append((name, i))
            yield 0.0

    sim.spawn(prog("a"))
    sim.spawn(prog("b"))
    sim.run()
    assert order == [
        ("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2), ("b", 2),
    ]


def test_fast_lane_merges_with_heap_in_time_order():
    """Zero-delay wake-ups at t dispatch before heap entries at t' > t,
    and after heap entries scheduled earlier for the same time."""
    sim = Simulator()
    order = []

    def delayed():
        yield 5.0
        order.append("delayed@5")

    def chatty():
        yield 5.0
        order.append("chatty@5")
        yield 0.0
        order.append("chatty-zero@5")
        yield 1.0
        order.append("chatty@6")

    sim.spawn(delayed())
    sim.spawn(chatty())
    sim.run()
    assert order == ["delayed@5", "chatty@5", "chatty-zero@5", "chatty@6"]
    assert sim.now == pytest.approx(6.0)


def test_event_trigger_uses_fast_lane_deterministically():
    """Waiters woken by a trigger resume in registration order."""
    sim = Simulator()
    evt = Event(sim, "gate")
    order = []

    def waiter(name):
        yield evt
        order.append(name)

    for name in ("w1", "w2", "w3"):
        sim.spawn(waiter(name), name=name)

    def firer():
        yield 1.0
        evt.trigger("go")

    sim.spawn(firer())
    sim.run()
    assert order == ["w1", "w2", "w3"]


def test_deadlock_detected_with_empty_fast_lane():
    sim = Simulator()

    def stuck(evt):
        yield evt

    sim.spawn(stuck(sim.event("never")))
    with pytest.raises(DeadlockError):
        sim.run()


# -- NaN delays ------------------------------------------------------------------
#
# ``nan < 0`` is False, so a NaN slipped past every negative-delay check
# and woke its process at ``sim.now = nan``, ahead of wake-ups that were
# due earlier. Each entry point now rejects it.

NAN = float("nan")


@pytest.mark.parametrize("fuse", [True, False], ids=["fused", "unfused"])
@pytest.mark.parametrize(
    "command,message",
    [
        (NAN, "process 'p' yielded a NaN delay nan"),
        ((1.0, NAN), "process 'p' yielded a NaN delay nan inside a chain"),
        ((NAN, 1.0), "process 'p' yielded a NaN delay nan inside a chain"),
    ],
    ids=["bare", "chain-tail", "chain-head"],
)
def test_nan_yield_is_invalid(command, message, fuse):
    sim = Simulator(fuse_delays=fuse)
    woken = []

    def other():
        yield 5.0
        woken.append(sim.now)

    def prog():
        yield command

    sim.spawn(other(), "other")
    sim.spawn(prog(), "p")
    with pytest.raises(InvalidYield) as info:
        sim.run()
    assert str(info.value) == message
    assert sim.now == 0.0 and woken == []


@pytest.mark.parametrize("fuse", [True, False], ids=["fused", "unfused"])
def test_nan_tail_of_a_waitable_headed_chain_is_invalid(fuse):
    sim = Simulator(fuse_delays=fuse)
    sig = sim.signal()

    def prog():
        yield (sig, NAN)

    sim.spawn(prog(), "p")
    with pytest.raises(InvalidYield, match="NaN delay nan inside a chain"):
        sim.run()


def test_nan_timer_delay_is_rejected():
    sim = Simulator()
    with pytest.raises(ValueError, match="NaN timer delay"):
        sim.after(NAN, lambda: None)


def test_nan_absolute_time_is_rejected():
    sim = Simulator()
    with pytest.raises(ValueError, match="call_at time is NaN"):
        sim.call_at(NAN, lambda: None)
    with pytest.raises(ValueError, match="trigger_at time is NaN"):
        sim.trigger_at(NAN)
    sim.run()
    assert sim.now == 0.0 and sim.events_processed == 0
