"""Unit tests for SimQueue."""

from repro.sim.engine import Delay, Simulator
from repro.sim.queue import SimQueue


def test_put_then_get():
    sim = Simulator()
    q = SimQueue(sim)
    q.put("x")

    def prog():
        item = yield from q.get()
        return item

    proc = sim.spawn(prog())
    sim.run()
    assert proc.result == "x"


def test_get_blocks_until_put():
    sim = Simulator()
    q = SimQueue(sim)
    got = {}

    def getter():
        got["item"] = yield from q.get()
        got["t"] = sim.now

    def putter():
        yield Delay(42.0)
        q.put("late")

    sim.spawn(getter())
    sim.spawn(putter())
    sim.run()
    assert got == {"item": "late", "t": 42.0}


def test_fifo_order_among_waiters():
    sim = Simulator()
    q = SimQueue(sim)
    results = []

    def getter(name):
        item = yield from q.get()
        results.append((name, item))

    sim.spawn(getter("first"))
    sim.spawn(getter("second"))

    def putter():
        yield Delay(1.0)
        q.put(1)
        q.put(2)

    sim.spawn(putter())
    sim.run()
    assert results == [("first", 1), ("second", 2)]
