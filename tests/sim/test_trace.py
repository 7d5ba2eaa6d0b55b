"""Unit tests for the tracer."""

from repro.sim.trace import Tracer


def test_disabled_categories_cost_nothing():
    tracer = Tracer()
    tracer.emit(1.0, "noise", "x")
    assert tracer.records == []


def test_enabled_categories_record():
    tracer = Tracer()
    tracer.enable("flags", "mesh")
    tracer.emit(1.0, "flags", "set", 3)
    tracer.emit(2.0, "mesh", "hop")
    tracer.emit(3.0, "other")
    records = list(tracer.select("flags"))
    assert len(tracer.records) == 2
    assert records[0].payload == ("set", 3)


def test_disable():
    tracer = Tracer()
    tracer.enable("a")
    tracer.emit(0.0, "a")
    tracer.disable("a")
    tracer.emit(1.0, "a")
    assert [r.t for r in tracer.records] == [0.0]
