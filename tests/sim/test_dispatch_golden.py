"""Golden dispatch stream of the kernel.

One fixed program yields every kind the kernel accepts: bare floats,
ints and zero, a ``float`` subclass, delay chains headed by a float, an int, a
``Signal``, an ``Event`` and a ``Process``, plain event, signal and
process waits, ``call_at``, ``trigger_at``, ``after`` timers (one of
them cancelled) and a ``Record``. It comes in two forms: one that ends
normally and one in which processes fail. Each form runs fused and
unfused, and the test compares every resume's ``(sim.now, name)``, the
event, fusion and spawn counters and every ``kernel.events{source=}``
series with values taken from the kernel that dispatched every wake-up
through ``Process._step``. A change to how the loop resumes processes
must leave all of them as they are.
"""

from __future__ import annotations

import pytest

from repro.sim.engine import Record, Simulator
from repro.sim.errors import InvalidYield, ProcessFailed


class _Ns(float):
    """A delay of a ``float`` subclass (as ``numpy.float64`` is): the
    kernel classifies it once through its isinstance fallback."""


def _program(sim: Simulator, fail: bool) -> list:
    log: list = []

    def note(name: str) -> None:
        log.append((sim.now, name))

    sig = sim.signal("sig")
    head = sim.event("head")

    def later(name: str, delay: float, fn):
        yield delay
        note(name)
        fn()

    def child(tag: str):
        yield 1.25
        note(tag)
        if fail:
            raise RuntimeError(f"{tag} failed")
        return tag + " result"

    class Steps(Record):
        """Start, sleep 2 ns, wait for ``head``, finish with a value."""

        def __init__(self):
            super().__init__(sim, "daemon:steps.0", self.begin)

        def begin(self, _payload):
            note("record begin")
            self._sleep(2.0, self.slept)

        def slept(self, _payload):
            note("record slept")
            self._wait(head, self.woke)

        def woke(self, value):
            note(f"record woke {value}")
            if fail:
                raise ValueError("record step failed")
            self._finish("record result")

    def main():
        yield 1.5
        note("float")
        yield 2
        note("int")
        yield 0
        note("int zero")
        yield 0.0
        note("float zero")
        yield _Ns(3.0)
        note("float subclass")
        yield (1.0, 2.0, 0.5)
        note("float chain")
        yield (1, 2.5)
        note("int chain")
        yield (0.0, 0.0)
        note("zero chain")
        yield (0.25,)
        note("one-element chain")

        sim.spawn(later("pulse", 0.5, sig.pulse), "pulser")
        yield (sig, 0.75)
        note("signal park")
        sim.spawn(later("pulse", 0.5, sig.pulse), "pulser")
        yield (sig, 0.25, 0.125)
        note("signal chain")
        sim.spawn(later("pulse", 1.0, sig.pulse), "pulser")
        value = yield sig
        note(f"signal {value}")

        steps = Steps()
        sim.spawn(later("trigger", 3.0, lambda: head.trigger("head value")), "trigger")
        value = yield (head, 0.5)
        note(f"event chain {value}")
        value = yield head
        note(f"event {value}")
        value = yield (head, 0.0, 1.0)
        note(f"triggered-event chain {value}")
        try:
            value = yield steps
            note(f"record {value}")
        except ProcessFailed as exc:
            note(f"record raised {exc.__cause__!r}")

        timed = sim.trigger_at(
            sim.now + 2.0, value="timed value", before=lambda: note("before"), name="timed"
        )
        value = yield timed
        note(f"trigger_at {value}")
        sim.call_at(sim.now + 1.0, lambda: note("call_at"))
        sim.call_at(sim.now - 5.0, lambda: note("call_at past"))
        sim.after(3.0, lambda: note("timer"), name="watch")
        sim.after(1.0, lambda: note("cancelled timer"), name="watch").cancel()
        yield 4.0
        note("after timers")

        kid = sim.spawn(child("child"), "child")
        try:
            value = yield kid
            note(f"process {value}")
        except ProcessFailed as exc:
            note(f"process raised {exc.__cause__!r}")
        kid = sim.spawn(child("chained child"), "child")
        try:
            value = yield (kid, 0.25)
            note(f"process chain {value}")
        except ProcessFailed as exc:
            note(f"process chain raised {exc.__cause__!r}")
        try:
            yield kid.done
            note("done event")
        except ProcessFailed as exc:
            note(f"done event raised {exc.__cause__!r}")
        if fail:
            raise KeyError("main failed")
        return "main result"

    def observer(proc):
        try:
            value = yield proc
            note(f"observer {value}")
        except ProcessFailed as exc:
            note(f"observer raised {exc.__cause__!r}")

    sim.spawn(observer(sim.spawn(main(), "main")), "observer")
    return log


def _run(fuse: bool, fail: bool) -> dict:
    sim = Simulator(fail_fast=False, fuse_delays=fuse)
    log = _program(sim, fail)
    sim.run()
    snap = sim.metrics_snapshot()
    return {
        "log": log,
        "events": sim.events_processed,
        "fused_yields": sim.fused_yields,
        "spawned": int(snap["sim.processes_spawned"]),
        "sources": {
            key[len("kernel.events{source="):-1]: int(value)
            for key, value in snap.items()
            if key.startswith("kernel.events{source=")
        },
        "failures": [proc.name for proc in sim.failures],
    }


#: Resumes both forms share, up to the record's last step.
_PREFIX = [
    (1.5, "float"),
    (3.5, "int"),
    (3.5, "int zero"),
    (3.5, "float zero"),
    (6.5, "float subclass"),
    (10.0, "float chain"),
    (13.5, "int chain"),
    (13.5, "zero chain"),
    (13.75, "one-element chain"),
    (14.25, "pulse"),
    (15.0, "signal park"),
    (15.5, "pulse"),
    (15.875, "signal chain"),
    (16.875, "pulse"),
    (16.875, "signal None"),
    (16.875, "record begin"),
    (18.875, "record slept"),
    (19.875, "trigger"),
    (19.875, "record woke head value"),
    (20.375, "event chain None"),
    (20.375, "event head value"),
    (21.375, "triggered-event chain None"),
]

_TIMERS = [
    (23.375, "before"),
    (23.375, "trigger_at timed value"),
    (23.375, "call_at past"),
    (24.375, "call_at"),
    (26.375, "timer"),
    (27.375, "after timers"),
]

_LOG = {
    False: _PREFIX + [(21.375, "record record result")] + _TIMERS + [
        (28.625, "child"),
        (28.625, "process child result"),
        (29.875, "chained child"),
        (30.125, "process chain None"),
        (30.125, "done event"),
        (30.125, "observer main result"),
    ],
    True: _PREFIX + [(21.375, "record raised ValueError('record step failed')")] + _TIMERS + [
        (28.625, "child"),
        (28.625, "process raised RuntimeError('child failed')"),
        (29.875, "chained child"),
        (29.875, "process chain raised RuntimeError('chained child failed')"),
        (29.875, "done event raised RuntimeError('chained child failed')"),
        (29.875, "observer raised KeyError('main failed')"),
    ],
}

_FUSED_SOURCES = {
    "call_at": 3, "child": 4, "daemon:steps": 3, "daemon:watch": 1,
    "main": 22, "observer": 2, "pulser": 6, "trigger": 2,
}


def _expected(fuse: bool, fail: bool) -> dict:
    if fuse:
        events, fused_yields, sources = 43, 11 - fail, _FUSED_SOURCES
    else:
        events, fused_yields = 58 - fail, 0
        sources = {**_FUSED_SOURCES, "call_at": 6, "daemon:watch": 2, "main": 33 - fail}
    return {
        "log": _LOG[fail],
        "events": events,
        "fused_yields": fused_yields,
        "spawned": 14,
        "sources": sources,
        "failures": ["daemon:steps.0", "child", "child", "main"] if fail else [],
    }


@pytest.mark.parametrize("fail", [False, True], ids=["ends", "fails"])
@pytest.mark.parametrize("fuse", [True, False], ids=["fused", "unfused"])
def test_dispatch_stream_matches_golden(fuse, fail):
    assert _run(fuse, fail) == _expected(fuse, fail)


@pytest.mark.parametrize("fuse,events", [(True, 24), (False, 32)], ids=["fused", "unfused"])
def test_fail_fast_stops_at_the_first_failure(fuse, events):
    sim = Simulator(fail_fast=True, fuse_delays=fuse)
    log = _program(sim, fail=True)
    with pytest.raises(ProcessFailed, match="'daemon:steps.0' failed") as info:
        sim.run()
    assert repr(info.value.__cause__) == "ValueError('record step failed')"
    assert log == _PREFIX[:19]
    assert (sim.now, sim.events_processed) == (19.875, events)


# -- invalid yields on a resume without a payload --------------------------------


def _invalid(command, fuse: bool) -> Simulator:
    """Run a process whose second yield, resumed with no payload, is
    ``command``; return the simulator after the kernel rejected it."""
    sim = Simulator(fuse_delays=fuse)
    sig = sim.signal("sig")

    def prog():
        yield 1.0
        yield command(sig) if callable(command) else command

    sim.spawn(prog(), "bad")
    return sim


@pytest.mark.parametrize("fuse", [True, False], ids=["fused", "unfused"])
@pytest.mark.parametrize(
    "command,message",
    [
        (-1.0, "process 'bad' yielded a negative delay -1.0"),
        (-2, "process 'bad' yielded a negative delay -2"),
        ((1.0, -0.5), "process 'bad' yielded a negative delay -0.5 inside a chain"),
        ((-0.5, 1.0), "process 'bad' yielded a negative delay -0.5 inside a chain"),
        (lambda sig: (sig, -0.25), "process 'bad' yielded a negative delay -0.25 inside a chain"),
    ],
    ids=["float", "int", "chain-tail", "chain-head", "signal-park"],
)
def test_negative_delay_message(command, message, fuse):
    sim = _invalid(command, fuse)
    with pytest.raises(InvalidYield) as info:
        sim.run()
    assert str(info.value) == message
    # The rejected resume is not counted as a dispatched event.
    assert (sim.now, sim.events_processed) == (1.0, 1)
