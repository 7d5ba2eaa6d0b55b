"""Delay-fusion semantics: fused chains must be invisible except in speed.

Every test here runs the same program fused and unfused (``REPRO_FUSE``
on and off, through the ``make_sim`` fixture) and demands
bitwise-identical simulated time —
the soundness contract of DESIGN.md §12. Event counts are the one
sanctioned difference (fusing collapses wake-ups).
"""

from __future__ import annotations

import struct

import pytest

from repro.sim.engine import Simulator
from repro.sim.errors import InvalidYield, SimulationError


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


# -- pure-delay chains ---------------------------------------------------------


def test_fused_chain_matches_sequential_yields_bitwise(make_sim):
    delays = (0.1, 0.2, 0.30000000000000004, 1e-9, 7.25)

    def chain():
        yield delays

    def sequential():
        for d in delays:
            yield d

    fused = make_sim(True)
    fused.spawn(chain())
    fused.run()
    unfused = make_sim(False)
    unfused.spawn(chain())
    unfused.run()
    plain = Simulator()
    plain.spawn(sequential())
    plain.run()
    assert _bits(fused.now) == _bits(unfused.now) == _bits(plain.now)
    # One wake-up for the whole chain vs one per element.
    assert unfused.events_processed - fused.events_processed == len(delays) - 1
    assert fused.fused_yields == len(delays) - 1
    assert unfused.fused_yields == 0


def test_fused_chain_rejects_negative_element(make_sim):
    def prog():
        yield (1.0, -0.5, 2.0)

    sim = make_sim(True)
    sim.spawn(prog())
    with pytest.raises((InvalidYield, SimulationError)):
        sim.run()


def test_empty_and_singleton_chains(make_sim):
    log = []

    def prog():
        yield (3.0,)
        log.append(("one", None))
        yield 1.0
        log.append(("done", None))

    for fuse in (True, False):
        sim = make_sim(fuse)
        sim.spawn(prog())
        sim.run()
        assert sim.now == 4.0
        log.clear()


# -- waitable-headed chains ----------------------------------------------------


def test_event_headed_chain_wakes_at_trigger_plus_tail(make_sim):
    """yield (event, d) resumes at trigger_time + d, bitwise, both modes."""
    results = {}
    for fuse in (True, False):
        sim = make_sim(fuse)
        ev = sim.event()

        def waiter():
            yield (ev, 0.75, 0.125)
            results[fuse] = sim.now

        def trigger():
            yield 2.5
            ev.trigger("payload")

        sim.spawn(waiter())
        sim.spawn(trigger())
        sim.run()
    assert _bits(results[True]) == _bits(results[False])
    assert results[True] == (2.5 + 0.75) + 0.125


def test_event_headed_chain_discards_the_head_value(make_sim):
    """The resume delivers None — only value-free waits may head a chain."""
    seen = []

    def waiter(sim, ev):
        got = yield (ev, 1.0)
        seen.append(got)

    for fuse in (True, False):
        sim = make_sim(fuse)
        ev = sim.event()
        sim.spawn(waiter(sim, ev))
        sim.call_at(1.0, lambda ev=ev: ev.trigger("ignored"))
        sim.run()
    assert seen == [None, None]


def test_event_headed_chain_on_already_triggered_event(make_sim):
    results = {}
    for fuse in (True, False):
        sim = make_sim(fuse)
        ev = sim.event()
        ev.trigger("early")

        def waiter():
            yield (ev, 0.5, 0.25)
            results[fuse] = sim.now

        sim.spawn(waiter())
        sim.run()
    assert _bits(results[True]) == _bits(results[False])
    assert results[True] == 0.75


def test_process_headed_chain_propagates_failure(make_sim):
    """A failed awaited process fails the run at the failure instant; the
    waiter parked on it never resumes and its tail is never charged."""

    from repro.sim.errors import ProcessFailed

    for fuse in (True, False):
        sim = make_sim(fuse)

        def failing():
            yield 1.0
            raise RuntimeError("dead")

        proc = sim.spawn(failing(), "failing")
        resumed = []

        def waiter():
            yield (proc, 100.0)
            resumed.append(sim.now)

        sim.spawn(waiter(), "waiter")
        with pytest.raises(ProcessFailed, match="'failing' failed") as failed:
            sim.run()
        assert isinstance(failed.value.__cause__, RuntimeError)
        assert (sim.now, resumed) == (1.0, [])


def test_signal_headed_chain_parks_once_per_pulse(make_sim):
    woken = []

    def waiter(sim, sig):
        for _ in range(3):
            yield (sig, 0.5)
            woken.append(sim.now)

    ends = {}
    for fuse in (True, False):
        woken.clear()
        sim = make_sim(fuse)
        sig = sim.signal()

        def pulser():
            for _ in range(3):
                yield 10.0
                sig.pulse()

        sim.spawn(waiter(sim, sig))
        sim.spawn(pulser())
        sim.run()
        ends[fuse] = tuple(woken)
    assert ends[True] == ends[False] == (10.5, 20.5, 30.5)


# -- fused call_at -------------------------------------------------------------


def test_call_at_fires_callback_at_the_instant_under_fusion(make_sim):
    for fuse in (True, False):
        sim = make_sim(fuse)
        seen = []
        sim.call_at(5.0, lambda s=seen: s.append(sim.now))

        def prog():
            yield 10.0

        sim.spawn(prog())
        sim.run()
        assert seen == [5.0]


def test_call_at_callbacks_are_attributed_to_their_own_source(make_sim):
    sim = make_sim(True)
    sim.call_at(1.0, lambda: None)
    sim.call_at(2.0, lambda: None)

    def prog():
        yield 3.0

    sim.spawn(prog())
    sim.run()
    snap = sim.metrics_snapshot()
    assert snap.get("kernel.events{source=call_at}") == 2.0
