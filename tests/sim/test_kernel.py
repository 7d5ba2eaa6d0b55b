"""Unit tests for the event loop in ``Simulator`` (the one kernel).

One queue per simulator, the ignored ``spawn`` shard hint, run limits,
deadlock detection, event-source attribution and the ``REPRO_FUSE``
switch between the fused event stream and the unfused oracle.
"""

import pytest

from repro.sim import Event, Simulator
from repro.sim.engine import FUSE_ENV_VAR
from repro.sim.errors import DeadlockError

#: The one event-loop kernel. A one-value axis, kept so the test ids of
#: the parametrized cases stay stable.
KERNELS = ["serial"]


def _mixed_program(sim, log, shards=(None, None)):
    """Two processes exchanging through timers and an event.

    ``shards`` are passed as ``spawn``'s fourth argument, which the
    simulator accepts and ignores.
    """
    evt = Event(sim)

    def pinger():
        yield 2.5
        log.append(("ping", sim.now))
        evt.trigger("token")
        yield 1.0
        log.append(("ping-end", sim.now))

    def ponger():
        value = yield evt
        log.append(("pong", sim.now, value))
        yield 0.5
        log.append(("pong-end", sim.now))

    sim.spawn(pinger(), "ping-0", shards[0])
    sim.spawn(ponger(), "pong-1", shards[1])


def _replay(sim, shards=(None, None)):
    log = []
    _mixed_program(sim, log, shards)
    sim.run()
    return log, sim.now, sim.events_processed


# -- the one queue -------------------------------------------------------------


def test_kernel_attaches_to_exactly_one_simulator():
    """Each simulator owns its queue: running one never runs the other."""
    a, b = Simulator(), Simulator()
    ran = []

    def ticker(tag):
        yield 1.0
        ran.append(tag)

    a.spawn(ticker("a"))
    b.spawn(ticker("b"))
    a.run()
    assert ran == ["a"]
    assert (a.now, b.now) == (1.0, 0.0)
    assert b.events_processed == 0
    b.run()
    assert ran == ["a", "b"]
    assert a.events_processed == b.events_processed


def test_single_lane_kernel_degenerates_to_lane_zero():
    """``spawn``'s shard hint is ignored: one queue, one dispatch order."""
    plain = _replay(Simulator())
    hinted = _replay(Simulator(), shards=(0, 1))
    swapped = _replay(Simulator(), shards=(3, -1))
    assert hinted == plain
    assert swapped == plain


@pytest.mark.parametrize("spec", KERNELS)
def test_mixed_program_identical_across_backends(spec):
    """The fused event stream and the unfused oracle agree on the log."""
    log_f, now_f, events_f = _replay(Simulator(fuse_delays=True))
    log_u, now_u, events_u = _replay(Simulator(fuse_delays=False))
    assert log_f == log_u
    assert now_f == now_u == 3.5
    assert events_f <= events_u


def test_run_until_stops_at_horizon_boundary():
    sim = Simulator()
    ticks = []

    def ticker(period):
        while True:
            yield period
            ticks.append((period, sim.now))

    sim.spawn(ticker(3.0), name="t3")
    sim.spawn(ticker(5.0), name="t5")
    sim.run(until=12.0)
    assert sim.now == 12.0
    assert ticks == [
        (3.0, 3.0), (5.0, 5.0), (3.0, 6.0), (3.0, 9.0),
        (5.0, 10.0), (3.0, 12.0),
    ]


def test_max_events_exact_under_sharded():
    """Processes spawned with (ignored) shard hints stop at exactly N."""
    sim = Simulator()

    def ticker():
        while True:
            yield 1.0

    sim.spawn(ticker(), None, 0)
    sim.spawn(ticker(), None, 1)
    sim.run(max_events=7)
    assert sim.events_processed == 7


def test_deadlock_detected_under_sharded():
    """A blocked process spawned with a shard hint is still reported,
    and only the blocked processes are named."""
    sim = Simulator()
    evt = sim.event()

    def stuck():
        yield evt

    def finisher():
        yield 1.0

    sim.spawn(stuck(), "stuck", 0)
    sim.spawn(finisher(), "finisher", 1)
    with pytest.raises(DeadlockError) as excinfo:
        sim.run()
    assert excinfo.value.waiting == ["stuck"]


def test_deadlock_report_lists_blocked_processes_in_spawn_order():
    """The report follows spawn order, not the addresses of the process
    objects, so it reads the same on every interpreter."""
    sim = Simulator()
    evt = sim.event()
    ballast = []

    def stuck():
        yield evt

    names = [f"stuck-{i}" for i in range(64)]
    for i, name in enumerate(names):
        ballast.append([object() for _ in range(1 + 5 * (i % 7))])
        sim.spawn(stuck(), name)
    with pytest.raises(DeadlockError) as excinfo:
        sim.run()
    assert excinfo.value.waiting == names


# -- metrics -------------------------------------------------------------------


def test_serial_metrics_have_no_sharded_series():
    sim = Simulator()
    snap = sim.metrics_snapshot()
    # The kernel exports the delay-fusion counter…
    assert snap["kernel.fused_yields"] == 0.0
    # …and none of the window-protocol series of the removed backend.
    for key in ("kernel.shards", "kernel.windows", "kernel.preempts",
                "kernel.stale_discards", "kernel.lookahead_ns"):
        assert key not in snap


def test_event_source_attribution():
    sim = Simulator()
    _mixed_program(sim, [])
    sim.call_at(4.0, lambda: None)
    sim.run()
    snap = sim.metrics_snapshot()
    sources = {
        k: v for k, v in snap.items() if k.startswith("kernel.events{source=")
    }
    assert set(sources) == {
        "kernel.events{source=ping}",
        "kernel.events{source=pong}",
        "kernel.events{source=call_at}",
    }
    assert sum(sources.values()) == float(sim.events_processed)


# -- selecting the event stream ------------------------------------------------


def test_spec_errors():
    """``kernel=`` is gone from every constructor that took it."""
    from repro.rcce.session import RcceSession
    from repro.serve import JobSpec
    from repro.vscc.system import VSCCSystem

    with pytest.raises(TypeError):
        Simulator(kernel="serial")
    with pytest.raises(TypeError):
        VSCCSystem(num_devices=1, kernel="serial")
    with pytest.raises(TypeError):
        RcceSession(kernel="serial")
    with pytest.raises(TypeError):
        JobSpec(workload="spin", tenant="t", kernel="serial")


def test_spec_case_and_whitespace_insensitive(monkeypatch):
    """``REPRO_FUSE`` values are read case- and whitespace-insensitively."""
    for value in ("0", " 0 ", "false", "FALSE", " Off "):
        monkeypatch.setenv(FUSE_ENV_VAR, value)
        assert Simulator().fuse_delays is False, value
    for value in ("1", " 1 ", "on", "TRUE", ""):
        monkeypatch.setenv(FUSE_ENV_VAR, value)
        assert Simulator().fuse_delays is True, value


def test_env_var_selects_backend_for_systems(monkeypatch):
    """``REPRO_FUSE`` is the one switch that picks the event stream of
    systems, sessions and served jobs; none takes a per-instance override."""
    from repro.rcce.session import RcceSession
    from repro.serve import JobSpec
    from repro.vscc.system import VSCCSystem

    monkeypatch.setenv(FUSE_ENV_VAR, "0")
    assert VSCCSystem(num_devices=2).sim.fuse_delays is False
    assert RcceSession().sim.fuse_delays is False

    monkeypatch.setenv(FUSE_ENV_VAR, "1")
    assert VSCCSystem(num_devices=2).sim.fuse_delays is True
    assert RcceSession().sim.fuse_delays is True
    with pytest.raises(TypeError):
        VSCCSystem(num_devices=2, fuse_delays=False)
    with pytest.raises(TypeError):
        JobSpec(workload="spin", fuse=False)


@pytest.mark.parametrize(
    "step, nprocs, nyields, end_ns",
    [(1, 200, 200, 200.0), (1.0, 200, 200, 200.0), (0, 100, 500, 0.0)],
    ids=["int", "float", "zero-delay-storm"],
)
def test_one_event_per_spawn_plus_one_per_yield(step, nprocs, nyields, end_ns):
    """A bare int costs what a float does; zero delays never advance time."""
    sim = Simulator()
    for _ in range(nprocs):
        sim.spawn(step for _ in range(nyields))
    sim.run()
    assert (sim.now, sim.events_processed) == (end_ns, nprocs + nprocs * nyields)
