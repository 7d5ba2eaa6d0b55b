"""Unit tests for the single-device session."""

import json

import pytest

from repro.apps.pingpong import pingpong_program, run_pingpong
from repro.rcce import RcceOptions
from repro.rcce.session import RcceSession
from repro.vscc.system import VSCCSystem


def test_48_ranks_by_default(session):
    assert session.num_ranks == 48


def test_failed_cores_reduce_ranks():
    session = RcceSession(failure_prob=0.25, seed=11)
    assert session.num_ranks < 48
    # config records exactly the live cores
    assert sum(map(len, session.config.cores_per_device)) == session.num_ranks


def test_comm_for_is_cached(session):
    assert session.comm_for(3) is session.comm_for(3)


def test_run_collects_results(session):
    def program(comm):
        yield from comm.env.compute(cycles=10)
        return comm.rank * 2

    result = session.run(program, ranks=[1, 5])
    assert result.results == {1: 2, 5: 10}
    assert result.elapsed_ns > 0
    assert result[5] == 10


# -- one session implementation: a plain session is a one-device system --------


@pytest.mark.parametrize(
    "pipelined, sim_now", [(False, 4177983.02063787), (True, 2958031.050656665)],
    ids=["rcce", "ircce"],
)
def test_plain_session_matches_one_device_system(pipelined, sim_now):
    """A 0<->10 ping-pong is bitwise the same on ``RcceSession()`` and on
    ``VSCCSystem(num_devices=1)``, and reproduces its pinned clock (the
    same fused and unfused; only the event count depends on the mode)."""
    options = RcceOptions(pipelined=pipelined)
    runs = []
    for session in (RcceSession(options=options),
                    VSCCSystem(num_devices=1, options=options)):
        points = run_pingpong(session, 0, 10, sizes=(64, 4096, 65536),
                              iterations=2, warmup=1)
        runs.append(([p.oneway_ns for p in points], session.sim.now,
                      session.sim.events_processed))
    assert runs[0] == runs[1]
    assert runs[0][1] == sim_now


def test_metrics_key_set():
    """Kernel and device series only: the typed-instrument registry
    (``sim.obs``) stays out of a plain session's snapshot."""
    session = RcceSession()
    session.obs.enabled = True
    run_pingpong(session, 0, 10, sizes=(64, 4096), iterations=1)
    assert session.obs.snapshot()  # the registry did record something
    metrics = session.metrics
    assert {key.split("{")[0] for key in metrics} == {
        "cores.available", "kernel.events", "kernel.fused_yields",
        "memctrl.bytes", "memctrl.fifo_wait_ns", "mesh.link_busy_ns",
        "mesh.link_bytes", "mesh.links_used", "sim.events", "sim.now_ns",
        "sim.processes_live", "sim.processes_spawned",
    }
    assert all(
        key.startswith(("sim.", "kernel.")) or "device=0" in key
        for key in metrics
    )
    assert not set(session.obs.snapshot()) & set(metrics)


def test_run_writes_chrome_trace(tmp_path):
    session = RcceSession()
    program = pingpong_program(0, 10, sizes=(64, 4096), iterations=1)
    result = session.run(program, ranks=[0, 10],
                         trace_json=tmp_path / "trace.json")
    assert result.trace_path == tmp_path / "trace.json"
    events = json.loads(result.trace_path.read_text())["traceEvents"]
    assert any(e["ph"] == "X" and e["cat"] == "protocol" for e in events)
    # Tracing is on for that run only.
    assert not session.tracer.wants("protocol")
    assert result.degraded_devices == ()
