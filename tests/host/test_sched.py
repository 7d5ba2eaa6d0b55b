"""The host request scheduler: lane classification, priority accounting
and vDMA descriptor coalescing (PR 4 tentpole, host layer)."""

import pytest

from repro.scc.mpb import MpbAddr
from repro.vscc.policy import AdaptivePolicy, StaticPolicy
from repro.vscc.schemes import CommScheme
from repro.vscc.system import VSCCSystem

VDMA = CommScheme.LOCAL_PUT_LOCAL_GET_VDMA


def test_lane_counters_and_sync_bypass():
    system = VSCCSystem(num_devices=2)
    sched = system.host.task_of(0).sched
    sched.admit(sched.bulk, 4096)
    # Sync arriving while bulk is in flight is the priority lane overtaking.
    sched.admit(sched.sync, 1)
    sched.complete(sched.sync)
    sched.complete(sched.bulk)
    sched.admit(sched.sync, 1)  # no bulk in flight: not a bypass
    sched.complete(sched.sync)
    assert sched.bulk.requests == 1 and sched.bulk.bytes == 4096
    assert sched.sync.requests == 2 and sched.sync.bytes == 2
    assert sched.sync_bypass == 1
    assert sched.bulk.depth == 0 and sched.sync.depth == 0
    snap = sched.metrics_snapshot()
    assert snap["sched.requests{device=0,lane=bulk}"] == 1.0
    assert snap["sched.requests{device=0,lane=sync}"] == 2.0
    assert snap["sched.bytes{device=0,lane=bulk}"] == 4096.0
    assert snap["sched.sync_bypass{device=0}"] == 1.0
    assert snap["sched.coalesced{device=0}"] == 0.0


def test_sync_access_uses_region_registry():
    """The task classifies each routed request once, against the region
    registry: a flag read rides the sync lane, an unregistered span bulk."""
    system = VSCCSystem(num_devices=2)
    sched = system.host.task_of(0).sched
    payload = system.params.mpb_payload_bytes
    env = system.devices[0].core(0)

    def reads():
        yield from env.read_flag(MpbAddr(1, 0, payload))          # SF span: FLAG
        yield from env.mpb_read(MpbAddr(1, 0, payload - 16), 32)  # straddle: unregistered

    system.sim.spawn(reads())
    system.sim.run()
    assert (sched.sync.requests, sched.sync.bytes) == (1, 1)
    assert (sched.bulk.requests, sched.bulk.bytes) == (1, 32)


def _cross_transfer(size, pairs=((0, 48),)):
    senders = {a for a, _ in pairs}
    receivers = {b for _, b in pairs}
    peer = {a: b for a, b in pairs} | {b: a for a, b in pairs}

    def program(comm):
        if comm.rank in senders:
            yield from comm.send(bytes(size), peer[comm.rank])
        elif comm.rank in receivers:
            yield from comm.recv(size, peer[comm.rank])

    return program, [r for pair in pairs for r in pair]


def test_vdma_run_touches_ctrl_and_sync_lanes():
    system = VSCCSystem(num_devices=2, scheme=VDMA)
    program, ranks = _cross_transfer(16384)
    metrics = system.run(program, ranks=ranks).metrics
    # vDMA programming is MMIO — the ctrl lane; its completion and the
    # RCCE handshake flags ride the sync lane.
    assert metrics["sched.requests{device=0,lane=ctrl}"] > 0
    assert (
        metrics["sched.requests{device=0,lane=sync}"]
        + metrics["sched.requests{device=1,lane=sync}"]
    ) > 0


def test_transparent_run_classifies_bulk_vs_sync():
    system = VSCCSystem(num_devices=2, scheme=CommScheme.TRANSPARENT)
    program, ranks = _cross_transfer(2048)
    metrics = system.run(program, ranks=ranks).metrics
    bulk = sum(
        metrics[f"sched.requests{{device={d},lane=bulk}}"] for d in (0, 1)
    )
    sync = sum(
        metrics[f"sched.requests{{device={d},lane=sync}}"] for d in (0, 1)
    )
    assert bulk > 0 and sync > 0
    assert (
        sum(metrics[f"sched.bytes{{device={d},lane=bulk}}"] for d in (0, 1))
        >= 2048
    )


def test_static_policy_keeps_coalescing_off():
    system = VSCCSystem(num_devices=2, scheme=VDMA)
    assert not system.host.sched_coalesce
    program, ranks = _cross_transfer(16384, pairs=((0, 48), (1, 49)))
    metrics = system.run(program, ranks=ranks).metrics
    assert metrics["sched.coalesced{device=0}"] == 0.0


def _staggered_same_route_program():
    """Rank 0 programs a small copy; rank 1 programs a much larger copy
    to the same destination device moments later (while the first is
    still in flight). The large copy is the critical path — chaining it
    skips its engine startup and finishes the run strictly earlier."""

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(bytes(9000), 48)
        elif comm.rank == 1:
            yield from comm.env.compute(cycles=50)
            yield from comm.send(bytes(65536), 49)
        elif comm.rank == 48:
            yield from comm.recv(9000, 0)
        elif comm.rank == 49:
            yield from comm.recv(65536, 1)

    return program, [0, 1, 48, 49]


def test_dynamic_policy_coalesces_back_to_back_vdma_descriptors():
    program, ranks = _staggered_same_route_program()

    static = VSCCSystem(num_devices=2, scheme=VDMA)
    static_elapsed = static.run(program, ranks=ranks).elapsed_ns

    adaptive = VSCCSystem(num_devices=2, policy=AdaptivePolicy(candidates=(VDMA,)))
    assert adaptive.host.sched_coalesce
    result = adaptive.run(program, ranks=ranks)
    assert result.metrics["sched.coalesced{device=0}"] >= 1.0
    assert result.elapsed_ns < static_elapsed


def test_coalesced_descriptor_lands_in_sched_trace(tmp_path):
    program, ranks = _staggered_same_route_program()
    system = VSCCSystem(num_devices=2, policy=AdaptivePolicy(candidates=(VDMA,)))
    trace = tmp_path / "trace.json"
    system.run(program, ranks=ranks, trace_json=trace)
    import json

    events = json.loads(trace.read_text())["traceEvents"]
    sched_events = [e for e in events if e.get("cat") == "sched"]
    assert any(e["name"] == "sched.vdma_coalesced" for e in sched_events)
