"""Determinism regression: identical programs must replay bit-identically.

The kernel's ordering contract — (time, seq) dispatch with seq assigned in
schedule order, including the zero-delay fast lane — guarantees that two
runs of the same program produce the same event count, the same final
simulated time and the same metrics, bit for bit. A wall-clock
optimization that breaks this is a correctness bug: BENCH_wallclock.json
fingerprints and every figure in the paper reproduction depend on it.
"""

import numpy as np
import pytest

from repro.bench import fig6a_onchip
from repro.vscc.schemes import CommScheme
from repro.vscc.system import VSCCSystem

#: The one event-loop kernel. A one-value axis, kept so the replay tests
#: keep their test ids.
KERNELS = ["serial"]


def _strip_event_counts(metrics):
    """Drop the series that delay fusion legitimately changes."""
    return {
        k: v for k, v in metrics.items()
        if not k.startswith("kernel.") and k != "sim.events"
    }


def _run_vdma_program():
    """A multi-device program mixing vDMA bulk transfers and flag traffic."""
    system = VSCCSystem(num_devices=2, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA)
    payload = (np.arange(6000) % 251).astype(np.uint8)
    got = {}

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(payload, 52)
            got["back"] = yield from comm.recv(64, 52)
        elif comm.rank == 52:
            data = yield from comm.recv(6000, 0)
            yield from comm.send(data[:64], 0)

    system.run(program, ranks=[0, 52])
    assert (got["back"] == payload[:64]).all()
    return {
        "now": system.sim.now,
        "events": system.sim.events_processed,
        "metrics": system.metrics,
    }


@pytest.mark.parametrize("kernel", KERNELS)
def test_vdma_program_replays_identically(kernel):
    first = _run_vdma_program()
    second = _run_vdma_program()
    assert first["now"] == second["now"]
    assert first["events"] == second["events"]
    assert first["metrics"] == second["metrics"]


def _run_faulty_program(fuse_delays=None):
    """The vDMA program under a seeded chaos plan (drops + corruption)."""
    from repro.faults import FaultPlan, LinkFaults

    plan = FaultPlan(
        seed=8,  # empirically: fires retries, CRC rejects AND duplicates here
        link_defaults=LinkFaults(drop=0.02, corrupt=0.01, duplicate=0.02),
        retry_timeout_ns=5_000.0,
        backoff_ns=2_000.0,
    )
    system = VSCCSystem(
        num_devices=2,
        scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA,
        fault_plan=plan,
        fuse_delays=fuse_delays,
    )
    payload = (np.arange(6000) % 251).astype(np.uint8)
    got = {}

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(payload, 52)
            got["back"] = yield from comm.recv(64, 52)
        elif comm.rank == 52:
            data = yield from comm.recv(6000, 0)
            yield from comm.send(data[:64], 0)

    result = system.run(program, ranks=[0, 52])
    assert (got["back"] == payload[:64]).all()
    totals = system.fault_injector.totals()
    assert totals["faults.retries"] > 0  # the plan actually fired
    return {
        "now": system.sim.now,
        "events": system.sim.events_processed,
        "metrics": result.metrics,
        "degraded": result.degraded_devices,
    }


@pytest.mark.parametrize("kernel", KERNELS)
def test_faulty_program_replays_identically(kernel):
    """Same seed + same FaultPlan → bit-identical RunResult metrics.

    The fault sequence (which packets drop, when retries fire, the
    backoff timings) must be a pure function of the plan seed — any
    hidden global-RNG or dict-ordering dependence breaks this.
    """
    first = _run_faulty_program()
    second = _run_faulty_program()
    assert first["now"] == second["now"]
    assert first["events"] == second["events"]
    assert first["metrics"] == second["metrics"]
    assert first["degraded"] == second["degraded"]


def test_faulty_program_matches_serial_bit_for_bit():
    """Retry/backoff timing under faults is independent of delay fusion.

    The unfused serial event stream (``fuse_delays=False``, the oracle
    behind ``REPRO_FUSE=0``) reaches the same clock, degraded set and
    model metrics as the fused run; only event counts may differ.
    """
    fused = _run_faulty_program(fuse_delays=True)
    serial = _run_faulty_program(fuse_delays=False)
    assert fused["now"] == serial["now"]
    assert fused["degraded"] == serial["degraded"]
    assert fused["events"] < serial["events"]
    assert _strip_event_counts(fused["metrics"]) == _strip_event_counts(
        serial["metrics"]
    )


def test_fig6a_replays_identically():
    kwargs = dict(sizes=(64, 1024, 8192), iterations=2)
    first = fig6a_onchip(**kwargs)
    second = fig6a_onchip(**kwargs)
    assert first.keys() == second.keys()
    for label in first:
        points_a = [(p.size, p.oneway_ns) for p in first[label]]
        points_b = [(p.size, p.oneway_ns) for p in second[label]]
        assert points_a == points_b
