"""Chaos suite for the RPC-offload path (repro.apps.rpc × repro.faults).

Three contracts under seeded fault plans:

1. **exactly-once** — a lossy/stalled host link retransmits its way to
   every response delivered exactly once, with the same semantic
   outcome digest as the fault-free run;
2. **fail fast** — requests from (or toward) a severed device raise
   :class:`DeviceQuarantined` instead of hanging;
3. **replay determinism** — the same plan seed replays the identical
   fault sequence, fingerprint and digest; a different seed shuffles
   the faults but never the outcome digest.
"""

import pytest

from repro.apps.rpc import run_rpc
from repro.bench.arrivals import PoissonArrivals, UniformSizes, generate_calls
from repro.faults import DeviceQuarantined, FaultPlan, LinkFaults
from repro.sim.engine import ProcessFailed
from repro.vscc.schemes import CommScheme
from repro.vscc.system import VSCCSystem


@pytest.fixture(params=["serial"], autouse=True)
def kernel(request):
    """The one event-loop kernel: a one-value axis that keeps the
    suite's test ids."""
    return request.param


def trace(ranks=(0, 1), n=24, seed=5):
    return generate_calls(
        ranks=ranks,
        calls_per_rank=n,
        arrivals=PoissonArrivals(mean_gap_ns=8000.0),
        req_sizes=UniformSizes(16, 256),
        resp_sizes=UniformSizes(32, 1024),
        seed=seed,
        priority_every=6,
    )


def rpc_run(plan=None, calls=None, num_devices=2):
    system = VSCCSystem(
        num_devices=num_devices,
        scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA,
        fault_plan=plan,
    )
    report = run_rpc(system, calls if calls is not None else trace())
    return system, report


def test_lossy_host_link_is_exactly_once():
    _, clean = rpc_run()
    plan = FaultPlan.lossy(0.02, seed=9)
    system, report = rpc_run(plan)
    assert report.completed == report.offered
    ids = [c.req_id for c in report.completions]
    assert len(set(ids)) == len(ids)
    assert report.digest == clean.digest
    totals = system.fault_injector.totals()
    assert totals["faults.retries"] > 0
    assert totals["faults.lost"] == 0
    assert system.fault_injector.degraded_devices == ()


def test_stalled_link_holds_ordering_and_delivery():
    plan = FaultPlan(
        seed=4,
        link_defaults=LinkFaults(drop=0.01, stall=0.05, stall_ns=40_000.0),
        retry_timeout_ns=120_000.0,
    )
    _, clean = rpc_run()
    system, report = rpc_run(plan)
    assert report.completed == report.offered
    assert report.digest == clean.digest
    # Stalls delay but never reorder: per-rank issue order survives.
    for rank in (0, 1):
        seen = [c.req_id for c in report.completions if c.rank == rank]
        assert seen == sorted(seen)
    assert system.fault_injector.totals()["faults.stalls"] > 0


def test_quarantined_device_requests_raise():
    system = VSCCSystem(
        num_devices=2,
        scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA,
        # A negligible but non-null fault rate: an all-null plan would
        # install no injector at all (the bit-identity guarantee).
        fault_plan=FaultPlan(
            seed=1, link_defaults=LinkFaults(drop=1e-12), on_exhaust="sever"
        ),
    )
    system.fault_injector.quarantine(1, severed=True)
    ranks_on_dev1 = [
        r for r in range(system.num_ranks)
        if system.layout.placement(r)[0] == 1
    ]
    calls = trace(ranks=(ranks_on_dev1[0],), n=4)
    with pytest.raises(ProcessFailed) as excinfo:
        run_rpc(system, calls)
    assert isinstance(excinfo.value.__cause__, DeviceQuarantined)


def test_quarantine_mid_run_fails_fast_not_hangs():
    # Sever the client's device after the first few submissions: the
    # next issue attempt must raise (fail fast), not black-hole.
    system = VSCCSystem(
        num_devices=2,
        scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA,
        fault_plan=FaultPlan(
            seed=1, link_defaults=LinkFaults(drop=1e-12), on_exhaust="sever"
        ),
    )
    ranks_on_dev1 = [
        r for r in range(system.num_ranks)
        if system.layout.placement(r)[0] == 1
    ]
    rank = ranks_on_dev1[0]
    calls = trace(ranks=(rank,), n=8)
    cut_ns = (calls[3].issue_ns + calls[4].issue_ns) / 2.0
    system.sim.after(cut_ns, lambda: system.fault_injector.quarantine(1, severed=True))
    with pytest.raises(ProcessFailed) as excinfo:
        run_rpc(system, calls)
    assert isinstance(excinfo.value.__cause__, DeviceQuarantined)


def test_outcome_digest_is_seed_deterministic_across_replays():
    plan = FaultPlan(
        seed=13, link_defaults=LinkFaults(drop=0.02, duplicate=0.01)
    )
    system_a, a = rpc_run(plan)
    system_b, b = rpc_run(plan)
    # Same plan seed: bit-identical replay — clock, events, faults, digest.
    assert system_a.sim.now == system_b.sim.now
    assert system_a.sim.events_processed == system_b.sim.events_processed
    assert system_a.fault_injector.totals() == system_b.fault_injector.totals()
    assert a.digest == b.digest
    # A different fault seed shuffles the fault sequence, never the
    # exactly-once outcome.
    system_c, c = rpc_run(
        FaultPlan(seed=14, link_defaults=LinkFaults(drop=0.02, duplicate=0.01))
    )
    assert c.digest == a.digest
    assert (
        system_c.fault_injector.totals() != system_a.fault_injector.totals()
        or system_c.sim.now != system_a.sim.now
    )


def test_empty_plan_is_bit_identical_to_no_plan():
    def run(plan):
        system, report = rpc_run(plan)
        return system.sim.now, system.sim.events_processed, report.digest

    assert run(None) == run(FaultPlan())
