"""Chaos regression suite: seeded fault plans over figure-style runs.

Every test uses a pinned seed, so the fault sequence — and with it every
counter asserted below — is bit-reproducible. The three contracts:

1. **graceful degradation** — workloads complete under faults, and the
   *data* is untouched (``run_pingpong(verify=True)`` checks payloads);
2. **counter algebra** — the retry metrics are self-consistent:
   ``delivered == sent - lost`` and every failed wire attempt is paid
   for by a retry, a reset, or a sever;
3. **the null hypothesis** — an empty plan is bit-identical to no plan.
"""

import pytest

from repro.bench.figures import run_pingpong
from repro.faults import DeviceFaults, DeviceQuarantined, FaultPlan, LinkFaults
from repro.sim.errors import DeadlockError
from repro.vscc.schemes import CommScheme
from repro.vscc.system import VSCCSystem

PINGPONG_SIZES = (256, 2048, 16384, 65536)


@pytest.fixture(params=["serial"], autouse=True)
def kernel(request):
    """The one event-loop kernel: a one-value axis that keeps the
    suite's test ids."""
    return request.param


def _system(plan=None, num_devices=2):
    return VSCCSystem(
        num_devices=num_devices,
        scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA,
        fault_plan=plan,
    )


def _assert_accounting(totals):
    """The ISSUE's retry-metric identity, over all protected links."""
    assert totals["faults.delivered"] == totals["faults.sent"] - totals["faults.lost"]
    assert (
        totals["faults.dropped"] + totals["faults.crc_rejects"]
        == totals["faults.retries"] + totals["faults.resets"] + totals["faults.severs"]
    )


def test_lossy_link_run_completes_with_identical_results():
    """Acceptance criterion: drop=1e-3 on one PCIe link, ping-pong style run.

    Same numerical results as fault-free (payload-verified), more than
    zero retries, zero degraded devices.
    """
    base = run_pingpong(_system(), 0, 48, sizes=PINGPONG_SIZES, iterations=3)
    plan = FaultPlan.lossy(1e-3, link="pcie1.down", seed=2)
    system = _system(plan)
    points = run_pingpong(system, 0, 48, sizes=PINGPONG_SIZES, iterations=3)

    # run_pingpong(verify=True) already checked every payload byte; the
    # transfer sizes and iteration structure must agree with fault-free.
    assert [(p.size, p.iterations) for p in points] == [
        (p.size, p.iterations) for p in base
    ]
    totals = system.fault_injector.totals()
    assert totals["faults.retries"] > 0
    assert system.fault_injector.degraded_devices == ()
    assert totals["faults.lost"] == 0
    _assert_accounting(totals)


def test_heavy_chaos_accounting_identity():
    """Drop + corrupt + duplicate + stall together, still exactly-once."""
    plan = FaultPlan(
        seed=21,
        link_defaults=LinkFaults(drop=0.02, corrupt=0.01, duplicate=0.02, stall=0.01),
        retry_timeout_ns=5_000.0,
        backoff_ns=2_000.0,
    )
    system = _system(plan)
    run_pingpong(system, 0, 48, sizes=(1024, 8192, 32768), iterations=3)
    totals = system.fault_injector.totals()
    assert totals["faults.retries"] > 0
    assert totals["faults.crc_rejects"] > 0
    assert totals["faults.duplicates"] > 0
    assert totals["faults.lost"] == 0
    _assert_accounting(totals)


def test_dead_device_reset_degrades_gracefully():
    """A mid-run device death exhausts the budget; reset finishes the job."""
    plan = FaultPlan(
        seed=11,
        devices={1: DeviceFaults(dead_at_ns=400_000.0)},
        on_exhaust="reset",
        retry_timeout_ns=10_000.0,
        backoff_ns=5_000.0,
    )
    system = _system(plan)
    points = run_pingpong(system, 0, 48, sizes=(1024, 8192), iterations=2)
    assert len(points) == 2            # the workload ran to completion
    totals = system.fault_injector.totals()
    assert totals["faults.resets"] >= 1
    assert system.fault_injector.degraded_devices == (1,)
    assert system.fault_injector.quarantined[1] == "reset"
    _assert_accounting(totals)


def test_dead_device_reset_surfaces_in_run_result():
    plan = FaultPlan(
        seed=11,
        devices={1: DeviceFaults(dead_at_ns=100_000.0)},
        on_exhaust="reset",
        retry_timeout_ns=10_000.0,
        backoff_ns=5_000.0,
    )
    system = _system(plan)

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(b"x" * 4096, 48)
        elif comm.rank == 48:
            yield from comm.recv(4096, 0)

    result = system.run(program, ranks=[0, 48])
    assert result.degraded_devices == (1,)
    assert result.metrics["faults.devices_degraded"] == 1.0
    assert result.metrics["faults.quarantined{device=1,mode=reset}"] == 1.0


def test_severed_cable_deadlocks_inflight_and_fails_fast_afterwards():
    plan = FaultPlan(
        seed=11,
        devices={1: DeviceFaults(dead_at_ns=100_000.0)},
        on_exhaust="sever",
        max_retries=2,
        retry_timeout_ns=10_000.0,
        backoff_ns=5_000.0,
    )
    system = _system(plan)

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(b"x" * 4096, 48)
        elif comm.rank == 48:
            yield from comm.recv(4096, 0)

    # In-flight transfers on the severed cable are black-holed: their
    # waiters never resume and the kernel reports the deadlock.
    with pytest.raises(DeadlockError):
        system.run(program, ranks=[0, 48])
    assert system.fault_injector.degraded_devices == (1,)
    assert system.fault_injector.quarantined[1] == "severed"

    # New requests targeting the severed route fail fast instead.
    from repro.scc.mpb import MpbAddr

    task = system.host.task_of(0)
    comm = system.comm_for(0)
    device_id, core = system.layout.placement(48)
    gen = task.transparent_read(comm.env, MpbAddr(device_id, core, 0), 32)
    with pytest.raises(DeviceQuarantined):
        next(gen)


def test_empty_plan_is_bit_identical_to_no_plan():
    def run(plan):
        system = _system(plan)
        run_pingpong(system, 0, 48, sizes=(512, 4096), iterations=2)
        return system.sim.now, system.sim.events_processed, system.metrics

    now_a, events_a, metrics_a = run(None)
    now_b, events_b, metrics_b = run(FaultPlan())
    assert now_a == now_b
    assert events_a == events_b
    assert metrics_a == metrics_b


def test_bt_completes_under_global_loss():
    """Fig7-style NPB BT run (64 ranks) under a global lossy plan."""
    from repro.apps.npb import BTBenchmark

    bench = BTBenchmark(clazz="S", nranks=64, niter=1, mode="model")
    system = _system(FaultPlan.lossy(2e-4, seed=5))
    result = system.run(bench.program, ranks=range(64))
    assert len(result.results) == 64
    assert all(isinstance(v, float) for v in result.results.values())
    assert result.degraded_devices == ()
    totals = system.fault_injector.totals()
    assert totals["faults.retries"] > 0
    assert totals["faults.lost"] == 0
    _assert_accounting(totals)


# -- PR 4: faults compose with policy-mixed schemes --------------------------------


def _policy_system(plan=None):
    from repro.vscc.policy import ThresholdPolicy

    return VSCCSystem(num_devices=2, policy=ThresholdPolicy(), fault_plan=plan)


def test_lossy_link_under_threshold_policy_mixed_schemes():
    """The retry layer is scheme-agnostic: one run whose messages ride
    both the cached-get and the vDMA transports (ThresholdPolicy bands)
    stays exactly-once under a lossy link."""
    plan = FaultPlan.lossy(1e-3, link="pcie1.down", seed=2)
    system = _policy_system(plan)
    # Sizes straddle the cutover: 256/2048 → cached-get, 16384/65536 → vDMA.
    points = run_pingpong(system, 0, 48, sizes=PINGPONG_SIZES, iterations=3)
    assert len(points) == len(PINGPONG_SIZES)  # verify=True checked payloads
    metrics = system.metrics
    assert metrics["policy.decisions{scheme=cached-get}"] > 0
    assert metrics["policy.decisions{scheme=vdma}"] > 0
    totals = system.fault_injector.totals()
    assert totals["faults.retries"] > 0
    assert totals["faults.lost"] == 0
    assert system.fault_injector.degraded_devices == ()
    _assert_accounting(totals)


def test_quarantine_fires_under_threshold_policy():
    """A dead device exhausts the retry budget and is quarantined even
    when the run mixes schemes per message (acceptance criterion)."""
    plan = FaultPlan(
        seed=11,
        devices={1: DeviceFaults(dead_at_ns=400_000.0)},
        on_exhaust="reset",
        retry_timeout_ns=10_000.0,
        backoff_ns=5_000.0,
    )
    system = _policy_system(plan)
    points = run_pingpong(system, 0, 48, sizes=(1024, 8192), iterations=2)
    assert len(points) == 2
    totals = system.fault_injector.totals()
    assert totals["faults.resets"] >= 1
    assert system.fault_injector.degraded_devices == (1,)
    assert system.fault_injector.quarantined[1] == "reset"
    _assert_accounting(totals)
