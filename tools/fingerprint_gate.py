#!/usr/bin/env python
"""Fingerprint gate: every simulated result must replay bit for bit.

Each scenario below runs a fixed, deterministic workload — the paper's
figure workloads, the kernel-primitive micro-benchmarks, the fault,
service and RPC scenarios — and returns a *fingerprint* of its
simulated results (``sim_now_ns``, event counts, traffic totals,
outcome digests). The gate runs every selected scenario twice, in this
process; the two runs must agree with each other and with the value
pinned in ``FINGERPRINTS.json`` at the repo root. Any difference is a
correctness failure and is reported per field as ``scenario.field``.

When ``fig7_bt`` is selected the gate also runs it once with delay
fusion and once without: the two must agree on every field except
``events`` (fusion collapses wake-ups, so only the event count may
shrink; DESIGN.md §12).

Host time is not measured here: ``BENCHMARK.json`` and
``benchmarks/e2e/run.py`` are the only host-time bounds.

Usage::

    python tools/fingerprint_gate.py                            # gate all
    python tools/fingerprint_gate.py --scenario fabric_multihost  # a subset
    python tools/fingerprint_gate.py --update                   # re-pin all
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
# Runs from a plain checkout: the scenario modules and ``repro`` itself.
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
sys.path.insert(0, str(REPO_ROOT / "src"))

from bench_kernel_micro import (  # noqa: E402
    chunk_send_churn,
    flag_wait_churn,
    router_account,
    spawn_delay_churn,
    watchpoint_pulse,
    yield_float_churn,
    zero_delay_churn,
)
from bench_ext_rpc import rpc_open_loop  # noqa: E402
from bench_serve_throughput import serve_mixed_tenants  # noqa: E402

#: The pinned fingerprints, one object per scenario.
FINGERPRINTS = REPO_ROOT / "FINGERPRINTS.json"


# -- figure-level scenarios ----------------------------------------------------


def fig6a_pingpong() -> dict:
    """On-chip ping-pong sweep (Fig 6a): RCCE default vs iRCCE pipelined."""
    from repro.bench import fig6a_onchip

    series = fig6a_onchip((256, 1024, 4096, 8192, 16384, 32768), iterations=4)
    total = sum(p.oneway_ns for pts in series.values() for p in pts)
    return {"oneway_sum_ns": total}


def fig6b_interdevice() -> dict:
    """Inter-device ping-pong (Fig 6b) over the three stable schemes."""
    from repro.bench import fig6b_interdevice as run_fig6b
    from repro.vscc.schemes import CommScheme

    series = run_fig6b(
        (1024, 16384, 65536),
        iterations=3,
        schemes=(
            CommScheme.REMOTE_PUT_WCB,
            CommScheme.LOCAL_PUT_REMOTE_GET,
            CommScheme.LOCAL_PUT_LOCAL_GET_VDMA,
        ),
        num_devices=2,
    )
    total = sum(p.oneway_ns for pts in series.values() for p in pts)
    return {"oneway_sum_ns": total}


def fig7_bt(fuse_delays: bool | None = None) -> dict:
    """NPB BT (class S, 64 ranks, vDMA scheme) on the five-device system.

    ``fuse_delays`` pins delay fusion on or off for the paired fusion
    check; ``None`` keeps the simulator's default.
    """
    from repro.apps.npb import BTBenchmark
    from repro.vscc.schemes import CommScheme
    from repro.vscc.system import VSCCSystem

    bench = BTBenchmark(clazz="S", nranks=64, niter=1, mode="model")
    system = VSCCSystem(
        num_devices=5,
        scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA,
        fuse_delays=fuse_delays,
    )
    system.run(bench.program, ranks=range(64))
    return {
        "sim_now_ns": system.sim.now,
        "events": system.sim.events_processed,
    }


def fig8_traffic() -> dict:
    """BT traffic-matrix slice (Fig 8): 64 ranks over two devices."""
    from repro.bench import fig8_bt_traffic

    _matrix, stats, _rendering, _scaled = fig8_bt_traffic(64, "S", 1, 2)
    return {
        "total_bytes": float(stats.total_bytes),
        "max_pair_bytes": float(stats.max_pair_bytes),
    }


def policy_threshold_mixed() -> dict:
    """Mixed-size cross-device traffic under the ThresholdPolicy.

    Exercises the dynamic-selection path: per-message policy decisions,
    the decision journal, and dispatch over two concurrently-built
    transports. The fingerprint pins the per-scheme decision counts on
    top of the usual clock/event pair, so a policy change that moves
    any message to a different scheme fails the gate loudly.
    """
    from repro.vscc.policy import ThresholdPolicy
    from repro.vscc.schemes import CommScheme
    from repro.vscc.system import VSCCSystem

    sizes = (32, 512, 2048, 7680, 16384, 65536)

    def program(comm):
        for _ in range(3):
            for size in sizes:
                payload = bytes(size)
                if comm.rank == 0:
                    yield from comm.send(payload, 48)
                    yield from comm.recv(size, 48)
                else:
                    yield from comm.recv(size, 0)
                    yield from comm.send(payload, 0)

    system = VSCCSystem(num_devices=2, policy=ThresholdPolicy())
    system.run(program, ranks=[0, 48])
    metrics = system.metrics
    return {
        "sim_now_ns": system.sim.now,
        "events": system.sim.events_processed,
        "decisions_cached": metrics[
            f"policy.decisions{{scheme={CommScheme.LOCAL_PUT_REMOTE_GET.value}}}"
        ],
        "decisions_vdma": metrics[
            f"policy.decisions{{scheme={CommScheme.LOCAL_PUT_LOCAL_GET_VDMA.value}}}"
        ],
    }


def coll_hier_allreduce() -> dict:
    """Flat vs two-level allreduce/barrier on the five-device machine.

    The fingerprint pins both phase durations (simulated ns) so a change
    to either collective implementation — or to the scheme policy the
    leader phase dispatches through — fails the gate loudly. The
    hierarchical phase must stay faster than the flat one at full scale;
    the gap *is* the PCIe-crossing argument of DESIGN.md §10.
    """
    from repro.vscc.schemes import CommScheme
    from repro.vscc.system import VSCCSystem

    import numpy as np

    system = VSCCSystem(
        num_devices=5, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA
    )
    nranks = system.num_ranks
    phases = {}

    def program(comm):
        for impl, hier in (("flat", False), ("hier", True)):
            yield from comm.barrier(group_size=nranks, hierarchical=hier)
            t0 = comm.env.sim.now
            yield from comm.barrier(group_size=nranks, hierarchical=hier)
            t1 = comm.env.sim.now
            yield from comm.allreduce(
                np.arange(64.0), np.add, group_size=nranks, hierarchical=hier
            )
            t2 = comm.env.sim.now
            if comm.rank == 0:
                phases[f"{impl}_barrier_ns"] = t1 - t0
                phases[f"{impl}_allreduce_ns"] = t2 - t1

    system.run(program, ranks=range(nranks))
    assert phases["hier_barrier_ns"] < phases["flat_barrier_ns"]
    assert phases["hier_allreduce_ns"] < phases["flat_allreduce_ns"]
    return {
        "sim_now_ns": system.sim.now,
        "events": system.sim.events_processed,
        **phases,
    }


def fabric_multihost() -> dict:
    """Three-level collectives on a 2-host × 4-device (192-rank) fabric.

    The multi-host scaling scenario: a hierarchical barrier + allreduce
    over every rank of a clustered system, where per-device leaders
    funnel through per-host leaders and only the host leaders' messages
    cross the inter-host tier. The fingerprint pins the simulated clock,
    the event count and the total inter-host byte volume, so a change to
    the fabric routing, the host-affinity policy or the third collective
    level fails the gate loudly.
    """
    from repro.rcce.api import RcceOptions
    from repro.vscc.schemes import CommScheme
    from repro.vscc.system import VSCCSystem

    import numpy as np

    system = VSCCSystem(
        num_hosts=2,
        devices_per_host=2,
        scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA,
        options=RcceOptions(hierarchical_collectives=True),
    )
    nranks = system.num_ranks
    phases = {}

    def program(comm):
        yield from comm.barrier(group_size=nranks)
        t0 = comm.env.sim.now
        yield from comm.barrier(group_size=nranks)
        t1 = comm.env.sim.now
        yield from comm.allreduce(np.arange(64.0), np.add, group_size=nranks)
        t2 = comm.env.sim.now
        if comm.rank == 0:
            phases["barrier_ns"] = t1 - t0
            phases["allreduce_ns"] = t2 - t1

    system.run(program)
    metrics = system.metrics
    interhost_bytes = sum(
        v for k, v in metrics.items() if k.startswith("interhost.bytes")
    )
    assert interhost_bytes > 0
    return {
        "sim_now_ns": system.sim.now,
        "events": system.sim.events_processed,
        "interhost_bytes": interhost_bytes,
        **phases,
    }


def faults_lossy_pingpong() -> dict:
    """Cross-device ping-pong under a seeded lossy link plan.

    The fingerprint includes the fault counters: the retry/backoff
    machinery is seed-deterministic, so drops/retries/resets must be
    bit-identical across repeats exactly like simulated time.
    """
    from repro.bench.figures import run_pingpong
    from repro.faults import FaultPlan
    from repro.vscc.schemes import CommScheme
    from repro.vscc.system import VSCCSystem

    system = VSCCSystem(
        num_devices=2,
        scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA,
        fault_plan=FaultPlan.lossy(1e-3, seed=7),
    )
    points = run_pingpong(system, 0, 48, sizes=(256, 4096, 65536), iterations=3)
    totals = system.fault_injector.totals()
    return {
        "sim_now_ns": system.sim.now,
        "oneway_sum_ns": sum(p.oneway_ns for p in points),
        "faults_sent": totals["faults.sent"],
        "faults_retries": totals["faults.retries"],
        "faults_dropped": totals["faults.dropped"],
        "degraded": list(system.fault_injector.degraded_devices),
    }


def faults_dead_device() -> dict:
    """A device dies mid-run; the reset path must finish the workload."""
    from repro.bench.figures import run_pingpong
    from repro.faults import DeviceFaults, FaultPlan
    from repro.vscc.schemes import CommScheme
    from repro.vscc.system import VSCCSystem

    plan = FaultPlan(
        seed=11,
        devices={1: DeviceFaults(dead_at_ns=400_000.0)},
        on_exhaust="reset",
        retry_timeout_ns=10_000.0,
        backoff_ns=5_000.0,
    )
    system = VSCCSystem(
        num_devices=2,
        scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA,
        fault_plan=plan,
    )
    points = run_pingpong(system, 0, 48, sizes=(1024, 8192), iterations=2)
    totals = system.fault_injector.totals()
    return {
        "sim_now_ns": system.sim.now,
        "oneway_sum_ns": sum(p.oneway_ns for p in points),
        "faults_resets": totals["faults.resets"],
        "degraded": list(system.fault_injector.degraded_devices),
    }


# -- registry ------------------------------------------------------------------

SCENARIOS = {
    "fig6a_pingpong": fig6a_pingpong,
    "fig6b_interdevice": fig6b_interdevice,
    "fig7_bt": fig7_bt,
    "fig8_traffic": fig8_traffic,
    "policy_threshold_mixed": policy_threshold_mixed,
    "coll_hier_allreduce": coll_hier_allreduce,
    "fabric_multihost": fabric_multihost,
    "faults_lossy_pingpong": faults_lossy_pingpong,
    "faults_dead_device": faults_dead_device,
    "micro_spawn_delay": spawn_delay_churn,
    "micro_yield_float": yield_float_churn,
    "micro_zero_delay": zero_delay_churn,
    "micro_watchpoint_pulse": watchpoint_pulse,
    "micro_router_account": router_account,
    "micro_flag_wait": flag_wait_churn,
    "micro_chunk_send": chunk_send_churn,
    "serve_mixed_tenants": serve_mixed_tenants,
    "rpc_open_loop": rpc_open_loop,
}

#: The scenario run fused and unfused by the paired fusion check.
FUSION_SCENARIO = "fig7_bt"

#: Fingerprint fields allowed to differ between fused and unfused runs:
#: fusing collapses consecutive wake-ups into one, so the event count
#: legitimately shrinks. Everything else must be bit-identical.
_FUSE_VARIANT_KEYS = {"events"}


# -- the gate ------------------------------------------------------------------


def fingerprint_drift(base_fp: dict, fresh_fp: dict) -> list[str]:
    """Per-field drift report between two fingerprints (empty = equal).

    Names every field that changed value, vanished, or newly appeared,
    so a failing gate says *which* simulated result moved instead of
    dumping two whole dicts to eyeball.
    """
    drifts: list[str] = []
    for key in sorted(set(base_fp) | set(fresh_fp)):
        if key not in fresh_fp:
            drifts.append(f"{key}: missing from fresh run (baseline {base_fp[key]!r})")
        elif key not in base_fp:
            drifts.append(f"{key}: new field not in baseline (fresh {fresh_fp[key]!r})")
        elif base_fp[key] != fresh_fp[key]:
            drifts.append(f"{key}: {base_fp[key]!r} -> {fresh_fp[key]!r}")
    return drifts


def _report(name: str, what: str, drifts: list[str]) -> list[str]:
    return [f"{name}: {what}:"] + [f"    {name}.{drift}" for drift in drifts]


def run_scenarios(
    names: list[str], golden: dict | None, scenarios: dict = SCENARIOS
) -> tuple[dict, list[str]]:
    """Run each scenario twice; returns (fingerprints, failures).

    The second run must match the first (else the simulation is
    nondeterministic) and, unless ``golden`` is ``None``, the first
    must match ``golden[name]``.
    """
    fresh: dict[str, dict] = {}
    failures: list[str] = []
    for name in names:
        first = scenarios[name]()
        drifts = fingerprint_drift(first, scenarios[name]())
        if drifts:
            status = "NONDETERMINISTIC"
            failures += _report(name, "nondeterministic (first -> second run)", drifts)
        elif golden is None:
            status = "ok"
        elif name not in golden:
            status = "UNPINNED"
            failures.append(f"{name}: no pinned fingerprint (run --update)")
        else:
            drifts = fingerprint_drift(golden[name], first)
            status = "DRIFT" if drifts else "ok"
            if drifts:
                failures += _report(name, "fingerprint drifted (pinned -> fresh)", drifts)
        print(f"{name:26s} {status}")
        fresh[name] = first
    return fresh, failures


def fusion_drift(unfused: dict, fused: dict) -> list[str]:
    """Drift between an unfused and a fused fingerprint, ``events`` aside."""
    return fingerprint_drift(
        {k: v for k, v in unfused.items() if k not in _FUSE_VARIANT_KEYS},
        {k: v for k, v in fused.items() if k not in _FUSE_VARIANT_KEYS},
    )


def check_fusion() -> list[str]:
    """Paired fused-vs-unfused run of :data:`FUSION_SCENARIO`."""
    scenario = SCENARIOS[FUSION_SCENARIO]
    unfused = scenario(fuse_delays=False)
    fused = scenario(fuse_delays=True)
    drifts = fusion_drift(unfused, fused)
    if drifts:
        print(f"{FUSION_SCENARIO} fused vs unfused: MISMATCH")
        return _report(
            FUSION_SCENARIO, "fused run diverges from unfused (unfused -> fused)", drifts
        )
    print(
        f"{FUSION_SCENARIO} fused vs unfused: bit-identical "
        f"(events {unfused['events']} unfused -> {fused['events']} fused)"
    )
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--scenario",
        action="append",
        choices=sorted(SCENARIOS),
        metavar="NAME",
        help="gate only this scenario (repeatable; default: all)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help=f"rerun every scenario and rewrite {FINGERPRINTS.name}",
    )
    args = parser.parse_args(argv)
    if args.update and args.scenario:
        parser.error("--update reruns every scenario; drop --scenario")

    names = args.scenario or sorted(SCENARIOS)
    golden = None if args.update else json.loads(FINGERPRINTS.read_text())
    fresh, failures = run_scenarios(names, golden)
    if FUSION_SCENARIO in names:
        failures += check_fusion()

    if failures:
        print("\nfingerprint gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    if args.update:
        FINGERPRINTS.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
        print(f"\nwrote {FINGERPRINTS.name}")
    else:
        print("\nfingerprint gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
