"""Wall-clock performance harness: the repo's perf trajectory.

Unlike the figure benches (which report *simulated* nanoseconds), this
harness measures **host wall-clock seconds** for a fixed set of
deterministic scenarios — the paper's figure workloads plus the
kernel-primitive micro-benchmarks — and records them in a JSON document
(checked in at the repo root as ``BENCH_wallclock.json``).

Every scenario returns a *fingerprint* of its simulated results
(``sim_now_ns``, event counts, traffic totals). Fingerprints must be
bit-identical across repeats and across optimization PRs: a kernel
change that shifts wall-clock is expected, one that shifts the
fingerprint is a correctness bug. ``tools/perf_gate.py`` enforces both
properties against the checked-in baseline.

Usage::

    PYTHONPATH=src python benchmarks/bench_wallclock.py                # print table
    PYTHONPATH=src python benchmarks/bench_wallclock.py --out run.json # also write JSON
    PYTHONPATH=src python benchmarks/bench_wallclock.py \
        --update-baseline BENCH_wallclock.json                         # refresh baseline

``--update-baseline`` merges the fresh measurement into an existing
baseline file: each measured scenario's ``wall_s`` and fingerprint are
replaced, every other scenario is carried forward.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

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

SCHEMA_VERSION = 1
#: Allowed wall-clock regression before tools/perf_gate.py fails (15 %).
REGRESSION_TOLERANCE = 0.15


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


def fig7_bt() -> dict:
    """NPB BT (class S, 64 ranks, vDMA scheme) on the five-device system."""
    from repro.apps.npb import BTBenchmark
    from repro.vscc.schemes import CommScheme
    from repro.vscc.system import VSCCSystem

    bench = BTBenchmark(clazz="S", nranks=64, niter=1, mode="model")
    system = VSCCSystem(num_devices=5, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA)
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

#: Chaos profile: run with ``--faults``. Kept out of the default set (and
#: out of the checked-in baseline) — they exercise the fault-injection
#: subsystem, whose fingerprints include retry/reset counters.
FAULT_SCENARIOS = {
    "faults_lossy_pingpong": faults_lossy_pingpong,
    "faults_dead_device": faults_dead_device,
}

SCENARIOS = {
    "fig6a_pingpong": fig6a_pingpong,
    "fig6b_interdevice": fig6b_interdevice,
    "fig7_bt": fig7_bt,
    "fig8_traffic": fig8_traffic,
    "policy_threshold_mixed": policy_threshold_mixed,
    "coll_hier_allreduce": coll_hier_allreduce,
    "fabric_multihost": fabric_multihost,
    "micro_spawn_delay": spawn_delay_churn,
    "micro_yield_float": yield_float_churn,
    "micro_zero_delay": zero_delay_churn,
    "micro_watchpoint_pulse": watchpoint_pulse,
    "micro_router_account": router_account,
    "micro_flag_wait": flag_wait_churn,
    "micro_chunk_send": chunk_send_churn,
    "serve_mixed_tenants": serve_mixed_tenants,
    "rpc_open_loop": rpc_open_loop,
    **FAULT_SCENARIOS,
}


@contextlib.contextmanager
def restore_repro_env():
    """Undo any ``REPRO_*`` mutation a scenario makes, even on failure.

    The fusion env var is read lazily per-simulator, so a scenario that
    pins it and then raises would silently change the event stream of
    every scenario after it — and the whole measurement document would
    be wrong without any fingerprint noticing.
    """
    saved = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    try:
        yield
    finally:
        for key in [k for k in os.environ if k.startswith("REPRO_")]:
            if key not in saved:
                del os.environ[key]
        os.environ.update(saved)


def run_scenarios(names: list[str], repeat: int) -> dict:
    """Run each scenario ``repeat`` times; keep the best wall second.

    The simulated fingerprint must be identical across repeats —
    a mismatch means the simulation itself is nondeterministic, which is
    a hard error (no timing numbers are trustworthy then).
    """
    results: dict[str, dict] = {}
    for name in names:
        fn = SCENARIOS[name]
        best = None
        fingerprint = None
        for _ in range(repeat):
            t0 = time.perf_counter()
            with restore_repro_env():
                fp = fn()
            wall = time.perf_counter() - t0
            if fingerprint is None:
                fingerprint = fp
            elif fp != fingerprint:
                raise AssertionError(
                    f"scenario {name!r} is nondeterministic: "
                    f"{fp} != {fingerprint}"
                )
            if best is None or wall < best:
                best = wall
        results[name] = {"wall_s": round(best, 4), **fingerprint}
    return results


# -- event-source attribution --------------------------------------------------


def collect_attribution(names: list[str]) -> dict[str, dict[str, float]]:
    """Run each scenario once, aggregating ``kernel.events{source=...}``.

    Scenarios build their own simulators internally, so the harness
    briefly instruments ``Simulator.__init__`` to collect every instance
    a scenario creates, then sums the per-source event counters (and
    ``kernel.fused_yields``) across them. Diagnostic only — wall seconds
    measured here are not recorded.
    """
    from repro.sim import engine

    prefix = "kernel.events{source="
    attribution: dict[str, dict[str, float]] = {}
    for name in names:
        sims: list = []
        original = engine.Simulator.__init__

        def patched(self, *a, _original=original, _sims=sims, **kw):
            _original(self, *a, **kw)
            _sims.append(self)

        engine.Simulator.__init__ = patched
        try:
            with restore_repro_env():
                SCENARIOS[name]()
        finally:
            engine.Simulator.__init__ = original
        agg: dict[str, float] = {}
        for sim in sims:
            for key, value in sim.metrics_snapshot().items():
                if key.startswith(prefix):
                    source = key[len(prefix) : -1]
                    agg[source] = agg.get(source, 0.0) + value
                elif key == "kernel.fused_yields":
                    agg["fused_yields"] = agg.get("fused_yields", 0.0) + value
        attribution[name] = agg
    return attribution


def print_attribution(attribution: dict[str, dict[str, float]], top: int = 6) -> None:
    print("\nevent sources (top contributors per scenario):")
    for name, agg in attribution.items():
        fused = agg.get("fused_yields", 0.0)
        sources = {k: v for k, v in agg.items() if k != "fused_yields"}
        if not sources:
            print(f"  {name:26s} (no kernel counters)")
            continue
        ranked = sorted(sources.items(), key=lambda kv: -kv[1])[:top]
        total = sum(sources.values())
        parts = ", ".join(f"{src}={int(count)}" for src, count in ranked)
        print(
            f"  {name:26s} events={int(total)} fused_yields={int(fused)}  {parts}"
        )


# -- JSON I/O ------------------------------------------------------------------


def fresh_document(results: dict) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "tolerance": REGRESSION_TOLERANCE,
        "generated_by": "benchmarks/bench_wallclock.py",
        "scenarios": results,
    }


def merge_baseline(baseline: dict, results: dict) -> dict:
    """Fold a fresh run into an existing baseline document.

    Per measured scenario the fresh entry (``wall_s`` plus fingerprint)
    replaces the old one. Baseline scenarios *not* in this run (e.g. a
    ``--scenario``-filtered refresh) are carried forward untouched, so a
    partial update never silently drops the rest of the gate.
    """
    merged = {**baseline.get("scenarios", {}), **results}
    doc = fresh_document(merged)
    # Hand-maintained gate configuration rides along across refreshes.
    if "tolerance_overrides" in baseline:
        doc["tolerance_overrides"] = baseline["tolerance_overrides"]
    return doc


def print_table(results: dict) -> None:
    print(f"{'scenario':26s} {'wall_s':>9s}")
    for name, entry in results.items():
        print(f"{name:26s} {entry['wall_s']:9.4f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--scenario",
        action="append",
        choices=sorted(SCENARIOS),
        help="run only these scenarios (default: all)",
    )
    parser.add_argument("--repeat", type=int, default=3, help="best-of-N timing")
    parser.add_argument(
        "--faults",
        action="store_true",
        help="include the chaos profile (fault-injection scenarios); these "
        "are excluded from the default run and the checked-in baseline",
    )
    parser.add_argument(
        "--attribute",
        action="store_true",
        help="after the timing table, print the top kernel event sources "
        "per scenario (one extra instrumented run each)",
    )
    parser.add_argument("--out", type=Path, help="write the fresh run as JSON")
    parser.add_argument(
        "--update-baseline",
        type=Path,
        metavar="BASELINE_JSON",
        help="merge the fresh run into this baseline file in place",
    )
    args = parser.parse_args(argv)

    if args.scenario:
        names = args.scenario
    elif args.faults:
        names = sorted(SCENARIOS)
    else:
        names = sorted(set(SCENARIOS) - set(FAULT_SCENARIOS))
    results = run_scenarios(names, max(1, args.repeat))

    if args.update_baseline is not None:
        baseline = {}
        if args.update_baseline.exists():
            baseline = json.loads(args.update_baseline.read_text())
        doc = merge_baseline(baseline, results)
        args.update_baseline.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"baseline updated: {args.update_baseline}")
        print_table(doc["scenarios"])
    else:
        print_table(results)

    if args.out is not None:
        doc = fresh_document(results)
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.out}")

    if args.attribute:
        print_attribution(collect_attribution(names))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
