"""One registry of every workload the repository runs.

* :data:`WORKLOADS` — ``name -> fn(system, params) -> RunResult``: the
  workloads a :class:`repro.serve.JobSpec` names, run on the system the
  job built with the spec's JSON-able ``params``.
* :data:`SCENARIOS` — ``name -> fn() -> dict``: the deterministic
  scenarios ``tools/fingerprint_gate.py`` pins in ``FINGERPRINTS.json``
  and replays with delay fusion on and off. Each returns a
  *fingerprint* of its simulated results and builds everything it runs
  inside the call, so the two replays share no state. Adding one is
  one entry here plus ``python tools/fingerprint_gate.py --update``.

Each workload is defined once: NPB BT by
:func:`repro.apps.npb.run_bt` (also behind the Fig 7/8 sweeps of
:mod:`repro.bench.figures`), ping-pong by :mod:`repro.apps.pingpong`,
open-loop RPC by :func:`rpc_report`. Heavy imports stay inside each
function, so importing the registry is cheap.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import time
from dataclasses import replace
from functools import partial
from typing import Callable, Mapping

__all__ = [
    "RPC_TRACE",
    "SCENARIOS",
    "WORKLOADS",
    "outcome_fingerprint",
    "rpc_report",
    "run_fleet",
]


# -- shared building blocks ----------------------------------------------------


#: The :class:`repro.apps.rpc.RpcParams` fields a job's ``params`` may set.
_RPC_KNOBS = ("coalesce_bytes", "coalesce_max", "batch_bytes", "flush_deadline_ns", "cache")


def _rpc_trace(params: Mapping, nranks: int) -> list:
    """The open-loop call trace the JSON-able ``params`` describe.

    ``arrivals`` picks the interarrival process ("poisson" with
    ``mean_gap_ns``, or "bursty" with ``on_gap_ns``/``off_gap_ns``/
    ``burst_mean``); request/response sizes are bounded-Pareto
    (``req_alpha``/``req_cap`` and ``resp_alpha``/``resp_cap``). The
    trace is a pure function of ``params``, so a re-run replays the
    identical call sequence.
    """
    from repro.bench.arrivals import (
        BurstyArrivals,
        ParetoSizes,
        PoissonArrivals,
        generate_calls,
    )

    kind = str(params.get("arrivals", "poisson"))
    if kind == "poisson":
        arrivals = PoissonArrivals(float(params.get("mean_gap_ns", 4000.0)))
    elif kind == "bursty":
        arrivals = BurstyArrivals(
            on_gap_ns=float(params.get("on_gap_ns", 400.0)),
            off_gap_ns=float(params.get("off_gap_ns", 40_000.0)),
            burst_mean=float(params.get("burst_mean", 8.0)),
        )
    else:
        raise ValueError(f"unknown arrival process {kind!r}")
    return generate_calls(
        ranks=range(nranks),
        calls_per_rank=int(params.get("calls_per_rank", 32)),
        arrivals=arrivals,
        req_sizes=ParetoSizes(
            alpha=float(params.get("req_alpha", 1.3)),
            cap_bytes=int(params.get("req_cap", 16384)),
        ),
        resp_sizes=ParetoSizes(
            alpha=float(params.get("resp_alpha", 1.2)),
            floor_bytes=48,
            cap_bytes=int(params.get("resp_cap", 32768)),
        ),
        seed=int(params.get("trace_seed", 0)),
        priority_every=int(params.get("priority_every", 0)),
    )


def rpc_report(system, params: Mapping):
    """Trace ``params`` over the first ``nranks`` ranks and serve it.

    The dispatcher knobs in :data:`_RPC_KNOBS` override their
    :class:`repro.apps.rpc.RpcParams` defaults. Raises
    :class:`repro.serve.JobError` if a response goes missing; returns the
    :class:`repro.apps.rpc.RpcReport`.
    """
    from repro.apps.rpc import RpcParams, run_rpc
    from repro.serve.job import JobError

    defaults = RpcParams()
    rpc_params = replace(
        defaults,
        **{k: type(getattr(defaults, k))(params[k]) for k in _RPC_KNOBS if k in params},
    )
    nranks = int(params.get("nranks", min(4, system.num_ranks)))
    report = run_rpc(system, _rpc_trace(params, nranks), rpc_params)
    if report.completed != report.offered:
        raise JobError(
            "LostResponses",
            f"rpc job lost responses: {report.completed}/{report.offered}",
        )
    return report


# -- workloads -----------------------------------------------------------------


def _spin(system, params):
    """Pure-delay burner on rank 0: ``steps`` yields of ``step_ns`` each.

    The cheapest possible job — no communication, scheduler-shaped load
    for throughput benches and chaos tests (long enough wall time to be
    killed mid-run when ``steps`` is large).
    """
    steps = int(params.get("steps", 64))
    step_ns = float(params.get("step_ns", 1000.0))

    def program(comm):
        for _ in range(steps):
            yield step_ns
        return steps

    return system.run(program, ranks=[0])


def _pingpong(system, params):
    """Two ranks bounce ``sizes`` payloads ``iterations`` times each."""
    from repro.apps.pingpong import pingpong_program

    rank_a, rank_b = (int(r) for r in params.get("ranks", (0, 1)))
    program = pingpong_program(
        rank_a,
        rank_b,
        sizes=tuple(int(s) for s in params.get("sizes", (256, 4096))),
        iterations=int(params.get("iterations", 1)),
        warmup=0,
        verify=bool(params.get("verify", True)),
    )
    return system.run(program, ranks=sorted((rank_a, rank_b)))


def _allreduce(system, params):
    """Small allreduce + barrier over the first ``nranks`` ranks."""
    import numpy as np

    nranks = int(params.get("nranks", min(4, system.num_ranks)))
    length = int(params.get("length", 16))
    hierarchical = bool(params.get("hierarchical", False))

    def program(comm):
        yield from comm.barrier(group_size=nranks, hierarchical=hierarchical)
        out = yield from comm.allreduce(
            np.arange(float(length)),
            np.add,
            group_size=nranks,
            hierarchical=hierarchical,
        )
        return float(np.asarray(out).sum())

    return system.run(program, ranks=range(nranks))


def _bt(system, params):
    """NPB BT (model mode) — the heavyweight of the mixed-tenant bench."""
    from repro.apps.npb import run_bt

    _bench, run = run_bt(
        system,
        clazz=str(params.get("clazz", "S")),
        nranks=int(params.get("nranks", 16)),
        niter=int(params.get("niter", 1)),
    )
    return run


def _rpc(system, params):
    """Open-loop RPC offload (:mod:`repro.apps.rpc`); see :func:`rpc_report`."""
    return rpc_report(system, params).run


def _deadlock(system, params):
    """Two ranks each waiting on the other — the error-propagation probe.

    Deterministically raises :class:`repro.sim.errors.DeadlockError`;
    the test harness uses it to assert failed jobs surface clean errors
    instead of hanging the service.
    """

    def program(comm):
        peer = 1 - comm.rank
        yield from comm.recv(16, peer)

    return system.run(program, ranks=[0, 1])


#: Workloads a :class:`repro.serve.JobSpec` can name.
WORKLOADS: dict[str, Callable] = {
    "spin": _spin,
    "pingpong": _pingpong,
    "allreduce": _allreduce,
    "bt": _bt,
    "rpc": _rpc,
    "deadlock": _deadlock,
}


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
    from repro.apps.npb import run_bt
    from repro.vscc.schemes import CommScheme
    from repro.vscc.system import VSCCSystem

    system = VSCCSystem(num_devices=5, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA)
    run_bt(system, "S", 64, 1)
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


def _collective_phases(comm, nranks: int, phases: dict, prefix: str = "", **kw):
    """Warm-up barrier, then a timed barrier and a timed 64-double allreduce.

    Rank 0 records both durations (simulated ns) in ``phases``.
    """
    import numpy as np

    yield from comm.barrier(group_size=nranks, **kw)
    t0 = comm.env.sim.now
    yield from comm.barrier(group_size=nranks, **kw)
    t1 = comm.env.sim.now
    yield from comm.allreduce(np.arange(64.0), np.add, group_size=nranks, **kw)
    t2 = comm.env.sim.now
    if comm.rank == 0:
        phases[f"{prefix}barrier_ns"] = t1 - t0
        phases[f"{prefix}allreduce_ns"] = t2 - t1


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

    system = VSCCSystem(
        num_devices=5, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA
    )
    nranks = system.num_ranks
    phases = {}

    def program(comm):
        for impl, hier in (("flat", False), ("hier", True)):
            yield from _collective_phases(
                comm, nranks, phases, f"{impl}_", hierarchical=hier
            )

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
    from repro.vscc.schemes import CommScheme
    from repro.vscc.system import VSCCSystem

    system = VSCCSystem(
        num_hosts=2,
        devices_per_host=2,
        scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA,
    )
    nranks = system.num_ranks
    phases = {}
    system.run(
        lambda comm: _collective_phases(comm, nranks, phases, hierarchical=True)
    )
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


def faults_pingpong(kind: str) -> dict:
    """Cross-device ping-pong under a seeded fault plan.

    ``kind="lossy"`` drops packets on a lossy link; ``kind="dead"``
    kills device 1 mid-run and the reset path must finish the workload.
    The fingerprint includes the fault counters: the retry/backoff
    machinery is seed-deterministic, so they must be bit-identical
    across repeats exactly like simulated time.
    """
    from repro.apps.pingpong import run_pingpong
    from repro.faults import DeviceFaults, FaultPlan
    from repro.vscc.schemes import CommScheme
    from repro.vscc.system import VSCCSystem

    if kind == "lossy":
        plan = FaultPlan.lossy(1e-3, seed=7)
        sizes, iterations, counters = (256, 4096, 65536), 3, ("sent", "retries", "dropped")
    else:
        plan = FaultPlan(
            seed=11,
            devices={1: DeviceFaults(dead_at_ns=400_000.0)},
            on_exhaust="reset",
            retry_timeout_ns=10_000.0,
            backoff_ns=5_000.0,
        )
        sizes, iterations, counters = (1024, 8192), 2, ("resets",)
    system = VSCCSystem(
        num_devices=2,
        scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA,
        fault_plan=plan,
    )
    points = run_pingpong(system, 0, 48, sizes=sizes, iterations=iterations)
    totals = system.fault_injector.totals()
    return {
        "sim_now_ns": system.sim.now,
        "oneway_sum_ns": sum(p.oneway_ns for p in points),
        **{f"faults_{c}": totals[f"faults.{c}"] for c in counters},
        "degraded": list(system.fault_injector.degraded_devices),
    }


# -- RCCE flag and chunked-send paths ------------------------------------------


def flag_wait_churn(nrounds: int = 400) -> dict:
    """set_flag/wait_flag ping-pong between two on-die ranks.

    Exercises the flag hot path end to end: remote one-byte flag write
    (mesh hop + ``call_at`` arrival), watchpoint park, and the fused
    watch-then-poll wake in ``wait_flag_pred`` — the exact pattern that
    dominates the RCCE transports.
    """
    from repro.rcce.flags import FlagLayout
    from repro.rcce.session import RcceSession

    session = RcceSession()
    fl = session.flags
    ping = fl.sent(1, 0)  # in rank 1's SF, written by rank 0
    pong = fl.sent(0, 1)  # in rank 0's SF, written by rank 1

    def rank0(comm):
        env = comm.env
        seq = 0
        for _ in range(nrounds):
            seq = FlagLayout.next_seq(seq)
            yield from env.set_flag(ping, seq)
            yield from env.wait_flag(pong, seq)

    def rank1(comm):
        env = comm.env
        seq = 0
        for _ in range(nrounds):
            seq = FlagLayout.next_seq(seq)
            yield from env.wait_flag(ping, seq)
            yield from env.set_flag(pong, seq)

    sim = session.sim
    sim.spawn(rank0(session.comm_for(0)), name="rank0")
    sim.spawn(rank1(session.comm_for(1)), name="rank1")
    sim.run()
    return {
        "ops": 2 * nrounds,
        "sim_now_ns": sim.now,
        "events": sim.events_processed,
    }


def chunk_send_churn(nmsgs: int = 48, nbytes: int = 4096) -> dict:
    """Blocking RCCE send/recv stream between two on-die ranks.

    Exercises the chunked default transport — ``put_chunk``/``get_chunk``
    staging through the communication buffer plus the sent/ready flag
    handshake — with a payload checksum in the fingerprint so data
    corruption fails the bench, not just timing drift.
    """
    import numpy as np

    from repro.rcce.session import RcceSession

    session = RcceSession()
    payload = (np.arange(nbytes, dtype=np.int64) % 251).astype(np.uint8)
    checksums: list[int] = []

    def sender(comm):
        for _ in range(nmsgs):
            yield from comm.send(payload, dest=1)

    def receiver(comm):
        for _ in range(nmsgs):
            data = yield from comm.recv(nbytes, src=0)
            checksums.append(int(data[::97].sum()))

    sim = session.sim
    sim.spawn(sender(session.comm_for(0)), name="rank0")
    sim.spawn(receiver(session.comm_for(1)), name="rank1")
    sim.run()
    return {
        "ops": nmsgs,
        "bytes": float(nmsgs * nbytes),
        "checksum": float(sum(checksums)),
        "sim_now_ns": sim.now,
        "events": sim.events_processed,
    }


# -- the mixed-tenant service fleet --------------------------------------------

#: Tenants of the mixed fleet; ``acme`` carries double fair-share weight
#: so the fleet also exercises the weighted path of the scheduler.
TENANTS = ("acme", "globex", "initech")
TENANT_WEIGHTS = {"acme": 2.0}

#: Workload mix (name, params, num_devices, scheme) with draw weights.
#: Spin dominates — it is the scheduler-shaped load — with enough
#: communication jobs mixed in to keep transports and collectives on
#: the hot path.
_MIX = (
    (6, ("spin", {"steps": 2_000, "step_ns": 10.0}, 1, None)),
    (2, ("spin", {"steps": 8_000, "step_ns": 10.0}, 1, None)),
    (2, ("pingpong", {"sizes": (256, 2048), "iterations": 1}, 2, "vdma")),
    (1, ("allreduce", {"nranks": 4, "length": 16}, 1, None)),
)


def build_specs(jobs: int, seed: int) -> list:
    """The seeded fleet: deterministic specs, tenants and priorities."""
    from repro.serve import JobSpec

    rng = random.Random(seed)
    weighted = [entry for weight, entry in _MIX for _ in range(weight)]
    specs = []
    for index in range(jobs):
        workload, params, num_devices, scheme = rng.choice(weighted)
        specs.append(
            JobSpec(
                workload=workload,
                params=dict(params),
                tenant=TENANTS[index % len(TENANTS)],
                priority=rng.randint(0, 3),
                num_devices=num_devices,
                scheme=scheme,
                seed=seed + index,
            )
        )
    return specs


async def _drive(specs, workers: int, pool: str, mode: str, rate_hz: float,
                 seed: int) -> dict:
    """Submit the fleet, drain it, measure. Returns the raw run record."""
    from repro.serve import SimService

    rng = random.Random(seed)
    async with SimService(workers=workers, pool=pool,
                          weights=TENANT_WEIGHTS) as service:
        t0 = time.perf_counter()
        peak_queued = 0
        for spec in specs:
            if mode == "poisson":
                await asyncio.sleep(rng.expovariate(rate_hz))
            await service.submit(spec)
            peak_queued = max(peak_queued, len(service.core.scheduler))
        submitted_s = time.perf_counter() - t0
        results = await service.join(timeout=600)
        wall_s = time.perf_counter() - t0
        return {
            "results": results,
            "wall_s": wall_s,
            "submitted_s": submitted_s,
            "peak_queued": peak_queued,
            "latency": service.latency_summary(),
        }


def run_fleet(jobs: int = 132, workers: int = 2, pool: str = "inline",
              mode: str = "burst", rate_hz: float = 500.0,
              seed: int = 2026) -> dict:
    """Submit ``jobs`` seeded mixed-tenant jobs to a fresh service.

    ``mode="burst"`` submits everything at once; ``"poisson"`` spaces
    submissions as open-loop arrivals at ``rate_hz`` jobs/sec.
    """
    specs = build_specs(jobs, seed)
    return asyncio.run(_drive(specs, workers, pool, mode, rate_hz, seed))


def outcome_fingerprint(results) -> dict:
    """Digest + aggregates over the deterministic part of the outcomes.

    Only simulated results enter: wall latencies, queue waits and
    attempt counts are scheduling artifacts and must not fail a gate.
    """
    rows = sorted(
        (r.job_id, r.state, r.sim_now_ns or 0.0, r.events or 0.0)
        for r in results
    )
    digest = hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode()
    ).hexdigest()[:16]
    return {
        "jobs": float(len(rows)),
        "completed": float(sum(1 for r in results if r.state == "completed")),
        "sim_now_sum_ns": sum(row[2] for row in rows),
        "events_sum": sum(row[3] for row in rows),
        "outcome_digest": digest,
    }


def serve_mixed_tenants() -> dict:
    """Burst 132 mixed-tenant jobs through the service; fingerprint them.

    The fingerprint is the outcome digest of the whole fleet (scheduler
    + pool + per-job system builds). The in-scenario assertions *are*
    the service-level acceptance bar — a backlog of >= 100 concurrently
    queued jobs across >= 3 tenants, every job terminal.
    """
    record = run_fleet(jobs=132, workers=2, pool="inline", mode="burst")
    results = record["results"]
    assert record["peak_queued"] >= 100, (
        f"backlog never reached 100 queued jobs "
        f"(peak {record['peak_queued']}); the bench is not exercising "
        f"a saturated service"
    )
    tenants = {r.tenant for r in results}
    assert len(tenants) >= 3, f"expected >= 3 tenants, saw {sorted(tenants)}"
    fingerprint = outcome_fingerprint(results)
    assert fingerprint["completed"] == fingerprint["jobs"], (
        f"fleet did not fully complete: {fingerprint}"
    )
    return fingerprint


# -- open-loop RPC -------------------------------------------------------------

#: The bursty mid-load trace of ``rpc_open_loop``;
#: ``benchmarks/bench_ext_rpc.py`` sweeps its load and arrival process.
RPC_TRACE = {
    "nranks": 4,
    "calls_per_rank": 40,
    "arrivals": "bursty",
    "on_gap_ns": 300.0,
    "off_gap_ns": 30_000.0,
    "burst_mean": 8.0,
    "req_cap": 8192,
    "resp_cap": 16384,
    "trace_seed": 2015,
    "priority_every": 10,
}


def rpc_open_loop() -> dict:
    """:data:`RPC_TRACE` under three policy configs.

    The fingerprint pins the simulated clocks, the outcome digest, and
    the structural counters (descriptors/coalesced/cache hits) that any
    change to coalescing, batching, caching or policy decisions moves.
    """
    from repro.vscc.policy import AdaptivePolicy, StaticPolicy, ThresholdPolicy
    from repro.vscc.schemes import CommScheme
    from repro.vscc.system import VSCCSystem

    out: dict = {}
    sim_now_sum = 0.0
    events_sum = 0.0
    digests = set()
    for label, factory in (
        ("static_vdma", lambda: StaticPolicy(CommScheme.LOCAL_PUT_LOCAL_GET_VDMA)),
        ("threshold", ThresholdPolicy),
        ("adaptive", AdaptivePolicy),
    ):
        system = VSCCSystem(num_devices=2, policy=factory(), seed=7)
        report = rpc_report(system, RPC_TRACE)
        d = report.dispatcher
        sim_now_sum += system.sim.now
        events_sum += float(system.sim.events_processed)
        digests.add(report.digest)
        out[f"{label}_descriptors"] = float(d.descriptors)
        out[f"{label}_coalesced"] = float(d.coalesced)
        out[f"{label}_cache_hits"] = float(d.cache.hits)
    assert len(digests) == 1, digests
    out["sim_now_sum_ns"] = sim_now_sum
    out["events_sum"] = events_sum
    out["outcome_digest"] = digests.pop()
    return out


#: The gated scenarios, pinned in ``FINGERPRINTS.json``.
SCENARIOS: dict[str, Callable[[], dict]] = {
    "fig6a_pingpong": fig6a_pingpong,
    "fig6b_interdevice": fig6b_interdevice,
    "fig7_bt": fig7_bt,
    "fig8_traffic": fig8_traffic,
    "policy_threshold_mixed": policy_threshold_mixed,
    "coll_hier_allreduce": coll_hier_allreduce,
    "fabric_multihost": fabric_multihost,
    "faults_lossy_pingpong": partial(faults_pingpong, "lossy"),
    "faults_dead_device": partial(faults_pingpong, "dead"),
    "micro_flag_wait": flag_wait_churn,
    "micro_chunk_send": chunk_send_churn,
    "serve_mixed_tenants": serve_mixed_tenants,
    "rpc_open_loop": rpc_open_loop,
}
