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
  The paper's figures, ablations and extensions are scenarios at their
  full configuration (``fig2_protocols`` ... ``ext_rpc_curves``).
* :data:`CLAIMS` — ``name -> Claim``: what the pinned numbers must show,
  a paper band or an ordering over named fields of one scenario's pin.
  :func:`claim_failures` checks them against ``FINGERPRINTS.json``
  without simulating; the gate proves the pins equal fresh runs.

Each workload is defined once: NPB BT by
:func:`repro.apps.npb.run_bt` (also behind the Fig 7/8 sweeps of
:mod:`repro.bench.figures`), ping-pong by :mod:`repro.apps.pingpong`,
open-loop RPC by :func:`rpc_report`. Heavy imports stay inside each
function, so importing the registry is cheap.

Unpinned: the class C pins (CI's matrix step skips them),
``claim_failures`` with its band helpers (``tests/tools/test_claims.py``)
and the ``bt``/``rpc``/``deadlock`` service workloads (the serve suites).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import replace
from functools import partial, reduce
from itertools import pairwise
from operator import getitem
from typing import Callable, Mapping, NamedTuple

__all__ = [
    "CLAIMS",
    "Claim",
    "RPC_TRACE",
    "SCENARIOS",
    "WORKLOADS",
    "claim_failures",
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
    total = math.fsum(p.oneway_ns for pts in series.values() for p in pts)
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
    total = math.fsum(p.oneway_ns for pts in series.values() for p in pts)
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


#: One round of the mixed workload: flag-sized, mid-band, past the 8 kB cliff.
_MIXED_SIZES = (32, 512, 2048, 7680, 16384, 65536)
#: The fixed schemes the policy ablation runs it under.
_FIXED_SCHEMES = ("cached-get", "vdma", "remote-put-wcb")


def _mixed_program(comm):
    """Three rounds of :data:`_MIXED_SIZES` ping-pongs between ranks 0 and 48."""
    for _ in range(3):
        for size in _MIXED_SIZES:
            payload = bytes(size)
            if comm.rank == 0:
                yield from comm.send(payload, 48)
                yield from comm.recv(size, 48)
            else:
                yield from comm.recv(size, 0)
                yield from comm.send(payload, 0)


def policy_threshold_mixed() -> dict:
    """Mixed-size cross-device traffic under the ThresholdPolicy.

    Exercises the dynamic-selection path: per-message policy decisions,
    the decision journal, and dispatch over two concurrently-built
    transports. The fingerprint pins the per-scheme decision counts on
    top of the usual clock/event pair, so a policy change that moves
    any message to a different scheme fails the gate loudly.

    The policy ablation reruns the workload under every fixed scheme
    and the AdaptivePolicy; ``elapsed_ns`` pins each selection's time.
    """
    from repro.vscc.policy import AdaptivePolicy, ThresholdPolicy
    from repro.vscc.schemes import CommScheme
    from repro.vscc.system import VSCCSystem

    def elapsed_ns(system):
        return system.run(_mixed_program, ranks=[0, 48]).elapsed_ns

    system = VSCCSystem(num_devices=2, policy=ThresholdPolicy())
    elapsed = {"threshold": elapsed_ns(system)}
    metrics = system.metrics
    for scheme in _FIXED_SCHEMES:
        elapsed[scheme] = elapsed_ns(VSCCSystem(num_devices=2, scheme=CommScheme(scheme)))
    elapsed["adaptive"] = elapsed_ns(VSCCSystem(num_devices=2, policy=AdaptivePolicy()))
    return {
        "sim_now_ns": system.sim.now,
        "events": system.sim.events_processed,
        "decisions_cached": metrics[
            f"policy.decisions{{scheme={CommScheme.LOCAL_PUT_REMOTE_GET.value}}}"
        ],
        "decisions_vdma": metrics[
            f"policy.decisions{{scheme={CommScheme.LOCAL_PUT_LOCAL_GET_VDMA.value}}}"
        ],
        "elapsed_ns": elapsed,
    }


def _collective_phases(comm, phases: dict, prefix: str = "", doubles: int = 64, **group):
    """Warm-up barrier, a timed barrier, an untimed barrier, then a timed
    allreduce of ``doubles`` doubles (64 in every pinned scenario).

    ``group`` (``group_size``/``members``, ``hierarchical``) goes to every
    collective. Rank 0 records both durations (simulated ns) in ``phases``.
    The untimed barrier isolates the timed ones: without it, the ranks the
    timed barrier releases first would start the allreduce while rank 0
    still releases the rest, and that traffic would make ``barrier_ns``
    depend on the allreduce payload. The allreduce clock starts when rank
    0 leaves the untimed barrier.
    """
    import numpy as np

    yield from comm.barrier(**group)
    t0 = comm.env.sim.now
    yield from comm.barrier(**group)
    t1 = comm.env.sim.now
    yield from comm.barrier(**group)
    t2 = comm.env.sim.now
    yield from comm.allreduce(np.arange(float(doubles)), np.add, **group)
    t3 = comm.env.sim.now
    if comm.rank == 0:
        phases[f"{prefix}barrier_ns"] = t1 - t0
        phases[f"{prefix}allreduce_ns"] = t3 - t2


def _interhost_bytes(system) -> float:
    return sum(v for k, v in system.metrics.items() if k.startswith("interhost.bytes"))


def coll_hier_allreduce() -> dict:
    """Flat vs two-level allreduce/barrier on the five-device machine.

    The fingerprint pins both phase durations (simulated ns) so a change
    to either collective implementation — or to the scheme policy the
    leader phase dispatches through — fails the gate loudly. The
    hierarchical phase must stay faster than the flat one at full scale
    (claims ``coll_hier_*``); the gap *is* the PCIe-crossing argument of
    DESIGN.md §10.
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
                comm, phases, f"{impl}_", group_size=nranks, hierarchical=hier
            )

    system.run(program, ranks=range(nranks))
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
        lambda comm: _collective_phases(
            comm, phases, group_size=nranks, hierarchical=True
        )
    )
    return {
        "sim_now_ns": system.sim.now,
        "events": system.sim.events_processed,
        "interhost_bytes": _interhost_bytes(system),
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
        "oneway_sum_ns": math.fsum(p.oneway_ns for p in points),
        **{f"faults_{c}": totals[f"faults.{c}"] for c in counters},
        "degraded": list(system.fault_injector.degraded_devices),
    }


# -- the paper's figures, ablations and extensions at full configuration --------
#
# Each returns the numbers its :data:`CLAIMS` read. Keys are strings
# (message sizes, device counts), as they read back from the pin file.


def fig2_protocols() -> dict:
    """Fig 2: one blocking transfer, RCCE default vs iRCCE pipelined."""
    from repro.bench import fig2_protocol_timeline

    timings = fig2_protocol_timeline((8192, 16384, 65536))
    return {
        "blocking_ns": {str(t.size): t.blocking_ns for t in timings},
        "pipelined_ns": {str(t.size): t.pipelined_ns for t in timings},
        "blocking_records": {str(t.size): len(t.blocking_records) for t in timings},
        "pipelined_records": {str(t.size): len(t.pipelined_records) for t in timings},
    }


def fig6a_curves() -> dict:
    """Fig 6a: on-chip RCCE vs iRCCE, 32 B-256 kB, and the vDMA curve."""
    from repro.bench import fig6a_onchip, fig6b_interdevice
    from repro.vscc.schemes import CommScheme

    sizes = (32, 128, 512, 2048, 4096, 8192, 16384, 65536, 262144)
    onchip = fig6a_onchip(sizes, iterations=4)
    rcce = {p.size: p.throughput_mbps for p in onchip["RCCE (no pipelining)"]}
    ircce = {p.size: p.throughput_mbps for p in onchip["iRCCE pipelined"]}
    [vdma] = fig6b_interdevice(
        sizes, iterations=3, schemes=(CommScheme.LOCAL_PUT_LOCAL_GET_VDMA,)
    ).values()
    return {
        "ircce_peak_mbps": max(ircce.values()),
        "ircce_262144_mbps": ircce[262144],
        "rcce_mbps": {str(s): rcce[s] for s in (4096, 8192, 262144)},
        "vdma_peak_mbps": max(p.throughput_mbps for p in vdma),
    }


def fig6b_curves() -> dict:
    """Fig 6b: all five inter-device schemes, 32 B-256 kB, vs on-chip."""
    from repro.bench import fig6a_onchip, fig6b_interdevice

    inter = fig6b_interdevice(
        (32, 128, 512, 2048, 4096, 7680, 8192, 16384, 65536, 262144), iterations=3
    )
    onchip = fig6a_onchip((262144,), iterations=4)
    curves = {s.value: {p.size: p.throughput_mbps for p in pts} for s, pts in inter.items()}
    return {
        "onchip_peak_mbps": onchip["iRCCE pipelined"][0].throughput_mbps,
        "peak_mbps": {s: max(curve.values()) for s, curve in curves.items()},
        "cliff_mbps": {
            s: {str(size): curves[s][size] for size in (7680, 8192)}
            for s in ("cached-get", "vdma")
        },
    }


def fig7_bt_class_c() -> dict:
    """Fig 7: BT class C GFLOP/s over 16-225 ranks with vDMA, and cached
    at 225, on the five-device system (one timestep each)."""
    from repro.bench import fig7_bt_scaling
    from repro.vscc.schemes import CommScheme

    def gflops(rank_counts, scheme):
        points = fig7_bt_scaling(rank_counts, (scheme,), "C", 1)
        return {str(p.nranks): p.gflops for p in points}

    return {
        "vdma_gflops": gflops((16, 64, 144, 225), CommScheme.LOCAL_PUT_LOCAL_GET_VDMA),
        "cached_gflops": gflops((225,), CommScheme.LOCAL_PUT_REMOTE_GET),
    }


def fig8_traffic_class_c() -> dict:
    """Fig 8: the traffic matrix of one BT class C step on 64 ranks."""
    import numpy as np

    from repro.bench import fig8_bt_traffic

    n = 64
    matrix, stats, _rendering, scaled = fig8_bt_traffic(n, "C", 1, 2)
    sub = matrix[:n, :n]
    band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 9
    return {
        "max_pair_bytes_200_steps": float(scaled.max_pair_bytes),
        "near_diagonal_frac": float(sub[band].sum() / sub.sum()),
        "inter_device_frac": float(stats.inter_device_fraction),
        "nonzero_pairs": float(stats.nonzero_pairs),
    }


def latency_anchors() -> dict:
    """§3's anchors: on-chip and inter-device MPB reads, in core cycles."""
    from repro.bench import latency_anchors as measure

    return measure()


def abl_frequency() -> dict:
    """On-chip 64 kB throughput with the core at 533, 400 and 200 MHz."""
    from repro.apps.pingpong import run_pingpong
    from repro.rcce.session import RcceSession
    from repro.scc.params import SCCParams

    mbps = {}
    for mhz in (533, 400, 200):
        session = RcceSession(params=SCCParams(core_freq_mhz=float(mhz)))
        [point] = run_pingpong(session, 0, 10, sizes=[65536], iterations=3)
        mbps[str(mhz)] = point.throughput_mbps
    return {"mbps": mbps}


def _vdma_oneway_ns(sizes, iterations: int = 5, **system_kwargs) -> dict:
    """One-way ns per size, ranks 0 <-> 48 on the two-device vDMA scheme."""
    from repro.apps.pingpong import run_pingpong
    from repro.vscc.schemes import CommScheme
    from repro.vscc.system import VSCCSystem

    system = VSCCSystem(
        num_devices=2, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA, **system_kwargs
    )
    points = run_pingpong(system, 0, 48, sizes=sizes, iterations=iterations)
    return {str(p.size): p.oneway_ns for p in points}


def abl_mmio_fusion() -> dict:
    """vDMA latency with the three register stores fused in one WCB line
    (§3.3, Fig 5) or issued as three transactions."""
    sizes = (256, 1024, 4096, 65536)
    return {
        "fused_ns": _vdma_oneway_ns(sizes, vdma_fused_mmio=True),
        "unfused_ns": _vdma_oneway_ns(sizes, vdma_fused_mmio=False),
    }


def abl_threshold() -> dict:
    """vDMA latency with the 128 B direct-transfer path (§3.3) and without."""
    sizes = (32, 64, 128, 256, 1024, 7680)
    read = ("32", "64", "128", "7680")
    direct, vdma = (_vdma_oneway_ns(sizes, direct_threshold=t) for t in (128, 0))
    return {
        "direct_ns": {s: direct[s] for s in read},
        "vdma_ns": {s: vdma[s] for s in read},
    }


def abl_pipeline_chunk() -> dict:
    """iRCCE pipelined 256 kB throughput per packet size (§2.2)."""
    from repro.apps.pingpong import run_pingpong
    from repro.rcce.api import RcceOptions
    from repro.rcce.session import RcceSession

    mbps = {}
    for packet in (64, 256, 1024, 2048, 3840):
        session = RcceSession(
            options=RcceOptions(pipelined=True, pipeline_packet=packet)
        )
        [point] = run_pingpong(session, 0, 10, sizes=[262144], iterations=4)
        mbps[str(packet)] = point.throughput_mbps
    return {"mbps": mbps}


def abl_prefetch() -> dict:
    """Cached-get throughput with the sender's prefetch announcement
    (§3.1/§3.2) and without, plus the host cache's fill counters."""
    from repro.apps.pingpong import run_pingpong
    from repro.vscc.schemes import CommScheme
    from repro.vscc.system import VSCCSystem

    out = {}
    for label, announce in (("prefetch", True), ("demand", False)):
        system = VSCCSystem(
            num_devices=2,
            scheme=CommScheme.LOCAL_PUT_REMOTE_GET,
            announce_prefetch=announce,
        )
        points = run_pingpong(system, 0, 48, sizes=(4096, 16384, 65536), iterations=4)
        cache = system.host.cache
        out[f"{label}_mbps"] = {str(p.size): p.throughput_mbps for p in points}
        out[f"{label}_cache"] = {
            "announces": float(cache.announces),
            "demand_fills": float(cache.demand_fills),
        }
    return out


def ext_async_overlap() -> dict:
    """A 64 kB vDMA transfer beside compute: blocking send/recv, or
    iRCCE isend/irecv that hides it (§5's future work)."""
    from repro.ircce.nonblocking import irecv, isend
    from repro.vscc.schemes import CommScheme
    from repro.vscc.system import VSCCSystem

    size = 65536

    def elapsed_ns(compute_cycles, overlap: bool) -> float:
        system = VSCCSystem(num_devices=2, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA)
        done = {}

        def program(comm):
            start = comm.env.sim.now
            if overlap:
                request = (isend(comm, bytes(size), 48) if comm.rank == 0
                           else irecv(comm, size, 0))
                yield from comm.env.compute(cycles=compute_cycles)
                yield from request.wait()
            else:
                if comm.rank == 0:
                    yield from comm.send(bytes(size), 48)
                else:
                    yield from comm.recv(size, 0)
                yield from comm.env.compute(cycles=compute_cycles)
            if comm.rank == 0:
                done["t"] = comm.env.sim.now - start

        system.run(program, ranks=[0, 48])
        return done["t"]

    return {
        "blocking_ns": {str(c): elapsed_ns(c, False) for c in (100_000, 3_000_000)},
        "async_ns": {"3000000": elapsed_ns(3_000_000, True)},
    }


def _cross_pairs(system, crosses) -> float:
    """Directed (src, dst) rank pairs that carried traffic and ``crosses``."""
    return float(sum(1 for src, dst in system.layout.traffic if crosses(src, dst)))


def _flat_vs_hier(num_devices: int, stride: int = 1) -> dict:
    """Barrier/allreduce ns and PCIe-crossing pairs, flat vs two-level,
    each on a fresh system over ``members`` permuted by ``stride``."""
    from repro.vscc.schemes import CommScheme
    from repro.vscc.system import VSCCSystem

    out = {}
    for impl, hier in (("flat", False), ("hier", True)):
        system = VSCCSystem(
            num_devices=num_devices, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA
        )
        n = system.num_ranks
        members = [(i * stride) % n for i in range(n)]
        phases = out[impl] = {}
        system.run(
            lambda comm: _collective_phases(
                comm, phases, members=members, hierarchical=hier
            ),
            ranks=members,
        )
        phases["pcie_pairs"] = _cross_pairs(system, system.topology.is_cross_device)
    return out


def ext_coll_flat_vs_hier() -> dict:
    """Flat vs two-level collectives over the full machine of 1-5
    devices, and over 5 devices with the members permuted (stride 53)."""
    return {
        **{str(nd): _flat_vs_hier(nd) for nd in range(1, 6)},
        "5_permuted": _flat_vs_hier(5, stride=53),
    }


def ext_coll_three_level() -> dict:
    """Flat, two-level (host-blind plan) and three-level collectives on
    one 4-device machine carved into 1, 2 and 4 hosts."""
    from repro.vscc.schemes import CommScheme
    from repro.vscc.system import VSCCSystem
    from repro.vscc.topology import FabricTopology

    out = {}
    for hosts in (1, 2, 4):
        by_impl = out[str(hosts)] = {}
        for impl in ("flat", "two", "three"):
            system = VSCCSystem(
                num_devices=4,
                num_hosts=hosts,
                scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA,
            )
            fabric = system.topology
            if impl == "two":
                # Host-blind plan; traffic still rides the inter-host links.
                system.topology = FabricTopology(system.layout, system.params)
            nranks = system.num_ranks
            phases = by_impl[impl] = {}
            system.run(
                lambda comm: _collective_phases(
                    comm, phases, group_size=nranks, hierarchical=impl != "flat"
                )
            )
            phases["pcie_pairs"] = _cross_pairs(system, fabric.is_cross_device)
            phases["interhost_pairs"] = _cross_pairs(system, fabric.is_cross_host)
            phases["interhost_bytes"] = _interhost_bytes(system)
    return out


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

    def program(comm):
        env = comm.env
        seq = 0
        for _ in range(nrounds):
            seq = FlagLayout.next_seq(seq)
            if comm.rank == 0:
                yield from env.set_flag(ping, seq)
                yield from env.wait_flag(pong, seq)
            else:
                yield from env.wait_flag(ping, seq)
                yield from env.set_flag(pong, seq)

    session.run(program, ranks=[0, 1])
    sim = session.sim
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

    def program(comm):
        for _ in range(nmsgs):
            if comm.rank == 0:
                yield from comm.send(payload, dest=1)
            else:
                data = yield from comm.recv(nbytes, src=0)
                checksums.append(int(data[::97].sum()))

    session.run(program, ranks=[0, 1])
    sim = session.sim
    return {
        "ops": nmsgs,
        "bytes": float(nmsgs * nbytes),
        "checksum": float(sum(checksums)),
        "sim_now_ns": sim.now,
        "events": sim.events_processed,
    }


# -- the RCCE / iRCCE API surface ----------------------------------------------


def rcce_api() -> dict:
    """The RCCE and iRCCE calls no other pin makes, on two devices.

    Ranks 0 and 1 share a tile of device 0; rank 48 is on device 1. Gory
    puts, gets and flags on-chip and across devices; ``RCCE_malloc``
    blocks freed and allocated again at the same offsets; flat
    ``gather`` by ``group_size`` and by ``members``; iRCCE requests
    probed with ``test`` and ``wait_any``; a blocking send and receive
    queued behind pending requests; a wildcard receive across devices
    (the threshold policy puts these 256-512 B messages on cached-get,
    whose sender moves first). Every payload is checked where it lands.
    Pins the clock, the events, a payload digest, and the cross-device
    messages beside the selector's journaled decisions (DESIGN.md §9).
    """
    import numpy as np

    from repro.ircce import irecv, isend, recv_any_source, wait_any
    from repro.rcce.api import RcceOptions
    from repro.vscc.policy import ThresholdPolicy
    from repro.vscc.system import VSCCSystem

    system = VSCCSystem(
        num_devices=2, policy=ThresholdPolicy(), options=RcceOptions(user_mpb_bytes=1024)
    )
    far = 48
    # Two in the members gather, four from rank 0 and two from rank 1.
    xdev_messages = 2 + 4 + 2
    got: dict[str, bytes] = {}

    def payload(salt: int, nbytes: int = 256) -> np.ndarray:
        return ((np.arange(nbytes) * 7 + salt) % 251).astype(np.uint8)

    def check(label: str, data, salt: int, nbytes: int = 256) -> None:
        assert bytes(data) == payload(salt, nbytes).tobytes(), f"{label} corrupted"
        got[label] = bytes(data)

    def program(comm):
        me, gory = comm.rank, comm.gory
        flag, buf = gory.flag_alloc(), comm.malloc(256)
        if me == 0:
            yield from gory.put(payload(0), 0, buf)
            yield from gory.put(payload(1), 1, buf)
            yield from gory.flag_write(1, flag, 1)
            # Across devices the put rides a host write-combining stream,
            # which gory announces itself (§3.1).
            yield from gory.put(payload(2), far, buf)
            yield from gory.flag_write(far, flag, 1)
            yield from gory.wait_until(flag, 2)
            near = yield from gory.flag_read(1, flag)
            remote = yield from gory.flag_read(far, flag)
            assert near == remote == 1, f"peer flags read {near}, {remote}"
        else:
            yield from gory.wait_until(flag, 1)
            check(f"{me}/put", (yield from gory.get(me, buf, 256)), 1 if me == 1 else 2)
        if me == far:
            check("48/get", (yield from gory.get(0, buf, 256)), 0)
            yield from gory.flag_write(0, flag, 2)
        gory.flag_free(flag)
        comm.mfree(buf)
        assert (gory.flag_alloc(), comm.malloc(256)) == (flag, buf), "a freed block moved"

        if me != far:
            parts = yield from comm.gather(payload(10 + me), root=0, group_size=2)
            for rank, part in enumerate(parts or ()):
                check(f"gather/{rank}", part, 10 + rank)
        parts = yield from comm.gather(payload(20 + me), root=2, members=[0, 1, far])
        for rank, part in zip((0, 1, far), parts or ()):
            check(f"members/{rank}", part, 20 + rank)

        if me == 0:
            first, later = isend(comm, payload(30, 512), far), isend(comm, payload(31), far)
            assert not first.test()
            yield from comm.send(payload(32), far)  # queued behind both
            assert first.test() and later.test()
        elif me == 1:
            yield from comm.env.compute(ns=200_000.0)
            yield from comm.send(payload(33), far)
        else:
            first, other = irecv(comm, 512, 0), irecv(comm, 256, 1)
            assert not (first.test() or other.test())
            assert (yield from wait_any(comm, [other, first])) == 1, "the delayed send won"
            check("isend", first.result, 30, 512)
            later = irecv(comm, 256, 0)
            check("queued", (yield from comm.recv(256, 0)), 32)  # behind ``later``
            check("isend/later", later.result, 31)
            check("delayed", (yield from other.wait()), 33)
            source, data = yield from recv_any_source(comm, 256, [0, 1])
            check(f"any/{source}", data, 40 + source)
            rest = 1 - source
            check(f"any/{rest}", (yield from comm.recv(256, rest)), 40 + rest)
        if me != far:
            yield from comm.send(payload(40 + me), far)

    system.run(program, ranks=[0, 1, far])
    assert len(got) == 14, sorted(got)
    digest = hashlib.sha256()
    for label in sorted(got):
        digest.update(label.encode() + got[label])
    return {
        "sim_now_ns": system.sim.now,
        "events": system.sim.events_processed,
        "payload_digest": digest.hexdigest()[:16],
        "xdev_messages": float(xdev_messages),
        "xdev_decisions": float(sum(system.selector.decisions.values())),
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


def run_fleet(jobs: int = 132, seed: int = 2026) -> dict:
    """Serve ``jobs`` seeded mixed-tenant jobs through one serve core.

    Every spec is submitted first, then the core dispatches them one at
    a time and each attempt runs with :func:`repro.serve.execute_job` on
    the calling thread. The core's clock is constant: only simulated
    results come out, so no wall time enters.
    """
    from repro.serve import JobError, ServeCore, execute_job

    core = ServeCore(clock=lambda: 0.0, weights=TENANT_WEIGHTS)
    for spec in build_specs(jobs, seed):
        core.submit(spec)
    peak_queued = len(core.scheduler)
    while (assignment := core.next_assignment(0)) is not None:
        job, _ = assignment
        try:
            payload = execute_job(job.spec)
        except JobError as exc:
            core.attempt_failed(job.job_id, exc.to_dict(), infra=False)
        else:
            core.attempt_finished(job.job_id, payload)
    return {
        "results": [job.result for job in core.jobs.values()],
        "peak_queued": peak_queued,
    }


def outcome_fingerprint(results) -> dict:
    """Digest + aggregates over the deterministic part of the outcomes.

    Only simulated results enter: wall latencies, queue waits and
    attempt counts are scheduling artifacts and must not fail a gate.
    Float sums use :func:`math.fsum`, correctly rounded on every Python
    (the builtin ``sum`` compensates only from CPython 3.12 on).
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
        "sim_now_sum_ns": math.fsum(row[2] for row in rows),
        "events_sum": sum(row[3] for row in rows),
        "outcome_digest": digest,
    }


def serve_mixed_tenants() -> dict:
    """Burst 132 mixed-tenant jobs through the serve core; fingerprint them.

    The fingerprint is the outcome digest of the whole fleet (scheduler
    + per-job system builds). The in-scenario assertions *are* the
    service-level acceptance bar — a backlog of >= 100 concurrently
    queued jobs across >= 3 tenants, every job terminal.
    """
    record = run_fleet(jobs=132)
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

#: The bursty mid-load trace of ``rpc_open_loop``; ``ext_rpc_curves``
#: sweeps its load and arrival process.
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
    change to coalescing, batching, caching or policy decisions moves,
    and per config the calls offered and the policy decisions made.
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
        out[f"{label}_calls"] = float(report.offered)
        out[f"{label}_decisions"] = float(sum(system.selector.decisions.values()))
    assert len(digests) == 1, digests
    out["sim_now_sum_ns"] = sim_now_sum
    out["events_sum"] = events_sum
    out["outcome_digest"] = digests.pop()
    return out


#: ``ext_rpc_curves``: the policy configs (static cached-get is the
#: no-coalescing baseline), arrival processes and offered-load factors
#: (arrival-gap multipliers, saturating to easy).
_RPC_POLICIES = ("static-vdma", "static-cachedget", "threshold", "adaptive")
_RPC_ARRIVALS = ("poisson", "bursty")
_RPC_LOADS = (0.5, 1.0, 3.0)


def ext_rpc_curves() -> dict:
    """:data:`RPC_TRACE`'s latency curves: each policy config and arrival
    process over :data:`_RPC_LOADS`.

    Pins p50 latency (µs) and coalesced requests per load point, per
    arrival process the distinct outcome digests, and over all points
    the calls offered and the policy decisions made.
    """
    from repro.vscc.policy import AdaptivePolicy, StaticPolicy, ThresholdPolicy
    from repro.vscc.schemes import CommScheme
    from repro.vscc.system import VSCCSystem

    policies = dict(zip(_RPC_POLICIES, (
        lambda: StaticPolicy(CommScheme.LOCAL_PUT_LOCAL_GET_VDMA),
        lambda: StaticPolicy(CommScheme.LOCAL_PUT_REMOTE_GET),
        ThresholdPolicy,
        AdaptivePolicy,
    )))
    traces = {
        "poisson": lambda f: {
            **RPC_TRACE, "arrivals": "poisson", "mean_gap_ns": 4000.0 * f,
        },
        "bursty": lambda f: {
            **RPC_TRACE,
            "on_gap_ns": RPC_TRACE["on_gap_ns"] * f,
            "off_gap_ns": RPC_TRACE["off_gap_ns"] * f,
        },
    }
    curves, digests = {}, {arrival: set() for arrival in _RPC_ARRIVALS}
    calls = decisions = 0.0
    for label, policy in policies.items():
        for arrival in _RPC_ARRIVALS:
            curve = curves[f"{label}/{arrival}"] = {"p50_us": [], "coalesced": []}
            for factor in _RPC_LOADS:
                system = VSCCSystem(num_devices=2, policy=policy(), seed=7)
                report = rpc_report(system, traces[arrival](factor))
                curve["p50_us"].append(report.latency_percentile(50) / 1000.0)
                curve["coalesced"].append(float(report.dispatcher.coalesced))
                digests[arrival].add(report.digest)
                calls += report.offered
                decisions += sum(system.selector.decisions.values())
    return {
        "curves": curves,
        "digests": {arrival: sorted(d) for arrival, d in digests.items()},
        "calls": calls,
        "decisions": decisions,
    }


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
    "rcce_api": rcce_api,
    "serve_mixed_tenants": serve_mixed_tenants,
    "rpc_open_loop": rpc_open_loop,
    "fig2_protocols": fig2_protocols,
    "fig6a_curves": fig6a_curves,
    "fig6b_curves": fig6b_curves,
    "fig7_bt_class_c": fig7_bt_class_c,
    "fig8_traffic_class_c": fig8_traffic_class_c,
    "latency_anchors": latency_anchors,
    "abl_frequency": abl_frequency,
    "abl_mmio_fusion": abl_mmio_fusion,
    "abl_threshold": abl_threshold,
    "abl_pipeline_chunk": abl_pipeline_chunk,
    "abl_prefetch": abl_prefetch,
    "ext_async_overlap": ext_async_overlap,
    "ext_coll_flat_vs_hier": ext_coll_flat_vs_hier,
    "ext_coll_three_level": ext_coll_three_level,
    "ext_rpc_curves": ext_rpc_curves,
}


# -- claims --------------------------------------------------------------------


class Claim(NamedTuple):
    """What one scenario's pinned numbers must show.

    ``fields`` are dotted paths into the scenario's fingerprint;
    ``holds`` gets their values in order. The pin fixes each number,
    the claim says why it is right: a paper band or an ordering.
    """

    scenario: str
    fields: tuple[str, ...]
    holds: Callable[..., bool]


def _in_band(name: str, value: float) -> bool:
    from repro.bench.runner import PAPER_BANDS

    return PAPER_BANDS[name].contains(value)


def _all_pairs(key: str, fewer: str, more: str):
    """``holds``: over every group read, ``fewer``'s ``key`` <= ``more``'s."""
    return lambda *groups: all(g[fewer][key] <= g[more][key] for g in groups)


#: The claims of the paper's evaluation, its ablations and extensions,
#: checked against ``FINGERPRINTS.json`` (tests/tools/test_claims.py).
CLAIMS: dict[str, Claim] = {
    # Fig 2: above the 4 kB threshold the pipelined protocol finishes first.
    "fig2_pipelined_beats_blocking": Claim(
        "fig2_protocols", ("blocking_ns", "pipelined_ns"),
        lambda b, p: all(p[s] < b[s] for s in b)),
    # Fig 6a: on-chip peak ~150 MB/s, iRCCE ~1.5x RCCE at 256 kB, RCCE's
    # 8 kB MPB cliff, inter-device curves far below on-chip.
    "fig6a_onchip_peak_band": Claim(
        "fig6a_curves", ("ircce_peak_mbps",),
        lambda p: _in_band("onchip_peak_mbps", p)),
    "fig6a_pipelining_gain_band": Claim(
        "fig6a_curves", ("ircce_262144_mbps", "rcce_mbps.262144"),
        lambda i, r: _in_band("rcce_vs_ircce_gain", i / r)),
    "fig6a_rcce_8k_cliff": Claim(
        "fig6a_curves", ("rcce_mbps.8192", "rcce_mbps.4096"), lambda a, b: a < b),
    "fig6a_interdevice_below_onchip": Claim(
        "fig6a_curves", ("vdma_peak_mbps", "ircce_peak_mbps"),
        lambda v, p: v < p / 3),
    # Fig 6b: vDMA ~24 % of on-chip (§5), cached ~71.72 % of the hw-accel
    # limit and vDMA close to it (§4.1), transparent far below, the 8 kB
    # cliff for cached-get and none for vDMA.
    "fig6b_best_vs_onchip_band": Claim(
        "fig6b_curves", ("peak_mbps.vdma", "onchip_peak_mbps"),
        lambda v, o: _in_band("best_vs_onchip", v / o)),
    "fig6b_cached_vs_limit_band": Claim(
        "fig6b_curves", ("peak_mbps.cached-get", "peak_mbps.hw-accel"),
        lambda c, h: _in_band("cached_vs_limit", c / h)),
    "fig6b_vdma_vs_limit_band": Claim(
        "fig6b_curves", ("peak_mbps.vdma", "peak_mbps.hw-accel"),
        lambda v, h: _in_band("vdma_vs_limit", v / h)),
    "fig6b_transparent_far_below": Claim(
        "fig6b_curves", ("peak_mbps.transparent", "peak_mbps.cached-get"),
        lambda t, c: t < 0.2 * c),
    "fig6b_cached_below_vdma_below_limit": Claim(
        "fig6b_curves", ("peak_mbps.cached-get", "peak_mbps.vdma", "peak_mbps.hw-accel"),
        lambda c, v, h: c < v <= h * 1.02),
    "fig6b_wcb_below_vdma": Claim(
        "fig6b_curves", ("peak_mbps.remote-put-wcb", "peak_mbps.vdma"),
        lambda w, v: w < v),
    "fig6b_cached_8k_cliff": Claim(
        "fig6b_curves", ("cliff_mbps.cached-get.8192", "cliff_mbps.cached-get.7680"),
        lambda a, b: a < b),
    "fig6b_vdma_no_8k_cliff": Claim(
        "fig6b_curves", ("cliff_mbps.vdma.8192", "cliff_mbps.vdma.7680"),
        lambda a, b: a >= b * 0.98),
    # Fig 7: BT scales to 225 ranks, the cached scheme is slower there,
    # and parallel efficiency stays above 40 % of the compute-bound rate.
    "fig7_vdma_scales_monotone": Claim(
        "fig7_bt_class_c", ("vdma_gflops",),
        lambda g: all(g[b] > g[a] for a, b in pairwise(sorted(g, key=int)))),
    "fig7_cached_slower_at_225": Claim(
        "fig7_bt_class_c", ("cached_gflops.225", "vdma_gflops.225"), lambda c, v: c < v),
    "fig7_efficiency_at_225": Claim(
        "fig7_bt_class_c", ("vdma_gflops.225",),
        lambda g: g > 0.4 * (225 * 0.533 * 0.15)),  # cores x peak x sustained
    # Fig 8: max pair ~186 MB over 200 steps, near-diagonal traffic,
    # inter-device a nonzero minority, a sparse matrix.
    "fig8_max_pair_band": Claim(
        "fig8_traffic_class_c", ("max_pair_bytes_200_steps",),
        lambda b: _in_band("bt_max_pair_mb", b / 1e6)),
    "fig8_near_diagonal": Claim(
        "fig8_traffic_class_c", ("near_diagonal_frac",), lambda f: f > 0.5),
    "fig8_inter_device_minority": Claim(
        "fig8_traffic_class_c", ("inter_device_frac",), lambda f: 0.0 < f < 0.5),
    "fig8_sparse": Claim(
        "fig8_traffic_class_c", ("nonzero_pairs",), lambda n: n < 64 * 64 / 4),
    # §3/§5: ~10^2 cycles on-chip, ~10^4 inter-device, ~120x apart.
    "anchors_onchip_cycles": Claim(
        "latency_anchors", ("onchip_cycles",), lambda c: 50 <= c <= 200),
    "anchors_interdevice_band": Claim(
        "latency_anchors", ("interdevice_cycles",),
        lambda c: _in_band("interdevice_rtt_cycles", c)),
    "anchors_ratio_band": Claim(
        "latency_anchors", ("ratio",), lambda r: _in_band("latency_ratio", r)),
    # abl-freq: on-chip throughput is core-clock bound.
    "abl_frequency_400mhz": Claim(
        "abl_frequency", ("mbps.400", "mbps.533"),
        lambda r, b: 0.9 * (3 / 4) <= r / b <= 1.02 * (3 / 4) + 0.05),
    "abl_frequency_200mhz": Claim(
        "abl_frequency", ("mbps.200", "mbps.533"),
        lambda r, b: 0.9 * (3 / 8) <= r / b <= 1.1 * (3 / 8) + 0.05),
    # abl-mmio: fusing the three register stores saves two FPGA-acked
    # transactions per copy, a fixed cost that matters less as size grows.
    "abl_mmio_fusion_helps_every_size": Claim(
        "abl_mmio_fusion", ("fused_ns", "unfused_ns"),
        lambda f, u: all(f[s] < u[s] for s in f)),
    "abl_mmio_fusion_saving_shrinks": Claim(
        "abl_mmio_fusion", ("fused_ns", "unfused_ns"),
        lambda f, u: (u["256"] - f["256"]) / u["256"]
        > (u["65536"] - f["65536"]) / u["65536"]),
    # abl-pkt: the packet size matters, and the best is >= 1 kB.
    "abl_pipeline_chunk_half_slot_beats_tiny": Claim(
        "abl_pipeline_chunk", ("mbps.3840", "mbps.64"), lambda a, b: a > b * 1.08),
    "abl_pipeline_chunk_best_at_least_1k": Claim(
        "abl_pipeline_chunk", ("mbps",), lambda m: int(max(m, key=m.get)) >= 1024),
    # abl-policy: per-message selection beats every fixed scheme on the
    # mixed workload; adaptive stays within 15 % of the threshold rule.
    "abl_policy_threshold_beats_every_fixed": Claim(
        "policy_threshold_mixed", ("elapsed_ns",),
        lambda e: all(e["threshold"] < e[s] for s in _FIXED_SCHEMES)),
    "abl_policy_adaptive_beats_worst_fixed": Claim(
        "policy_threshold_mixed", ("elapsed_ns",),
        lambda e: e["adaptive"] < max(e[s] for s in _FIXED_SCHEMES)),
    "abl_policy_adaptive_near_threshold": Claim(
        "policy_threshold_mixed", ("elapsed_ns.adaptive", "elapsed_ns.threshold"),
        lambda a, t: a <= t * 1.15),
    # abl-prefetch: announced prefetch never demand-fills, the ablated
    # path always does, and prefetching wins at every size.
    "abl_prefetch_announced_never_demand_fills": Claim(
        "abl_prefetch", ("prefetch_cache.demand_fills", "prefetch_cache.announces"),
        lambda d, a: d == 0 and a > 0),
    "abl_prefetch_ablated_always_demand_fills": Claim(
        "abl_prefetch", ("demand_cache.demand_fills", "demand_cache.announces"),
        lambda d, a: d > 0 and a == 0),
    "abl_prefetch_wins_every_size": Claim(
        "abl_prefetch", ("prefetch_mbps", "demand_mbps"),
        lambda p, d: all(p[s] >= d[s] * 1.02 for s in p)),
    # abl-thresh: the direct path wins at <= 128 B; above, one transport.
    "abl_threshold_direct_wins_below": Claim(
        "abl_threshold", ("direct_ns", "vdma_ns"),
        lambda d, v: all(d[s] < v[s] for s in ("32", "64", "128"))),
    "abl_threshold_same_transport_above": Claim(
        "abl_threshold", ("direct_ns.7680", "vdma_ns.7680"),
        lambda d, v: abs(d - v) < 0.02 * v),
    # ext-async: with 3 M cycles of compute most of the transfer hides.
    "ext_async_overlap_faster": Claim(
        "ext_async_overlap", ("async_ns.3000000", "blocking_ns.3000000"),
        lambda a, b: a < b),
    "ext_async_overlap_hides_transfer": Claim(
        "ext_async_overlap", ("async_ns.3000000", "blocking_ns.100000"),
        lambda a, t: a < 3_000_000 / 533e6 * 1e9 + 0.35 * t),
    # ext-coll: crossing devices is expensive for a flat barrier.
    "ext_coll_two_devices_barrier_cost": Claim(
        "ext_coll_flat_vs_hier", ("2.flat.barrier_ns", "1.flat.barrier_ns"),
        lambda b2, b1: b2 > 2.0 * b1),
    "ext_coll_five_devices_barrier_cost": Claim(
        "ext_coll_flat_vs_hier", ("5.flat.barrier_ns", "2.flat.barrier_ns"),
        lambda b5, b2: b5 > b2),
    # The two-level tree crosses PCIe on no more routes and is faster at
    # 5 devices; on one device both are the same tree.
    "ext_coll_one_device_no_crossings": Claim(
        "ext_coll_flat_vs_hier", ("1.hier.pcie_pairs", "1.flat.pcie_pairs"),
        lambda h, f: h == f == 0),
    "ext_coll_hier_fewer_crossings": Claim(
        "ext_coll_flat_vs_hier", ("2", "3", "4", "5"),
        _all_pairs("pcie_pairs", "hier", "flat")),
    "ext_coll_hier_barrier_faster": Claim(
        "ext_coll_flat_vs_hier", ("5.hier.barrier_ns", "5.flat.barrier_ns"),
        lambda h, f: h < f),
    "ext_coll_hier_allreduce_faster": Claim(
        "ext_coll_flat_vs_hier", ("5.hier.allreduce_ns", "5.flat.allreduce_ns"),
        lambda h, f: h < f),
    # Permuted members shred the flat tree's locality, not the two-level's.
    "ext_coll_permuted_flat_crossings": Claim(
        "ext_coll_flat_vs_hier",
        ("5_permuted.flat.pcie_pairs", "5_permuted.hier.pcie_pairs"),
        lambda f, h: f > 10 * h),
    "ext_coll_permuted_hier_barrier": Claim(
        "ext_coll_flat_vs_hier",
        ("5_permuted.hier.barrier_ns", "5_permuted.flat.barrier_ns"),
        lambda h, f: h < 0.5 * f),
    "ext_coll_permuted_hier_allreduce": Claim(
        "ext_coll_flat_vs_hier",
        ("5_permuted.hier.allreduce_ns", "5_permuted.flat.allreduce_ns"),
        lambda h, f: h < 0.5 * f),
    # Three levels: one host has no inter-host tier (and the two
    # hierarchical plans agree); on 2 and 4 hosts traffic crosses hosts
    # and each deeper plan crosses no more routes than the shallower.
    "ext_coll_one_host_no_interhost_pairs": Claim(
        "ext_coll_three_level", ("1",),
        lambda by: all(r["interhost_pairs"] == 0 for r in by.values())),
    "ext_coll_one_host_no_interhost_bytes": Claim(
        "ext_coll_three_level", ("1",),
        lambda by: all(r["interhost_bytes"] == 0 for r in by.values())),
    "ext_coll_one_host_two_equals_three": Claim(
        "ext_coll_three_level", ("1.two.allreduce_ns", "1.three.allreduce_ns"),
        lambda a, b: a == b),
    "ext_coll_multihost_crosses_hosts": Claim(
        "ext_coll_three_level", ("2.three.interhost_bytes", "4.three.interhost_bytes"),
        lambda *volumes: all(v > 0 for v in volumes)),
    "ext_coll_three_level_fewer_interhost_pairs": Claim(
        "ext_coll_three_level", ("2", "4"), _all_pairs("interhost_pairs", "three", "two")),
    "ext_coll_two_level_fewer_interhost_pairs": Claim(
        "ext_coll_three_level", ("2", "4"), _all_pairs("interhost_pairs", "two", "flat")),
    "ext_coll_three_level_fewer_pcie_pairs": Claim(
        "ext_coll_three_level", ("2", "4"), _all_pairs("pcie_pairs", "three", "flat")),
    # ext-rpc: a full curve per policy and arrival process, one outcome
    # per arrival process, p50 no worse at the easy load, and coalescing
    # only where vDMA and bursts give it material.
    "rpc_every_policy_and_arrival": Claim(
        "ext_rpc_curves", ("curves",),
        lambda c: len(c) == len(_RPC_POLICIES) * len(_RPC_ARRIVALS)),
    "rpc_every_curve_full": Claim(
        "ext_rpc_curves", ("curves",),
        lambda c: all(
            len(col) == len(_RPC_LOADS) for v in c.values() for col in v.values())),
    "rpc_one_digest_per_arrival": Claim(
        "ext_rpc_curves", ("digests",), lambda d: all(len(v) == 1 for v in d.values())),
    "rpc_p50_no_worse_at_easy_load": Claim(
        "ext_rpc_curves", ("curves",),
        lambda c: all(v["p50_us"][-1] <= v["p50_us"][0] * 1.05 for v in c.values())),
    "rpc_vdma_coalesces_bursty": Claim(
        "ext_rpc_curves", ("curves.static-vdma/bursty.coalesced",), lambda c: c[0] > 0),
    "rpc_cachedget_never_coalesces": Claim(
        "ext_rpc_curves", ("curves.static-cachedget/bursty.coalesced",),
        lambda c: c[0] == 0),
    # Each RPC call is decided exactly once (DESIGN.md §15): a call the
    # coalescing loop probed and rejected keeps that decision.
    "rpc_open_loop_one_decision_per_call": Claim(
        "rpc_open_loop",
        tuple(f"{label}_{field}" for label in ("static_vdma", "threshold", "adaptive")
              for field in ("calls", "decisions")),
        lambda *pairs: all(
            c == d > 0 for c, d in zip(pairs[::2], pairs[1::2]))),
    "rpc_curves_one_decision_per_call": Claim(
        "ext_rpc_curves", ("calls", "decisions"), lambda c, d: c == d > 0),
    # Each cross-device message is decided once by the selector's journal
    # (DESIGN.md §9), a wildcard receive's probe included.
    "rcce_api_one_decision_per_message": Claim(
        "rcce_api", ("xdev_messages", "xdev_decisions"), lambda m, d: m == d > 0),
    "rpc_bursty_coalesces_more": Claim(
        "ext_rpc_curves",
        ("curves.static-vdma/bursty.coalesced", "curves.static-vdma/poisson.coalesced"),
        lambda b, p: sum(b) > sum(p)),
    # DESIGN.md §10-§11: the hierarchical collectives beat flat at full
    # scale, and the fabric's top level really crosses hosts.
    "coll_hier_barrier_faster": Claim(
        "coll_hier_allreduce", ("hier_barrier_ns", "flat_barrier_ns"), lambda h, f: h < f),
    "coll_hier_allreduce_faster": Claim(
        "coll_hier_allreduce", ("hier_allreduce_ns", "flat_allreduce_ns"),
        lambda h, f: h < f),
    "fabric_multihost_crosses_hosts": Claim(
        "fabric_multihost", ("interhost_bytes",), lambda b: b > 0),
}


def claim_failures(pins: Mapping[str, dict]) -> list[str]:
    """``claim: scenario.field=value, ...`` for every claim ``pins`` break."""
    failures = []
    for name, (scenario, fields, holds) in CLAIMS.items():
        values = [reduce(getitem, path.split("."), pins[scenario]) for path in fields]
        if not holds(*values):
            shown = ", ".join(f"{scenario}.{f}={v!r}" for f, v in zip(fields, values))
            failures.append(f"{name}: {shown}")
    return failures
