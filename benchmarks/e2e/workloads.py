"""The five workloads of the end-to-end benchmark.

Each workload builds its inputs from the seed in ``__init__`` (timed as
set-up) and runs one timed pass per :meth:`run_pass`, returning a
:class:`PassResult`: the simulated fingerprint behind ``sim_digest``, the
public ``metrics`` snapshot of every system the pass built, the
workload's own metrics (names in ``spec.DETAIL``) and the outcome of its
correctness checks. Only the public ``repro`` API is used.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import multiprocessing
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from repro.apps.npb import BTBenchmark
from repro.apps.pingpong import DEFAULT_SIZES, run_pingpong
from repro.apps.rpc import RpcParams, run_rpc
from repro.bench import ONCHIP_PAIR, PAPER_BANDS
from repro.bench.arrivals import (
    BurstyArrivals,
    ParetoSizes,
    PoissonArrivals,
    RpcCall,
    generate_calls,
)
from repro.bench.figures import XDEV_PAIR
from repro.rcce import RcceOptions
from repro.rcce.session import RcceSession
from repro.serve import JobSpec, SimService
from repro.vscc import CommScheme, VSCCSystem
from repro.vscc.policy import ThresholdPolicy

VDMA = CommScheme.LOCAL_PUT_LOCAL_GET_VDMA
CACHED = CommScheme.LOCAL_PUT_REMOTE_GET


@dataclass
class PassResult:
    """Everything one pass produced."""

    #: Simulated results (JSON-able); with the model counters of
    #: ``snapshots`` it forms the digest.
    fingerprint: dict
    #: ``system.metrics`` of every system built in the pass, in build order.
    snapshots: list[dict]
    #: Workload metrics, named as in ``spec.DETAIL``.
    values: dict
    #: Operations whose outcome the pass checked, and the checks that failed.
    attempted: int
    failures: list[str]
    #: Wall seconds of the workload's own timed region, when it is not the
    #: whole pass.
    timed_s: Optional[float] = None
    #: Per-sample data pooled across passes (serve latencies).
    samples: dict = field(default_factory=dict)

    @property
    def digest(self) -> str:
        """sha256 over the fingerprint and the model counters of every
        snapshot; host-implementation counters (:func:`is_model_counter`)
        are left out, so a kernel change that keeps simulated time keeps
        the digest."""
        model = [sorted((k, v) for k, v in s.items() if is_model_counter(k))
                 for s in self.snapshots]
        doc = [self.fingerprint, model]
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


#: Series that count the simulator's own work (events dispatched, processes
#: spawned, fused yields, shard lanes) rather than anything modelled.
HOST_COUNTERS = ("sim.events", "sim.processes_spawned", "sim.processes_live")


def is_model_counter(key: str) -> bool:
    name = key.split("{", 1)[0]
    return name not in HOST_COUNTERS and not name.startswith("kernel.")


def total(snapshots: list[dict], name: str) -> float:
    """Sum one metric over every series and every snapshot."""
    prefix = name + "{"
    return float(sum(v for snap in snapshots for k, v in snap.items()
                     if k == name or k.startswith(prefix)))


def worker_cpu_seconds() -> float:
    """CPU seconds used so far by this process's live worker processes."""
    used = 0.0
    tick = os.sysconf("SC_CLK_TCK")
    for proc in multiprocessing.active_children():
        stat = Path(f"/proc/{proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        used += (int(fields[11]) + int(fields[12])) / tick  # utime + stime
    return used


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counters(snapshots: list[dict]) -> dict[str, float]:
    """Deterministic per-layer counters, from the public metrics surface.

    Busy and wait times are simulated nanoseconds per simulated
    nanosecond of the systems' clocks (summed over links, so a busy
    fabric reads above 1).
    """
    t = lambda name: total(snapshots, name)  # noqa: E731
    sim_ns = t("sim.now_ns")
    events = t("sim.events")
    fused = t("kernel.fused_yields")
    hits, misses = t("softcache.hits"), t("softcache.misses")
    rpc_hits, rpc_misses = t("rpc.cache.hits"), t("rpc.cache.misses")
    return {
        "sim.events": events,
        "sim.processes_spawned": t("sim.processes_spawned"),
        "sim.fused_frac": _ratio(fused, events + fused),
        "scc.mesh_bytes": t("mesh.link_bytes"),
        "scc.mesh_busy_ratio": _ratio(t("mesh.link_busy_ns"), sim_ns),
        "scc.memctrl_wait_ratio": _ratio(t("memctrl.fifo_wait_ns"), sim_ns),
        "host.pcie_bytes": t("pcie.bytes"),
        "host.pcie_transfers": t("pcie.transfers"),
        "host.pcie_busy_ratio": _ratio(t("pcie.busy_ns"), sim_ns),
        "host.vdma_transfers": t("vdma.transfers"),
        "host.softcache_hit_frac": _ratio(hits, hits + misses),
        "host.softcache_misses": misses,
        "host.sched_requests": t("sched.requests"),
        "host.sched_coalesced": t("sched.coalesced"),
        "host.interhost_bytes": t("interhost.bytes"),
        "host.interhost_busy_ratio": _ratio(t("interhost.busy_ns"), sim_ns),
        "vscc.msgs_direct_small": t("scheme.selected{transport=direct-small}"),
        "vscc.msgs_vdma": t("scheme.selected{transport=local-put-local-get-vdma}"),
        "vscc.policy_vdma_frac": _ratio(t("policy.decisions{scheme=vdma}"),
                                        t("policy.decisions")),
        "apps.rpc_coalesce_frac": _ratio(t("rpc.coalesced_requests"), t("rpc.requests")),
        "apps.rpc_cache_hit_frac": _ratio(rpc_hits, rpc_hits + rpc_misses),
        "apps.rpc_descriptors": t("rpc.descriptors"),
    }


class Workload:
    """One workload: inputs built in ``__init__``, one pass per call."""

    #: Nominal host seconds per pass; sets the pass count of a run.
    pass_s: float

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def close(self) -> None:
        """Release what set-up started."""


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile (the ``RpcReport`` convention)."""
    ordered = sorted(values)
    pos = p / 100.0 * (len(ordered) - 1)
    lo = int(pos)
    if lo + 1 >= len(ordered):
        return ordered[-1]
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[lo + 1] * frac


# -- bt_spmd -------------------------------------------------------------------


class BtSpmd(Workload):
    """NPB BT on 64 ranks of a 5-device vSCC: Fig 7's best vs worst scheme.

    BT draws no random input, so the seed changes nothing here.
    """

    SCHEMES = (("vdma", VDMA), ("cached", CACHED))
    pass_s = 1.7

    def __init__(self, seed: int, clazz: str = "A", nranks: int = 64):
        self.clazz = clazz
        self.nranks = nranks

    def run_pass(self) -> PassResult:
        values, snapshots, failures = {}, [], []
        for label, scheme in self.SCHEMES:
            bench = BTBenchmark(clazz=self.clazz, nranks=self.nranks, niter=1,
                                mode="model")
            system = VSCCSystem(num_devices=5, scheme=scheme)
            run = system.run(bench.program, ranks=range(self.nranks))
            failures += [f"bt {label}: rank {rank} reported no elapsed time"
                         for rank, elapsed in run.results.items()
                         if not elapsed or elapsed <= 0]
            values[f"bt_gflops_{label}"] = bench.result().gflops_per_s
            snapshots.append(system.metrics)
        if not values["bt_gflops_vdma"] > values["bt_gflops_cached"]:
            failures.append("Fig 7: the vDMA scheme does not beat cached-get")
        return PassResult(
            fingerprint=dict(values), snapshots=snapshots, values=values,
            attempted=len(self.SCHEMES) * self.nranks + 1, failures=failures,
        )


# -- xdev_sweep ----------------------------------------------------------------


class XdevSweep(Workload):
    """Fig 6a on-chip and Fig 6b inter-device ping-pong, payloads verified.

    The ping-pong payload is a fixed pattern, so the seed changes nothing.
    """

    pass_s = 0.9

    def __init__(self, seed: int, sizes=DEFAULT_SIZES, iterations: int = 3):
        self.sizes = tuple(sizes)
        self.iterations = iterations

    def _sweep(self, session, pair) -> dict:
        points = run_pingpong(session, *pair, sizes=self.sizes,
                              iterations=self.iterations, verify=True)
        return {p.size: p for p in points}

    def run_pass(self) -> PassResult:
        snapshots = []
        onchip = {}
        for label, pipelined in (("rcce", False), ("ircce", True)):
            session = RcceSession(options=RcceOptions(pipelined=pipelined))
            onchip[label] = self._sweep(session, ONCHIP_PAIR)
            snapshots.append(session.metrics)
        inter = {}
        for scheme in CommScheme:
            system = VSCCSystem(num_devices=2, scheme=scheme)
            inter[scheme] = self._sweep(system, XDEV_PAIR)
            snapshots.append(system.metrics)

        big, small = max(self.sizes), 64 if 64 in self.sizes else min(self.sizes)
        peak = {s: max(p.throughput_mbps for p in pts.values())
                for s, pts in inter.items()}
        onchip_peak = max(p.throughput_mbps for p in onchip["ircce"].values())
        bands = {
            "onchip_peak_mbps": onchip_peak,
            "rcce_vs_ircce_gain": onchip["ircce"][big].throughput_mbps
            / onchip["rcce"][big].throughput_mbps,
            "best_vs_onchip": peak[VDMA] / onchip_peak,
            "cached_vs_limit": peak[CACHED] / peak[CommScheme.HW_ACCEL_REMOTE_PUT],
            "vdma_vs_limit": peak[VDMA] / peak[CommScheme.HW_ACCEL_REMOTE_PUT],
        }
        failures = [PAPER_BANDS[name].report(value)
                    for name, value in bands.items()
                    if not PAPER_BANDS[name].contains(value)]
        values = {
            "onchip_mbps_256k": onchip["ircce"][big].throughput_mbps,
            "xdev_vdma_mbps_256k": inter[VDMA][big].throughput_mbps,
            "xdev_cached_mbps_256k": inter[CACHED][big].throughput_mbps,
            "xdev_small_us": inter[VDMA][small].oneway_ns / 1000.0,
            **bands,
        }
        fingerprint = {
            "onchip": {k: [p.oneway_ns for p in v.values()] for k, v in onchip.items()},
            "inter": {s.value: [p.oneway_ns for p in v.values()] for s, v in inter.items()},
        }
        curves = len(onchip) + len(inter)
        return PassResult(
            fingerprint=fingerprint, snapshots=snapshots, values=values,
            attempted=curves * len(self.sizes) + len(bands), failures=failures,
        )


# -- coll_fabric ---------------------------------------------------------------


class CollFabric(Workload):
    """Barrier + allreduce over every rank of 2 hosts x 2 devices.

    Each rank contributes 64 integer-valued doubles drawn from the seed,
    so every summation order gives the exact numpy reference.
    """

    FABRIC = {"num_hosts": 2, "devices_per_host": 2, "scheme": VDMA}
    pass_s = 1.45

    def __init__(self, seed: int, reps: int = 8, length: int = 64):
        self.reps = reps
        self.nranks = VSCCSystem(**self.FABRIC).num_ranks
        rng = np.random.default_rng(seed)
        self.rows = rng.integers(-(2**20), 2**20, size=(self.nranks, length)).astype(np.float64)
        self.reference = self.rows.sum(axis=0)

    def run_pass(self) -> PassResult:
        system = VSCCSystem(**self.FABRIC)
        nranks, rows, reference = self.nranks, self.rows, self.reference
        durations: dict[str, list[float]] = {"flat": [], "hier": []}
        wrong: list[tuple] = []

        def program(comm):
            for label, hier in (("flat", False), ("hier", True)):
                for rep in range(self.reps):
                    yield from comm.barrier(group_size=nranks, hierarchical=hier)
                    t0 = comm.env.sim.now
                    out = yield from comm.allreduce(
                        rows[comm.rank].copy(), np.add, group_size=nranks,
                        hierarchical=hier,
                    )
                    if comm.rank == 0:
                        durations[label].append(comm.env.sim.now - t0)
                    if not np.array_equal(out, reference):
                        wrong.append((comm.rank, label, rep))

        system.run(program)
        flat_us = statistics.median(durations["flat"]) / 1000.0
        hier_us = statistics.median(durations["hier"]) / 1000.0
        failures = [f"allreduce differs from numpy at rank {r} ({label}, rep {rep})"
                    for r, label, rep in wrong]
        if not hier_us < flat_us:
            failures.append("hierarchical allreduce is not faster than flat")
        snapshots = [system.metrics]
        return PassResult(
            fingerprint=durations, snapshots=snapshots,
            values={"allreduce_us": hier_us, "allreduce_flat_us": flat_us},
            attempted=nranks * 2 * self.reps + 1, failures=failures,
        )


# -- rpc_open_loop -------------------------------------------------------------

#: 16 clients, 8 on each of the two devices.
RPC_RANKS = tuple(range(8)) + tuple(range(48, 56))
RPC_FIXED_RATES = (25e3, 50e3, 100e3)
RPC_BURSTY_RATE = 50e3
#: Capacity search bracket (calls/s) and the latency limit it applies.
RPC_BRACKET = (10e3, 300e3)
RPC_P99_LIMIT_NS = 300_000.0


class RpcOpenLoop(Workload):
    """Open-loop RPC offload: fixed Poisson rates, one bursty rate, and a
    geometric bisection for the highest rate meeting the p99 limit.

    Every rate point replays one seeded call population with its arrival
    instants rescaled, so all points share one outcome digest. The bursty
    point keeps the population and draws its own on/off arrival instants.
    """

    #: 2000 calls a rate point leave 20 beyond the p99. Short passes give
    #: the run more of them, each with reference loops close on both sides.
    pass_s = 1.15

    def __init__(self, seed: int, calls_per_rank: int = 125, bisect_steps: int = 7):
        self.bisect_steps = bisect_steps
        # Unit-mean gaps: a rate point scales them to its mean gap.
        self.calls = generate_calls(
            ranks=RPC_RANKS,
            calls_per_rank=calls_per_rank,
            arrivals=PoissonArrivals(mean_gap_ns=1.0),
            req_sizes=ParetoSizes(alpha=1.3, floor_bytes=24, cap_bytes=8192),
            resp_sizes=ParetoSizes(alpha=1.2, floor_bytes=48, cap_bytes=16384),
            seed=seed,
        )
        # Unit mean too: 7.86 / 8 + 0.02 * 7 / 8 = 1.
        bursty = BurstyArrivals(on_gap_ns=0.02, off_gap_ns=7.86, burst_mean=8.0)
        self.bursty_instants = []
        for rank in RPC_RANKS:
            gaps = bursty.gaps(calls_per_rank, np.random.default_rng([seed, rank, 1]))
            self.bursty_instants += np.cumsum(gaps).tolist()

    def _point(self, rate: float, instants=None) -> dict:
        scale = len(RPC_RANKS) / rate * 1e9
        if instants is None:
            instants = [c.issue_ns for c in self.calls]
        calls = [RpcCall(c.req_id, c.rank, t * scale, c.req_bytes, c.resp_bytes,
                         c.method, c.priority)
                 for c, t in zip(self.calls, instants)]
        system = VSCCSystem(num_devices=2, policy=ThresholdPolicy())
        report = run_rpc(system, calls, RpcParams())
        lats = [c.latency_ns for c in report.completions]
        last_quarter = 0.75 * max(c.issue_ns for c in calls)
        tail = [c.latency_ns for c in report.completions if c.issue_ns >= last_quarter]
        return {
            "rate": rate,
            "offered": report.offered,
            "completed": report.completed,
            "digest": report.digest,
            "p50_ns": percentile(lats, 50),
            "p99_ns": percentile(lats, 99),
            "tail_p99_ns": percentile(tail, 99),
            "metrics": system.metrics,
        }

    @staticmethod
    def _meets(point: dict) -> bool:
        return (point["completed"] == point["offered"]
                and point["p99_ns"] <= RPC_P99_LIMIT_NS
                and point["tail_p99_ns"] <= RPC_P99_LIMIT_NS)

    def run_pass(self) -> PassResult:
        points = {f"poisson_{rate / 1e3:g}k": self._point(rate) for rate in RPC_FIXED_RATES}
        points["bursty_50k"] = self._point(RPC_BURSTY_RATE, self.bursty_instants)
        lo, hi = RPC_BRACKET
        low, high = self._point(lo), self._point(hi)
        points["bracket_lo"], points["bracket_hi"] = low, high
        failures = []
        if not self._meets(low):
            failures.append(f"capacity bracket: {lo:g} calls/s already misses the limit")
        if self._meets(high):
            lo = hi  # capacity at or above the bracket top
        else:
            for step in range(self.bisect_steps):
                mid = math.sqrt(lo * hi)
                point = points[f"bisect_{step}"] = self._point(mid)
                lo, hi = (mid, hi) if self._meets(point) else (lo, mid)
        for name, point in points.items():
            if point["completed"] != point["offered"]:
                failures.append(f"{name}: {point['completed']}/{point['offered']} responses")
        if len({p["digest"] for p in points.values()}) != 1:
            failures.append("rate points disagree on the outcome digest")
        snapshots = [p.pop("metrics") for p in points.values()]
        values = {
            "rpc_p99_us": points["poisson_50k"]["p99_ns"] / 1000.0,
            "rpc_capacity_krps": lo / 1000.0,
        }
        return PassResult(
            fingerprint={"points": points, **values}, snapshots=snapshots, values=values,
            attempted=sum(p["offered"] for p in points.values()) + 1, failures=failures,
        )


# -- serve_fleet ---------------------------------------------------------------

#: Tenant mix (weight, (workload, params, num_devices, scheme)): spin
#: burners dominate, with ping-pongs and small allreduces mixed in.
SERVE_MIX = (
    (6, ("spin", {"steps": 2_000, "step_ns": 10.0}, 1, None)),
    (2, ("spin", {"steps": 8_000, "step_ns": 10.0}, 1, None)),
    (2, ("pingpong", {"sizes": (256, 2048), "iterations": 1}, 2, "vdma")),
    (1, ("allreduce", {"nranks": 4, "length": 16}, 1, None)),
)
SERVE_TENANTS = ("acme", "globex", "initech")
SERVE_WEIGHTS = {"acme": 2.0}
#: Give up on a phase whose jobs have not all finished by then.
SERVE_PHASE_TIMEOUT_S = 60.0


class ServeFleet(Workload):
    """Multi-tenant job service on a 2-process pool.

    Phase 1 submits a burst and times its drain; phase 2 submits at
    seeded Poisson instants and times each job from its due time to its
    terminal state. The pool is started once, in set-up.

    Each phase holds the mix in fixed proportions; the seed shuffles the
    order and draws tenants, priorities and arrival instants, so every
    seed asks for the same amount of simulation.
    """

    pass_s = 2.3

    def __init__(self, seed: int, burst_jobs: int = 440, open_jobs: int = 100,
                 rate_hz: float = 100.0, workers: int = 2):
        rng = random.Random(seed)
        weighted = [entry for weight, entry in SERVE_MIX for _ in range(weight)]

        def phase(first: int, count: int) -> list[JobSpec]:
            entries = (weighted * (count // len(weighted) + 1))[:count]
            rng.shuffle(entries)
            return [
                JobSpec(workload=workload, params=dict(params),
                        tenant=SERVE_TENANTS[(first + i) % len(SERVE_TENANTS)],
                        priority=rng.randint(0, 3), num_devices=num_devices,
                        scheme=scheme, seed=seed + first + i)
                for i, (workload, params, num_devices, scheme) in enumerate(entries)
            ]

        self.burst = phase(0, burst_jobs)
        self.open = phase(burst_jobs, open_jobs)
        self.due_offsets = np.cumsum([rng.expovariate(rate_hz) for _ in self.open]).tolist()
        self.loop = asyncio.new_event_loop()
        self.service = SimService(workers=workers, pool="process", weights=SERVE_WEIGHTS)
        self.loop.run_until_complete(self.service.start())

    def close(self) -> None:
        try:
            self.loop.run_until_complete(self.service.shutdown())
        finally:
            self.loop.close()

    async def _results(self, handles) -> list:
        return await asyncio.wait_for(
            asyncio.gather(*(h.result() for h in handles)), SERVE_PHASE_TIMEOUT_S
        )

    async def _pass(self):
        service = self.service
        t0 = time.perf_counter()
        handles = [await service.submit(spec) for spec in self.burst]
        burst = await self._results(handles)
        drain_s = time.perf_counter() - t0

        start = time.monotonic()
        due, late, handles = [], [], []
        for offset, spec in zip(self.due_offsets, self.open):
            when = start + offset
            delay = when - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(time.monotonic() - when)
            due.append(when)
            handles.append(await service.submit(spec))
        opened = await self._results(handles)
        finished = [service.core.jobs[h.job_id].finished_at for h in handles]
        return drain_s, burst, opened, due, late, finished

    def run_pass(self) -> PassResult:
        drain_s, burst, opened, due, late, finished = self.loop.run_until_complete(self._pass())
        results = burst + opened
        latency = [f - d for f, d in zip(finished, due)]
        queue = [r.queue_wait_s for r in opened]
        run = [r.run_s for r in opened]
        failures = [f"job {i} ended {r.state}: {r.error}"
                    for i, r in enumerate(results) if r.state != "completed"]
        snapshots = [r.metrics for r in results]
        lat_sum = sum(latency)
        values = {
            "serve_jobs_per_s": len(burst) / drain_s,
            "serve_p50_ms": statistics.median(latency) * 1e3,
            "serve_p99_ms": percentile(latency, 99) * 1e3,
            "serve_gen_late_ms_max": max(late) * 1e3,
            "serve.retries": float(sum(r.attempts - 1 for r in results)),
            "serve.queue_wait_pct": 100.0 * sum(queue) / lat_sum,
            "serve.run_pct": 100.0 * sum(run) / lat_sum,
            "serve.overhead_pct": 100.0 * (lat_sum - sum(queue) - sum(run)) / lat_sum,
        }
        fingerprint = [(i, r.state, r.sim_now_ns) for i, r in enumerate(results)]
        return PassResult(
            fingerprint={"jobs": fingerprint}, snapshots=snapshots, values=values,
            attempted=len(results), failures=failures,
            timed_s=drain_s,
            samples={"latency_s": latency, "late_s": late},
        )


WORKLOADS = {
    "bt_spmd": BtSpmd,
    "xdev_sweep": XdevSweep,
    "coll_fabric": CollFabric,
    "rpc_open_loop": RpcOpenLoop,
    "serve_fleet": ServeFleet,
}


def build(name: str, seed: int, **sizes):
    """Set up workload ``name`` for ``seed`` (``sizes`` shrink it for tests)."""
    return WORKLOADS[name](seed, **sizes)
