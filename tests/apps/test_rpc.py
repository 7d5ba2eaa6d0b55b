"""Unit + golden tests of the RPC-offload workload (repro.apps.rpc).

Covers the acceptance checklist of the RPC dispatcher: coalescing
boundaries (exactly at the byte threshold, one under, one over, and the
``coalesce_max`` cap), flush-deadline expiry versus capacity flushes,
serialization-cache hit/miss/eviction accounting, and the checked-in
outcome digest of the fixed 200-request golden trace.
"""

import pytest

from repro.apps.rpc import (
    RpcParams,
    SerializationCache,
    install_rpc,
    outcome_digest,
    run_rpc,
)
from repro.bench.arrivals import (
    BurstyArrivals,
    FixedSizes,
    ParetoSizes,
    PoissonArrivals,
    RpcCall,
    UniformSizes,
    calls_digest,
    generate_calls,
    golden_trace,
)
from repro.vscc.policy import ThresholdPolicy
from repro.vscc.schemes import CommScheme
from repro.vscc.system import VSCCSystem

#: Pinned digests of the fixed acceptance trace: the trace content
#: itself, and the semantic outcome of running it (identical across
#: every fuse/host configuration — the bit-identity matrix test
#: asserts that; here we pin the absolute value).
GOLDEN_TRACE_DIGEST = "595100258429f95a"
GOLDEN_OUTCOME_DIGEST = "e4303b5417aebb79"


def vdma_system(**kwargs):
    """A system whose policy maps everything onto the vDMA scheme."""
    kwargs.setdefault("num_devices", 2)
    kwargs.setdefault("scheme", CommScheme.LOCAL_PUT_LOCAL_GET_VDMA)
    kwargs.setdefault("seed", 7)
    return VSCCSystem(**kwargs)


def burst(nbytes, count, rank=0, gap_ns=0.0):
    """``count`` same-size calls all due at t=0 (maximal backlog)."""
    return [
        RpcCall(
            req_id=rank * 1_000_000 + i,
            rank=rank,
            issue_ns=i * gap_ns,
            req_bytes=nbytes,
            resp_bytes=64,
            method=f"m{i % 4}",
        )
        for i in range(count)
    ]


# -- coalescing boundaries ------------------------------------------------------


def run_burst(nbytes, count, **params):
    system = vdma_system()
    report = run_rpc(system, burst(nbytes, count), RpcParams(**params))
    assert report.completed == count
    return report.dispatcher


def test_coalesce_exactly_at_threshold():
    d = run_burst(128, 3, coalesce_bytes=128, coalesce_max=8)
    assert d.descriptors == 1
    assert d.coalesced == 3


def test_coalesce_one_under_threshold():
    d = run_burst(127, 3, coalesce_bytes=128, coalesce_max=8)
    assert d.descriptors == 1
    assert d.coalesced == 3


def test_coalesce_one_over_threshold():
    d = run_burst(129, 3, coalesce_bytes=128, coalesce_max=8)
    assert d.descriptors == 3
    assert d.coalesced == 0


def test_coalesce_max_caps_descriptor_size():
    d = run_burst(64, 5, coalesce_bytes=128, coalesce_max=2)
    # 5 due requests under a 2-per-descriptor cap: 2 + 2 + 1.
    assert d.descriptors == 3
    assert d.coalesced == 4  # the lone trailing request doesn't count


def test_no_coalescing_without_backlog():
    # Gaps far larger than the submission cost: every request is issued
    # before the next arrives, so nothing is adjacent and due.
    system = vdma_system()
    report = run_rpc(
        system, burst(64, 4, gap_ns=1e6), RpcParams(coalesce_bytes=128)
    )
    assert report.dispatcher.descriptors == 4
    assert report.dispatcher.coalesced == 0


def test_priority_is_a_coalescing_barrier():
    calls = burst(64, 4)
    calls[1] = RpcCall(
        req_id=calls[1].req_id, rank=0, issue_ns=0.0, req_bytes=64,
        resp_bytes=64, method="m1", priority=True,
    )
    system = vdma_system()
    report = run_rpc(system, calls, RpcParams(coalesce_bytes=128, coalesce_max=8))
    d = report.dispatcher
    # [c0][P][c2+c3]: the priority call splits the run and rides alone.
    assert d.priority_submits == 1
    assert d.descriptors == 3
    assert d.coalesced == 2


def test_rpc_lane_and_sync_bypass_accounting():
    calls = burst(64, 4)
    calls[2] = RpcCall(
        req_id=calls[2].req_id, rank=0, issue_ns=0.0, req_bytes=64,
        resp_bytes=64, method="m1", priority=True,
    )
    system = vdma_system()
    run_rpc(system, calls, RpcParams(coalesce_bytes=128))
    metrics = system.metrics
    # Plain descriptors ride the rpc lane; the priority call rides sync
    # and bypasses the rpc descriptor still in flight ahead of it.
    assert metrics["sched.requests{device=0,lane=rpc}"] == 2.0
    assert metrics["sched.sync_bypass{device=0}"] >= 1.0


def test_scheme_decisions_are_journaled():
    system = vdma_system()
    report = run_rpc(system, burst(64, 3), RpcParams())
    journal = report.dispatcher.decision_journal
    assert [req_id for req_id, _ in journal] == [0, 1, 2]
    assert all(scheme == "vdma" for _, scheme in journal)
    assert system.metrics["policy.decisions{scheme=vdma}"] == 3.0


# -- response batching ----------------------------------------------------------


def test_flush_deadline_expiry():
    # Small responses never reach batch_bytes: only the deadline flushes.
    system = vdma_system()
    report = run_rpc(
        system,
        burst(64, 3, gap_ns=200_000.0),
        RpcParams(batch_bytes=1 << 20, flush_deadline_ns=5000.0),
    )
    d = report.dispatcher
    assert d.flushes_full == 0
    assert d.flushes_deadline == 3
    assert report.completed == 3


def test_flush_on_capacity():
    # batch_bytes below one response: every response flushes as "full"
    # before its deadline timer could matter.
    system = vdma_system()
    report = run_rpc(
        system,
        burst(64, 4),
        RpcParams(batch_bytes=32, flush_deadline_ns=1e9),
    )
    d = report.dispatcher
    assert d.flushes_full == 4
    assert d.flushes_deadline == 0
    assert report.completed == 4


def test_deadline_bounds_latency():
    # A lone small request is delivered within deadline + transit, not
    # held forever waiting for the batch to fill.
    system = vdma_system()
    report = run_rpc(
        system,
        burst(64, 1),
        RpcParams(batch_bytes=1 << 20, flush_deadline_ns=2000.0),
    )
    assert report.completed == 1
    assert report.completions[0].latency_ns < 100_000.0


# -- serialization cache --------------------------------------------------------


def test_cache_hit_miss_accounting():
    # 8 calls over 4 methods: 4 cold misses, 4 hits.
    system = vdma_system()
    report = run_rpc(system, burst(64, 8), RpcParams(cache_capacity=16))
    cache = report.dispatcher.cache
    assert cache.misses == 4
    assert cache.hits == 4
    assert cache.evictions == 0
    metrics = system.metrics
    assert metrics["rpc.cache.hits"] == 4.0
    assert metrics["rpc.cache.misses"] == 4.0


def test_cache_capacity_evicts_lru():
    # Capacity 1 with methods cycling m0..m3: every lookup misses and
    # (after the first) evicts the previous entry.
    system = vdma_system()
    report = run_rpc(system, burst(64, 8), RpcParams(cache_capacity=1))
    cache = report.dispatcher.cache
    assert cache.hits == 0
    assert cache.misses == 8
    assert cache.evictions == 7


def test_cache_off_emits_no_series_and_costs_full_serialization():
    # Two widely spaced same-method calls: the repeat is a cache hit
    # (cheap template reuse) with nothing else on the critical path —
    # a tight burst would bottleneck on the down cable and a deadline
    # flush would mask the serialization savings behind the timer.
    calls = [
        RpcCall(0, 0, 0.0, 64, 64, "m0"),
        RpcCall(1, 0, 500_000.0, 64, 64, "m0"),
    ]
    system_on = vdma_system()
    on = run_rpc(system_on, calls, RpcParams(cache=True, batch_bytes=32))
    system_off = vdma_system()
    off = run_rpc(system_off, calls, RpcParams(cache=False, batch_bytes=32))
    assert not any("rpc.cache" in k for k in system_off.metrics)
    assert any("rpc.cache" in k for k in system_on.metrics)
    # Same outcome, strictly more simulated time without the cache.
    assert on.digest == off.digest
    assert system_off.sim.now > system_on.sim.now


def test_cache_invalidate_epoch():
    cache = SerializationCache(capacity=4)
    assert cache.lookup("a") is False
    assert cache.lookup("a") is True
    cache.invalidate()
    assert cache.epoch == 1
    assert len(cache) == 0
    assert cache.lookup("a") is False


# -- arrivals generator ---------------------------------------------------------


def test_generate_calls_is_seed_deterministic():
    kwargs = dict(
        ranks=(0, 1),
        calls_per_rank=20,
        arrivals=BurstyArrivals(),
        req_sizes=ParetoSizes(),
        resp_sizes=UniformSizes(),
        seed=11,
    )
    assert calls_digest(generate_calls(**kwargs)) == calls_digest(
        generate_calls(**kwargs)
    )
    assert calls_digest(generate_calls(**kwargs)) != calls_digest(
        generate_calls(**{**kwargs, "seed": 12})
    )


def test_per_rank_substreams_are_independent():
    # Dropping a rank must not perturb the other ranks' draws.
    both = generate_calls(
        (0, 1), 10, PoissonArrivals(), FixedSizes(), FixedSizes(), seed=3
    )
    only0 = generate_calls(
        (0,), 10, PoissonArrivals(), FixedSizes(), FixedSizes(), seed=3
    )
    assert [c for c in both if c.rank == 0] == only0


def test_sizes_respect_bounds():
    import numpy as np

    rng = np.random.default_rng(0)
    sizes = ParetoSizes(alpha=1.1, floor_bytes=24, cap_bytes=4096).draw(2000, rng)
    assert sizes.min() >= 24
    assert sizes.max() <= 4096
    # Heavy tail: the max dwarfs the median.
    assert sizes.max() > 8 * float(np.median(sizes))


# -- golden trace ---------------------------------------------------------------


def test_golden_trace_is_pinned():
    trace = golden_trace()
    assert len(trace) == 200
    assert sum(c.priority for c in trace) == 20
    assert calls_digest(trace) == GOLDEN_TRACE_DIGEST


def test_golden_outcome_digest():
    system = VSCCSystem(num_devices=2, policy=ThresholdPolicy(), seed=7)
    report = run_rpc(system, golden_trace())
    assert report.completed == report.offered == 200
    assert report.digest == GOLDEN_OUTCOME_DIGEST
    # Exactly-once: every request id delivered once.
    ids = [c.req_id for c in report.completions]
    assert len(set(ids)) == len(ids) == 200
    assert report.latency_percentile(99) >= report.latency_percentile(50) > 0


def test_outcome_digest_detects_loss_and_duplication():
    system = VSCCSystem(num_devices=2, policy=ThresholdPolicy(), seed=7)
    report = run_rpc(system, golden_trace())
    assert outcome_digest(report.completions[:-1]) != report.digest
    assert outcome_digest(report.completions + report.completions[:1]) != report.digest


def test_run_rpc_validates_ranks():
    system = vdma_system()
    with pytest.raises(ValueError):
        run_rpc(system, [])
    bad = burst(64, 1, rank=10_000)
    with pytest.raises(ValueError):
        run_rpc(system, bad)


def test_report_throughput_and_metrics_surface():
    system = vdma_system()
    system.obs.enable()
    report = run_rpc(system, golden_trace(ranks=(0, 1)))
    assert report.throughput_rps > 0
    metrics = system.metrics
    assert metrics["rpc.requests"] == 100.0
    assert metrics["rpc.responses"] == 100.0
    assert metrics["rpc.latency_ns.count"] == 100.0
    assert metrics["rpc.latency_ns.p99"] >= metrics["rpc.latency_ns.p50"]


def test_install_rpc_joins_system_metrics():
    system = vdma_system()
    dispatcher = install_rpc(system, RpcParams())
    assert system.rpc_dispatchers == [dispatcher]
    report = run_rpc(system, burst(64, 2), dispatcher=dispatcher)
    assert report.completed == 2
    assert system.metrics["rpc.requests"] == 2.0
