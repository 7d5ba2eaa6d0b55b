"""Unit + golden tests of the RPC-offload workload (repro.apps.rpc).

Covers the acceptance checklist of the RPC dispatcher: coalescing
boundaries (exactly at the byte threshold, one under, one over, and the
``coalesce_max`` cap), flush-deadline expiry versus capacity flushes,
serialization-cache hit/miss/eviction accounting, the checked-in
outcome digest of the fixed 200-request golden trace, and the server:
its event stream, FIFO order and cost per call, fused and unfused.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.apps.rpc import (
    RpcCompletion,
    RpcDispatcher,
    RpcParams,
    RpcReport,
    SerializationCache,
    install_rpc,
    outcome_digest,
    run_rpc,
)
from repro.bench.arrivals import (
    _ID_STRIDE,
    BurstyArrivals,
    ParetoSizes,
    PoissonArrivals,
    RpcCall,
    UniformSizes,
    calls_digest,
    generate_calls,
    golden_trace,
)
from repro.host.commtask import REQUEST_BYTES
from repro.sim.engine import FUSE_ENV_VAR
from repro.sim.errors import DeadlockError
from repro.vscc.policy import ThresholdPolicy
from repro.vscc.schemes import CommScheme
from repro.vscc.system import VSCCSystem

#: Pinned digests of the fixed acceptance trace: the trace content
#: itself, and the semantic outcome of running it (identical across
#: every fuse/host configuration — the bit-identity matrix test
#: asserts that; here we pin the absolute value).
GOLDEN_TRACE_DIGEST = "595100258429f95a"
GOLDEN_OUTCOME_DIGEST = "e4303b5417aebb79"


@pytest.fixture(params=["1", "0"], ids=["fused", "unfused"])
def fuse(request, monkeypatch):
    monkeypatch.setenv(FUSE_ENV_VAR, request.param)
    return request.param == "1"


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


def test_scheme_decisions_are_journaled(monkeypatch):
    decided = []
    decide = RpcDispatcher.decide

    def spy(self, call, route):
        scheme = decide(self, call, route)
        decided.append((call.req_id, scheme.value))
        return scheme

    monkeypatch.setattr(RpcDispatcher, "decide", spy)
    system = vdma_system()
    run_rpc(system, burst(64, 3), RpcParams())
    assert decided == [(0, "vdma"), (1, "vdma"), (2, "vdma")]
    assert system.metrics["policy.decisions{scheme=vdma}"] == 3.0


def test_every_call_is_decided_once_when_the_merge_loop_rejects_it(monkeypatch):
    """A call the merge loop probed and rejected keeps that decision for
    its own turn. The trace is a 16-client bursty point at 50k calls/s
    under the threshold policy, where three probes reject a due call."""
    ranks = tuple(range(8)) + tuple(range(48, 56))
    seed = 2015
    population = generate_calls(
        ranks=ranks,
        calls_per_rank=125,
        arrivals=PoissonArrivals(mean_gap_ns=1.0),
        req_sizes=ParetoSizes(alpha=1.3, floor_bytes=24, cap_bytes=8192),
        resp_sizes=ParetoSizes(alpha=1.2, floor_bytes=48, cap_bytes=16384),
        seed=seed,
    )
    bursty = BurstyArrivals(on_gap_ns=0.02, off_gap_ns=7.86, burst_mean=8.0)
    instants = []
    for rank in ranks:
        gaps = bursty.gaps(125, np.random.default_rng([seed, rank, 1]))
        instants += np.cumsum(gaps).tolist()
    scale = len(ranks) / 50e3 * 1e9
    calls = [
        c._replace(issue_ns=t * scale) for c, t in zip(population, instants)
    ]
    decisions: dict[int, int] = {}
    decide = RpcDispatcher.decide

    def spy(self, call, route):
        decisions[call.req_id] = decisions.get(call.req_id, 0) + 1
        return decide(self, call, route)

    monkeypatch.setattr(RpcDispatcher, "decide", spy)
    system = VSCCSystem(num_devices=2, policy=ThresholdPolicy())
    report = run_rpc(system, calls, RpcParams())
    assert report.dispatcher.coalesced > 0
    twice = sorted(req_id for req_id, n in decisions.items() if n > 1)
    assert twice == [], f"req ids decided more than once: {twice}"
    assert len(decisions) == report.offered == len(calls)
    journaled = sum(
        v for k, v in system.metrics.items() if k.startswith("policy.decisions")
    )
    assert journaled == report.offered


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


def test_cache_lookup_hits_misses_and_evicts():
    cache = SerializationCache(capacity=2)
    assert cache.lookup("a") is False
    assert cache.lookup("a") is True
    assert cache.lookup("b") is False
    assert cache.lookup("c") is False  # evicts "a", the least recent
    assert cache.lookup("a") is False  # evicts "b"
    assert (cache.hits, cache.misses, cache.evictions) == (1, 4, 2)


# -- arrivals generator ---------------------------------------------------------


def test_generate_calls_rejects_ids_past_the_rank_stride():
    # One call more than the stride would give rank 0's last call the id
    # of rank 1's first.
    with pytest.raises(ValueError, match="calls_per_rank"):
        generate_calls(
            (0, 1), _ID_STRIDE + 1, PoissonArrivals(), UniformSizes(), UniformSizes()
        )


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
        (0, 1), 10, PoissonArrivals(), UniformSizes(), UniformSizes(), seed=3
    )
    only0 = generate_calls(
        (0,), 10, PoissonArrivals(), UniformSizes(), UniformSizes(), seed=3
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


# -- records ---------------------------------------------------------------------


def sample_call(**overrides):
    fields = dict(req_id=7, rank=1, issue_ns=250.0, req_bytes=64,
                  resp_bytes=128, method="m3")
    fields.update(overrides)
    return RpcCall(**fields)


def sample_completion(**overrides):
    fields = dict(req_id=7, rank=1, req_bytes=64, resp_bytes=128,
                  method="m3", issue_ns=250.0, done_ns=1000.5)
    fields.update(overrides)
    return RpcCompletion(**fields)


@pytest.mark.parametrize("record", [sample_call(), sample_completion()])
def test_records_are_immutable(record):
    with pytest.raises(AttributeError):
        record.req_bytes = 1
    with pytest.raises(AttributeError):
        record.method = "m0"


@pytest.mark.parametrize("make", [sample_call, sample_completion])
def test_records_with_equal_fields_are_equal_and_hash_equal(make):
    a, b = make(), make()
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert make(req_id=8) != a


def test_record_defaults_and_latency():
    assert sample_call().priority is False
    assert sample_call(priority=True).priority is True
    done = sample_completion()
    assert done.latency_ns == 1000.5 - 250.0


def test_record_field_order_and_repr():
    assert RpcCall._fields == (
        "req_id", "rank", "issue_ns", "req_bytes", "resp_bytes", "method", "priority",
    )
    assert RpcCompletion._fields == (
        "req_id", "rank", "req_bytes", "resp_bytes", "method", "issue_ns", "done_ns",
    )
    assert repr(sample_call()) == (
        "RpcCall(req_id=7, rank=1, issue_ns=250.0, req_bytes=64, "
        "resp_bytes=128, method='m3', priority=False)"
    )
    assert not dataclasses.is_dataclass(sample_call())
    assert not dataclasses.is_dataclass(sample_completion())


@pytest.mark.parametrize("record", [sample_call(priority=True), sample_completion()])
def test_records_survive_a_pickle_round_trip(record):
    clone = pickle.loads(pickle.dumps(record))
    assert clone == record
    assert type(clone) is type(record)


def report_with_latencies(latencies):
    completions = [
        sample_completion(req_id=i, issue_ns=0.0, done_ns=float(lat))
        for i, lat in enumerate(latencies)
    ]
    return RpcReport(run=None, completions=completions, offered=len(completions),
                     duration_ns=1.0, digest="", dispatcher=None)


def test_latency_percentile_interpolates_and_rejects_out_of_range():
    report = report_with_latencies(range(100, 0, -10))  # 10 .. 100 ns
    assert report.latency_percentile(0) == 10.0
    assert report.latency_percentile(50) == 55.0
    assert report.latency_percentile(100) == 100.0
    for p in (-50, -0.001, 100.001, 150):
        with pytest.raises(ValueError):
            report.latency_percentile(p)


def test_latency_percentile_of_an_empty_report():
    report = report_with_latencies([])
    assert report.latency_percentile(50) == 0.0
    with pytest.raises(ValueError):
        report.latency_percentile(150)


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
    system.obs.enabled = True
    report = run_rpc(system, golden_trace(ranks=(0, 1)))
    assert report.completed == 100 and report.duration_ns > 0
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


def test_run_rpc_hands_its_completions_to_the_report():
    system = vdma_system()
    dispatcher = install_rpc(system, RpcParams())
    first = run_rpc(system, burst(64, 3, rank=0), dispatcher=dispatcher)
    assert dispatcher.completions == []
    second = run_rpc(system, burst(64, 2, rank=1), dispatcher=dispatcher)
    assert dispatcher.completions == []
    assert sorted(c.req_id for c in first.completions) == [0, 1, 2]
    assert sorted(c.req_id for c in second.completions) == [1_000_000, 1_000_001]


# -- the server ----------------------------------------------------------------

#: Measured on the daemon-process server this one replaced: a fixed run
#: (``golden_trace`` on ranks 0 and 48) keeps its event stream, its
#: per-source event count and its final clock, and spawns one process
#: fewer.
SERVER_PINS = {
    "events_fused": 532.0,
    "events_unfused": 746.0,
    "server_events": 195.0,
    "now_ns": 424480.95421566186,
    "spawned_with_daemon": 155.0,
}


def test_server_keeps_the_event_stream(fuse):
    system = VSCCSystem(num_devices=2, policy=ThresholdPolicy(), seed=7)
    spawned = system.sim.metrics_snapshot()["sim.processes_spawned"]
    dispatcher = install_rpc(system, RpcParams())
    # Building the dispatcher spawns no process.
    assert system.sim.metrics_snapshot()["sim.processes_spawned"] == spawned
    report = run_rpc(system, golden_trace(ranks=(0, 48)), dispatcher=dispatcher)
    assert report.completed == 100
    snap = system.sim.metrics_snapshot()
    events = SERVER_PINS["events_fused" if fuse else "events_unfused"]
    assert snap["sim.events"] == events
    assert snap["kernel.events{source=daemon:rpc-server}"] == SERVER_PINS["server_events"]
    assert system.sim.now == SERVER_PINS["now_ns"]
    assert snap["sim.processes_spawned"] == SERVER_PINS["spawned_with_daemon"] - 1
    assert snap["sim.processes_live"] == 0.0


def serve_order(system):
    """``(instant, resp_bytes)`` of every response pushed, in push order.

    Needs ``batch_bytes`` below one response, so that each push flushes
    alone and its trace record names the response by its size.
    """
    return [
        (r.t, r.payload[4] - REQUEST_BYTES)
        for r in system.sim.tracer.select("rpc")
        if r.payload[1] == "flush"
    ]


def deliver_at(system, dispatcher, descriptors):
    """Hand ``dispatcher`` each ``(instant, calls)`` descriptor directly."""
    for when, calls in descriptors:
        system.sim.call_at(when, lambda calls=calls: dispatcher.receive(0, calls))


def assert_served_back_to_back(order, params):
    """Each push lands one full marshalling cost after the previous one."""
    t = 0.0
    for instant, size in order:
        t = t + (params.serialize_floor_ns + params.serialize_ns_per_byte * size)
        assert instant == t


def call_of(req_id, resp_bytes, method=None):
    return RpcCall(req_id, 0, 0.0, 64, resp_bytes, method or f"m{req_id}")


def test_descriptors_arriving_mid_call_are_served_fifo_after_it(fuse):
    system = vdma_system()
    system.sim.tracer.enable("rpc")
    params = RpcParams(cache=False, batch_bytes=1)
    dispatcher = install_rpc(system, params)
    # The first call serializes from 0 to 1600 ns. Two descriptors land
    # together at 100 ns and one more at 900 ns, all while it runs.
    deliver_at(system, dispatcher, [
        (0.0, [call_of(0, 4000)]),
        (100.0, [call_of(1, 100), call_of(2, 200)]),
        (100.0, [call_of(3, 300)]),
        (900.0, [call_of(4, 400)]),
    ])
    system.sim.run()
    order = serve_order(system)
    assert [size for _, size in order] == [4000, 100, 200, 300, 400]
    assert_served_back_to_back(order, params)


def test_cache_off_charges_the_full_cost_for_every_call(fuse):
    system = vdma_system()
    system.sim.tracer.enable("rpc")
    params = RpcParams(cache=False, batch_bytes=1)
    dispatcher = install_rpc(system, params)
    # One method throughout: with the cache on, every repeat would hit.
    calls = [call_of(i, 64 * (i + 1), method="m0") for i in range(4)]
    deliver_at(system, dispatcher, [(0.0, calls[:2]), (10.0, calls[2:])])
    system.sim.run()
    order = serve_order(system)
    assert [size for _, size in order] == [64, 128, 192, 256]
    assert_served_back_to_back(order, params)
    assert dispatcher.cache.hits == dispatcher.cache.misses == 0


def test_client_whose_responses_never_come_is_named_in_the_deadlock(fuse):
    system = vdma_system()
    dispatcher = install_rpc(system, RpcParams())
    dispatcher.expect(0, 1)  # one response more than rank 0 will issue
    calls = burst(64, 2, rank=0) + burst(64, 2, rank=1)
    with pytest.raises(DeadlockError) as info:
        run_rpc(system, calls, dispatcher=dispatcher)
    assert info.value.waiting == ["rank0"]
