"""RPC-offload workload family: the host comm-task as an RPC accelerator.

RPCAcc (PAPERS.md) reframes a PCIe-attached engine as an RPC
accelerator — serialization, dispatch and response queuing offloaded
next to the link. The paper's host communication task is structurally
the same box, and this module makes that reading concrete: ranks issue
open-loop request/response exchanges against a host-side
:class:`RpcDispatcher` that

* **coalesces requests** — adjacent small requests that the
  :class:`~repro.vscc.policy.SchemePolicy` maps onto the vDMA scheme
  are batched into one descriptor, paying the per-descriptor engine
  setup (``vdma_setup_ns``) once instead of per request. Coalescing is
  strictly order-preserving and never crosses a priority (sync-lane)
  request — a priority call is a barrier, submitted alone through the
  scheduler's sync lane (the ``sync_bypass`` counter of
  :class:`repro.host.commtask.HostRequestScheduler` shows it overtaking
  in-flight bulk work);
* **batches responses** — completions accumulate per rank and flush
  when the batch reaches ``batch_bytes`` *or* a configurable flush
  deadline expires (the classic throughput/latency knob of response
  queuing), riding one ``route_down`` post per flush;
* **caches serializations** — an optional host-side cache over response
  serialization state, reusing the :mod:`repro.host.softcache`
  accounting idiom (hits / misses / evictions): a hit charges
  ``cache_hit_ns`` instead of the full per-byte marshalling cost.

**Coherence caveat** (DESIGN.md §15): the serialization cache trades
freshness for marshalling cost exactly like the MPB software cache
trades it for PCIe round trips, but it has no coherence action at all:
an entry (keyed by method name) stays valid until LRU evicts it. The
model assumes a method's serialization state never changes within a
run; a workload that mutates it would need a coherence protocol first.

The client side is **open-loop** (:mod:`repro.bench.arrivals`): request
*i* goes out at its arrival instant whether or not earlier responses
came back, so backlog forms under load — which is precisely where
coalescing finds adjacent small requests to merge.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence

from repro.bench.arrivals import RpcCall
from repro.host.commtask import REQUEST_BYTES
from repro.obs.metrics import percentile
from repro.results import RunResult
from repro.scc.params import CACHE_LINE
from repro.sim.engine import _LIVE
from repro.vscc.policy import Route
from repro.vscc.schemes import CommScheme

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.vscc.system import VSCCSystem

__all__ = [
    "RpcCompletion",
    "RpcDispatcher",
    "RpcParams",
    "RpcReport",
    "SerializationCache",
    "install_rpc",
    "outcome_digest",
    "run_rpc",
]

@dataclass(frozen=True)
class RpcParams:
    """Dispatcher and client knobs of one RPC session."""

    #: Requests at or below this ride the coalescible descriptor path
    #: (when the policy maps them onto the vDMA scheme).
    coalesce_bytes: int = 128
    #: Hard cap of requests per coalesced descriptor.
    coalesce_max: int = 8
    #: Response-batch flush capacity per rank (bytes incl. headers).
    batch_bytes: int = 1536
    #: Deadline after the first response enters a batch (ns); expiry
    #: flushes whatever accumulated.
    flush_deadline_ns: float = 20_000.0
    #: Enable the host-side serialization cache.
    cache: bool = True
    #: LRU capacity of the serialization cache (distinct methods).
    cache_capacity: int = 64
    #: Response marshalling cost on a cache miss: floor + per-byte.
    serialize_floor_ns: float = 600.0
    serialize_ns_per_byte: float = 0.25
    #: Marshalling cost on a cache hit (template reuse).
    cache_hit_ns: float = 150.0
    #: Host the dispatcher lives on (index into ``system.hosts``).
    home_host: int = 0

    def __post_init__(self) -> None:
        if self.coalesce_bytes < 0:
            raise ValueError(f"coalesce_bytes must be >= 0, got {self.coalesce_bytes}")
        if self.coalesce_max < 1:
            raise ValueError(f"coalesce_max must be >= 1, got {self.coalesce_max}")
        if self.batch_bytes < 1:
            raise ValueError(f"batch_bytes must be >= 1, got {self.batch_bytes}")
        if self.flush_deadline_ns < 0:
            raise ValueError("flush_deadline_ns must be non-negative")
        if self.cache_capacity < 1:
            raise ValueError(f"cache_capacity must be >= 1, got {self.cache_capacity}")
        for name in ("serialize_floor_ns", "serialize_ns_per_byte", "cache_hit_ns"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


class RpcCompletion(NamedTuple):
    """One delivered response, recorded at arrival on the client device.

    A NamedTuple like :class:`RpcCall`: one is built per response.
    """

    req_id: int
    rank: int
    req_bytes: int
    resp_bytes: int
    method: str
    issue_ns: float
    done_ns: float

    @property
    def latency_ns(self) -> float:
        return self.done_ns - self.issue_ns


class SerializationCache:
    """LRU cache over per-method response serialization state.

    The :class:`repro.host.softcache.HostMpbCache` accounting idiom,
    applied to marshalling instead of MPB lines: ``hits`` /
    ``misses`` / ``evictions`` are always-on plain counters (see the
    module docstring's coherence caveat).
    """

    __slots__ = ("capacity", "_entries", "hits", "misses", "evictions")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[str, None] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, key: str) -> bool:
        """Hit test; a hit refreshes LRU order, a miss inserts the key."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = None
        return False


class _RankBatch:
    """Per-rank response accumulator with capacity/deadline flushing.

    The deadline callback and its timer name are built once per rank,
    not once per batch.
    """

    __slots__ = ("items", "nbytes", "timer", "on_deadline", "timer_name")

    def __init__(self, dispatcher: "RpcDispatcher", rank: int) -> None:
        self.items: list[tuple[RpcCall, float]] = []
        self.nbytes = 0
        self.timer = None
        self.on_deadline = lambda: dispatcher._flush(rank, "deadline")
        self.timer_name = f"rpc-flush{rank}"


class _Server:
    """The dispatcher's serialization pipeline as one kernel record.

    Like the kernel's callback and timer records (DESIGN.md §7) it is its
    own queue entry (``done``, ``_source``, ``_step``), so a wake costs
    one queue slot and no generator resume. Descriptors wait in a FIFO;
    each wake pushes the response of the call just serialized, takes up
    the next call (same descriptor, else the next pending one, else goes
    idle) and queues its own next wake that call's marshalling cost
    later. Every wake goes through :meth:`Simulator.schedule`, fused and
    unfused alike, so the record keeps the event stream of the server
    process it replaced (DESIGN.md §15).
    """

    __slots__ = ("dispatcher", "sim", "pending", "calls", "index", "idle", "_source")

    #: The kernel's ``done`` of a pending record: the server never ends.
    done = _LIVE

    def __init__(self, dispatcher: "RpcDispatcher") -> None:
        self.dispatcher = dispatcher
        self.sim = sim = dispatcher.sim
        self.pending: deque[tuple[RpcCall, ...]] = deque()
        #: The descriptor being served and the index of the call after
        #: the one serializing now.
        self.calls: tuple[RpcCall, ...] = ()
        self.index = 0
        self.idle = False
        self._source = sim._source_of("daemon:rpc-server")
        # The first wake finds nothing to serve and goes idle. It takes
        # the slot, and the event, of the replaced process's start.
        sim.schedule(0.0, self, None)

    def receive(self, calls: tuple[RpcCall, ...]) -> None:
        self.pending.append(calls)
        if self.idle:
            self.idle = False
            self.sim.schedule(0.0, self, None)

    def _step(self, payload) -> None:
        dispatcher = self.dispatcher
        calls = self.calls
        index = self.index
        if index:
            dispatcher._push_response(calls[index - 1])
        if index == len(calls):
            if not self.pending:
                self.calls = ()
                self.index = 0
                self.idle = True
                return
            calls = self.calls = self.pending.popleft()
            index = 0
        call = calls[index]
        self.index = index + 1
        params = dispatcher.params
        if params.cache and dispatcher.cache.lookup(call.method):
            delay = params.cache_hit_ns
        else:
            delay = params.serialize_floor_ns + params.serialize_ns_per_byte * call.resp_bytes
        self.sim.schedule(delay, self, None)


class RpcDispatcher:
    """Host-side RPC engine: one serialization pipeline per system.

    Requests arrive as descriptors (one or more coalesced calls) on the
    home host; a single server (:class:`_Server`) drains them in arrival
    order — one pipeline, so per-rank issue order is preserved end to
    end — charges marshalling (cache-aware) per response, and hands
    completions to the per-rank response batchers.
    """

    def __init__(self, system: "VSCCSystem", params: Optional[RpcParams] = None):
        self.params = params or RpcParams()
        if not 0 <= self.params.home_host < len(system.hosts):
            raise ValueError(
                f"home_host {self.params.home_host} outside "
                f"0..{len(system.hosts) - 1}"
            )
        self.system = system
        self.sim = system.sim
        self.host = system.hosts[self.params.home_host]
        self.selector = system.selector
        self.policy = system.policy
        self.layout = system.layout
        #: Anchor device of the home host (routes terminate at the host
        #: boundary; the anchor pins the policy's route key).
        self.home_device = min(self.host.devices)
        self.cache = SerializationCache(self.params.cache_capacity)
        self._batches: dict[int, _RankBatch] = {}
        #: Per-rank expected/delivered completion counts + done events.
        self._expected: dict[int, int] = {}
        self._delivered: dict[int, int] = {}
        self._done_events: dict[int, object] = {}
        #: Completions delivered since the last :func:`run_rpc` took its
        #: own, in arrival order; ``run_rpc`` hands them to its report.
        self.completions: list[RpcCompletion] = []
        #: In-flight decisions, popped at delivery to feed ``observe``.
        self._inflight_schemes: dict[int, CommScheme] = {}
        # Always-on plain counters (softcache idiom).
        self.requests = 0
        self.responses = 0
        self.descriptors = 0
        self.coalesced = 0
        self.flushes_full = 0
        self.flushes_deadline = 0
        self.priority_submits = 0
        self._routes: dict[int, Route] = {}
        # Created on first delivery with obs enabled — instrument
        # creation registers the series eagerly, and an obs-off run's
        # snapshot must not grow empty rpc.latency_ns rows.
        self._latency_hist = None
        self._server = _Server(self)

    # -- client-side hooks ------------------------------------------------------

    def route_for(self, device_id: int) -> Route:
        """The policy route of one client device toward the service."""
        route = self._routes.get(device_id)
        if route is None:
            dev_host = self.host.host_for(device_id)
            payload = self.system.params.mpb_payload_bytes
            user = -(-self.system.options.user_mpb_bytes // CACHE_LINE) * CACHE_LINE
            route = Route(
                src_device=device_id,
                dst_device=self.home_device,
                chunk_bytes=payload - user,
                src_host=dev_host.host_id,
                dst_host=self.host.host_id,
            )
            self._routes[device_id] = route
        return route

    def decide(self, call: RpcCall, route: Route) -> CommScheme:
        """Journaled per-RPC scheme decision (policy layer).

        Counts into the selector's ``policy.decisions{scheme=}`` series
        — the same journal surface the message layer uses.
        """
        scheme = self.selector.decide_rpc(call.rank, call.req_bytes, route)
        if self.policy.wants_feedback:
            self._inflight_schemes[call.req_id] = scheme
        return scheme

    def coalescible(self, call: RpcCall, route: Route) -> bool:
        """Whether this request may share a vDMA descriptor.

        Priority calls are barriers (sync lane, never coalesced);
        otherwise the policy's scheme decision rules: only requests it
        maps onto the vDMA scheme at or below ``coalesce_bytes`` merge.
        """
        if call.priority or call.req_bytes > self.params.coalesce_bytes:
            self.decide(call, route)
            return False
        return self.decide(call, route) is CommScheme.LOCAL_PUT_LOCAL_GET_VDMA

    def expect(self, rank: int, count: int) -> None:
        """Arm the per-rank completion accounting before a run."""
        self._expected[rank] = self._expected.get(rank, 0) + count

    def done_event(self, rank: int):
        event = self._done_events.get(rank)
        if event is None:
            event = self._done_events[rank] = self.sim.event(name=f"rpc.done{rank}")
        return event

    # -- server side ------------------------------------------------------------

    def receive(self, src_device: int, calls: Sequence[RpcCall]) -> None:
        """Descriptor arrival on the home host (up-link ``on_arrival``)."""
        self.descriptors += 1
        self.requests += len(calls)
        if len(calls) > 1:
            self.coalesced += len(calls)
        if calls[0].priority:
            self.priority_submits += 1
        tracer = self.sim.tracer
        if tracer.wants("rpc"):
            tracer.emit(
                self.sim.now, "rpc", src_device, "descriptor",
                len(calls), sum(c.req_bytes for c in calls),
            )
        self._server.receive(tuple(calls))

    def _push_response(self, call: RpcCall) -> None:
        params = self.params
        rank = call.rank
        batch = self._batches.get(rank)
        if batch is None:
            batch = self._batches[rank] = _RankBatch(self, rank)
        batch.items.append((call, self.sim.now))
        batch.nbytes += call.resp_bytes + REQUEST_BYTES
        self.responses += 1
        if batch.nbytes >= params.batch_bytes:
            self._flush(rank, "full")
        elif batch.timer is None:
            batch.timer = self.sim.after(
                params.flush_deadline_ns, batch.on_deadline, name=batch.timer_name
            )

    def _flush(self, rank: int, cause: str) -> None:
        batch = self._batches.get(rank)
        if batch is None or not batch.items:
            return
        if batch.timer is not None:
            batch.timer.cancel()
            batch.timer = None
        items, nbytes = batch.items, batch.nbytes
        batch.items, batch.nbytes = [], 0
        if cause == "full":
            self.flushes_full += 1
        else:
            self.flushes_deadline += 1
        dst_device = self.layout.placement(rank)[0]
        tracer = self.sim.tracer
        if tracer.wants("rpc"):
            tracer.emit(
                self.sim.now, "rpc", dst_device, "flush",
                cause, len(items), nbytes,
            )
        calls = [call for call, _served in items]

        def deliver() -> None:
            now = self.sim.now
            for c in calls:
                self.completions.append(
                    RpcCompletion(
                        req_id=c.req_id, rank=c.rank, req_bytes=c.req_bytes,
                        resp_bytes=c.resp_bytes, method=c.method,
                        issue_ns=c.issue_ns, done_ns=now,
                    )
                )
                if self.sim.obs.enabled:
                    if self._latency_hist is None:
                        self._latency_hist = self.sim.obs.histogram("rpc.latency_ns")
                    self._latency_hist.observe(now - c.issue_ns)
                if self.policy.wants_feedback:
                    scheme = self._inflight_schemes.pop(c.req_id, None)
                    if scheme is not None:
                        self.policy.observe(
                            self.route_for(self.layout.placement(c.rank)[0]),
                            scheme,
                            c.req_bytes + c.resp_bytes,
                            now - c.issue_ns,
                        )
            delivered = self._delivered.get(rank, 0) + len(calls)
            self._delivered[rank] = delivered
            if delivered >= self._expected.get(rank, 0):
                event = self.done_event(rank)
                if not event.triggered:
                    event.trigger(delivered)

        self.host.route_down(
            dst_device,
            nbytes,
            on_arrival=deliver,
            extra_overhead_ns=self.host.params.service_ns,
            owner=self.policy.cross_host_affinity,
        )

    # -- export -----------------------------------------------------------------

    def metrics_snapshot(self) -> dict[str, float]:
        out = {
            "rpc.requests": float(self.requests),
            "rpc.responses": float(self.responses),
            "rpc.descriptors": float(self.descriptors),
            "rpc.coalesced_requests": float(self.coalesced),
            "rpc.priority_submits": float(self.priority_submits),
            "rpc.flushes{cause=full}": float(self.flushes_full),
            "rpc.flushes{cause=deadline}": float(self.flushes_deadline),
        }
        # Cache series only when the cache is in play — snapshots of
        # cache-off runs stay byte-stable (the softcache peer_drops
        # precedent for conditionally emitted series).
        if self.params.cache:
            out["rpc.cache.hits"] = float(self.cache.hits)
            out["rpc.cache.misses"] = float(self.cache.misses)
            out["rpc.cache.evictions"] = float(self.cache.evictions)
        return out


def install_rpc(
    system: "VSCCSystem", params: Optional[RpcParams] = None
) -> RpcDispatcher:
    """Build a dispatcher on ``system`` and wire it into ``system.metrics``."""
    dispatcher = RpcDispatcher(system, params)
    system.rpc_dispatchers.append(dispatcher)
    return dispatcher


# -- the open-loop client --------------------------------------------------------


def _client_program(dispatcher: RpcDispatcher, by_rank: dict[int, list[RpcCall]]):
    """Open-loop issuing loop of one rank, then wait for its responses.

    ``by_rank`` maps each client rank to its calls in issue order.

    Requests go out at their arrival instants; the loop blocks only on
    submission cost, never on responses. Whenever submission overruns
    the arrival process (backlog), every *adjacent* coalescible request
    already due is merged into the in-flight descriptor — up to
    ``coalesce_max`` — so coalescing emerges exactly under the load
    that needs it. A priority call is never merged and never reordered:
    batches are contiguous runs of the issue sequence, full stop.
    """
    params = dispatcher.params

    def factory(comm):
        mine = by_rank[comm.rank]
        env = comm.env
        task = env.device.fabric
        route = dispatcher.route_for(env.device.device_id)
        sim = env.sim
        issued = 0
        i = 0
        n = len(mine)
        # True when the merge loop already decided mine[i] and rejected
        # it: that call then goes alone, and is not decided a second time.
        rejected = False
        while i < n:
            call = mine[i]
            if call.issue_ns > sim.now:
                yield call.issue_ns - sim.now
            batch = [call]
            merged = not rejected and dispatcher.coalescible(call, route)
            rejected = False
            i += 1
            if merged:
                while (
                    i < n
                    and len(batch) < params.coalesce_max
                    and mine[i].issue_ns <= sim.now
                ):
                    if not dispatcher.coalescible(mine[i], route):
                        rejected = True
                        break
                    batch.append(mine[i])
                    i += 1
            yield from task.rpc_submit(env, batch, dispatcher, pay_setup=merged)
            issued += len(batch)
        if issued:
            done = dispatcher.done_event(comm.rank)
            if not done.triggered:
                yield done
        return {"rank": comm.rank, "issued": issued}

    return factory


@dataclass
class RpcReport:
    """Outcome of one :func:`run_rpc` drive: run + latency statistics."""

    run: RunResult
    completions: list[RpcCompletion]
    offered: int
    duration_ns: float
    digest: str
    dispatcher: RpcDispatcher = field(repr=False)

    @property
    def completed(self) -> int:
        return len(self.completions)

    def latency_percentile(self, p: float) -> float:
        """Exact latency percentile (ns), ``p`` in [0, 100]; 0.0 when
        nothing completed."""
        lats = sorted(c.latency_ns for c in self.completions)
        return percentile(lats or (0.0,), p)


def outcome_digest(completions: Iterable[RpcCompletion]) -> str:
    """16-hex digest over the semantic outcome (exactly-once content).

    Only delivery-invariant fields enter — request identity, sizes,
    method — never timing, so the digest is identical across kernel
    backends, delay fusion, host affinity, and fault replays that
    retransmit their way to the same exactly-once delivery.
    """
    rows = sorted(
        (c.req_id, c.rank, c.req_bytes, c.resp_bytes, c.method)
        for c in completions
    )
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def run_rpc(
    system: "VSCCSystem",
    calls: Sequence[RpcCall],
    params: Optional[RpcParams] = None,
    dispatcher: Optional[RpcDispatcher] = None,
) -> RpcReport:
    """Drive an open-loop RPC trace through ``system`` and report.

    Builds (or reuses) a dispatcher, runs one client program per rank
    appearing in ``calls``, waits for every response, and returns the
    :class:`RpcReport` with throughput, latency percentiles and the
    semantic outcome digest.
    """
    if dispatcher is None:
        dispatcher = install_rpc(system, params)
    by_rank: dict[int, list[RpcCall]] = {}
    for call in calls:
        by_rank.setdefault(call.rank, []).append(call)
    ranks = sorted(by_rank)
    if not ranks:
        raise ValueError("run_rpc needs at least one call")
    for rank in ranks:
        if not 0 <= rank < system.num_ranks:
            raise ValueError(f"rank {rank} outside 0..{system.num_ranks - 1}")
        mine = by_rank[rank]
        mine.sort(key=lambda c: (c.issue_ns, c.req_id))
        dispatcher.expect(rank, len(mine))
    first = len(dispatcher.completions)
    start_ns = system.sim.now
    run = system.run(_client_program(dispatcher, by_rank), ranks=ranks)
    # The report owns its run's completions: a dropped system lingers as
    # cyclic garbage until a full collection, and must not keep them.
    completions = dispatcher.completions[first:]
    del dispatcher.completions[first:]
    duration = system.sim.now - start_ns
    return RpcReport(
        run=run,
        completions=completions,
        offered=len(calls),
        duration_ns=duration,
        digest=outcome_digest(completions),
        dispatcher=dispatcher,
    )
