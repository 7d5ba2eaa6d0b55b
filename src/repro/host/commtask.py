"""The communication task: host-side daemon serving one device.

"For our prototype, the communication task has been implemented as an
extension of a background process, also called daemon, of the device
driver … Because the host is connected to multiple devices, our
communication task consists of multiple threads on kernel level" (§3.2).

One :class:`CommunicationTask` per device is that device's interconnect
fabric (``SCCDevice.fabric``): every access a
:class:`repro.scc.core.CoreEnv` makes off the die enters through one of
its entry points. Registration lets the task "classify incoming requests
and handle them in a different way" (§3.1), so each entry point
classifies its request once, against the region registry (flag / buffer
/ unregistered) and the host's feature configuration, and dispatches:

==========================  =========================================
access                      path
==========================  =========================================
buffer read, extensions     software cache + push stream (Fig 4b)
other read                  per-line routed round trips [13]
write, fast-ack cable       FPGA-acked streaming (hw upper bound)
buffer write, extensions    host write-combining stream (Fig 4c)
other write                 per-line routed round trips
flag write                  immediate-ack fast path (or routed)
direct write                FPGA-acked posted burst (§3.3)
MMIO                        register bank of this device's task
==========================  =========================================

Flag reads are "other reads": they bypass every host buffer. Per-request
checks (the quarantine fail-fast of a severed route) run once, at the
entry point, before any path is taken.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional, Union

import numpy as np

from repro.scc.mpb import MpbAddr, as_u8

from .mmio import (
    MmioBank,
    REG_CACHE_INV,
    REG_MSG_ADDR,
    REG_MSG_COUNT,
    REG_MSG_CTRL,
)
from .regions import RegionKind
from .wcbuf import HostWriteCombiner

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.scc.core import CoreEnv

    from .driver import Host

__all__ = ["CommunicationTask", "HostRequestScheduler"]

Bytes = Union[bytes, bytearray, np.ndarray]

#: Size of a routed request header packet on the wire (bytes).
REQUEST_BYTES = 16
#: A routed 32 B payload packet including header (bytes).
LINE_PACKET_BYTES = 48
#: Lines charged per simulator event when coarsening transparent
#: transfers (a blocking reader serializes them anyway). Also the batch
#: the SIF forwards as one routed packet on the fast-ack write path.
COARSEN_LINES = 60


class _Lane:
    """Counters of one scheduler lane: requests, bytes, in-flight depth."""

    __slots__ = ("name", "requests", "bytes", "depth")

    def __init__(self, name: str):
        self.name = name
        self.requests = 0
        self.bytes = 0
        self.depth = 0


class HostRequestScheduler:
    """Unified request scheduler of one communication task.

    §3.1/§3.2: registration lets the task "classify incoming requests
    and handle them in a different way". The task's entry points
    classify; the scheduler is where that classification becomes a
    lane — every request entering the task is admitted onto one of:

    * ``sync`` — accesses to registered FLAG regions (and the dedicated
      flag fast path). Synchronization traffic rides *ahead* of bulk:
      flag writes are fast-acknowledged and forwarded posted, never
      queued behind a write-combining stream (only the matching-core
      fence orders a flag behind its own payload), and flag reads bypass
      every host buffer. ``sync_bypass`` counts the sync requests that
      were admitted while bulk work was in flight on this device — the
      priority lane actually overtaking.
    * ``bulk`` — registered BUFFER (and unregistered) data movement:
      write-combining streams, direct small writes, transparent routing.
    * ``ctrl`` — MMIO register traffic programming the task itself.

    Every request pairs one :meth:`admit` with one :meth:`complete` on
    its lane. Per-lane request/byte counters are always on; each lane's
    in-flight ``depth`` decides ``sync_bypass``.

    **vDMA descriptor coalescing.** When the host runs a dynamic
    communication policy (``host.sched_coalesce``), a vDMA descriptor
    programmed while another copy to the *same destination device* is
    still in flight is chained onto that engine pass instead of paying
    the per-descriptor engine startup (``vdma_setup_ns``) again — one
    host copy loop serving back-to-back descriptors for the route.
    Static-scheme runs keep the flag off, so their timing stays
    bit-identical to the pre-scheduler code.
    """

    #: Lane names; each is also a :class:`_Lane` attribute of the
    #: scheduler (``sched.sync`` …). ``rpc`` carries the request/response
    #: descriptors of the RPC dispatch path (:mod:`repro.apps.rpc`). It
    #: is a fourth classification, not a reprioritization: RPC
    #: descriptors are bulk-class data movement, but dispatch wants its
    #: own depth/byte series — and priority RPCs deliberately ride
    #: ``sync`` instead (they are the ``sync_bypass`` traffic of an RPC
    #: run).
    LANES = ("sync", "bulk", "ctrl", "rpc")

    __slots__ = (
        "task", "host", "device_id", "lanes", "sync", "bulk", "ctrl", "rpc",
        "sync_bypass", "coalesced_vdma", "_vdma_inflight",
    )

    def __init__(self, task: "CommunicationTask"):
        self.task = task
        self.host = task.host
        self.device_id = task.device_id
        self.lanes = tuple(_Lane(name) for name in self.LANES)
        self.sync, self.bulk, self.ctrl, self.rpc = self.lanes
        #: Sync-lane admissions that overtook in-flight bulk work.
        self.sync_bypass = 0
        #: vDMA descriptors chained onto an in-flight same-route copy.
        self.coalesced_vdma = 0
        #: In-flight vDMA copies per destination device (the route key).
        self._vdma_inflight: dict[int, int] = {}

    # -- lane admission (one admit/complete pair per host request) -------------

    def admit(self, lane: "_Lane", nbytes: int) -> None:
        lane.requests += 1
        lane.bytes += nbytes
        # The rpc lane is idle outside RPC runs, so legacy traffic counts
        # bypasses exactly as before the rpc lane existed.
        if lane is self.sync and (self.bulk.depth or self.rpc.depth):
            self.sync_bypass += 1
        lane.depth += 1

    def complete(self, lane: "_Lane") -> None:
        lane.depth -= 1

    # -- vDMA route coalescing -----------------------------------------------------

    def vdma_admit(self, dst_device: int, copy_id: int) -> bool:
        """Whether this descriptor chains onto an in-flight route copy."""
        if not self.host.sched_coalesce:
            return False
        if self._vdma_inflight.get(dst_device, 0) <= 0:
            return False
        self.coalesced_vdma += 1
        tracer = self.task.sim.tracer
        if tracer.wants("sched"):
            tracer.emit(
                self.task.sim.now, "sched", self.device_id,
                "vdma_coalesced", copy_id, dst_device,
            )
        return True

    def vdma_begin(self, dst_device: int) -> None:
        self._vdma_inflight[dst_device] = self._vdma_inflight.get(dst_device, 0) + 1

    def vdma_end(self, dst_device: int) -> None:
        self._vdma_inflight[dst_device] -= 1

    # -- export --------------------------------------------------------------------

    def metrics_snapshot(self) -> dict[str, float]:
        d = self.device_id
        out: dict[str, float] = {}
        for lane in self.lanes:
            # The rpc lane exists only on devices that ran RPC traffic,
            # so every pre-RPC snapshot stays byte-stable.
            if lane is self.rpc and not lane.requests:
                continue
            out[f"sched.requests{{device={d},lane={lane.name}}}"] = float(
                lane.requests
            )
            out[f"sched.bytes{{device={d},lane={lane.name}}}"] = float(lane.bytes)
        out[f"sched.sync_bypass{{device={d}}}"] = float(self.sync_bypass)
        out[f"sched.coalesced{{device={d}}}"] = float(self.coalesced_vdma)
        return out


class CommunicationTask:
    """Host-side thread of one attached device, and that device's fabric."""

    def __init__(self, host: "Host", device_id: int):
        self.host = host
        self.sim = host.sim
        self.device_id = device_id
        #: This device's PCIe cable (fixed for the host's lifetime).
        self.cable = host.cables[device_id]
        self.mmio = MmioBank(device_id)
        #: Write-combining streams keyed by source core id.
        self._combiners: dict[int, HostWriteCombiner] = {}
        #: Cores whose wcb_open announce has been *issued* (the open
        #: itself fires at MMIO arrival, strictly before the data).
        self._wcb_expected: dict[int, bool] = {}
        self.routed_reads = 0
        self.routed_writes = 0
        self.flag_forwards = 0
        #: Totals of write-combining streams already replaced by a newer
        #: announce (live streams are summed on top at snapshot time).
        self._wcb_retired_bytes = 0
        self._wcb_retired_flushes = 0
        #: Routed line round-trip time per target device — the
        #: cable/host parameters are immutable, so compute once.
        self._rtt_cache: dict[int, float] = {}
        #: Unified request scheduler (classification lanes + coalescing).
        self.sched = HostRequestScheduler(self)
        self._wire_msg_handlers()

    def metrics_snapshot(self) -> dict[str, float]:
        """Per-device request-handling series of this host thread."""
        d = self.device_id
        wcb_bytes = float(self._wcb_retired_bytes)
        wcb_flushes = float(self._wcb_retired_flushes)
        for combiner in self._combiners.values():
            wcb_bytes += combiner.bytes_combined
            wcb_flushes += combiner.flushes
        out = {
            f"commtask.routed_reads{{device={d}}}": float(self.routed_reads),
            f"commtask.routed_writes{{device={d}}}": float(self.routed_writes),
            f"commtask.flag_forwards{{device={d}}}": float(self.flag_forwards),
            f"wcbuf.bytes_combined{{device={d}}}": wcb_bytes,
            f"wcbuf.flushes{{device={d}}}": wcb_flushes,
        }
        out.update(self.sched.metrics_snapshot())
        return out

    # -- entry points (one per off-die request) ------------------------------------

    def remote_read(self, env: "CoreEnv", addr: MpbAddr, length: int) -> Generator:
        """Off-die read of ``length`` bytes; returns an ndarray."""
        self._check_route(addr.device)
        host = self.host
        kind = host.regions.classify(addr, length)
        if host.extensions_enabled and kind is RegionKind.BUFFER:
            data = yield from host.cache.serve(env, addr, length)
            return data
        # Flag reads bypass all host buffers (forwarded without caching,
        # §3.1); unregistered spans and transparent mode are routed.
        data = yield from self._routed(env, addr, kind, length)
        return data

    def remote_write(self, env: "CoreEnv", addr: MpbAddr, data: Bytes) -> Generator:
        """Off-die write of ``data``."""
        self._check_route(addr.device)
        payload = as_u8(data)
        length = len(payload)
        if self.cable.fast_write_ack:
            yield from self._streamed(env, addr, payload, via_host_wcb=False)
            return
        if self.streams_via_host_wcb(addr, length):
            yield from self._streamed(env, addr, payload, via_host_wcb=True)
            return
        kind = self.host.regions.classify(addr, length)
        yield from self._routed(env, addr, kind, length, payload)

    def streams_via_host_wcb(self, addr: MpbAddr, length: int) -> bool:
        """Whether :meth:`remote_write` of ``length`` bytes at ``addr``
        rides a host write-combining stream, which the writer must open
        first (:meth:`wcb_open`): the vSCC extensions are on, the cable
        has no FPGA write-ack and the span is a registered buffer."""
        host = self.host
        return (
            not self.cable.fast_write_ack
            and host.extensions_enabled
            and host.regions.classify(addr, length) is RegionKind.BUFFER
        )

    def remote_flag_write(self, env: "CoreEnv", addr: MpbAddr, value: int) -> Generator:
        """Cross-device flag write.

        With the vSCC extensions (or the FPGA fast-ack cable) the write
        "can be directly acknowledged immediately" (§3.1): the sender
        stalls only for the FPGA ack while delivery proceeds posted. A
        pending host write-combining stream of the same core is fenced
        first so the flag never overtakes its payload. Otherwise the
        write is routed transparently (full round-trip stall).
        """
        self._check_route(addr.device)
        self.flag_forwards += 1
        host = self.host
        cable = self.cable
        if not (host.extensions_enabled or cable.fast_write_ack):
            # Routed transparently, on the lane its region classifies.
            data = np.frombuffer(bytes([value]), np.uint8)
            yield from self._routed(env, addr, host.regions.classify(addr, 1), 1, data)
            return
        sched = self.sched
        sched.admit(sched.sync, 1)
        try:
            # Gate the fence on the *issue-side* expectation, not on
            # is_open: right after the announce is issued the open has
            # not yet arrived at the host, but a flag racing past the
            # in-flight data would break ordering exactly then.
            combiner = self._combiners.get(env.core_id)
            if combiner is not None and self._wcb_expected.get(env.core_id):
                yield from combiner.fence()
            self._wcb_expected[env.core_id] = False
            yield (
                env.device.sif.mesh_to_sif_ns(env.core_id, REQUEST_BYTES),
                cable.params.fpga_ack_ns,
            )
            dst_dev = host.device_of(addr.device)
            self._post_through_host(
                addr.device,
                REQUEST_BYTES,
                lambda: dst_dev.mpb.write_byte(addr, value),
            )
        finally:
            sched.complete(sched.sync)

    def direct_write(self, env: "CoreEnv", addr: MpbAddr, data: Bytes) -> Generator:
        """Sub-threshold direct transfer (§3.3; requires extensions).

        Below the per-scheme threshold (32–128 B) a core skips the vDMA /
        write-combining machinery and pushes the payload itself: one
        FPGA-acked burst per line, delivered posted through the host like
        a flag write. Low latency, no setup cost.
        """
        host = self.host
        host.require_extensions("direct small-message transfers")
        self._check_route(addr.device)
        cable = self.cable
        length = len(data)
        self.sched.admit(self.sched.bulk, length)
        try:
            lines = max(1, -(-length // 32))
            # One snapshot copy (≤ threshold, so ≤128 B): delivery is fully
            # posted, the sender may reuse its buffer before arrival.
            payload = as_u8(data).copy()
            yield (
                env.device.sif.mesh_to_sif_ns(env.core_id, length),
                lines * cable.params.fpga_ack_ns,
            )
            dst_dev = host.device_of(addr.device)
            self._post_through_host(
                addr.device,
                length + REQUEST_BYTES,
                lambda: dst_dev.mpb.write(addr, payload),
            )
        finally:
            self.sched.complete(self.sched.bulk)

    def wcb_open(self, env: "CoreEnv", target: MpbAddr, nbytes: int) -> Generator:
        """Announce a remote-put stream: reserve it, then write the MSG regs.

        The issue-time bookkeeping (reset of the stream's ``issued``
        counter) must happen synchronously with the sender's program
        order; the host-side open fires when the fused MMIO write
        arrives — before any of the data, since both share the FIFO
        up-link — and opens the stream the announce names. A previous
        stream of the core that no flag write fenced yet (two announces
        in a row, as back-to-back gory puts make) is fenced first, so
        its tail still reaches the target.
        """
        host = self.host
        host.require_extensions("host write-combining streams")
        old = self._combiners.get(env.core_id)
        if old is not None and self._wcb_expected.get(env.core_id):
            yield from old.fence()
        # Every announce starts a fresh stream object so bytes of the
        # previous chunk that are still in flight keep their identity.
        # The stream flushes through the target device's own DMA engine;
        # a target on another host is reached from this one over the
        # inter-host tier.
        dst_host = host.host_for(target.device)
        combiner = HostWriteCombiner(
            self.sim,
            dst_host.dmas[target.device],
            host.params.granule,
            via=None if dst_host is host else host,
        )
        if old is not None:
            self._wcb_retired_bytes += old.bytes_combined
            self._wcb_retired_flushes += old.flushes
        self._combiners[env.core_id] = combiner
        self._wcb_expected[env.core_id] = True
        yield from self.mmio_write(
            env,
            [
                (REG_MSG_ADDR, 0),
                (REG_MSG_COUNT, nbytes),
                (REG_MSG_CTRL, ("wcb_open", target, combiner)),
            ],
            fused=True,
        )

    def mmio_write(
        self, env: "CoreEnv", regs: list[tuple[int, object]], fused: bool
    ) -> Generator:
        """One or more register writes from a core of this device.

        ``fused=True`` models registers sharing a 32 B WCB line (the vDMA
        block layout): one transaction regardless of register count.
        """
        self.host.require_extensions("memory-mapped registers")
        cable = self.cable
        transactions = 1 if fused else len(regs)
        self.sched.admit(self.sched.ctrl, 32 * transactions)
        try:
            yield (
                env.device.sif.mesh_to_sif_ns(env.core_id, 32 * transactions),
                transactions * cable.params.fpga_ack_ns,
            )

            def deliver() -> None:
                for reg, value in regs:
                    self.mmio.write(env.core_id, reg, value)

            # Host service is charged as serialization *before* arrival so a
            # register write can never be overtaken by data posted after it.
            cable.up.post(
                32 * transactions,
                on_arrival=deliver,
                extra_overhead_ns=self.host.params.service_ns,
            )
        finally:
            self.sched.complete(self.sched.ctrl)

    def rpc_submit(self, env: "CoreEnv", calls, dispatcher, pay_setup: bool = False):
        """Post one RPC descriptor (one or more coalesced requests) up.

        The client half of the RPC-offload path: the issuing core pays
        the mesh→SIF crossing for the serialized requests (plus one
        vDMA engine setup when the policy put the batch on the vDMA
        scheme), then the descriptor rides this device's up-cable —
        and, for a dispatcher homed on another host, the inter-host
        link, with the policy's ``cross_host_affinity`` choosing which
        host's communication task pays the forwarding ``service_ns`` —
        to ``dispatcher.receive``. Delivery is posted: the core does
        not stall on the response (open-loop clients wait on the
        dispatcher's per-rank done event instead).

        A priority descriptor (always a single call — priority requests
        are coalescing barriers) is admitted on the ``sync`` lane and
        counts ``sync_bypass`` when it overtakes in-flight work; plain
        descriptors ride the dedicated ``rpc`` lane, whose depth tracks
        descriptors in flight toward the dispatcher.
        """
        if not calls:
            raise ValueError("rpc_submit needs at least one call")
        self._check_route(dispatcher.home_device)
        host = self.host
        cable = self.cable
        sched = self.sched
        nbytes = sum(c.req_bytes for c in calls) + REQUEST_BYTES * len(calls)
        priority = calls[0].priority
        lane = sched.sync if priority else sched.rpc
        sched.admit(lane, nbytes)
        if pay_setup:
            yield (
                env.device.sif.mesh_to_sif_ns(env.core_id, nbytes),
                host.params.vdma_setup_ns,
            )
        else:
            yield env.device.sif.mesh_to_sif_ns(env.core_id, nbytes)
        src_device = self.device_id
        batch = tuple(calls)
        home = dispatcher.host

        def deliver() -> None:
            sched.complete(lane)
            dispatcher.receive(src_device, batch)

        owner = dispatcher.policy.cross_host_affinity
        cable.up.post(
            nbytes,
            on_arrival=lambda: host.forward(home, nbytes, deliver, owner),
            extra_overhead_ns=host.params.service_ns,
        )

    # -- helpers ---------------------------------------------------------------

    def _check_route(self, target_device: int) -> None:
        """Fail fast when quarantine has severed the path to the target.

        In-flight packets on a severed cable are silently lost (their
        waiters never resume); *new* requests raise ``DeviceQuarantined``
        so callers can degrade gracefully instead of hanging.
        """
        injector = self.host.fault_injector
        if injector is not None and injector.route_severed(
            self.device_id, target_device
        ):
            from repro.faults.errors import DeviceQuarantined

            raise DeviceQuarantined(self.device_id, target_device)

    def _post_through_host(self, target_device: int, nbytes: int, commit) -> None:
        """Posted delivery of ``nbytes`` through the host to another device.

        Up this device's cable, then :meth:`Host.route_down
        <repro.host.driver.Host.route_down>` toward ``target_device``
        with the host's service charged on the final cable hop;
        ``commit`` runs when the bytes reach the target.
        """
        host = self.host

        def forward() -> None:
            host.route_down(
                target_device,
                nbytes,
                on_arrival=commit,
                extra_overhead_ns=host.params.service_ns,
            )

        self.cable.up.post(nbytes, on_arrival=forward)

    def _line_rtt_ns(self, target_device: int) -> float:
        """End-to-end round trip for one transparently routed line.

        A cross-host target adds the inter-host tier in both directions
        (request out, line packet back) plus the destination host's
        forwarding service on each traversal.
        """
        cached = self._rtt_cache.get(target_device)
        if cached is not None:
            return cached
        host = self.host
        src_cable = self.cable
        dst_cable = host.cable_of(target_device)
        p_src, p_dst = src_cable.params, dst_cable.params
        wire = (
            2 * p_src.latency_ns
            + 2 * p_dst.latency_ns
            + 2 * p_src.packet_overhead_ns
            + 2 * p_dst.packet_overhead_ns
            + (REQUEST_BYTES + LINE_PACKET_BYTES) / p_src.bandwidth_bpns
            + (REQUEST_BYTES + LINE_PACKET_BYTES) / p_dst.bandwidth_bpns
        )
        service = 2 * host.params.service_ns + p_dst.fpga_service_ns
        if not host.is_local(target_device):
            p_ih = host.cluster.params
            wire += (
                2 * p_ih.latency_ns
                + 2 * p_ih.packet_overhead_ns
                + 2 * (REQUEST_BYTES + LINE_PACKET_BYTES) / p_ih.bandwidth_bpns
            )
            service += 2 * host.params.service_ns
        rtt = wire + service
        self._rtt_cache[target_device] = rtt
        return rtt

    def _account_routed(self, target_device: int, nbytes: int) -> None:
        """Byte accounting for analytically charged routed transfers."""
        src_cable = self.cable
        dst_cable = self.host.cable_of(target_device)
        src_cable.up.bytes_carried += nbytes
        src_cable.down.bytes_carried += nbytes
        dst_cable.up.bytes_carried += nbytes
        dst_cable.down.bytes_carried += nbytes
        host = self.host
        if not host.is_local(target_device):
            dst_host = host.host_for(target_device)
            cluster = host.cluster
            cluster.link(host.host_id, dst_host.host_id).link.bytes_carried += nbytes
            cluster.link(dst_host.host_id, host.host_id).link.bytes_carried += nbytes

    # -- paths -----------------------------------------------------------------

    def _routed(
        self,
        env: "CoreEnv",
        addr: MpbAddr,
        kind: RegionKind,
        length: int,
        data: Optional[np.ndarray] = None,
    ) -> Generator:
        """Blocking per-line routed read (``data is None``) or write.

        The previous prototype's transparent mode [13]: every line is an
        end-to-end round trip through the host (the read stalls on each
        line, the write on each end-to-end acknowledge). ``kind`` is the
        request's region class: flag traffic rides the sync lane.

        Lines are charged in groups of :data:`COARSEN_LINES` — a blocking
        in-order core serializes them, so grouped charging is exact for a
        single issuer while keeping event counts tractable.
        """
        sched = self.sched
        lane = sched.sync if kind is RegionKind.FLAG else sched.bulk
        sched.admit(lane, length)
        try:
            target = self.host.device_of(addr.device)
            lines = max(1, -(-length // 32))
            rtt = self._line_rtt_ns(addr.device)
            # The request hop and every line batch are pure delays with
            # no intervening side effects — one fused chain per request.
            hop = REQUEST_BYTES if data is None else length
            chain = [env.device.sif.mesh_to_sif_ns(env.core_id, hop)]
            left = lines
            while left > 0:
                batch = min(COARSEN_LINES, left)
                chain.append(batch * rtt)
                left -= batch
            yield tuple(chain)
            if data is None:
                self.routed_reads += lines
            else:
                self.routed_writes += lines
            self._account_routed(addr.device, length + lines * REQUEST_BYTES)
            if data is None:
                # Data is sampled at completion time — by then every
                # line-level round trip has observed the (stable) source.
                return target.mpb.read(addr, length)
            target.mpb.write(addr, data)
        finally:
            sched.complete(lane)

    def _streamed(
        self, env: "CoreEnv", addr: MpbAddr, payload: np.ndarray, via_host_wcb: bool
    ) -> Generator:
        """Write stream with immediate acknowledgement at the source side.

        ``via_host_wcb=False`` is the *hardware-accelerated* variant: the
        on-board FPGA acks each WCB burst and packets are simply routed
        to the target (the unstable upper bound of Fig 6b).
        ``via_host_wcb=True`` is the stable remote-put scheme: the bytes
        land in a host write-combining stream previously opened through
        the MSG registers; delivery order versus a subsequent flag write
        is enforced by the fence in :meth:`remote_flag_write`.
        """
        host = self.host
        cable = self.cable
        length = len(payload)
        self.sched.admit(self.sched.bulk, length)
        lines = max(1, -(-length // 32))
        ack_ns = cable.params.fpga_ack_ns
        yield env.device.sif.mesh_to_sif_ns(env.core_id, length)
        # Zero-copy: chunks below are views; the issuing core stalls on
        # FPGA acks (and the flag path fences) until delivery, so the
        # source bytes are stable for the lifetime of every view.
        try:
            combiner = None
            if via_host_wcb:
                combiner = self._combiners.get(env.core_id)
                if combiner is None or not self._wcb_expected.get(env.core_id):
                    raise RuntimeError(
                        f"core {env.core_id} streamed a registered write without an "
                        "open host write-combining stream (missing MSG announce)"
                    )
                base = combiner.issued
                combiner.issued += length

            offset = 0
            left = lines
            while left > 0:
                batch = min(COARSEN_LINES, left)
                nbytes = min(batch * 32, length - offset)
                # The issuing core stalls one FPGA ack per 32 B burst.
                yield batch * ack_ns
                chunk = payload[offset : offset + nbytes]
                if combiner is not None:
                    off = base + offset
                    cable.up.post(
                        nbytes + REQUEST_BYTES,
                        on_arrival=(lambda c=chunk, o=off: combiner.absorb(o, c)),
                    )
                else:
                    dst_dev = host.device_of(addr.device)
                    self._post_through_host(
                        addr.device,
                        nbytes + REQUEST_BYTES,
                        lambda c=chunk, o=offset: dst_dev.mpb.write(addr + o, c),
                    )
                offset += nbytes
                left -= batch
        finally:
            self.sched.complete(self.sched.bulk)

    # -- MSG register wiring -----------------------------------------------------------------

    def _wire_msg_handlers(self) -> None:
        """REG_MSG_*: the sender announces a message to the task (§3.2).

        The control value selects what the announcement means:
        ``("prefetch",)`` — prefetch my MPB span into the software cache;
        ``("wcb_open", dst_addr, stream)`` — open the write-combining
        stream :meth:`wcb_open` issued toward ``dst_addr`` (remote put,
        Fig 4c).
        """

        def on_ctrl(core_id: int, ctrl: object) -> None:
            offset = int(self.mmio.read(REG_MSG_ADDR))
            count = int(self.mmio.read(REG_MSG_COUNT))
            if not isinstance(ctrl, tuple) or not ctrl:
                raise TypeError(f"MSG control register expects a tuple, got {ctrl!r}")
            kind = ctrl[0]
            if kind == "prefetch":
                src = MpbAddr(self.device_id, core_id, offset)
                self.host.cache.announce(src, count)
            elif kind == "wcb_open":
                _kind, target, combiner = ctrl
                combiner.open(target, count)
            else:
                raise ValueError(f"unknown MSG control {ctrl!r}")

        def on_inv(core_id: int, value: object) -> None:
            self.host.cache.invalidate(self.device_id, core_id)

        self.mmio.on_write(REG_MSG_CTRL, on_ctrl)
        self.mmio.on_write(REG_CACHE_INV, on_inv)
