"""The communication task: host-side daemon serving one device.

"For our prototype, the communication task has been implemented as an
extension of a background process, also called daemon, of the device
driver … Because the host is connected to multiple devices, our
communication task consists of multiple threads on kernel level" (§3.2).

One :class:`CommunicationTask` instance per device owns that device's
MMIO register bank, host write-combining streams and (shared) software
cache hooks, and implements the per-request behaviours:

* **transparent routing** — the previous prototype's mode [13]: every
  off-die read or write is an end-to-end round trip through the host,
  one 32 B line at a time (this is the slow baseline of Fig 6b);
* **flag fast path** — writes to registered flag regions are
  acknowledged immediately and forwarded posted; flag reads bypass all
  host buffers;
* **registered buffer writes** — absorbed by a host write-combining
  stream (remote-put scheme, Fig 4c);
* **MMIO** — register writes reach the bank after the PCIe up-hop plus
  host service, firing the wired handlers (vDMA, cache control, …).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

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

#: Size of a routed request header packet on the wire (bytes).
REQUEST_BYTES = 16
#: A routed 32 B payload packet including header (bytes).
LINE_PACKET_BYTES = 48
#: Lines charged per simulator event when coarsening transparent
#: transfers (a blocking reader serializes them anyway). Also the batch
#: the SIF forwards as one routed packet on the fast-ack write path.
COARSEN_LINES = 60


class HostRequestScheduler:
    """Unified request scheduler of one communication task.

    §3.1/§3.2: registration lets the task "classify incoming requests
    and handle them in a different way". The scheduler is where that
    classification becomes explicit — every request entering the task is
    admitted onto one of three lanes:

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

    Per-lane request/byte counters are always on; ``sched.queue_depth``
    gauges track in-flight requests when :mod:`repro.obs` is enabled.

    **vDMA descriptor coalescing.** When the host runs a dynamic
    communication policy (``host.sched_coalesce``), a vDMA descriptor
    programmed while another copy to the *same destination device* is
    still in flight is chained onto that engine pass instead of paying
    the per-descriptor engine startup (``vdma_setup_ns``) again — one
    host copy loop serving back-to-back descriptors for the route.
    Static-scheme runs keep the flag off, so their timing stays
    bit-identical to the pre-scheduler code.
    """

    SYNC = "sync"
    BULK = "bulk"
    CTRL = "ctrl"
    #: Request/response descriptors of the RPC dispatch path
    #: (:mod:`repro.apps.rpc`). A fourth classification, not a
    #: reprioritization: RPC descriptors are bulk-class data movement,
    #: but dispatch wants its own depth/byte series — and priority RPCs
    #: deliberately ride ``sync`` instead (they are the ``sync_bypass``
    #: traffic of an RPC run).
    RPC = "rpc"
    LANES = (SYNC, BULK, CTRL, RPC)

    __slots__ = (
        "task", "host", "device_id",
        "sync_requests", "sync_bytes", "sync_depth",
        "bulk_requests", "bulk_bytes", "bulk_depth",
        "ctrl_requests", "ctrl_bytes", "ctrl_depth",
        "rpc_requests", "rpc_bytes", "rpc_depth",
        "sync_bypass", "coalesced_vdma", "_vdma_inflight",
        "_obs", "_sync_gauge", "_bulk_gauge", "_ctrl_gauge", "_rpc_gauge",
    )

    def __init__(self, task: "CommunicationTask"):
        self.task = task
        self.host = task.host
        self.device_id = task.device_id
        # Hot-path counters are plain attributes (admit/complete run once
        # per host request — no dict hashing on that path).
        self.sync_requests = 0
        self.sync_bytes = 0
        self.sync_depth = 0
        self.bulk_requests = 0
        self.bulk_bytes = 0
        self.bulk_depth = 0
        self.ctrl_requests = 0
        self.ctrl_bytes = 0
        self.ctrl_depth = 0
        self.rpc_requests = 0
        self.rpc_bytes = 0
        self.rpc_depth = 0
        #: Sync-lane admissions that overtook in-flight bulk work.
        self.sync_bypass = 0
        #: vDMA descriptors chained onto an in-flight same-route copy.
        self.coalesced_vdma = 0
        #: In-flight vDMA copies per destination device (the route key).
        self._vdma_inflight: dict[int, int] = {}
        from repro.obs.metrics import registry_for

        self._obs = registry_for(task.sim)
        self._sync_gauge = self._obs.gauge(
            "sched.queue_depth", device=self.device_id, lane=self.SYNC
        )
        self._bulk_gauge = self._obs.gauge(
            "sched.queue_depth", device=self.device_id, lane=self.BULK
        )
        self._ctrl_gauge = self._obs.gauge(
            "sched.queue_depth", device=self.device_id, lane=self.CTRL
        )
        # The rpc gauge is created on first admission — instrument
        # creation registers the series eagerly, and a non-RPC run's
        # snapshot must not grow a zero-valued rpc lane.
        self._rpc_gauge = None

    def sync_access(self, addr: MpbAddr, length: int) -> bool:
        """Whether this remote access is sync traffic (registered FLAG
        region, §3.1) — else it rides the bulk lane."""
        return self.host.regions.classify(addr, length) is RegionKind.FLAG

    # -- lane admission (one admit/complete pair per host request) -------------

    def admit_sync(self, nbytes: int) -> None:
        self.sync_requests += 1
        self.sync_bytes += nbytes
        # rpc_depth is zero outside RPC runs, so legacy traffic counts
        # bypasses exactly as before the rpc lane existed.
        if self.bulk_depth or self.rpc_depth:
            self.sync_bypass += 1
        self.sync_depth += 1
        if self._obs.enabled:
            self._sync_gauge.set(float(self.sync_depth))

    def complete_sync(self) -> None:
        self.sync_depth -= 1
        if self._obs.enabled:
            self._sync_gauge.set(float(self.sync_depth))

    def admit_bulk(self, nbytes: int) -> None:
        self.bulk_requests += 1
        self.bulk_bytes += nbytes
        self.bulk_depth += 1
        if self._obs.enabled:
            self._bulk_gauge.set(float(self.bulk_depth))

    def complete_bulk(self) -> None:
        self.bulk_depth -= 1
        if self._obs.enabled:
            self._bulk_gauge.set(float(self.bulk_depth))

    def admit_ctrl(self, nbytes: int) -> None:
        self.ctrl_requests += 1
        self.ctrl_bytes += nbytes
        self.ctrl_depth += 1
        if self._obs.enabled:
            self._ctrl_gauge.set(float(self.ctrl_depth))

    def complete_ctrl(self) -> None:
        self.ctrl_depth -= 1
        if self._obs.enabled:
            self._ctrl_gauge.set(float(self.ctrl_depth))

    def admit_rpc(self, nbytes: int) -> None:
        self.rpc_requests += 1
        self.rpc_bytes += nbytes
        self.rpc_depth += 1
        if self._obs.enabled:
            if self._rpc_gauge is None:
                self._rpc_gauge = self._obs.gauge(
                    "sched.queue_depth", device=self.device_id, lane=self.RPC
                )
            self._rpc_gauge.set(float(self.rpc_depth))

    def complete_rpc(self) -> None:
        self.rpc_depth -= 1
        if self._obs.enabled and self._rpc_gauge is not None:
            self._rpc_gauge.set(float(self.rpc_depth))

    # -- vDMA route coalescing -----------------------------------------------------

    def vdma_admit(self, dst_device: int, copy_id: int) -> bool:
        """Whether this descriptor chains onto an in-flight route copy."""
        if not self.host.sched_coalesce:
            return False
        if self._vdma_inflight.get(dst_device, 0) <= 0:
            return False
        self.coalesced_vdma += 1
        tracer = self.host.device_of(self.device_id).tracer
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
        for lane, requests, nbytes in (
            (self.SYNC, self.sync_requests, self.sync_bytes),
            (self.BULK, self.bulk_requests, self.bulk_bytes),
            (self.CTRL, self.ctrl_requests, self.ctrl_bytes),
        ):
            out[f"sched.requests{{device={d},lane={lane}}}"] = float(requests)
            out[f"sched.bytes{{device={d},lane={lane}}}"] = float(nbytes)
        out[f"sched.sync_bypass{{device={d}}}"] = float(self.sync_bypass)
        out[f"sched.coalesced{{device={d}}}"] = float(self.coalesced_vdma)
        # The rpc lane exists only on devices that ran RPC traffic —
        # emitted conditionally so every pre-RPC snapshot stays
        # byte-stable (the softcache peer_drops precedent).
        if self.rpc_requests:
            out[f"sched.requests{{device={d},lane={self.RPC}}}"] = float(
                self.rpc_requests
            )
            out[f"sched.bytes{{device={d},lane={self.RPC}}}"] = float(self.rpc_bytes)
        return out


class CommunicationTask:
    """Host-side thread state for one attached device."""

    def __init__(self, host: "Host", device_id: int):
        self.host = host
        self.sim = host.sim
        self.device_id = device_id
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
        #: Routed line round-trip time per (target_device, read) — the
        #: cable/host parameters are immutable, so compute once.
        self._rtt_cache: dict[tuple[int, bool], float] = {}
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

    # -- helpers ---------------------------------------------------------------

    @property
    def cable(self):
        return self.host.cable_of(self.device_id)

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

    def _line_rtt_ns(self, target_device: int, read: bool) -> float:
        """End-to-end round trip for one transparently routed line.

        A cross-host target adds the inter-host tier in both directions
        (request out, line packet back) plus the destination host's
        forwarding service on each traversal.
        """
        cached = self._rtt_cache.get((target_device, read))
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
        self._rtt_cache[(target_device, read)] = rtt
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

    # -- transparent routing (previous-prototype baseline) -------------------------

    def transparent_read(
        self, env: "CoreEnv", addr: MpbAddr, length: int
    ) -> Generator:
        """Blocking per-line routed read (the receiver stalls each line).

        Lines are charged in groups of :data:`COARSEN_LINES` — a blocking
        in-order core serializes them, so grouped charging is exact for a
        single reader while keeping event counts tractable.
        """
        self._check_route(addr.device)
        sched = self.sched
        sync = sched.sync_access(addr, length)
        sched.admit_sync(length) if sync else sched.admit_bulk(length)
        try:
            target = self.host.device_of(addr.device)
            lines = max(1, -(-length // 32))
            rtt = self._line_rtt_ns(addr.device, read=True)
            # The request hop and every line batch are pure delays with
            # no intervening side effects — one fused chain per read.
            chain = [env.device.sif.mesh_to_sif_ns(env.core_id, REQUEST_BYTES)]
            left = lines
            while left > 0:
                batch = min(COARSEN_LINES, left)
                chain.append(batch * rtt)
                left -= batch
            yield tuple(chain)
            self.routed_reads += lines
            self._account_routed(addr.device, length + lines * REQUEST_BYTES)
            # Data is sampled at completion time — by then every line-level
            # round trip has observed the (stable) source buffer.
            return target.mpb.read(addr, length)
        finally:
            sched.complete_sync() if sync else sched.complete_bulk()

    def transparent_write(
        self, env: "CoreEnv", addr: MpbAddr, data: np.ndarray
    ) -> Generator:
        """Blocking per-line routed write (end-to-end acknowledge)."""
        self._check_route(addr.device)
        length = len(data)
        sched = self.sched
        sync = sched.sync_access(addr, length)
        sched.admit_sync(length) if sync else sched.admit_bulk(length)
        try:
            target = self.host.device_of(addr.device)
            lines = max(1, -(-length // 32))
            rtt = self._line_rtt_ns(addr.device, read=False)
            chain = [env.device.sif.mesh_to_sif_ns(env.core_id, length)]
            left = lines
            while left > 0:
                batch = min(COARSEN_LINES, left)
                chain.append(batch * rtt)
                left -= batch
            yield tuple(chain)
            self.routed_writes += lines
            self._account_routed(addr.device, length + lines * REQUEST_BYTES)
            target.mpb.write(addr, data)
        finally:
            sched.complete_sync() if sync else sched.complete_bulk()

    # -- fast-acknowledged streaming writes ------------------------------------------

    def streamed_write(
        self, env: "CoreEnv", addr: MpbAddr, data: np.ndarray, via_host_wcb: bool
    ) -> Generator:
        """Write stream with immediate acknowledgement at the source side.

        ``via_host_wcb=False`` is the *hardware-accelerated* variant: the
        on-board FPGA acks each WCB burst and packets are simply routed
        to the target (the unstable upper bound of Fig 6b).
        ``via_host_wcb=True`` is the stable remote-put scheme: the bytes
        land in a host write-combining stream previously opened through
        the MSG registers; delivery order versus a subsequent flag write
        is enforced by :meth:`fence`.
        """
        self._check_route(addr.device)
        host = self.host
        cable = self.cable
        length = len(data)
        self.sched.admit_bulk(length)
        lines = max(1, -(-length // 32))
        ack_ns = cable.params.fpga_ack_ns
        yield env.device.sif.mesh_to_sif_ns(env.core_id, length)
        # Zero-copy: chunks below are views; the issuing core stalls on
        # FPGA acks (and the flag path fences) until delivery, so the
        # source bytes are stable for the lifetime of every view.
        payload = as_u8(data)

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

                    def forward(c=chunk, o=offset) -> None:
                        host.route_down(
                            addr.device,
                            len(c) + REQUEST_BYTES,
                            on_arrival=lambda: dst_dev.mpb.write(addr + o, c),
                            extra_overhead_ns=host.params.service_ns,
                        )

                    cable.up.post(nbytes + REQUEST_BYTES, on_arrival=forward)
                offset += nbytes
                left -= batch
        finally:
            self.sched.complete_bulk()

    def small_direct_write(
        self, env: "CoreEnv", addr: MpbAddr, data: np.ndarray
    ) -> Generator:
        """Sub-threshold direct transfer (§3.3).

        Below the per-scheme threshold (32–128 B) a core skips the vDMA /
        write-combining machinery and pushes the payload itself: one
        FPGA-acked burst per line, delivered posted through the host like
        a flag write. Low latency, no setup cost.
        """
        self._check_route(addr.device)
        host = self.host
        cable = self.cable
        length = len(data)
        self.sched.admit_bulk(length)
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

            def forward() -> None:
                host.route_down(
                    addr.device,
                    length + REQUEST_BYTES,
                    on_arrival=lambda: dst_dev.mpb.write(addr, payload),
                    extra_overhead_ns=host.params.service_ns,
                )

            cable.up.post(length + REQUEST_BYTES, on_arrival=forward)
        finally:
            self.sched.complete_bulk()

    # -- RPC dispatch (repro.apps.rpc) ---------------------------------------------

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
        if priority:
            sched.admit_sync(nbytes)
        else:
            sched.admit_rpc(nbytes)
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
            sched.complete_sync() if priority else sched.complete_rpc()
            dispatcher.receive(src_device, batch)

        if host is home:
            cable.up.post(
                nbytes, on_arrival=deliver,
                extra_overhead_ns=host.params.service_ns,
            )
        else:
            link = host.cluster.link(host.host_id, home.host_id)
            owner = home if dispatcher.policy.cross_host_affinity == "dst" else host

            def hop() -> None:
                link.link.post(
                    nbytes, on_arrival=deliver,
                    extra_overhead_ns=owner.params.service_ns,
                )

            cable.up.post(
                nbytes, on_arrival=hop,
                extra_overhead_ns=host.params.service_ns,
            )

    def issue_wcb_open(self, env: "CoreEnv", target: MpbAddr, nbytes: int) -> Generator:
        """Sender-side announce: reserve the stream, then write the MSG regs.

        The issue-time bookkeeping (reset of the stream's ``issued``
        counter) must happen synchronously with the sender's program
        order; the host-side :meth:`open_wcb_stream` fires when the MMIO
        write arrives — before any of the data, since both share the
        FIFO up-link.
        """
        # Every announce starts a fresh stream object so bytes of the
        # previous chunk that are still in flight keep their identity.
        combiner = HostWriteCombiner(
            self.sim,
            self.host.push_engine_for(target.device),
            self.host.params.granule,
        )
        old = self._combiners.get(env.core_id)
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
                (REG_MSG_CTRL, ("wcb_open", target)),
            ],
            fused=True,
        )

    def open_wcb_stream(self, core_id: int, target: MpbAddr, nbytes: int) -> None:
        """MSG-register handler for the remote-put scheme (Fig 4c)."""
        combiner = self._combiners.get(core_id)
        if combiner is None:
            raise RuntimeError(
                f"wcb_open arrived for core {core_id} without an issued stream"
            )
        combiner.open(target, nbytes)

    def fence_wcb(self, core_id: int) -> Generator:
        # Gate on the *issue-side* expectation, not on is_open: right
        # after the announce is issued the open has not yet arrived at
        # the host, but a flag racing past the in-flight data would
        # break ordering exactly then.
        combiner = self._combiners.get(core_id)
        if combiner is not None and self._wcb_expected.get(core_id):
            yield from combiner.fence()
        self._wcb_expected[core_id] = False

    # -- flags --------------------------------------------------------------------------

    def flag_write(
        self, env: "CoreEnv", addr: MpbAddr, value: int, fast_ack: bool
    ) -> Generator:
        """Cross-device flag write.

        With the vSCC extensions (``fast_ack=True``) the write "can be
        directly acknowledged immediately" (§3.1): the sender stalls only
        for the FPGA ack while delivery proceeds posted. A pending host
        write-combining stream of the same core is fenced first so the
        flag never overtakes its payload. Without extensions the write is
        routed transparently (full round-trip stall).
        """
        self._check_route(addr.device)
        self.flag_forwards += 1
        host = self.host
        if not fast_ack:
            # Routed transparently; the sync-lane admission happens in
            # transparent_write (the flag region classifies it).
            yield from self.transparent_write(env, addr, np.frombuffer(bytes([value]), np.uint8))
            return
        self.sched.admit_sync(1)
        try:
            yield from self.fence_wcb(env.core_id)
            cable = self.cable
            yield (
                env.device.sif.mesh_to_sif_ns(env.core_id, REQUEST_BYTES),
                cable.params.fpga_ack_ns,
            )
            dst_dev = host.device_of(addr.device)

            def forward() -> None:
                host.route_down(
                    addr.device,
                    REQUEST_BYTES,
                    on_arrival=lambda: dst_dev.mpb.write_byte(addr, value),
                    extra_overhead_ns=host.params.service_ns,
                )

            cable.up.post(REQUEST_BYTES, on_arrival=forward)
        finally:
            self.sched.complete_sync()

    # -- MMIO -----------------------------------------------------------------------------

    def mmio_write(
        self, env: "CoreEnv", regs: list[tuple[int, object]], fused: bool
    ) -> Generator:
        """One or more register writes from a core of this device.

        ``fused=True`` models registers sharing a 32 B WCB line (the vDMA
        block layout): one transaction regardless of register count.
        """
        cable = self.cable
        transactions = 1 if fused else len(regs)
        self.sched.admit_ctrl(32 * transactions)
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
            self.sched.complete_ctrl()

    def mmio_read(self, env: "CoreEnv", reg: int) -> Generator:
        cable = self.cable
        self.sched.admit_ctrl(REQUEST_BYTES)
        try:
            yield env.device.sif.mesh_to_sif_ns(env.core_id, REQUEST_BYTES)
            yield from cable.up.transfer(REQUEST_BYTES)
            yield self.host.params.service_ns
            value = self.mmio.read(reg)
            yield from cable.down.transfer(LINE_PACKET_BYTES)
            return value
        finally:
            self.sched.complete_ctrl()

    # -- MSG register wiring -----------------------------------------------------------------

    def _wire_msg_handlers(self) -> None:
        """REG_MSG_*: the sender announces a message to the task (§3.2).

        The control value selects what the announcement means:
        ``("prefetch",)`` — prefetch my MPB span into the software cache;
        ``("wcb_open", dst_addr)`` — open a write-combining stream toward
        ``dst_addr`` for the remote-put scheme.
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
                self.open_wcb_stream(core_id, ctrl[1], count)
            else:
                raise ValueError(f"unknown MSG control {ctrl!r}")

        def on_inv(core_id: int, value: object) -> None:
            self.host.cache.invalidate(self.device_id, core_id)

        self.mmio.on_write(REG_MSG_CTRL, on_ctrl)
        self.mmio.on_write(REG_CACHE_INV, on_inv)
