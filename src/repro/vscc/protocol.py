"""Inter-device transports: the protocols behind each scheme of Fig 4.

All three host-accelerated schemes share a *rendezvous* step (the
receiver grants its communication buffer before any data lands in it —
sync point **b1** of Fig 4d) because, unlike RCCE's default scheme, they
write into the *receiver's* MPB, which is also the staging area of that
rank's own on-chip sends. The data-ready notification is sync point
**b2**. The rendezvous comes in two buffer layouts:

* :class:`StopAndWaitTransport` — the whole buffer, chunk by chunk
  (direct small-message path, remote put through the host WC buffer).
  It is :class:`repro.rcce.transport.RendezvousTransport`, the loop
  RCCE's default and iRCCE's pipelined protocols run too, with the
  receiver owning one slot;
* :class:`TwoSlotTransport` — two double-buffered slots, re-granted as
  they drain, with per-granule progress (vDMA, hardware-accelerated
  remote put).

Subclasses supply only how data reaches the receiver. Counter-flag
discipline follows :mod:`repro.rcce.flags`: independent "sent"/"ready"
streams per directed pair, with bounded-lead ``reached`` predicates
wherever a producer may run ahead. :class:`VsccSelector` picks one
transport per message through a single journaled policy decision.

Unpinned: ``HostPacket.encode``/``decode`` — the fault injector's
corrupted-packet check (chaos suites).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

import numpy as np

from repro.host.dma import granule_sizes
from repro.host.mmio import REG_VDMA_ADDR, REG_VDMA_COUNT, REG_VDMA_CTRL
from repro.host.vdma import VdmaCommand
from repro.rcce.flags import SEQ_MOD, SLOT_VDMA_DONE, reached
from repro.rcce.transport import (
    DefaultGetTransport,
    OnChipSelector,
    RendezvousTransport,
    Transport,
)

from .policy import Route, SchemePolicy
from .schemes import CommScheme

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.host.driver import Host
    from repro.rcce.api import Rcce, RcceOptions

__all__ = [
    "DirectSmallTransport",
    "HostPacket",
    "HwAccelRemotePutTransport",
    "ProtocolViolation",
    "RemotePutTransport",
    "SequenceTracker",
    "StopAndWaitTransport",
    "TwoSlotTransport",
    "VdmaTransport",
    "VsccSelector",
]


# -- host-path packet envelope (CRC + sequence numbers) -------------------------
#
# The happy-path model trusts the PCIe cable: every posted packet
# arrives, once, in order. The fault/resilience layer (repro.faults)
# drops that assumption, so host-path messages gain a link-layer
# envelope: a sequence number (exactly-once, in-order delivery per
# directed link) and a CRC32 over the header (corruption detection →
# retransmit instead of silent data damage). The envelope is what the
# Distributed Network Processor implements in hardware as its ack/
# retransmit link layer; we carry it per simulated packet.

#: Wire layout of the envelope: seq (mod 2^32), nbytes, crc32(header).
PACKET_HEADER = struct.Struct("<III")


class ProtocolViolation(Exception):
    """The CRC/seq link layer observed an impossible packet stream.

    Raised on a sequence *gap* — a packet delivered although a
    predecessor was neither delivered nor retransmitted. Under the
    bounded-retry protocol this can only mean a bug in the fault model
    or the retransmit logic, never ordinary loss (loss is retried, and a
    severed route delivers nothing at all)."""


@dataclass(frozen=True)
class HostPacket:
    """One host-path message envelope: sequence number + payload size."""

    seq: int
    nbytes: int

    def encode(self) -> bytes:
        """Wire header: little-endian seq/nbytes plus CRC32 over them."""
        body = struct.pack("<II", self.seq & 0xFFFFFFFF, self.nbytes & 0xFFFFFFFF)
        return body + struct.pack("<I", zlib.crc32(body))

    @staticmethod
    def decode(raw: bytes) -> Optional["HostPacket"]:
        """Parse + verify a wire header; None if the CRC rejects it."""
        if len(raw) != PACKET_HEADER.size:
            return None
        seq, nbytes, crc = PACKET_HEADER.unpack(raw)
        if zlib.crc32(raw[:8]) != crc:
            return None
        return HostPacket(seq, nbytes)


class SequenceTracker:
    """Receiver-side exactly-once in-order filter for one directed link.

    ``accept(seq)`` is called at every (non-corrupt) packet arrival:
    the expected sequence number is delivered and advances the window,
    an older one is a wire duplicate and is discarded, a newer one is a
    protocol violation (see :class:`ProtocolViolation`).
    """

    __slots__ = ("expected", "delivered", "duplicates")

    def __init__(self) -> None:
        self.expected = 0
        self.delivered = 0
        self.duplicates = 0

    def accept(self, seq: int) -> bool:
        """True exactly once per sequence number, in order."""
        if seq == self.expected:
            self.expected += 1
            self.delivered += 1
            return True
        if seq < self.expected:
            self.duplicates += 1
            return False
        raise ProtocolViolation(
            f"sequence gap: packet {seq} arrived while {self.expected} "
            "is still outstanding"
        )


class StopAndWaitTransport(RendezvousTransport):
    """Stop-and-wait rendezvous into the receiver's whole buffer.

    :class:`~repro.rcce.transport.RendezvousTransport` with one slot
    owned by the receiver: per chunk of the buffer's capacity the
    receiver grants its buffer (b1); the sender reads the chunk from
    private memory and puts it into the receiver's MPB (:meth:`_put`,
    the one step the subclasses differ in); the sender's ``sent`` flag
    follows the data (b2); the receiver drains its *local* MPB and
    acknowledges, which frees the buffer for the next chunk.
    """

    sender_first = False


class DirectSmallTransport(StopAndWaitTransport):
    """Sub-threshold direct transfer (§3.3).

    The sender pushes the payload itself through the immediate-ack path,
    skipping vDMA programming / WC-stream setup — "to recover low
    latency for small messages". Still rendezvous-gated: the payload
    lands in the receiver's communication buffer.
    """

    name = "direct-small"

    def _put(self, comm: "Rcce", addr, chunk: np.ndarray) -> Generator:
        yield from comm.env.private_read(len(chunk))
        yield from comm.env.device.fabric.direct_write(comm.env, addr, chunk)


class RemotePutTransport(StopAndWaitTransport):
    """*Remote put* through the host write-combining buffer (Fig 4c).

    The sender opens a WC stream toward the receiver's MPB and stores
    the chunk into it; the host buffer absorbs the stores and forwards
    them.
    """

    name = "remote-put-wcb"

    def _put(self, comm: "Rcce", addr, chunk: np.ndarray) -> Generator:
        yield from comm.env.private_read(len(chunk))
        yield from comm.announce_wcb_open(addr, len(chunk))
        yield from comm.env.mpb_write(addr, chunk)


#: ``reached(value)`` per counter value (index 0 unused), so no
#: two-slot transfer allocates its predicates.
_REACHED = (None,) + tuple(reached(value) for value in range(1, SEQ_MOD + 1))


def _after(last: int, count: int) -> list[int]:
    """The ``count`` counter values after ``last`` (1…254, cycling)."""
    return [(last + i) % SEQ_MOD + 1 for i in range(count)]


class TwoSlotTransport(Transport):
    """Two-slot rendezvous: the receiver double-buffers its MPB halves.

    The message moves in transfers of one slot (half the communication
    buffer). The receiver grants both slots up front (b1) and re-grants
    slot ``k % 2`` for transfer ``k + 2`` once it drained transfer ``k``;
    within a transfer, one ``sent`` value per granule (b2) tells it how
    far the data landed. The subclasses differ only in how the sender
    moves a transfer into the receiver's slot, and in ``_granule(comm)``,
    the bytes of a transfer one ``sent`` value announces.
    """

    sender_first = False

    def _plan(self, comm: "Rcce", seqs: dict, nbytes: int):
        """Transfer/granule/seq plan — computed identically on both ends.

        It advances ``seqs`` (the channel's ``out_seq`` on the sender,
        ``in_seq`` on the receiver) past the whole message. ``gsizes[k]``
        is transfer ``k``'s granule-size list (``[0]`` for an empty
        message) and ``progress[k]`` its ``sent`` values.
        """
        slot = comm.slot_bytes
        transfers = granule_sizes(nbytes, slot) if nbytes else [0]
        granule = self._granule(comm)
        gsizes = [granule_sizes(size, granule) or [0] for size in transfers]
        grants = _after(seqs["ready"], len(transfers) + 1)
        final_ack = seqs["ready"] = grants.pop()
        sent = iter(_after(seqs["sent"], sum(map(len, gsizes))))
        progress = [[next(sent) for _ in sizes] for sizes in gsizes]
        seqs["sent"] = progress[-1][-1]
        return slot, transfers, gsizes, grants, final_ack, progress

    def recv(self, comm: "Rcce", src: int, nbytes: int) -> Generator:
        env = comm.env
        chan = comm.channel(src)
        sent, ready = chan.in_sent, chan.in_ready
        slot, transfers, gsizes, grants, final_ack, progress = self._plan(
            comm, chan.in_seq, nbytes
        )
        out = np.empty(nbytes, np.uint8)
        yield from env.set_flag(ready, grants[0])
        if len(transfers) > 1:
            yield from env.set_flag(ready, grants[1])
        offset = 0
        for k, size in enumerate(transfers):
            slot_off = (k % 2) * slot
            drained = 0
            for gsize, seq in zip(gsizes[k], progress[k]):
                yield from env.wait_flag_pred(sent, _REACHED[seq])
                if gsize:
                    chunk = yield from env.get_chunk(
                        env.local_addr(slot_off + drained), gsize
                    )
                    out[offset + drained : offset + drained + gsize] = chunk
                    drained += gsize
            if k + 2 < len(transfers):
                yield from env.set_flag(ready, grants[k + 2])
            offset += size
        yield from env.set_flag(ready, final_ack)
        return out


class HwAccelRemotePutTransport(TwoSlotTransport):
    """Hardware-accelerated *remote put* (the dashed curve of Fig 6b).

    Models the previous prototype's remote-put protocol [13] at its
    best: with the on-board FPGA's fast write acknowledges the sender
    streams each transfer straight into the receiver's slot, one
    ``sent`` value per transfer. Stability limits keep it out of real
    configurations beyond two devices.
    """

    name = "remote-put-hw-accel"

    def _granule(self, comm: "Rcce") -> int:
        return comm.slot_bytes

    def send(self, comm: "Rcce", dest: int, data: np.ndarray) -> Generator:
        env = comm.env
        chan = comm.channel(dest)
        sent, ready = chan.out_sent, chan.out_ready
        slot, transfers, _gsizes, grants, final_ack, progress = self._plan(
            comm, chan.out_seq, len(data)
        )
        offset = 0
        for k, size in enumerate(transfers):
            yield from env.wait_flag_pred(ready, _REACHED[grants[k]])  # b1
            if size:
                yield from env.private_read(size)
                yield from env.mpb_write(
                    comm.comm_buffer_addr(dest, (k % 2) * slot),
                    data[offset : offset + size],
                )
            yield from env.set_flag(sent, progress[k][0])  # b2
            offset += size
        yield from env.wait_flag(ready, final_ack)


class VdmaTransport(TwoSlotTransport):
    """*Local put / local get* via the vDMA controller (Fig 4a).

    Both end points touch only their own on-chip memory; the host's vDMA
    engine moves the payload. The communication buffer is split into two
    slots on both sides, double-buffering transfers so the 8 kB MPB
    cliff disappears ("sender and receiver can progress communication in
    parallel … the communication task can introduce a pipelining
    effect", §4.1). Within a transfer the receiver drains granules as
    the vDMA's piggybacked progress counter announces them.
    """

    name = "local-put-local-get-vdma"

    def __init__(self, host: "Host", fused_mmio: bool = True):
        self.host = host
        #: Whether the three programming registers are written as one
        #: WCB-fused transaction (§3.3) — the mmio-fusion ablation
        #: disables this to measure the saving.
        self.fused_mmio = fused_mmio

    def _granule(self, comm: "Rcce") -> int:
        return self.host.params.granule

    def send(self, comm: "Rcce", dest: int, data: np.ndarray) -> Generator:
        env, me = comm.env, comm.rank
        chan = comm.channel(dest)
        sent, ready = chan.out_sent, chan.out_ready
        slot, transfers, _gsizes, grants, final_ack, progress = self._plan(
            comm, chan.out_seq, len(data)
        )
        granule = self.host.params.granule
        done_flag = comm.flags.misc(me, SLOT_VDMA_DONE)
        done_seqs = _after(comm.vdma_done_seq, len(transfers))
        comm.vdma_done_seq = done_seqs[-1]
        slot_addrs = (env.local_addr(0), env.local_addr(slot))
        # Host-affinity of a cross-host copy (None on a same-host route):
        # which host's communication task owns the inter-host forward.
        # Only a VsccSelector builds this transport, so the rank's own
        # selector is the one that picked it.
        owner = comm.selector.host_affinity_for(comm, me, dest)
        offset = 0
        for k, size in enumerate(transfers):
            if k >= 2:
                # Our slot k%2 is reusable once transfer k-2 was pulled
                # and committed (the completion flag covers both).
                yield from env.wait_flag_pred(done_flag, _REACHED[done_seqs[k - 2]])
            yield from env.wait_flag_pred(ready, _REACHED[grants[k]])  # b1
            slot_off = (k % 2) * slot
            regs = [(REG_VDMA_ADDR, slot_off), (REG_VDMA_COUNT, size)]
            if size:
                yield from env.put_chunk(slot_addrs[k % 2], data[offset : offset + size])
                regs.append((REG_VDMA_CTRL, VdmaCommand(
                    dst=comm.comm_buffer_addr(dest, slot_off),
                    completion_flag=done_flag,
                    completion_value=done_seqs[k],
                    progress_flag=sent,
                    progress_values=tuple(progress[k]),
                    granule=granule,
                    owner=owner,
                )))
            yield from env.device.fabric.mmio_write(env, regs, fused=self.fused_mmio)
            if not size:
                # Zero-byte message: signal data-ready directly.
                yield from env.set_flag(sent, progress[k][0])
            offset += size
        if transfers[-1]:
            yield from env.wait_flag_pred(done_flag, _REACHED[done_seqs[-1]])
        yield from env.wait_flag(ready, final_ack)


#: Journal prefix length both sides must have consumed before pruning.
_JOURNAL_PRUNE = 256


class VsccSelector(OnChipSelector):
    """Scheme-aware selector for multi-device sessions.

    On-chip pairs get :class:`~repro.rcce.transport.OnChipSelector`'s
    choice; every cross-device message is dispatched by the
    :class:`~repro.vscc.policy.SchemePolicy` — every scheme a policy may
    return gets its transport built up front and held concurrently —
    falling back to the direct path at or below the chosen scheme's
    small-message threshold (§3.3).

    **Agreement journal.** Both end points of a message must pick the
    same transport, but a stateful policy may evolve between the
    sender's and the receiver's ``select`` calls. The selector therefore
    journals decisions per directed pair: the first ``select`` for
    message *i* on pair (src → dst) asks the policy once and records
    the answer; the other side's ``select`` for its message *i* replays
    it. Send and receive consume the journal through independent
    cursors, so whichever side runs first the pairing is by message
    index — exactly the per-pair FIFO order both sides already share.
    A run-static policy takes the same path; its journal simply repeats
    one scheme.
    """

    def __init__(
        self,
        host: "Host",
        policy: SchemePolicy,
        options: "RcceOptions",
        direct_threshold: Optional[int] = None,
        announce_prefetch: bool = True,
        vdma_fused_mmio: bool = True,
    ):
        super().__init__(options)
        self.host = host
        self.policy = policy
        self.announce_prefetch = announce_prefetch
        self.vdma_fused_mmio = vdma_fused_mmio
        if direct_threshold is not None and policy.static_scheme is None:
            raise ValueError(
                "direct_threshold override needs a static scheme; dynamic "
                "policies carry per-scheme thresholds"
            )
        #: Largest message of each scheme that takes the direct path; -1
        #: (no direct path) without the communication-task extensions.
        self._thresholds: dict[CommScheme, int] = {}
        for scheme in policy.schemes:
            thr = scheme.direct_threshold if direct_threshold is None else direct_threshold
            self._thresholds[scheme] = thr if host.extensions_enabled else -1
        self._direct = DirectSmallTransport()
        #: Every transport the policy may dispatch onto, built up front
        #: and held concurrently (per-route, per-message dispatch).
        self._transports: dict[CommScheme, Transport] = {
            scheme: self._build_cross(scheme) for scheme in policy.schemes
        }
        self._scheme_of = {
            id(transport): scheme for scheme, transport in self._transports.items()
        }
        #: Decision journal: directed pair → the schemes of its messages,
        #: in order.
        self._journal: dict[tuple[int, int], list[CommScheme]] = {}
        #: Per-(pair, op) cursor into the journal.
        self._cursors: dict[tuple[int, int, str], int] = {}
        self._routes: dict[tuple[int, int], Route] = {}
        #: Cross-host routes decided per owner ("src"/"dst").
        self.affinity_decisions: dict[str, int] = {}
        #: Messages routed per transport name (selection happens once per
        #: send/recv, so counting here is off the byte-moving hot path; a
        #: wildcard receive's probes move no message and do not count).
        self.selections: dict[str, int] = {}
        #: Policy decisions per scheme (one count per message).
        self.decisions: dict[CommScheme, int] = {}

    @property
    def wants_feedback(self) -> bool:
        return self.policy.wants_feedback

    def _build_cross(self, scheme: CommScheme) -> Transport:
        if scheme is CommScheme.TRANSPARENT:
            return DefaultGetTransport(name=scheme.value)
        if scheme is CommScheme.LOCAL_PUT_REMOTE_GET:
            # Ablating the prefetch announcement still requires explicit
            # consistency control: the sender invalidates the stale host
            # copy instead (the receiver then demand-fills).
            control = (
                DefaultGetTransport.CACHE_ANNOUNCE
                if self.announce_prefetch
                else DefaultGetTransport.CACHE_INVALIDATE
            )
            return DefaultGetTransport(cache_control=control, name=scheme.value)
        if scheme is CommScheme.REMOTE_PUT_WCB:
            return RemotePutTransport()
        if scheme is CommScheme.HW_ACCEL_REMOTE_PUT:
            return HwAccelRemotePutTransport()
        if scheme is CommScheme.LOCAL_PUT_LOCAL_GET_VDMA:
            return VdmaTransport(self.host, fused_mmio=self.vdma_fused_mmio)
        raise ValueError(f"unknown scheme {scheme}")  # pragma: no cover

    def metrics_snapshot(self) -> dict[str, float]:
        """Selection, decision and host-affinity counts."""
        snapshot = {
            f"scheme.selected{{transport={name}}}": float(count)
            for name, count in sorted(self.selections.items())
        }
        for scheme, count in sorted(self.decisions.items(), key=lambda kv: kv[0].value):
            snapshot[f"policy.decisions{{scheme={scheme.value}}}"] = float(count)
        for owner, count in sorted(self.affinity_decisions.items()):
            snapshot[f"policy.host_affinity{{owner={owner}}}"] = float(count)
        return snapshot

    # -- policy decision journal --------------------------------------------------

    def _route(self, comm: "Rcce", src: int, dst: int) -> Route:
        """The :class:`Route` of a directed pair, built at its first decision.

        A cross-host route's host affinity (the policy's
        ``cross_host_affinity``) is counted and traced when the route is
        built: once per directed pair.
        """
        key = (src, dst)
        route = self._routes.get(key)
        if route is None:
            src_device = comm.layout.placement(src)[0]
            dst_device = comm.layout.placement(dst)[0]
            route = Route(
                src_device=src_device,
                dst_device=dst_device,
                chunk_bytes=comm.comm_buffer_bytes,
                src_host=self.host.host_for(src_device).host_id,
                dst_host=self.host.host_for(dst_device).host_id,
            )
            self._routes[key] = route
            if route.is_cross_host:
                affinity = self.policy.cross_host_affinity
                self.affinity_decisions[affinity] = (
                    self.affinity_decisions.get(affinity, 0) + 1
                )
                tracer = comm.env.sim.tracer
                if tracer.wants("policy"):
                    tracer.emit(
                        comm.env.sim.now, "policy", src, dst,
                        f"host_affinity={affinity}", 0,
                    )
        return route

    def host_affinity_for(
        self, comm: "Rcce", src: int, dst: int
    ) -> Optional[str]:
        """Which host owns a directed pair's copies: ``None`` on a
        same-host route, else the policy's ``cross_host_affinity``."""
        if self._route(comm, src, dst).is_cross_host:
            return self.policy.cross_host_affinity
        return None

    def _decide(
        self, comm: "Rcce", peer: int, nbytes: int, op: str, probe: bool
    ) -> CommScheme:
        """One journaled policy decision for this message.

        Probes (wildcard-receive matching) read — and, for a not yet
        decided message, make and record — the decision without moving
        a cursor: the eventual real ``select`` replays it.
        """
        if op == "send":
            src, dst = comm.rank, peer
        else:
            src, dst = peer, comm.rank
        pair = (src, dst)
        decisions = self._journal.get(pair)
        if decisions is None:
            decisions = self._journal[pair] = []
        cursor_key = (src, dst, op)
        index = self._cursors.get(cursor_key, 0)
        if index < len(decisions):
            scheme = decisions[index]
        else:
            route = self._route(comm, src, dst)
            scheme = self.policy.choose(src, dst, nbytes, route)
            if scheme not in self._transports:
                raise ValueError(
                    f"policy {self.policy.name!r} chose {scheme} which is not "
                    f"in its declared scheme set {self.policy.schemes}"
                )
            decisions.append(scheme)
            self.decisions[scheme] = self.decisions.get(scheme, 0) + 1
            tracer = comm.env.sim.tracer
            if tracer.wants("policy"):
                tracer.emit(
                    comm.env.sim.now, "policy", src, dst, scheme.value, nbytes
                )
        if not probe:
            self._cursors[cursor_key] = index + 1
            if index + 1 >= _JOURNAL_PRUNE:
                self._prune(pair)
        return scheme

    def decide_rpc(self, rank: int, nbytes: int, route: Route) -> CommScheme:
        """One journaled per-RPC scheme decision (:mod:`repro.apps.rpc`).

        RPC dispatch is strictly client→host, so there is no two-sided
        replay to keep consistent — no journal cursor, just the policy
        answer counted into ``policy.decisions{scheme=}`` and traced
        like any other decision.
        """
        scheme = self.policy.rpc_scheme(rank, nbytes, route)
        self.decisions[scheme] = self.decisions.get(scheme, 0) + 1
        tracer = self.host.sim.tracer
        if tracer.wants("policy"):
            tracer.emit(
                self.host.sim.now, "policy", rank, rank,
                f"rpc:{scheme.value}", nbytes,
            )
        return scheme

    def _prune(self, pair: tuple[int, int]) -> None:
        """Drop the journal prefix both cursors have consumed."""
        send_key = (pair[0], pair[1], "send")
        recv_key = (pair[0], pair[1], "recv")
        done = min(self._cursors.get(send_key, 0), self._cursors.get(recv_key, 0))
        if done:
            del self._journal[pair][:done]
            self._cursors[send_key] -= done
            self._cursors[recv_key] -= done

    # -- feedback ------------------------------------------------------------------

    def observe_send(
        self,
        comm: "Rcce",
        peer: int,
        nbytes: int,
        transport: Transport,
        elapsed_ns: float,
    ) -> None:
        """Feed one completed send back to a feedback-driven policy."""
        scheme = self._scheme_of.get(id(transport))
        if scheme is None:  # on-chip or direct path: not a scheme sample
            return
        route = self._route(comm, comm.rank, peer)
        self.policy.observe(route, scheme, nbytes, elapsed_ns)
        registry = self.host.sim.obs
        if registry.enabled and elapsed_ns > 0:
            registry.gauge(
                "policy.route_mbps",
                src=route.src_device,
                dst=route.dst_device,
                scheme=scheme.value,
            ).set(nbytes / elapsed_ns * 1e3)

    # -- selection ----------------------------------------------------------------

    def select(
        self,
        comm: "Rcce",
        peer: int,
        nbytes: int,
        op: str = "send",
        probe: bool = False,
    ) -> Transport:
        if comm.layout.same_device(comm.rank, peer):
            chosen = self._onchip(nbytes)
        else:
            scheme = self._decide(comm, peer, nbytes, op, probe)
            if nbytes <= self._thresholds[scheme]:
                chosen = self._direct
            else:
                chosen = self._transports[scheme]
        if not probe:
            name = chosen.name
            self.selections[name] = self.selections.get(name, 0) + 1
        return chosen
