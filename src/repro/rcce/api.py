"""The RCCE communicator: per-rank handle for message passing.

A :class:`Rcce` instance is one rank's view of the session — bound to a
core's :class:`~repro.scc.core.CoreEnv`, a shared
:class:`~repro.rcce.config.RankLayout` and a
:class:`~repro.rcce.transport.OnChipSelector`. Application programs
are generators that receive their ``Rcce`` and ``yield from`` its
operations::

    def program(comm: Rcce):
        if comm.rank == 0:
            yield from comm.send(payload, dest=1)
        elif comm.rank == 1:
            data = yield from comm.recv(len(payload), src=0)

The non-gory interface is blocking send/recv plus collectives; the gory
one-sided layer is reachable through :attr:`gory`.

Unpinned: ``Rcce._observed`` — collectives with metrics or ``coll``
tracing on, which the observability tests turn on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Union

import numpy as np

from repro.host.mmio import REG_CACHE_INV, REG_MSG_ADDR, REG_MSG_COUNT, REG_MSG_CTRL
from repro.scc.core import CoreEnv
from repro.scc.mpb import MpbAddr
from repro.scc.params import CACHE_LINE

from . import collectives
from .config import RankLayout
from .flags import FlagLayout
from .gory import Gory
from .malloc import MpbAllocator
from .transport import OnChipSelector

__all__ = ["Channel", "RcceOptions", "Rcce"]

Bytes = Union[bytes, bytearray, np.ndarray]


@dataclass(frozen=True)
class RcceOptions:
    """Session-wide protocol configuration (identical on every rank)."""

    #: Use the iRCCE pipelined protocol for on-chip messages larger than
    #: :data:`repro.rcce.transport.PIPELINE_THRESHOLD`.
    pipelined: bool = False
    #: Pipeline packet size; None = half the communication buffer (two
    #: slots). Every communicator checks, when it is built, that two
    #: packets fit its buffer.
    pipeline_packet: Optional[int] = None
    #: Bytes at the top of the MPB payload reserved for gory users
    #: (``RCCE_malloc``); the rest is the send/recv communication buffer.
    user_mpb_bytes: int = 0


class Channel:
    """What one rank keeps for one peer: the pair's half of the handshake.

    The four flag addresses of the pair, the counter streams each way
    (``"sent"`` and ``"ready"`` → last value, 0 before the first) and,
    per transport, the transfer size and slot addresses in the peer's
    buffer. None of it changes for the life of the
    session, so a transfer reads it here instead of resolving it again.
    Built by :meth:`Rcce.channel` at the first message in either
    direction. Layouts in this rank's own buffer are the same for every
    peer and live once per rank, in :attr:`Rcce.own_slots`.
    """

    __slots__ = (
        "out_sent", "out_ready", "in_sent", "in_ready",
        "out_seq", "in_seq", "peer_slots",
    )

    def __init__(self, flags: FlagLayout, me: int, peer: int):
        #: me -> peer: raised in the peer's SF, acknowledged in mine.
        self.out_sent = flags.sent(peer, me)
        self.out_ready = flags.ready(me, peer)
        #: peer -> me: raised in my SF, acknowledged in the peer's.
        self.in_sent = flags.sent(me, peer)
        self.in_ready = flags.ready(peer, me)
        self.out_seq: dict[str, int] = {"sent": 0, "ready": 0}
        self.in_seq: dict[str, int] = {"sent": 0, "ready": 0}
        #: transport -> (transfer bytes, slot addresses in the peer's buffer).
        self.peer_slots: dict = {}


class Rcce:
    """One rank of an RCCE session."""

    def __init__(
        self,
        env: CoreEnv,
        layout: RankLayout,
        options: Optional[RcceOptions] = None,
        selector: Optional[OnChipSelector] = None,
        flags: Optional[FlagLayout] = None,
    ):
        self.env = env
        self.layout = layout
        self.options = options or RcceOptions()
        self.rank = layout.rank_of(env.device.device_id, env.core_id)
        self.flags = flags or FlagLayout(layout, env.params)
        self.selector = selector or OnChipSelector(self.options)

        payload = env.params.mpb_payload_bytes
        user = -(-self.options.user_mpb_bytes // CACHE_LINE) * CACHE_LINE
        if user >= payload:
            raise ValueError(
                f"user_mpb_bytes={self.options.user_mpb_bytes} leaves no room "
                f"for the communication buffer ({payload} B payload)"
            )
        if payload - user < 2 * CACHE_LINE:
            raise ValueError(
                f"user_mpb_bytes={self.options.user_mpb_bytes} leaves a "
                f"{payload - user} B communication buffer; the two-slot "
                f"transports need at least {2 * CACHE_LINE} B"
            )
        self.comm_buffer_bytes = payload - user
        #: One slot of the two-slot transports (vDMA, remote put, iRCCE
        #: pipelining): half the buffer, rounded down to a cache line.
        half = self.comm_buffer_bytes // 2
        self.slot_bytes = half - half % CACHE_LINE
        packet = self.options.pipeline_packet
        if self.options.pipelined and packet and 2 * packet > self.comm_buffer_bytes:
            raise ValueError(
                f"pipeline_packet={packet}: two packets do not fit the "
                f"{self.comm_buffer_bytes} B communication buffer"
            )
        self.user_mpb_base = self.comm_buffer_bytes
        self.user_mpb_bytes = user
        self._alloc = MpbAllocator(user) if user else None
        self._buffer_addrs: dict[int, MpbAddr] = {}  # rank -> offset-0 address
        #: peer rank -> Channel, built at the pair's first message.
        self._channels: dict[int, Channel] = {}
        #: Last value of this rank's vDMA completion stream (its
        #: ``SLOT_VDMA_DONE`` flag, raised by the host's copies).
        self.vdma_done_seq = 0
        #: transport -> (transfer bytes, slot addresses in this rank's
        #: buffer): the sender-first send side, the receiver-first recv side.
        self.own_slots: dict = {}
        #: iRCCE request chains: queue key ("send" or ("recv", src)) ->
        #: the queue's last request process.
        self._nb_chains: dict = {}
        self._topology = None
        self._coll_seq = 0  # per-rank collective call counter (trace spans)
        #: This rank's hierarchical plans, per (collective group, root).
        self._plans: dict = {}

    @property
    def gory(self) -> Gory:
        """This rank's one-sided layer: a stateless view, built per access."""
        return Gory(self)

    # -- identity -----------------------------------------------------------------

    @property
    def num_ranks(self) -> int:
        return self.layout.num_ranks

    @property
    def topology(self):
        """Coordinate queries over this session's rank layout.

        Lazily built (:class:`repro.vscc.topology.FabricTopology`
        imports at first use to avoid a module cycle); single-device sessions
        get a topology whose z dimension is a single plane.
        """
        topo = self._topology
        if topo is None:
            from repro.vscc.topology import FabricTopology

            topo = self._topology = FabricTopology(self.layout, self.env.params)
        return topo

    def comm_buffer_addr(self, rank: int, offset: int = 0) -> MpbAddr:
        """Address of a rank's communication buffer (chunk staging area)."""
        if offset == 0:
            addr = self._buffer_addrs.get(rank)
            if addr is None:
                device, core = self.layout.placement(rank)
                addr = self._buffer_addrs[rank] = MpbAddr(device, core, 0)
            return addr
        device, core = self.layout.placement(rank)
        if not 0 <= offset < self.comm_buffer_bytes:
            raise ValueError(f"offset {offset} outside the communication buffer")
        return MpbAddr(device, core, offset)

    # -- per-peer channels (shared by all transports) ------------------------------------

    def channel(self, peer: int) -> Channel:
        """This rank's :class:`Channel` to ``peer``, built on first use."""
        chan = self._channels.get(peer)
        if chan is None:
            chan = self._channels[peer] = Channel(self.flags, self.rank, peer)
        return chan

    # -- point-to-point -----------------------------------------------------------------

    @staticmethod
    def _as_bytes(data: Bytes) -> np.ndarray:
        """``data``'s bytes as a read-only uint8 array, copied only if
        ``data`` can still change.

        Immutable inputs are shared: a ``bytes`` object is wrapped as is,
        and a read-only one-dimensional uint8 array whose memory a
        ``bytes`` object owns (an earlier result of this method, or a
        view of one) is returned as is. Every other input is copied
        (``tobytes``/``bytes``), so the caller may reuse it at once.
        """
        if isinstance(data, np.ndarray):
            if data.dtype == np.uint8 and data.ndim == 1 and not data.flags.writeable:
                owner = data.base
                while isinstance(owner, np.ndarray):
                    owner = owner.base
                if isinstance(owner, bytes):
                    return data
            return np.frombuffer(data.tobytes(), np.uint8)
        return np.frombuffer(bytes(data), np.uint8)

    def _pending_chain(self, key):
        proc = self._nb_chains.get(key)
        return proc if proc is not None and not proc.finished else None

    # send/recv and the collectives return the generator that does the
    # work instead of wrapping it, so a program resumes the transport
    # with no per-call frame in between; a wrapper is built only where
    # something must happen around the transfer.

    def send(self, data: Bytes, dest: int) -> Generator:
        """Blocking send (returns when the receiver completed its recv).

        Queues behind any pending non-blocking sends of this rank: all
        sends share the MPB staging buffer, so they serialize (iRCCE\'s
        request-queue semantics).
        """
        pending = self._pending_chain("send")
        if pending is None:
            return self._send_now(self._as_bytes(data), dest)
        return self._send_after(pending, data, dest)

    def _send_after(self, pending, data: Bytes, dest: int) -> Generator:
        yield pending
        yield from self._send_now(self._as_bytes(data), dest)

    def _send_now(self, payload: np.ndarray, dest: int) -> Generator:
        if dest == self.rank:
            raise ValueError("a rank cannot send to itself")
        self.layout.record_traffic(self.rank, dest, len(payload))
        transport = self.selector.select(self, dest, len(payload), op="send")
        if self.selector.wants_feedback:
            return self._send_observed(transport, payload, dest)
        return transport.send(self, dest, payload)

    def _send_observed(self, transport, payload: np.ndarray, dest: int) -> Generator:
        started = self.env.sim.now
        yield from transport.send(self, dest, payload)
        self.selector.observe_send(
            self, dest, len(payload), transport, self.env.sim.now - started
        )

    def recv(self, nbytes: int, src: int) -> Generator:
        """Blocking receive of exactly ``nbytes``; returns a uint8 array.

        Queues behind any pending non-blocking receives *from the same
        source* (per-pair ordering; receives from other sources are
        independent — they drain the senders' buffers).
        """
        pending = self._pending_chain(("recv", src))
        if pending is None:
            return self._recv_now(nbytes, src)
        return self._recv_after(pending, nbytes, src)

    def _recv_after(self, pending, nbytes: int, src: int) -> Generator:
        yield pending
        data = yield from self._recv_now(nbytes, src)
        return data

    def _recv_now(self, nbytes: int, src: int) -> Generator:
        if src == self.rank:
            raise ValueError("a rank cannot receive from itself")
        if nbytes < 0:
            raise ValueError(f"negative receive size {nbytes}")
        transport = self.selector.select(self, src, nbytes, op="recv")
        return transport.recv(self, src, nbytes)

    # -- collectives -----------------------------------------------------------------------

    def _coll_impl(self, hierarchical: bool):
        """(implementation module, impl label) for one collective call:
        the tiered :mod:`repro.rcce.hierarchical` walk or the flat trees."""
        if hierarchical:
            from . import hierarchical as impl

            return impl, "hier"
        return collectives, "flat"

    def _run_collective(self, op_name: str, impl_name: str, gen) -> Generator:
        """Drive one collective, emitting ``coll.*`` metrics and "coll"
        trace spans when observability is on.

        With both off, the collective's own generator is returned: the
        caller resumes it with no wrapper frame in between.
        """
        sim = self.env.sim
        if not (sim.obs.enabled or sim.tracer.wants("coll")):
            return gen
        return self._observed(op_name, impl_name, gen)

    def _observed(self, op_name: str, impl_name: str, gen) -> Generator:
        tracer = self.env.sim.tracer
        registry = self.env.sim.obs
        seq = self._coll_seq
        self._coll_seq += 1
        started = self.env.sim.now
        if tracer.wants("coll"):
            tracer.emit(started, "coll", self.rank, op_name, impl_name, "start", seq)
        result = yield from gen
        now = self.env.sim.now
        if tracer.wants("coll"):
            tracer.emit(now, "coll", self.rank, op_name, impl_name, "done", seq)
        if registry.enabled:
            registry.counter("coll.calls", op=op_name, impl=impl_name).inc()
            registry.histogram(
                "coll.latency_ns", op=op_name, impl=impl_name
            ).observe(now - started)
        return result

    def barrier(
        self,
        group_size: Optional[int] = None,
        members: Optional[list] = None,
        hierarchical: bool = False,
    ) -> Generator:
        mod, impl = self._coll_impl(hierarchical)
        return self._run_collective(
            "barrier", impl, mod.barrier(self, group_size, members=members)
        )

    def bcast(
        self,
        data: Optional[Bytes],
        nbytes: int,
        root: int,
        group_size: Optional[int] = None,
        members: Optional[list] = None,
        hierarchical: bool = False,
    ) -> Generator:
        payload = None if data is None else self._as_bytes(data)
        mod, impl = self._coll_impl(hierarchical)
        return self._run_collective(
            "bcast",
            impl,
            mod.bcast(self, payload, nbytes, root, group_size, members=members),
        )

    def reduce(
        self,
        values: np.ndarray,
        op=np.add,
        root: int = 0,
        group_size: Optional[int] = None,
        members: Optional[list] = None,
        hierarchical: bool = False,
    ) -> Generator:
        mod, impl = self._coll_impl(hierarchical)
        return self._run_collective(
            "reduce",
            impl,
            mod.reduce(self, values, op, root, group_size, members=members),
        )

    def allreduce(
        self,
        values: np.ndarray,
        op=np.add,
        group_size: Optional[int] = None,
        members: Optional[list] = None,
        hierarchical: bool = False,
    ) -> Generator:
        mod, impl = self._coll_impl(hierarchical)
        return self._run_collective(
            "allreduce",
            impl,
            mod.allreduce(self, values, op, group_size, members=members),
        )

    def gather(
        self,
        value: Bytes,
        root: int,
        group_size: Optional[int] = None,
        members: Optional[list] = None,
        hierarchical: bool = False,
    ) -> Generator:
        mod, impl = self._coll_impl(hierarchical)
        return self._run_collective(
            "gather",
            impl,
            mod.gather(self, value, root, group_size, members=members),
        )

    # -- gory-layer allocator ----------------------------------------------------------------

    def malloc(self, size: int) -> int:
        """Collective symmetric MPB allocation (call on every rank)."""
        if self._alloc is None:
            raise RuntimeError(
                "no user MPB area: construct the session with "
                "RcceOptions(user_mpb_bytes=...)"
            )
        return self._alloc.malloc(size)

    def mfree(self, offset: int) -> None:
        if self._alloc is None:
            raise RuntimeError("no user MPB area configured")
        self._alloc.free(offset)

    # -- vSCC host cooperation (used by inter-device transports) -------------------------------

    def announce_prefetch(self, nbytes: int) -> Generator:
        """Tell the communication task where the pending chunk lives.

        Three MSG registers in one 32 B block — the WCB fuses the writes
        into a single transaction, like the vDMA programming sequence.
        """
        yield from self.env.device.fabric.mmio_write(
            self.env,
            [
                (REG_MSG_ADDR, 0),
                (REG_MSG_COUNT, nbytes),
                (REG_MSG_CTRL, ("prefetch",)),
            ],
            fused=True,
        )

    def announce_wcb_open(self, dst_addr: MpbAddr, nbytes: int) -> Generator:
        """Open a host write-combining stream toward ``dst_addr`` (Fig 4c)."""
        yield from self.env.device.fabric.wcb_open(self.env, dst_addr, nbytes)

    def cache_invalidate(self) -> Generator:
        """Invalidate the host's stale copy of my MPB (§3.1).

        "The sender that writes to a local MPB explicitly invalidates
        the outdated part of the host copy" — mandatory under the
        relaxed consistency of the software cache whenever the buffer is
        rewritten without a new announcement.
        """
        yield from self.env.mmio_write(REG_CACHE_INV, 1)
