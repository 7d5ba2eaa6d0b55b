"""Point-to-point transports: the protocol engines behind send/recv.

A :class:`Transport` implements one communication scheme for one
(sender, receiver) pair; the :class:`OnChipSelector` picks the right
one per message from locality (same device?), message size and the
configured scheme.

:class:`RendezvousTransport` is the one send/recv loop pair of the
paper's counter-flag handshake. It is parameterized by whose buffer
holds the data (``sender_first``) and how many slots it has, and its
subclasses supply only the put step: RCCE's default *local-put /
remote-get* protocol (Fig 2a, also the transparent and cached-get
inter-device schemes), iRCCE's pipelined protocol (Fig 2b, re-exported
by :mod:`repro.ircce`) and the stop-and-wait rendezvous of the
direct and remote-put schemes in :mod:`repro.vscc.protocol`.

Transfer sequencing uses one-byte counter flags cycling 1…254 (see
:mod:`repro.rcce.flags`); sender and receiver advance their per-directed-
pair counters in lockstep, so no flag resets are needed. Each side keeps
its flags, counters and the slot addresses in the peer's buffer in one
:class:`~repro.rcce.api.Channel`, resolved at the pair's first message;
the slot addresses in its own buffer, the same for every peer, it keeps
once (``Rcce.own_slots``).

Unpinned: ``Transport.send``/``recv`` — the abstract interface; every
transport overrides both.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Generator, Optional

import numpy as np

from repro.scc.params import CACHE_LINE

from .flags import SEQ_MOD, reached

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .api import Rcce

__all__ = [
    "PIPELINE_THRESHOLD",
    "Transport",
    "DefaultGetTransport",
    "OnChipSelector",
    "PipelinedTransport",
    "RendezvousTransport",
]

#: Message size above which a pipelined session (``RcceOptions.pipelined``)
#: switches on-chip sends to the iRCCE protocol (paper §4.1: 4 kB).
PIPELINE_THRESHOLD = 4096

#: ``reached(value, 2)`` per counter value (index 0 unused): the
#: two-slot waits accept one value of lead, and no transfer allocates
#: its predicate.
_ONE_AHEAD = (None,) + tuple(reached(value, 2) for value in range(1, SEQ_MOD + 1))


class Transport(abc.ABC):
    """One protocol for moving a message between two specific ranks."""

    #: short identifier used in traces, metrics and error messages
    name = "abstract"

    #: Whether the sender moves first: its ``sent``-flag write is the
    #: message's first protocol event, so a wildcard receive can match
    #: on it. Rendezvous protocols, where the receiver first grants its
    #: buffer, set this ``False``.
    sender_first = True

    @abc.abstractmethod
    def send(self, comm: "Rcce", dest: int, data: np.ndarray) -> Generator:
        """Blocking send: returns when the receiver has the full message."""

    @abc.abstractmethod
    def recv(self, comm: "Rcce", src: int, nbytes: int) -> Generator:
        """Blocking receive: returns the message as a uint8 ndarray."""


class RendezvousTransport(Transport):
    """The counter-flag handshake behind every point-to-point protocol.

    A message moves in transfers of one slot each. The buffer belongs to
    the sender when :attr:`sender_first` is set (RCCE's local put /
    remote get) and to the receiver otherwise, in which case the
    receiver grants it before every transfer (b1 of Fig 4d). Per
    transfer ``k`` the sender puts the bytes into slot ``k % slots``
    (:meth:`_put`, the step subclasses replace) and raises ``sent``
    (b2); the receiver drains the slot and acknowledges on ``ready``.
    The sender reuses a slot once the transfer that last held it was
    acknowledged: an exact flag match for one slot, a ``reached``
    predicate for two, where it may run one transfer ahead. Each side
    is a plain generator, so a suspended one is its message's cursor.
    """

    #: Transfers the buffer holds at once: 1 (stop-and-wait) or 2
    #: (double-buffered, iRCCE's pipelining).
    slots = 1

    def _transfer_bytes(self, comm: "Rcce") -> int:
        """Bytes of one transfer (one slot)."""
        return comm.comm_buffer_bytes

    def _put(self, comm: "Rcce", addr, chunk: np.ndarray) -> Generator:
        """The generator moving one transfer from private memory into the
        slot at ``addr``; by default RCCE's local put into the sender's
        own MPB. Returned rather than delegated to, so it adds no
        generator layer per transfer."""
        return comm.env.put_chunk(addr, chunk)

    def _slots(self, comm: "Rcce", owner: int) -> tuple[int, tuple]:
        """Transfer size and the slot addresses in ``owner``'s buffer."""
        step = self._transfer_bytes(comm)
        first = comm.comm_buffer_addr(owner)
        if self.slots == 1:
            return step, (first,)
        return step, (first, comm.comm_buffer_addr(owner, step))

    def send(self, comm: "Rcce", dest: int, data: np.ndarray) -> Generator:
        env, me = comm.env, comm.rank
        trace = env.sim.tracer
        tracing = trace.wants("protocol")
        slots = self.slots
        # Stop-and-wait timelines (Fig 2a) also mark flag writes and acks.
        marks = tracing and slots == 1
        granted = not self.sender_first
        chan = comm.channel(dest)
        sent, ready, seqs = chan.out_sent, chan.out_ready, chan.out_seq
        cache = chan.peer_slots if granted else comm.own_slots
        layout = cache.get(self)
        if layout is None:
            layout = cache[self] = self._slots(comm, dest if granted else me)
        step, addrs = layout
        nbytes = len(data)
        acks = [0] * slots  # per slot: the ack of the last transfer it held
        for k, start in enumerate(range(0, nbytes or 1, step)):
            slot = k % slots
            if k >= slots:
                # The slot is free once transfer k - slots was acknowledged.
                if slots == 1:
                    yield from env.wait_flag(ready, acks[slot])
                    if marks:
                        trace.emit(env.sim.now, "protocol", me, "send", "ack_seen", k - 1)
                else:
                    yield from env.wait_flag_pred(ready, _ONE_AHEAD[acks[slot]])
            if granted:
                grant = seqs["ready"] = seqs["ready"] % SEQ_MOD + 1
                yield from env.wait_flag(ready, grant)  # b1
            seq = seqs["sent"] = seqs["sent"] % SEQ_MOD + 1
            acks[slot] = seqs["ready"] = seqs["ready"] % SEQ_MOD + 1
            if start < nbytes:
                if tracing:
                    trace.emit(env.sim.now, "protocol", me, "send", "put_start", k)
                yield from self._put(comm, addrs[slot], data[start : start + step])
                if tracing:
                    trace.emit(env.sim.now, "protocol", me, "send", "put_done", k)
            yield from env.set_flag(sent, seq)  # b2: data ready
            if marks:
                trace.emit(env.sim.now, "protocol", me, "send", "flag_set", k)
        # Drain the tail: the final ack means the receiver has everything.
        yield from env.wait_flag(ready, acks[slot])
        if marks:
            trace.emit(env.sim.now, "protocol", me, "send", "ack_seen", k)

    def recv(self, comm: "Rcce", src: int, nbytes: int) -> Generator:
        env, me = comm.env, comm.rank
        trace = env.sim.tracer
        tracing = trace.wants("protocol")
        slots = self.slots
        granted = not self.sender_first
        chan = comm.channel(src)
        sent, ready, seqs = chan.in_sent, chan.in_ready, chan.in_seq
        cache = comm.own_slots if granted else chan.peer_slots
        layout = cache.get(self)
        if layout is None:
            layout = cache[self] = self._slots(comm, me if granted else src)
        step, addrs = layout
        out = np.empty(nbytes, np.uint8)
        for k, start in enumerate(range(0, nbytes or 1, step)):
            if granted:
                grant = seqs["ready"] = seqs["ready"] % SEQ_MOD + 1
                yield from env.set_flag(ready, grant)  # b1
            seq = seqs["sent"] = seqs["sent"] % SEQ_MOD + 1
            ack = seqs["ready"] = seqs["ready"] % SEQ_MOD + 1
            if slots == 1:
                yield from env.wait_flag(sent, seq)
            else:
                # The sender may already have raised the next value.
                yield from env.wait_flag_pred(sent, _ONE_AHEAD[seq])
            size = min(step, nbytes - start)
            if size > 0:
                if tracing:
                    trace.emit(env.sim.now, "protocol", me, "recv", "get_start", k)
                chunk = yield from env.get_chunk(addrs[k % slots], size)
                out[start : start + size] = chunk
                if tracing:
                    trace.emit(env.sim.now, "protocol", me, "recv", "get_done", k)
            yield from env.set_flag(ready, ack)
        return out


class DefaultGetTransport(RendezvousTransport):
    """RCCE's default blocking protocol: local-put / remote-get (Fig 2a).

    Per chunk (the MPB payload size): the sender copies the chunk from
    private memory into its *own* MPB, toggles the ``sent`` flag at the
    receiver, and waits for the receiver's ``ready`` acknowledgement;
    the receiver polls its local ``sent`` flag, invalidates MPBT lines,
    pulls the chunk out of the sender's MPB, and acknowledges. "A
    strength of this communication scheme is that each core exclusively
    writes to its local communication buffer" (§2.2).

    The same code drives the transparent inter-device baseline and the
    host-cached scheme — the gory operations route through the fabric,
    which is exactly how the paper layers it. Those instances carry
    their scheme's name, so selection metrics tell them apart from
    on-chip messages.
    """

    #: Host-cache consistency policies for cross-device sessions: the
    #: intermediate copy is non-coherent, so after rewriting its MPB the
    #: sender must either announce the new message (prefetch + implicit
    #: update, §3.2) or explicitly invalidate the stale host copy
    #: (§3.1). ``"none"`` is only sound when no host cache exists
    #: (on-chip sessions, transparent routing).
    CACHE_ANNOUNCE = "announce"
    CACHE_INVALIDATE = "invalidate"
    CACHE_NONE = "none"

    def __init__(self, cache_control: str = CACHE_NONE, name: str = "rcce-default"):
        if cache_control not in (self.CACHE_ANNOUNCE, self.CACHE_INVALIDATE, self.CACHE_NONE):
            raise ValueError(f"unknown cache control {cache_control!r}")
        self.cache_control = cache_control
        self.name = name

    def _put(self, comm: "Rcce", addr, chunk: np.ndarray) -> Generator:
        put = comm.env.put_chunk(addr, chunk)
        if self.cache_control == self.CACHE_NONE:
            return put
        return self._put_consistent(comm, put, len(chunk))

    def _put_consistent(self, comm: "Rcce", put: Generator, nbytes: int) -> Generator:
        """The local put, then the host cache's consistency step."""
        yield from put
        if self.cache_control == self.CACHE_ANNOUNCE:
            yield from comm.announce_prefetch(nbytes)
        else:
            yield from comm.cache_invalidate()


class PipelinedTransport(RendezvousTransport):
    """iRCCE's pipelined blocking protocol (Fig 2b).

    The sender's buffer is split into two packet-sized slots: the sender
    fills slot ``k % 2`` while the receiver drains slot ``(k - 1) % 2``,
    so put and get interleave. "The pipelined protocol of iRCCE
    introduces additional overhead by using a finer synchronization
    granularity, but provides the advantage of interleaving put and get
    operations" (§2.2): throughput approaches the slower of the two copy
    phases instead of their sum. The packet is half the buffer unless
    ``RcceOptions.pipeline_packet`` sets it; the communicator checks at
    construction that two packets fit.
    """

    name = "ircce-pipelined"
    slots = 2

    def __init__(self, packet_bytes: Optional[int] = None):
        if packet_bytes is not None:
            if packet_bytes <= 0 or packet_bytes % CACHE_LINE:
                raise ValueError(
                    f"packet size must be a positive multiple of {CACHE_LINE}, "
                    f"got {packet_bytes}"
                )
        self.packet_bytes = packet_bytes

    def _transfer_bytes(self, comm: "Rcce") -> int:
        return self.packet_bytes or comm.slot_bytes


class OnChipSelector:
    """Chooses a transport per message; both end points must agree.

    This is the selector of single-device sessions (plain RCCE / iRCCE):
    the default protocol, switching to the pipelined iRCCE protocol
    above the 4 kB threshold when the session was configured with
    ``pipelined=True``. :class:`repro.vscc.protocol.VsccSelector`
    extends it with the inter-device schemes.

    Selection may only depend on information both sides share: the rank
    layout, the message size and the system-wide configuration — never
    on one side's private state. Stateful (policy-driven) selectors keep
    the agreement via a decision journal; ``op`` tells such a selector
    which side of the message is asking, and ``probe`` marks a
    speculative lookup (wildcard-receive matching) that must not consume
    a journal slot.
    """

    #: Whether the communicator should time completed sends and call the
    #: selector's ``observe_send`` — only feedback-driven selectors
    #: (:class:`repro.vscc.protocol.VsccSelector` under a feedback policy)
    #: define it and pay for it.
    wants_feedback = False

    def __init__(self, options) -> None:
        self.options = options
        self._default = DefaultGetTransport()
        self._pipelined = PipelinedTransport(packet_bytes=options.pipeline_packet)

    def _onchip(self, nbytes: int) -> Transport:
        """The on-chip protocol of an ``nbytes`` message."""
        if self.options.pipelined and nbytes > PIPELINE_THRESHOLD:
            return self._pipelined
        return self._default

    def select(
        self,
        comm: "Rcce",
        peer: int,
        nbytes: int,
        op: str = "send",
        probe: bool = False,
    ) -> Transport:
        if not comm.layout.same_device(comm.rank, peer):
            raise RuntimeError(
                "this session spans multiple devices but was built with the "
                "on-chip selector; use repro.vscc.VSCCSystem for a scheme-aware "
                "selector"
            )
        return self._onchip(nbytes)
