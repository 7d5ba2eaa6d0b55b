"""Point-to-point transports: the protocol engines behind send/recv.

A :class:`Transport` implements one communication scheme for one
(sender, receiver) pair; the :class:`TransportSelector` picks the right
one per message from locality (same device?), message size and the
configured scheme. RCCE's default blocking protocol — *local-put /
remote-get*, Fig 2a of the paper — lives here; the pipelined iRCCE
protocol is :mod:`repro.ircce.pipeline`; the inter-device schemes are
:mod:`repro.vscc.protocol`.

Chunk/packet sequencing uses one-byte counter flags cycling 1…254 (see
:mod:`repro.rcce.flags`); sender and receiver advance their per-directed-
pair counters in lockstep, so no flag resets are needed.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Generator

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .api import Rcce

__all__ = [
    "PIPELINE_THRESHOLD",
    "Transport",
    "TransportSelector",
    "DefaultGetTransport",
    "OnChipSelector",
]

#: Message size above which a pipelined session (``RcceOptions.pipelined``)
#: switches on-chip sends to the iRCCE protocol (paper §4.1: 4 kB).
PIPELINE_THRESHOLD = 4096


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


class TransportSelector(abc.ABC):
    """Chooses a transport per message; both end points must agree.

    Selection may only depend on information both sides share: the rank
    layout, the message size and the system-wide configuration — never
    on one side's private state. Stateful (policy-driven) selectors keep
    the agreement via a decision journal; ``op`` tells such a selector
    which side of the message is asking, and ``probe`` marks a
    speculative lookup (wildcard-receive matching) that must not consume
    a journal slot.
    """

    #: Whether the communicator should time completed sends and call
    #: :meth:`observe_send` — only feedback-driven selectors pay for it.
    wants_feedback = False

    @abc.abstractmethod
    def select(
        self,
        comm: "Rcce",
        peer: int,
        nbytes: int,
        op: str = "send",
        probe: bool = False,
    ) -> Transport:
        ...

    def observe_send(
        self,
        comm: "Rcce",
        peer: int,
        nbytes: int,
        transport: Transport,
        elapsed_ns: float,
    ) -> None:
        """Feedback hook: one completed send's transport and duration."""


class DefaultGetTransport(Transport):
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

    def send(self, comm: "Rcce", dest: int, data: np.ndarray) -> Generator:
        env = comm.env
        fl = comm.flags
        me = comm.rank
        trace = env.sim.tracer
        tracing = trace.wants("protocol")
        buf = comm.comm_buffer_addr(me)
        # Flag addresses are loop-invariant per (me, dest) pair — resolve
        # them once instead of per chunk.
        sent_flag = fl.sent(dest, me)
        ready_flag = fl.ready(me, dest)
        for index, (start, chunk) in enumerate(comm.iter_chunks(data)):
            seq = comm.next_seq(me, dest, "sent")
            ack = comm.next_seq(me, dest, "ready")
            if len(chunk):
                if tracing:
                    trace.emit(env.sim.now, "protocol", me, "send", "put_start", index)
                yield from env.put_chunk(buf, chunk)
                if tracing:
                    trace.emit(env.sim.now, "protocol", me, "send", "put_done", index)
                if self.cache_control == self.CACHE_ANNOUNCE:
                    yield from comm.announce_prefetch(len(chunk))
                elif self.cache_control == self.CACHE_INVALIDATE:
                    yield from comm.cache_invalidate()
            yield from env.set_flag(sent_flag, seq)
            if tracing:
                trace.emit(env.sim.now, "protocol", me, "send", "flag_set", index)
            yield from env.wait_flag(ready_flag, ack)
            if tracing:
                trace.emit(env.sim.now, "protocol", me, "send", "ack_seen", index)

    def recv(self, comm: "Rcce", src: int, nbytes: int) -> Generator:
        env = comm.env
        fl = comm.flags
        me = comm.rank
        trace = env.sim.tracer
        tracing = trace.wants("protocol")
        src_buf = comm.comm_buffer_addr(src)
        sent_flag = fl.sent(me, src)
        ready_flag = fl.ready(src, me)
        out = np.empty(nbytes, np.uint8)
        for index, (start, size) in enumerate(comm.iter_chunk_sizes(nbytes)):
            seq = comm.next_seq(src, me, "sent")
            ack = comm.next_seq(src, me, "ready")
            yield from env.wait_flag(sent_flag, seq)
            if size:
                if tracing:
                    trace.emit(env.sim.now, "protocol", me, "recv", "get_start", index)
                chunk = yield from env.get_chunk(src_buf, size)
                out[start : start + size] = chunk
                if tracing:
                    trace.emit(env.sim.now, "protocol", me, "recv", "get_done", index)
            yield from env.set_flag(ready_flag, ack)
        return out


class OnChipSelector(TransportSelector):
    """Selector for single-device sessions (plain RCCE / iRCCE).

    Uses the default protocol, switching to the pipelined iRCCE protocol
    above the 4 kB threshold when the session was configured with
    ``pipelined=True``.
    """

    def __init__(self, options) -> None:
        from repro.ircce.pipeline import PipelinedTransport  # local import: cycle

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
