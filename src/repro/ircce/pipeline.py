"""iRCCE's pipelined blocking protocol (paper Fig 2b).

The MPB communication buffer is split into two slots; the sender fills
slot ``k mod 2`` while the receiver drains slot ``(k-1) mod 2``,
interleaving put and get operations. "The pipelined protocol of iRCCE
introduces additional overhead by using a finer synchronization
granularity, but provides the advantage of interleaving put and get
operations" (§2.2) — throughput approaches the slower of the two copy
phases instead of their sum.

Flag discipline: one ``sent``/``ready`` counter pair per directed pair
(same flags as the default protocol), advanced once per *packet*. The
protocol keeps the sender at most one packet ahead of the receiver's
wait, so a wait accepts the expected counter value *or its successor* —
wrap-safe with single-byte counters and no extra flag space.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

import numpy as np

from repro.rcce.flags import FlagLayout
from repro.rcce.transport import Transport
from repro.scc.params import CACHE_LINE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.rcce.api import Rcce

__all__ = ["PipelinedTransport"]


def _accepts(expected: int):
    """Predicate: counter reached ``expected`` (may already be one ahead)."""
    successor = FlagLayout.next_seq(expected)
    return lambda v: v == expected or v == successor


class PipelinedTransport(Transport):
    """Two-slot pipelined put/get protocol."""

    name = "ircce-pipelined"

    def __init__(self, packet_bytes: Optional[int] = None):
        if packet_bytes is not None:
            if packet_bytes <= 0 or packet_bytes % CACHE_LINE:
                raise ValueError(
                    f"packet size must be a positive multiple of {CACHE_LINE}, "
                    f"got {packet_bytes}"
                )
        self.packet_bytes = packet_bytes

    def _packet(self, comm: "Rcce") -> int:
        if self.packet_bytes is not None:
            packet = self.packet_bytes
        else:
            packet = comm.slot_bytes
        if 2 * packet > comm.comm_buffer_bytes:
            raise ValueError(
                f"two packets of {packet} B do not fit the "
                f"{comm.comm_buffer_bytes} B communication buffer"
            )
        return packet

    def send(self, comm: "Rcce", dest: int, data: np.ndarray) -> Generator:
        env = comm.env
        fl = comm.flags
        me = comm.rank
        packet = self._packet(comm)
        nbytes = len(data)
        npackets = max(1, -(-nbytes // packet))
        seqs = [comm.next_seq(me, dest, "sent") for _ in range(npackets)]
        acks = [comm.next_seq(me, dest, "ready") for _ in range(npackets)]
        # Ack predicates and the two slot addresses are pure functions of
        # the packet plan — build them once, not per packet.
        ack_preds = [_accepts(ack) for ack in acks[: max(0, npackets - 2)]]
        ready = fl.ready(me, dest)
        sent = fl.sent(dest, me)
        slots = (
            comm.comm_buffer_addr(me, 0),
            comm.comm_buffer_addr(me, packet),
        )
        trace = env.sim.tracer
        tracing = trace.wants("protocol")
        for k in range(npackets):
            if k >= 2:
                # Slot k%2 is free once packet k-2 was acknowledged.
                yield from env.wait_flag_pred(ready, ack_preds[k - 2])
            start = k * packet
            chunk = data[start : min(start + packet, nbytes)]
            if len(chunk):
                if tracing:
                    trace.emit(env.sim.now, "protocol", me, "send", "put_start", k)
                yield from env.put_chunk(slots[k % 2], chunk)
                if tracing:
                    trace.emit(env.sim.now, "protocol", me, "send", "put_done", k)
            yield from env.set_flag(sent, seqs[k])
        # Drain the tail: the final ack means the receiver has everything.
        yield from env.wait_flag(ready, acks[-1])

    def recv(self, comm: "Rcce", src: int, nbytes: int) -> Generator:
        env = comm.env
        fl = comm.flags
        me = comm.rank
        packet = self._packet(comm)
        npackets = max(1, -(-nbytes // packet))
        seqs = [comm.next_seq(src, me, "sent") for _ in range(npackets)]
        acks = [comm.next_seq(src, me, "ready") for _ in range(npackets)]
        seq_preds = [_accepts(seq) for seq in seqs]
        sent = fl.sent(me, src)
        ready = fl.ready(src, me)
        slots = (
            comm.comm_buffer_addr(src, 0),
            comm.comm_buffer_addr(src, packet),
        )
        trace = env.sim.tracer
        tracing = trace.wants("protocol")
        out = np.empty(nbytes, np.uint8)
        for k in range(npackets):
            yield from env.wait_flag_pred(sent, seq_preds[k])
            start = k * packet
            size = min(packet, nbytes - start)
            if size > 0:
                if tracing:
                    trace.emit(env.sim.now, "protocol", me, "recv", "get_start", k)
                chunk = yield from env.get_chunk(slots[k % 2], size)
                out[start : start + size] = chunk
                if tracing:
                    trace.emit(env.sim.now, "protocol", me, "recv", "get_done", k)
            yield from env.set_flag(ready, acks[k])
        return out
