"""iRCCE non-blocking extension: isend/irecv with request handles.

iRCCE adds non-blocking point-to-point operations to RCCE [4]. In the
original C library, progress happens inside ``iRCCE_test``/``_wait``
(and explicit ``_push`` calls); in the simulation a request runs as its
own simulator process, which models an ideal progress engine — overlap
of communication and computation is *upper-bounded* rather than
dependent on push-call placement (DESIGN.md §6).

All of a rank's non-blocking *sends* are chained FIFO on one queue:
every send stages its chunks in the single MPB communication buffer, so
two interleaved sends would corrupt each other's staging area (iRCCE's
send queue makes progress one request at a time for the same reason).
*Receives* chain per source — they read from the senders' buffers, so
receives from different sources progress concurrently while per-pair
ordering is preserved. Blocking operations issued while requests are
pending queue behind them (see :meth:`repro.rcce.api.Rcce.send`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Union

import numpy as np

from repro.rcce.flags import FlagLayout, reached
from repro.sim.engine import Process

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.rcce.api import Rcce

__all__ = [
    "CommRequest",
    "irecv",
    "isend",
    "recv_any_source",
    "wait_all",
    "wait_any",
]

Bytes = Union[bytes, bytearray, np.ndarray]


class CommRequest:
    """Handle for an in-flight non-blocking operation."""

    def __init__(self, proc: Process):
        self._proc = proc

    def test(self) -> bool:
        """Non-blocking completion probe (``iRCCE_test``)."""
        return self._proc.finished

    def wait(self) -> Generator:
        """Block until completion; returns the received data for irecv."""
        result = yield self._proc
        return result

    @property
    def result(self):
        return self._proc.result


def _chained(comm: "Rcce", key, peer: int, body) -> Process:
    """Run ``body`` after every earlier same-queue request finished."""
    chains = comm._nb_chains
    prev = chains.get(key)

    def run() -> Generator:
        if prev is not None and not prev.finished:
            yield prev
        result = yield from body()
        return result

    proc = comm.env.sim.spawn(run(), name=f"ircce:{key}.r{comm.rank}-p{peer}")
    chains[key] = proc
    return proc


def isend(comm: "Rcce", data: Bytes, dest: int) -> CommRequest:
    """Start a non-blocking send; complete it with ``request.wait()``."""
    # ``_as_bytes`` copies every payload that can still change and shares
    # only immutable ones, so the caller may reuse its buffer at once.
    payload = comm._as_bytes(data)

    def body() -> Generator:
        yield from comm._send_now(payload, dest)

    return CommRequest(_chained(comm, "send", dest, body))


def irecv(comm: "Rcce", nbytes: int, src: int) -> CommRequest:
    """Start a non-blocking receive; ``request.wait()`` yields the data."""

    def body() -> Generator:
        data = yield from comm._recv_now(nbytes, src)
        return data

    return CommRequest(_chained(comm, ("recv", src), src, body))


def wait_all(requests: list[CommRequest]) -> Generator:
    """Wait for every request; returns their results in order."""
    results = []
    for request in requests:
        results.append((yield from request.wait()))
    return results


def wait_any(comm: "Rcce", requests: list[CommRequest]) -> Generator:
    """Wait until at least one request completed; returns its index.

    iRCCE's wait-list functionality (``iRCCE_wait_any``): the caller
    parks until any of the outstanding requests finishes, then typically
    handles it and re-enters the wait with the rest.
    """
    if not requests:
        raise ValueError("wait_any needs at least one request")
    for index, request in enumerate(requests):
        if request.test():
            return index
    gate = comm.env.sim.event(name="ircce.wait_any")

    def arm(index: int):
        def wake(_value) -> None:
            if not gate.triggered:
                gate.trigger(index)

        return wake

    for index, request in enumerate(requests):
        request._proc.done.on_trigger(arm(index))
    index = yield gate
    return index


def recv_any_source(
    comm: "Rcce", nbytes: int, sources: list[int]
) -> Generator:
    """Blocking receive from *any* of the given sources (wildcard recv).

    Matches on the first protocol event of the incoming message — the
    sender's ``sent``-flag write — by probing the caller's local flag
    array, exactly how iRCCE's ``iRCCE_ANY_SOURCE`` works. Returns
    ``(source, data)``.

    Only transports whose sender moves first
    (:attr:`~repro.rcce.transport.Transport.sender_first`) can be
    matched this way: on-chip protocols and the transparent/cached
    inter-device schemes qualify; rendezvous schemes (remote-put, vDMA,
    direct small messages) need the receiver to act first and raise.
    """
    if not sources:
        raise ValueError("recv_any_source needs candidate sources")
    for src in sources:
        transport = comm.selector.select(comm, src, nbytes, op="recv", probe=True)
        if not transport.sender_first:
            raise NotImplementedError(
                f"wildcard receive cannot match rendezvous transport "
                f"{transport.name!r} (source {src}): the receiver must "
                "grant its buffer before the sender can move"
            )
    env = comm.env
    specs = []
    for src in sources:
        # Peek at the next value of the (src -> me) "sent" stream without
        # consuming it; the transport consumes it during recv.
        chan = comm.channel(src)
        specs.append((chan.in_sent, reached(FlagLayout.next_seq(chan.in_seq["sent"]))))
    index = yield from env.wait_any_flag(specs)
    source = sources[index]
    data = yield from comm.recv(nbytes, source)
    return source, data
