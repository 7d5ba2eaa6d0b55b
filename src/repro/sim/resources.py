"""Shared-resource model: the FIFO link.

:class:`Link` is the workhorse of the whole timing model. Every physical
transport in vSCC — a mesh path between two tiles, the SIF-to-PCIe pipe,
the host memory bus — is a Link with three parameters:

* ``latency_ns``   — time-of-flight of the *first* byte,
* ``bandwidth_bpns``— serialization rate in bytes per nanosecond,
* ``overhead_ns``  — fixed per-transfer cost (packet header, DMA setup).

A Link serializes transfers FIFO: a transfer occupies the link for
``overhead + nbytes/bandwidth`` starting when the link becomes free, and
*arrives* one latency later. This queuing model makes pipelining effects
(the heart of the paper's optimizations) emerge naturally: back-to-back
posted transfers overlap their latencies.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from .engine import Event, Simulator

__all__ = ["Link"]


class Link:
    """A FIFO latency/bandwidth pipe (one direction).

    Two usage styles:

    * ``yield from link.transfer(n)`` — the calling process blocks until
      the data has fully *arrived* at the far end (a synchronous hop).
    * ``done = link.post(n)``         — fire-and-forget; returns an
      :class:`Event` triggered at arrival time. Used to pipeline.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        latency_ns: float,
        bandwidth_bpns: float,
        overhead_ns: float = 0.0,
    ):
        if latency_ns < 0 or overhead_ns < 0:
            raise ValueError("latency/overhead must be non-negative")
        if bandwidth_bpns <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.name = name
        self.latency_ns = latency_ns
        self.bandwidth_bpns = bandwidth_bpns
        self.overhead_ns = overhead_ns
        self._arrive_name = f"{name}.arrive"
        self._free_at = 0.0
        self.bytes_carried = 0
        self.transfers = 0
        #: Cumulative serialization time (overhead + bytes/bandwidth) the
        #: link spent occupied, in ns — the busy-time numerator of its
        #: utilization.
        self.busy_ns = 0.0
        #: Optional link-layer fault/retransmit model
        #: (:class:`repro.faults.injector.LinkFaultState`). ``None`` —
        #: the default — keeps every code path below byte-identical to
        #: the fault-free kernel.
        self.faults = None

    # -- timing core ---------------------------------------------------------

    def _occupy(
        self,
        nbytes: int,
        extra_overhead_ns: float = 0.0,
        at: Optional[float] = None,
    ) -> float:
        """Reserve the link for one transfer; return its arrival time.

        ``at`` evaluates the reservation as of a future instant (the
        accumulated time inside a fused delay chain) instead of
        ``sim.now`` — bitwise the result of the same call made with the
        clock already advanced to ``at``.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        start = max(self.sim.now if at is None else at, self._free_at)
        serialization = (
            self.overhead_ns + extra_overhead_ns + nbytes / self.bandwidth_bpns
        )
        self._free_at = start + serialization
        self.bytes_carried += nbytes
        self.transfers += 1
        self.busy_ns += serialization
        return self._free_at + self.latency_ns

    # -- blocking transfer ---------------------------------------------------

    def transfer(self, nbytes: int) -> Generator:
        """Coroutine: move ``nbytes`` and resume once they have arrived."""
        if self.faults is not None:
            yield self.faults.post(nbytes, None, None, 0.0)
            return
        arrival = self._occupy(nbytes)
        yield arrival - self.sim.now

    # -- posted (pipelined) transfer ------------------------------------------

    def post(
        self,
        nbytes: int,
        on_arrival: Optional[Callable[[], None]] = None,
        payload: Any = None,
        extra_overhead_ns: float = 0.0,
    ) -> Event:
        """Enqueue a transfer; return an Event triggered on arrival.

        ``on_arrival`` (if given) runs at arrival time before the event
        triggers — typically the far end's "data visible now" commit.
        With a fault model installed the transfer additionally rides the
        link-layer CRC/seq + ack/retransmit machinery — a severed route
        returns an event that never triggers.
        """
        if self.faults is not None:
            return self.faults.post(nbytes, on_arrival, payload, extra_overhead_ns)
        arrival = self._occupy(nbytes, extra_overhead_ns)
        return self.sim.trigger_at(arrival, payload, on_arrival, self._arrive_name)

    def metrics_snapshot(self) -> dict[str, float]:
        """Unlabeled series; owners qualify them via ``obs.label_keys``."""
        return {
            "link.bytes": float(self.bytes_carried),
            "link.transfers": float(self.transfers),
            "link.busy_ns": self.busy_ns,
        }
