"""Physical DMA engine of the host.

"Similar to the original version of the SCC driver, a physical DMA
controller on the host is invoked for communication through PCIe to the
device" (paper §3.2). The engine moves granules (default 2 kB) between a
device's MPB and host memory over the device's cable, paying a
descriptor-setup cost per granule. Granule-wise delivery is what lets
the higher layers (software cache, host WCB, vDMA) pipeline.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.scc.mpb import MpbAddr
from repro.sim.engine import Record

from .pcie import PCIeCable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator

    from .driver import Host

__all__ = ["DMAEngine", "Transfer", "granule_sizes"]

#: Default DMA granule (bytes).
DEFAULT_GRANULE = 1920


def granule_sizes(total: int, granule: int) -> list[int]:
    """Split ``total`` bytes into full granules plus a shorter tail.

    The one splitter of the host layer: DMA pulls and pushes, vDMA
    copies and the vSCC transports all cut their payloads with it.
    ``total == 0`` yields no granule.
    """
    if granule <= 0:
        raise ValueError(f"granule must be positive, got {granule} B")
    if total < 0:
        raise ValueError(f"negative transfer size {total} B")
    full, tail = divmod(total, granule)
    sizes = [granule] * full
    if tail:
        sizes.append(tail)
    return sizes


class DMAEngine:
    """Granule-pipelined DMA transfers over one PCIe cable."""

    def __init__(self, cable: PCIeCable, granule: int = DEFAULT_GRANULE):
        if granule <= 0:
            raise ValueError(f"granule must be positive, got {granule}")
        self.cable = cable
        self.sim = cable.sim
        self.granule = granule
        self.bytes_pulled = 0
        self.bytes_pushed = 0

    def metrics_snapshot(self) -> dict[str, float]:
        """Engine-level series, labeled with the cable's device id."""
        dev = self.cable.device.device_id
        return {
            f"dma.bytes{{device={dev},dir=pull}}": float(self.bytes_pulled),
            f"dma.bytes{{device={dev},dir=push}}": float(self.bytes_pushed),
        }

    # -- device → host ---------------------------------------------------------

    def pull(
        self,
        addr: MpbAddr,
        nbytes: int,
        sink: Callable[[int, np.ndarray], None],
        granule: Optional[int] = None,
    ) -> "Transfer":
        """Copy ``nbytes`` from device MPB to host, granule by granule.

        ``sink(offset, data)`` runs at each granule's host-arrival time;
        the returned record triggers once the final granule has arrived.
        Device memory is sampled when the granule's transfer starts, in
        the record's start slot (the device side must not overwrite
        in-flight data — the RCCE flag protocol guarantees that).
        """
        device = self.cable.device
        if addr.device != device.device_id:
            raise ValueError(f"{addr} is not on device {device.device_id}")
        sizes = granule_sizes(nbytes, granule or self.granule)

        def post() -> list:
            offset = 0
            pending = []
            for size in sizes:
                data = device.mpb.read(addr + offset, size)
                pending.append(self.cable.up.post(
                    size,
                    on_arrival=partial(sink, offset, data),
                    extra_overhead_ns=self.cable.params.dma_setup_ns,
                ))
                self.bytes_pulled += size
                offset += size
            return pending

        # The engine's pulls are the software cache's prefetch segments.
        return Transfer(self.sim, "daemon:prefetch-seg", post)

    # -- host → device -----------------------------------------------------------

    def push(
        self,
        addr: MpbAddr,
        data: np.ndarray,
        granule: Optional[int] = None,
        via: Optional["Host"] = None,
    ) -> "Transfer":
        """Copy host ``data`` into device MPB, granule by granule.

        Each granule is committed to device memory at its arrival time
        (waking any flag watchers). The returned record triggers after
        the final commit.

        ``via`` is the host the data sits on. Without it the data is on
        this cable's own host; with it every granule rides
        :meth:`~repro.host.driver.Host.route_down` from that host, which
        crosses the inter-host tier first when the host is another one.
        Either way the bytes count as pushed by this engine.
        """
        device = self.cable.device
        if addr.device != device.device_id:
            raise ValueError(f"{addr} is not on device {device.device_id}")

        def post() -> list:
            send = (
                self.cable.down.post if via is None
                else partial(via.route_down, device.device_id)
            )
            buf = np.asarray(data, dtype=np.uint8)
            offset = 0
            pending = []
            for size in granule_sizes(len(buf), granule or self.granule):
                pending.append(send(
                    size,
                    on_arrival=partial(device.mpb.write, addr + offset,
                                       buf[offset : offset + size].copy()),
                    extra_overhead_ns=self.cable.params.dma_setup_ns,
                ))
                self.bytes_pushed += size
                offset += size
            return pending

        # The engine's pushes are the host WCB's flushes.
        return Transfer(self.sim, "daemon:hostwcb-push", post)


class Transfer(Record):
    """DMA pulls and pushes and the cache's ramped prefetch: ``post()``
    runs in the start slot and returns what to wait for, in order."""

    __slots__ = ("_post", "_pending")

    def __init__(self, sim: "Simulator", name: str, post: Callable[[], list]):
        self._post = post
        Record.__init__(self, sim, name, self._start)

    def _start(self, _) -> None:
        self._pending = iter(self._post())
        self._next = self._drain
        self._drain(None)

    def _drain(self, _) -> None:
        # Record._wait inlined: ``_next`` stays ``_drain`` to the end.
        waitable = next(self._pending, None)
        if waitable is None:
            self._finish()
        elif not waitable._add_waiter(self):
            self.sim.schedule(0.0, self, waitable._value)
