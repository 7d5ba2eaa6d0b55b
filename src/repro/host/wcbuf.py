"""Host-side write-combining buffer for the *remote-put* scheme.

Fig 4c of the paper: the sender's stores target the receiver's MPB but
land in an intermediate buffer on the host, which "copies the data in a
certain granularity from its intermediate buffer to the MPB of the
remote device. This behavior is equivalent to a write combining buffer."

One :class:`HostWriteCombiner` instance is one *stream* (one message
chunk): the communication task creates a fresh one per MSG-register
announce, so bytes still in flight when the next chunk starts keep their
stream identity. The sender's stores are acknowledged as soon as they
reach the host side (the region is registered, so consistency is
explicitly managed); full granules flush themselves to the target device
as they complete.

Ordering against the sender's subsequent flag write is structural: the
flag travels the same FIFO up-link behind the data and its forward is
posted on the same FIFO down-link behind the flushes, so a *fence* only
has to force out a partial tail granule — with chunk sizes divisible by
the flush granule it costs nothing.
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from repro.scc.mpb import MpbAddr
from repro.sim.engine import Simulator

from .dma import DMAEngine

__all__ = ["HostWriteCombiner"]


class HostWriteCombiner:
    """One write-combining stream: (sender core) → (target MPB span)."""

    def __init__(
        self,
        sim: Simulator,
        dma_to_target: DMAEngine,
        granule: int = 2048,
    ):
        if granule <= 0:
            raise ValueError(f"granule must be positive, got {granule}")
        self.sim = sim
        self.dma = dma_to_target
        self.granule = granule
        self._base: Optional[MpbAddr] = None
        self._buf = np.zeros(0, np.uint8)
        self._filled = 0  # contiguous bytes absorbed at the host
        self._flushed = 0  # bytes already handed to DMA
        self.issued = 0  # bytes the sender has issued (may be in flight)
        self.fenced = False
        self._progress = sim.signal(name="hostwcb.progress")
        self.bytes_combined = 0
        self.flushes = 0

    def metrics_snapshot(self) -> dict[str, float]:
        """One stream's series; the owning task sums streams per device."""
        return {
            "wcbuf.bytes_combined": float(self.bytes_combined),
            "wcbuf.flushes": float(self.flushes),
        }

    def open(self, target: MpbAddr, total_bytes: int) -> None:
        """Arm the stream (fires at MSG-register arrival on the host)."""
        if self._base is not None:
            raise RuntimeError("a write-combining stream is opened exactly once")
        self._base = target
        self._buf = np.zeros(total_bytes, np.uint8)

    @property
    def is_open(self) -> bool:
        return self._base is not None

    def absorb(self, offset: int, data: np.ndarray) -> None:
        """Accept sender bytes at ``offset`` (relative to the stream base).

        RCCE writes its payload sequentially; the combiner only supports
        the contiguous-append pattern, which is what the WCB exploits.
        """
        if self._base is None:
            raise RuntimeError("absorb() before open()")
        if offset != self._filled:
            raise ValueError(
                f"non-contiguous host-WCB write: expected offset {self._filled}, "
                f"got {offset}"
            )
        end = offset + len(data)
        if end > len(self._buf):
            raise ValueError("write stream exceeds the opened extent")
        self._buf[offset:end] = data
        self._filled = end
        self.bytes_combined += len(data)
        self._progress.pulse()
        # Flush every full granule as it completes.
        while self._filled - self._flushed >= self.granule:
            self._flush_granule(self.granule)

    def _flush_granule(self, size: int) -> None:
        assert self._base is not None
        start = self._flushed
        chunk = self._buf[start : start + size]
        addr = self._base + start
        self._flushed += size
        self.flushes += 1
        self.sim.spawn(
            self.dma.push(addr, chunk, granule=size),
            name="daemon:hostwcb-push",
        )

    def fence(self) -> Generator:
        """Ensure a partial tail granule gets flushed.

        Full granules self-flush FIFO-ahead of the flag; only a tail that
        would otherwise linger must be awaited (absorbed) and forced out.
        """
        if self._base is None and self.issued == 0:
            self.fenced = True
            return
        tail = self.issued % self.granule
        if tail:
            while self._filled < self.issued:
                yield self._progress  # tail bytes still in flight to the host
            if self._filled > self._flushed:
                self._flush_granule(self._filled - self._flushed)
        self.fenced = True
