"""Symmetric MPB allocator (``RCCE_malloc``).

RCCE manages the MPB with a collective allocator: every rank performs
the same allocation sequence, so an allocation denotes the same offset
in *every* core's MPB — which is what makes one-sided ``put``/``get`` by
(rank, offset) possible. The allocator is first-fit over 32 B-aligned
blocks, mirroring RCCE's cache-line granularity.

Unpinned: ``bytes_free`` — the out-of-MPB error message.
"""

from __future__ import annotations

from repro.scc.params import CACHE_LINE

__all__ = ["OutOfMpbError", "MpbAllocator"]


class OutOfMpbError(MemoryError):
    """The MPB payload area cannot satisfy an allocation."""


class MpbAllocator:
    """First-fit free-list allocator over ``[0, capacity)``."""

    def __init__(self, capacity: int):
        if capacity <= 0 or capacity % CACHE_LINE:
            raise ValueError(
                f"capacity must be a positive multiple of {CACHE_LINE}, got {capacity}"
            )
        self.capacity = capacity
        self._free: list[tuple[int, int]] = [(0, capacity)]  # (start, size)
        self._allocated: dict[int, int] = {}

    @staticmethod
    def _round_up(size: int) -> int:
        return -(-size // CACHE_LINE) * CACHE_LINE

    def malloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the MPB offset."""
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        need = self._round_up(size)
        for index, (start, avail) in enumerate(self._free):
            if avail >= need:
                if avail == need:
                    self._free.pop(index)
                else:
                    self._free[index] = (start + need, avail - need)
                self._allocated[start] = need
                return start
        raise OutOfMpbError(
            f"cannot allocate {size} B from the MPB ({self.bytes_free} B free, "
            "fragmented)"
        )

    def free(self, offset: int) -> None:
        size = self._allocated.pop(offset, None)
        if size is None:
            raise ValueError(f"offset {offset} was not allocated")
        self._free.append((offset, size))
        self._coalesce()

    def _coalesce(self) -> None:
        self._free.sort()
        merged: list[tuple[int, int]] = []
        for start, size in self._free:
            if merged and merged[-1][0] + merged[-1][1] == start:
                merged[-1] = (merged[-1][0], merged[-1][1] + size)
            else:
                merged.append((start, size))
        self._free = merged

    @property
    def bytes_free(self) -> int:
        return sum(size for _s, size in self._free)
