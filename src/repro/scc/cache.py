"""L1 model for the MPBT memory type.

The SCC tags shared on-chip memory with a dedicated memory type (MPBT).
In write-through configuration only the L1 caches MPBT lines, and one
instruction — ``CL1INVMB`` — invalidates *all* of them at once (paper
§3.1). RCCE's gory layer issues CL1INVMB before every MPB read sequence
so stale lines are never observed.

We model exactly what timing needs: the set of MPBT line tags present in
a core's L1, so repeated reads of the same line are cheap until the next
invalidate. Capacity is bounded (L1 data cache is 16 kB = 512 lines);
eviction is modeled FIFO, which is adequate because RCCE streams through
buffers rather than re-using hot lines across invalidates.
"""

from __future__ import annotations

from collections import OrderedDict

__all__ = ["L1MpbtCache"]


class L1MpbtCache:
    """Per-core set of cached MPBT line tags with CL1INVMB support."""

    #: P54C L1D is 16 kB of 32 B lines.
    CAPACITY_LINES = 512

    def __init__(self) -> None:
        self._lines: OrderedDict[tuple, None] = OrderedDict()
        self.invalidations = 0
        self.hits = 0
        self.misses = 0

    def lookup(self, tag: tuple) -> bool:
        """Record an access to ``tag``; return True on hit."""
        if tag in self._lines:
            self.hits += 1
            return True
        self.misses += 1
        self._lines[tag] = None
        if len(self._lines) > self.CAPACITY_LINES:
            self._lines.popitem(last=False)
        return False

    def cl1invmb(self) -> int:
        """Invalidate every MPBT line; return how many were dropped."""
        dropped = len(self._lines)
        self._lines.clear()
        self.invalidations += 1
        return dropped
