"""Frequency-domain helpers.

The SCC has three independently clocked domains (cores, mesh, memory) and
the host/PCIe side has its own timing. The global simulated time base is
nanoseconds; a :class:`Clock` converts between cycles of one domain and
nanoseconds, so model constants can be written in the unit the hardware
documentation uses (e.g. "remote MPB read costs 45 core cycles").
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Clock"]


@dataclass(frozen=True)
class Clock:
    """A fixed-frequency clock domain.

    Parameters
    ----------
    freq_mhz:
        Domain frequency in MHz (e.g. 533.0 for the SCC core domain in
        the paper's configuration).
    """

    freq_mhz: float

    def __post_init__(self) -> None:
        if self.freq_mhz <= 0:
            raise ValueError(f"frequency must be positive, got {self.freq_mhz}")
        # The period is read on every cycles() conversion — the hottest
        # float in the timing model — so it is computed once here. The
        # dataclass is frozen, hence object.__setattr__; the cache is not
        # a field, so eq/hash/repr still key on freq_mhz alone.
        object.__setattr__(self, "_period_ns", 1000.0 / self.freq_mhz)

    def cycles(self, n: float) -> float:
        """Convert ``n`` cycles of this domain to nanoseconds."""
        return n * self._period_ns

    def to_cycles(self, ns: float) -> float:
        """Convert nanoseconds to (fractional) cycles of this domain."""
        return ns / self._period_ns
