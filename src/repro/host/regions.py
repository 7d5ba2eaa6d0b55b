"""Registered memory regions: the communication task's classifier.

§3.1 of the paper: "each rank has to register start address and length
of the communication buffer to the communication task. As a result, the
task can classify incoming requests and handle them in a different way"
— *synchronization* (flag) accesses bypass all transparent buffers and
can be write-acknowledged immediately; *communication* (buffer) accesses
are eligible for caching, prefetching and write combining. Unregistered
addresses fall back to transparent routing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.scc.mpb import MpbAddr

__all__ = ["RegionKind", "Region", "RegionRegistry"]


class RegionKind(Enum):
    """Classification the communication task assigns to an access."""

    FLAG = "flag"
    BUFFER = "buffer"
    UNREGISTERED = "unregistered"


@dataclass(frozen=True)
class Region:
    """A registered span inside one core's LMB half."""

    device: int
    core: int
    start: int
    length: int
    kind: RegionKind

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError(f"region length must be positive, got {self.length}")
        if self.start < 0:
            raise ValueError(f"region start must be non-negative, got {self.start}")

    @property
    def end(self) -> int:
        return self.start + self.length

    def contains(self, addr: MpbAddr, length: int = 1) -> bool:
        return (
            addr.device == self.device
            and addr.core == self.core
            and self.start <= addr.offset
            and addr.offset + length <= self.end
        )


class RegionRegistry:
    """All regions registered with the communication task."""

    def __init__(self) -> None:
        self._by_core: dict[tuple[int, int], list[Region]] = {}

    def register(self, region: Region) -> None:
        key = (region.device, region.core)
        for existing in self._by_core.get(key, []):
            if existing.start < region.end and region.start < existing.end:
                raise ValueError(f"region {region} overlaps {existing}")
        self._by_core.setdefault(key, []).append(region)

    def classify(self, addr: MpbAddr, length: int = 1) -> RegionKind:
        """Classify an access; spans must fall wholly inside one region."""
        for region in self._by_core.get((addr.device, addr.core), []):
            if region.contains(addr, length):
                return region.kind
        return RegionKind.UNREGISTERED
