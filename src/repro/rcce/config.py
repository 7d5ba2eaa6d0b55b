"""Rank ↔ core configuration, including the core-failure workaround.

RCCE numbers its processes linearly and maps them to physical cores; for
vSCC "first all cores of the first device are assigned to RCCE ranks in
a linear way, which is continued to a second device starting with id 48"
(paper §3). §4 adds the operational wrinkle: cores silently fail at
boot, so the (extended) startup script regenerates a configuration file
listing the cores that actually came up, and RCCE builds its rank
mapping from that file. :class:`SccConfigFile` is that file's content,
built from the booted devices; the mapping is built in-process, so
no text form of it is written or parsed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from repro.scc.chip import SCCDevice

__all__ = ["SccConfigFile", "RankLayout"]


@dataclass(frozen=True)
class SccConfigFile:
    """The startup script's output: available core ids per device."""

    cores_per_device: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for dev, cores in enumerate(self.cores_per_device):
            if len(set(cores)) != len(cores):
                raise ValueError(f"device {dev} lists duplicate cores: {cores}")
            if any(c < 0 for c in cores):
                raise ValueError(f"device {dev} lists negative core ids")

    @classmethod
    def from_devices(cls, devices: Sequence[SCCDevice]) -> "SccConfigFile":
        """What the extended startup script produces after booting (§4)."""
        return cls(tuple(tuple(d.available_cores) for d in devices))


class RankLayout:
    """Immutable mapping rank → (device, core), plus traffic accounting."""

    def __init__(self, placements: Sequence[tuple[int, int]]):
        if not placements:
            raise ValueError("a rank layout needs at least one rank")
        self._placements = [(int(d), int(c)) for d, c in placements]
        if len(set(self._placements)) != len(self._placements):
            raise ValueError("duplicate (device, core) placement")
        self._rank_of = {pc: r for r, pc in enumerate(self._placements)}
        # rank -> device, for the per-message same-device test.
        self._devices = [device for device, _core in self._placements]
        #: bytes sent between rank pairs, filled by the communicator.
        self.traffic: Counter[tuple[int, int]] = Counter()

    @classmethod
    def from_config(cls, config: SccConfigFile) -> "RankLayout":
        """Linear ranks over the listed cores, ascending by id per device (§3)."""
        return cls(
            [(dev, c) for dev, cores in enumerate(config.cores_per_device) for c in sorted(cores)]
        )

    # -- queries --------------------------------------------------------------

    @property
    def num_ranks(self) -> int:
        return len(self._placements)

    def placement(self, rank: int) -> tuple[int, int]:
        if not 0 <= rank < len(self._placements):
            raise ValueError(f"rank {rank} out of range 0..{self.num_ranks - 1}")
        return self._placements[rank]

    def rank_of(self, device: int, core: int) -> int:
        try:
            return self._rank_of[(device, core)]
        except KeyError:
            raise ValueError(f"no rank placed on device {device} core {core}") from None

    def same_device(self, rank_a: int, rank_b: int) -> bool:
        devices = self._devices
        n = len(devices)
        if 0 <= rank_a < n and 0 <= rank_b < n:
            return devices[rank_a] == devices[rank_b]
        return self.placement(rank_a)[0] == self.placement(rank_b)[0]  # raises

    def record_traffic(self, src: int, dst: int, nbytes: int) -> None:
        self.traffic[(src, dst)] += nbytes
