"""Fabric topology: the three-level (x, y, device, host) coordinate model.

Connecting devices through a host adds a third dimension to the SCC's 2D
mesh: "To describe the coordinates of a vSCC core the triple (x, y, z)
is used … we use the device number as z coordinate" (§3). Scaling past
one host (ROADMAP: N-device, multi-host fabrics; the DNP's on-chip/
off-chip interconnect tiers) adds a fourth coordinate — the *host* — so
a rank lives at ``(x, y, device, host)`` and a path decomposes into
three latency tiers:

* **xy** — on-die mesh hops, ~10² core cycles each;
* **z**  — the device tier: every device has exactly one physical
  exit, the SIF at (3, 0), and crossing devices through a host's PCIe
  cables costs ~10⁴ core cycles;
* **h**  — the inter-host tier above PCIe, another order of magnitude
  up: traffic between devices of *different* hosts additionally rides
  an :class:`repro.host.interhost.InterHostLink`.

:class:`FabricTopology` answers coordinate queries over a rank layout
spanning ``num_hosts × devices_per_host`` devices;
:class:`VsccTopology` is its single-host specialization (the paper's
configuration — every device on host 0) and preserves the historic
``device_groups``/``z_hops`` semantics bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.rcce.config import RankLayout
from repro.scc.params import SCCParams
from repro.scc.sif import SIF_TILE_XY

__all__ = ["FabricTopology", "VsccTopology"]


@dataclass(frozen=True)
class FabricTopology:
    """Coordinate queries over a rank layout spanning devices and hosts.

    ``host_map`` assigns every global device id its owning host
    (``host_map[device_id] -> host_id``); ``None`` means the single-host
    configuration (every device on host 0), which is exactly what
    :class:`VsccTopology` pins down.
    """

    layout: RankLayout
    params: SCCParams
    #: device id -> host id; ``None`` = one host owning every device.
    host_map: Optional[tuple[int, ...]] = None
    #: Memo of the rank-independent shape of each hierarchical
    #: collective plan, keyed by ``(tuple(group), root)`` and filled by
    #: :class:`repro.rcce.hierarchical.GroupPlan`. It lives on the
    #: topology, not in a module, because a shape is only valid for the
    #: rank layout and host map it was derived from.
    plan_shapes: dict = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    _num_devices: int = field(init=False, compare=False, repr=False)
    _num_hosts: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        # The layout is immutable, so both counts are fixed for life.
        devices = {
            self.layout.placement(r)[0] for r in range(self.layout.num_ranks)
        }
        object.__setattr__(self, "_num_devices", len(devices))
        object.__setattr__(
            self, "_num_hosts", len({self.host_of(d) for d in devices})
        )

    # -- coordinates ---------------------------------------------------------

    def coords(self, rank: int) -> tuple[int, int, int, int]:
        """The full (x, y, device, host) coordinate of a rank."""
        device, core = self.layout.placement(rank)
        x, y = self.params.core_xy(core)
        return (x, y, device, self.host_of(device))

    def device_of(self, rank: int) -> int:
        """The z coordinate of a rank (its global device number)."""
        return self.layout.placement(rank)[0]

    def host_of(self, device_id: int) -> int:
        """The host coordinate of a device (0 on a single-host fabric)."""
        if self.host_map is None:
            return 0
        return self.host_map[device_id]

    def host_of_rank(self, rank: int) -> int:
        """The host coordinate of a rank."""
        return self.host_of(self.device_of(rank))

    def num_devices(self) -> int:
        return self._num_devices

    def num_hosts(self) -> int:
        """Hosts spanned by the layout (1 on a single-host fabric)."""
        return self._num_hosts

    # -- group decompositions ------------------------------------------------

    def device_groups(self, ranks: Sequence[int]) -> dict[int, list[int]]:
        """Partition an ordered rank group by device, preserving order.

        The dict is keyed in first-appearance order of the devices and
        each sublist keeps the input order — both are pure functions of
        the (identical) group every collective participant passes, so
        all ranks derive the same partition without communicating. This
        is the split the hierarchical collectives
        (:mod:`repro.rcce.hierarchical`) build their intra-device
        subgroups and per-device leaders from.
        """
        groups: dict[int, list[int]] = {}
        for rank in ranks:
            groups.setdefault(self.device_of(rank), []).append(rank)
        return groups

    def host_groups(self, ranks: Sequence[int]) -> dict[int, list[int]]:
        """Partition an ordered rank group by host, preserving order.

        Same contract as :meth:`device_groups`, one tier up: keyed in
        first-appearance order of the hosts, sublists in input order —
        communication-free and permutation-stable in the same way. The
        three-level collectives derive their per-host leader subgroups
        from this.
        """
        groups: dict[int, list[int]] = {}
        for rank in ranks:
            groups.setdefault(self.host_of_rank(rank), []).append(rank)
        return groups

    # -- pair predicates -----------------------------------------------------

    def same_device(self, rank_a: int, rank_b: int) -> bool:
        return self.layout.same_device(rank_a, rank_b)

    def same_host(self, rank_a: int, rank_b: int) -> bool:
        return self.host_of_rank(rank_a) == self.host_of_rank(rank_b)

    def is_cross_device(self, rank_a: int, rank_b: int) -> bool:
        return not self.same_device(rank_a, rank_b)

    def is_cross_host(self, rank_a: int, rank_b: int) -> bool:
        return not self.same_host(rank_a, rank_b)

    # -- hop accounting ------------------------------------------------------

    def xy_hops(self, rank_a: int, rank_b: int) -> int:
        """On-die mesh hops in the (x, y) plane (same-device ranks only)."""
        if not self.same_device(rank_a, rank_b):
            raise ValueError(
                f"ranks {rank_a} and {rank_b} are on different devices; in "
                "the three-level (x, y, device, host) fabric the device and "
                "host tiers have no xy mesh hop count — use tier_hops() for "
                "the full per-tier decomposition"
            )
        _d1, core_a = self.layout.placement(rank_a)
        _d2, core_b = self.layout.placement(rank_b)
        return self.params.hops(core_a, core_b)

    def mesh_hops(self, rank_a: int, rank_b: int) -> int:
        """Alias of :meth:`xy_hops` (the historic name)."""
        return self.xy_hops(rank_a, rank_b)

    def z_hops(self, rank_a: int, rank_b: int) -> int:
        """Device-tier crossings: 1 for any cross-device pair, else 0.

        This is the historic z semantics (the device number is the z
        coordinate; a cross-device path steps through the host funnel
        exactly once regardless of the device ids). Cross-*host* pairs
        still count ``z_hops == 1`` — the additional inter-host tier is
        accounted separately by :meth:`h_hops`/:meth:`tier_hops`.
        """
        return 0 if self.same_device(rank_a, rank_b) else 1

    def h_hops(self, rank_a: int, rank_b: int) -> int:
        """Inter-host tier crossings: 1 for a cross-host pair, else 0."""
        return 0 if self.same_host(rank_a, rank_b) else 1

    def tier_hops(self, rank_a: int, rank_b: int) -> tuple[int, int, int]:
        """Per-tier decomposition ``(xy, z, h)`` of one rank pair's path.

        ``xy`` is the on-die component (mesh distance on one die, or the
        sum of both end points' distances to their SIF funnel tile for an
        off-die pair); ``z`` the device-tier crossing count; ``h`` the
        inter-host tier crossing count.
        """
        xy, z = self.path_hops(rank_a, rank_b)
        return (xy, z, self.h_hops(rank_a, rank_b))

    def path_hops(self, rank_a: int, rank_b: int) -> tuple[int, int]:
        """(on-die hops, z hops): the z component counts device crossings.

        For cross-device pairs the on-die component is the distance of
        each end point to its SIF tile — the funnel every inter-device
        packet traverses. Cross-host pairs additionally traverse the
        inter-host tier; see :meth:`tier_hops` for the (xy, z, h)
        decomposition.
        """
        if self.same_device(rank_a, rank_b):
            return (self.xy_hops(rank_a, rank_b), 0)
        sif_x = min(SIF_TILE_XY[0], self.params.tiles_x - 1)
        sif_y = min(SIF_TILE_XY[1], self.params.tiles_y - 1)
        hops = 0
        for rank in (rank_a, rank_b):
            _dev, core = self.layout.placement(rank)
            x, y = self.params.core_xy(core)
            hops += abs(x - sif_x) + abs(y - sif_y)
        return (hops, 1)


@dataclass(frozen=True)
class VsccTopology(FabricTopology):
    """The single-host specialization: the paper's vSCC configuration.

    Every device hangs off host 0 (``host_map`` is pinned to ``None``),
    so ``coords`` always reports host 0, ``host_groups`` is a single
    group and ``h_hops`` is 0 for every pair — the historic (x, y, z)
    behaviour, bit for bit.
    """

    def __post_init__(self) -> None:
        if self.host_map is not None:
            raise ValueError(
                "VsccTopology is the single-host specialization; build a "
                "FabricTopology to place devices on multiple hosts"
            )
        super().__post_init__()
