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
spanning ``num_hosts × devices_per_host`` devices. Without a host map it
describes the paper's configuration — every device on host 0 — with the
historic ``device_groups`` semantics bit for bit.

Unpinned: ``coords`` — ``examples/quickstart.py`` prints it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.rcce.config import RankLayout
from repro.scc.params import SCCParams

__all__ = ["FabricTopology"]


@dataclass(frozen=True)
class FabricTopology:
    """Coordinate queries over a rank layout spanning devices and hosts.

    ``host_map`` assigns every global device id its owning host
    (``host_map[device_id] -> host_id``); ``None`` means the single-host
    configuration (every device on host 0): ``coords`` always reports
    host 0, ``host_groups`` is a single group and no pair is cross-host.
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
    #: Memo of every validated collective group, keyed by the group
    #: argument (the prefix size, or ``tuple(members)``) and filled by
    #: :func:`repro.rcce.collectives._group`; valid only for this
    #: layout's rank count, hence kept here too.
    groups: dict = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    _num_hosts: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        # The layout is immutable, so the count is fixed for life.
        devices = {
            self.layout.placement(r)[0] for r in range(self.layout.num_ranks)
        }
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
