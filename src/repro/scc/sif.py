"""System interface (SIF) of one SCC device.

The SIF sits at tile (3, 0) — the single point where the on-die mesh
connects to the board FPGA and from there to the PCIe expansion cable
(paper §3: "only a single physical link at (x, y) coordinate (3, 0)
exists"). All inter-device traffic of a device funnels through it, so
every off-die access pays the mesh distance from the issuing core's tile
to the SIF tile on top of the PCIe path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.host.pcie import PCIeCable

    from .mesh import XYRouter
    from .params import SCCParams

__all__ = ["SystemInterface", "SIF_TILE_XY"]

#: Mesh coordinate of the SIF tile on the real SCC.
SIF_TILE_XY = (3, 0)


class SystemInterface:
    """Mesh ↔ PCIe bridge of one device."""

    def __init__(self, params: "SCCParams", router: "XYRouter"):
        self.params = params
        self.router = router
        x = min(SIF_TILE_XY[0], params.tiles_x - 1)
        y = min(SIF_TILE_XY[1], params.tiles_y - 1)
        self.tile = params.tile_at(x, y)
        #: Set when the host attaches this device to a PCIe cable.
        self.cable: Optional["PCIeCable"] = None
        # mesh_to_sif_ns is pure in (hops, nbytes): each core's hop count
        # to the SIF tile is resolved here, and costs are memoized per hop
        # count in the parameter set's tables.
        self._core_hops = [self.hops_from_core(c) for c in range(params.num_cores)]
        memo = params.hop_costs.mesh_path_memo
        self._core_memo = [memo[h] for h in self._core_hops]

    @property
    def connected(self) -> bool:
        return self.cable is not None

    def hops_from_core(self, core_id: int) -> int:
        """Mesh hops from a core's tile to the SIF tile."""
        return self.router.hops(self.params.tile_of_core(core_id), self.tile)

    def mesh_to_sif_ns(self, core_id: int, nbytes: int) -> float:
        """Analytic mesh traversal cost core-tile → SIF for ``nbytes``."""
        memo = self._core_memo[core_id]
        cost = memo.get(nbytes)
        if cost is None:
            cost = memo[nbytes] = self.params.mesh_path_ns(
                self._core_hops[core_id], nbytes
            )
        return cost
