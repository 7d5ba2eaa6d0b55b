"""Timing and geometry parameters of the simulated Intel SCC.

Every model constant of the chip lives here, in the unit the hardware
documentation uses (core cycles, mesh cycles), converted to nanoseconds
through :class:`repro.sim.Clock`. The paper runs the chip at
(core/mesh/memory) = (533/800/800) MHz (§4, footnote 4). The core and
mesh clocks are fields here and nowhere else: a chip runs at one fixed
clock per domain for its whole life. The memory clock has no field,
because every DRAM cost is stated in core cycles.

Calibration anchors (see DESIGN.md §5):

* a read of a *remote* tile's MPB costs ~10² core cycles (paper §3,
  citing [14]),
* on-chip ping-pong peaks around 150 MB/s with the pipelined iRCCE
  protocol (paper §4.1),
* the LMB is 8 kB per core and holds both the message-passing buffer and
  the synchronization-flag region, so a message of exactly 8 kB no longer
  fits in one chunk (paper §4.1, footnote 5).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

from repro.sim.clock import Clock

__all__ = ["SCCParams", "HopCosts", "CACHE_LINE"]

#: Cache-line size of the P54C and granularity of the MPB/WCB (bytes).
CACHE_LINE = 32


@dataclass(frozen=True)
class SCCParams:
    """Geometry and timing of one SCC device.

    The defaults reproduce the paper's configuration. All ``*_cycles``
    fields are **core** cycles unless suffixed ``_mesh_cycles``.
    """

    # -- clocks (paper §4 footnote: 533/800/800 MHz) --------------------------
    core_freq_mhz: float = 533.0
    mesh_freq_mhz: float = 800.0

    # -- geometry --------------------------------------------------------------
    tiles_x: int = 6
    tiles_y: int = 4
    cores_per_tile: int = 2

    #: LMB bytes per core (half of the 16 kB tile buffer).
    lmb_bytes_per_core: int = 8192
    #: Bytes at the top of each core's LMB reserved for synchronization
    #: flags (SF region): 2 one-byte flag arrays sized for 256 ranks.
    sf_bytes: int = 512

    # -- core-side memory costs, per 32 B cache line ---------------------------
    #: Private memory read through L1/L2 (amortized, line granularity).
    dram_read_cycles: float = 30.0
    #: Private memory write (write-back caches absorb most of it).
    dram_write_cycles: float = 22.0
    #: Read of the local tile's MPB after CL1INVMB (L1 line fill from LMB).
    mpb_local_read_cycles: float = 18.0
    #: Read hit in L1 on an MPBT line (no invalidate since last fill).
    mpb_l1_hit_cycles: float = 2.0
    #: Write to the local tile's MPB through the write-combining buffer.
    mpb_local_write_cycles: float = 26.0
    #: Base cost of a read that leaves the tile (request/response through
    #: the mesh interface), before per-hop cost is added.
    mpb_remote_read_base_cycles: float = 65.0
    #: Write to a remote tile's MPB; posted through the WCB, so much
    #: cheaper than a remote read for the issuing core.
    mpb_remote_write_cycles: float = 18.0

    # -- mesh ------------------------------------------------------------------
    #: Router traversal per hop, in mesh cycles (request + response each
    #: pay this once per hop; a read round trip pays it twice per hop).
    mesh_hop_mesh_cycles: float = 4.0
    #: Link serialization per 32 B flit bundle, in mesh cycles.
    mesh_flit_mesh_cycles: float = 4.0

    # -- flags / synchronization ------------------------------------------------
    #: Cost of one poll iteration on a local flag (test + branch).
    flag_poll_cycles: float = 10.0
    #: Single-cycle CL1INVMB instruction plus pipeline effects.
    cl1invmb_cycles: float = 8.0

    def __post_init__(self) -> None:
        if self.sf_bytes >= self.lmb_bytes_per_core:
            raise ValueError("SF region must leave room for the MPB payload")
        if self.lmb_bytes_per_core % CACHE_LINE or self.sf_bytes % CACHE_LINE:
            raise ValueError("LMB and SF sizes must be cache-line multiples")
        if self.tiles_x < 1 or self.tiles_y < 1 or self.cores_per_tile < 1:
            raise ValueError("geometry must be positive")

    # -- derived geometry --------------------------------------------------------

    @property
    def num_tiles(self) -> int:
        return self.tiles_x * self.tiles_y

    @property
    def num_cores(self) -> int:
        return self.num_tiles * self.cores_per_tile

    @property
    def mpb_payload_bytes(self) -> int:
        """Usable message-passing payload per core (LMB minus SF region)."""
        return self.lmb_bytes_per_core - self.sf_bytes

    @property
    def max_hops(self) -> int:
        """XY hop count between opposite corners of the mesh."""
        return (self.tiles_x - 1) + (self.tiles_y - 1)

    def __getstate__(self) -> dict:
        # Pickle the fields only: the cached clocks and cost tables below
        # live in the instance dict and are rebuilt on first use.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # -- clocks (built once per instance; the dataclass is frozen) -----------------

    @functools.cached_property
    def core_clock(self) -> Clock:
        return Clock(self.core_freq_mhz)

    @functools.cached_property
    def mesh_clock(self) -> Clock:
        return Clock(self.mesh_freq_mhz)

    @functools.cached_property
    def hop_costs(self) -> "HopCosts":
        """Per-hop-count cost tables of this parameter set."""
        return HopCosts(self)

    # -- coordinate helpers -----------------------------------------------------

    def tile_of_core(self, core_id: int) -> int:
        self._check_core(core_id)
        return core_id // self.cores_per_tile

    def tile_xy(self, tile_id: int) -> tuple[int, int]:
        if not 0 <= tile_id < self.num_tiles:
            raise ValueError(f"tile id {tile_id} out of range")
        return tile_id % self.tiles_x, tile_id // self.tiles_x

    def tile_at(self, x: int, y: int) -> int:
        if not (0 <= x < self.tiles_x and 0 <= y < self.tiles_y):
            raise ValueError(f"tile coordinate ({x}, {y}) out of range")
        return y * self.tiles_x + x

    def core_xy(self, core_id: int) -> tuple[int, int]:
        return self.tile_xy(self.tile_of_core(core_id))

    def hops(self, core_a: int, core_b: int) -> int:
        """XY-routing hop count between the tiles of two cores."""
        ax, ay = self.core_xy(core_a)
        bx, by = self.core_xy(core_b)
        return abs(ax - bx) + abs(ay - by)

    def _check_core(self, core_id: int) -> None:
        if not 0 <= core_id < self.num_cores:
            raise ValueError(f"core id {core_id} out of range 0..{self.num_cores - 1}")

    # -- derived line costs (ns) ---------------------------------------------------

    def local_read_ns(self, l1_hit: bool = False) -> float:
        """One 32 B read from the local tile's MPB."""
        c = self.mpb_l1_hit_cycles if l1_hit else self.mpb_local_read_cycles
        return self.core_clock.cycles(c)

    def local_write_ns(self) -> float:
        """One 32 B write to the local tile's MPB (through the WCB)."""
        return self.core_clock.cycles(self.mpb_local_write_cycles)

    def remote_read_ns(self, hops: int) -> float:
        """One 32 B read from another tile's MPB (blocking round trip)."""
        return self.core_clock.cycles(self.mpb_remote_read_base_cycles) + (
            self.mesh_clock.cycles(2 * self.mesh_hop_mesh_cycles * hops)
        )

    def remote_write_ns(self, hops: int) -> float:
        """Core-visible cost of a posted 32 B write to another tile.

        The write is posted through the WCB, so the issuing core pays the
        same cost at every distance.
        """
        return self.core_clock.cycles(self.mpb_remote_write_cycles)

    def remote_write_arrival_ns(self, hops: int) -> float:
        """Time after issue at which a posted remote write becomes visible."""
        return self.mesh_clock.cycles(
            (self.mesh_hop_mesh_cycles + self.mesh_flit_mesh_cycles) * max(hops, 1)
        ) + self.core_clock.cycles(6.0)

    def mesh_path_ns(self, hops: int, nbytes: int) -> float:
        """Analytic mesh traversal of ``nbytes`` over ``hops`` routers."""
        flits = max(1, -(-nbytes // CACHE_LINE))
        return self.mesh_clock.cycles(
            self.mesh_hop_mesh_cycles * hops + self.mesh_flit_mesh_cycles * flits
        )

    def dram_read_line_ns(self) -> float:
        return self.core_clock.cycles(self.dram_read_cycles)

    def dram_write_line_ns(self) -> float:
        return self.core_clock.cycles(self.dram_write_cycles)


class HopCosts:
    """The hop-dependent costs of one parameter set, indexed by hop count.

    Remote MPB accesses and SIF traversals cost a pure function of the
    XY hop count, which spans only ``0 … max_hops``. Each table entry is
    the :class:`SCCParams` method's own result, so a lookup is bitwise
    the value the method returns (DESIGN.md §12).
    """

    __slots__ = (
        "remote_read_ns",
        "remote_write_ns",
        "remote_write_arrival_ns",
        "mesh_path_memo",
    )

    def __init__(self, params: SCCParams):
        hops = range(params.max_hops + 1)
        self.remote_read_ns = tuple(params.remote_read_ns(h) for h in hops)
        self.remote_write_ns = tuple(params.remote_write_ns(h) for h in hops)
        self.remote_write_arrival_ns = tuple(
            params.remote_write_arrival_ns(h) for h in hops
        )
        #: Per hop count, ``mesh_path_ns(hops, nbytes)`` keyed by
        #: ``nbytes``, filled on demand by the system interface: the host
        #: path moves only a handful of sizes.
        self.mesh_path_memo: tuple[dict[int, float], ...] = tuple({} for _ in hops)
