"""2D mesh network-on-chip: XY routing and traffic accounting.

The SCC mesh is dimension-ordered (X first, then Y). Within the paper's
experiments the mesh itself is never the bottleneck — inter-device PCIe
is 120× slower — so on-die transfers are charged analytically from
:class:`repro.scc.params.SCCParams` rather than arbitrated per flit
(DESIGN.md §6). The router here provides the path/hop geometry those
analytic costs use, plus per-link byte counters that tests use to verify
the routing invariants and that benches can inspect for hot links.

``account()`` is on the per-transfer hot path of every on-die access, so
it only bumps a per-``(src, dst)`` counter and the scalar busy time —
hop counts come from a per-pair table built once from
:meth:`XYRouter.hops`, the model's one XY distance formula, not from
materializing the path. The per-*link* byte map the tests and metrics
read is derived lazily (:attr:`XYRouter.link_bytes`): each accumulated
pair is expanded along its XY path on first read and the result cached
until the next ``account()``. The derived values are identical to charging every link
eagerly, because XY routing is deterministic per pair.
"""

from __future__ import annotations

from collections import Counter

from .params import SCCParams

__all__ = ["XYRouter"]


class XYRouter:
    """Dimension-ordered routing over the ``tiles_x`` × ``tiles_y`` mesh."""

    def __init__(self, params: SCCParams):
        self.params = params
        # Geometry as plain ints — params properties are per-call.
        self._tiles_x = params.tiles_x
        self._num_tiles = params.num_tiles
        #: bytes per (src_tile, dst_tile) pair, keyed src * num_tiles + dst.
        self._pair_bytes: dict[int, int] = {}
        #: hop count per (src_tile, dst_tile) pair, keyed like ``_pair_bytes``.
        n = self._num_tiles
        self._pair_hops = [self.hops(key // n, key % n) for key in range(n * n)]
        #: cumulative serialization time across all directed links, ns
        #: (flit bundles × per-flit link cost, summed over hops).
        self.link_busy_ns = 0.0
        self._link_bytes_cache: Counter | None = Counter()
        # Per-32B-flit serialization of one link, cached off the mesh
        # clock so account() stays a couple of adds on the hot path.
        self._flit_ns = params.mesh_clock.cycles(params.mesh_flit_mesh_cycles)

    def path(self, src_tile: int, dst_tile: int) -> list[tuple[int, int]]:
        """Tile coordinates visited from ``src_tile`` to ``dst_tile``, inclusive."""
        sx, sy = self.params.tile_xy(src_tile)
        dx, dy = self.params.tile_xy(dst_tile)
        hops = [(sx, sy)]
        x, y = sx, sy
        step = 1 if dx >= x else -1
        while x != dx:
            x += step
            hops.append((x, y))
        step = 1 if dy >= y else -1
        while y != dy:
            y += step
            hops.append((x, y))
        return hops

    def hops(self, src_tile: int, dst_tile: int) -> int:
        """XY hop distance between two tiles: the one formula of the model."""
        tx = self._tiles_x
        return abs(src_tile % tx - dst_tile % tx) + abs(
            src_tile // tx - dst_tile // tx
        )

    def account(self, src_tile: int, dst_tile: int, nbytes: int) -> None:
        """Charge ``nbytes`` to every directed link along the XY path."""
        key = src_tile * self._num_tiles + dst_tile
        nhops = self._pair_hops[key]
        if nhops:
            pairs = self._pair_bytes
            pairs[key] = pairs.get(key, 0) + nbytes
            self._link_bytes_cache = None
        flits = -(-nbytes // 32)
        self.link_busy_ns += flits * self._flit_ns * nhops

    @property
    def link_bytes(self) -> Counter:
        """Bytes carried per directed link ((x,y) -> (x',y')), derived."""
        cache = self._link_bytes_cache
        if cache is None:
            cache = Counter()
            n = self._num_tiles
            for key, nbytes in self._pair_bytes.items():
                path = self.path(key // n, key % n)
                for a, b in zip(path, path[1:]):
                    cache[(a, b)] += nbytes
            self._link_bytes_cache = cache
        return cache

    def metrics_snapshot(self) -> dict[str, float]:
        """Mesh-wide series; the owning device adds its ``device=`` label."""
        link_bytes = self.link_bytes
        return {
            "mesh.link_bytes": float(sum(link_bytes.values())),
            "mesh.link_busy_ns": self.link_busy_ns,
            "mesh.links_used": float(len(link_bytes)),
        }
