"""Diagonal multi-partitioning (NPB BT's decomposition).

BT runs on a square number of processors P = p²; the n³ grid is split
into p×p×p cells and each processor owns p of them, arranged diagonally
so that it owns exactly one cell in every slab of every sweep direction
— during the x/y/z line solves every processor has work at every
pipeline stage. Processor (i, j) owns cells::

    cell c:  ( (i + c) mod p,  (j + c) mod p,  c )        c = 0 … p-1

which fixes the six communication partners of the whole run (paper
§4.2's "neighboring based communication pattern"):

=========  ==================
direction  partner (i', j')
=========  ==================
+x             (i+1, j)
-x             (i-1, j)
+y             (i, j+1)
-y             (i, j-1)
+z             (i-1, j-1)
-z             (i+1, j+1)
=========  ==================
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

__all__ = ["MultiPartition", "is_square"]

#: Axis indices.
X, Y, Z = 0, 1, 2

_PARTNER_STEP = {
    (X, +1): (1, 0),
    (X, -1): (-1, 0),
    (Y, +1): (0, 1),
    (Y, -1): (0, -1),
    (Z, +1): (-1, -1),
    (Z, -1): (1, 1),
}


def is_square(n: int) -> bool:
    root = math.isqrt(n)
    return root * root == n


@dataclass(frozen=True)
class MultiPartition:
    """Geometry of a BT run: ``nranks`` processors over an ``n``³ grid."""

    nranks: int
    n: int

    def __post_init__(self) -> None:
        if not is_square(self.nranks):
            raise ValueError(
                f"BT needs a square number of processes, got {self.nranks} "
                "(paper §4.2: 225 is the maximum vSCC configuration)"
            )
        if self.n < self.p:
            raise ValueError(f"grid {self.n} smaller than {self.p} slabs")

    @cached_property
    def p(self) -> int:
        """Cells per dimension = √nranks."""
        return math.isqrt(self.nranks)

    # -- per-instance tables -------------------------------------------------------
    # Every query below is a pure function of the frozen geometry, and
    # the BT model calls them once per sweep step per rank, so each reads
    # a table built once per instance. ``cached_property`` stores into the
    # instance ``__dict__``, which a frozen dataclass permits; a lookup
    # hashes nothing and no table outlives its instance. Callers never
    # mutate the returned lists.

    @cached_property
    def _coords(self) -> list[tuple[int, int]]:
        p = self.p
        return [(rank % p, rank // p) for rank in range(self.nranks)]

    @cached_property
    def _cells(self) -> list[list[tuple[int, int, int]]]:
        p = self.p
        return [
            [((i + c) % p, (j + c) % p, c) for c in range(p)] for i, j in self._coords
        ]

    @cached_property
    def _cell_in_slab(self) -> list[tuple[list[int], ...]]:
        """Per rank and dimension: the cell index lying in each slab."""
        p = self.p
        return [
            (
                [(slab - i) % p for slab in range(p)],
                [(slab - j) % p for slab in range(p)],
                list(range(p)),
            )
            for i, j in self._coords
        ]

    @cached_property
    def _partners(self) -> list[dict[tuple[int, bool], int]]:
        return [
            {
                (dim, sign > 0): self.rank_at(i + di, j + dj)
                for (dim, sign), (di, dj) in _PARTNER_STEP.items()
            }
            for i, j in self._coords
        ]

    @cached_property
    def _sizes(self) -> tuple[int, ...]:
        base, extra = divmod(self.n, self.p)
        return tuple(base + (1 if k < extra else 0) for k in range(self.p))

    @cached_property
    def _cell_shapes(self) -> list[list[tuple[int, int, int]]]:
        sizes = self._sizes
        return [
            [(sizes[x], sizes[y], sizes[z]) for x, y, z in cells] for cells in self._cells
        ]

    @cached_property
    def _cell_points(self) -> list[list[int]]:
        return [[sx * sy * sz for sx, sy, sz in shapes] for shapes in self._cell_shapes]

    # -- node geometry -----------------------------------------------------------

    def node_coords(self, rank: int) -> tuple[int, int]:
        self._check_rank(rank)
        return self._coords[rank]

    def rank_at(self, i: int, j: int) -> int:
        p = self.p
        return (j % p) * p + (i % p)

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.nranks:
            raise ValueError(f"rank {rank} out of range 0..{self.nranks - 1}")

    # -- cell geometry --------------------------------------------------------------

    def cells(self, rank: int) -> list[tuple[int, int, int]]:
        """(x, y, z) slab coordinates of the rank's p cells."""
        self._check_rank(rank)
        return self._cells[rank]

    def cell_in_slab(self, rank: int, dim: int, slab: int) -> int:
        """Index c of the rank's cell lying in ``slab`` of dimension ``dim``."""
        self._check_rank(rank)
        if not 0 <= dim <= Z:
            raise ValueError(f"dimension {dim} out of range")
        return self._cell_in_slab[rank][dim][slab % self.p]

    def partner(self, rank: int, dim: int, positive: bool) -> int:
        """The fixed neighbor owning the adjacent cells in a direction."""
        self._check_rank(rank)
        return self._partners[rank][dim, positive]

    # -- slab sizes --------------------------------------------------------------------

    def slab_size(self, slab: int) -> int:
        return self._sizes[slab]

    def slab_start(self, slab: int) -> int:
        return sum(self._sizes[:slab])

    def cell_shape(self, rank: int, c: int) -> tuple[int, int, int]:
        self._check_rank(rank)
        return self._cell_shapes[rank][c]

    def points_in_cell(self, rank: int, c: int) -> int:
        self._check_rank(rank)
        return self._cell_points[rank][c]
