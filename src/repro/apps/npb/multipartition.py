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
from functools import lru_cache

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

    @property
    def p(self) -> int:
        """Cells per dimension = √nranks."""
        return math.isqrt(self.nranks)

    # -- node geometry -----------------------------------------------------------
    # Every query below is a pure function of the frozen geometry, and
    # the BT model calls them once per sweep step per rank — they are
    # all memoized (the instance is hashable, the results immutable or
    # never mutated by callers).

    @lru_cache(maxsize=None)
    def node_coords(self, rank: int) -> tuple[int, int]:
        self._check_rank(rank)
        return rank % self.p, rank // self.p

    def rank_at(self, i: int, j: int) -> int:
        p = self.p
        return (j % p) * p + (i % p)

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.nranks:
            raise ValueError(f"rank {rank} out of range 0..{self.nranks - 1}")

    # -- cell geometry --------------------------------------------------------------

    @lru_cache(maxsize=None)
    def cells(self, rank: int) -> list[tuple[int, int, int]]:
        """(x, y, z) slab coordinates of the rank's p cells."""
        i, j = self.node_coords(rank)
        p = self.p
        return [((i + c) % p, (j + c) % p, c) for c in range(p)]

    @lru_cache(maxsize=None)
    def cell_in_slab(self, rank: int, dim: int, slab: int) -> int:
        """Index c of the rank's cell lying in ``slab`` of dimension ``dim``."""
        i, j = self.node_coords(rank)
        p = self.p
        if dim == X:
            return (slab - i) % p
        if dim == Y:
            return (slab - j) % p
        if dim == Z:
            return slab % p
        raise ValueError(f"dimension {dim} out of range")

    @lru_cache(maxsize=None)
    def partner(self, rank: int, dim: int, positive: bool) -> int:
        """The fixed neighbor owning the adjacent cells in a direction."""
        di, dj = _PARTNER_STEP[(dim, +1 if positive else -1)]
        i, j = self.node_coords(rank)
        return self.rank_at(i + di, j + dj)

    # -- slab sizes --------------------------------------------------------------------

    @lru_cache(maxsize=None)
    def _sizes(self) -> tuple[int, ...]:
        base, extra = divmod(self.n, self.p)
        return tuple(base + (1 if k < extra else 0) for k in range(self.p))

    @lru_cache(maxsize=None)
    def slab_size(self, slab: int) -> int:
        return self._sizes()[slab]

    def slab_start(self, slab: int) -> int:
        return sum(self._sizes()[:slab])

    @lru_cache(maxsize=None)
    def cell_shape(self, rank: int, c: int) -> tuple[int, int, int]:
        x, y, z = self.cells(rank)[c]
        return (self.slab_size(x), self.slab_size(y), self.slab_size(z))

    @lru_cache(maxsize=None)
    def points_in_cell(self, rank: int, c: int) -> int:
        sx, sy, sz = self.cell_shape(rank, c)
        return sx * sy * sz
