"""Communicators: RCCE_comm_split-style rank groups.

RCCE's utility library lets an application carve the session into
sub-communicators (``RCCE_comm_split``), mirroring ``MPI_Comm_split``:
every rank contributes a *color* (which group) and a *key* (ordering
within the group). The call is collective over the parent group; group
membership is established with a gather + broadcast, after which all
collectives and translated point-to-point operations run inside the
group.

Typical vSCC uses: one communicator per device (``color = z``), or a
square-count compute group for NPB BT with the leftover ranks idle.
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

import numpy as np

from . import collectives
from .api import Rcce

__all__ = ["Communicator", "comm_split", "comm_world", "comm_incl"]


class Communicator:
    """An ordered group of global ranks with local-rank addressing.

    All methods address peers by *group* rank; translation to global
    ranks happens here. The underlying flag/seq state is the parent
    session's, so groups can overlap and nest safely (one operation at a
    time per rank, as everywhere in RCCE).
    """

    def __init__(self, comm: Rcce, members: Sequence[int]):
        self.comm = comm
        self.members = [int(m) for m in members]
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"duplicate members: {self.members}")
        try:
            self.rank = self.members.index(comm.rank)
        except ValueError:
            raise ValueError(
                f"global rank {comm.rank} is not a member of {self.members}"
            ) from None

    @property
    def size(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Communicator rank={self.rank}/{self.size}>"

    # -- point-to-point (group-rank addressed) --------------------------------

    def send(self, data, dest: int) -> Generator:
        yield from self.comm.send(data, self.members[dest])

    def recv(self, nbytes: int, src: int) -> Generator:
        data = yield from self.comm.recv(nbytes, self.members[src])
        return data

    # -- collectives -------------------------------------------------------------
    #
    # Routed through the parent ``Rcce`` methods, so group collectives
    # take the same per-call ``hierarchical=`` choice and the same
    # ``coll.*`` instrumentation as whole-session collectives.

    def barrier(self, hierarchical: bool = False) -> Generator:
        yield from self.comm.barrier(members=self.members, hierarchical=hierarchical)

    def bcast(
        self, data, nbytes: int, root: int, hierarchical: bool = False
    ) -> Generator:
        result = yield from self.comm.bcast(
            data, nbytes, root, members=self.members, hierarchical=hierarchical
        )
        return result

    def reduce(
        self,
        values: np.ndarray,
        op=np.add,
        root: int = 0,
        hierarchical: bool = False,
    ) -> Generator:
        result = yield from self.comm.reduce(
            values, op, root, members=self.members, hierarchical=hierarchical
        )
        return result

    def allreduce(
        self, values: np.ndarray, op=np.add, hierarchical: bool = False
    ) -> Generator:
        result = yield from self.comm.allreduce(
            values, op, members=self.members, hierarchical=hierarchical
        )
        return result

    def gather(
        self, value, root: int, hierarchical: bool = False
    ) -> Generator:
        result = yield from self.comm.gather(
            value, root, members=self.members, hierarchical=hierarchical
        )
        return result


def comm_world(comm: Rcce) -> Communicator:
    """The whole session as a communicator."""
    return Communicator(comm, list(range(comm.num_ranks)))


def comm_incl(comm: Rcce, members: Sequence[int]) -> Communicator:
    """Construct a communicator from an explicit member list (no
    communication; every member must pass the identical list)."""
    return Communicator(comm, members)


def comm_split(
    comm: Rcce,
    color: int,
    key: int,
    group_size: Optional[int] = None,
) -> Generator:
    """Collective split of the (prefix) group by color, ordered by key.

    Every participating rank calls this with its own ``color``/``key``;
    returns the :class:`Communicator` of the caller's color group (or
    ``None`` for ``color < 0``, the MPI_UNDEFINED convention). The
    (color, key) table is gathered to rank 0 and broadcast — the same
    two-phase exchange RCCE's utility implementation performs.
    """
    n = group_size or comm.num_ranks
    mine = np.array([color, key], np.int64)
    parts = yield from collectives.gather(comm, mine, root=0, group_size=n)
    if comm.rank == 0:
        table = np.concatenate([np.asarray(p, np.uint8) for p in parts])
    else:
        table = None
    raw = yield from collectives.bcast(
        comm, table, n * mine.nbytes, root=0, group_size=n
    )
    pairs = np.asarray(raw, np.uint8).view(np.int64).reshape(n, 2)
    if color < 0:
        return None
    members = [
        rank
        for _key, rank in sorted(
            (int(pairs[rank, 1]), rank)
            for rank in range(n)
            if int(pairs[rank, 0]) == color
        )
    ]
    return Communicator(comm, members)
