"""The *gory* one-sided layer: RCCE's hardware abstraction.

"The reference implementation of RCCE has been implemented as a layered
approach. This includes a basic one-sided interface, called gory, which
can be seen as a hardware abstraction layer" (§2.2). Applications with
hard predictability requirements use it directly. Here the non-gory
send/recv transports do not go through it: they call the core's
:class:`~repro.scc.core.CoreEnv` operations directly.

The interface is (rank, offset)-addressed: thanks to the symmetric MPB
allocator, an offset denotes the same location in every rank's MPB.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Union

import numpy as np

from repro.scc.mpb import MpbAddr

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .api import Rcce

__all__ = ["Gory"]

Bytes = Union[bytes, bytearray, np.ndarray]


class Gory:
    """One-sided put/get/flag operations of one rank."""

    def __init__(self, comm: "Rcce"):
        self.comm = comm

    def _user_addr(self, rank: int, offset: int, nbytes: int) -> MpbAddr:
        comm = self.comm
        if not 0 <= offset or offset + nbytes > comm.user_mpb_bytes:
            raise ValueError(
                f"offset {offset}+{nbytes} outside the user MPB area "
                f"(0..{comm.user_mpb_bytes})"
            )
        device, core = comm.layout.placement(rank)
        return MpbAddr(device, core, comm.user_mpb_base + offset)

    # -- data movement ----------------------------------------------------------

    def put(self, data: Bytes, dest_rank: int, offset: int) -> Generator:
        """Write ``data`` into ``dest_rank``'s MPB at a malloc'd offset."""
        payload = np.frombuffer(bytes(data), np.uint8)
        addr = self._user_addr(dest_rank, offset, len(payload))
        yield from self.comm.env.mpb_write(addr, payload)

    def get(self, src_rank: int, offset: int, nbytes: int) -> Generator:
        """Read ``nbytes`` from ``src_rank``'s MPB (invalidates L1 first)."""
        addr = self._user_addr(src_rank, offset, nbytes)
        yield from self.comm.env.cl1invmb()
        data = yield from self.comm.env.mpb_read(addr, nbytes)
        return data

    # -- flags ---------------------------------------------------------------------

    def flag_alloc(self) -> int:
        """Allocate one flag (a full cache line, as default RCCE does)."""
        return self.comm.malloc(32)

    def flag_free(self, offset: int) -> None:
        self.comm.mfree(offset)

    def flag_write(self, owner_rank: int, offset: int, value: int) -> Generator:
        addr = self._user_addr(owner_rank, offset, 1)
        yield from self.comm.env.set_flag(addr, value)

    def flag_read(self, owner_rank: int, offset: int) -> Generator:
        addr = self._user_addr(owner_rank, offset, 1)
        value = yield from self.comm.env.read_flag(addr)
        return value

    def wait_until(self, offset: int, value: int) -> Generator:
        """Spin on one of *my* flags (RCCE only ever polls local flags)."""
        addr = self._user_addr(self.comm.rank, offset, 1)
        yield from self.comm.env.wait_flag(addr, value)
