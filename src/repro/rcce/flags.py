"""Layout of the synchronization-flag (SF) region.

Each core's 8 kB LMB half reserves its top 512 bytes for flags (paper
§3.1: "SF and MPB share the LMB"). The layout supports up to 248 ranks —
comfortably above vSCC's 240 — with one *sent* and one *ready* byte per
peer, plus a handful of miscellaneous slots used by the vDMA protocol:

======================  ==============================================
bytes (within SF)        use
======================  ==============================================
0 … 247                  ``sent[peer]``  — peer → me data-ready counter
248 … 495                ``ready[peer]`` — me → peer buffer-free counter
496 … 511                misc slots (vDMA completion, app, spare)
======================  ==============================================

Flags are one-byte sequence counters cycling 1…254 (0 means "never
signalled"), so no reset write is needed per chunk.
"""

from __future__ import annotations

from repro.scc.mpb import MpbAddr
from repro.scc.params import SCCParams

from .config import RankLayout

__all__ = ["FlagLayout", "MAX_RANKS", "SEQ_MOD", "reached"]

#: Maximum ranks the SF layout supports.
MAX_RANKS = 248
#: Sequence counters cycle through 1..SEQ_MOD (0 is reserved).
SEQ_MOD = 254

_SENT_BASE = 0
_READY_BASE = 248
_MISC_BASE = 496

#: Misc slot indices: the vDMA completion flag, and one for applications.
SLOT_VDMA_DONE = 0
SLOT_APP0 = 2


class FlagLayout:
    """Flag-address computation for one rank layout."""

    def __init__(self, layout: RankLayout, params: SCCParams):
        if layout.num_ranks > MAX_RANKS:
            raise ValueError(
                f"{layout.num_ranks} ranks exceed the SF layout capacity "
                f"of {MAX_RANKS}"
            )
        if params.sf_bytes < 512:
            raise ValueError("the SF layout needs the full 512-byte region")
        self.layout = layout
        self.params = params
        self._sf_base = params.mpb_payload_bytes
        # sent/ready addresses per (owner, peer): protocols look them up
        # inside chunk loops, and the placement never changes.
        self._sent: dict[tuple[int, int], MpbAddr] = {}
        self._ready: dict[tuple[int, int], MpbAddr] = {}

    def _owner_addr(self, owner_rank: int, sf_offset: int) -> MpbAddr:
        device, core = self.layout.placement(owner_rank)
        return MpbAddr(device, core, self._sf_base + sf_offset)

    def sent(self, owner_rank: int, peer_rank: int) -> MpbAddr:
        """``sent[peer]`` in ``owner``'s SF: peer signals data for owner."""
        addr = self._sent.get((owner_rank, peer_rank))
        if addr is None:
            self.layout.placement(peer_rank)
            addr = self._owner_addr(owner_rank, _SENT_BASE + peer_rank)
            self._sent[(owner_rank, peer_rank)] = addr
        return addr

    def ready(self, owner_rank: int, peer_rank: int) -> MpbAddr:
        """``ready[peer]`` in ``owner``'s SF: peer acknowledges owner's data."""
        addr = self._ready.get((owner_rank, peer_rank))
        if addr is None:
            self.layout.placement(peer_rank)
            addr = self._owner_addr(owner_rank, _READY_BASE + peer_rank)
            self._ready[(owner_rank, peer_rank)] = addr
        return addr

    def misc(self, owner_rank: int, slot: int) -> MpbAddr:
        if not 0 <= slot < 16:
            raise ValueError(f"misc slot {slot} out of range 0..15")
        return self._owner_addr(owner_rank, _MISC_BASE + slot)

    @staticmethod
    def next_seq(seq: int) -> int:
        """Advance a 1…254 sequence counter."""
        return seq % SEQ_MOD + 1


def reached(target: int, max_lead: int = 8):
    """Predicate: a cycling counter flag has reached ``target``.

    Accepts ``target`` or up to ``max_lead - 1`` values past it —
    protocols bound how far a producer can run ahead, so the wrap
    ambiguity window (254 values) is never entered.
    """
    if not 1 <= target <= SEQ_MOD:
        raise ValueError(f"target {target} outside 1..{SEQ_MOD}")

    def predicate(value: int) -> bool:
        return value != 0 and ((value - target) % SEQ_MOD) < max_lead

    return predicate
