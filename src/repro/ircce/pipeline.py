"""iRCCE's pipelined blocking protocol (paper Fig 2b).

The protocol is :class:`repro.rcce.transport.PipelinedTransport`: the
shared rendezvous loop of :class:`~repro.rcce.transport.RendezvousTransport`
over two packet-sized slots of the sender's buffer, so the sender fills
slot ``k mod 2`` while the receiver drains slot ``(k-1) mod 2``. It
lives beside RCCE's default protocol, which is the same loop over one
slot; this module keeps iRCCE's public name for it.
"""

from repro.rcce.transport import PipelinedTransport

__all__ = ["PipelinedTransport"]
