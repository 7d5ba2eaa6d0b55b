"""iRCCE: non-blocking + pipelined extensions to RCCE [Clauss et al.].

Public surface::

    from repro.ircce import PipelinedTransport, isend, irecv, CommRequest

iRCCE's pipelined blocking protocol (paper Fig 2b) is
:class:`repro.rcce.transport.PipelinedTransport`, the shared rendezvous
loop over two slots; it is exported here under iRCCE's name.
"""

from repro.rcce.transport import PipelinedTransport

from .nonblocking import (
    CommRequest,
    irecv,
    isend,
    recv_any_source,
    wait_all,
    wait_any,
)

__all__ = [
    "CommRequest",
    "PipelinedTransport",
    "irecv",
    "isend",
    "recv_any_source",
    "wait_all",
    "wait_any",
]
