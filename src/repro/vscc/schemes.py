"""The inter-device communication schemes of Fig 4.

========================  ======  =============================================
scheme                     figure  data path (sender → receiver)
========================  ======  =============================================
TRANSPARENT                 [13]   remote get, per-line routed round trips
REMOTE_PUT_WCB              4c     stores → host WC buffer → receiver MPB
LOCAL_PUT_REMOTE_GET        4b     local MPB → host software cache → remote get
LOCAL_PUT_LOCAL_GET_VDMA    4a     local MPB → vDMA → receiver's local MPB
HW_ACCEL_REMOTE_PUT        dashed  FPGA-acked stores routed to receiver MPB
========================  ======  =============================================

``HW_ACCEL_REMOTE_PUT`` is the unstable upper bound (fast write
acknowledges of the on-board FPGA, not scalable beyond two devices);
``TRANSPARENT`` is the previous prototype's lower bound. Each scheme
carries its small-message direct-transfer threshold — "about 32 B to
128 B dependent on the communication scheme" (§3.3); below it a core
pushes the payload itself and skips the setup costs.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["CommScheme"]


class CommScheme(Enum):
    """Inter-device communication scheme of a vSCC system."""

    TRANSPARENT = "transparent"
    REMOTE_PUT_WCB = "remote-put-wcb"
    LOCAL_PUT_REMOTE_GET = "cached-get"
    LOCAL_PUT_LOCAL_GET_VDMA = "vdma"
    HW_ACCEL_REMOTE_PUT = "hw-accel"

    # Members are singletons (a pickle round trip returns the same
    # object), so identity is their equality and their hash. Enum's own
    # ``__hash__`` hashes the name in a Python-level call, paid by every
    # dict lookup keyed by a scheme on the message path.
    __hash__ = object.__hash__

    @property
    def needs_extensions(self) -> bool:
        """Whether the scheme requires the communication-task extensions."""
        return self in (
            CommScheme.REMOTE_PUT_WCB,
            CommScheme.LOCAL_PUT_REMOTE_GET,
            CommScheme.LOCAL_PUT_LOCAL_GET_VDMA,
        )

    @property
    def uses_fast_write_ack(self) -> bool:
        return self is CommScheme.HW_ACCEL_REMOTE_PUT

    @property
    def direct_threshold(self) -> int:
        """Direct-transfer threshold, bytes (§3.3): below it a core
        pushes the payload itself and skips the scheme's setup costs.
        Schemes without the communication-task extensions have none."""
        return _DIRECT_THRESHOLDS[self]


#: Single source of truth behind :attr:`CommScheme.direct_threshold`.
_DIRECT_THRESHOLDS: dict[CommScheme, int] = {
    CommScheme.TRANSPARENT: 0,
    CommScheme.REMOTE_PUT_WCB: 32,
    CommScheme.LOCAL_PUT_REMOTE_GET: 64,
    CommScheme.LOCAL_PUT_LOCAL_GET_VDMA: 128,
    CommScheme.HW_ACCEL_REMOTE_PUT: 0,
}
