"""vSCC: a virtual 240-core cluster-on-a-chip from five SCC devices.

Public surface::

    from repro.vscc import VSCCSystem, CommScheme, FabricTopology
    from repro.vscc import StaticPolicy, ThresholdPolicy, AdaptivePolicy
"""

from .policy import (
    AdaptivePolicy,
    Route,
    SchemePolicy,
    StaticPolicy,
    ThresholdPolicy,
)
from .protocol import (
    DirectSmallTransport,
    HwAccelRemotePutTransport,
    RemotePutTransport,
    VdmaTransport,
    VsccSelector,
)
from .schemes import CommScheme
from .system import RunResult, VSCCSystem
from .topology import FabricTopology

__all__ = [
    "AdaptivePolicy",
    "CommScheme",
    "DirectSmallTransport",
    "FabricTopology",
    "HwAccelRemotePutTransport",
    "RemotePutTransport",
    "Route",
    "RunResult",
    "SchemePolicy",
    "StaticPolicy",
    "ThresholdPolicy",
    "VSCCSystem",
    "VdmaTransport",
    "VsccSelector",
]
