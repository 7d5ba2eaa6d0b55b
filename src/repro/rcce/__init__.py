"""RCCE: the light-weight communication environment for the SCC.

Public surface::

    from repro.rcce import Rcce, RcceOptions, RankLayout, SccConfigFile
"""

from . import collectives, hierarchical
from .api import Rcce, RcceOptions
from .config import RankLayout, SccConfigFile
from .flags import FlagLayout, MAX_RANKS, SEQ_MOD
from .gory import Gory
from .malloc import MpbAllocator, OutOfMpbError
from .transport import DefaultGetTransport, OnChipSelector, Transport

__all__ = [
    "DefaultGetTransport",
    "FlagLayout",
    "Gory",
    "MAX_RANKS",
    "MpbAllocator",
    "OnChipSelector",
    "OutOfMpbError",
    "RankLayout",
    "Rcce",
    "RcceOptions",
    "SEQ_MOD",
    "SccConfigFile",
    "Transport",
    "collectives",
    "hierarchical",
]
