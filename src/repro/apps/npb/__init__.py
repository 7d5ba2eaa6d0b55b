"""NPB BT ported to (simulated) RCCE, after Mattson et al. [10]."""

from .adi import ADI_R, adi_reference, initial_condition
from .bt import BTBenchmark, BTResult, run_bt
from .model import BT_CLASSES, BTClass, BTCostModel
from .multipartition import MultiPartition, X, Y, Z, is_square

__all__ = [
    "ADI_R",
    "BTBenchmark",
    "BTClass",
    "BTCostModel",
    "BTResult",
    "BT_CLASSES",
    "MultiPartition",
    "X",
    "Y",
    "Z",
    "adi_reference",
    "initial_condition",
    "is_square",
    "run_bt",
]
