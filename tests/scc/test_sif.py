"""Unit tests for the system interface."""

from repro.scc.chip import SCCDevice
from repro.scc.sif import SIF_TILE_XY
from repro.sim.engine import Simulator


def test_sif_sits_at_3_0():
    dev = SCCDevice(Simulator())
    assert dev.params.tile_xy(dev.sif.tile) == SIF_TILE_XY == (3, 0)


def test_hops_to_sif():
    dev = SCCDevice(Simulator())
    # core 6/7 are on tile (3,0) itself
    assert dev.sif.hops_from_core(6) == 0
    assert dev.sif.hops_from_core(0) == 3
    assert dev.sif.hops_from_core(47) == 5


def test_unconnected_by_default():
    dev = SCCDevice(Simulator())
    assert dev.fabric is None


def test_mesh_cost_scales_with_size():
    dev = SCCDevice(Simulator())
    small = dev.sif.mesh_to_sif_ns(0, 32)
    big = dev.sif.mesh_to_sif_ns(0, 4096)
    assert big > small
