"""Unit tests for the (x, y, device, host) topology."""

import pytest

from repro.vscc.schemes import CommScheme
from repro.vscc.system import VSCCSystem


@pytest.fixture(scope="module")
def system():
    return VSCCSystem(num_devices=3, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA)


def test_device_coordinate(system):
    topo = system.topology
    assert topo.coords(0) == (0, 0, 0, 0)
    assert topo.coords(48) == (0, 0, 1, 0)
    assert topo.coords(96 + 47) == (5, 3, 2, 0)
    assert topo.num_devices() == 3


def test_mesh_hops_only_same_device(system):
    topo = system.topology
    assert topo.xy_hops(0, 47) == 8
    with pytest.raises(ValueError):
        topo.xy_hops(0, 48)


def test_path_hops_funnel_through_sif(system):
    topo = system.topology
    onchip, z = topo.path_hops(0, 10)
    assert z == 0
    cross, z = topo.path_hops(0, 48)
    assert z == 1
    # both end points pay their distance to tile (3, 0)
    assert cross == 3 + 3


def test_is_cross_device(system):
    assert not system.topology.is_cross_device(0, 47)
    assert system.topology.is_cross_device(47, 48)
