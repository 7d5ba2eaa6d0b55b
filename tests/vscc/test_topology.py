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


def test_is_cross_device(system):
    assert not system.topology.is_cross_device(0, 47)
    assert system.topology.is_cross_device(47, 48)
