"""FabricTopology: three-level coordinates, groups and pair predicates."""

import pytest

from repro.vscc.schemes import CommScheme
from repro.vscc.system import VSCCSystem
from repro.vscc.topology import FabricTopology


@pytest.fixture(scope="module")
def system():
    """2 hosts x 2 devices: devices 0-1 on host 0, devices 2-3 on host 1."""
    return VSCCSystem(
        num_hosts=2, devices_per_host=2,
        scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA,
    )


def test_coords_carry_the_host(system):
    topo = system.topology
    assert isinstance(topo, FabricTopology)
    assert topo.coords(0)[2:] == (0, 0)
    assert topo.coords(48)[2:] == (1, 0)
    assert topo.coords(96)[2:] == (2, 1)
    assert topo.coords(3 * 48 + 47)[2:] == (3, 1)
    assert topo.num_hosts() == 2


def test_device_groups_preserve_permuted_order(system):
    topo = system.topology
    # A deliberately scattered order crossing every device and host.
    ranks = [100, 3, 145, 50, 0, 190, 49, 101]
    groups = topo.device_groups(ranks)
    # Keyed in first-appearance order of the devices...
    assert list(groups) == [2, 0, 3, 1]
    # ...and each sublist keeps the input order.
    assert groups[2] == [100, 101]
    assert groups[0] == [3, 0]
    assert groups[3] == [145, 190]
    assert groups[1] == [50, 49]


def test_host_groups_preserve_permuted_order(system):
    topo = system.topology
    ranks = [100, 3, 145, 50, 0, 190, 49, 101]
    groups = topo.host_groups(ranks)
    assert list(groups) == [1, 0]
    assert groups[1] == [100, 145, 190, 101]
    assert groups[0] == [3, 50, 0, 49]
    # Every rank of a host group really lives on that host.
    for host, members in groups.items():
        assert all(topo.host_of_rank(r) == host for r in members)


def test_group_decompositions_are_permutation_stable(system):
    """Same member *set*, different order: same partition per key."""
    topo = system.topology
    ranks = list(range(0, 192, 7))
    perm = ranks[::-1]
    by_dev = topo.device_groups(ranks)
    by_dev_perm = topo.device_groups(perm)
    assert {k: set(v) for k, v in by_dev.items()} == \
           {k: set(v) for k, v in by_dev_perm.items()}
    by_host = topo.host_groups(ranks)
    by_host_perm = topo.host_groups(perm)
    assert {k: set(v) for k, v in by_host.items()} == \
           {k: set(v) for k, v in by_host_perm.items()}


def test_cross_host_pair_predicates(system):
    topo = system.topology
    cross_dev = (0, 48)         # devices 0 -> 1, same host
    cross_host = (0, 96)        # device 0 (host 0) -> device 2 (host 1)
    assert topo.is_cross_host(*cross_host)
    assert not topo.is_cross_host(*cross_dev)
    assert topo.same_host(*cross_dev)


def test_single_host_specialization_matches_fabric():
    """A single-host system's topology is FabricTopology with no host map."""
    single = VSCCSystem(num_devices=2, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA)
    topo = single.topology
    assert topo == FabricTopology(single.layout, single.params)
    assert topo.num_hosts() == 1
    assert topo.coords(48) == (0, 0, 1, 0)
    assert topo.host_groups([5, 60, 0]) == {0: [5, 60, 0]}
