"""Unit tests for the VSCCSystem façade."""

from repro.vscc.schemes import CommScheme
from repro.vscc.system import VSCCSystem


def test_full_system_has_240_ranks():
    system = VSCCSystem(num_devices=5)
    assert system.num_ranks == 240


def test_failures_shrink_rank_space():
    system = VSCCSystem(num_devices=5, failure_prob=0.05, seed=3)
    assert system.num_ranks < 240
    # "we have extended the startup script of RCCE thereby that it
    # creates a new configuration file with all available cores" (§4)
    assert system.config.total_cores == system.num_ranks
    # the config file round-trips through its text form
    from repro.rcce.config import SccConfigFile

    assert SccConfigFile.from_text(system.config.to_text()) == system.config


def test_seed_reproducible():
    a = VSCCSystem(num_devices=2, failure_prob=0.1, seed=42)
    b = VSCCSystem(num_devices=2, failure_prob=0.1, seed=42)
    assert a.config == b.config


def test_extensions_follow_scheme():
    assert VSCCSystem(num_devices=2, scheme=CommScheme.TRANSPARENT).host.extensions_enabled is False
    assert VSCCSystem(num_devices=2, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA).host.extensions_enabled is True


def test_regions_registered_for_every_core():
    system = VSCCSystem(num_devices=2)
    from repro.host.regions import RegionKind
    from repro.scc.mpb import MpbAddr

    assert system.host.regions.classify(MpbAddr(1, 47, 0), 32) is RegionKind.BUFFER
    assert system.host.regions.classify(MpbAddr(0, 0, 7681)) is RegionKind.FLAG


def test_launch_subset_and_results():
    system = VSCCSystem(num_devices=2)

    def program(comm):
        yield from comm.env.compute(cycles=1)
        return comm.rank

    assert system.run(program, ranks=[0, 90]).results == {0: 0, 90: 90}


def test_traffic_matrix_shape():
    system = VSCCSystem(num_devices=2)
    matrix = system.traffic_matrix()
    assert matrix.shape == (96, 96)
    assert matrix.sum() == 0
