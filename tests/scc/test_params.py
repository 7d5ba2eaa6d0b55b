"""Unit tests for the SCC parameter/timing model."""

import dataclasses
import pickle
import struct

import pytest

from repro.scc.chip import SCCDevice
from repro.scc.mesh import XYRouter
from repro.scc.params import CACHE_LINE, SCCParams
from repro.sim.engine import Simulator


@pytest.fixture
def params():
    return SCCParams()


def test_paper_configuration(params):
    # §4 footnote 4: (core/mesh/memory) = (533/800/800) MHz. DRAM costs
    # are core cycles, so the memory clock has no parameter.
    assert params.core_freq_mhz == 533.0
    assert params.mesh_freq_mhz == 800.0
    # 48 P54C cores on 24 tiles, 6x4 mesh.
    assert params.num_cores == 48
    assert params.num_tiles == 24


def test_lmb_split(params):
    # Footnote 5: the 8 kB LMB holds MPB payload plus SF region.
    assert params.lmb_bytes_per_core == 8192
    assert params.mpb_payload_bytes + params.sf_bytes == 8192
    assert params.mpb_payload_bytes % CACHE_LINE == 0


def test_tile_coordinates_roundtrip(params):
    for tile in range(params.num_tiles):
        x, y = params.tile_xy(tile)
        assert params.tile_at(x, y) == tile
        assert 0 <= x < 6 and 0 <= y < 4


def test_cores_share_tiles(params):
    assert params.tile_of_core(0) == params.tile_of_core(1) == 0
    assert params.tile_of_core(46) == params.tile_of_core(47) == 23


def test_hops_metric(params):
    router = XYRouter(params)

    def hops(core_a, core_b):
        return router.hops(params.tile_of_core(core_a), params.tile_of_core(core_b))

    assert hops(0, 1) == 0          # same tile
    assert hops(0, 10) == 5         # (0,0) -> (5,0)
    assert hops(0, 47) == 8         # (0,0) -> (5,3)
    assert hops(10, 0) == hops(0, 10)


def test_remote_read_costs_about_100_cycles(params):
    # §3: "a communication path in x or y direction has a relatively
    # low latency (~100 core cycles)".
    typical = params.remote_read_ns(4)
    cycles = params.core_clock.to_cycles(typical)
    assert 60 <= cycles <= 150


def test_remote_read_grows_with_distance(params):
    costs = [params.remote_read_ns(h) for h in range(9)]
    assert all(b > a for a, b in zip(costs, costs[1:]))


def test_local_accesses_cheaper_than_remote(params):
    assert params.local_read_ns() < params.remote_read_ns(1)
    assert params.local_read_ns(l1_hit=True) < params.local_read_ns()


def test_validation():
    with pytest.raises(ValueError):
        SCCParams(sf_bytes=8192)
    with pytest.raises(ValueError):
        SCCParams(sf_bytes=100)  # not line multiple
    with pytest.raises(ValueError):
        SCCParams(tiles_x=0)
    with pytest.raises(ValueError):
        SCCParams().tile_at(6, 0)
    with pytest.raises(ValueError):
        SCCParams()._check_core(48)


# -- cached clocks and per-hop cost tables --------------------------------------


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def test_remote_write_cost_is_the_same_at_every_distance(params):
    """Posted through the WCB: the issuing core pays no per-hop cost."""
    base = params.remote_write_ns(0)
    assert base == params.core_clock.cycles(params.mpb_remote_write_cycles)
    for hops in range(params.max_hops + 1):
        assert _bits(params.remote_write_ns(hops)) == _bits(base)


def test_clocks_are_built_once(params):
    assert params.core_clock is params.core_clock
    assert params.mesh_clock is params.mesh_clock
    assert params.core_clock.freq_mhz == params.core_freq_mhz


@pytest.mark.parametrize(
    "kwargs", [{}, {"mesh_freq_mhz": 400.0}, {"core_freq_mhz": 400.0}]
)
def test_hop_tables_match_the_cost_methods_bitwise(kwargs):
    params = SCCParams(**kwargs)
    costs = params.hop_costs
    assert params.max_hops == 8
    assert len(costs.remote_read_ns) == params.max_hops + 1
    for hops in range(params.max_hops + 1):
        assert _bits(costs.remote_read_ns[hops]) == _bits(params.remote_read_ns(hops))
        assert _bits(costs.remote_write_ns[hops]) == _bits(params.remote_write_ns(hops))
        assert _bits(costs.remote_write_arrival_ns[hops]) == _bits(
            params.remote_write_arrival_ns(hops)
        )
        for nbytes in (0, 1, 16, 32, 33, 4096):
            flits = max(1, -(-nbytes // 32))
            analytic = params.mesh_clock.cycles(
                params.mesh_hop_mesh_cycles * hops + params.mesh_flit_mesh_cycles * flits
            )
            assert _bits(params.mesh_path_ns(hops, nbytes)) == _bits(analytic)


def test_params_do_not_share_tables():
    default, slow_mesh = SCCParams(), SCCParams(mesh_freq_mhz=400.0)
    assert default.hop_costs is default.hop_costs
    assert slow_mesh.hop_costs is not default.hop_costs
    # The mesh clock enters reads and arrivals, not the posted write.
    assert slow_mesh.hop_costs.remote_read_ns[3] > default.hop_costs.remote_read_ns[3]
    assert slow_mesh.hop_costs.remote_write_arrival_ns[3] > (
        default.hop_costs.remote_write_arrival_ns[3]
    )
    assert slow_mesh.mesh_path_ns(3, 64) == 2 * default.mesh_path_ns(3, 64)


def test_sif_costs_come_from_the_hop_table():
    for params in (SCCParams(), SCCParams(mesh_freq_mhz=400.0)):
        dev = SCCDevice(Simulator(), params)
        for _ in range(2):  # memo misses, then hits
            for core in range(params.num_cores):
                hops = dev.sif.hops_from_core(core)
                for nbytes in (16, 32, 4096):
                    assert _bits(dev.sif.mesh_to_sif_ns(core, nbytes)) == _bits(
                        params.mesh_path_ns(hops, nbytes)
                    )
        memo = params.hop_costs.mesh_path_memo
        assert {nbytes for row in memo for nbytes in row} == {16, 32, 4096}
        for hops, row in enumerate(memo):
            for nbytes, cost in row.items():
                assert _bits(cost) == _bits(params.mesh_path_ns(hops, nbytes))


def test_params_stay_frozen_equal_hashable_and_picklable(params):
    params.hop_costs  # populate the cached attributes first
    params.core_clock
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.core_freq_mhz = 800.0
    copy = pickle.loads(pickle.dumps(params))
    assert copy == params and hash(copy) == hash(params)
    assert vars(copy) == {f.name: getattr(params, f.name) for f in dataclasses.fields(params)}
    assert copy.hop_costs.remote_read_ns == params.hop_costs.remote_read_ns
    assert SCCParams(mesh_freq_mhz=400.0) != params
