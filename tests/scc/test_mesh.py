"""Unit tests for XY routing."""

import pytest

from repro.scc.mesh import XYRouter
from repro.scc.params import SCCParams


@pytest.fixture
def router():
    return XYRouter(SCCParams())


def test_path_is_x_first_then_y(router):
    params = SCCParams()
    path = router.path(params.tile_at(0, 0), params.tile_at(3, 2))
    assert path[0] == (0, 0) and path[-1] == (3, 2)
    xs = [p[0] for p in path]
    ys = [p[1] for p in path]
    # x settles before y moves
    assert ys[: xs.index(3) + 1] == [0] * (xs.index(3) + 1)


def test_path_length_matches_hops(router):
    params = SCCParams()
    for a in (0, 7, 23):
        for b in (0, 5, 12, 23):
            path = router.path(a, b)
            assert len(path) - 1 == router.hops(a, b)


def test_account_charges_every_link(router):
    params = SCCParams()
    router.account(params.tile_at(0, 0), params.tile_at(2, 1), 100)
    assert sum(router.link_bytes.values()) == 3 * 100
    ((a, b), n), *_ = router.link_bytes.most_common(1)
    assert n == 100


def test_link_busy_ns_is_flits_times_flit_cost_per_hop(router):
    """64 pairs (i, 7i + 3) of 96 B: three 5 ns flits on each of 255 hops."""
    n = SCCParams().num_tiles
    pairs = [(i % n, (i * 7 + 3) % n) for i in range(64)] + [(5, 5)]
    for src, dst in pairs:
        router.account(src, dst, 96)
    assert sum(router.hops(src, dst) for src, dst in pairs) == 255
    assert router.link_busy_ns == 3 * 5.0 * 255
    assert (sum(router.link_bytes.values()), len(router.link_bytes)) == (96 * 255, 64)
