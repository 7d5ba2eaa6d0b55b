"""Unit tests for the config file and rank layout."""

import pytest

from repro.rcce.config import RankLayout, SccConfigFile
from repro.scc.chip import SCCDevice
from repro.sim.engine import Simulator


def make_config(*cores_per_device):
    return SccConfigFile(tuple(tuple(c) for c in cores_per_device))


def test_config_from_booted_devices():
    sim = Simulator()
    devices = [SCCDevice(sim, device_id=i) for i in range(2)]
    devices[0].boot()
    devices[1].boot(failed_cores=[7, 30])
    config = SccConfigFile.from_devices(devices)
    assert config.total_cores == 48 + 46
    assert 7 not in config.cores_per_device[1]


def test_config_text_roundtrip():
    config = make_config(range(48), [0, 2, 40])
    text = config.to_text()
    assert SccConfigFile.from_text(text) == config


def test_config_rejects_duplicates():
    with pytest.raises(ValueError):
        make_config([1, 1, 2])


def test_linear_rank_mapping_across_devices():
    """§3: ranks continue linearly onto the next device."""
    layout = RankLayout.from_config(make_config(range(48), range(48)))
    assert layout.num_ranks == 96
    assert layout.placement(0) == (0, 0)
    assert layout.placement(47) == (0, 47)
    assert layout.placement(48) == (1, 0)
    assert layout.rank_of(1, 5) == 53


def test_descending_core_order():
    """The SCC quirk: cores sorted descending by id (§3)."""
    layout = RankLayout.from_config(make_config(range(4)), order="descending")
    assert [layout.placement(r)[1] for r in range(4)] == [3, 2, 1, 0]


def test_failed_cores_skipped_in_ranks():
    """§4: the regenerated configuration file skips silent failures."""
    layout = RankLayout.from_config(make_config([0, 1, 3], [0]))
    assert layout.num_ranks == 4
    assert layout.placement(2) == (0, 3)
    assert layout.placement(3) == (1, 0)
    with pytest.raises(ValueError):
        layout.rank_of(0, 2)


def test_same_device_and_ranks_on_device():
    layout = RankLayout.from_config(make_config(range(2), range(2)))
    assert layout.same_device(0, 1)
    assert not layout.same_device(1, 2)
    assert [r for r in range(4) if layout.placement(r)[0] == 1] == [2, 3]


def test_traffic_recording():
    layout = RankLayout.from_config(make_config(range(4)))
    layout.record_traffic(0, 1, 100)
    layout.record_traffic(0, 1, 50)
    assert layout.traffic[(0, 1)] == 150


def test_empty_layout_rejected():
    with pytest.raises(ValueError):
        RankLayout([])
