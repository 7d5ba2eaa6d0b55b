"""Unit tests for the region registry / request classifier."""

import pytest

from repro.host.regions import Region, RegionKind, RegionRegistry
from repro.scc.mpb import MpbAddr


def test_classify_buffer_flag_unregistered():
    reg = RegionRegistry()
    reg.register(Region(0, 5, 0, 7680, RegionKind.BUFFER))
    reg.register(Region(0, 5, 7680, 512, RegionKind.FLAG))
    assert reg.classify(MpbAddr(0, 5, 100), 32) is RegionKind.BUFFER
    assert reg.classify(MpbAddr(0, 5, 7700)) is RegionKind.FLAG
    assert reg.classify(MpbAddr(0, 6, 0)) is RegionKind.UNREGISTERED


def test_span_must_fit_entirely():
    reg = RegionRegistry()
    reg.register(Region(0, 0, 0, 7680, RegionKind.BUFFER))
    assert reg.classify(MpbAddr(0, 0, 7600), 200) is RegionKind.UNREGISTERED


def test_overlap_rejected():
    reg = RegionRegistry()
    reg.register(Region(0, 0, 0, 100, RegionKind.BUFFER))
    with pytest.raises(ValueError, match="overlaps"):
        reg.register(Region(0, 0, 64, 100, RegionKind.FLAG))


def test_validation():
    with pytest.raises(ValueError):
        Region(0, 0, 0, 0, RegionKind.FLAG)
    with pytest.raises(ValueError):
        Region(0, 0, -1, 10, RegionKind.FLAG)


def test_regions_are_kept_per_device_and_core():
    reg = RegionRegistry()
    reg.register(Region(1, 2, 0, 64, RegionKind.BUFFER))
    assert reg.classify(MpbAddr(1, 2, 0), 64) is RegionKind.BUFFER
    assert reg.classify(MpbAddr(0, 2, 0), 64) is RegionKind.UNREGISTERED
    assert reg.classify(MpbAddr(1, 3, 0), 64) is RegionKind.UNREGISTERED
