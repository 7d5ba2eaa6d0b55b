"""Unit tests for the L1 MPBT model."""

from repro.scc.cache import L1MpbtCache


def test_miss_then_hit():
    l1 = L1MpbtCache()
    assert not l1.lookup(("mpb", 0, 10))
    assert l1.lookup(("mpb", 0, 10))
    assert l1.hits == 1 and l1.misses == 1


def test_cl1invmb_drops_everything():
    l1 = L1MpbtCache()
    for line in range(8):
        l1.lookup(("mpb", 0, line))
    assert l1.cl1invmb() == 8
    assert not l1.lookup(("mpb", 0, 3))


def test_capacity_eviction():
    l1 = L1MpbtCache()
    for line in range(L1MpbtCache.CAPACITY_LINES + 10):
        l1.lookup(("mpb", 0, line))
    assert l1.lookup(("mpb", 0, 10))  # the oldest line still held
    assert not l1.lookup(("mpb", 0, 9))  # FIFO: the ten before it are gone


def test_tags_distinguish_devices():
    l1 = L1MpbtCache()
    l1.lookup(("mpb", 0, 7))
    assert not l1.lookup(("mpb", 1, 7))
