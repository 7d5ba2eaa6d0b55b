"""Unit tests for the symmetric MPB allocator."""

import pytest

from repro.rcce.malloc import MpbAllocator, OutOfMpbError


def test_alignment_and_first_fit():
    alloc = MpbAllocator(1024)
    a = alloc.malloc(10)
    b = alloc.malloc(33)
    assert a == 0
    assert b == 32          # rounded to the cache line
    assert alloc.capacity - alloc.bytes_free == 32 + 64


def test_free_and_coalesce():
    alloc = MpbAllocator(256)
    a = alloc.malloc(64)
    b = alloc.malloc(64)
    c = alloc.malloc(64)
    alloc.free(a)
    alloc.free(b)
    # coalesced back: a 128 B request fits in the front again
    d = alloc.malloc(128)
    assert d == 0


def test_exhaustion_raises():
    alloc = MpbAllocator(128)
    alloc.malloc(128)
    with pytest.raises(OutOfMpbError):
        alloc.malloc(1)


def test_double_free_rejected():
    alloc = MpbAllocator(128)
    a = alloc.malloc(32)
    alloc.free(a)
    with pytest.raises(ValueError):
        alloc.free(a)


def test_symmetry_across_ranks():
    """Identical call sequences yield identical offsets (the property
    RCCE's one-sided addressing relies on)."""
    seq = [(("m", 40)), ("m", 96), ("f", 0), ("m", 33)]
    outcomes = []
    for _ in range(2):
        alloc = MpbAllocator(512)
        offsets = []
        for op, arg in seq:
            if op == "m":
                offsets.append(alloc.malloc(arg))
            else:
                alloc.free(offsets[arg])
        outcomes.append(offsets)
    assert outcomes[0] == outcomes[1]


def test_validation():
    with pytest.raises(ValueError):
        MpbAllocator(100)  # not line multiple
    with pytest.raises(ValueError):
        MpbAllocator(256).malloc(0)
