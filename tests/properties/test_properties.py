"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.npb.multipartition import MultiPartition, X, Y, Z
from repro.rcce.flags import FlagLayout, SEQ_MOD, reached
from repro.rcce.malloc import MpbAllocator, OutOfMpbError
from repro.scc.mesh import XYRouter
from repro.scc.params import SCCParams
from repro.sim.clock import Clock
from repro.sim.engine import Simulator
from repro.sim.resources import Link


# -- allocator -----------------------------------------------------------------


@st.composite
def alloc_programs(draw):
    """A random sequence of malloc/free operations."""
    ops = []
    live = 0
    for _ in range(draw(st.integers(1, 30))):
        if live and draw(st.booleans()):
            ops.append(("free", draw(st.integers(0, live - 1))))
        else:
            ops.append(("malloc", draw(st.integers(1, 512))))
            live += 1
    return ops


@given(alloc_programs())
@settings(max_examples=60, deadline=None)
def test_allocator_never_overlaps_and_conserves(ops):
    alloc = MpbAllocator(8192 - 512)
    live: dict[int, tuple[int, int]] = {}
    handles: list[int] = []
    for op, arg in ops:
        if op == "malloc":
            try:
                offset = alloc.malloc(arg)
            except OutOfMpbError:
                continue
            size = -(-arg // 32) * 32
            for start, (s2, e2) in live.items():
                assert offset + size <= s2 or s2 + (e2 - s2) <= offset or not (
                    offset < e2 and s2 < offset + size
                ), "overlapping allocation"
            live[offset] = (offset, offset + size)
            handles.append(offset)
        else:
            if arg < len(handles) and handles[arg] in live:
                alloc.free(handles[arg])
                del live[handles[arg]]
    used = sum(e - s for s, e in live.values())
    assert alloc.bytes_free == alloc.capacity - used


@given(st.lists(st.integers(1, 600), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_allocator_free_all_restores_capacity(sizes):
    alloc = MpbAllocator(7680)
    offsets = []
    for size in sizes:
        try:
            offsets.append(alloc.malloc(size))
        except OutOfMpbError:
            break
    for offset in offsets:
        alloc.free(offset)
    assert alloc.bytes_free == alloc.capacity
    # after freeing everything, a maximal allocation must succeed again
    assert alloc.malloc(alloc.capacity) == 0


# -- sequence counters -----------------------------------------------------------


@given(st.integers(1, SEQ_MOD), st.integers(0, 6), st.integers(1, 8))
@settings(max_examples=120, deadline=None)
def test_reached_accepts_exactly_the_lead_window(target, lead, max_lead):
    """reached(target) accepts values 0..max_lead-1 steps past target."""
    value = target
    for _ in range(lead):
        value = FlagLayout.next_seq(value)
    pred = reached(target, max_lead=max_lead)
    assert pred(value) == (lead < max_lead)
    assert not pred(0)


@given(st.integers(0, SEQ_MOD))
def test_next_seq_stays_in_range(seq):
    nxt = FlagLayout.next_seq(seq)
    assert 1 <= nxt <= SEQ_MOD


# -- delay fusion ----------------------------------------------------------------


@given(
    st.lists(
        st.floats(0.0, 1e7, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=8,
    )
)
@settings(max_examples=80, deadline=None)
def test_fused_chain_time_is_bitwise_the_sequential_sum(delays):
    """``yield (d0, d1, ...)`` lands at ``((now+d0)+d1)+...`` exactly.

    The fused wake-up time must be the *sequential* float accumulation —
    bitwise equal to yielding each delay on its own — never a reordered
    or vectorized sum (float addition is not associative).
    """
    import struct

    chain = tuple(delays)

    def fused_prog():
        yield chain

    def sequential_prog():
        for d in delays:
            yield d

    fused = Simulator(fuse_delays=True)
    fused.spawn(fused_prog())
    fused.run()
    unfused = Simulator(fuse_delays=False)
    unfused.spawn(fused_prog())
    unfused.run()
    plain = Simulator()
    plain.spawn(sequential_prog())
    plain.run()

    expected = 0.0
    for d in delays:
        expected = expected + d
    pack = lambda x: struct.pack("<d", x)  # noqa: E731 - bitwise compare
    assert pack(fused.now) == pack(unfused.now) == pack(plain.now) == pack(expected)
    # The chain costs exactly one wake-up fused, one per element unfused.
    assert unfused.events_processed - fused.events_processed == len(delays) - 1
    assert fused.fused_yields == len(delays) - 1


# -- XY routing --------------------------------------------------------------------


@given(st.integers(0, 23), st.integers(0, 23))
@settings(max_examples=80, deadline=None)
def test_xy_path_properties(src, dst):
    params = SCCParams()
    router = XYRouter(params)
    path = router.path(src, dst)
    # endpoints correct, length = hops + 1, each step is one mesh hop
    assert path[0] == params.tile_xy(src)
    assert path[-1] == params.tile_xy(dst)
    assert len(path) - 1 == router.hops(src, dst)
    for (ax, ay), (bx, by) in zip(path, path[1:]):
        assert abs(ax - bx) + abs(ay - by) == 1
    # dimension order: y never moves before x is settled
    dst_x = params.tile_xy(dst)[0]
    seen_y_move = False
    for (ax, ay), (bx, by) in zip(path, path[1:]):
        if ay != by:
            seen_y_move = True
            assert ax == dst_x
        if seen_y_move:
            assert ax == bx == dst_x


# -- link FIFO ---------------------------------------------------------------------------


@given(st.lists(st.integers(1, 4096), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_link_arrivals_preserve_order_and_rate(sizes):
    sim = Simulator()
    link = Link(sim, "l", latency_ns=50.0, bandwidth_bpns=0.5, overhead_ns=5.0)
    arrivals = []
    for index, size in enumerate(sizes):
        link.post(size, on_arrival=lambda i=index: arrivals.append((i, sim.now)))
    sim.run()
    assert [i for i, _t in arrivals] == list(range(len(sizes)))
    # total occupancy bounds the last arrival
    serialization = sum(5.0 + s / 0.5 for s in sizes)
    assert arrivals[-1][1] == pytest.approx(serialization + 50.0)


# -- clock ------------------------------------------------------------------------------------


@given(st.floats(1.0, 5000.0), st.floats(0.0, 1e9))
@settings(max_examples=50)
def test_clock_roundtrip(freq, ns):
    clk = Clock(freq)
    assert clk.cycles(clk.to_cycles(ns)) == pytest.approx(ns, rel=1e-9, abs=1e-9)


# -- multipartition -----------------------------------------------------------------------------


@given(st.sampled_from([1, 4, 9, 16, 25]), st.integers(5, 40))
@settings(max_examples=40, deadline=None)
def test_multipartition_invariants(nranks, n):
    part = MultiPartition(nranks, max(n, part_min(nranks)))
    p = part.p
    # cells partition the p^3 cell grid
    owned = [cell for rank in range(nranks) for cell in part.cells(rank)]
    assert len(set(owned)) == p ** 3
    # partner relation is a bijection per direction
    for dim in (X, Y, Z):
        succs = [part.partner(r, dim, True) for r in range(nranks)]
        assert sorted(succs) == list(range(nranks))
        for rank in range(nranks):
            assert part.partner(succs[rank], dim, False) == rank
    # slab sizes tile the grid exactly
    assert sum(part.slab_size(k) for k in range(p)) == part.n


def part_min(nranks):
    import math

    return math.isqrt(nranks)


# -- end-to-end data integrity over random payloads -----------------------------------------------


@given(
    st.integers(0, 20000),
    st.sampled_from(["vdma", "cached-get", "remote-put-wcb"]),
    st.integers(0, 2 ** 31 - 1),
)
@settings(max_examples=12, deadline=None)
def test_random_payload_crosses_devices_intact(size, scheme_value, seed):
    from repro.vscc.schemes import CommScheme
    from repro.vscc.system import VSCCSystem

    scheme = CommScheme(scheme_value)
    system = VSCCSystem(num_devices=2, scheme=scheme)
    rng = np.random.default_rng(seed)
    payload = rng.integers(0, 256, size, dtype=np.uint8)
    got = {}

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(payload, 48)
        elif comm.rank == 48:
            got["data"] = yield from comm.recv(size, 0)

    system.run(program, ranks=[0, 48])
    assert bytes(got["data"]) == payload.tobytes()


# -- ADI solver over random partitions ---------------------------------------------


@given(st.sampled_from([1, 4, 9]), st.integers(6, 14), st.integers(1, 2))
@settings(max_examples=10, deadline=None)
def test_adi_always_bitwise_matches_reference(nranks, n, steps):
    from repro.apps.npb import BTBenchmark, BTClass, adi_reference, initial_condition
    from repro.rcce.session import RcceSession

    if n < part_min(nranks) * 2:
        n = part_min(nranks) * 2
    bench = BTBenchmark(
        clazz=BTClass("mini", n, steps, 0.01), nranks=nranks, niter=steps, mode="adi"
    )
    session = RcceSession()
    results = session.run(bench.program, ranks=range(nranks)).results
    part = bench.part
    full = np.zeros((n,) * 3)
    for _rank, cells in results.items():
        for (x, y, z), arr in cells.items():
            sx, sy, sz = part.slab_start(x), part.slab_start(y), part.slab_start(z)
            full[sx : sx + arr.shape[0], sy : sy + arr.shape[1], sz : sz + arr.shape[2]] = arr
    assert np.array_equal(full, adi_reference(initial_condition(n), steps))
