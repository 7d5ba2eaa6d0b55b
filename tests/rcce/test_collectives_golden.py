"""Golden-model collective harness: every collective vs a numpy reference.

Covers the full matrix the ISSUE demands — all five collectives
(barrier, bcast, reduce, allreduce, gather) × both implementations
(flat binomial, two-level hierarchical) × the three scheme policies
(static, threshold, adaptive) — on a two-device system whose test group
is a ``members=`` permutation spanning both devices, with payload sizes
straddling the direct-transfer and vDMA thresholds.

**Bitwise contract.** The references below replicate the exact
combination order of each implementation (the flat binomial virtual-rank
order; for hierarchical, the per-device binomial folds followed by the
leader tree — the order documented in :mod:`repro.rcce.hierarchical`),
so results are asserted *bitwise equal* — for integer dtypes trivially,
and for floats because the simulated run performs the identical sequence
of IEEE operations as the reference.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.vscc.policy import AdaptivePolicy, StaticPolicy, ThresholdPolicy
from repro.vscc.schemes import CommScheme
from repro.vscc.system import VSCCSystem

# -- shared systems ------------------------------------------------------------

POLICIES = {
    "static": lambda: StaticPolicy(CommScheme.LOCAL_PUT_LOCAL_GET_VDMA),
    "threshold": lambda: ThresholdPolicy(),
    "adaptive": lambda: AdaptivePolicy(),
}

#: The one event-loop kernel. A one-value axis, kept so the golden
#: matrix keeps its test ids.
KERNELS = ["serial"]

#: One system per policy, shared across the matrix: collectives leave no
#: state behind beyond monotonic clocks/counters, and rebuilding a
#: 96-core system per case would dominate the suite's runtime.
_SYSTEMS: dict[str, VSCCSystem] = {}


def system_for(policy_name: str) -> VSCCSystem:
    system = _SYSTEMS.get(policy_name)
    if system is None:
        system = _SYSTEMS[policy_name] = VSCCSystem(
            num_devices=2, policy=POLICIES[policy_name]()
        )
    return system


#: A members= permutation interleaving both devices (96 ranks: device 0
#: is 0-47, device 1 is 48-95), with the root cases off position 0.
MEMBERS = [3, 50, 0, 95, 7, 48, 12, 60]

#: Payload sizes straddling the §3.3 direct threshold (64/128 B) and the
#: single-chunk → vDMA cutover (7680 B on the default geometry).
SIZES = (16, 64, 200, 8192)

DTYPES = (np.float64, np.int64, np.int32, np.uint8)


# -- golden references ---------------------------------------------------------


def flat_reduce_ref(vals: list[np.ndarray], op, root: int) -> np.ndarray:
    """The flat binomial reduction, combination-for-combination.

    Virtual rank ``vr = (me - root) % n``; at each mask level every
    active ``vr`` with the mask bit clear absorbs ``vr + mask``. This is
    the exact order ``collectives.reduce`` performs, so float results
    match the simulated run bit for bit.
    """
    n = len(vals)
    acc = [np.array(vals[(vr + root) % n], copy=True) for vr in range(n)]
    mask = 1
    while mask < n:
        for i in range(0, n, 2 * mask):
            if i + mask < n:
                acc[i] = op(acc[i], acc[i + mask])
        mask <<= 1
    return acc[0]


def group_partition(system: VSCCSystem, members: list[int]) -> list[list[int]]:
    """Per-device partition as *group indices*, first-appearance order —
    mirrors ``VsccTopology.device_groups`` over the member list."""
    groups: dict[int, list[int]] = {}
    for gi, rank in enumerate(members):
        groups.setdefault(system.topology.device_of(rank), []).append(gi)
    return list(groups.values())


def hier_reduce_ref(
    groups: list[list[int]], vals: list[np.ndarray], op, root: int
) -> np.ndarray:
    """The two-level reduction order: per-device binomial folds (rooted
    at the device leader), then the flat binomial over the leaders."""
    leader_vals = []
    root_pos = None
    for gpos, g in enumerate(groups):
        leader = root if root in g else g[0]
        sub_vals = [vals[i] for i in g]
        leader_vals.append(flat_reduce_ref(sub_vals, op, g.index(leader)))
        if root in g:
            root_pos = gpos
    return flat_reduce_ref(leader_vals, op, root_pos)


def reduce_ref(system, members, vals, op, root, impl) -> np.ndarray:
    if impl == "flat":
        return flat_reduce_ref(vals, op, root)
    return hier_reduce_ref(group_partition(system, members), vals, op, root)


# -- the matrix: 5 collectives × 2 implementations × 3 policies ----------------


def _run(system, members, program):
    results = system.run(program, ranks=members).results
    return {rank: results[rank] for rank in members}


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("impl", ["flat", "hier"])
def test_golden_barrier(impl, policy_name, kernel):
    """Barrier orders every pre-barrier event before every post-barrier
    release — the golden model of a barrier is the max arrival time."""
    system = system_for(policy_name)
    hier = impl == "hier"
    arrived, released = {}, {}

    def program(comm):
        pos = members.index(comm.rank)
        yield from comm.env.compute(cycles=pos * 5000)
        arrived[comm.rank] = comm.env.sim.now
        yield from comm.barrier(members=members, hierarchical=hier)
        released[comm.rank] = comm.env.sim.now

    members = MEMBERS
    _run(system, members, program)
    latest = max(arrived.values())
    assert all(t >= latest for t in released.values())


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("impl", ["flat", "hier"])
def test_golden_bcast(impl, policy_name, kernel):
    system = system_for(policy_name)
    hier = impl == "hier"
    members = MEMBERS
    root = 3
    for size in SIZES:
        payload = np.arange(size, dtype=np.uint8) * 7 % 251
        got = {}

        def program(comm):
            data = payload if comm.rank == members[root] else None
            out = yield from comm.bcast(
                data, size, root, members=members, hierarchical=hier
            )
            got[comm.rank] = np.asarray(out, np.uint8)

        _run(system, members, program)
        for rank in members:
            assert (got[rank] == payload).all(), (size, rank)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("impl", ["flat", "hier"])
@pytest.mark.parametrize("dtype", [np.float64, np.int32])
def test_golden_reduce(impl, policy_name, dtype, kernel):
    system = system_for(policy_name)
    hier = impl == "hier"
    members = MEMBERS
    root = 2
    vals = [
        (np.arange(8) * (gi + 3) + gi).astype(dtype) for gi in range(len(members))
    ]
    expected = reduce_ref(system, members, vals, np.add, root, impl)
    got = {}

    def program(comm):
        gi = members.index(comm.rank)
        out = yield from comm.reduce(
            vals[gi], np.add, root, members=members, hierarchical=hier
        )
        got[comm.rank] = out

    _run(system, members, program)
    result = got[members[root]]
    assert result.dtype == np.dtype(dtype)
    assert (result == expected).all()  # bitwise: reference replays the order
    assert all(got[r] is None for r in members if r != members[root])


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("impl", ["flat", "hier"])
@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_golden_allreduce(impl, policy_name, dtype, kernel):
    system = system_for(policy_name)
    hier = impl == "hier"
    members = MEMBERS
    vals = [
        (np.linspace(0.0, 1.0, 6) * (gi + 1)).astype(dtype)
        for gi in range(len(members))
    ]
    expected = reduce_ref(system, members, vals, np.add, 0, impl)
    got = {}

    def program(comm):
        gi = members.index(comm.rank)
        out = yield from comm.allreduce(
            vals[gi], np.add, members=members, hierarchical=hier
        )
        got[comm.rank] = out

    _run(system, members, program)
    for rank in members:
        assert got[rank].dtype == np.dtype(dtype)
        assert (got[rank] == expected).all(), rank


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("impl", ["flat", "hier"])
def test_golden_gather(impl, policy_name, kernel):
    system = system_for(policy_name)
    hier = impl == "hier"
    members = MEMBERS
    root = 1
    for size in SIZES:
        got = {}

        def program(comm):
            gi = members.index(comm.rank)
            value = np.full(size, gi, np.uint8)
            parts = yield from comm.gather(
                value, root, members=members, hierarchical=hier
            )
            got[comm.rank] = parts

        _run(system, members, program)
        parts = got[members[root]]
        assert len(parts) == len(members)
        for gi in range(len(members)):
            part = np.asarray(parts[gi], np.uint8)
            assert part.shape == (size,)
            assert (part == gi).all(), (size, gi)
        assert all(got[r] is None for r in members if r != members[root])


# -- hypothesis: random groups, permutations, dtypes, sizes, roots -------------

group_strategy = st.lists(
    st.sampled_from(range(96)), min_size=2, max_size=9, unique=True
)


@given(
    members=group_strategy,
    nelem=st.integers(1, 12),
    dtype=st.sampled_from(DTYPES),
    hier=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=20, deadline=None)
def test_allreduce_matches_reference(members, nelem, dtype, hier, seed):
    system = system_for("threshold")
    rng = np.random.default_rng(seed)
    vals = [
        (rng.integers(0, 100, nelem)).astype(dtype) for _ in range(len(members))
    ]
    expected = reduce_ref(
        system, members, vals, np.add, 0, "hier" if hier else "flat"
    )
    got = {}

    def program(comm):
        gi = members.index(comm.rank)
        out = yield from comm.allreduce(
            vals[gi], np.add, members=members, hierarchical=hier
        )
        got[comm.rank] = out

    _run(system, members, program)
    for rank in members:
        assert got[rank].dtype == np.dtype(dtype)
        assert (got[rank] == expected).all()


@given(
    members=group_strategy,
    root=st.integers(0, 8),
    nelem=st.integers(1, 12),
    dtype=st.sampled_from(DTYPES),
    hier=st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_reduce_matches_reference(members, root, nelem, dtype, hier):
    system = system_for("threshold")
    root %= len(members)
    vals = [
        (np.arange(nelem) * 3 + gi * 11).astype(dtype)
        for gi in range(len(members))
    ]
    expected = reduce_ref(
        system, members, vals, np.maximum, root, "hier" if hier else "flat"
    )
    got = {}

    def program(comm):
        gi = members.index(comm.rank)
        out = yield from comm.reduce(
            vals[gi], np.maximum, root, members=members, hierarchical=hier
        )
        got[comm.rank] = out

    _run(system, members, program)
    assert (got[members[root]] == expected).all()


@given(
    members=group_strategy,
    root=st.integers(0, 8),
    size=st.integers(1, 9000),
    hier=st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_bcast_matches_reference(members, root, size, hier):
    system = system_for("threshold")
    root %= len(members)
    payload = (np.arange(size) * 13 % 256).astype(np.uint8)
    got = {}

    def program(comm):
        data = payload if comm.rank == members[root] else None
        out = yield from comm.bcast(
            data, size, root, members=members, hierarchical=hier
        )
        got[comm.rank] = np.asarray(out, np.uint8)

    _run(system, members, program)
    for rank in members:
        assert (got[rank] == payload).all()


@given(
    members=group_strategy,
    root=st.integers(0, 8),
    size=st.integers(1, 300),
    hier=st.booleans(),
)
@settings(max_examples=15, deadline=None)
def test_gather_matches_reference(members, root, size, hier):
    system = system_for("threshold")
    root %= len(members)
    got = {}

    def program(comm):
        gi = members.index(comm.rank)
        value = (np.arange(size) + gi * 7).astype(np.uint8)
        parts = yield from comm.gather(
            value, root, members=members, hierarchical=hier
        )
        got[comm.rank] = parts

    _run(system, members, program)
    parts = got[members[root]]
    for gi in range(len(members)):
        expected = (np.arange(size) + gi * 7).astype(np.uint8)
        assert (np.asarray(parts[gi], np.uint8) == expected).all()


@given(members=group_strategy, hier=st.booleans())
@settings(max_examples=15, deadline=None)
def test_barrier_completes_on_random_groups(members, hier):
    system = system_for("threshold")
    done = {}

    def program(comm):
        yield from comm.barrier(members=members, hierarchical=hier)
        done[comm.rank] = True

    _run(system, members, program)
    assert sorted(done) == sorted(members)


# -- flat/hier equivalence on a single device ----------------------------------


@pytest.mark.parametrize("op_name", ["barrier", "bcast", "reduce", "allreduce", "gather"])
def test_single_device_hier_degenerates_to_flat(op_name, session):
    """With one device the hierarchical plan is a single subgroup whose
    leader tree is trivial — results (and for barrier, even timing)
    match the flat implementation."""
    n = 6
    got = {"flat": {}, "hier": {}}

    def program(comm):
        for impl, hier in (("flat", False), ("hier", True)):
            if op_name == "barrier":
                yield from comm.barrier(group_size=n, hierarchical=hier)
                out = True
            elif op_name == "bcast":
                data = b"\x05" * 100 if comm.rank == 1 else None
                out = yield from comm.bcast(data, 100, 1, group_size=n, hierarchical=hier)
                out = bytes(np.asarray(out, np.uint8))
            elif op_name == "reduce":
                out = yield from comm.reduce(
                    np.arange(4.0) + comm.rank, np.add, 2, group_size=n, hierarchical=hier
                )
                out = None if out is None else out.tobytes()
            elif op_name == "allreduce":
                out = yield from comm.allreduce(
                    np.arange(4.0) * comm.rank, np.add, group_size=n, hierarchical=hier
                )
                out = out.tobytes()
            else:
                out = yield from comm.gather(
                    np.full(16, comm.rank, np.uint8), 0, group_size=n, hierarchical=hier
                )
                out = None if out is None else b"".join(bytes(p) for p in out)
            got[impl][comm.rank] = out

    session.run(program, ranks=range(n))
    assert got["flat"] == got["hier"]


# -- fused vs unfused fingerprint contract -------------------------------------


def test_collective_fingerprints_identical_across_kernels():
    """One collective mix, fused and unfused event loops, one clock.

    Delay fusion (the default) and the unfused serial oracle
    (``fuse_delays=False``, what ``REPRO_FUSE=0`` selects) must agree
    on the simulated clock and every payload byte; fusion may only
    collapse events.
    """

    def fingerprint(fuse_delays):
        system = VSCCSystem(
            num_devices=2, policy=POLICIES["threshold"](),
            fuse_delays=fuse_delays,
        )
        vals = {}

        def program(comm):
            gi = MEMBERS.index(comm.rank)
            data = (np.arange(64) * (gi + 1)).astype(np.float64)
            out = yield from comm.allreduce(
                data, np.add, members=MEMBERS, hierarchical=True
            )
            yield from comm.barrier(members=MEMBERS)
            vals[comm.rank] = out

        system.run(program, ranks=MEMBERS)
        return system.sim.now, system.sim.events_processed, vals

    now_f, events_f, vals_f = fingerprint(True)
    now_u, events_u, vals_u = fingerprint(False)
    assert now_f == now_u
    assert events_f < events_u
    for rank in MEMBERS:
        assert (vals_f[rank] == vals_u[rank]).all(), rank
