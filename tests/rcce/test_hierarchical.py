"""Unit tests for the two-level collectives (repro.rcce.hierarchical)."""

from collections import Counter

import numpy as np
import pytest

from repro.vscc.schemes import CommScheme
from repro.vscc.system import VSCCSystem


@pytest.fixture(scope="module")
def system():
    return VSCCSystem(num_devices=3, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA)


# -- GroupPlan: the communication-free decomposition ---------------------------


def plan_for(system, members, root=None):
    """Build each member's GroupPlan without running any program."""
    from repro.rcce.hierarchical import GroupPlan

    return {
        rank: GroupPlan(
            system.comm_for(rank),
            None,
            members,
            root=root,
        )
        for rank in members
    }


def test_plan_splits_by_device_in_first_appearance_order(system):
    members = [100, 2, 50, 7, 144 - 1, 60]  # devices 2, 0, 1, 0, 2, 1
    plans = plan_for(system, members)
    for plan in plans.values():
        assert list(plan.groups) == [2, 0, 1]
        assert plan.groups[2] == [100, 143]
        assert plan.groups[0] == [2, 7]
        assert plan.groups[1] == [50, 60]
        assert len(plan.groups) == 3


def test_plan_leaders_are_first_members(system):
    members = [100, 2, 50, 7, 143, 60]
    plans = plan_for(system, members)
    for plan in plans.values():
        assert plan.leaders == [100, 2, 50]
    assert all(plans[rank].my_leader == rank for rank in (100, 2, 50))
    assert plans[7].my_leader == 2
    assert plans[143].my_leader == 100


def test_plan_root_leads_its_own_device(system):
    members = [100, 2, 50, 7, 143, 60]
    plans = plan_for(system, members, root=members.index(7))
    for plan in plans.values():
        # Device 0's leader is the root (rank 7), not first-member 2.
        assert plan.leaders == [100, 7, 50]
    assert plans[7].my_leader == 7
    assert plans[2].my_leader == 7


def test_plan_identical_across_members(system):
    """Every participant derives the same plan — no communication."""
    members = [95, 0, 48, 1, 96]
    plans = plan_for(system, members, root=2)
    first = plans[members[0]]
    for plan in plans.values():
        assert list(plan.groups) == list(first.groups)
        assert plan.groups == first.groups
        assert plan.leaders == first.leaders


def test_plan_single_device_degenerates(system):
    plans = plan_for(system, [5, 1, 9])
    for plan in plans.values():
        assert len(plan.groups) == 1
        assert plan.leaders == [5]
        assert plan.sub == [5, 1, 9]


# -- GroupPlan memo: one shared shape per (group, root) per topology -----------

PLAN_FIELDS = (
    "me", "n", "ranks", "groups", "leaders", "sub", "my_leader",
    "host_groups", "host_leaders", "host_sub", "my_host_leader",
)


def fresh_plan(topo, ranks, rank, root=None):
    """Reference: one rank's plan derived from scratch, with no memo."""
    groups = topo.device_groups(ranks)
    root_rank = None if root is None else ranks[root]
    root_device = None if root is None else topo.device_of(root_rank)
    leaders = [
        root_rank if device == root_device else sub[0]
        for device, sub in groups.items()
    ]
    my_device = topo.device_of(rank)
    plan = {
        "me": ranks.index(rank), "n": len(ranks), "ranks": ranks,
        "groups": groups, "leaders": leaders, "sub": groups[my_device],
        "my_leader": leaders[list(groups).index(my_device)],
        "host_groups": None, "host_leaders": None,
        "host_sub": None, "my_host_leader": None,
    }
    all_ranks = range(topo.layout.num_ranks)
    if len({topo.host_of_rank(r) for r in all_ranks}) > 1:
        host_groups = topo.host_groups(leaders)
        root_host = None if root is None else topo.host_of_rank(root_rank)
        host_leaders = [
            root_rank if host == root_host else sub[0]
            for host, sub in host_groups.items()
        ]
        my_host = topo.host_of_rank(rank)
        plan.update(
            host_groups=host_groups,
            host_leaders=host_leaders,
            host_sub=host_groups[my_host],
            my_host_leader=host_leaders[list(host_groups).index(my_host)],
        )
    return plan


def as_fields(plan):
    return {name: getattr(plan, name) for name in PLAN_FIELDS}


def ordered(fields):
    """Dict fields as item lists, so key order is compared too."""
    return {
        name: list(value.items()) if isinstance(value, dict) else value
        for name, value in fields.items()
    }


def assert_matches_fresh(system, members, root=None):
    from repro.rcce.hierarchical import GroupPlan

    topo = system.topology
    ranks = list(range(system.num_ranks)) if members is None else members
    plans = {
        rank: GroupPlan(system.comm_for(rank), None, members, root=root)
        for rank in ranks
    }
    for rank, plan in plans.items():
        expected = fresh_plan(topo, ranks, rank, root)
        assert ordered(as_fields(plan)) == ordered(expected)
    # Every member shares the one memoized shape.
    first = plans[ranks[0]]
    assert all(p.groups is first.groups for p in plans.values())
    assert all(p.leaders is first.leaders for p in plans.values())
    assert (tuple(ranks), root) in topo.plan_shapes


@pytest.fixture(scope="module")
def five_devices():
    return VSCCSystem(num_devices=5, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA)


@pytest.fixture(scope="module")
def fabric_2x2():
    return VSCCSystem(
        num_hosts=2, devices_per_host=2,
        scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA,
    )


def permuted_members(num_ranks, size, seed):
    rng = np.random.default_rng(seed)
    return [int(r) for r in rng.permutation(num_ranks)[:size]]


@pytest.mark.parametrize("system_name", ["five_devices", "fabric_2x2"])
@pytest.mark.parametrize("seed", [0, 1])
def test_memoized_plan_matches_fresh_derivation_every_root(
    request, system_name, seed
):
    system = request.getfixturevalue(system_name)
    members = permuted_members(system.num_ranks, 14, seed)
    for root in [None, *range(len(members))]:
        assert_matches_fresh(system, members, root)
        # A second build hits the memo and still matches.
        assert_matches_fresh(system, members, root)


@pytest.mark.parametrize("system_name", ["five_devices", "fabric_2x2"])
def test_memoized_full_group_plan_matches_fresh_derivation(request, system_name):
    system = request.getfixturevalue(system_name)
    for root in (None, 0, system.num_ranks - 1):
        assert_matches_fresh(system, None, root)


def test_plan_memo_is_per_topology():
    """Systems with different host maps or layouts never share entries."""
    kwargs = dict(scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA)
    one_host = VSCCSystem(num_devices=4, **kwargs)
    two_hosts = VSCCSystem(num_hosts=2, devices_per_host=2, **kwargs)
    failed = VSCCSystem(
        num_hosts=2, devices_per_host=2, failure_prob=0.25, seed=3, **kwargs
    )
    assert failed.num_ranks < two_hosts.num_ranks
    members = [130, 3, 100, 50, 140, 1, 60, 120]
    root = members.index(100)
    for system in (one_host, two_hosts, failed):
        assert_matches_fresh(system, members, root)
    key = (tuple(members), root)
    shapes = [s.topology.plan_shapes[key] for s in (one_host, two_hosts, failed)]
    assert shapes[0][2] is None and shapes[1][2] is not None
    # The failed-core layout moves ranks to other devices.
    assert list(shapes[2][0].items()) != list(shapes[1][0].items())
    for i, a in enumerate(shapes):
        for b in shapes[i + 1:]:
            assert all(x is not y for x, y in zip(a, b) if x is not None)


def test_cached_shapes_survive_a_full_hierarchical_run():
    """After real collectives, every memoized shape is still exactly a
    fresh derivation: no collective mutates the shared lists."""
    system = VSCCSystem(
        num_hosts=2, devices_per_host=2,
        scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA,
    )
    members = permuted_members(system.num_ranks, 16, seed=7)
    root = 5
    values = np.arange(4.0)

    def program(comm):
        kw = dict(members=members, hierarchical=True)
        yield from comm.barrier(**kw)
        yield from comm.bcast(
            b"abcd" if comm.rank == members[root] else None, 4, root, **kw
        )
        yield from comm.reduce(values, np.add, root, **kw)
        yield from comm.allreduce(values, np.add, **kw)
        yield from comm.gather(values, root, **kw)

    system.run(program, ranks=members)
    topo = system.topology
    assert set(topo.plan_shapes) == {
        (tuple(members), None), (tuple(members), root), (tuple(members), 0)
    }
    for (ranks, key_root), shape in topo.plan_shapes.items():
        expected = fresh_plan(topo, list(ranks), ranks[0], key_root)
        got = dict(zip(("groups", "leaders", "host_groups", "host_leaders"), shape))
        assert ordered(got) == ordered({k: expected[k] for k in got})


def test_plan_shape_is_built_once_per_group_and_root(monkeypatch):
    """All 192 ranks of the 2x2 fabric build their plans for one
    (group, root) with exactly one device_groups scan."""
    from repro.rcce.hierarchical import GroupPlan
    from repro.vscc.topology import FabricTopology

    system = VSCCSystem(
        num_hosts=2, devices_per_host=2,
        scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA,
    )
    calls = []
    original = FabricTopology.device_groups

    def counting(self, ranks):
        calls.append(len(ranks))
        return original(self, ranks)

    monkeypatch.setattr(FabricTopology, "device_groups", counting)
    for rank in range(system.num_ranks):
        GroupPlan(system.comm_for(rank), None, None, root=7)
    assert calls == [192]


# -- topology helpers ----------------------------------------------------------


def test_device_of_matches_placement(system):
    for rank in (0, 47, 48, 95, 96, 143):
        assert system.topology.device_of(rank) == system.layout.placement(rank)[0]


def test_device_groups_preserve_input_order(system):
    groups = system.topology.device_groups([50, 49, 0, 51, 1])
    assert groups == {1: [50, 49, 51], 0: [0, 1]}
    assert list(groups) == [1, 0]


# -- crossing counts: the design's core claim ----------------------------------


def _cross_pairs(system, program, members):
    before = {
        pair
        for pair in system.layout.traffic
        if system.topology.is_cross_device(*pair)
    }
    system.run(program, ranks=members)
    after = {
        pair
        for pair in system.layout.traffic
        if system.topology.is_cross_device(*pair)
    }
    return after - before


@pytest.mark.parametrize("hier,expected", [(False, "many"), (True, "leaders")])
def test_allreduce_crossing_routes(hier, expected):
    """The hierarchical allreduce touches PCIe only on leader routes:
    2·(num_devices−1) directed pairs. The flat tree crosses on more."""
    system = VSCCSystem(
        num_devices=3, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA
    )
    members = list(range(144))

    def program(comm):
        yield from comm.allreduce(
            np.arange(8.0), np.add, members=members, hierarchical=hier
        )

    pairs = _cross_pairs(system, program, members)
    leader_routes = 2 * (3 - 1)
    if expected == "leaders":
        assert len(pairs) == leader_routes
        # ... and every one is an edge between device leaders (0, 48, 96).
        leaders = {0, 48, 96}
        assert all(src in leaders and dst in leaders for src, dst in pairs)
    else:
        assert len(pairs) > leader_routes


def test_barrier_token_rides_direct_fastpath():
    """Leader-phase barrier tokens are one byte — under the threshold
    policy they must dispatch onto the direct flag fast-path (the §3.3
    sub-threshold transport), never a bulk scheme."""
    from repro.vscc.policy import ThresholdPolicy

    system = VSCCSystem(num_devices=2, policy=ThresholdPolicy())
    members = [0, 1, 48, 49]

    def program(comm):
        yield from comm.barrier(members=members, hierarchical=True)

    system.run(program, ranks=members)
    selections = system.selector.selections
    assert selections.get("direct-small", 0) > 0
    assert selections.get("vdma", 0) in (0, None) or "vdma" not in selections


def test_allreduce_bulk_rides_vdma():
    """Bulk leader-phase reduce payloads outgrow the comm buffer and
    must dispatch onto the vDMA transport under the threshold policy."""
    from repro.vscc.policy import ThresholdPolicy

    system = VSCCSystem(num_devices=2, policy=ThresholdPolicy())
    members = [0, 1, 48, 49]

    def program(comm):
        yield from comm.allreduce(
            np.arange(4096.0), np.add, members=members, hierarchical=True
        )

    system.run(program, ranks=members)
    vdma = [n for n in system.selector.selections if "vdma" in n]
    assert vdma, f"expected vDMA selections, got {system.selector.selections}"


# -- instrumentation -----------------------------------------------------------


def test_coll_spans_count_calls_per_impl(system):
    members = [0, 50, 100]

    def program(comm):
        yield from comm.barrier(members=members, hierarchical=True)
        yield from comm.allreduce(
            np.arange(4.0), np.add, members=members, hierarchical=False
        )

    tracer = system.tracer
    first = len(tracer.records)
    tracer.enable("coll")
    try:
        system.run(program, ranks=members)
    finally:
        tracer.disable("coll")
    # (op, impl, phase) of every span record of this run.
    spans = Counter(
        r.payload[1:4] for r in tracer.records[first:] if r.category == "coll"
    )
    assert spans == {
        ("barrier", "hier", "start"): 3, ("barrier", "hier", "done"): 3,
        ("allreduce", "flat", "start"): 3, ("allreduce", "flat", "done"): 3,
    }


def test_coll_trace_spans(system, tmp_path):
    import json

    members = [0, 50, 100]

    def program(comm):
        yield from comm.allreduce(
            np.arange(4.0), np.add, members=members, hierarchical=True
        )

    result = system.run(program, ranks=members, trace_json=tmp_path / "t.json")
    doc = json.loads(result.trace_path.read_text())
    spans = [
        e for e in doc["traceEvents"]
        if e.get("name") == "coll.allreduce.hier" and e["ph"] == "X"
    ]
    assert {e["tid"] for e in spans} == set(members)
    assert all(e["dur"] > 0 for e in spans)


def test_root_validation(system):
    """bcast and gather reject an out-of-range root on the calling rank,
    flat or hierarchical, before any message moves."""
    from repro.sim.errors import ProcessFailed

    for op in ("bcast", "gather"):
        for hier in (False, True):
            for root in (5, -1):

                def program(comm):
                    kw = dict(members=[0, 50], hierarchical=hier)
                    if op == "bcast":
                        yield from comm.bcast(b"x", 1, root, **kw)
                    else:
                        yield from comm.gather(b"x", root, **kw)

                with pytest.raises(ProcessFailed, match=f"root {root} out of range"):
                    system.run(program, ranks=[0])
