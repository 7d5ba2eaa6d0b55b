"""Unit tests for barrier/bcast/reduce/allreduce/gather."""

import numpy as np
import pytest

from repro.rcce.session import RcceSession


@pytest.fixture(params=[2, 5, 8, 13])
def nranks(request):
    return request.param


def test_barrier_synchronizes(session, nranks):
    after = {}

    def program(comm):
        if comm.rank >= nranks:
            return
        # stagger arrivals
        yield from comm.env.compute(cycles=comm.rank * 10000)
        yield from comm.barrier(group_size=nranks)
        after[comm.rank] = comm.env.sim.now

    session.run(program, ranks=range(nranks))
    latest_arrival = (nranks - 1) * 10000 * session.params.core_clock.cycles(1)
    assert all(t >= latest_arrival for t in after.values())


def test_barrier_rejects_outside_rank(session):
    def program(comm):
        yield from comm.barrier(group_size=1)

    with pytest.raises(Exception):
        session.run(program, ranks=[3])


def test_bcast_delivers_to_all(session, nranks):
    payload = np.arange(300, dtype=np.uint8)
    got = {}

    def program(comm):
        if comm.rank >= nranks:
            return
        data = yield from comm.bcast(payload if comm.rank == 2 % nranks else None,
                                     300, root=2 % nranks, group_size=nranks)
        got[comm.rank] = data

    session.run(program, ranks=range(nranks))
    for rank in range(nranks):
        assert (np.asarray(got[rank]) == payload).all()


def test_reduce_sums_vectors(session, nranks):
    got = {}

    def program(comm):
        if comm.rank >= nranks:
            return
        values = np.full(8, float(comm.rank + 1))
        result = yield from comm.reduce(values, np.add, root=0, group_size=nranks)
        got[comm.rank] = result

    session.run(program, ranks=range(nranks))
    expected = sum(range(1, nranks + 1))
    assert np.allclose(got[0], expected)
    assert all(got[r] is None for r in range(1, nranks))


def test_allreduce_everyone_gets_result(session):
    got = {}

    def program(comm):
        if comm.rank >= 6:
            return
        result = yield from comm.allreduce(np.array([float(comm.rank)]), np.add, group_size=6)
        got[comm.rank] = result[0]

    session.run(program, ranks=range(6))
    assert all(v == pytest.approx(15.0) for v in got.values())


def test_reduce_maximum(session):
    got = {}

    def program(comm):
        if comm.rank >= 4:
            return
        values = np.array([float((comm.rank * 7) % 5)])
        result = yield from comm.reduce(values, np.maximum, root=0, group_size=4)
        got[comm.rank] = result

    session.run(program, ranks=range(4))
    assert got[0][0] == pytest.approx(4.0)


def test_gather_collects_in_rank_order(session):
    import repro.rcce.collectives as coll
    got = {}

    def program(comm):
        if comm.rank >= 4:
            return
        parts = yield from coll.gather(comm, np.array([comm.rank], np.uint8), root=1, group_size=4)
        got[comm.rank] = parts

    session.run(program, ranks=range(4))
    assert [bytes(p)[0] for p in got[1]] == [0, 1, 2, 3]
    assert got[0] is None


# -- members= validation: bad groups must fail loudly, never deadlock ----------


def test_members_out_of_range_raises_upfront(session):
    """A member rank beyond the layout used to deadlock the group (the
    tree blocks on a rank that never runs); now it raises before any
    communication happens."""
    from repro.sim.errors import ProcessFailed

    def program(comm):
        yield from comm.barrier(members=[0, 1, 999])

    with pytest.raises(ProcessFailed, match=r"members \[999\] out of range"):
        session.run(program, ranks=[0, 1])


def test_members_negative_rank_raises(session):
    from repro.sim.errors import ProcessFailed

    def program(comm):
        yield from comm.allreduce(np.ones(2), np.add, members=[0, -1, 2])

    with pytest.raises(ProcessFailed, match="out of range"):
        session.run(program, ranks=[0])


def test_members_duplicates_raise_with_dupes_listed(session):
    from repro.sim.errors import ProcessFailed

    def program(comm):
        yield from comm.barrier(members=[0, 1, 2, 1])

    with pytest.raises(ProcessFailed, match=r"duplicate.*\[1\]"):
        session.run(program, ranks=[0])


def test_members_validation_applies_to_hierarchical(session):
    from repro.sim.errors import ProcessFailed

    def program(comm):
        yield from comm.barrier(members=[0, 77], hierarchical=True)

    with pytest.raises(ProcessFailed, match="out of range"):
        session.run(program, ranks=[0])


def test_members_caller_not_in_group_raises(session):
    from repro.sim.errors import ProcessFailed

    def program(comm):
        yield from comm.barrier(members=[1, 2])

    with pytest.raises(ProcessFailed, match="outside the collective group"):
        session.run(program, ranks=[0])


# -- the group memo: one validated resolution per group per topology -----------


@pytest.mark.parametrize("hierarchical", [False, True])
@pytest.mark.parametrize(
    "members, message",
    [
        ([0, 1, 999], "out of range"),
        ([0, 2, 1, 2], "duplicate"),
        ([1, 2], "outside the collective group"),
    ],
)
def test_bad_group_raises_on_every_call(session, members, message, hierarchical):
    """A failed validation stores nothing, so the second and third calls
    raise exactly like the first."""
    raised = []

    def program(comm):
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                yield from comm.barrier(members=members, hierarchical=hierarchical)
            raised.append(comm.rank)
        assert not comm._plans
        yield from comm.env.compute(ns=1.0)

    session.run(program, ranks=[0])
    assert raised == [0, 0, 0]
    # A group the caller is outside of is valid, so it is memoized; the
    # membership check still runs on every call.
    valid = message == "outside the collective group"
    assert (tuple(members) in session.topology.groups) == valid


def test_prefix_group_caller_outside_raises_on_every_call(session):
    def program(comm):
        for _ in range(2):
            with pytest.raises(ValueError, match="outside the collective group of 2"):
                yield from comm.barrier(group_size=2)
        yield from comm.env.compute(ns=1.0)

    session.run(program, ranks=[5])


def test_systems_with_different_layouts_never_share_a_resolution():
    """The same group argument resolves against each system's own layout."""
    from repro.rcce.collectives import _resolve
    from repro.vscc.system import VSCCSystem

    one = RcceSession()
    two = VSCCSystem(num_devices=2)
    failed = RcceSession(failure_prob=0.25, seed=3)
    assert failed.num_ranks < one.num_ranks < two.num_ranks
    # The whole-session group is a different group on each.
    for system in (one, two, failed, one):
        me, n, ranks = _resolve(system.comm_for(0), None, None)
        assert (me, n, ranks) == (0, system.num_ranks, list(range(system.num_ranks)))
    # A member list valid on the larger layout only, in either order.
    members = [0, 60]
    for system in (two, one, two, one):
        comm = system.comm_for(0)
        if system is two:
            assert _resolve(comm, None, members) == (0, 2, [0, 60])
        else:
            with pytest.raises(ValueError, match=r"\[60\] out of range"):
                _resolve(comm, None, members)
    assert tuple(members) not in one.topology.groups
    shared = set(map(id, one.topology.groups.values()))
    assert shared.isdisjoint(map(id, two.topology.groups.values()))
    assert shared.isdisjoint(map(id, failed.topology.groups.values()))


@pytest.mark.parametrize("hierarchical", [False, True])
def test_editing_members_after_a_call_changes_the_next_group(hierarchical):
    """The memo keys on the list's value, not its identity."""
    from repro.vscc.system import VSCCSystem

    system = VSCCSystem(num_devices=2)
    members = [0, 1, 48]
    got = {}

    def program(comm):
        out = yield from comm.allreduce(
            np.array([float(comm.rank)]), np.add,
            members=members, hierarchical=hierarchical,
        )
        got[comm.rank] = float(out[0])

    system.run(program, ranks=list(members))
    assert got == {0: 49.0, 1: 49.0, 48: 49.0}
    members[1] = 50
    members.append(2)
    got.clear()
    system.run(program, ranks=list(members))
    assert got == dict.fromkeys([0, 50, 48, 2], 100.0)


@pytest.mark.parametrize("hierarchical", [False, True])
def test_members_iterator_is_read_once(hierarchical):
    """The memo key is built in one pass, so a one-shot iterator names
    the same group as the list it yields."""
    from repro.vscc.system import VSCCSystem

    system = VSCCSystem(num_devices=2)
    members = [48, 0, 1]
    done = []

    def program(comm):
        yield from comm.barrier(
            members=(rank for rank in members), hierarchical=hierarchical
        )
        done.append(comm.rank)

    system.run(program, ranks=members)
    assert sorted(done) == sorted(members)
    assert tuple(members) in system.topology.groups


@pytest.mark.parametrize("hierarchical", [False, True])
def test_observed_collectives_still_report(hierarchical):
    """With the "coll" tracer on, every collective is still wrapped: one
    start and one later done span per rank and call."""
    from repro.vscc.system import VSCCSystem

    system = VSCCSystem(num_devices=2)
    members = [0, 1, 48]
    system.tracer.enable("coll")
    ops = ("barrier", "bcast", "reduce", "allreduce", "gather")

    def program(comm):
        kw = dict(members=members, hierarchical=hierarchical)
        yield from comm.barrier(**kw)
        yield from comm.bcast(b"ab" if comm.rank == 0 else None, 2, 0, **kw)
        yield from comm.reduce(np.ones(2), np.add, 0, **kw)
        yield from comm.allreduce(np.ones(2), np.add, **kw)
        yield from comm.gather(np.ones(2), 0, **kw)

    system.run(program, ranks=members)
    impl = "hier" if hierarchical else "flat"
    records = [r for r in system.tracer.records if r.category == "coll"]
    spans = [r.payload for r in records]
    for op in ops:
        for phase in ("start", "done"):
            ranks = [p[0] for p in spans if p[1:4] == (op, impl, phase)]
            assert sorted(ranks) == sorted(members)
    # Each rank numbers its observed calls 0, 1, 2, ...
    assert sorted(p[4] for p in spans if p[0] == 48 and p[3] == "start") == [0, 1, 2, 3, 4]
    # Every call's done span follows its start.
    started = {(p[0], p[4]): r.t for r, p in zip(records, spans) if p[3] == "start"}
    for r, p in zip(records, spans):
        if p[3] == "done":
            assert r.t >= started[p[0], p[4]]
