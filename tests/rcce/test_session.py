"""Unit tests for the single-device session."""

from repro.rcce.session import RcceSession


def test_48_ranks_by_default(session):
    assert session.num_ranks == 48


def test_failed_cores_reduce_ranks():
    session = RcceSession(failure_prob=0.25, seed=11)
    assert session.num_ranks < 48
    # config records exactly the live cores
    assert session.config.total_cores == session.num_ranks


def test_comm_for_is_cached(session):
    assert session.comm_for(3) is session.comm_for(3)


def test_run_collects_results(session):
    def program(comm):
        yield from comm.env.compute(cycles=10)
        return comm.rank * 2

    result = session.run(program, ranks=[1, 5])
    assert result.results == {1: 2, 5: 10}
    assert result.elapsed_ns > 0
    assert result[5] == 10


def test_descending_core_order():
    session = RcceSession(core_order="descending")
    assert session.layout.placement(0) == (0, 47)
