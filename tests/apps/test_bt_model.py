"""Unit tests for the BT performance model."""

import tracemalloc

import pytest

from repro.apps.npb import BTBenchmark, BT_CLASSES, BTCostModel
from repro.apps.npb.multipartition import X, Y, Z
from repro.apps.traffic import traffic_matrix
from repro.rcce.session import RcceSession
from repro.vscc.schemes import CommScheme
from repro.vscc.system import VSCCSystem


def test_class_table():
    assert BT_CLASSES["C"].n == 162
    assert BT_CLASSES["C"].niter == 200
    assert BT_CLASSES["S"].n == 12


def test_phase_split_sums_to_one():
    assert sum(BTCostModel.PHASE_SPLIT.values()) == pytest.approx(1.0)


def test_model_run_onchip(session):
    bench = BTBenchmark(clazz="S", nranks=16, niter=2, mode="model")
    session.run(bench.program, ranks=range(16))
    result = bench.result()
    assert result.gflops_per_s > 0
    assert result.elapsed_s > 0
    assert result.clazz == "S"


def test_scaling_improves_with_ranks():
    def gflops(nranks):
        bench = BTBenchmark(clazz="S", nranks=nranks, niter=1, mode="model")
        session = RcceSession()
        session.run(bench.program, ranks=range(nranks))
        return bench.result().gflops_per_s

    assert gflops(16) > gflops(4) > gflops(1)


def test_compute_bound_limit():
    """One rank with no communication runs at the sustained rate."""
    bench = BTBenchmark(clazz="S", nranks=1, niter=2, mode="model")
    session = RcceSession()
    session.run(bench.program, ranks=[0])
    result = bench.result()
    sustained = 0.533 * bench.cost.flops_per_cycle  # GFLOP/s per core
    assert result.gflops_per_s == pytest.approx(sustained, rel=0.02)


def test_cross_device_run_and_traffic():
    bench = BTBenchmark(clazz="S", nranks=16, niter=1, mode="model")
    system = VSCCSystem(num_devices=2, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA)
    # spread over both devices by using ranks 40..55
    system.run(bench.program, ranks=range(16))
    result = bench.result()
    assert result.nranks == 16
    matrix = traffic_matrix(system.layout)
    # every rank exchanges with its six (possibly coinciding) partners
    assert (matrix.sum(axis=1)[:16] > 0).all()


def test_result_requires_run():
    bench = BTBenchmark(clazz="S", nranks=4, niter=1)
    with pytest.raises(RuntimeError):
        bench.result()


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        BTBenchmark(clazz="S", nranks=4, mode="magic")


@pytest.mark.parametrize("niter", [0, -1])
def test_nonpositive_niter_rejected(niter):
    with pytest.raises(ValueError, match="niter must be >= 1"):
        BTBenchmark(clazz="S", nranks=4, niter=niter)


def test_message_counts_match_the_dataflow(monkeypatch):
    """Per timestep each rank sends 6 face exchanges plus 2(p-1)
    boundary messages per sweep dimension."""
    from repro.rcce.api import Rcce
    from repro.rcce.session import RcceSession

    sends: dict[int, int] = {}
    send_now = Rcce._send_now

    def counting_send_now(self, payload, dest):
        sends[self.rank] = sends.get(self.rank, 0) + 1
        return send_now(self, payload, dest)

    monkeypatch.setattr(Rcce, "_send_now", counting_send_now)
    bench = BTBenchmark(clazz="S", nranks=9, niter=1, mode="model")
    session = RcceSession()
    session.run(bench.program, ranks=range(9))
    p = bench.part.p
    expected_per_step = 6 + 3 * 2 * (p - 1)
    # interior rank 4, plus barrier traffic (binomial tree, a handful of
    # 1 B tokens)
    assert expected_per_step <= sends[4] <= expected_per_step + 8


def test_traffic_volume_tracks_cost_model():
    from repro.rcce.session import RcceSession

    bench = BTBenchmark(clazz="S", nranks=4, niter=2, mode="model")
    session = RcceSession()
    session.run(bench.program, ranks=range(4))
    matrix = traffic_matrix(session.layout)
    # doubling the steps doubles the payload traffic (minus barriers)
    bench2 = BTBenchmark(clazz="S", nranks=4, niter=4, mode="model")
    session2 = RcceSession()
    session2.run(bench2.program, ranks=range(4))
    matrix2 = traffic_matrix(session2.layout)
    ratio = matrix2.sum() / matrix.sum()
    assert 1.8 < ratio < 2.1


def test_run_builds_no_clock(monkeypatch):
    """Timing lookups on the hot path use prebuilt tables and cached
    clocks: a BT run across two devices constructs no ``Clock``."""
    from repro.sim.clock import Clock

    bench = BTBenchmark(clazz="S", nranks=64, niter=1, mode="model")
    system = VSCCSystem(num_devices=2, scheme=CommScheme.LOCAL_PUT_REMOTE_GET)
    built = []
    post_init = Clock.__post_init__

    def counting(self):
        built.append(self.freq_mhz)
        post_init(self)

    monkeypatch.setattr(Clock, "__post_init__", counting)
    system.run(bench.program, ranks=range(64))
    assert bench.result().nranks == 64
    assert built == []


def test_model_step_holds_less_than_its_faces():
    """One class A step on 16 ranks allocates less at its peak than the
    step's ghost exchange sends: the faces in flight are shared immutable
    payloads, not fresh copies (two per isend used to peak at 5.0 MB)."""
    bench = BTBenchmark(clazz="A", nranks=16, niter=1, mode="model")
    part = bench.part
    faces = sum(
        2 * bench._face_bytes(rank, dim)
        for rank in range(part.nranks)
        for dim in (X, Y, Z)
        if part.partner(rank, dim, True) != rank
    )
    assert faces == 3_932_160  # 3.75 MB
    session = RcceSession()
    tracemalloc.start()
    try:
        session.run(bench.program, ranks=range(16))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bench.result().nranks == 16
    assert peak < faces
