"""Unit tests for the ping-pong app."""

import pytest

from repro.apps.pingpong import PingPongPoint, run_pingpong
from repro.rcce.session import RcceSession
from repro.scc.mpb import MpbAddr
from repro.sim.errors import ProcessFailed
from repro.vscc.schemes import CommScheme
from repro.vscc.system import VSCCSystem


def test_point_math():
    point = PingPongPoint.from_elapsed(size=1000, iterations=5, elapsed_ns=10000.0)
    assert point.oneway_ns == 1000.0
    assert point.throughput_mbps == pytest.approx(1000.0)


def test_onchip_sweep_monotone_latency(session):
    points = run_pingpong(session, 0, 10, sizes=[64, 1024, 4096], iterations=3)
    latencies = [p.oneway_ns for p in points]
    assert latencies == sorted(latencies)


def test_throughput_grows_with_size(session):
    points = run_pingpong(session, 0, 10, sizes=[32, 1024, 65536], iterations=3)
    tputs = [p.throughput_mbps for p in points]
    assert tputs == sorted(tputs)
    assert tputs[-1] > tputs[0] * 1.2


def test_corruption_is_detected(vdma_system, monkeypatch):
    """The verify path catches a payload corrupted on its way through vDMA."""
    from repro.host.vdma import VDMAController

    original = VDMAController.start
    flipped = []

    def corrupting(self, core_id, src_offset, count, cmd):
        # Flip the first source byte just before the copy is programmed.
        mpb = self.host.device_of(self.device_id).mpb
        src = MpbAddr(self.device_id, core_id, src_offset)
        mpb.write_byte(src, (mpb.read_byte(src) + 1) % 256)
        flipped.append(src)
        original(self, core_id, src_offset, count, cmd)

    monkeypatch.setattr(VDMAController, "start", corrupting)
    with pytest.raises(ProcessFailed, match="payload corrupted") as failed:
        run_pingpong(vdma_system, 0, 48, sizes=[4096], iterations=1)
    assert isinstance(failed.value.__cause__, AssertionError)
    assert flipped


def test_same_rank_rejected(session):
    with pytest.raises(ValueError):
        run_pingpong(session, 3, 3, sizes=[64])


def test_zero_iterations_rejected(session):
    with pytest.raises(ValueError, match="iterations"):
        run_pingpong(session, 0, 1, sizes=[64], iterations=0)


def test_negative_warmup_rejected(session):
    with pytest.raises(ValueError, match="warmup"):
        run_pingpong(session, 0, 1, sizes=[64], warmup=-1)


def test_rank_order_does_not_matter(vdma_system):
    points = run_pingpong(vdma_system, 48, 0, sizes=[1024], iterations=2)
    assert points[0].throughput_mbps > 0
