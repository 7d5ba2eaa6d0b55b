"""End-to-end integration: full systems under mixed workloads."""

import numpy as np
import pytest

from repro.apps.npb import BTBenchmark
from repro.vscc.schemes import CommScheme
from repro.vscc.system import VSCCSystem


def test_240_core_system_boots_and_talks():
    """The headline configuration: five devices, 240 cores."""
    system = VSCCSystem(num_devices=5)
    assert system.num_ranks == 240
    payload = (np.arange(3000) % 251).astype(np.uint8)
    got = {}

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(payload, 239)
        elif comm.rank == 239:
            got["data"] = yield from comm.recv(3000, 0)

    system.run(program, ranks=[0, 239])
    assert (got["data"] == payload).all()
    # ranks 0 and 239 sit on the first and last device
    assert system.topology.device_of(0) == 0
    assert system.topology.device_of(239) == 4


def test_all_to_one_gather_across_devices():
    system = VSCCSystem(num_devices=3, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA)
    nranks = 30
    got = {}

    def program(comm):
        if comm.rank >= nranks:
            return
        if comm.rank == 0:
            total = 0
            for src in range(1, nranks):
                data = yield from comm.recv(4, src)
                total += int(np.asarray(data).view(np.int32)[0])
            got["total"] = total
        else:
            yield from comm.send(np.array([comm.rank], np.int32), 0)

    # place ranks across devices: use every 10th rank of the layout
    ranks = list(range(nranks))
    system.run(program, ranks=ranks)
    assert got["total"] == sum(range(1, nranks))


def test_collectives_spanning_devices():
    system = VSCCSystem(num_devices=2, scheme=CommScheme.REMOTE_PUT_WCB)
    n = 96
    got = {}

    def program(comm):
        value = np.array([float(comm.rank)])
        result = yield from comm.allreduce(value, np.add)
        got[comm.rank] = result[0]

    system.run(program)
    expected = n * (n - 1) / 2
    assert all(v == pytest.approx(expected) for v in got.values())


def test_bt_on_faulty_system():
    """§4: silent core failures shrink the rank space; BT still runs on
    a square subset of the surviving ranks."""
    system = VSCCSystem(
        num_devices=2, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA,
        failure_prob=0.04, seed=5,
    )
    assert system.num_ranks < 96
    import math

    usable = math.isqrt(system.num_ranks) ** 2
    bench = BTBenchmark(clazz="S", nranks=usable, niter=1, mode="model")
    system.run(bench.program, ranks=range(usable))
    assert bench.result().gflops_per_s > 0
