"""Multi-host end-to-end behaviour and single-host bit-identity."""

import numpy as np
import pytest

from repro.apps.pingpong import run_pingpong
from repro.faults import FaultPlan, LinkFaults
from repro.sim.engine import FUSE_ENV_VAR
from repro.vscc.policy import StaticPolicy
from repro.vscc.schemes import CommScheme
from repro.vscc.system import VSCCSystem

VDMA = CommScheme.LOCAL_PUT_LOCAL_GET_VDMA


def test_two_host_allreduce_end_to_end():
    """192 ranks over 2 hosts x 2 devices: three-level allreduce is
    correct and really rides the inter-host tier."""
    system = VSCCSystem(
        num_hosts=2, devices_per_host=2, scheme=VDMA,
    )
    n = system.num_ranks
    assert n == 192
    got = {}

    def program(comm):
        acc = yield from comm.allreduce(
            np.full(8, float(comm.rank)), np.add, hierarchical=True
        )
        if comm.rank in (0, 95, 96, 191):
            got[comm.rank] = acc.copy()

    system.run(program)
    expected = np.full(8, float(n * (n - 1) // 2))
    for rank, acc in got.items():
        assert (acc == expected).all(), rank
    interhost = sum(
        v for k, v in system.metrics.items() if k.startswith("interhost.bytes")
    )
    assert interhost > 0



HOST_SPLITS = [
    (1, 1, [[0]]),
    (5, 1, [[0, 1, 2, 3, 4]]),
    (2, 2, [[0], [1]]),
    (3, 2, [[0, 1], [2]]),
    (4, 2, [[0, 1], [2, 3]]),
    (5, 2, [[0, 1, 2], [3, 4]]),
    (5, 3, [[0, 1], [2, 3], [4]]),
    (5, 5, [[0], [1], [2], [3], [4]]),
    # A ceiling split would leave the last host empty here.
    (4, 3, [[0, 1], [2], [3]]),
    (5, 4, [[0, 1], [2], [3], [4]]),
]


@pytest.mark.parametrize(
    "num_devices, num_hosts, split",
    HOST_SPLITS,
    ids=[f"{d}dev-{h}host" for d, h, _ in HOST_SPLITS],
)
def test_hosts_split_devices_into_contiguous_nonempty_slices(
    num_devices, num_hosts, split
):
    system = VSCCSystem(num_devices=num_devices, num_hosts=num_hosts)
    slices = [sorted(host.devices) for host in system.hosts]
    assert slices == split
    assert all(slices)
    assert [d for s in slices for d in s] == list(range(num_devices))


def test_uneven_split_carries_a_ping_pong_to_the_last_host():
    system = VSCCSystem(num_devices=4, num_hosts=3, scheme=VDMA)
    last = system.num_ranks - 1
    run_pingpong(system, 0, last, sizes=[1024], iterations=2)
    interhost = sum(
        v for k, v in system.metrics.items() if k.startswith("interhost.bytes")
    )
    assert interhost > 0

def test_cross_host_send_recv():
    system = VSCCSystem(num_hosts=2, devices_per_host=1, scheme=VDMA)
    payload = (np.arange(2000) % 249).astype(np.uint8)
    got = {}

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(payload, dest=50)
        elif comm.rank == 50:
            got["data"] = yield from comm.recv(len(payload), src=0)

    system.run(program, ranks=[0, 50])
    assert (got["data"] == payload).all()
    # Both directed links between the pair carried something (data one
    # way, flag/ack traffic back).
    assert system.metrics["interhost.bytes{dst=1,src=0}"] > 0


def test_cross_host_write_combiner_rides_interhost_push():
    """REMOTE_PUT_WCB to a foreign device flushes through that device's
    DMA engine: granules ride src host -> inter-host link -> dst cable."""
    system = VSCCSystem(
        num_hosts=2, devices_per_host=1, scheme=CommScheme.REMOTE_PUT_WCB,
    )
    payload = (np.arange(3000) % 251).astype(np.uint8)
    got = {}

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(payload, dest=50)
        elif comm.rank == 50:
            got["data"] = yield from comm.recv(len(payload), src=0)

    system.run(program, ranks=[0, 50])
    assert (got["data"] == payload).all()
    # The payload (plus envelope) crossed the inter-host tier forward.
    assert system.metrics["interhost.bytes{dst=1,src=0}"] >= len(payload)


def test_cross_host_remote_put_counts_push_bytes():
    """A write-combiner flush to a device on another host is a DMA push
    into that device like a same-host flush: both fabrics report the
    same ``dma.bytes{dir=push}`` per device."""
    sizes = (0, 40, 3000, 8192, 20000)

    def push_bytes(**fabric):
        system = VSCCSystem(scheme=CommScheme.REMOTE_PUT_WCB, **fabric)
        run_pingpong(system, 0, system.num_ranks - 1, sizes=sizes,
                     iterations=1, warmup=0)
        return {
            k: v for k, v in system.metrics.items()
            if k.startswith("dma.bytes") and "dir=push" in k
        }

    same_host = push_bytes(num_devices=2)
    cross_host = push_bytes(num_hosts=2, devices_per_host=1)
    assert same_host == cross_host
    assert len(cross_host) == 2 and all(v > 0 for v in cross_host.values())


def test_route_down_event_follows_the_final_hop():
    """On a local and on a cross-host route alike, the event route_down
    returns triggers right after the device-side commit ran."""
    system = VSCCSystem(num_hosts=2, devices_per_host=1, scheme=VDMA)
    host = system.hosts[0]
    seen = []
    for device in (0, 1):
        done = host.route_down(
            device, 64, on_arrival=lambda d=device: seen.append(("commit", d))
        )
        done.on_trigger(lambda _v, d=device: seen.append(("done", d)))
    system.sim.run()
    assert seen == [("commit", 0), ("done", 0), ("commit", 1), ("done", 1)]


def test_host_affinity_dst_is_journaled():
    """cross_host_affinity='dst' puts the copy on the destination host's
    communication task and lands in the policy journal metrics."""
    system = VSCCSystem(
        num_hosts=2, devices_per_host=1,
        policy=StaticPolicy(VDMA, cross_host_affinity="dst"),
    )

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(b"x" * 512, dest=50)
        elif comm.rank == 50:
            yield from comm.recv(512, src=0)

    system.run(program, ranks=[0, 50])
    assert system.metrics["policy.host_affinity{owner=dst}"] >= 1.0
    assert "policy.host_affinity{owner=src}" not in system.metrics


def test_single_host_emits_no_fabric_metrics():
    system = VSCCSystem(num_devices=2, scheme=VDMA)

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(b"y" * 64, dest=48)
        elif comm.rank == 48:
            yield from comm.recv(64, src=0)

    system.run(program, ranks=[0, 48])
    assert not any(k.startswith("interhost.") for k in system.metrics)
    assert not any(k.startswith("policy.host_affinity") for k in system.metrics)


def test_interhost_link_faults_retransmit():
    """Drops on the inter-host tier retry through the same ack/seq
    envelope as PCIe faults; delivery stays exactly-once in-order."""
    plan = FaultPlan(
        links={"interhost0to1": LinkFaults(drop=0.4)},
        seed=7, max_retries=8,
    )
    system = VSCCSystem(
        num_hosts=2, devices_per_host=1, scheme=VDMA, fault_plan=plan,
    )
    # Big enough for ~17 granules on the wire: seed 7 fires 9 drops.
    payload = (np.arange(32000) % 251).astype(np.uint8)
    got = {}

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(payload, dest=50)
        elif comm.rank == 50:
            got["data"] = yield from comm.recv(len(payload), src=0)

    system.run(program, ranks=[0, 50])
    assert (got["data"] == payload).all()
    m = system.metrics
    assert m["faults.dropped{dst=1,src=0}"] > 0
    assert m["faults.retries{dst=1,src=0}"] > 0
    assert m["faults.lost{dst=1,src=0}"] == 0
    # The reverse link has no fault state installed (its spec is null),
    # so its counters never materialize.
    assert "faults.retries{dst=0,src=1}" not in m


def _fingerprint():
    """(sim time, allreduce result) of one fixed 2-device program."""
    system = VSCCSystem(num_devices=2, scheme=VDMA)
    n = system.num_ranks
    out = {}

    def program(comm):
        yield from comm.barrier(group_size=n)
        acc = yield from comm.allreduce(
            np.arange(16.0) + comm.rank, np.add, group_size=n
        )
        if comm.rank == 0:
            out["acc"] = acc.copy()

    system.run(program)
    return system.sim.now, system.sim.events_processed, out["acc"]


def test_single_host_bit_identity_fused_vs_unfused(monkeypatch):
    monkeypatch.setenv(FUSE_ENV_VAR, "1")
    t_fused, _ev_f, acc_fused = _fingerprint()
    monkeypatch.setenv(FUSE_ENV_VAR, "0")
    t_plain, _ev_p, acc_plain = _fingerprint()
    # Fusion collapses event counts but must not move simulated time.
    assert t_fused == t_plain
    assert (acc_fused == acc_plain).all()
