"""Extension — collective latency across the z direction.

Not a paper figure, but the flip side of its locality message: BT's
neighbor pattern hides the z direction well; a global ``allreduce``
cannot. This bench measures barrier and allreduce cost as the group
grows from one device to five — quantifying how much the single
physical link per device (§3) taxes global synchronization.

The ablation half compares the flat binomial collectives against the
two-level (topology-aware) implementation at 1–5 devices: the flat tree
scatters O(log n) of its edges across PCIe wherever virtual-rank
neighbors land on different devices, while the hierarchical tree pays
exactly the leader-to-leader edges — O(num_devices) crossings, however
the group is laid out.

The three-level ablation extends the same argument one tier up: on a
multi-host fabric the two-level tree scatters its *leader* edges across
the inter-host links, while the three-level tree funnels them through
one host leader per host — O(num_hosts) crossings of the slowest tier.
"""

from repro.bench import format_table
from repro.vscc.schemes import CommScheme
from repro.vscc.system import VSCCSystem
from repro.vscc.topology import FabricTopology

from conftest import record

import numpy as np


def _collective_cost(num_devices: int):
    system = VSCCSystem(num_devices=num_devices, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA)
    nranks = system.num_ranks
    times = {}

    def program(comm):
        if comm.rank >= nranks:
            return
        yield from comm.barrier(group_size=nranks)
        t0 = comm.env.sim.now
        yield from comm.barrier(group_size=nranks)
        t1 = comm.env.sim.now
        yield from comm.allreduce(np.array([1.0]), np.add, group_size=nranks)
        t2 = comm.env.sim.now
        if comm.rank == 0:
            times["barrier"] = t1 - t0
            times["allreduce"] = t2 - t1

    system.run(program, ranks=range(nranks))
    times["ranks"] = nranks
    return times


def _ablation_cost(num_devices: int, stride: int = 1):
    """barrier/allreduce time and PCIe crossing count, flat vs two-level.

    Crossings are counted as *directed cross-device (src, dst) pairs*
    that carried traffic during the phase — the number of distinct PCIe
    routes the collective exercised, the quantity the two-level design
    argues about. ``stride`` permutes the ``members=`` order (must be
    coprime with the rank count); the default is the identity order.
    """
    results = {}
    for impl, hier in (("flat", False), ("hier", True)):
        # Fresh system per implementation so the crossing count is the
        # routes *this* tree shape exercises, not a diff against the
        # other's footprint.
        system = VSCCSystem(
            num_devices=num_devices, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA
        )
        n = system.num_ranks
        members = [(i * stride) % n for i in range(n)]
        topo = system.topology
        times = {}

        def program(comm):
            yield from comm.barrier(members=members, hierarchical=hier)
            t0 = comm.env.sim.now
            yield from comm.barrier(members=members, hierarchical=hier)
            t1 = comm.env.sim.now
            yield from comm.allreduce(
                np.arange(64.0), np.add, members=members, hierarchical=hier
            )
            t2 = comm.env.sim.now
            if comm.rank == members[0]:
                times["barrier"] = t1 - t0
                times["allreduce"] = t2 - t1

        system.run(program, ranks=members)
        times["pairs"] = sum(
            1 for (src, dst) in system.layout.traffic
            if topo.is_cross_device(src, dst)
        )
        results[impl] = times
    return results


def _fabric_ablation_cost(num_hosts: int, num_devices: int = 4):
    """barrier/allreduce cost and per-tier crossing counts on a fabric.

    Three implementations on the *same physical* ``num_hosts``-host
    system: ``flat`` (no hierarchy), ``two`` (device leaders only — the
    collective plan is fed a host-map-less topology, so it cannot see
    the host tier) and ``three`` (the full per-device → per-host leader
    recursion). Crossings are directed traffic pairs per tier; the
    inter-host byte volume comes from the cluster's link counters.
    """
    results = {}
    for impl in ("flat", "two", "three"):
        system = VSCCSystem(
            num_devices=num_devices,
            num_hosts=num_hosts,
            scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA,
        )
        fabric = system.topology  # host-aware; used for tier accounting
        if impl == "two":
            # Collapse the host tier in the collective *plan* only:
            # traffic still rides the real inter-host links.
            system.topology = FabricTopology(system.layout, system.params)
        hier = impl != "flat"
        nranks = system.num_ranks
        times = {}

        def program(comm):
            yield from comm.barrier(group_size=nranks, hierarchical=hier)
            t0 = comm.env.sim.now
            yield from comm.barrier(group_size=nranks, hierarchical=hier)
            t1 = comm.env.sim.now
            yield from comm.allreduce(
                np.arange(64.0), np.add, group_size=nranks, hierarchical=hier
            )
            t2 = comm.env.sim.now
            if comm.rank == 0:
                times["barrier"] = t1 - t0
                times["allreduce"] = t2 - t1

        system.run(program)
        times["ranks"] = nranks
        times["pcie_pairs"] = sum(
            1 for (src, dst) in system.layout.traffic
            if fabric.is_cross_device(src, dst)
        )
        times["interhost_pairs"] = sum(
            1 for (src, dst) in system.layout.traffic
            if fabric.is_cross_host(src, dst)
        )
        times["interhost_bytes"] = sum(
            v for k, v in system.metrics.items()
            if k.startswith("interhost.bytes")
        )
        results[impl] = times
    return results


def test_collectives_across_devices(benchmark, once):
    devices = (1, 2, 5)

    def run():
        return {nd: _collective_cost(nd) for nd in devices}

    results = once(run)
    print()
    print(
        format_table(
            ["devices", "ranks", "barrier us", "allreduce us"],
            [
                (nd, results[nd]["ranks"],
                 results[nd]["barrier"] / 1000, results[nd]["allreduce"] / 1000)
                for nd in devices
            ],
        )
    )
    record(
        benchmark,
        barrier_us={nd: round(r["barrier"] / 1000, 1) for nd, r in results.items()},
    )
    # Crossing devices is expensive: a 96-rank barrier over two devices
    # costs several times a 48-rank on-chip barrier, despite only one
    # extra tree level.
    assert results[2]["barrier"] > 2.0 * results[1]["barrier"]
    assert results[5]["barrier"] > results[2]["barrier"]


def test_flat_vs_hierarchical_ablation(benchmark, once):
    """Flat vs two-level collectives, 1–5 devices, full machine."""
    devices = (1, 2, 3, 4, 5)

    def run():
        return {nd: _ablation_cost(nd) for nd in devices}

    results = once(run)
    print()
    print(
        format_table(
            ["devices", "impl", "barrier us", "allreduce us", "pcie pairs"],
            [
                (nd, impl,
                 round(results[nd][impl]["barrier"] / 1000, 1),
                 round(results[nd][impl]["allreduce"] / 1000, 1),
                 results[nd][impl]["pairs"])
                for nd in devices
                for impl in ("flat", "hier")
            ],
        )
    )
    record(
        benchmark,
        barrier_speedup_5dev=round(
            results[5]["flat"]["barrier"] / results[5]["hier"]["barrier"], 3
        ),
        allreduce_speedup_5dev=round(
            results[5]["flat"]["allreduce"] / results[5]["hier"]["allreduce"], 3
        ),
        pairs={nd: (r["flat"]["pairs"], r["hier"]["pairs"])
               for nd, r in results.items()},
    )
    # On one device the two implementations are the same tree.
    assert results[1]["hier"]["pairs"] == results[1]["flat"]["pairs"] == 0
    # The two-level tree crosses PCIe on fewer directed routes, and at
    # full scale that buys back real simulated time on both collectives.
    for nd in (2, 3, 4, 5):
        assert results[nd]["hier"]["pairs"] <= results[nd]["flat"]["pairs"]
    assert results[5]["hier"]["barrier"] < results[5]["flat"]["barrier"]
    assert results[5]["hier"]["allreduce"] < results[5]["flat"]["allreduce"]


def test_hierarchical_immune_to_member_permutation(benchmark, once):
    """A scattered ``members=`` order shreds the flat tree's locality —
    virtual-rank neighbors land on different devices, so nearly every
    tree edge crosses PCIe. The two-level tree regroups by device first
    and keeps its O(num_devices) leader edges regardless of order."""

    def run():
        return _ablation_cost(5, stride=53)  # stride permutation of all ranks

    results = once(run)
    print()
    print(
        format_table(
            ["impl", "barrier us", "allreduce us", "pcie pairs"],
            [
                (impl,
                 round(results[impl]["barrier"] / 1000, 1),
                 round(results[impl]["allreduce"] / 1000, 1),
                 results[impl]["pairs"])
                for impl in ("flat", "hier")
            ],
        )
    )
    record(
        benchmark,
        barrier_speedup=round(
            results["flat"]["barrier"] / results["hier"]["barrier"], 2
        ),
        pairs_flat=results["flat"]["pairs"],
        pairs_hier=results["hier"]["pairs"],
    )
    # The permutation costs the flat tree an order of magnitude more
    # distinct PCIe routes; the hierarchical tree doesn't notice.
    assert results["flat"]["pairs"] > 10 * results["hier"]["pairs"]
    assert results["hier"]["barrier"] < 0.5 * results["flat"]["barrier"]
    assert results["hier"]["allreduce"] < 0.5 * results["flat"]["allreduce"]


def test_three_level_fabric_ablation(benchmark, once):
    """Flat vs two-level vs three-level collectives across host counts.

    The same 4-device (192-rank) machine is carved into 1, 2 and 4
    hosts; every implementation runs on the identical physical fabric,
    so the per-tier crossing counts isolate what each collective plan
    buys. The two-level plan is blind to the host tier — its leader
    edges scatter across the inter-host links — while the three-level
    plan funnels them through one host leader per host.
    """
    host_counts = (1, 2, 4)

    def run():
        return {nh: _fabric_ablation_cost(nh) for nh in host_counts}

    results = once(run)
    print()
    print(
        format_table(
            ["hosts", "impl", "barrier us", "allreduce us",
             "pcie pairs", "ih pairs", "ih bytes"],
            [
                (nh, impl,
                 round(results[nh][impl]["barrier"] / 1000, 1),
                 round(results[nh][impl]["allreduce"] / 1000, 1),
                 results[nh][impl]["pcie_pairs"],
                 results[nh][impl]["interhost_pairs"],
                 int(results[nh][impl]["interhost_bytes"]))
                for nh in host_counts
                for impl in ("flat", "two", "three")
            ],
        )
    )
    record(
        benchmark,
        allreduce_us={
            nh: {impl: round(r["allreduce"] / 1000, 1) for impl, r in by.items()}
            for nh, by in results.items()
        },
        interhost_pairs={
            nh: (by["flat"]["interhost_pairs"], by["two"]["interhost_pairs"],
                 by["three"]["interhost_pairs"])
            for nh, by in results.items()
        },
    )
    # One host: no inter-host tier at all, and the two hierarchical
    # plans are the same plan.
    for impl in ("flat", "two", "three"):
        assert results[1][impl]["interhost_pairs"] == 0
        assert results[1][impl]["interhost_bytes"] == 0
    assert results[1]["two"]["allreduce"] == results[1]["three"]["allreduce"]
    # Multi-host: traffic really crosses hosts, the hierarchical plans
    # exercise no more inter-host routes than the flat tree, and the
    # three-level plan never exercises more than the host-blind one.
    for nh in (2, 4):
        by = results[nh]
        assert by["three"]["interhost_bytes"] > 0
        assert by["three"]["interhost_pairs"] <= by["two"]["interhost_pairs"]
        assert by["two"]["interhost_pairs"] <= by["flat"]["interhost_pairs"]
        assert by["three"]["pcie_pairs"] <= by["flat"]["pcie_pairs"]
