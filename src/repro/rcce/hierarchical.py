"""Topology-aware hierarchical collectives: on-chip trees, leader hops off-chip.

The paper's locality lesson (§3, Fig 6b) is brutal for flat collectives:
a PCIe hop costs ~10⁴ core cycles — roughly 120× an on-chip mesh hop —
and every device funnels all of its z-traffic through one SIF. A flat
binomial tree picks its edges by rank arithmetic alone, so a 240-rank
``allreduce`` scatters dozens of tree edges across the five physical
links. The standard answer on non-coherent clustered hardware (BDDT-SCC,
the DNP's two interconnect tiers) is a *two-level* collective:

1. **intra-device phase** — an on-chip binomial tree per device, over
   the MPBs, exactly as cheap as a single-device collective;
2. **leader election** — one deterministic leader rank per device (the
   group's first member on that device; for rooted operations the root
   itself leads its device), derived from
   :meth:`repro.vscc.topology.VsccTopology.device_groups` without any
   communication;
3. **inter-device phase** — a binomial tree *over the leaders only*, so
   each collective crosses PCIe O(num_devices) times instead of
   O(n log n / num_devices) scattered edges.

On a multi-host fabric the same recursion adds a third level: the device
leaders of each host elect a **host leader**, the leader phase splits
into an intra-host tree (PCIe only) plus a host-leader tree, and only
the host leaders' messages cross the inter-host tier — O(num_hosts)
crossings of the slowest links instead of O(num_devices). Single-host
plans skip the extra level entirely and execute the historic two-level
code path bit for bit.

The leader phase sends through the ordinary per-message transport
selection, so it composes with the :class:`repro.vscc.policy.SchemePolicy`
layer: bulk reduce payloads ride the vDMA engine while one-byte barrier
tokens drop below the direct-transfer threshold and ride the flag
fast-path (§3.3).

All functions mirror :mod:`repro.rcce.collectives` — same signatures,
same ``group_size``/``members`` semantics, same blocking-generator
calling convention — and are surfaced as
``Rcce.barrier(..., hierarchical=True)`` (and friends) plus the
session-level ``RcceOptions(hierarchical_collectives=True)`` default.

Reduction order: the intra-device phase combines in the flat binomial
order of each subgroup, then leaders combine in leader order — a
*different* (documented, deterministic) floating-point order than the
flat tree. Integer reductions are exact either way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

import numpy as np

from .collectives import (
    _TOKEN,
    _resolve,
    n_pow2,
    reduction_dtype,
)
from . import collectives as _flat

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .api import Rcce

__all__ = ["barrier", "bcast", "reduce", "allreduce", "gather", "GroupPlan"]


class GroupPlan:
    """One rank's view of the shared decomposition of a collective group.

    The decomposition's *shape* — ``groups``, ``leaders`` and, on a
    multi-host fabric, ``host_groups`` and ``host_leaders`` — is a pure
    function of the (identical) group argument, the root and the
    immutable rank layout, so all participants derive the same shape
    with no communication. The same purity lets them share one copy: the
    shape is computed once per ``(group, root)`` and memoized on the
    system's topology (:attr:`repro.vscc.topology.FabricTopology.
    plan_shapes`); each plan only adds its rank's own fields (``sub``,
    ``my_leader``, ``host_sub``, ``my_host_leader``). The shared lists
    are never mutated — every collective copies its ``members``.
    ``leaders`` is ordered by first appearance of each device in the
    group — the leader tree's shape is therefore stable under
    ``members=`` permutations of non-leader ranks.

    On a multi-host fabric (``topology.num_hosts() > 1``) the plan adds a
    third level: the device leaders of each host elect a *host leader*
    (the host's first device leader; for rooted operations the root
    leads its own host), and the leader phase decomposes into an
    intra-host phase over PCIe plus a host-leader phase over the
    inter-host tier. On a single host ``host_leaders`` is ``None`` and
    every code path below is exactly the two-level one.
    """

    __slots__ = (
        "me", "n", "ranks", "groups", "sub", "leaders", "my_leader",
        "host_groups", "host_leaders", "host_sub", "my_host_leader",
    )

    def __init__(
        self,
        comm: "Rcce",
        group_size: Optional[int],
        members,
        root: Optional[int] = None,
    ):
        self.me, self.n, self.ranks = _resolve(comm, group_size, members)
        if root is not None and not 0 <= root < self.n:
            raise ValueError(f"root {root} out of range")
        topo = comm.topology
        key = (tuple(self.ranks), root)
        shape = topo.plan_shapes.get(key)
        if shape is None:
            shape = topo.plan_shapes[key] = _plan_shape(topo, self.ranks, root)
        self.groups, self.leaders, self.host_groups, self.host_leaders = shape
        my_device = topo.device_of(self.ranks[self.me])
        #: My device's subgroup (ordered global ranks) and its leader.
        self.sub = self.groups[my_device]
        self.my_leader = self.leaders[list(self.groups).index(my_device)]
        if self.host_groups is None:
            self.host_sub = None
            self.my_host_leader = None
        else:
            my_host = topo.host_of(my_device)
            #: My host's device leaders (ordered) and their host leader.
            self.host_sub = self.host_groups[my_host]
            self.my_host_leader = self.host_leaders[
                list(self.host_groups).index(my_host)
            ]

    @property
    def is_leader(self) -> bool:
        return self.ranks[self.me] == self.my_leader

    @property
    def is_host_leader(self) -> bool:
        return (
            self.host_leaders is not None
            and self.ranks[self.me] == self.my_host_leader
        )

    @property
    def num_devices(self) -> int:
        return len(self.groups)

    @property
    def num_hosts(self) -> int:
        return 1 if self.host_groups is None else len(self.host_groups)


def _plan_shape(topo, ranks: list, root: Optional[int]) -> tuple:
    """``(groups, leaders, host_groups, host_leaders)`` of one group.

    The rank-independent part of a :class:`GroupPlan`; ``host_groups``
    and ``host_leaders`` are ``None`` on a single host.
    """
    # device id -> ordered global-rank sublist (group order).
    groups = topo.device_groups(ranks)
    root_rank = None if root is None else ranks[root]
    root_device = None if root_rank is None else topo.device_of(root_rank)
    # One leader per device: the first group member on the device,
    # except the root's device, which the root itself leads (saves one
    # on-chip forwarding hop for every rooted operation).
    leaders = [
        root_rank if device == root_device else sub[0]
        for device, sub in groups.items()
    ]
    if topo.num_hosts() == 1:
        return groups, leaders, None, None
    # host id -> ordered device-leader sublist (leader order).
    host_groups = topo.host_groups(leaders)
    root_host = None if root_device is None else topo.host_of(root_device)
    # One host leader per host: the host's first device leader, except
    # the root's host, which the root itself leads (the root already
    # leads its device, hence is in the sublist).
    host_leaders = [
        root_rank if host == root_host else subl[0]
        for host, subl in host_groups.items()
    ]
    return groups, leaders, host_groups, host_leaders


# -- leader-phase helpers --------------------------------------------------
#
# Each helper runs the leader phase of one collective. With
# ``plan.host_leaders is None`` (single host) it executes exactly the
# historic flat call over ``plan.leaders``; otherwise it decomposes into
# an intra-host phase (device leaders → host leader, PCIe only) and a
# host-leader phase (inter-host tier), so bulk payloads cross the
# inter-host links O(num_hosts) times instead of O(num_devices).


def _leader_barrier(comm: "Rcce", plan: GroupPlan) -> Generator:
    if plan.host_leaders is None:
        yield from _flat.barrier(comm, members=plan.leaders)
        return
    me = plan.ranks[plan.me]
    if me != plan.my_host_leader:
        yield from comm.send(_TOKEN, plan.my_host_leader)
        yield from comm.recv(1, plan.my_host_leader)
        return
    for peer in plan.host_sub:
        if peer != me:
            yield from comm.recv(1, peer)
    if len(plan.host_leaders) > 1:
        yield from _flat.barrier(comm, members=plan.host_leaders)
    for peer in plan.host_sub:
        if peer != me:
            yield from comm.send(_TOKEN, peer)


def _leader_bcast(
    comm: "Rcce", plan: GroupPlan, payload, nbytes: int, root_rank: int
) -> Generator:
    if plan.host_leaders is None:
        return (
            yield from _flat.bcast(
                comm,
                payload,
                nbytes,
                root=plan.leaders.index(root_rank),
                members=plan.leaders,
            )
        )
    me = plan.ranks[plan.me]
    # The root leads its host, so the host-leader tree is rooted at it.
    if me in plan.host_leaders and len(plan.host_leaders) > 1:
        payload = yield from _flat.bcast(
            comm,
            payload,
            nbytes,
            root=plan.host_leaders.index(root_rank),
            members=plan.host_leaders,
        )
    if len(plan.host_sub) > 1:
        payload = yield from _flat.bcast(
            comm,
            payload,
            nbytes,
            root=plan.host_sub.index(plan.my_host_leader),
            members=plan.host_sub,
        )
    return payload


def _leader_reduce(
    comm: "Rcce", plan: GroupPlan, acc, op, root_rank: int
) -> Generator:
    if plan.host_leaders is None:
        return (
            yield from _flat.reduce(
                comm,
                acc,
                op,
                root=plan.leaders.index(root_rank),
                members=plan.leaders,
            )
        )
    me = plan.ranks[plan.me]
    if len(plan.host_sub) > 1:
        acc = yield from _flat.reduce(
            comm,
            acc,
            op,
            root=plan.host_sub.index(plan.my_host_leader),
            members=plan.host_sub,
        )
    if me == plan.my_host_leader and len(plan.host_leaders) > 1:
        acc = yield from _flat.reduce(
            comm,
            acc,
            op,
            root=plan.host_leaders.index(root_rank),
            members=plan.host_leaders,
        )
    return acc


def _leader_allreduce(comm: "Rcce", plan: GroupPlan, acc, op) -> Generator:
    if plan.host_leaders is None:
        return (yield from _flat.allreduce(comm, acc, op, members=plan.leaders))
    dtype = reduction_dtype(acc)
    nbytes = np.asarray(acc, dtype=dtype).nbytes
    me = plan.ranks[plan.me]
    if len(plan.host_sub) > 1:
        acc = yield from _flat.reduce(
            comm,
            acc,
            op,
            root=plan.host_sub.index(plan.my_host_leader),
            members=plan.host_sub,
        )
    if me == plan.my_host_leader and len(plan.host_leaders) > 1:
        acc = yield from _flat.allreduce(comm, acc, op, members=plan.host_leaders)
    if len(plan.host_sub) > 1:
        raw = yield from _flat.bcast(
            comm,
            None if acc is None else comm._as_bytes(acc),
            nbytes,
            root=plan.host_sub.index(plan.my_host_leader),
            members=plan.host_sub,
        )
        acc = np.asarray(raw, np.uint8).view(dtype).copy()
    return acc


def barrier(
    comm: "Rcce",
    group_size: Optional[int] = None,
    members: Optional[list] = None,
) -> Generator:
    """Two-level barrier: on-chip token trees, leader barrier off-chip.

    Non-leaders report up their device's binomial tree and block on the
    release; leaders synchronize leader-to-leader (2·(num_devices−1)
    PCIe crossings in total, each a one-byte token on the direct
    fast-path) and then release their device.
    """
    plan = GroupPlan(comm, group_size, members)
    if plan.n == 1:
        return
    sub = plan.sub
    pos = sub.index(plan.ranks[plan.me])
    size = len(sub)
    # Gather phase: collect my on-chip children, then report up.
    lsb = pos & -pos if pos else n_pow2(size)
    k = 1
    while k < lsb:
        if pos + k < size:
            yield from comm.recv(1, sub[pos + k])
        k <<= 1
    if pos:
        parent = sub[pos - (pos & -pos)]
        yield from comm.send(_TOKEN, parent)
        yield from comm.recv(1, parent)
    elif plan.num_devices > 1:
        # Device quiet; synchronize the leaders across PCIe (and, on a
        # multi-host fabric, the host leaders across the inter-host tier).
        yield from _leader_barrier(comm, plan)
    # Release phase: wake on-chip children in reverse order.
    ks = []
    k = 1
    while k < lsb:
        if pos + k < size:
            ks.append(k)
        k <<= 1
    for k in reversed(ks):
        yield from comm.send(_TOKEN, sub[pos + k])


def bcast(
    comm: "Rcce",
    data: Optional[np.ndarray],
    nbytes: int,
    root: int,
    group_size: Optional[int] = None,
    members: Optional[list] = None,
) -> Generator:
    """Two-level broadcast: leader tree off-chip, then on-chip fan-out.

    The root leads its own device, so the payload crosses PCIe exactly
    ``num_devices - 1`` times (one leader-tree edge per remote device)
    before the on-chip trees distribute it.
    """
    plan = GroupPlan(comm, group_size, members, root=root)
    if plan.me == root:
        if data is None or len(data) != nbytes:
            raise ValueError("root must supply exactly nbytes of data")
        payload = data
    else:
        payload = None
    if plan.n == 1:
        return payload
    if plan.is_leader and plan.num_devices > 1:
        payload = yield from _leader_bcast(
            comm, plan, payload, nbytes, plan.ranks[root]
        )
    if len(plan.sub) > 1:
        payload = yield from _flat.bcast(
            comm,
            payload,
            nbytes,
            root=plan.sub.index(plan.my_leader),
            members=plan.sub,
        )
    return payload


def reduce(
    comm: "Rcce",
    values: np.ndarray,
    op,
    root: int,
    group_size: Optional[int] = None,
    members: Optional[list] = None,
) -> Generator:
    """Two-level reduction: on-chip trees first, leader tree second.

    Each device folds its contributions on chip; only the per-device
    partials — ``num_devices - 1`` messages — cross PCIe. Returns the
    reduced vector at ``root`` and ``None`` elsewhere, like the flat
    version; the combination order (intra-device binomial, then leader
    order) is deterministic but differs from the flat tree's.
    """
    plan = GroupPlan(comm, group_size, members, root=root)
    acc = yield from _flat.reduce(
        comm,
        values,
        op,
        root=plan.sub.index(plan.my_leader),
        members=plan.sub,
    )
    if plan.is_leader and plan.num_devices > 1:
        acc = yield from _leader_reduce(comm, plan, acc, op, plan.ranks[root])
    return acc if plan.me == root else None


def allreduce(
    comm: "Rcce",
    values: np.ndarray,
    op,
    group_size: Optional[int] = None,
    members: Optional[list] = None,
) -> Generator:
    """Two-level allreduce: reduce to leaders, leader allreduce, fan-out.

    The bulk payload crosses PCIe ``2·(num_devices - 1)`` times (up the
    leader tree, back down) — under a :class:`~repro.vscc.policy.
    ThresholdPolicy` those are exactly the messages that ride vDMA when
    they outgrow the communication buffer.
    """
    plan = GroupPlan(comm, group_size, members, root=0)
    dtype = reduction_dtype(values)
    acc = yield from _flat.reduce(
        comm,
        values,
        op,
        root=plan.sub.index(plan.my_leader),
        members=plan.sub,
    )
    if plan.is_leader and plan.num_devices > 1:
        acc = yield from _leader_allreduce(comm, plan, acc, op)
    if len(plan.sub) > 1:
        nbytes = np.asarray(values, dtype=dtype).nbytes
        raw = yield from _flat.bcast(
            comm,
            None if acc is None else comm._as_bytes(acc),
            nbytes,
            root=plan.sub.index(plan.my_leader),
            members=plan.sub,
        )
        acc = np.asarray(raw, np.uint8).view(dtype).copy()
    return np.array(acc, dtype=dtype, copy=True)


def gather(
    comm: "Rcce",
    value: np.ndarray,
    root: int,
    group_size: Optional[int] = None,
    members: Optional[list] = None,
) -> Generator:
    """Two-level gather of equal-size contributions to ``root``.

    Each device gathers on chip to its leader, which forwards its
    device's contributions as *one* concatenated message — so the link
    carries ``num_devices - 1`` large messages instead of one per remote
    rank. On a multi-host fabric the device blobs additionally funnel
    through their host leader, so each *inter-host* link carries one
    combined message per remote host. The root returns the parts in
    group order, like the flat version.
    """
    plan = GroupPlan(comm, group_size, members, root=root)
    payload = comm._as_bytes(value)
    part_bytes = len(payload)
    parts = yield from _flat.gather(
        comm,
        value,
        root=plan.sub.index(plan.my_leader),
        members=plan.sub,
    )
    me = plan.ranks[plan.me]
    if plan.me == root:
        index_of = {rank: i for i, rank in enumerate(plan.ranks)}
        out: list = [None] * plan.n
        for i, rank in enumerate(plan.sub):
            out[index_of[rank]] = parts[i]

        def place(sub: list, blob) -> None:
            blob = np.asarray(blob, np.uint8)
            for i, rank in enumerate(sub):
                out[index_of[rank]] = blob[i * part_bytes : (i + 1) * part_bytes]

        if plan.host_leaders is None:
            for device, sub in plan.groups.items():
                leader = plan.leaders[list(plan.groups).index(device)]
                if leader == me:
                    continue
                blob = yield from comm.recv(part_bytes * len(sub), leader)
                place(sub, blob)
        else:
            topo = comm.topology
            # My own host's device leaders report their device blob
            # directly (the root leads its host).
            for leader in plan.host_sub:
                if leader == me:
                    continue
                dsub = plan.groups[topo.device_of(leader)]
                blob = yield from comm.recv(part_bytes * len(dsub), leader)
                place(dsub, blob)
            # Each remote host leader forwards one combined blob, its
            # host's device blobs concatenated in leader order.
            for h_index, lsub in enumerate(plan.host_groups.values()):
                hleader = plan.host_leaders[h_index]
                if hleader == me:
                    continue
                subs = [plan.groups[topo.device_of(l)] for l in lsub]
                total = part_bytes * sum(len(s) for s in subs)
                blob = yield from comm.recv(total, hleader)
                blob = np.asarray(blob, np.uint8)
                off = 0
                for s in subs:
                    size = part_bytes * len(s)
                    place(s, blob[off : off + size])
                    off += size
        return out
    if plan.is_leader:
        blob = np.concatenate([np.asarray(p, np.uint8) for p in parts])
        if plan.is_host_leader:
            # Host leader (≠ root): bundle my host's device blobs into
            # one inter-host message toward the root.
            topo = comm.topology
            pieces = []
            for leader in plan.host_sub:
                if leader == me:
                    pieces.append(blob)
                else:
                    dsub = plan.groups[topo.device_of(leader)]
                    part = yield from comm.recv(part_bytes * len(dsub), leader)
                    pieces.append(np.asarray(part, np.uint8))
            yield from comm.send(np.concatenate(pieces), plan.ranks[root])
        else:
            target = (
                plan.ranks[root]
                if plan.host_leaders is None
                else plan.my_host_leader
            )
            yield from comm.send(blob, target)
    return None
