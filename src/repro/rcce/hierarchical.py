"""Topology-aware hierarchical collectives: one walk up and down the tiers.

The paper's locality lesson (§3, Fig 6b) is brutal for flat collectives:
a PCIe hop costs ~10⁴ core cycles — roughly 120× an on-chip mesh hop —
and every device funnels all of its z-traffic through one SIF. A flat
binomial tree picks its edges by rank arithmetic alone, so a 240-rank
``allreduce`` scatters dozens of tree edges across the five physical
links. The standard answer on non-coherent clustered hardware (BDDT-SCC,
the DNP's two interconnect tiers) is to run each collective tier by
tier, so only one leader per tier crosses the slower link above it.

:class:`GroupPlan` derives the tiers with no communication:

* **device tier** — the group's members on one device, led by the
  first of them (for rooted operations the root leads its own device);
* **host tier** (multi-host fabrics only) — the device leaders on one
  host, led by the first of them (or by the root);
* **top group** — the device leaders on a single host, the host
  leaders on a fabric.

Each rank's :meth:`GroupPlan.tiers` is the chain of ``(subgroup,
leader)`` tiers it takes part in, plus the top group if it leads every
one of them. Every collective is the same walk over that chain: flat
primitives (:mod:`repro.rcce.collectives`) up the chain, one flat call
over the top group, then back down. On-chip tiers run binomial trees
over the MPBs; PCIe is crossed O(num_devices) times instead of
O(n log n / num_devices) scattered edges, and the inter-host tier
O(num_hosts) times. A single host simply has a shorter chain.

Off-chip messages go through the ordinary per-message transport
selection, so the walk composes with the
:class:`repro.vscc.policy.SchemePolicy` layer: bulk reduce payloads ride
the vDMA engine while one-byte barrier tokens drop below the
direct-transfer threshold and ride the flag fast-path (§3.3).

All functions mirror :mod:`repro.rcce.collectives` — same signatures,
same ``group_size``/``members`` semantics, same blocking-generator
calling convention — and are surfaced as
``Rcce.barrier(..., hierarchical=True)`` (and friends).

Reduction order: each tier combines in the flat binomial order of its
subgroup, bottom tier first — a *different* (documented, deterministic)
floating-point order than the flat tree. Integer reductions are exact
either way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

import numpy as np

from .collectives import _TOKEN, _group, _index, _tree_edges, reduction_dtype
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
    are never mutated, and none of them is the caller's ``members``
    list: a group is copied when it is first resolved.
    ``leaders`` is ordered by first appearance of each device in the
    group — the leader tree's shape is therefore stable under
    ``members=`` permutations of non-leader ranks.

    The per-rank part is fixed too, so the collectives build it once
    per ``(group, root)`` on each communicator (:func:`_plan`) and reuse
    it, with its :meth:`tiers` chain, the leaders' positions in their
    tiers and the barrier's token edges, on every later call.

    On a multi-host fabric (``topology.num_hosts() > 1``) the plan adds a
    host tier: the device leaders of each host elect a *host leader*
    (the host's first device leader; for rooted operations the root
    leads its own host). On a single host ``host_groups`` and
    ``host_leaders`` are ``None`` and :meth:`tiers` gives a one-tier
    chain; the collectives never look at the difference.
    """

    __slots__ = (
        "me", "n", "ranks", "groups", "sub", "leaders", "my_leader",
        "host_groups", "host_leaders", "host_sub", "my_host_leader",
        "_tiers", "indexed_chain", "top_root", "barrier_edges",
    )

    def __init__(
        self,
        comm: "Rcce",
        group_size: Optional[int],
        members,
        root: Optional[int] = None,
    ):
        group = _group(comm, group_size, members)
        self.me = _index(comm, group)
        self.ranks = group.ranks
        self.n = len(self.ranks)
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
        chain, top = self._tiers = self._derive_tiers()
        #: The chain as ``(subgroup, leader's index in it)`` pairs, and
        #: the root's index into ``top`` (``None`` without either).
        self.indexed_chain = [(tier, tier.index(leader)) for tier, leader in chain]
        self.top_root = (
            top.index(self.ranks[root])
            if top is not None and root is not None
            else None
        )
        me = self.ranks[self.me]
        #: The barrier's ``(parent, children, wake order)`` per chain tier.
        self.barrier_edges = [
            _token_edges(level, tier, leader, me)
            for level, (tier, leader) in enumerate(chain)
        ]

    @property
    def is_leader(self) -> bool:
        return self.ranks[self.me] == self.my_leader

    @property
    def num_devices(self) -> int:
        return len(self.groups)

    def tiers(self) -> tuple[list, Optional[list]]:
        """``(chain, top)``: this rank's walk through the decomposition.

        ``chain`` lists the ``(subgroup, leader)`` tiers the rank takes
        part in, bottom up: its device subgroup, then — on a multi-host
        fabric, and only if it leads its device — its host's device
        leaders. ``top`` is the group above the chain (the device
        leaders on one host, the host leaders on a fabric) when the rank
        leads every tier of its chain, else ``None``. Built with the
        plan; the lists are shared and never mutated.
        """
        return self._tiers

    def _derive_tiers(self) -> tuple[list, Optional[list]]:
        me = self.ranks[self.me]
        chain = [(self.sub, self.my_leader)]
        top = self.leaders
        if self.host_leaders is not None:
            if me == self.my_leader:
                chain.append((self.host_sub, self.my_host_leader))
            top = self.host_leaders
        return chain, (top if chain[-1][1] == me else None)

    def under(self, rank: int, level: int) -> list:
        """The group ranks ``rank`` speaks for as a member of a tier at
        ``level`` (0 = device subgroup, 1 = the device leaders above it,
        2 = the host leaders), in the order a tiered gather packs them."""
        if level == 0:
            return [rank]
        if level == 1:
            groups, leaders = self.groups, self.leaders
        else:
            groups, leaders = self.host_groups, self.host_leaders
        sub = list(groups.values())[leaders.index(rank)]
        return [r for member in sub for r in self.under(member, level - 1)]


def _plan(
    comm: "Rcce", group_size: Optional[int], members, root: Optional[int] = None
) -> GroupPlan:
    """The caller's :class:`GroupPlan` for one collective call.

    Memoized on the communicator per ``(group, root)``: the group is the
    shared, validated :class:`repro.rcce.collectives.Group`, so a bad
    group or root raises before anything is stored, on every call.
    """
    if members is not None:
        members = tuple(members)  # read once, here and in GroupPlan
    key = (_group(comm, group_size, members), root)
    plan = comm._plans.get(key)
    if plan is None:
        plan = comm._plans[key] = GroupPlan(comm, group_size, members, root)
    return plan


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


def _token_edges(level: int, tier: list, leader: int, me: int) -> tuple:
    """``(parent, children, wake order)`` of ``me`` in one barrier tier.

    The on-chip tier is the binomial token tree, released in reverse;
    each tier above it is a linear fan around its leader, released in
    member order.
    """
    if level == 0:
        parent, children = _tree_edges(tier.index(me), tier)
        return parent, children, children[::-1]
    if me != leader:
        return leader, [], []
    peers = [rank for rank in tier if rank != me]
    return None, peers, peers


def barrier(
    comm: "Rcce",
    group_size: Optional[int] = None,
    members: Optional[list] = None,
) -> Generator:
    """Tiered barrier: tokens climb the chain, the top group synchronizes,
    releases come back down.

    Off chip only the leaders exchange tokens: 2·(num_devices−1) PCIe
    crossings on one host, each a one-byte token on the direct
    fast-path.
    """
    plan = _plan(comm, group_size, members)
    top = plan.tiers()[1]
    wake = []
    for parent, children, release in plan.barrier_edges:
        for child in children:
            yield from comm.recv(1, child)
        if parent is not None:
            yield from comm.send(_TOKEN, parent)
            yield from comm.recv(1, parent)
        wake.append(release)
    if top is not None:
        yield from _flat.barrier(comm, members=top)
    for release in reversed(wake):
        for child in release:
            yield from comm.send(_TOKEN, child)


def bcast(
    comm: "Rcce",
    data: Optional[np.ndarray],
    nbytes: int,
    root: int,
    group_size: Optional[int] = None,
    members: Optional[list] = None,
) -> Generator:
    """Tiered broadcast: the top group first, then down the chain.

    The root leads every tier it belongs to, so the payload crosses
    PCIe exactly ``num_devices - 1`` times before the on-chip trees
    distribute it.
    """
    plan = _plan(comm, group_size, members, root)
    # The root's top-group call checks its data before anything moves.
    payload = data if plan.me == root else None
    top = plan.tiers()[1]
    if top is not None:
        payload = yield from _flat.bcast(
            comm, payload, nbytes, plan.top_root, members=top
        )
    for tier, index in reversed(plan.indexed_chain):
        payload = yield from _flat.bcast(comm, payload, nbytes, index, members=tier)
    return payload


def _reduce_up(comm: "Rcce", plan: GroupPlan, acc, op) -> Generator:
    """Fold ``acc`` up the chain; ``None`` once this rank hands it on."""
    for tier, index in plan.indexed_chain:
        acc = yield from _flat.reduce(comm, acc, op, index, members=tier)
    return acc


def reduce(
    comm: "Rcce",
    values: np.ndarray,
    op,
    root: int,
    group_size: Optional[int] = None,
    members: Optional[list] = None,
) -> Generator:
    """Tiered reduction: up the chain, then a flat reduce over the top.

    Each device folds its contributions on chip; only the per-device
    partials — ``num_devices - 1`` messages — cross PCIe. Returns the
    reduced vector at ``root`` and ``None`` elsewhere, like the flat
    version; the combination order (tier by tier) is deterministic but
    differs from the flat tree's.
    """
    plan = _plan(comm, group_size, members, root)
    top = plan.tiers()[1]
    acc = yield from _reduce_up(comm, plan, values, op)
    if top is not None:
        acc = yield from _flat.reduce(comm, acc, op, plan.top_root, members=top)
    return acc if plan.me == root else None


def allreduce(
    comm: "Rcce",
    values: np.ndarray,
    op,
    group_size: Optional[int] = None,
    members: Optional[list] = None,
) -> Generator:
    """Tiered allreduce: reduce up the chain, flat allreduce over the
    top group, broadcast back down.

    The bulk payload crosses PCIe ``2·(num_devices - 1)`` times on one
    host (up the leader tree, back down) — under a
    :class:`~repro.vscc.policy.ThresholdPolicy` those are exactly the
    messages that ride vDMA when they outgrow the communication buffer.
    """
    plan = _plan(comm, group_size, members, 0)
    dtype = reduction_dtype(values)
    nbytes = np.asarray(values, dtype=dtype).nbytes
    top = plan.tiers()[1]
    acc = yield from _reduce_up(comm, plan, values, op)
    if top is not None:
        acc = yield from _flat.allreduce(comm, acc, op, members=top)
    for tier, index in reversed(plan.indexed_chain):
        raw = yield from _flat.bcast(
            comm,
            None if acc is None else comm._as_bytes(acc),
            nbytes,
            index,
            members=tier,
        )
        acc = np.asarray(raw, np.uint8).view(dtype).copy()
    return acc


def gather(
    comm: "Rcce",
    value: np.ndarray,
    root: int,
    group_size: Optional[int] = None,
    members: Optional[list] = None,
) -> Generator:
    """Tiered gather of equal-size contributions to ``root``.

    Every leader collects its tier's blobs in member order and forwards
    them as *one* concatenated message to the next tier — so each PCIe
    link carries one message per remote device, and each inter-host
    link one per remote host. The root returns the parts in group
    order, like the flat version.
    """
    plan = _plan(comm, group_size, members, root)
    chain, top = plan.tiers()
    me = plan.ranks[plan.me]
    blob = comm._as_bytes(value)
    part_bytes = len(blob)
    for level, (tier, leader) in enumerate([*chain, (top, plan.ranks[root])]):
        if me != leader:
            yield from comm.send(blob, leader)
            return None
        pieces = []
        for rank in tier:
            if rank == me:
                pieces.append(blob)
                continue
            size = part_bytes * len(plan.under(rank, level))
            piece = yield from comm.recv(size, rank)
            pieces.append(np.asarray(piece, np.uint8))
        blob = np.concatenate(pieces)
    # The root: ``blob`` holds every part, top member by top member.
    index_of = {rank: i for i, rank in enumerate(plan.ranks)}
    out: list = [None] * plan.n
    order = [r for rank in top for r in plan.under(rank, len(chain))]
    for i, rank in enumerate(order):
        out[index_of[rank]] = blob[i * part_bytes : (i + 1) * part_bytes]
    return out
