"""Collective operations built on blocking send/recv.

RCCE ships a small set of collectives on top of its two-sided interface;
we implement binomial-tree versions, which are deadlock-free under
RCCE's *synchronous* blocking semantics (a send only returns once the
matching receive completed) because every tree phase is a pure
parent/child ordering with no cyclic waits.

All coroutines take the calling rank's :class:`~repro.rcce.api.Rcce` as
first argument; every rank of the session must call the same collective
in the same order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .api import Rcce

__all__ = ["barrier", "bcast", "reduce", "allreduce", "gather", "reduction_dtype"]

_TOKEN = b"\x00"


def barrier(
    comm: "Rcce",
    group_size: Optional[int] = None,
    members: Optional[list] = None,
) -> Generator:
    """Binomial-tree gather + release with one-byte tokens.

    ``group_size`` restricts the collective to ranks ``0 … group_size-1``
    (an application running on a subset of the session, like BT on 225
    of 240 cores); ``members`` names an arbitrary ordered group
    (communicator splitting).
    """
    group = _group(comm, group_size, members)
    me = _index(comm, group)
    if len(group.ranks) == 1:
        return
    parent, children = group.edges(me)
    # Gather phase: collect children, then report to the parent.
    for child in children:
        yield from comm.recv(1, child)
    if parent is not None:
        yield from comm.send(_TOKEN, parent)
        yield from comm.recv(1, parent)
    # Release phase: wake children in reverse order.
    for child in reversed(children):
        yield from comm.send(_TOKEN, child)


def _tree_edges(me: int, ranks: list) -> tuple[Optional[int], list]:
    """``(parent, children)`` of group index ``me`` in the binomial tree
    over ``ranks`` rooted at index 0: the parent is ``None`` at the root,
    the children are in ascending subtree order."""
    lsb = me & -me if me else n_pow2(len(ranks))
    children = []
    k = 1
    while k < lsb and me + k < len(ranks):
        children.append(ranks[me + k])
        k <<= 1
    parent = ranks[me - (me & -me)] if me else None
    return parent, children


def n_pow2(n: int) -> int:
    """Smallest power of two ≥ n (tree span for the root)."""
    p = 1
    while p < n:
        p <<= 1
    return p


class Group:
    """A validated collective group, shared by every rank that calls it.

    ``ranks`` is the ordered member list and ``index`` maps each member
    to its position. Both are pure functions of the group argument and
    the session size, so :func:`_group` resolves each distinct group
    once per topology (:attr:`repro.vscc.topology.FabricTopology.groups`)
    and every call of every rank reuses it. Neither is ever mutated.
    """

    __slots__ = ("ranks", "index", "prefix", "_edges")

    def __init__(self, ranks: list, prefix: bool):
        self.ranks = ranks
        self.index = {rank: i for i, rank in enumerate(ranks)}
        #: Named by ``group_size`` (ranks ``0 … n-1``), not by ``members``.
        self.prefix = prefix
        self._edges: dict[int, tuple] = {}

    def edges(self, me: int) -> tuple[Optional[int], list]:
        """:func:`_tree_edges` of group index ``me``, built once."""
        edges = self._edges.get(me)
        if edges is None:
            edges = self._edges[me] = _tree_edges(me, self.ranks)
        return edges


def _group(comm: "Rcce", group_size: Optional[int], members) -> Group:
    """The :class:`Group` a collective call names, validated.

    ``members`` (an ordered list of global ranks) generalizes the
    ``group_size`` prefix-group shorthand to any rank group. The memo is
    keyed by the group's value (a copy of ``members``), so a caller that
    edits its list gets the edited group on its next call, and a group
    that fails validation is never stored: it raises on every call.
    """
    if members is None:
        key = group_size or comm.num_ranks
    else:
        key = members = tuple(members)  # one pass, even over an iterator
    memo = comm.topology.groups
    group = memo.get(key)
    if group is None:
        group = memo[key] = _validate(comm, group_size, members)
    return group


def _validate(comm: "Rcce", group_size: Optional[int], members) -> Group:
    if members is None:
        n = group_size or comm.num_ranks
        return Group(list(range(n)), prefix=True)
    members = [int(m) for m in members]
    # Validate the whole group up front: a bad member would otherwise
    # surface mid-collective — after some ranks already entered the
    # tree — as an obscure placement error on one rank while its
    # peers block forever on tree edges that never fire (a deadlock).
    num_ranks = comm.num_ranks
    bad = [m for m in members if not 0 <= m < num_ranks]
    if bad:
        raise ValueError(
            f"collective group members {bad} out of range "
            f"0..{num_ranks - 1}"
        )
    if len(set(members)) != len(members):
        dupes = sorted({m for m in members if members.count(m) > 1})
        raise ValueError(
            f"duplicate ranks {dupes} in the collective group {members}"
        )
    return Group(members, prefix=False)


def _index(comm: "Rcce", group: Group) -> int:
    """The caller's position in ``group``; raises if it is not a member."""
    me = group.index.get(comm.rank)
    if me is None:
        named = f"of {len(group.ranks)}" if group.prefix else group.ranks
        raise ValueError(f"rank {comm.rank} outside the collective group {named}")
    return me


def _resolve(comm: "Rcce", group_size: Optional[int], members) -> tuple[int, int, list]:
    """(my index, group size, member list) for a collective call."""
    group = _group(comm, group_size, members)
    return _index(comm, group), len(group.ranks), group.ranks


def reduction_dtype(values) -> np.dtype:
    """The dtype a reduction runs in: ndarray inputs keep their dtype
    (so integer reductions stay exact and bitwise-reproducible);
    anything else — lists, scalars — coerces to float64, the historic
    behaviour. Every rank must pass the same dtype."""
    if isinstance(values, np.ndarray):
        return values.dtype
    return np.dtype(np.float64)


def bcast(
    comm: "Rcce",
    data: Optional[np.ndarray],
    nbytes: int,
    root: int,
    group_size: Optional[int] = None,
    members: Optional[list] = None,
) -> Generator:
    """Binomial-tree broadcast; returns the payload on every rank.

    ``root`` is an index *within the group* (= the global rank for the
    default whole-session group).
    """
    me, n, ranks = _resolve(comm, group_size, members)
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range")
    if me == root:
        if data is None or len(data) != nbytes:
            raise ValueError("root must supply exactly nbytes of data")
        payload = data
    else:
        payload = None
    if n == 1:
        return payload
    vr = (me - root) % n
    mask = 1
    while mask < n:
        if vr & mask:
            src = (vr - mask + root) % n
            payload = yield from comm.recv(nbytes, ranks[src])
            break
        mask <<= 1
    else:
        mask = n_pow2(n)
    mask >>= 1
    while mask > 0:
        if vr + mask < n:
            dst = (vr + mask + root) % n
            yield from comm.send(payload, ranks[dst])
        mask >>= 1
    return payload


def reduce(
    comm: "Rcce",
    values: np.ndarray,
    op,
    root: int,
    group_size: Optional[int] = None,
    members: Optional[list] = None,
) -> Generator:
    """Reverse binomial-tree reduction of a vector.

    Returns the reduced vector at ``root`` and ``None`` elsewhere.
    ndarray inputs reduce in their own dtype (:func:`reduction_dtype`),
    so integer reductions are exact; list/scalar inputs coerce to
    float64. The combination order is deterministic (tree order), so
    results are bit-reproducible across runs — though not identical to
    a sequential left-fold, as in any tree reduction.
    """
    me, n, ranks = _resolve(comm, group_size, members)
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range")
    dtype = reduction_dtype(values)
    acc = np.array(values, dtype=dtype, copy=True)
    if n == 1:
        return acc
    vr = (me - root) % n
    mask = 1
    while mask < n:
        if vr & mask == 0:
            src_vr = vr + mask
            if src_vr < n:
                src = (src_vr + root) % n
                raw = yield from comm.recv(acc.nbytes, ranks[src])
                acc = op(acc, raw.view(dtype))
        else:
            dst = (vr - mask + root) % n
            yield from comm.send(acc, ranks[dst])
            return None
        mask <<= 1
    return acc


def allreduce(
    comm: "Rcce",
    values: np.ndarray,
    op,
    group_size: Optional[int] = None,
    members: Optional[list] = None,
) -> Generator:
    """Reduce to group index 0, then broadcast the result to everyone."""
    reduced = yield from reduce(
        comm, values, op, root=0, group_size=group_size, members=members
    )
    dtype = reduction_dtype(values)
    nbytes = np.asarray(values, dtype=dtype).nbytes
    raw = yield from bcast(
        comm,
        None if reduced is None else comm._as_bytes(reduced),
        nbytes,
        root=0,
        group_size=group_size,
        members=members,
    )
    return np.asarray(raw, np.uint8).view(dtype).copy()


def gather(
    comm: "Rcce",
    value: np.ndarray,
    root: int,
    group_size: Optional[int] = None,
    members: Optional[list] = None,
) -> Generator:
    """Linear gather of equal-size contributions to ``root``.

    RCCE's own utility collectives are linear; gather is only used for
    result collection, never on the critical path.
    """
    me, n, ranks = _resolve(comm, group_size, members)
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range")
    payload = comm._as_bytes(value)
    if me == root:
        parts = [None] * n
        parts[me] = payload
        for r in range(n):
            if r == root:
                continue
            parts[r] = yield from comm.recv(len(payload), ranks[r])
        return parts
    yield from comm.send(payload, ranks[root])
    return None
