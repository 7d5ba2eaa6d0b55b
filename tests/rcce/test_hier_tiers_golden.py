"""Golden tier walk: the hierarchical collectives pinned case by case.

``data/hier_tiers_golden.json`` records, for every case of the matrix
below, the simulated time the collective took (exact float ns), the
events it processed and a sha256 of the per-rank results: each rank's
output and the simulated time it left the collective, so a change in
the order a leader serves its tier shows up even when the slowest rank
finishes at the same time. The matrix covers each tier shape the walk
can take:

* ``1x3`` — one host, three devices (device tier only);
* ``2x2`` — two hosts of two devices (device and host tiers);
* ``3+2`` — two hosts with three and two devices, the only shape whose
  host tier has three members, so its linear barrier release and its
  per-host gather blobs differ from a two-member tier.

Each fabric runs the full group and two permuted groups (23 and 7
members) through every collective, rooted ones at the first, middle
and last group index. Any change to the message order on any tier moves
a clock, an event count or a digest.

The pin runner (``tools/pins.py``) records each case with delay fusion
on and replays it with fusion off; the unfused run must match on every
field but the event counts. Regenerate (only for an intended change of
simulated results) with::

    PYTHONPATH=src python -m tests.rcce.test_hier_tiers_golden --update
"""

from __future__ import annotations

import hashlib
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.vscc.system import VSCCSystem
from tools import pins

GOLDEN = Path(__file__).parent / "data" / "hier_tiers_golden.json"

FABRICS = {
    "1x3": dict(num_devices=3),
    "2x2": dict(num_hosts=2, devices_per_host=2),
    "3+2": dict(num_hosts=2, num_devices=5),
}

#: Group name -> (size, permutation seed); ``None`` is the full group.
GROUPS = {"all": None, "perm23": (23, 11), "perm7": (7, 5)}

OPS = ("barrier", "bcast", "reduce", "allreduce", "gather")
ROOTED = ("bcast", "reduce", "gather")


def group_members(system: VSCCSystem, group: str) -> list[int]:
    spec = GROUPS[group]
    if spec is None:
        return list(range(system.num_ranks))
    size, seed = spec
    perm = np.random.default_rng(seed).permutation(system.num_ranks)
    return [int(r) for r in perm[:size]]


def ops_and_roots(n: int) -> list[tuple[str, int | None]]:
    roots = sorted({0, n // 2, n - 1})
    return [
        (op, root)
        for op in OPS
        for root in (roots if op in ROOTED else [None])
    ]


def program_for(op: str, root, members: list[int]):
    kw = dict(members=members, hierarchical=True)

    def collective(comm):
        gi = members.index(comm.rank)
        if op == "barrier":
            yield from comm.barrier(**kw)
            return None
        if op == "bcast":
            data = None
            if gi == root:
                data = (np.arange(200) * 7 + gi).astype(np.uint8)
            out = yield from comm.bcast(data, 200, root, **kw)
            return bytes(np.asarray(out, np.uint8))
        values = np.arange(8.0) * 0.1 + gi / 7.0
        if op == "reduce":
            out = yield from comm.reduce(values, np.add, root, **kw)
            return None if out is None else out.tobytes()
        if op == "allreduce":
            out = yield from comm.allreduce(values, np.add, **kw)
            return out.tobytes()
        value = np.full(24, gi % 251, np.uint8)
        out = yield from comm.gather(value, root, **kw)
        if out is None:
            return None
        return b"".join(bytes(np.asarray(p, np.uint8)) for p in out)

    def program(comm):
        out = yield from collective(comm)
        return out, comm.env.sim.now

    return program


def run_fabric(fabric: str, group: str) -> dict[str, dict]:
    """Every case of one (fabric, group), in order, on one system."""
    system = VSCCSystem(**FABRICS[fabric])
    members = group_members(system, group)
    out = {}
    for op, root in ops_and_roots(len(members)):
        events = system.sim.events_processed
        result = system.run(program_for(op, root, members), ranks=members)
        digest = hashlib.sha256()
        for rank in members:
            value, left_ns = result.results[rank]
            digest.update(repr(left_ns).encode())
            digest.update(b"-" if value is None else b"+" + value)
        out[op if root is None else f"{op}@{root}"] = {
            "elapsed_ns": result.elapsed_ns,
            "events": system.sim.events_processed - events,
            "results_sha256": digest.hexdigest(),
        }
    return out


CASES = {
    f"{fabric}/{group}": partial(run_fabric, fabric, group)
    for fabric in FABRICS
    for group in GROUPS
}


def test_golden_covers_the_matrix():
    pins.check(GOLDEN, CASES)


@pytest.mark.parametrize("group", sorted(GROUPS))
@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_tier_walk_matches_golden(fabric, group):
    pins.check(GOLDEN, CASES, f"{fabric}/{group}")


if __name__ == "__main__":
    raise SystemExit(pins.main(GOLDEN, CASES))
