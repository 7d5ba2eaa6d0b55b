"""Golden host path: every host-mediated transfer pinned case by case.

``data/host_path_golden.json`` records, for every case of the matrix
below, the simulated time of a cross-device ping-pong (exact float ns),
the events it processed, a sha256 of the payloads echoed back, and the
host-layer series of the final metrics snapshot:

* ``pcie.*``, ``interhost.*``, ``softcache.*``, ``commtask.*``,
  ``wcbuf.*``, ``vdma.*``, ``sched.*`` and ``faults.*``;
* ``dma.bytes{...,dir=pull}`` (push bytes are not pinned).

The matrix runs on three fabrics — one host with two devices (``1x2``),
two hosts with one device each (``2x1``) and two hosts with two devices
each (``2x2``) — so the peer sits on another device of the same host or
behind the inter-host tier. On the two-host fabrics host 1 serves
requests slower than host 0 (:data:`HOST1_SERVICE_NS`), so the host
that owns an inter-host hop shows in the timing:

* every :class:`CommScheme` with the cross-host affinity on ``src`` and
  on ``dst``;
* cached-get with the sender's prefetch announce switched off;
* the threshold and adaptive policies;
* a fault plan dropping packets on both inter-host links and on
  device 0's up-cable, for vDMA, remote-put WCB and cached-get;
* an RPC dispatcher homed on host 1 under the static, threshold and
  adaptive policies.

The pin runner (``tools/pins.py``) records each case with delay fusion
on and replays it with fusion off; the unfused run must match on every
field but the event count. Regenerate (only for an intended change of
simulated results) with::

    PYTHONPATH=src python -m tests.fabric.test_host_path_golden --update
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.apps.rpc import RpcParams, run_rpc
from repro.bench.arrivals import ParetoSizes, PoissonArrivals, generate_calls
from repro.faults import FaultPlan, LinkFaults
from repro.vscc.policy import AdaptivePolicy, StaticPolicy, ThresholdPolicy
from repro.vscc.schemes import CommScheme
from repro.vscc.system import VSCCSystem
from tools import pins

GOLDEN = Path(__file__).parent / "data" / "host_path_golden.json"

FABRICS = {
    "1x2": dict(num_devices=2),
    "2x1": dict(num_hosts=2, devices_per_host=1),
    "2x2": dict(num_hosts=2, devices_per_host=2),
}
MULTI_HOST = ("2x1", "2x2")

#: Communication-task service cost of host 1 on the two-host fabrics
#: (host 0 keeps the 2400 ns default).
HOST1_SERVICE_NS = 3100.0

#: Ping-pong sizes: below the direct threshold, one chunk, and several
#: chunks (past the 7680 B communication buffer).
SIZES = (40, 3000, 20000)

SERIES = (
    "pcie.", "interhost.", "softcache.", "commtask.", "wcbuf.", "vdma.",
    "sched.", "faults.",
)

POLICIES = {
    "static": lambda: StaticPolicy(CommScheme.LOCAL_PUT_LOCAL_GET_VDMA),
    "threshold": ThresholdPolicy,
    "adaptive": AdaptivePolicy,
}

FAULTY_SCHEMES = (
    CommScheme.LOCAL_PUT_LOCAL_GET_VDMA,
    CommScheme.REMOTE_PUT_WCB,
    CommScheme.LOCAL_PUT_REMOTE_GET,
)


def fault_plan() -> FaultPlan:
    return FaultPlan(
        seed=11,
        links={
            "interhost0to1": LinkFaults(drop=0.2),
            "interhost1to0": LinkFaults(drop=0.2),
            "pcie0.up": LinkFaults(drop=0.1),
        },
    )


def case_specs() -> dict[str, tuple[str, dict]]:
    """Case id -> (kind, VSCCSystem keyword arguments), built anew per run."""
    specs: dict[str, tuple[str, dict]] = {}
    for fabric, shape in FABRICS.items():
        for scheme in CommScheme:
            for affinity in ("src", "dst"):
                specs[f"{fabric}/{scheme.value}/{affinity}"] = (
                    "pingpong",
                    dict(shape, policy=StaticPolicy(
                        scheme, cross_host_affinity=affinity
                    )),
                )
        specs[f"{fabric}/cached-get/no-announce"] = (
            "pingpong",
            dict(shape, scheme=CommScheme.LOCAL_PUT_REMOTE_GET,
                 announce_prefetch=False),
        )
        for name in ("threshold", "adaptive"):
            specs[f"{fabric}/{name}"] = (
                "pingpong", dict(shape, policy=POLICIES[name]())
            )
    for fabric in MULTI_HOST:
        shape = FABRICS[fabric]
        for scheme in FAULTY_SCHEMES:
            specs[f"{fabric}/faults/{scheme.value}"] = (
                "pingpong", dict(shape, scheme=scheme, fault_plan=fault_plan())
            )
        for name, factory in POLICIES.items():
            specs[f"{fabric}/rpc/{name}"] = ("rpc", dict(shape, policy=factory()))
    return specs


def pingpong(system: VSCCSystem) -> tuple[float, str]:
    """Rank 0 bounces each size off the last rank (on the last device)."""
    peer = system.num_ranks - 1

    def program(comm):
        echoed = []
        for size in SIZES:
            payload = ((np.arange(size) * 13 + size) % 251).astype(np.uint8)
            if comm.rank == 0:
                yield from comm.send(payload, peer)
                echoed.append(bytes((yield from comm.recv(size, peer))))
            else:
                data = yield from comm.recv(size, 0)
                yield from comm.send(data, 0)
        return b"".join(echoed)

    result = system.run(program, ranks=[0, peer])
    return result.elapsed_ns, hashlib.sha256(result.results[0]).hexdigest()


def rpc(system: VSCCSystem) -> tuple[float, str]:
    """Open-loop RPC from both hosts to a dispatcher homed on host 1."""
    calls = generate_calls(
        ranks=[0, 1, system.num_ranks - 1],
        calls_per_rank=12,
        arrivals=PoissonArrivals(3000.0),
        req_sizes=ParetoSizes(alpha=1.3, cap_bytes=8192),
        resp_sizes=ParetoSizes(alpha=1.2, floor_bytes=48, cap_bytes=16384),
        seed=19,
        priority_every=5,
    )
    report = run_rpc(system, calls, RpcParams(home_host=1))
    assert report.completed == report.offered
    return report.run.elapsed_ns, report.digest


def run_case(case: str) -> dict:
    kind, kwargs = case_specs()[case]
    system = VSCCSystem(**kwargs)
    if system.cluster is not None:
        host1 = system.hosts[1]
        host1.params = replace(host1.params, service_ns=HOST1_SERVICE_NS)
    elapsed_ns, digest = (pingpong if kind == "pingpong" else rpc)(system)
    series = {
        key: value
        for key, value in system.metrics.items()
        if key.startswith(SERIES)
        or (key.startswith("dma.bytes") and "dir=pull" in key)
    }
    return {
        "elapsed_ns": elapsed_ns,
        "events": system.sim.events_processed,
        "payload_sha256": digest,
        "series": series,
    }


CASES = {case: partial(run_case, case) for case in case_specs()}


def test_golden_covers_the_matrix():
    pins.check(GOLDEN, CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_host_path_matches_golden(case):
    pins.check(GOLDEN, CASES, case)


def test_drift_is_named_per_field_under_its_layer():
    case = "2x1/vdma/src"
    fresh = pins.load(GOLDEN)[case]
    pcie = min(key for key in fresh["series"] if key.startswith("pcie."))
    elapsed, sent = fresh["elapsed_ns"], fresh["series"][pcie]
    pinned = {**fresh, "elapsed_ns": elapsed + 0.5}
    pinned["series"] = {**fresh["series"], pcie: sent + 1.0}
    assert pins.run({case: CASES[case]}, {case: pinned})[1] == [
        "pcie: fingerprint drifted (pinned -> fresh):",
        f"    {case}.series.{pcie}: {sent + 1.0!r} -> {sent!r}",
        "run: fingerprint drifted (pinned -> fresh):",
        f"    {case}.elapsed_ns: {elapsed + 0.5!r} -> {elapsed!r}",
    ]


if __name__ == "__main__":
    raise SystemExit(pins.main(GOLDEN, CASES))
