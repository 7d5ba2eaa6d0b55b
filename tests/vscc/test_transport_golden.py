"""Golden transports: every scheme's protocol pinned case by case.

``data/transport_golden.json`` records, for every case below, the
simulated time of one run (exact float ns), the events it
processed, a sha256 of every payload both ranks received, and every
series of the final metrics snapshot except ``policy.*`` and
``scheme.selected*`` (the selection bookkeeping, not the protocol).

Each run is a ping-pong between rank 0 and the last rank (of device 1
across devices, of the only device on-chip) at the protocol edges —
empty, one byte, around each direct threshold (32/64/128 B), around the
half-buffer slot (3840 B) and the full communication buffer (7680 B),
two and three chunks — three times per size, followed by 300 one-way
messages of 1-40 B that wrap the 254-value flag counters. The cases cover:

* every static :class:`CommScheme` (hw-accel with ``allow_unstable``);
* vDMA and remote-put WCB with the direct path switched off
  (``direct_threshold=0``), and vDMA with it raised to the buffer size;
* the threshold policy, the default adaptive policy with a short
  re-probe cadence, and a three-candidate adaptive policy including WCB;
* on-chip pairs (one device, rank 0 and rank 47): RCCE's default
  protocol, and iRCCE's pipelined protocol at the default packet and at
  1024 B and 3840 B packets. These runs add three overlapped
  ``isend``/``irecv`` each way and one ``recv_any_source``, and also pin
  a sha256 of their ``protocol`` trace records (the Fig 2 timelines).

The pin runner (``tools/pins.py``) records each case with delay fusion
on and replays it with fusion off; the unfused run must match on every
field but the event counts (``kernel.*``, ``sim.events``). Regenerate
(only for an intended change of simulated results) with::

    PYTHONPATH=src python -m tests.vscc.test_transport_golden --update
"""

from __future__ import annotations

import hashlib
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from repro.ircce import irecv, isend, recv_any_source, wait_all
from repro.rcce.api import RcceOptions
from repro.vscc.policy import AdaptivePolicy, StaticPolicy, ThresholdPolicy
from repro.vscc.schemes import CommScheme
from repro.vscc.system import VSCCSystem
from tools import pins

GOLDEN = Path(__file__).parent / "data" / "transport_golden.json"

VDMA = CommScheme.LOCAL_PUT_LOCAL_GET_VDMA
WCB = CommScheme.REMOTE_PUT_WCB
CACHED = CommScheme.LOCAL_PUT_REMOTE_GET

#: Ping-pong sizes: the direct thresholds, the two-slot half buffer, the
#: full communication buffer and multi-chunk messages, each +-1 byte.
SIZES = (0, 1, 32, 33, 64, 65, 128, 129, 3840, 3841, 7680, 7681, 15361, 20000)
ROUNDS = 3
#: One-way stream after the ping-pong: enough messages to wrap the flag
#: counters (1..254) of every protocol.
STREAM = 300
#: On-chip case options: RCCE default, iRCCE pipelined at the default
#: packet (half the buffer) and at two explicit packet sizes.
ONCHIP = {
    "onchip/rcce-default": RcceOptions(),
    "onchip/ircce-pipelined": RcceOptions(pipelined=True),
    "onchip/ircce-pipelined/packet-1024": RcceOptions(
        pipelined=True, pipeline_packet=1024
    ),
    "onchip/ircce-pipelined/packet-3840": RcceOptions(
        pipelined=True, pipeline_packet=3840
    ),
}
#: Sizes of the on-chip cases' overlapped exchange: below, just above
#: and well above the pipelining threshold.
OVERLAP = (64, 4097, 20000)
#: Size of the on-chip cases' wildcard receive.
ANY_SOURCE = 20000
UNPINNED = ("policy.", "scheme.selected")


def case_specs() -> dict[str, Callable[[], dict]]:
    """Case id -> a factory of fresh ``VSCCSystem`` keyword arguments.

    Policies are built per run: an adaptive policy carries its EWMAs.
    """
    specs = {
        f"static/{scheme.value}": lambda s=scheme: dict(
            policy=StaticPolicy(s),
            allow_unstable=s is CommScheme.HW_ACCEL_REMOTE_PUT,
        )
        for scheme in CommScheme
    }
    specs["vdma/direct-0"] = lambda: dict(scheme=VDMA, direct_threshold=0)
    specs["remote-put-wcb/direct-0"] = lambda: dict(scheme=WCB, direct_threshold=0)
    specs["vdma/direct-7680"] = lambda: dict(scheme=VDMA, direct_threshold=7680)
    specs["threshold"] = lambda: dict(policy=ThresholdPolicy())
    specs["adaptive"] = lambda: dict(policy=AdaptivePolicy(probe_every=4))
    specs["adaptive-3"] = lambda: dict(
        policy=AdaptivePolicy(candidates=(CACHED, VDMA, WCB), probe_every=3)
    )
    for case, options in ONCHIP.items():
        specs[case] = lambda o=options: dict(num_devices=1, options=o)
    return specs


def payload(size: int, salt: int) -> np.ndarray:
    return ((np.arange(size) * 13 + size + salt) % 251).astype(np.uint8)


def traffic(system: VSCCSystem, onchip: bool) -> tuple[float, str]:
    peer = system.num_ranks - 1

    def program(comm):
        got = []
        for size in SIZES:
            for rnd in range(ROUNDS):
                if comm.rank == 0:
                    yield from comm.send(payload(size, rnd), peer)
                    got.append(bytes((yield from comm.recv(size, peer))))
                else:
                    data = yield from comm.recv(size, 0)
                    got.append(bytes(data))
                    yield from comm.send(data, 0)
        for i in range(STREAM):
            size = 1 + i % 40
            if comm.rank == 0:
                yield from comm.send(payload(size, i), peer)
            else:
                got.append(bytes((yield from comm.recv(size, 0))))
        if onchip:
            other = peer if comm.rank == 0 else 0
            salt = 0 if comm.rank == 0 else 1
            sends = [isend(comm, payload(size, salt), other) for size in OVERLAP]
            recvs = [irecv(comm, size, other) for size in OVERLAP]
            got.extend(bytes(data) for data in (yield from wait_all(recvs)))
            yield from wait_all(sends)
            if comm.rank == 0:
                _source, data = yield from recv_any_source(comm, ANY_SOURCE, [peer])
                got.append(bytes(data))
            else:
                yield from comm.send(payload(ANY_SOURCE, 2), 0)
        return b"".join(got)

    result = system.run(program, ranks=[0, peer])
    digest = hashlib.sha256(result.results[0] + result.results[peer])
    return result.elapsed_ns, digest.hexdigest()


def run_case(case: str) -> dict:
    onchip = case in ONCHIP
    kwargs = {"num_devices": 2, **case_specs()[case]()}
    system = VSCCSystem(**kwargs)
    if onchip:
        system.tracer.enable("protocol")
    elapsed_ns, digest = traffic(system, onchip)
    doc = {
        "elapsed_ns": elapsed_ns,
        "events": system.sim.events_processed,
        "payload_sha256": digest,
        "series": {
            key: value
            for key, value in system.metrics.items()
            if not key.startswith(UNPINNED)
        },
    }
    if onchip:
        records = [(r.t, r.payload) for r in system.tracer.select("protocol")]
        doc["protocol_sha256"] = hashlib.sha256(repr(records).encode()).hexdigest()
    return doc


def expected_payload_sha256(case: str) -> str:
    """The digest a case must reach: each payload, delivered intact."""
    echoed = [bytes(payload(s, r)) for s in SIZES for r in range(ROUNDS)]
    stream = [bytes(payload(1 + i % 40, i)) for i in range(STREAM)]
    first, last = echoed, echoed + stream
    if case in ONCHIP:
        first = first + [bytes(payload(s, 1)) for s in OVERLAP]
        first.append(bytes(payload(ANY_SOURCE, 2)))
        last = last + [bytes(payload(s, 0)) for s in OVERLAP]
    return hashlib.sha256(b"".join(first + last)).hexdigest()


CASES = {case: partial(run_case, case) for case in case_specs()}


def test_golden_covers_the_matrix():
    pins.check(GOLDEN, CASES)


def test_golden_payloads_arrive_intact():
    golden = pins.load(GOLDEN)
    assert {case: doc["payload_sha256"] for case, doc in golden.items()} == {
        case: expected_payload_sha256(case) for case in golden
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_transport_matches_golden(case):
    pins.check(GOLDEN, CASES, case)


if __name__ == "__main__":
    raise SystemExit(pins.main(GOLDEN, CASES))
