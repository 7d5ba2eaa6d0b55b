"""Golden Chrome-trace export: every category, one fixed record stream.

``data/chrometrace_golden.json`` holds the exporter's output for
:func:`golden_records`. The stream covers each decoded category
(protocol, vdma, policy, coll, sched), an unknown one, spans left open
by a truncated run, and timestamp ties, so any change to event order,
naming, args or truncation handling shows up as a byte difference.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.chrometrace import to_trace_events
from repro.sim.trace import TraceRecord

GOLDEN = Path(__file__).parent / "data" / "chrometrace_golden.json"


def golden_records() -> list[TraceRecord]:
    r = TraceRecord
    return [
        r(0.0, "vdma", (1, "programmed", 3, 8192)),
        r(100.0, "protocol", (0, "send", "put_start", 0)),
        r(100.0, "policy", (0, 48, "vdma", 8192)),
        r(100.0, "sched", (1, "admit", "bulk", 8192)),
        r(150.0, "coll", (2, "allreduce", "flat", "start", 0)),
        r(200.0, "vdma", (1, "copy_start", 3, 8192)),
        r(250.5, "protocol", (48, "recv", "get_start", 0)),
        r(300.0, "protocol", (0, "send", "put_done", 0)),
        r(300.0, "protocol", (0, "send", "flag_set", 0)),
        r(300.0, "faults", ("pcie", 1, "drop")),
        r(320.25, "vdma", (1, "granule", 3, 0)),
        r(400.0, "protocol", (0, "send", "put_start", 1)),
        r(450.0, "sched", (0, "coalesce", "sync", 2)),
        r(500.0, "vdma", (1, "copy_done", 3)),
        r(500.0, "vdma", (1, "done_flag", 3)),
        r(520.0, "protocol", (48, "recv", "get_done", 0)),
        r(530.0, "protocol", (0, "send", "ack_seen", 0)),
        r(600.0, "coll", (2, "allreduce", "flat", "done", 0)),
        r(610.0, "coll", (3, "barrier", "hier", "start", 1)),
        r(700.0, "rpc", (5, "request", 256)),
        r(700.0, "policy", (1, 49, "direct_small", 61)),
        r(800.0, "vdma", (0, "copy_start", 9, 65536)),
        r(900.0, "protocol", (1, "recv", "get_start", 4)),
        r(900.0, "protocol", (1, "recv", "get_done", 4)),
    ]


def _render(records) -> str:
    return json.dumps(to_trace_events(records), indent=1) + "\n"


def test_export_matches_golden_fixture():
    assert _render(golden_records()) == GOLDEN.read_text()


def test_golden_stream_covers_every_category_and_truncation():
    events = json.loads(GOLDEN.read_text())
    cats = {e.get("cat") for e in events}
    assert {"protocol", "vdma", "policy", "coll", "sched", "faults", "rpc"} <= cats
    unfinished = {e["name"] for e in events if e.get("cat") == "truncated"}
    assert unfinished == {
        "send.put (unfinished)",
        "vdma.copy (unfinished)",
        "coll.barrier.hier (unfinished)",
    }
