"""Chrome trace-event (Perfetto-compatible) export of simulator traces.

Converts :class:`repro.sim.trace.TraceRecord` streams — the protocol
phases of RCCE/iRCCE transfers, vDMA copy spans, and any other enabled
category — into the Trace Event Format JSON that ``chrome://tracing``
and https://ui.perfetto.dev load directly. Every emitted event carries
the keys Perfetto's importer requires: ``ph``, ``ts``, ``pid``, ``tid``
and ``name``.

Layout convention:

* **pid 0 — "ranks"**: one thread per rank; ``put``/``get`` phases of
  the blocking and pipelined protocols become complete (``X``) spans,
  flag toggles and acknowledgements become instant (``i``) marks.
* **pid 1 — "host"**: one thread per device; vDMA copies become spans,
  MMIO programming and cache control become instants.

Timestamps are simulated nanoseconds divided by 1000 (the format's
``ts`` unit is microseconds); sub-ns precision survives as fractions.

:func:`pair_spans` is the one place records are decoded and start/end
records paired into spans; the exporter and the ASCII timeline of
:func:`repro.bench.runner.render_timeline` both consume it.

Unpinned: kept for ``run(trace_json=...)`` and CI's smoke trace check.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "TraceMark",
    "export_chrome_trace",
    "pair_spans",
    "to_trace_events",
    "write_chrome_trace",
]

#: Synthetic process ids of the two trace lanes.
PID_RANKS = 0
PID_HOST = 1

#: Protocol phases that open ("B") or close ("E") a span of this name.
_SPAN_PHASES = {
    "put_start": ("B", "put"),
    "put_done": ("E", "put"),
    "get_start": ("B", "get"),
    "get_done": ("E", "get"),
}


# -- per-category decoders -----------------------------------------------------
#
# Each maps a record to ``(ph, pid, tid, name, key, args)``: ``ph`` is
# "B" (opens span ``key``), "E" (closes it) or "i" (instant).


def _protocol(r: TraceRecord) -> tuple:
    rank, role, phase, index = r.payload
    ph, span = _SPAN_PHASES.get(phase, ("i", phase))
    # flag_set / ack_seen / future point phases are instants.
    return ph, PID_RANKS, int(rank), f"{role}.{span}", index, {"chunk": index}


def _vdma(r: TraceRecord) -> tuple:
    device, phase, *rest = r.payload
    if phase == "copy_start":
        copy_id, nbytes = rest
        args = {"copy": copy_id, "bytes": nbytes}
        return "B", PID_HOST, int(device), "vdma.copy", copy_id, args
    if phase == "copy_done":
        return "E", PID_HOST, int(device), "vdma.copy", rest[0], None
    # programmed / granule commits / completion flag
    return "i", PID_HOST, int(device), f"vdma.{phase}", None, {"detail": list(rest)}


def _policy(r: TraceRecord) -> tuple:
    # One instant per policy decision, on the sending rank's timeline:
    # which scheme this message was dispatched onto.
    src, dst, scheme, nbytes = r.payload
    args = {"src": int(src), "dst": int(dst), "bytes": int(nbytes)}
    return "i", PID_RANKS, int(src), f"policy.{scheme}", None, args


def _coll(r: TraceRecord) -> tuple:
    # Collective spans on the calling rank's timeline, pairing the
    # start/done marks the Rcce collective wrapper emits.
    rank, op, impl, phase, seq = r.payload
    ph = "B" if phase == "start" else "E"
    return ph, PID_RANKS, int(rank), f"coll.{op}.{impl}", seq, {"impl": impl, "call": seq}


def _sched(r: TraceRecord) -> tuple:
    # Host request-scheduler events, on the device's host thread.
    device, phase, *rest = r.payload
    return "i", PID_HOST, int(device), f"sched.{phase}", None, {"detail": list(rest)}


def _other(r: TraceRecord) -> tuple:
    # Unknown categories stay visible as host-lane instants.
    return "i", PID_HOST, 0, r.category, None, {"payload": [repr(p) for p in r.payload]}


_DECODERS = {
    "protocol": _protocol,
    "vdma": _vdma,
    "policy": _policy,
    "coll": _coll,
    "sched": _sched,
}


class TraceMark(NamedTuple):
    """One decoded, paired trace entry (times in simulated ns).

    ``ph`` is "X" for a complete span (``t0``..``t1``), "i" for an
    instant (``t0 == t1``), "u" for a span whose end never arrived (a
    truncated run; ``t1 == t0``) and "E" for an end whose start was
    never recorded (tracing enabled mid-span; ``args`` is None).
    """

    ph: str
    category: str
    pid: int
    tid: int
    name: str
    t0: float
    t1: float
    args: Optional[dict]


def pair_spans(records: Iterable[TraceRecord]) -> Iterator[TraceMark]:
    """Decode records and pair every span's start with its end.

    Marks come in record order: an instant or orphan end at its record,
    a complete span at its end record, then the spans still open when
    the records ran out, in the order they opened. Spans are keyed by
    (pid, tid, name, key); a repeated start replaces the open one.
    """
    open_spans: dict[tuple, tuple[float, str, Optional[dict]]] = {}
    for r in records:
        ph, pid, tid, name, key, args = _DECODERS.get(r.category, _other)(r)
        if ph == "B":
            open_spans[(pid, tid, name, key)] = (r.t, r.category, args)
        elif ph == "E":
            start = open_spans.pop((pid, tid, name, key), None)
            if start is None:
                yield TraceMark("E", r.category, pid, tid, name, r.t, r.t, None)
            else:
                yield TraceMark("X", r.category, pid, tid, name, start[0], r.t, start[2])
        else:
            yield TraceMark("i", r.category, pid, tid, name, r.t, r.t, args)
    for (pid, tid, name, _key), (t0, category, args) in open_spans.items():
        yield TraceMark("u", category, pid, tid, name, t0, t0, args)


def _us(t_ns: float) -> float:
    return t_ns / 1000.0


def _metadata(pid: int, name: str) -> dict:
    return {
        "ph": "M",
        "ts": 0,
        "pid": pid,
        "tid": 0,
        "name": "process_name",
        "args": {"name": name},
    }


def to_trace_events(records: Iterable[TraceRecord]) -> list[dict]:
    """Convert trace records to a list of Trace Event Format dicts.

    Spans become complete (``ph="X"``) events; a start whose end never
    arrived (a truncated run) degrades to an instant event rather than
    being dropped.
    """
    events: list[dict] = []
    pids_seen: set[int] = set()
    for m in pair_spans(records):
        pids_seen.add(m.pid)
        if m.ph == "X":
            t0 = _us(m.t0)
            events.append(
                {
                    "ph": "X",
                    "ts": t0,
                    "dur": _us(m.t1) - t0,
                    "pid": m.pid,
                    "tid": m.tid,
                    "name": m.name,
                    "cat": m.category,
                    "args": m.args,
                }
            )
        elif m.ph != "E":
            unfinished = m.ph == "u"
            events.append(
                {
                    "ph": "i",
                    "ts": _us(m.t0),
                    "pid": m.pid,
                    "tid": m.tid,
                    "name": f"{m.name} (unfinished)" if unfinished else m.name,
                    "cat": "truncated" if unfinished else m.category,
                    "s": "t",
                    "args": m.args,
                }
            )

    meta = []
    if PID_RANKS in pids_seen:
        meta.append(_metadata(PID_RANKS, "ranks"))
    if PID_HOST in pids_seen:
        meta.append(_metadata(PID_HOST, "host"))
    return meta + sorted(events, key=lambda e: (e["ts"], e["pid"], e["tid"]))


def export_chrome_trace(
    tracer: Union[Tracer, Iterable[TraceRecord]],
) -> dict:
    """Build the Trace Event Format document for a tracer's records."""
    records = tracer.records if isinstance(tracer, Tracer) else list(tracer)
    return {
        "traceEvents": to_trace_events(records),
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.obs.chrometrace"},
    }


def write_chrome_trace(
    path: Union[str, Path],
    tracer: Union[Tracer, Iterable[TraceRecord]],
    indent: Optional[int] = None,
) -> Path:
    """Write ``trace.json`` loadable by Perfetto; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(export_chrome_trace(tracer), indent=indent))
    return path
