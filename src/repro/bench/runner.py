"""Benchmark-harness utilities: sweeps, tables, and target bands.

The figure sweeps of :mod:`repro.bench.figures` regenerate the paper's
evaluation; this module holds the shared machinery — pretty tables that
print the same rows/series the paper plots, and the calibration bands
the reproduction is expected to stay within (EXPERIMENTS.md records the
measured values against them).

Unpinned: kept for the examples' tables and the schema-checked metrics JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

from repro.obs.chrometrace import pair_spans

__all__ = [
    "Band",
    "PAPER_BANDS",
    "RUN_METRICS_SCHEMA",
    "format_table",
    "format_series",
    "render_timeline",
    "write_run_metrics",
]

#: Identifier checked by ``schemas/run_metrics.schema.json``.
RUN_METRICS_SCHEMA = "repro.run_metrics/v1"


@dataclass(frozen=True)
class Band:
    """An acceptance band around a paper-reported value."""

    paper_value: float
    low: float
    high: float
    description: str

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    def report(self, value: float) -> str:
        status = "OK " if self.contains(value) else "OFF"
        return (
            f"[{status}] {self.description}: measured {value:.4g} "
            f"(paper {self.paper_value:.4g}, band {self.low:.4g}..{self.high:.4g})"
        )


#: The paper's quantitative anchors and the bands we hold ourselves to.
PAPER_BANDS: dict[str, Band] = {
    "onchip_peak_mbps": Band(150.0, 120.0, 180.0, "on-chip peak throughput, MB/s (§4.1)"),
    "rcce_vs_ircce_gain": Band(1.5, 1.2, 1.8, "iRCCE pipelined gain over RCCE at 256 kB"),
    "best_vs_onchip": Band(0.24, 0.18, 0.30, "best inter-device scheme / on-chip peak (§5: 24 %)"),
    "cached_vs_limit": Band(0.7172, 0.55, 0.85, "local-put/remote-get / hw-accel limit (§4.1: 71.72 %)"),
    "vdma_vs_limit": Band(0.95, 0.80, 1.02, "vDMA scheme 'close to' the hw-accel limit (§4.1)"),
    "interdevice_rtt_cycles": Band(1e4, 0.6e4, 1.6e4, "inter-device access, core cycles (§3: ~10^4)"),
    "latency_ratio": Band(120.0, 60.0, 220.0, "inter-device vs on-chip latency ratio (§5: 120x)"),
    "bt_max_pair_mb": Band(186.0, 120.0, 260.0, "BT class C / 64 ranks max pair traffic, MB (§4.2)"),
}


def write_run_metrics(
    path: Union[str, Path],
    metrics: Mapping[str, float],
    *,
    name: str,
    run_info: Optional[Mapping[str, object]] = None,
) -> Path:
    """Write one run's metrics snapshot as validated JSON.

    The layout matches ``schemas/run_metrics.schema.json``: a schema
    tag, the run ``name``, free-form ``run_info`` context (scheme,
    message size, ...), and the flat ``metrics`` mapping in the
    ``name{label=value,...}`` series-key format.
    """
    path = Path(path)
    payload = {
        "schema": RUN_METRICS_SCHEMA,
        "name": name,
        "run_info": {str(k): v for k, v in (run_info or {}).items()},
        "metrics": {str(k): float(v) for k, v in metrics.items()},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Fixed-width table matching the style of the paper's reported rows."""
    rows = [[_fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return "\n".join(out)


def format_series(title: str, points: Iterable[tuple[float, float]], unit: str) -> str:
    """One figure series as ``x -> y`` rows."""
    body = "\n".join(f"  {int(x):>8} B  {y:10.2f} {unit}" for x, y in points)
    return f"{title}\n{body}"


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}" if abs(value) < 100 else f"{value:.1f}"
    return str(value)


def render_timeline(records) -> str:
    """ASCII Gantt of protocol trace records (Fig 2 style), 72 columns wide.

    ``records`` are :class:`repro.sim.trace.TraceRecord` of category
    "protocol" with payload ``(rank, role, phase, index)``. Spans paired
    by :func:`repro.obs.chrometrace.pair_spans` (put_start/put_done,
    get_start/get_done) are drawn as bars; point events (flag_set,
    ack_seen) as markers.
    """
    if not records:
        return "(no protocol records)"
    width = 72
    t0 = min(r.t for r in records)
    t1 = max(r.t for r in records)
    span = max(t1 - t0, 1e-9)

    def col(t: float) -> int:
        return min(width - 1, int((t - t0) / span * (width - 1)))

    bars = {"put": "P", "get": "G"}
    markers = {"flag_set": "f", "ack_seen": "a"}
    rows: dict[tuple, list[str]] = {}
    for mark in pair_spans(sorted(records, key=lambda r: r.t)):
        role, _, what = mark.name.partition(".")
        row = rows.setdefault((mark.tid, role), [" "] * width)
        if mark.ph == "X":
            for i in range(col(mark.t0), col(mark.t1) + 1):
                row[i] = bars[what]
        elif mark.ph == "i" and what in markers:
            row[col(mark.t0)] = markers[what]
    lines = [f"t = 0 .. {span / 1000:.1f} us   (P = put, G = get, f = flag, a = ack)"]
    for (rank, role), row in sorted(rows.items()):
        lines.append(f"rank {rank:>3} {role:<4} |{''.join(row)}|")
    return "\n".join(lines)
