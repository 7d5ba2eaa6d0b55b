"""Unified observability layer: metrics registry + Chrome-trace export.

Public surface::

    from repro.obs import (
        MetricsRegistry,                          # typed instruments (sim.obs)
        format_key, label_keys, merge_snapshots,  # snapshot plumbing
        export_chrome_trace, write_chrome_trace,  # Perfetto trace.json
    )

Both belong to the simulator: ``sim.obs`` is its metrics registry and
``sim.tracer`` its tracer, reached by every component through the
``sim`` it holds. Two complementary views of one simulated run:

* **metrics** — every instrumented component implements
  ``metrics_snapshot() -> dict[str, float]`` with series keys like
  ``pcie.bytes{device=0,dir=up}``; :class:`repro.vscc.VSCCSystem`
  aggregates them (plus the registry's typed instruments) at
  ``system.metrics``;
* **traces** — categorized :class:`repro.sim.trace.Tracer` records
  export to Chrome trace-event JSON that Perfetto loads directly.
"""

from .chrometrace import export_chrome_trace, to_trace_events, write_chrome_trace
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_key,
    label_keys,
    merge_snapshots,
    parse_key,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "export_chrome_trace",
    "format_key",
    "label_keys",
    "merge_snapshots",
    "parse_key",
    "to_trace_events",
    "write_chrome_trace",
]
