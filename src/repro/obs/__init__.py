"""Unified observability layer: metrics registry + Chrome-trace export.

Public surface::

    from repro.obs import (
        MetricsRegistry,                          # typed instruments (serve)
        format_key, label_keys, merge_snapshots,  # snapshot plumbing
        export_chrome_trace, write_chrome_trace,  # Perfetto trace.json
    )

Two complementary views of one simulated run:

* **metrics** — every instrumented component implements
  ``metrics_snapshot() -> dict[str, float]`` with series keys like
  ``pcie.bytes{device=0,dir=up}``; :class:`repro.vscc.VSCCSystem`
  aggregates them at ``system.metrics``;
* **traces** — categorized records of the simulator's tracer
  (``sim.tracer``, :class:`repro.sim.trace.Tracer`), reached by every
  component through the ``sim`` it holds, export to Chrome trace-event
  JSON that Perfetto loads directly.

The typed-instrument :class:`MetricsRegistry` serves the job service
(:mod:`repro.serve.core`); a simulated run has no registry.
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
