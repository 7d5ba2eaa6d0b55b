"""Benchmark harness: figure regeneration, calibration bands, arrivals."""

from .arrivals import (
    BurstyArrivals,
    ParetoSizes,
    PoissonArrivals,
    RpcCall,
    UniformSizes,
    calls_digest,
    generate_calls,
    golden_trace,
)
from .figures import (
    ONCHIP_PAIR,
    SCHEME_LABELS,
    fig2_protocol_timeline,
    fig6a_onchip,
    fig6b_interdevice,
    fig7_bt_scaling,
    fig8_bt_traffic,
    latency_anchors,
)
from .runner import (
    Band,
    PAPER_BANDS,
    RUN_METRICS_SCHEMA,
    format_series,
    format_table,
    render_timeline,
    write_run_metrics,
)

__all__ = [
    "Band",
    "BurstyArrivals",
    "ParetoSizes",
    "PoissonArrivals",
    "RpcCall",
    "UniformSizes",
    "calls_digest",
    "generate_calls",
    "golden_trace",
    "ONCHIP_PAIR",
    "PAPER_BANDS",
    "RUN_METRICS_SCHEMA",
    "SCHEME_LABELS",
    "fig2_protocol_timeline",
    "fig6a_onchip",
    "fig6b_interdevice",
    "fig7_bt_scaling",
    "fig8_bt_traffic",
    "format_series",
    "render_timeline",
    "format_table",
    "latency_anchors",
    "write_run_metrics",
]
