"""What the end-to-end suite measures: metric names, units, directions.

``BENCHMARK.json`` at the repository root declares the workloads, the
end-to-end metrics every workload reports (with the bound by which each
may worsen) and the per-layer metrics of a traced run; those bounds
are the only host-time bounds. The workload-specific numbers below —
the paper's simulated figures and the service's latency — are printed
by every run and compared by ``compare.py``: a simulated value (bound 0)
must match exactly, a host value (no bound) is only reported.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: Per-run result documents and Chrome traces (git-ignored).
OUT_DIR = ROOT / "benchmarks" / "out" / "e2e"
DEFAULT_SEED = 2015
#: Layers whose self time and call count a traced run reports.
TRACED_LAYERS = ("sim", "scc", "host", "rcce", "ircce", "vscc", "apps", "serve",
                 "obs", "bench")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Allowed worsening as a share of the parent's median; 0 means the
    #: value is exact (simulated); ``None`` means reported, not gated.
    bound: Optional[float] = None


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count of one run's samples."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def load_benchmark() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


#: Every workload of the suite, in run order. ``BENCHMARK.json`` declares
#: all but ``serve_fleet``: its host time (three busy processes on two
#: vCPUs) spreads 12-20 % from run to run, wider than a bound can resolve.
WORKLOADS = ("bt_spmd", "xdev_sweep", "coll_fabric", "rpc_open_loop", "serve_fleet")


def declared_workloads() -> list[str]:
    return [w["name"] for w in load_benchmark()["workloads"]]


def end_to_end() -> list[Metric]:
    return [Metric(**m) for m in load_benchmark()["end_to_end"]]


def per_layer() -> list[Metric]:
    return [Metric(**m) for m in load_benchmark()["per_layer"]]


def _sim(name: str, unit: str, better: str) -> Metric:
    return Metric(name, unit, better, 0.0)


#: Reported for every workload next to the ``BENCHMARK.json`` set:
#: failed operations over attempted ones (any rise is a regression), and
#: the wall seconds of a pass at reference speed (of the burst phase in
#: ``serve_fleet``).
GENERIC = [
    Metric("failed_frac", "frac", "lower", 0.0),
    Metric("wall_s", "s", "lower"),
]

#: Workload-specific metrics, reported next to the end-to-end set.
DETAIL: dict[str, list[Metric]] = {
    "bt_spmd": [
        _sim("bt_gflops_vdma", "GFLOP/s", "higher"),
        _sim("bt_gflops_cached", "GFLOP/s", "higher"),
    ],
    "xdev_sweep": [
        _sim("onchip_mbps_256k", "MB/s", "higher"),
        _sim("xdev_vdma_mbps_256k", "MB/s", "higher"),
        _sim("xdev_cached_mbps_256k", "MB/s", "higher"),
        _sim("xdev_small_us", "us", "lower"),
        _sim("onchip_peak_mbps", "MB/s", "higher"),
        _sim("rcce_vs_ircce_gain", "ratio", "higher"),
        _sim("best_vs_onchip", "ratio", "higher"),
        _sim("cached_vs_limit", "ratio", "higher"),
        _sim("vdma_vs_limit", "ratio", "higher"),
    ],
    "coll_fabric": [
        _sim("allreduce_us", "us", "lower"),
        _sim("allreduce_flat_us", "us", "lower"),
    ],
    "rpc_open_loop": [
        _sim("rpc_p99_us", "us", "lower"),
        _sim("rpc_capacity_krps", "krps", "higher"),
    ],
    "serve_fleet": [
        Metric("serve_jobs_per_s", "1/s", "higher"),
        Metric("serve_p50_ms", "ms", "lower"),
        Metric("serve_p99_ms", "ms", "lower"),
        Metric("serve_gen_late_ms_max", "ms", "lower"),
    ],
}


def detail(workload: str) -> list[Metric]:
    return [*GENERIC, *DETAIL[workload]]
