"""Shared helpers for the figure-regeneration benchmark suite.

Every benchmark prints the series/rows the paper reports (visible with
``pytest benchmarks/ --benchmark-only -s``) and records the simulated
metrics in ``benchmark.extra_info`` so they land in the benchmark JSON.
Passing ``system=`` to :func:`record` additionally writes the system's
full metrics snapshot to ``benchmarks/out/<name>.metrics.json`` (the
layout of ``schemas/run_metrics.schema.json``).
"""

from __future__ import annotations

import os
import re
from pathlib import Path

import pytest

from repro.bench.runner import write_run_metrics


@pytest.fixture(autouse=True)
def restore_repro_env():
    """Restore ``REPRO_*`` env vars after every benchmark, pass or fail.

    Bench scenarios may pin delay fusion for a measurement; a scenario
    that raises mid-run would otherwise leak ``REPRO_FUSE`` into every
    later collection item.
    """
    saved = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    try:
        yield
    finally:
        for key in [k for k in os.environ if k.startswith("REPRO_")]:
            if key not in saved:
                del os.environ[key]
        os.environ.update(saved)

#: Per-run metrics JSON lands here (git-ignored output directory).
OUT_DIR = Path(__file__).parent / "out"


def record(benchmark, system=None, **extra) -> None:
    """Attach simulated results to the pytest-benchmark record.

    ``system`` (a :class:`repro.vscc.VSCCSystem` or anything with a
    ``metrics`` mapping) triggers the per-run metrics JSON export.
    """
    for key, value in extra.items():
        benchmark.extra_info[key] = value
    if system is not None:
        name = getattr(benchmark, "name", None) or "benchmark"
        safe = re.sub(r"[^A-Za-z0-9._-]+", "_", name)
        run_info = {
            k: v
            for k, v in extra.items()
            if isinstance(v, (bool, int, float, str))
        }
        path = write_run_metrics(
            OUT_DIR / f"{safe}.metrics.json",
            system.metrics,
            name=name,
            run_info=run_info,
        )
        benchmark.extra_info["metrics_json"] = str(path)


@pytest.fixture
def once(benchmark):
    """Run the harness exactly once (simulations are deterministic —
    repeated rounds would only re-measure Python overhead)."""

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
