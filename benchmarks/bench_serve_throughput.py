"""Service-level throughput bench: mixed tenants, open-loop arrivals.

Drives :mod:`repro.serve` the way a real multi-tenant deployment would:
a seeded fleet of jobs (spin burners, ping-pongs, small allreduces)
across several tenants with mixed priorities, submitted either as one
burst or as an open-loop Poisson arrival process, then drained through
the service's scheduler and worker pool (:func:`repro.scenarios.run_fleet`).
Reported:

* **jobs/sec** — submissions to terminal states over the drain wall;
* **peak queued** — the deepest the cross-tenant backlog got (the
  acceptance bar is >= 100 concurrently queued jobs over >= 3 tenants);
* **per-tenant latency** — p50/p95/p99 of submit-to-terminal wall
  milliseconds from ``service.latency_summary()``.

Every run also produces a **job-outcome fingerprint**: a digest over the
sorted ``(job_id, state, sim_now_ns, events)`` tuples of all terminal
results. Wall-clock measurements are excluded on purpose — the
fingerprint captures *what* every job computed, which is deterministic
under the service's contract (same specs, any scheduling order, any
worker, any retry count), while jobs/sec and latency move with the host.
``tools/fingerprint_gate.py`` gates the ``serve_mixed_tenants``
scenario of :mod:`repro.scenarios` on the fingerprint alone: any drift
is a correctness failure.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve_throughput.py
    PYTHONPATH=src python benchmarks/bench_serve_throughput.py \
        --jobs 200 --workers 4 --pool process --mode poisson --rate 400
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.scenarios import outcome_fingerprint, run_fleet


def _print_report(record: dict, fingerprint: dict) -> None:
    results = record["results"]
    wall = record["wall_s"]
    print(
        f"jobs={len(results)} wall={wall:.3f}s "
        f"({len(results) / wall:.1f} jobs/s) "
        f"submit_window={record['submitted_s']:.3f}s "
        f"peak_queued={record['peak_queued']}"
    )
    print(f"outcome_digest={fingerprint['outcome_digest']} "
          f"completed={int(fingerprint['completed'])}/{int(fingerprint['jobs'])}")
    print(f"{'tenant':10s} {'count':>6s} {'p50_ms':>9s} {'p95_ms':>9s} {'p99_ms':>9s}")
    for tenant, stats in sorted(record["latency"].items()):
        print(
            f"{tenant:10s} {int(stats['count']):6d} "
            f"{stats['p50']:9.1f} {stats['p95']:9.1f} {stats['p99']:9.1f}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--jobs", type=int, default=132)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--pool", choices=("inline", "process"), default="inline")
    parser.add_argument(
        "--mode",
        choices=("burst", "poisson"),
        default="burst",
        help="burst: submit everything at once; poisson: open-loop "
        "arrivals at --rate jobs/sec (seeded, so the arrival schedule "
        "is reproducible even though wall timings are not)",
    )
    parser.add_argument("--rate", type=float, default=500.0,
                        help="poisson arrival rate, jobs/sec")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--out", type=Path, help="write the report as JSON")
    args = parser.parse_args(argv)

    record = run_fleet(jobs=args.jobs, workers=args.workers, pool=args.pool,
                       mode=args.mode, rate_hz=args.rate, seed=args.seed)
    fingerprint = outcome_fingerprint(record["results"])
    _print_report(record, fingerprint)

    if args.out is not None:
        doc = {
            "jobs_per_s": round(len(record["results"]) / record["wall_s"], 2),
            "wall_s": round(record["wall_s"], 4),
            "peak_queued": record["peak_queued"],
            "latency_ms": record["latency"],
            **fingerprint,
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
