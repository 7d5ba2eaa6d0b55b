"""Service-level throughput bench: mixed tenants, open-loop arrivals.

Drives :mod:`repro.serve` the way a real multi-tenant deployment would:
a seeded fleet of jobs (spin burners, ping-pongs, small allreduces)
across several tenants with mixed priorities, submitted either as one
burst or as an open-loop Poisson arrival process, then drained through
the service's scheduler and worker pool. Reported:

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
scenario on the fingerprint alone: any drift is a correctness failure.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve_throughput.py
    PYTHONPATH=src python benchmarks/bench_serve_throughput.py \
        --jobs 200 --workers 4 --pool process --mode poisson --rate 400
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import random
import time
from pathlib import Path

#: Tenants of the mixed fleet; ``acme`` carries double fair-share weight
#: so the bench also exercises the weighted path of the scheduler.
TENANTS = ("acme", "globex", "initech")
TENANT_WEIGHTS = {"acme": 2.0}

#: Workload mix (name, params, num_devices, scheme) with draw weights.
#: Spin dominates — it is the scheduler-shaped load — with enough
#: communication jobs mixed in to keep transports and collectives on
#: the hot path.
_MIX = (
    (6, ("spin", {"steps": 2_000, "step_ns": 10.0}, 1, None)),
    (2, ("spin", {"steps": 8_000, "step_ns": 10.0}, 1, None)),
    (2, ("pingpong", {"sizes": (256, 2048), "iterations": 1}, 2, "vdma")),
    (1, ("allreduce", {"nranks": 4, "length": 16}, 1, None)),
)


def build_specs(jobs: int, seed: int) -> list:
    """The seeded fleet: deterministic specs, tenants and priorities."""
    from repro.serve import JobSpec

    rng = random.Random(seed)
    weighted = [entry for weight, entry in _MIX for _ in range(weight)]
    specs = []
    for index in range(jobs):
        workload, params, num_devices, scheme = rng.choice(weighted)
        specs.append(
            JobSpec(
                workload=workload,
                params=dict(params),
                tenant=TENANTS[index % len(TENANTS)],
                priority=rng.randint(0, 3),
                num_devices=num_devices,
                scheme=scheme,
                seed=seed + index,
            )
        )
    return specs


async def _drive(specs, workers: int, pool: str, mode: str, rate_hz: float,
                 seed: int) -> dict:
    """Submit the fleet, drain it, measure. Returns the raw run record."""
    from repro.serve import SimService

    rng = random.Random(seed)
    async with SimService(workers=workers, pool=pool,
                          weights=TENANT_WEIGHTS) as service:
        t0 = time.perf_counter()
        peak_queued = 0
        handles = []
        for spec in specs:
            if mode == "poisson":
                await asyncio.sleep(rng.expovariate(rate_hz))
            handles.append(await service.submit(spec))
            peak_queued = max(peak_queued, len(service.core.scheduler))
        submitted_s = time.perf_counter() - t0
        results = await service.join(timeout=600)
        wall_s = time.perf_counter() - t0
        return {
            "results": results,
            "wall_s": wall_s,
            "submitted_s": submitted_s,
            "peak_queued": peak_queued,
            "latency": service.latency_summary(),
        }


def run_fleet(jobs: int = 132, workers: int = 2, pool: str = "inline",
              mode: str = "burst", rate_hz: float = 500.0,
              seed: int = 2026) -> dict:
    specs = build_specs(jobs, seed)
    return asyncio.run(_drive(specs, workers, pool, mode, rate_hz, seed))


def outcome_fingerprint(results) -> dict:
    """Digest + aggregates over the deterministic part of the outcomes.

    Only simulated results enter: wall latencies, queue waits and
    attempt counts are scheduling artifacts and must not fail a gate.
    """
    rows = sorted(
        (r.job_id, r.state, r.sim_now_ns or 0.0, r.events or 0.0)
        for r in results
    )
    digest = hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode()
    ).hexdigest()[:16]
    return {
        "jobs": float(len(rows)),
        "completed": float(sum(1 for r in results if r.state == "completed")),
        "sim_now_sum_ns": sum(row[2] for row in rows),
        "events_sum": sum(row[3] for row in rows),
        "outcome_digest": digest,
    }


# -- the gated scenario --------------------------------------------------------


def serve_mixed_tenants() -> dict:
    """Burst 132 mixed-tenant jobs through the service; fingerprint them.

    Registered in and gated by ``tools/fingerprint_gate.py``: the
    fingerprint is the outcome digest of the whole fleet (scheduler +
    pool + per-job system builds). The in-scenario assertions *are*
    the service-level acceptance bar — a backlog of >= 100 concurrently
    queued jobs across >= 3 tenants, every job terminal.
    """
    record = run_fleet(jobs=132, workers=2, pool="inline", mode="burst")
    results = record["results"]
    assert record["peak_queued"] >= 100, (
        f"backlog never reached 100 queued jobs "
        f"(peak {record['peak_queued']}); the bench is not exercising "
        f"a saturated service"
    )
    tenants = {r.tenant for r in results}
    assert len(tenants) >= 3, f"expected >= 3 tenants, saw {sorted(tenants)}"
    fingerprint = outcome_fingerprint(results)
    assert fingerprint["completed"] == fingerprint["jobs"], (
        f"fleet did not fully complete: {fingerprint}"
    )
    return fingerprint


# -- CLI -----------------------------------------------------------------------


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
