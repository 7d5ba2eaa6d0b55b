"""RPC-offload bench: open-loop throughput/latency per scheme+policy.

The "heavy traffic" bench the ROADMAP names: open-loop arrival
processes (Poisson and bursty on/off, heavy-tail sizes) drive the
host-side RPC dispatcher under several scheme/policy configurations,
and each (config, arrival process) pair sweeps the offered load to
produce a throughput vs p50/p99 latency curve.

What the curves show:

* under **bursty** arrivals the backlog inside a burst gives request
  coalescing its material — vDMA-capable configs merge adjacent small
  requests into shared descriptors and amortize the engine setup;
* a **static non-vDMA** scheme (cached-get) never coalesces — it is
  the no-batching baseline the dispatcher is measured against;
* the **threshold/adaptive** policies pick per-request, journaled
  through ``policy.decisions{scheme=}``.

The trace is :data:`repro.scenarios.RPC_TRACE` at its load and arrival
process; its gated fingerprint is the ``rpc_open_loop`` scenario,
checked by ``tools/fingerprint_gate.py --scenario rpc_open_loop`` and
printed by running this file as a script.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from conftest import record  # noqa: E402

from repro.bench import format_table  # noqa: E402
from repro.scenarios import RPC_TRACE, rpc_open_loop, rpc_report  # noqa: E402
from repro.vscc.policy import (  # noqa: E402
    AdaptivePolicy,
    StaticPolicy,
    ThresholdPolicy,
)
from repro.vscc.schemes import CommScheme  # noqa: E402
from repro.vscc.system import VSCCSystem  # noqa: E402

#: Scheme/policy configurations under test (>= 3 per the acceptance
#: criterion; the static non-vDMA config is the no-coalescing baseline).
CONFIGS = (
    ("static-vdma", lambda: StaticPolicy(CommScheme.LOCAL_PUT_LOCAL_GET_VDMA)),
    ("static-cachedget", lambda: StaticPolicy(CommScheme.LOCAL_PUT_REMOTE_GET)),
    ("threshold", ThresholdPolicy),
    ("adaptive", AdaptivePolicy),
)

#: Offered-load sweep: arrival-gap multipliers from saturating to easy.
LOAD_FACTORS = (0.5, 1.0, 3.0)

#: Trace parameters per arrival process and offered-load factor.
ARRIVALS = {
    "poisson": lambda f: {
        **RPC_TRACE, "arrivals": "poisson", "mean_gap_ns": 4000.0 * f,
    },
    "bursty": lambda f: {
        **RPC_TRACE,
        "on_gap_ns": RPC_TRACE["on_gap_ns"] * f,
        "off_gap_ns": RPC_TRACE["off_gap_ns"] * f,
    },
}


def run_point(policy_factory, arrival: str, factor: float):
    system = VSCCSystem(num_devices=2, policy=policy_factory(), seed=7)
    report = rpc_report(system, ARRIVALS[arrival](factor))
    d = report.dispatcher
    # Every call completed, so the completions carry every issue time.
    last_issue_ns = max(c.issue_ns for c in report.completions)
    offered_rps = report.offered / (last_issue_ns * 1e-9)
    return {
        "offered_rps": offered_rps,
        "throughput_rps": report.throughput_rps,
        "p50_us": report.latency_percentile(50) / 1000.0,
        "p99_us": report.latency_percentile(99) / 1000.0,
        "descriptors": d.descriptors,
        "coalesced": d.coalesced,
        "cache_hits": d.cache.hits,
        "digest": report.digest,
        "system": system,
    }


def sweep():
    """The full curve set: config × arrival process × offered load."""
    curves = {}
    for label, factory in CONFIGS:
        for arrival in ARRIVALS:
            curves[(label, arrival)] = [
                run_point(factory, arrival, f) for f in LOAD_FACTORS
            ]
    return curves


def test_rpc_open_loop_curves(benchmark, once):
    curves = once(sweep)
    rows = []
    for (label, arrival), points in sorted(curves.items()):
        for factor, p in zip(LOAD_FACTORS, points):
            rows.append(
                (
                    f"{label}/{arrival}",
                    factor,
                    round(p["throughput_rps"] / 1000.0, 1),
                    round(p["p50_us"], 1),
                    round(p["p99_us"], 1),
                    p["coalesced"],
                )
            )
    print()
    print(
        format_table(
            ["config/arrivals", "load x", "kreq/s", "p50 us", "p99 us", "coalesced"],
            rows,
        )
    )
    sample = curves[("threshold", "bursty")][1]
    record(
        benchmark,
        system=sample["system"],
        curves={
            f"{label}/{arrival}": [
                {k: v for k, v in p.items() if k != "system"}
                for p in points
            ]
            for (label, arrival), points in curves.items()
        },
    )

    # Every config produced a full curve under both arrival processes.
    assert len(curves) == len(CONFIGS) * len(ARRIVALS)
    for points in curves.values():
        assert len(points) == len(LOAD_FACTORS)
    # Same request population, same exactly-once outcome — the digest is
    # content-only, so every config and load factor agrees per arrival
    # process.
    for arrival in ARRIVALS:
        digests = {
            curves[(label, arrival)][i]["digest"]
            for label, _ in CONFIGS
            for i in range(len(LOAD_FACTORS))
        }
        assert len(digests) == 1, digests
    # Latency is monotone in load direction: the easy point is never
    # slower than the saturating point (p50).
    for points in curves.values():
        assert points[-1]["p50_us"] <= points[0]["p50_us"] * 1.05
    # Coalescing finds material under bursty arrivals for vDMA-capable
    # configs — and none on the non-vDMA static baseline.
    assert curves[("static-vdma", "bursty")][0]["coalesced"] > 0
    assert curves[("static-cachedget", "bursty")][0]["coalesced"] == 0
    bursty_coal = sum(p["coalesced"] for p in curves[("static-vdma", "bursty")])
    poisson_coal = sum(p["coalesced"] for p in curves[("static-vdma", "poisson")])
    assert bursty_coal > poisson_coal


if __name__ == "__main__":
    for key, value in sorted(rpc_open_loop().items()):
        print(f"{key}: {value}")
