#!/usr/bin/env python
"""Fingerprint gate: every simulated result must replay bit for bit.

The scenarios live in ``repro.scenarios.SCENARIOS``: the paper's figure
workloads, the kernel-primitive micro-benchmarks, the fault, service
and RPC scenarios. Each returns a *fingerprint* of its simulated
results. The gate runs every selected scenario twice, in this process;
the two runs must agree with each other and with the value pinned in
``FINGERPRINTS.json`` at the repo root. Any difference is a correctness
failure and is reported per field as ``scenario.field``. A pinned
fingerprint whose scenario no longer exists fails the gate too.

When ``fig7_bt`` is selected the gate also runs it once with delay
fusion and once without: the two must agree on every field except
``events`` (fusion collapses wake-ups, so only the event count may
shrink; DESIGN.md §12).

Host time is not measured here: ``BENCHMARK.json`` and
``benchmarks/e2e/run.py`` are the only host-time bounds.

Usage::

    python tools/fingerprint_gate.py                            # gate all
    python tools/fingerprint_gate.py --scenario fabric_multihost  # a subset
    python tools/fingerprint_gate.py --update                   # re-pin all
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
# Runs from a plain checkout.
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.scenarios import SCENARIOS  # noqa: E402

#: The pinned fingerprints, one object per scenario.
FINGERPRINTS = REPO_ROOT / "FINGERPRINTS.json"


#: The scenario run fused and unfused by the paired fusion check.
FUSION_SCENARIO = "fig7_bt"

#: Fingerprint fields allowed to differ between fused and unfused runs:
#: fusing collapses consecutive wake-ups into one, so the event count
#: legitimately shrinks. Everything else must be bit-identical.
_FUSE_VARIANT_KEYS = {"events"}


# -- the gate ------------------------------------------------------------------


def fingerprint_drift(base_fp: dict, fresh_fp: dict) -> list[str]:
    """Per-field drift report between two fingerprints (empty = equal).

    Names every field that changed value, vanished, or newly appeared,
    so a failing gate says *which* simulated result moved instead of
    dumping two whole dicts to eyeball.
    """
    drifts: list[str] = []
    for key in sorted(set(base_fp) | set(fresh_fp)):
        if key not in fresh_fp:
            drifts.append(f"{key}: missing from fresh run (baseline {base_fp[key]!r})")
        elif key not in base_fp:
            drifts.append(f"{key}: new field not in baseline (fresh {fresh_fp[key]!r})")
        elif base_fp[key] != fresh_fp[key]:
            drifts.append(f"{key}: {base_fp[key]!r} -> {fresh_fp[key]!r}")
    return drifts


def _report(name: str, what: str, drifts: list[str]) -> list[str]:
    return [f"{name}: {what}:"] + [f"    {name}.{drift}" for drift in drifts]


def run_scenarios(
    names: list[str], golden: dict | None, scenarios: dict = SCENARIOS
) -> tuple[dict, list[str]]:
    """Run each scenario twice; returns (fingerprints, failures).

    The second run must match the first (else the simulation is
    nondeterministic) and, unless ``golden`` is ``None``, the first
    must match ``golden[name]``.
    """
    fresh: dict[str, dict] = {}
    failures: list[str] = []
    for name in names:
        first = scenarios[name]()
        drifts = fingerprint_drift(first, scenarios[name]())
        if drifts:
            status = "NONDETERMINISTIC"
            failures += _report(name, "nondeterministic (first -> second run)", drifts)
        elif golden is None:
            status = "ok"
        elif name not in golden:
            status = "UNPINNED"
            failures.append(f"{name}: no pinned fingerprint (run --update)")
        else:
            drifts = fingerprint_drift(golden[name], first)
            status = "DRIFT" if drifts else "ok"
            if drifts:
                failures += _report(name, "fingerprint drifted (pinned -> fresh)", drifts)
        print(f"{name:26s} {status}")
        fresh[name] = first
    return fresh, failures


def fusion_drift(unfused: dict, fused: dict) -> list[str]:
    """Drift between an unfused and a fused fingerprint, ``events`` aside."""
    return fingerprint_drift(
        {k: v for k, v in unfused.items() if k not in _FUSE_VARIANT_KEYS},
        {k: v for k, v in fused.items() if k not in _FUSE_VARIANT_KEYS},
    )


def check_fusion() -> list[str]:
    """Paired fused-vs-unfused run of :data:`FUSION_SCENARIO`."""
    scenario = SCENARIOS[FUSION_SCENARIO]
    unfused = scenario(fuse_delays=False)
    fused = scenario(fuse_delays=True)
    drifts = fusion_drift(unfused, fused)
    if drifts:
        print(f"{FUSION_SCENARIO} fused vs unfused: MISMATCH")
        return _report(
            FUSION_SCENARIO, "fused run diverges from unfused (unfused -> fused)", drifts
        )
    print(
        f"{FUSION_SCENARIO} fused vs unfused: bit-identical "
        f"(events {unfused['events']} unfused -> {fused['events']} fused)"
    )
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--scenario",
        action="append",
        choices=sorted(SCENARIOS),
        metavar="NAME",
        help="gate only this scenario (repeatable; default: all)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help=f"rerun every scenario and rewrite {FINGERPRINTS.name}",
    )
    args = parser.parse_args(argv)
    if args.update and args.scenario:
        parser.error("--update reruns every scenario; drop --scenario")

    names = args.scenario or sorted(SCENARIOS)
    golden = None if args.update else json.loads(FINGERPRINTS.read_text())
    fresh, failures = run_scenarios(names, golden)
    if golden is not None:
        failures += [
            f"{name}: pinned in {FINGERPRINTS.name} but no such scenario"
            for name in sorted(set(golden) - set(SCENARIOS))
        ]
    if FUSION_SCENARIO in names:
        failures += check_fusion()

    if failures:
        print("\nfingerprint gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    if args.update:
        FINGERPRINTS.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
        print(f"\nwrote {FINGERPRINTS.name}")
    else:
        print("\nfingerprint gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
