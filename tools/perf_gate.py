#!/usr/bin/env python
"""Performance gate: compare a fresh bench run against the checked-in baseline.

Runs ``benchmarks/bench_wallclock.py`` (or accepts a pre-measured run via
``--fresh``) and compares every scenario against ``BENCH_wallclock.json``
at the repo root:

* **fingerprints** (``sim_now_ns``, ``events``, traffic totals, …) must
  match the baseline exactly — a mismatch means the simulation produces
  different *results*, which is a correctness failure, never acceptable;
* **wall_s** may not exceed the baseline by more than the baseline's
  ``tolerance`` (15 % by default; a per-scenario ``tolerance_overrides``
  map in the baseline widens individual scenarios that sit close to
  their anchor) — a wall-clock regression.

``--check-fusion`` additionally runs the paired delay-fusion check: the
fig7_bt scenario is measured twice, with delay fusion enabled
(``REPRO_FUSE=1``) and disabled (``REPRO_FUSE=0``), and their simulated
fingerprints must agree on every field except ``events`` (fusing
collapses wake-ups, so the event count legitimately shrinks; simulated
time and all semantic results may not move by one ulp). This is the
soundness proof-by-measurement for the fused fast path (DESIGN.md §12).

Failures come in two classes: *fingerprint* failures (correctness —
always block unless ``--advisory``) and *wall-clock* failures (noise-
prone — additionally soft under ``--wall-advisory``, the CI smoke mode
for shared runners).

Usage::

    PYTHONPATH=src python tools/perf_gate.py                  # measure + gate
    PYTHONPATH=src python tools/perf_gate.py --advisory       # report only
    PYTHONPATH=src python tools/perf_gate.py --fresh run.json # gate a prior run
    PYTHONPATH=src python tools/perf_gate.py --fusion-only    # paired check only
    PYTHONPATH=src python tools/perf_gate.py \
        --scenario serve_mixed_tenants                        # gate a subset
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "BENCH_wallclock.json"

#: Keys that are measurements, not simulated-result fingerprints.
_NON_FINGERPRINT_KEYS = {"wall_s"}

#: Scenarios measured by the paired fused-vs-unfused check.
_FUSION_SCENARIOS = ("fig7_bt",)

#: Fingerprint fields allowed to differ between fused and unfused runs:
#: fusing collapses consecutive wake-ups into one, so the event count
#: legitimately shrinks. Everything else must be bit-identical.
_FUSE_VARIANT_KEYS = {"events"}


def fingerprint_of(entry: dict) -> dict:
    return {k: v for k, v in entry.items() if k not in _NON_FINGERPRINT_KEYS}


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


def measure(
    repeat: int,
    scenarios: list[str] | None = None,
    env_overrides: dict[str, str] | None = None,
) -> dict:
    """Run the wall-clock harness in a subprocess, return its document."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out_path = Path(tmp.name)
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    if env_overrides:
        env.update(env_overrides)
    cmd = [
        sys.executable,
        str(REPO_ROOT / "benchmarks" / "bench_wallclock.py"),
        "--repeat",
        str(repeat),
        "--out",
        str(out_path),
    ]
    for name in scenarios or ():
        cmd += ["--scenario", name]
    try:
        subprocess.run(cmd, check=True, env=env, cwd=REPO_ROOT)
        return json.loads(out_path.read_text())
    finally:
        out_path.unlink(missing_ok=True)


def check_fusion(repeat: int = 1) -> list[str]:
    """Paired fused-vs-unfused run; returns fingerprint-class failures.

    Measures ``_FUSION_SCENARIOS`` under ``REPRO_FUSE=1`` and
    ``REPRO_FUSE=0`` and demands bit-identical fingerprints modulo the
    event count. Any drift means a fused fast path changed *what* the
    simulation computes, not just how fast — a correctness failure.
    """
    print("paired delay-fusion check (REPRO_FUSE=1 vs REPRO_FUSE=0):")
    names = list(_FUSION_SCENARIOS)
    fused = measure(repeat, names, {"REPRO_FUSE": "1"})
    unfused = measure(repeat, names, {"REPRO_FUSE": "0"})
    failures: list[str] = []
    for name in names:
        fused_entry = fused.get("scenarios", {}).get(name)
        unfused_entry = unfused.get("scenarios", {}).get(name)
        if fused_entry is None or unfused_entry is None:
            failures.append(f"fusion-check {name}: scenario missing from a run")
            continue
        fused_fp = {
            k: v
            for k, v in fingerprint_of(fused_entry).items()
            if k not in _FUSE_VARIANT_KEYS
        }
        unfused_fp = {
            k: v
            for k, v in fingerprint_of(unfused_entry).items()
            if k not in _FUSE_VARIANT_KEYS
        }
        drifts = fingerprint_drift(unfused_fp, fused_fp)
        if drifts:
            failures.append(
                f"fusion-check {name}: fused run diverges from unfused "
                f"(unfused -> fused):"
            )
            failures.extend(f"    {name}.{drift}" for drift in drifts)
            print(f"  {name}: FUSED/UNFUSED MISMATCH")
        else:
            fused_events = fused_entry.get("events")
            unfused_events = unfused_entry.get("events")
            print(
                f"  {name}: bit-identical "
                f"(events {unfused_events} unfused -> {fused_events} fused)"
            )
    return failures


def gate(baseline: dict, fresh: dict) -> tuple[list[str], list[str]]:
    """Compare fresh vs baseline; returns (fingerprint, wall) failures."""
    failures: list[str] = []
    wall_failures: list[str] = []
    tolerance = baseline.get("tolerance", 0.15)
    overrides = baseline.get("tolerance_overrides", {})
    base_scenarios = baseline.get("scenarios", {})
    fresh_scenarios = fresh.get("scenarios", {})

    print(f"{'scenario':26s} {'base_s':>9s} {'fresh_s':>9s} {'ratio':>7s}  status")
    for name, base in sorted(base_scenarios.items()):
        entry = fresh_scenarios.get(name)
        if entry is None:
            failures.append(f"{name}: missing from the fresh run")
            print(f"{name:26s} {'-':>9s} {'-':>9s} {'-':>7s}  MISSING")
            continue
        base_fp = fingerprint_of(base)
        fresh_fp = fingerprint_of(entry)
        if "wall_s" not in base or "wall_s" not in entry:
            which = "baseline" if "wall_s" not in base else "fresh run"
            failures.append(f"{name}: malformed entry — no 'wall_s' in the {which}")
            print(f"{name:26s} {'-':>9s} {'-':>9s} {'-':>7s}  MALFORMED")
            continue
        base_wall = base["wall_s"]
        wall = entry["wall_s"]
        ratio = wall / base_wall
        limit = overrides.get(name, tolerance)
        status = "ok" if limit == tolerance else f"ok (tol {limit:.2f})"
        drifts = fingerprint_drift(base_fp, fresh_fp)
        if drifts:
            status = "FINGERPRINT"
            failures.append(
                f"{name}: simulated-result fingerprint drifted "
                f"({len(drifts)} field{'s' if len(drifts) != 1 else ''}):"
            )
            failures.extend(f"    {name}.{drift}" for drift in drifts)
        elif ratio > 1.0 + limit:
            status = "SLOW"
            wall_failures.append(
                f"{name}: wall-clock regression {ratio:.2f}x "
                f"(limit {1.0 + limit:.2f}x: {wall:.4f}s vs {base_wall:.4f}s)"
            )
        print(f"{name:26s} {base_wall:9.4f} {wall:9.4f} {ratio:7.2f}  {status}")

    for name in sorted(set(fresh_scenarios) - set(base_scenarios)):
        print(f"{name:26s} {'-':>9s} {'-':>9s} {'-':>7s}  new (no baseline)")
    return failures, wall_failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--baseline", type=Path, default=BASELINE, help="baseline JSON to gate against"
    )
    parser.add_argument(
        "--fresh",
        type=Path,
        help="gate this pre-measured run instead of running the harness",
    )
    parser.add_argument("--repeat", type=int, default=3, help="best-of-N timing")
    parser.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help="gate only these scenarios: the harness measures just them "
        "and the baseline is filtered to match, so a subset run (e.g. "
        "the CI serve smoke) never fails on scenarios it did not "
        "measure (repeatable)",
    )
    parser.add_argument(
        "--advisory",
        action="store_true",
        help="report failures but always exit 0 (CI smoke mode)",
    )
    parser.add_argument(
        "--wall-advisory",
        action="store_true",
        help="wall-clock regressions report but never block; fingerprint "
        "drift still fails (for noisy shared runners)",
    )
    parser.add_argument(
        "--check-fusion",
        action="store_true",
        help="also run the paired fused-vs-unfused fingerprint check "
        "(REPRO_FUSE=1 vs =0 on the fig7_bt scenario)",
    )
    parser.add_argument(
        "--fusion-only",
        action="store_true",
        help="run only the paired fusion check, skip the baseline gate",
    )
    args = parser.parse_args(argv)

    fingerprint_failures: list[str] = []
    wall_failures: list[str] = []

    if args.fusion_only:
        fingerprint_failures += check_fusion(max(1, min(args.repeat, 2)))
    else:
        if not args.baseline.exists():
            print(f"perf_gate: no baseline at {args.baseline}; nothing to gate")
            return 0
        baseline = json.loads(args.baseline.read_text())
        if args.fresh is not None:
            fresh = json.loads(args.fresh.read_text())
        else:
            fresh = measure(args.repeat, args.scenario)
        if args.scenario:
            selected = set(args.scenario)
            missing = selected - set(baseline.get("scenarios", {}))
            for name in sorted(missing):
                print(f"perf_gate: note — {name!r} has no baseline entry yet")
            for doc in (baseline, fresh):
                doc["scenarios"] = {
                    name: entry
                    for name, entry in doc.get("scenarios", {}).items()
                    if name in selected
                }
        fingerprint_failures, wall_failures = gate(baseline, fresh)
        if args.check_fusion:
            fingerprint_failures += check_fusion(max(1, min(args.repeat, 2)))

    failures = fingerprint_failures + wall_failures
    if failures:
        print("\nperf gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        if args.advisory:
            print("(advisory mode: exit 0)")
            return 0
        if args.wall_advisory and not fingerprint_failures:
            print("(wall-advisory mode: wall-clock only, exit 0)")
            return 0
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
