#!/usr/bin/env python
"""Fingerprint gate: every simulated result must replay bit for bit.

The scenarios of ``repro.scenarios.SCENARIOS`` (the paper's figure
workloads, the RCCE flag and chunked-send paths, the fault, service and
RPC scenarios) each return a *fingerprint* of their simulated results,
pinned in ``FINGERPRINTS.json`` at the repo root. The pin runner
(``tools/pins.py``) replays each one fused and unfused (DESIGN.md §12).

Host time is not measured here: ``BENCHMARK.json`` and
``benchmarks/e2e/run.py`` are the only host-time bounds.

Usage::

    python tools/fingerprint_gate.py                            # gate all
    python tools/fingerprint_gate.py --scenario fabric_multihost  # a subset
    python tools/fingerprint_gate.py --update                   # re-pin all
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
# Runs from a plain checkout.
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]

from repro.scenarios import SCENARIOS  # noqa: E402
from tools import pins  # noqa: E402

#: The pinned fingerprints, one object per scenario.
FINGERPRINTS = REPO_ROOT / "FINGERPRINTS.json"


def main(argv: list[str] | None = None) -> int:
    return pins.main(FINGERPRINTS, SCENARIOS, argv, select="scenario")


if __name__ == "__main__":
    raise SystemExit(main())
