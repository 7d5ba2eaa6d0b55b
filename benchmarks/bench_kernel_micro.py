"""Host cost per operation of the kernel-primitive micro-benchmarks.

The ``micro_*`` scenarios of :data:`repro.scenarios.SCENARIOS` each
exercise one hot primitive of the simulator in isolation — process/Delay
churn, zero-delay wake-ups, MPB watchpoint pulsing, XY router accounting,
the flag and chunked-send paths — at a fixed operation count.
``tools/fingerprint_gate.py`` pins their simulated results; this script
prints what each costs on the host::

    PYTHONPATH=src python benchmarks/bench_kernel_micro.py
"""

from __future__ import annotations

import time

from repro.scenarios import SCENARIOS


def _main() -> None:
    for name, fn in SCENARIOS.items():
        if not name.startswith("micro_"):
            continue
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        per_op = wall / result["ops"] * 1e9
        print(f"{name:24s} {wall:8.3f} s  {per_op:9.1f} ns/op")


if __name__ == "__main__":
    _main()
