#!/usr/bin/env python
"""§4's operational reality: silent core failures at boot.

"Regarding an installation that consists of multiple SCC devices, the
probability for a core failure increases. For our installation, the
situation occurs frequently that not all 240 cores are available at
startup. … We have extended the startup script of RCCE thereby that it
creates a new configuration file with all available cores before
application run."

This example boots a five-device vSCC with injected silent failures,
shows the regenerated core configuration, and runs NPB BT on the largest
square rank count that survived — the exact §4 workflow.

Run:  python examples/core_failures.py
"""

import math

from repro import CommScheme, VSCCSystem
from repro.apps.npb import BTBenchmark


def main() -> None:
    system = VSCCSystem(
        num_devices=5,
        scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA,
        failure_prob=0.03,
        seed=2015,
    )
    total = len(system.devices) * system.params.num_cores
    lost = total - system.num_ranks
    print(f"booted {len(system.devices)} devices: "
          f"{system.num_ranks}/{total} cores came up "
          f"({lost} silent failures)")
    print("\nregenerated core configuration (RCCE startup-script workaround):")
    for dev, cores in enumerate(system.config.cores_per_device):
        failed = sorted(set(range(system.params.num_cores)) - set(cores))
        print(f"  device {dev}: {len(cores)} cores, failed: {failed or 'none'}")
    print()

    usable = math.isqrt(system.num_ranks) ** 2
    print(f"BT needs a square process count: running on {usable} of "
          f"{system.num_ranks} available ranks")
    # class A (64^3) so the grid accommodates up to 15 slabs per axis
    bench = BTBenchmark(clazz="A", nranks=usable, niter=1, mode="model")
    system.run(bench.program, ranks=range(usable))
    result = bench.result()
    print(f"BT class A, {usable} ranks: {result.gflops_per_s:.2f} GFLOP/s "
          f"({result.elapsed_s * 1000:.1f} simulated ms)")
    print("\nA silent core failure does not impact stability — the rank "
          "space just shrinks, exactly as §4 describes.")


if __name__ == "__main__":
    main()
