"""Ablation — core frequency (the paper's footnote 4 configuration).

All measurements run at (core/mesh/memory) = (533/800/800) MHz. This
ablation builds the chip at a lower core clock (``SCCParams``'s
``core_freq_mhz``; the mesh stays at 800 MHz) and shows that on-chip
communication throughput scales with the *core* clock — the P54C's
copy loops, not the mesh, bound RCCE's on-chip performance, which is
why the paper reports core frequency prominently.
"""

from repro.apps.pingpong import run_pingpong
from repro.bench import format_table
from repro.rcce.session import RcceSession
from repro.scc.params import SCCParams

from conftest import record

FREQUENCIES_MHZ = (533.0, 400.0, 200.0)
SIZE = 65536


def _throughput(core_freq_mhz: float) -> float:
    session = RcceSession(params=SCCParams(core_freq_mhz=core_freq_mhz))
    [point] = run_pingpong(session, 0, 10, sizes=[SIZE], iterations=3)
    return point.throughput_mbps


def test_frequency_scaling(benchmark, once):
    def run():
        return {f: _throughput(f) for f in FREQUENCIES_MHZ}

    results = once(run)
    base = results[533.0]
    print()
    print(
        format_table(
            ["core MHz", "throughput MB/s", "vs 533 MHz"],
            [(f, results[f], results[f] / base) for f in FREQUENCIES_MHZ],
        )
    )
    record(benchmark, throughput_by_mhz={f: round(v, 1) for f, v in results.items()})
    # Communication is core-clock bound: halving the clock roughly
    # halves the throughput.
    assert 0.9 * (3 / 4) <= results[400.0] / base <= 1.02 * (3 / 4) + 0.05
    assert 0.9 * (3 / 8) <= results[200.0] / base <= 1.1 * (3 / 8) + 0.05
