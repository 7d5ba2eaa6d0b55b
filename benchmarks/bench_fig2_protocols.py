"""Fig 2 — timely behavior of the basic blocking communication protocols.

Prints the figure's Gantt charts (one 16 kB transfer under RCCE's
default protocol and under iRCCE's pipelined one) and the completion
times around the 4 kB pipelining threshold. The claim they show, that
the pipelined protocol finishes first, is ``fig2_pipelined_beats_blocking``
in ``repro.scenarios.CLAIMS``, over the pinned ``fig2_protocols`` scenario.

Usage::

    PYTHONPATH=src python benchmarks/bench_fig2_protocols.py
"""

from repro.bench import fig2_protocol_timeline, format_table, render_timeline

if __name__ == "__main__":
    timings = fig2_protocol_timeline((8192, 16384, 65536))
    gantt = next(t for t in timings if t.size == 16384)
    for label, records in (
        ("2a — default blocking", gantt.blocking_records),
        ("2b — pipelined", gantt.pipelined_records),
    ):
        print(f"Fig {label} protocol (16 kB, the ping-pong's first message):")
        print(render_timeline(records))
        print()
    print(
        format_table(
            ["size B", "blocking us", "pipelined us", "speedup"],
            [
                (t.size, t.blocking_ns / 1000, t.pipelined_ns / 1000,
                 t.blocking_ns / t.pipelined_ns)
                for t in timings
            ],
        )
    )
