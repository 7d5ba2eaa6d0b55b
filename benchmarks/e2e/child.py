"""One workload in a fresh interpreter: set up, warm up, measure.

Started by ``run.py`` (one child per workload, one at a time); prints one
JSON document as the last line of its standard output. Set-up (imports
plus input generation, plus the pool start of ``serve_fleet``) is timed
in CPU seconds from the top of :func:`main`; then one untimed warm-up
pass runs, then ``N = round(seconds / workload.pass_s)`` timed passes (at
least one, each from a collected heap), the same number on every commit.

Host times are reported at a reference speed. While set-up or a timed
pass runs, a :class:`ReferenceClock` interrupts the process every
``TICK_S`` CPU seconds and times a short fixed probe
(:func:`reference_loop`). The CPU time since the previous probe is
scaled by the probe's slowdown against ``PROBE_NOMINAL_S``, raised to
``SHARE``. On a shared VM the speed flips between about 1x and 2x several
times a second, as other tenants come and go; a probe a few milliseconds
away sees the same state as the work around it, so the scaled time
hardly moves while the raw time moves by tens of percent. Raw times stay
in the document.

With ``--trace 1`` the child runs ``N / 2`` pairs of passes instead: an
untraced pass, then the same pass under the layer sampler, which gives
the per-layer self times. Both start from a collected heap. Then one
pass runs with the layer tracer installed, for call counts and spans.
Every pass must give the same ``sim_digest``.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spec

SRC = spec.ROOT / "src"
#: CPU seconds between two probes of :class:`ReferenceClock`.
TICK_S = 0.004
#: Iterations of :func:`reference_loop` in one probe (about 1 % of a tick).
PROBE_N = 20
#: Seconds one probe takes on the host the numbers are scaled to (a
#: 2-vCPU x86-64 VM running CPython 3.11, uncontended).
PROBE_NOMINAL_S = 32e-6
#: The share of the probe's slowdown that the simulator's own code shows:
#: under contention the probe slows by up to 2x, the workloads less. Fitted
#: on 80 runs of the four declared workloads (see README).
SHARE = 0.8


def reference_loop(n: int = PROBE_N) -> int:
    """Fixed interpreter work: calls, generator resumes, a heap, a dict."""

    def stepper(k):
        total = 0.0
        for i in range(k):
            total += (yield i) or 0.0
        return total

    heap: list = []
    table: dict = {}
    for i in range(n):
        gen = stepper(4)
        next(gen)
        for j in range(3):
            gen.send(j * 0.5)
        heapq.heappush(heap, (i * 7919 % 1009, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        table[i & 1023] = table.get(i & 1023, 0) + 1
    return len(table)


class ReferenceClock:
    """CPU seconds of this process, raw and at reference speed.

    Between :meth:`start` and :meth:`stop`, ``SIGPROF`` fires every
    ``TICK_S`` CPU seconds and runs one probe. The CPU time since the
    previous probe is scaled by ``(PROBE_NOMINAL_S / p) ** SHARE``, where
    ``p`` is the mean of the probes on either side of it. Probe time is
    left out of both sums.
    """

    def __init__(self):
        self.raw = self.scaled = 0.0
        self._mark = 0.0
        self._probe: float | None = None
        self._on = False
        # The handler stays installed after stop(): a tick already pending
        # then finds the clock off and returns.
        signal.signal(signal.SIGPROF, self._tick)

    def start(self) -> None:
        self.raw = self.scaled = 0.0
        self._probe = None
        self._mark = time.process_time()
        self._on = True
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)

    def stop(self) -> tuple[float, float]:
        """Stop probing; return ``(raw, scaled)`` CPU seconds since start."""
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        self._on = False
        self._fold(time.process_time(), self._probe)
        return self.raw, self.scaled

    def _fold(self, now: float, probe: float | None) -> None:
        """Add the CPU time since the last mark, at the mean probe speed."""
        speed = probe if self._probe is None else (probe + self._probe) / 2
        dt = max(0.0, now - self._mark)
        self.raw += dt
        self.scaled += dt if speed is None else dt * (PROBE_NOMINAL_S / speed) ** SHARE

    def _tick(self, signum, frame) -> None:
        if not self._on:
            return
        self._on = False  # a tick that lands inside this one is dropped
        now = time.process_time()
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_loop()
        probe = time.perf_counter() - t0
        if collecting:
            gc.enable()
        self._fold(now, probe)
        self._probe = probe
        self._mark = time.process_time()
        self._on = True


@dataclass
class Pass:
    wall_s: float
    #: CPU seconds of the pass: this process at reference speed, plus the
    #: pool workers' raw CPU seconds (``serve_fleet``).
    cpu_s: float
    #: This process's raw CPU seconds.
    raw_cpu_s: float
    #: Scaled over raw CPU seconds of this process: below 1 on a slow host.
    speed: float
    result: object

    @property
    def timed_s(self) -> float:
        """The workload's timed region, raw seconds."""
        return self.result.timed_s if self.result.timed_s is not None else self.wall_s


def measure(wl, count: int, clock: ReferenceClock) -> list[Pass]:
    """``count`` timed passes; stops early at a pass that fails a check."""
    from workloads import worker_cpu_seconds

    passes = []
    for _ in range(count):
        gc.collect()
        t0, w0 = time.perf_counter(), worker_cpu_seconds()
        clock.start()
        result = wl.run_pass()
        raw, scaled = clock.stop()
        wall, workers = time.perf_counter() - t0, worker_cpu_seconds() - w0
        passes.append(Pass(wall, scaled + workers, raw, scaled / raw, result))
        if result.failures:
            break
    return passes


def end_to_end(passes: list[Pass]) -> dict:
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "cpu_s": {**spec.summary([p.cpu_s for p in passes]), "unit": "s",
                  "raw": [p.raw_cpu_s for p in passes]},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB", "n": 1},
        "wall_s": {**spec.summary([p.timed_s * p.speed for p in passes]), "unit": "s",
                   "raw": [p.timed_s for p in passes]},
        "host_speed": {**spec.summary([p.speed for p in passes]), "unit": "x",
                       "raw": [p.speed for p in passes]},
    }


def detail(workload: str, results: list, attempted: int, failed: int) -> dict:
    """``failed_frac`` and the workload's own metrics, over ``results``."""
    out = {"failed_frac": {"value": failed / attempted, "unit": "frac", "n": 1}}
    for metric in spec.DETAIL[workload]:
        samples = [r.values[metric.name] for r in results]
        out[metric.name] = {**spec.summary(samples), "unit": metric.unit}
    pooled = [s for r in results for s in r.samples.get("latency_s", ())]
    if pooled:
        import workloads

        out["serve_p99_ms"] = {"value": workloads.percentile(pooled, 99) * 1e3,
                               "unit": "ms", "n": len(pooled)}
        late = max(s for r in results for s in r.samples["late_s"])
        out["serve_gen_late_ms_max"] = {"value": late * 1e3, "unit": "ms", "n": 1}
    return out


@dataclass
class Traced:
    """What a ``--trace 1`` run measured."""

    #: ``(untraced wall s, untraced result, sampler stats, sampled result)``.
    pairs: list
    wrapped_wall_s: float = 0.0
    wrapped: object = None
    tracer: object = None

    def results(self) -> list:
        out = [r for _, untraced, _, sampled in self.pairs for r in (untraced, sampled)]
        return out + ([self.wrapped] if self.wrapped is not None else [])


def trace_passes(wl, args, count: int, doc: dict) -> Traced:
    """``count`` (untraced, sampled) pairs, then one pass under the tracer,
    whose spans are written as a Chrome trace."""
    import workloads
    from layertrace import LayerSampler, LayerTracer

    sampler = LayerSampler()
    traced = Traced(pairs=[])
    for _ in range(count):
        # Each pass starts from a collected heap, so neither pays for
        # the other's garbage.
        gc.collect()
        t0 = time.perf_counter()
        untraced = wl.run_pass()
        wall = time.perf_counter() - t0
        gc.collect()
        sampler.start()
        try:
            sampled = wl.run_pass()
        finally:
            stats = sampler.stop()
        traced.pairs.append((wall, untraced, stats, sampled))
        if untraced.failures or sampled.failures:
            return traced
    tracer = LayerTracer().install(extra_modules=[workloads])
    try:
        t0 = time.perf_counter()
        traced.wrapped = wl.run_pass()
        traced.wrapped_wall_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    traced.tracer = tracer
    path = spec.OUT_DIR / f"{args.workload}-seed{args.seed}.trace.json"
    doc["chrome_trace"] = str(tracer.write_chrome_trace(path, args.workload))
    return traced


def per_layer(traced: Traced) -> tuple[dict, list]:
    """Per-layer metrics (medians over the sampled passes) and, per pair,
    the closure of the sampled self times against the untraced pass."""
    import workloads

    tracer = traced.tracer
    calls, fn_calls = tracer.layer_calls(), tracer.fn_calls()
    fixed = dict(workloads.layer_counters(traced.wrapped.snapshots))
    for layer in spec.TRACED_LAYERS:
        fixed[f"{layer}.calls"] = float(calls.get(layer, 0))
    fixed["rcce.coll_calls"] = float(sum(
        n for name, n in fn_calls.items()
        if name.startswith("repro.rcce.api.Rcce.")
        and name.rsplit(".", 1)[-1] in ("barrier", "bcast", "reduce", "allreduce", "gather")
    ))
    untraced_wall = statistics.median(wall for wall, *_ in traced.pairs)
    fixed["trace.overhead_ratio"] = traced.wrapped_wall_s / untraced_wall
    fixed["trace.spans"] = float(tracer.span_count)
    rows, closure = [], []
    for wall, _, stats, sampled in traced.pairs:
        row = dict(fixed)
        row.update({k: v for k, v in sampled.values.items() if "." in k})
        for layer in spec.TRACED_LAYERS:
            row[f"{layer}.self_pct"] = 100.0 * stats.self_s.get(layer, 0.0) / stats.wall_s
        accounted = sum(stats.self_s.values()) + stats.unattributed_s
        row["trace.unattributed_pct"] = 100.0 * stats.unattributed_s / stats.wall_s
        row["trace.closure_ratio"] = accounted / wall
        row["trace.samples"] = float(stats.samples)
        rows.append(row)
        closure.append({"untraced_s": wall, "sampled_s": stats.wall_s,
                        "self_s": stats.self_s, "unattributed_s": stats.unattributed_s,
                        "samples": stats.samples, "top": stats.top})
    layers = {}
    for metric in spec.per_layer():
        samples = [row.get(metric.name, 0.0) for row in rows]
        layers[metric.name] = {**spec.summary(samples), "unit": metric.unit}
    return layers, closure


def main(argv: list[str] | None = None) -> int:
    clock = ReferenceClock()
    clock.start()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time set-up, then exit (the parent takes the median)")
    args = parser.parse_args(argv)

    try:
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import workloads

        repro_file = Path(sys.modules["repro"].__file__).resolve()
        if SRC.resolve() not in repro_file.parents:
            print(f"repro imported from {repro_file}, not from {SRC}", file=sys.stderr)
            return 2
        wl = workloads.build(args.workload, args.seed)
    finally:
        setup_raw, setup_s = clock.stop()
    doc = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "setup_s": setup_s, "setup_raw_s": setup_raw}
    try:
        if args.setup_only:
            print(json.dumps(doc))
            return 0
        count = max(1, round(args.seconds / (wl.pass_s * (2 if args.trace else 1))))
        failures: list[str] = []
        attempted = failed = 0
        checked, passes, traced = [], [], None
        try:
            checked.append(wl.run_pass())  # warm-up
            if args.trace:
                traced = trace_passes(wl, args, count, doc)
            else:
                passes = measure(wl, count, clock)
        except Exception as exc:  # noqa: BLE001 - reported as a failed run
            traceback.print_exc()
            failures.append(f"pass raised {type(exc).__name__}: {exc}")
            attempted, failed = 1, 1
        checked += traced.results() if traced else [p.result for p in passes]
        digests = {result.digest for result in checked}
        for result in checked:
            attempted += result.attempted
            failed += len(result.failures)
            failures += result.failures
        if len(digests) > 1:
            failures.append(f"sim_digest differs between passes: {sorted(digests)}")
            attempted += 1
            failed += 1
        if traced:
            timed = [untraced for _, untraced, *_ in traced.pairs]
            walls = [wall for wall, *_ in traced.pairs]
        else:
            timed, walls = [p.result for p in passes], [p.wall_s for p in passes]
        doc.update({
            "passes": len(timed),
            "pass_wall_s": walls,
            "sim_digest": digests.pop() if len(digests) == 1 else None,
            "attempted": attempted,
            "failed": failed,
            "failures": failures,
            "correct": failed == 0,
        })
        if timed:
            doc["metrics"] = detail(args.workload, timed, attempted, failed)
            if not args.trace:
                doc["metrics"].update(end_to_end(passes))
            elif traced.tracer is not None:
                doc["layers"], doc["closure"] = per_layer(traced)
        print(json.dumps(doc))
        return 0 if doc["correct"] else 1
    finally:
        wl.close()


if __name__ == "__main__":
    sys.exit(main())
