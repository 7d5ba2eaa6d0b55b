"""Tests of the end-to-end benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import gc
import json
import re
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import child
import compare
import run
import spec
import workloads
from layertrace import LayerSampler, LayerTracer
from repro.bench import PAPER_BANDS, Band

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Small instances: same code paths, a fraction of the work (passes of
#: 0.5-1 s on a 2-vCPU VM).
SMALL = {
    "bt_spmd": {"clazz": "S"},
    "rpc_open_loop": {"bisect_steps": 1},
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_wrapped_pass_keeps_the_digest_and_nests_spans(name):
    wl = workloads.build(name, 5, **SMALL[name])
    try:
        untraced = wl.run_pass()
        tracer = LayerTracer().install(extra_modules=[workloads])
        try:
            traced = wl.run_pass()
        finally:
            tracer.uninstall()
        # Uninstalled means unwrapped: a fresh pass gives the same digest.
        again = wl.run_pass()
    finally:
        wl.close()
    assert traced.digest == untraced.digest == again.digest
    calls = tracer.layer_calls()
    assert calls["sim"] > 0 and calls["rcce"] > 0
    assert tracer.spans
    kept = {span[4]: span for span in tracer.spans}
    for layer, _, t0, t1, _, parent, _ in tracer.spans:
        assert t0 <= t1
        if parent in kept:  # a span lies inside its parent, in another layer
            outer = kept[parent]
            assert outer[2] <= t0 and t1 <= outer[3] and outer[0] != layer
    assert any(span[6].startswith("rank") for span in tracer.spans)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_sampled_self_times_add_up_to_the_untraced_wall(name):
    """The sampler's layers plus its unattributed time, over a sampled
    pass, match the wall time of the untraced passes on either side of
    it (median over passes: single passes of this size vary by a few
    percent)."""
    wl = workloads.build(name, 5, **SMALL[name])
    sampler = LayerSampler()

    def untraced() -> float:
        gc.collect()
        t0 = time.perf_counter()
        wl.run_pass()
        return time.perf_counter() - t0

    ratios = []
    try:
        wl.run_pass()
        before = untraced()
        for _ in range(9):
            gc.collect()
            sampler.start()
            try:
                wl.run_pass()
            finally:
                stats = sampler.stop()
            after = untraced()
            accounted = sum(stats.self_s.values()) + stats.unattributed_s
            ratios.append(accounted / ((before + after) / 2))
            before = after
    finally:
        wl.close()
    assert abs(statistics.median(ratios) - 1.0) <= 0.05, ratios
    assert stats.self_s["sim"] > 0 and stats.samples > 20


ALPHA = """
import time

def spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass

def work(beta, a, b):
    spin(a)
    beta.spin(b)
"""


def test_sampler_charges_known_work_to_its_layer():
    alpha, beta = types.ModuleType("repro.alpha"), types.ModuleType("repro.beta.inner")
    for module in (alpha, beta):
        exec(compile(ALPHA, f"<{module.__name__}>", "exec"), module.__dict__)
    sampler = LayerSampler()
    sampler.start()
    try:
        for _ in range(5):
            alpha.work(beta, 0.12, 0.08)
    finally:
        stats = sampler.stop()
    share = {layer: s / stats.wall_s for layer, s in stats.self_s.items()}
    assert set(share) == {"alpha", "beta"}
    assert abs(share["alpha"] - 0.6) <= 0.05 and abs(share["beta"] - 0.4) <= 0.05
    assert stats.top[0][1] == "repro.alpha.spin"


def test_reference_clock_counts_cpu_and_leaves_out_its_probes():
    clock = child.ReferenceClock()
    c0 = time.process_time()
    clock.start()
    end = c0 + 0.3
    while time.process_time() < end:
        pass
    raw, scaled = clock.stop()
    used = time.process_time() - c0
    # About 75 probes ran, each worth about 1 % of a tick.
    assert 0.9 * used < raw < used
    assert scaled > 0
    end = time.process_time() + 0.05
    while time.process_time() < end:
        pass
    assert (clock.raw, clock.scaled) == (raw, scaled)  # no tick after stop()


def test_digest_ignores_how_the_simulator_got_there():
    def digest(**snapshot):
        return workloads.PassResult({"x": 1}, [snapshot], {}, 1, []).digest

    base = digest(**{"sim.now_ns": 5.0, "pcie.bytes": 64.0, "sim.events": 10.0,
                     "kernel.fused_yields": 3.0})
    assert base == digest(**{"sim.now_ns": 5.0, "pcie.bytes": 64.0, "sim.events": 7.0,
                             "sim.processes_spawned": 2.0, "kernel.events{source=x}": 1.0})
    assert base != digest(**{"sim.now_ns": 6.0, "pcie.bytes": 64.0})
    assert base != digest(**{"sim.now_ns": 5.0, "pcie.bytes": 65.0})


def test_benchmark_json_follows_the_contract():
    bench = spec.load_benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(bench["workloads"]) <= 8
    assert set(spec.declared_workloads()) <= set(spec.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
    names = [w["name"] for w in bench["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in bench[group]]
        assert all(UNIT.fullmatch(m["unit"]) for m in bench[group])
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted(trace, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seconds", "0", "--trace", str(trace),
         "--out", str(tmp_path / "run.json")],
        cwd=spec.ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = spec.per_layer() if trace else spec.end_to_end()
    for workload in spec.WORKLOADS:
        for metric in declared:
            entry = result["metrics"][f"{workload}.{metric.name}"]
            assert entry["unit"] == metric.unit
            assert isinstance(entry["value"], float)
        doc = json.loads((tmp_path / "run.json").read_text())["workloads"][workload]
        assert doc["sim_digest"]
        # A traced run reports no host times: its passes are slowed down.
        for metric in spec.DETAIL[workload] if trace else spec.detail(workload):
            assert doc["metrics"][metric.name]["unit"] == metric.unit
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_injected_verification_failure_fails_the_run(monkeypatch, capsys):
    monkeypatch.setitem(PAPER_BANDS, "onchip_peak_mbps",
                        Band(150.0, 0.0, 1.0, "on-chip peak, impossible band"))
    code = child.main(["--workload", "xdev_sweep", "--seed", "1", "--seconds", "0"])
    doc = _last_json(capsys.readouterr().out)
    assert code != 0
    assert not doc["correct"] and doc["failed"] > 0
    assert doc["metrics"]["failed_frac"]["value"] > 0


def test_run_exits_nonzero_when_a_workload_fails(monkeypatch, capsys):
    def fake_child(args, timeout):
        return {"workload": args[1], "seed": 1, "setup_s": 0.1, "passes": 1,
                "correct": False, "attempted": 10, "failed": 1,
                "failures": ["injected"], "sim_digest": None,
                "metrics": {m.name: {"value": 1.0, "unit": m.unit} for m in spec.end_to_end()}}

    monkeypatch.setattr(run, "run_child", fake_child)
    code = run.main(["--workload", "coll_fabric", "--seconds", "0",
                     "--out", str(spec.OUT_DIR / "test-failing-run.json")])
    result = _last_json(capsys.readouterr().out)
    assert code != 0
    assert result["correct"] is False and result["failed"] == 1


def test_compare_verdicts():
    wall = spec.Metric("wall_s", "s", "lower", 0.1)
    base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    assert compare.verdict(wall, base, [v * 0.8 for v in base])[0] == "improved"
    assert compare.verdict(wall, base, [v * 1.2 for v in base])[0] == "regressed"
    assert compare.verdict(wall, base, [v * 1.05 for v in base])[0] == "no worse within bound"
    noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0]
    assert compare.verdict(wall, noisy, noisy[::-1])[0] == "unresolved"
    gflops = spec.Metric("bt_gflops_vdma", "GFLOP/s", "higher", 0.0)
    assert compare.verdict(gflops, [3.9, 3.9], [3.9, 3.9]) == ("identical", 0.0)
    assert compare.verdict(gflops, [3.9, 3.9], [3.9, 3.8])[0] == "regressed"


def test_suite_uses_only_the_public_api():
    forbidden = re.compile(
        r"(from|import)\s+bench_|REPRO_KERNEL|sharded|\.launch\(|\.xyz\(|"
        r"pcie_bytes\(|bytes_served\(|DIRECT_THRESHOLD"
    )
    for path in HERE.glob("*.py"):
        if path.name == Path(__file__).name:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            assert not forbidden.search(line), f"{path.name}:{lineno}: {line.strip()}"
