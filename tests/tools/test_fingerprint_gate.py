"""The fingerprint gate: pinned values, per-field drift, determinism, fusion.

Only three fast scenarios run here; the full gate is
``python tools/fingerprint_gate.py``.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

GATE_PATH = Path(__file__).resolve().parents[2] / "tools" / "fingerprint_gate.py"
FAST = ["micro_flag_wait", "micro_chunk_send", "rcce_api"]


@pytest.fixture(scope="module")
def gate():
    saved = list(sys.path)
    spec = importlib.util.spec_from_file_location("fingerprint_gate", GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


@pytest.fixture
def golden(gate):
    return json.loads(gate.FINGERPRINTS.read_text())


def test_gate_passes_against_pinned_values(gate, golden):
    fresh, failures = gate.pins.run(gate.SCENARIOS, golden, FAST)
    assert failures == []
    assert fresh == {name: golden[name] for name in FAST}


@pytest.mark.parametrize("name", FAST)
def test_one_ulp_drift_fails_and_names_the_field(gate, golden, name):
    golden[name]["sim_now_ns"] = math.nextafter(golden[name]["sim_now_ns"], math.inf)
    _fresh, failures = gate.pins.run(gate.SCENARIOS, golden, [name])
    assert failures
    assert any(f"{name}.sim_now_ns:" in line for line in failures)
    assert not any(f"{name}.events" in line for line in failures)


def test_scenario_differing_on_second_run_fails_as_nondeterministic(gate):
    runs = iter([{"ops": 1, "sim_now_ns": 2.0}, {"ops": 1, "sim_now_ns": 3.0}])
    golden = {"flaky": {"ops": 1, "sim_now_ns": 2.0}}
    _fresh, failures = gate.pins.run({"flaky": lambda: next(runs)}, golden)
    assert "nondeterministic" in failures[0]
    assert failures[1:] == ["    flaky.sim_now_ns: 2.0 -> 3.0"]


def test_unpinned_scenario_fails(gate):
    _fresh, failures = gate.pins.run({"new": lambda: {"ops": 1}}, {})
    assert failures == ["new: no pinned fingerprint (run --update)"]


def test_fusion_comparison_ignores_only_events(gate):
    def fusion_drift(unfused, fused):
        return gate.pins.drift(unfused, fused, invariant_only=True)

    unfused = {"events": 75815, "sim_now_ns": 7524379.125767603}
    assert fusion_drift(unfused, {**unfused, "events": 49089}) == []
    moved = {**unfused, "sim_now_ns": math.nextafter(unfused["sim_now_ns"], 0.0)}
    assert [d.split(":")[0] for d in fusion_drift(unfused, moved)] == [
        "sim_now_ns"
    ]
    assert fusion_drift(unfused, {"events": 49089}) == [
        "sim_now_ns: missing from fresh run (baseline 7524379.125767603)"
    ]


def test_cli_exits_one_naming_an_edited_field(
    gate, golden, tmp_path, monkeypatch, capsys
):
    golden["micro_chunk_send"]["checksum"] += 1
    pinned = tmp_path / "FINGERPRINTS.json"
    pinned.write_text(json.dumps(golden))
    monkeypatch.setattr(gate, "FINGERPRINTS", pinned)
    assert gate.main(["--scenario", "micro_flag_wait"]) == 0
    assert gate.main(["--scenario", "micro_chunk_send"]) == 1
    assert "micro_chunk_send.checksum: 252625.0 -> 252624.0" in capsys.readouterr().out


def test_registry_names_equal_pinned_names(golden):
    from repro.scenarios import SCENARIOS

    assert sorted(SCENARIOS) == sorted(golden)


def test_cli_exits_one_naming_an_orphaned_pin(
    gate, golden, tmp_path, monkeypatch, capsys
):
    golden["renamed_away"] = {"ops": 1}
    pinned = tmp_path / "FINGERPRINTS.json"
    pinned.write_text(json.dumps(golden))
    monkeypatch.setattr(gate, "FINGERPRINTS", pinned)
    assert gate.main(["--scenario", "micro_flag_wait"]) == 1
    out = capsys.readouterr().out
    assert "renamed_away: pinned in FINGERPRINTS.json but no such scenario" in out
