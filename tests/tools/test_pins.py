"""The pin runner: fused and unfused replay, coverage, layer report, re-pin."""

import json
import os
import re
from functools import partial

import pytest

from repro.sim.engine import FUSE_ENV_VAR, Simulator
from tools import pins


def delay_chain() -> dict:
    """A start-up event, then a delay chain: one wake-up fused, three unfused."""
    sim = Simulator()
    sim.spawn(chain for chain in [(1.0, 2.0, 3.0)])
    sim.run()
    return {"t": sim.now, "events": sim.events_processed, **sim.metrics_snapshot()}


def fused_kernel() -> dict:
    """Whether a new kernel fuses delay chains (moved by the unfused replay)."""
    return {"fused": delay_chain()["kernel.fused_yields"] > 0, "events": 1}


def fusion_setting() -> dict:
    """The fusion switch as the replaying process sees it."""
    return {"fuse": os.environ.get(FUSE_ENV_VAR)}


def test_fusion_invariant_field_moved_by_fusion_fails_and_is_named():
    case = {"flag": fused_kernel}
    _fresh, failures = pins.run(case, {"flag": {"fused": True, "events": 1}})
    assert failures[0].startswith("run: unfused replay differs")
    assert failures[1:] == ["    flag.fused: True -> False"]


def test_case_differing_only_in_event_counts_passes(capsys):
    pinned, failures = pins.run({"chain": delay_chain}, None)
    assert failures == [] and pins.run({"chain": delay_chain}, pinned) == (pinned, [])
    assert "chain ok (events 4 unfused -> 2 fused)" in capsys.readouterr().out


def test_golden_style_pin_set_fails_on_orphaned_pin_and_unpinned_case(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"kept": {"x": 1}, "gone": {"x": 2}}))
    cases = {"kept": lambda: {"x": 1}, "new": lambda: {"x": 3}}
    with pytest.raises(AssertionError) as coverage:
        pins.check(path, cases)
    assert str(coverage.value).splitlines() == [
        "new: no pinned fingerprint (run --update)",
        "gone: pinned in golden.json but no such scenario",
    ]
    pins.check(path, cases, "kept")
    with pytest.raises(AssertionError, match="new: no pinned fingerprint"):
        pins.check(path, cases, "new")


@pytest.mark.parametrize("before", [None, "off"])
def test_fusion_switch_is_restored_after_a_case_raises(monkeypatch, before):
    monkeypatch.delenv(FUSE_ENV_VAR, raising=False)
    if before is not None:
        monkeypatch.setenv(FUSE_ENV_VAR, before)
    with pytest.raises(ZeroDivisionError):
        pins.run({"broken": lambda: {"x": 1 / 0}}, None)
    assert os.environ.get(FUSE_ENV_VAR) == before


def test_update_rewrites_the_file_and_prints_old_to_new_by_layer(tmp_path, capsys):
    path = tmp_path / "golden.json"
    old = {"elapsed_ns": 1.0, "gone": 2, "series": {"pcie.bytes{dir=up}": 5.0}}
    path.write_text(json.dumps({"case": old}))
    new = {"elapsed_ns": 1.5, "series": {"pcie.bytes{dir=up}": 6.0, "vdma.n": 1.0}}
    assert pins.main(path, {"case": partial(dict, new)}, ["--update"]) == 0
    repinned = json.dumps({"case": new}, indent=1, sort_keys=True) + "\n"
    assert path.read_text() == repinned
    assert "\n".join([
        "pcie: re-pinned (old -> new):",
        "    case.series.pcie.bytes{dir=up}: 5.0 -> 6.0",
        "run: re-pinned (old -> new):",
        "    case.elapsed_ns: 1.0 -> 1.5",
        "    case.gone: missing from fresh run (baseline 2)",
        "vdma: re-pinned (old -> new):",
        "    case.series.vdma.n: new field not in baseline (fresh 1.0)",
    ]) in capsys.readouterr().out
    assert pins.main(path, {"case": partial(dict, new)}, ["--update"]) == 0
    assert "no pinned value changed" in capsys.readouterr().out


def test_command_line_prints_each_workers_peak_rss(tmp_path, capsys):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"case": {"x": 1}}))
    assert pins.main(path, {"case": partial(dict, x=1)}, []) == 0
    peaks = re.findall(r"^(\w+) worker: peak RSS (\d+\.\d) MB$",
                       capsys.readouterr().out, re.M)
    assert [mode for mode, _mb in peaks] == ["fused", "unfused"]
    assert all(float(mb) > 0 for _mode, mb in peaks)


def test_command_line_workers_each_set_their_own_fusion_mode(tmp_path, capsys):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"mode": {"fuse": "1"}}))
    assert pins.main(path, {"mode": fusion_setting}, []) == 1
    out = capsys.readouterr().out
    assert "mode DRIFT" in out
    assert "unfused replay differs" in out and "mode.fuse: '1' -> '0'" in out
    assert "fingerprint drifted" not in out


def test_command_line_raises_what_a_case_raises(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"broken": {"x": 1}}))
    with pytest.raises(ZeroDivisionError):
        pins.main(path, {"broken": partial(divmod, 1, 0)}, [])


def test_reach_lists_the_functions_no_case_calls(tmp_path, monkeypatch):
    package = tmp_path / "reachpkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(
        "def called():\n"
        "    def unused():\n"
        "        return 0\n"
        "    return 1\n"
        "\n"
        "\n"
        "class Box:\n"
        "    @property\n"
        "    def never(self):\n"
        "        def helper():\n"
        "            return 2\n"
        "        return helper()\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    from reachpkg import mod

    cases = {"one": lambda: {"x": mod.called()}, "two": lambda: {"y": mod.called()}}
    total, unreached = pins.reach(cases, root=package)
    # A function inside an unreached one counts no lines of its own.
    assert (total, unreached) == (4, {"reachpkg/mod.py": [
        ("called.unused", 2), ("Box.never", 5), ("Box.never.helper", 0),
    ]})
    assert pins.reach_report(total, unreached) == [
        "reachpkg/mod.py: 3 unreached, 7 lines",
        "    called.unused (2 lines)",
        "    Box.never (5 lines)",
        "    Box.never.helper",
        "reach: 3 of 4 functions unreached (7 lines)",
    ]


def test_reach_option_prints_the_report_and_compares_no_pin(tmp_path, capsys):
    assert pins.main(tmp_path / "none.json", {"case": partial(dict, x=1)}, ["--reach"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^reach: \d+ of \d+ functions unreached \(\d+ lines\)$", out, re.M)
    assert "repro/sim/engine.py: " in out
