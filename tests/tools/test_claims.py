"""The claims table against the pinned fingerprints: JSON only, no simulation.

``tools/fingerprint_gate.py`` proves every pin equals a fresh run; these
tests prove every pin shows what the paper (or the ablation) claims.
"""

import json
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest

from repro.scenarios import CLAIMS, SCENARIOS, claim_failures

FINGERPRINTS = Path(__file__).resolve().parents[2] / "FINGERPRINTS.json"


@pytest.fixture
def pins(monkeypatch):
    from repro.sim.engine import Simulator

    def no_simulation(*args, **kwargs):
        raise AssertionError("a claim check ran a simulation")

    monkeypatch.setattr(Simulator, "run", no_simulation)
    return json.loads(FINGERPRINTS.read_text())


def test_every_claim_holds_on_the_pins(pins):
    assert claim_failures(pins) == []


@pytest.mark.parametrize("name", sorted(CLAIMS))
def test_claim_reads_only_pinned_fields_of_a_scenario(pins, name):
    scenario, fields, _holds = CLAIMS[name]
    assert scenario in SCENARIOS
    for path in fields:
        reduce(getitem, path.split("."), pins[scenario])  # KeyError = unpinned


def test_perturbed_pin_fails_naming_the_claim_and_field(pins):
    peaks = pins["fig6b_curves"]["peak_mbps"]
    peaks["cached-get"] = peaks["vdma"] * 1.01
    failures = claim_failures(pins)
    [ordering] = [
        f for f in failures if f.startswith("fig6b_cached_below_vdma_below_limit:")
    ]
    assert f"fig6b_curves.peak_mbps.cached-get={peaks['cached-get']!r}" in ordering
    assert all(f.split(":")[0] in CLAIMS for f in failures)

