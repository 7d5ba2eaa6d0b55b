"""Unit tests for frequency-domain conversion."""

import pytest

from repro.sim.clock import Clock


def test_cycles_to_ns_and_back():
    core = Clock(533.0)
    assert core.cycles(533) == pytest.approx(1000.0)
    assert core.to_cycles(1000.0) == pytest.approx(533.0)


def test_period():
    assert Clock(800.0).cycles(1) == pytest.approx(1.25)


def test_roundtrip():
    clk = Clock(123.456)
    assert clk.to_cycles(clk.cycles(777)) == pytest.approx(777)


def test_invalid_frequency():
    with pytest.raises(ValueError):
        Clock(0.0)
    with pytest.raises(ValueError):
        Clock(-5.0)
