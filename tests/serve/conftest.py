"""Shared fixtures for the service-level test harness.

Three layers of testability, cheapest first:

* :class:`FakeClock` + bare :class:`~repro.serve.core.ServeCore` — the
  whole lifecycle state machine with no pool, no asyncio and no real
  time; tests drive dispatch and outcomes by hand (``test_core``,
  ``test_properties``).
* ``run_async`` + inline pool — real asyncio service, thread workers,
  cooperative kills (``test_service``, ``test_stream_schema``,
  ``test_env_matrix``).
* process pool — real forked workers and SIGKILL chaos
  (``test_chaos``), and the outcome check of ``test_env_matrix``.

``run_async`` exists because the suite must not depend on a pytest
asyncio plugin: each async test is a plain sync function that owns one
event loop for its whole scenario.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serve import ServeCore


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> float:
        assert dt >= 0
        self.now += dt
        return self.now


def run_async(coro, timeout: float = 120.0):
    """Run one async test scenario to completion on a fresh loop."""

    async def bounded():
        return await asyncio.wait_for(coro, timeout)

    return asyncio.run(bounded())


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture
def core(clock) -> ServeCore:
    return ServeCore(clock=clock)
