"""Errors surfaced by the fault-injection / resilience layer.

Unpinned: ``DeviceQuarantined`` — raised on a severed route, which the
chaos suites drive.
"""

from __future__ import annotations

__all__ = ["DeviceQuarantined", "FaultConfigError"]


class FaultConfigError(ValueError):
    """A :class:`repro.faults.FaultPlan` (or one of its specs) is invalid."""


class DeviceQuarantined(RuntimeError):
    """A request needed a PCIe route that quarantine has severed.

    Raised by the communication task when a new host-path request targets
    a device whose cable exhausted its retry budget under
    ``on_exhaust="sever"``. In-flight transfers on a severed cable are
    simply never delivered (their waiters deadlock, which
    :class:`repro.sim.errors.DeadlockError` reports); *new* requests fail
    fast with this error instead, so callers can degrade gracefully.
    """

    def __init__(self, src_device: int, dst_device: int):
        self.src_device = src_device
        self.dst_device = dst_device
        super().__init__(
            f"route device{src_device} → device{dst_device} is quarantined "
            "(PCIe retry budget exhausted; cable severed)"
        )
