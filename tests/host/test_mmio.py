"""Unit tests for the MMIO register bank."""

import pytest

from repro.host.mmio import (
    MmioBank,
    REG_VDMA_ADDR,
    REG_VDMA_COUNT,
    REG_VDMA_CTRL,
)
from repro.scc.params import CACHE_LINE


def test_vdma_registers_share_one_wcb_line():
    """§3.3: contiguous 32 B-aligned allocation enables WCB fusion."""
    regs = (REG_VDMA_ADDR, REG_VDMA_COUNT, REG_VDMA_CTRL)
    assert {reg // CACHE_LINE for reg in regs} == {REG_VDMA_ADDR // CACHE_LINE}


def test_write_fires_handler():
    bank = MmioBank(0)
    fired = []
    bank.on_write(0x100, lambda core, value: fired.append((core, value)))
    bank.write(3, 0x100, 42)
    assert fired == [(3, 42)]
    assert bank.read(0x100) == 42


def test_write_without_handler_just_stores():
    bank = MmioBank(0)
    bank.write(0, 0x200, 7)
    assert bank.read(0x200) == 7
    assert bank.read(0x300) == 0


def test_duplicate_handler_rejected():
    bank = MmioBank(0)
    bank.on_write(0x100, lambda c, v: None)
    with pytest.raises(ValueError):
        bank.on_write(0x100, lambda c, v: None)
