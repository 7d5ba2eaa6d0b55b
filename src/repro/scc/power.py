"""Power management of the SCC: voltage and frequency domains (RPC).

The SCC exposes dynamic voltage/frequency control through an on-die
power-management controller: the 24 tiles form **6 voltage domains**
(2×2-tile blocks, 3×2 over the mesh) and every tile is its own
**frequency island**, clocked at ``1600 MHz / divider`` with dividers
2…16. RCCE wraps this as ``RCCE_iset_power``/``RCCE_wait_power``.

The paper runs the fixed configuration (core/mesh/memory) =
(533/800/800) MHz — core divider 3 — and does not vary it, so this
module is *exercised but not evaluated*: it exists because the software
stack has it, with the real latencies (a frequency change is fast, a
voltage ramp is slow) and the real constraint that a tile's frequency
is capped by its domain's voltage level.

Timing integration: :class:`repro.scc.core.CoreEnv` scales its
core-cycle costs by the tile's divider relative to the baseline (the
:attr:`PowerManager.scales` list), so a down-clocked tile computes and
copies proportionally slower.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator


from .params import SCCParams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .chip import SCCDevice

__all__ = ["PowerManager", "VOLTAGE_LEVELS", "GLOBAL_CLOCK_MHZ"]

#: The global tile clock all dividers divide.
GLOBAL_CLOCK_MHZ = 1600.0

#: Discrete voltage levels (V) and the fastest divider each sustains
#: (lower divider = higher frequency needs more volts).
VOLTAGE_LEVELS: dict[float, int] = {
    0.7: 8,   # ≤ 200 MHz
    0.8: 5,   # ≤ 320 MHz
    0.9: 3,   # ≤ 533 MHz
    1.1: 2,   # ≤ 800 MHz
}

#: RPC latencies (ns): frequency changes are quick, voltage ramps slow.
FREQ_CHANGE_NS = 20_000.0
VOLTAGE_RAMP_NS = 1_500_000.0


class PowerManager:
    """Voltage/frequency state of one device."""

    def __init__(self, device: "SCCDevice"):
        self.device = device
        params = device.params
        base = round(GLOBAL_CLOCK_MHZ / params.core_freq_mhz)
        if abs(GLOBAL_CLOCK_MHZ / base - params.core_freq_mhz) > 1.0:
            # Non-standard configuration: treat its frequency as divider base.
            base = max(2, base)
        self.base_divider = base
        self._dividers = [base] * params.num_tiles
        #: Per-tile ``clock_scale`` (``divider / base_divider``), kept
        #: current by :meth:`set_frequency`; every core reads its tile's
        #: entry on each timed access.
        self.scales = [1.0] * params.num_tiles
        self._voltages = [self._min_voltage(base)] * self.num_voltage_domains
        self.freq_changes = 0
        self.voltage_ramps = 0

    # -- geometry ---------------------------------------------------------------

    @property
    def num_voltage_domains(self) -> int:
        params = self.device.params
        return ((params.tiles_x + 1) // 2) * ((params.tiles_y + 1) // 2)

    def voltage_domain(self, tile: int) -> int:
        """2×2-tile voltage blocks, row-major over the mesh."""
        params = self.device.params
        x, y = params.tile_xy(tile)
        per_row = (params.tiles_x + 1) // 2
        return (y // 2) * per_row + (x // 2)

    def tiles_in_domain(self, domain: int) -> list[int]:
        return [
            tile
            for tile in range(self.device.params.num_tiles)
            if self.voltage_domain(tile) == domain
        ]

    # -- state ---------------------------------------------------------------------

    def divider(self, tile: int) -> int:
        return self._dividers[tile]

    def frequency_mhz(self, tile: int) -> float:
        return GLOBAL_CLOCK_MHZ / self._dividers[tile]

    def voltage(self, domain: int) -> float:
        return self._voltages[domain]

    def clock_scale(self, tile: int) -> float:
        """Cost multiplier for core-cycle work on this tile (1.0 = the
        baseline configuration the timing model was calibrated at)."""
        return self.scales[tile]

    @staticmethod
    def _min_voltage(divider: int) -> float:
        for volts in sorted(VOLTAGE_LEVELS):
            if divider >= VOLTAGE_LEVELS[volts]:
                return volts
        return max(VOLTAGE_LEVELS)

    # -- control (coroutines: they take RPC time) ----------------------------------------

    def set_frequency(self, requester_core: int, tile: int, divider: int) -> Generator:
        """Change a tile's frequency divider (``RCCE_iset_power`` fast path).

        Raises if the domain's current voltage cannot sustain the
        requested frequency — raise the voltage first.
        """
        if not 2 <= divider <= 16:
            raise ValueError(f"divider {divider} outside 2..16")
        domain = self.voltage_domain(tile)
        required = self._min_voltage(divider)
        if self._voltages[domain] < required:
            raise ValueError(
                f"divider {divider} ({GLOBAL_CLOCK_MHZ / divider:.0f} MHz) needs "
                f"{required} V but domain {domain} is at {self._voltages[domain]} V"
            )
        yield FREQ_CHANGE_NS
        self._dividers[tile] = divider
        self.scales[tile] = divider / self.base_divider
        self.freq_changes += 1

    def set_voltage(self, requester_core: int, domain: int, volts: float) -> Generator:
        """Ramp a voltage domain (slow; ``RCCE_wait_power`` territory).

        Lowering the voltage below what a tile's current frequency needs
        is refused — down-clock first.
        """
        if volts not in VOLTAGE_LEVELS:
            raise ValueError(
                f"voltage {volts} not a level; choose from {sorted(VOLTAGE_LEVELS)}"
            )
        for tile in self.tiles_in_domain(domain):
            if self._dividers[tile] < VOLTAGE_LEVELS[volts]:
                raise ValueError(
                    f"tile {tile} runs divider {self._dividers[tile]}, too fast "
                    f"for {volts} V — lower its frequency first"
                )
        yield VOLTAGE_RAMP_NS
        self._voltages[domain] = volts
        self.voltage_ramps += 1
