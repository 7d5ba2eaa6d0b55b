"""Communication-traffic analysis (paper §4.2, Fig 8).

Fig 8 visualizes NPB BT's traffic as a rank×rank matrix — "each filled
square … indicates a communication between two ranks (x is sender and y
receiver), whereas dark means high and light means low communication
traffic", with grey boxes highlighting the inter-device blocks. The
functions here compute that matrix from a session's rank layout and
render it as ASCII art, plus the summary statistics the paper quotes
(maximum pair traffic, inter-device share).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.rcce.config import RankLayout

__all__ = ["TrafficStats", "traffic_matrix", "traffic_stats", "render_traffic"]


@dataclass(frozen=True)
class TrafficStats:
    """Summary of a traffic matrix."""

    #: Byte counts are ints for a measured matrix, floats once scaled.
    total_bytes: float
    max_pair_bytes: float
    max_pair: tuple[int, int]
    inter_device_bytes: float
    inter_device_fraction: float
    nonzero_pairs: int


def traffic_matrix(layout: RankLayout) -> np.ndarray:
    """bytes[src, dst] accumulated by the layout's communicators."""
    n = layout.num_ranks
    matrix = np.zeros((n, n), np.int64)
    for (src, dst), nbytes in layout.traffic.items():
        matrix[src, dst] = nbytes
    return matrix


def _device_of(layout: RankLayout) -> np.ndarray:
    return np.array([layout.placement(r)[0] for r in range(layout.num_ranks)])


def traffic_stats(matrix: np.ndarray, layout: RankLayout) -> TrafficStats:
    if matrix.shape != (layout.num_ranks, layout.num_ranks):
        raise ValueError("matrix shape does not match the layout")
    total = matrix.sum().item()
    flat_max = int(matrix.argmax())
    max_pair = (flat_max // matrix.shape[1], flat_max % matrix.shape[1])
    devices = _device_of(layout)
    cross = devices[:, None] != devices[None, :]
    inter = matrix[cross].sum().item()
    return TrafficStats(
        total_bytes=total,
        max_pair_bytes=matrix.max().item(),
        max_pair=max_pair,
        inter_device_bytes=inter,
        inter_device_fraction=inter / total if total else 0.0,
        nonzero_pairs=int((matrix > 0).sum()),
    )


_SHADES = " .:-=+*#%@"


def render_traffic(
    matrix: np.ndarray,
    layout: RankLayout,
    width: int = 64,
    mark_devices: bool = True,
) -> str:
    """ASCII rendering of the traffic matrix (x = sender, y = receiver).

    Darker characters mean more traffic; with ``mark_devices``, device
    boundaries are drawn as ruled lines — the "grey boxes" of Fig 8.
    """
    n = matrix.shape[0]
    step = max(1, -(-n // width))
    cells = -(-n // step)
    # Downsample by summation so coarse views preserve the pattern.
    down = np.zeros((cells, cells), np.float64)
    for by in range(cells):
        for bx in range(cells):
            down[by, bx] = matrix[
                by * step : (by + 1) * step, bx * step : (bx + 1) * step
            ].sum()
    peak = down.max()
    devices = _device_of(layout)
    boundaries = {
        r for r in range(1, n) if devices[r] != devices[r - 1]
    }
    bcells = {b // step for b in boundaries}

    lines = []
    header = "    +" + "-" * (2 * cells) + "+"
    lines.append(f"traffic matrix: {n} ranks, peak pair "
                 f"{matrix.max() / 1e6:.1f} MB (x=sender, y=receiver)")
    lines.append(header)
    for by in range(cells):
        row = []
        for bx in range(cells):
            value = down[by, bx]
            if value <= 0:
                ch = " "
            else:
                idx = int((len(_SHADES) - 1) * value / peak)
                ch = _SHADES[max(1, idx)]
            sep = "|" if mark_devices and bx in bcells else " "
            row.append(sep + ch)
        rule = "+" if mark_devices and by in bcells else "|"
        lines.append(f"{by * step:3d} {rule}" + "".join(row) + "|")
    lines.append(header)
    return "\n".join(lines)
