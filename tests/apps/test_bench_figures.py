"""Smoke tests for the figure-regeneration harness (small sizes)."""

import numpy as np
import pytest

from repro.bench import (
    PAPER_BANDS,
    fig2_protocol_timeline,
    fig6a_onchip,
    fig6b_interdevice,
    fig7_bt_scaling,
    fig8_bt_traffic,
    format_series,
    format_table,
    render_timeline,
)
from repro.vscc.schemes import CommScheme


def test_band_report_format():
    band = PAPER_BANDS["onchip_peak_mbps"]
    assert "OK" in band.report(150.0)
    assert "OFF" in band.report(500.0)
    assert band.contains(150.0) and not band.contains(10.0)


def test_format_helpers():
    table = format_table(["a", "bb"], [(1, 2.5), (30, 400.0)])
    assert "bb" in table and "400.0" in table
    series = format_series("title", [(1024, 99.5)], "MB/s")
    assert "1024" in series and "99.50" in series


def test_fig6a_small():
    series = fig6a_onchip((512, 4096), iterations=2)
    assert set(series) == {"RCCE (no pipelining)", "iRCCE pipelined"}
    for points in series.values():
        assert [p.size for p in points] == [512, 4096]
        assert all(p.throughput_mbps > 0 for p in points)


def test_fig6b_small():
    series = fig6b_interdevice(
        (4096,), iterations=2,
        schemes=(CommScheme.TRANSPARENT, CommScheme.LOCAL_PUT_LOCAL_GET_VDMA),
    )
    tr = series[CommScheme.TRANSPARENT][0].throughput_mbps
    vd = series[CommScheme.LOCAL_PUT_LOCAL_GET_VDMA][0].throughput_mbps
    assert tr < vd


def test_fig7_small():
    points = fig7_bt_scaling(
        rank_counts=(4, 9),
        schemes=(CommScheme.LOCAL_PUT_LOCAL_GET_VDMA,),
        clazz="S",
        niter=1,
        num_devices=2,
    )
    by_ranks = {p.nranks: p.gflops for p in points}
    assert by_ranks[9] > by_ranks[4]


def test_fig8_small():
    matrix, stats, rendering, scaled = fig8_bt_traffic(
        nranks=16, clazz="S", niter=1, num_devices=2
    )
    assert stats.total_bytes > 0
    assert "traffic matrix" in rendering
    assert scaled.max_pair_bytes == 200 * stats.max_pair_bytes


def test_fig8_scales_to_the_full_run_by_true_division():
    _matrix, stats, _rendering, scaled = fig8_bt_traffic(
        nranks=4, clazz="S", niter=3, num_devices=2
    )
    assert scaled.max_pair_bytes == stats.max_pair_bytes * 200 / 3


def test_fig8_rejects_nonpositive_niter():
    with pytest.raises(ValueError, match="niter"):
        fig8_bt_traffic(nranks=4, clazz="S", niter=0, num_devices=2)


def test_fig2_timeline_records_and_render():
    [timing] = fig2_protocol_timeline((8192,))
    art = render_timeline(timing.pipelined_records)
    assert "P" in art and "G" in art
    assert render_timeline([]) == "(no protocol records)"
