"""Figure 4 — speedup of ARCANE vs CV32E40X and CV32E40PX.

Workload: the 3-channel conv layer across input sizes, filter sizes,
data types and ARCANE lane configurations.  ARCANE cycles come from full
system simulations; the CPU baselines from ISS-fitted cycle models.

Shape assertions (the paper's qualitative claims):

* speedup grows with input size and saturates;
* more lanes help, and help more at larger inputs / smaller dtypes;
* int8 > int16 > int32 speedups at large inputs;
* CV32E40PX sits in the single-digit range (peaking well below ARCANE);
* at large inputs ARCANE beats CV32E40PX by a wide margin.
"""

import pytest

from conftest import publish
from repro.eval.figures import fig4_speedup_series, measure_conv_layer
from repro.eval.tables import render_table

SIZES = (16, 32, 64, 128, 256)
FILTERS = (3, 7)
DTYPES = ("int8", "int32")
LANES = (2, 4, 8)


@pytest.fixture(scope="module")
def grid():
    return fig4_speedup_series(
        sizes=SIZES, filter_sizes=FILTERS, dtypes=DTYPES, lane_configs=LANES
    )


def test_fig4_speedup_grid(benchmark, grid):
    benchmark.pedantic(
        lambda: measure_conv_layer(32, 3, dtype="int8", lanes=8),
        rounds=3, iterations=1,
    )
    rows = []
    for p in grid:
        rows.append([
            p.dtype, p.k, p.size, p.lanes,
            f"{p.speedup_vs_scalar:.1f}x",
            f"{p.pulp_speedup_vs_scalar:.1f}x",
            f"{p.speedup_vs_pulp:.1f}x",
            f"{100 * p.breakdown.overhead_fraction():.0f}%",
        ])
    text = render_table(
        ["dtype", "filter", "size", "lanes", "ARCANE vs scalar",
         "CV32E40PX vs scalar", "ARCANE vs CV32E40PX", "overhead"],
        rows,
        title="Figure 4 - conv-layer speedups over CV32E40X (single instance)",
    )
    text += (
        "\npaper anchors at 256x256 int8: ARCANE 8-lane 30x (3x3) / 84x (7x7);"
        "\nCV32E40PX 5x (3x3), peak 8.6x."
    )
    publish("fig4_speedup", text)


def _points(grid, **conds):
    return [p for p in grid
            if all(getattr(p, key) == value for key, value in conds.items())]


def test_fig4_speedup_grows_then_saturates(grid):
    for lanes in LANES:
        series = sorted(_points(grid, dtype="int8", k=3, lanes=lanes),
                        key=lambda p: p.size)
        speedups = [p.speedup_vs_scalar for p in series]
        assert speedups[-1] > speedups[0]  # large inputs win
        # saturation: the last doubling gains less than the first
        gain_first = speedups[1] / speedups[0]
        gain_last = speedups[-1] / speedups[-2]
        assert gain_last < gain_first


def test_fig4_lanes_ordering_at_large_inputs(grid):
    at256 = {p.lanes: p.speedup_vs_scalar
             for p in _points(grid, dtype="int8", k=3, size=256)}
    assert at256[2] < at256[4] <= at256[8]


def test_fig4_dtype_ordering(grid):
    for lanes in LANES:
        i8 = _points(grid, dtype="int8", k=3, size=256, lanes=lanes)[0]
        i32 = _points(grid, dtype="int32", k=3, size=256, lanes=lanes)[0]
        assert i8.arcane_cycles < i32.arcane_cycles


def test_fig4_filter_sizes_same_decade(grid):
    """Known deviation: the paper reports 84x (7x7) > 30x (3x3); in this
    reproduction both filter sizes land in the same decade but the 7x7
    speedup is somewhat *lower* (compute scales with K^2 on both sides;
    the paper's 2.8x jump is not explained by its cost structure and is
    not reproduced: perfbench's paper_cnn anchor printout shows 153.8x for
    3x3 and 115.8x for 7x7 against 30x and 84x).  This test pins the
    measured relation so regressions are visible."""
    k3 = _points(grid, dtype="int8", k=3, size=256, lanes=8)[0]
    k7 = _points(grid, dtype="int8", k=7, size=256, lanes=8)[0]
    assert k7.speedup_vs_scalar > k3.speedup_vs_scalar / 3
    assert k7.speedup_vs_scalar > 30.0  # both an order of magnitude over CPU


def test_fig4_pulp_single_digit_range(grid):
    for p in grid:
        assert p.pulp_speedup_vs_scalar < 10.0  # paper peak: 8.6x


def test_fig4_arcane_beats_pulp_at_scale(grid):
    for p in _points(grid, size=256, lanes=8):
        assert p.speedup_vs_pulp > 3.0
