"""One-shot reproduction report: every artifact, one invocation.

``python -m repro.eval.report [--fast]`` renders Table I/II, Figure 2,
condensed Figure 3/4 series, the headline anchors and the SOTA
comparison to stdout — the quickest way to audit the reproduction
without running the full benchmark harness.

``--fast`` restricts the simulated grid to small inputs (seconds instead
of minutes); the printed tables say which grid was used.
"""

from __future__ import annotations

import argparse
from typing import List

from repro.baselines.multicore import MulticoreModel
from repro.core.config import ArcaneConfig
from repro.eval.area import AreaModel
from repro.eval.calibration import PAPER_ANCHORS, anchor
from repro.eval.figures import fig3_overhead_series, headline_speedups, measure_conv_layer
from repro.eval.tables import render_table
from repro.eval.throughput import ThroughputModel


def table2_section() -> str:
    model = AreaModel()
    rows = []
    for lanes in (2, 4, 8):
        config = ArcaneConfig(lanes=lanes)
        breakdown = model.arcane(config)
        rows.append([
            f"ARCANE 4 VPUs x {lanes} lanes",
            f"{breakdown.total_mm2:.2f}",
            f"{breakdown.total_kge:.0f}",
            f"+{model.overhead_percent(config):.1f}%",
        ])
    base = model.baseline()
    rows.append(["X-HEEP baseline", f"{base.total_mm2:.2f}", f"{base.total_kge:.0f}", "-"])
    return render_table(
        ["configuration", "mm2", "kGE", "overhead"], rows,
        title="Table II - synthesis area (65 nm LP model)",
    )


def fig3_section(fast: bool) -> str:
    sizes = (16, 32, 64) if fast else (16, 64, 256)
    series = fig3_overhead_series(sizes=sizes, lane_configs=(2, 8))
    rows = [
        [r["lanes"], r["size"], f"{r['preamble_pct']:.1f}%", f"{r['allocation_pct']:.1f}%",
         f"{r['compute_pct']:.1f}%", f"{r['writeback_pct']:.1f}%"]
        for r in series
    ]
    return render_table(
        ["lanes", "size", "preamble", "alloc", "compute", "writeback"], rows,
        title=f"Figure 3 - phase shares (int32 conv layer, sizes {sizes})",
    )


def fig4_section(fast: bool) -> str:
    sizes = (16, 32, 64) if fast else (16, 64, 256)
    rows = []
    for dtype in ("int8", "int32"):
        for size in sizes:
            point = measure_conv_layer(size, 3, dtype=dtype, lanes=8)
            rows.append([
                dtype, size,
                f"{point.speedup_vs_scalar:.1f}x",
                f"{point.pulp_speedup_vs_scalar:.1f}x",
                f"{point.speedup_vs_pulp:.1f}x",
            ])
    return render_table(
        ["dtype", "size", "ARCANE", "CV32E40PX", "ARCANE/PX"], rows,
        title=f"Figure 4 (condensed) - speedups vs CV32E40X, 3x3, 8 lanes, sizes {sizes}",
    )


def headline_section(fast: bool) -> str:
    if fast:
        return "(headline anchors need the 256x256 grid; rerun without --fast)"
    measured = headline_speedups()
    rows = [
        [label, f"{anchor(name).paper_value:.0f}x", f"{measured[key]:.1f}x"]
        for label, name, key in (
            ("int8 3x3 8-lane", "speedup_int8_3x3_8lane", "speedup_int8_3x3_8lane"),
            ("int8 7x7 8-lane", "speedup_int8_7x7_8lane", "speedup_int8_7x7_8lane"),
            ("multi-instance", "speedup_multi_instance", "speedup_multi_instance_3x3"),
            ("vs XCVPULP (7x7)", "speedup_vs_pulp_7x7", "speedup_vs_pulp_7x7"),
        )
    ]
    return render_table(["anchor", "paper", "measured"], rows,
                        title="Headline speedups (section V-C / VI)")


def sota_section() -> str:
    throughput = ThroughputModel()
    table = throughput.versus(ArcaneConfig(lanes=8), clock_mhz=265.0)
    rows = [
        [name, f"{vals['peak_gops']:.1f}", f"{vals['gops_per_mm2']:.1f}"]
        for name, vals in table.items()
    ]
    rows.append(["15-core CV32E40PX (theoretical)",
                 f"peak speedup {MulticoreModel().peak():.0f}x", "-"])
    return render_table(["system", "peak GOPS", "GOPS/mm2"], rows,
                        title="Section V-C - state-of-the-art comparison")


def anchors_section() -> str:
    rows = [[a.name, f"{a.paper_value:g} {a.unit}", a.source] for a in PAPER_ANCHORS]
    return render_table(["anchor", "paper value", "source"], rows,
                        title="Calibration anchors (see repro/eval/calibration.py)")


def build_report(fast: bool = True) -> str:
    sections: List[str] = [
        "ARCANE reproduction report",
        "=" * 72,
        table2_section(),
        fig3_section(fast),
        fig4_section(fast),
        headline_section(fast),
        sota_section(),
        anchors_section(),
    ]
    return "\n\n".join(sections)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true",
                        help="small simulation grid (seconds, skips 256x256 anchors)")
    args = parser.parse_args()
    print(build_report(fast=args.fast))


if __name__ == "__main__":
    main()
