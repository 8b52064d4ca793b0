"""Calibration constants: provenance and paper anchors.

Every number the simulation cannot derive from first principles is set
here (or in the config defaults it documents), with the paper anchor it
targets.  The repository benchmark prints paper-vs-measured for each
anchor and their RMS log error (``python3 perfbench/run.py --workload
paper_cnn``: the ``anchor.*`` lines and ``anchor_err``).

===========================  ==========================================
Constant                     Provenance
===========================  ==========================================
CV32E40X timing              CV32E40X user manual (1 IPC, 2-cycle taken-
                             branch penalty, iterative divider)
XCVPULP op timing            CV32E40P manual: single-cycle SIMD/MAC,
                             zero-overhead hardware loops
VPU throughput               NM-Carus: ``lanes`` 32-bit lanes, sub-word
                             SIMD packing (4/2/1 elems per lane for
                             b/h/w), small per-instruction startup
``issue_cycles = 24``        eCPU software dispatch loop per vector
                             instruction.  Not a fit: single-instance
                             int8 256x256 speedups measure 153.8x (3x3)
                             and 115.8x (7x7) against the paper's 30x
                             and 84x; ``anchor_err`` over all anchors is
                             0.7146
``offchip_latency = 80``     external flash/PSRAM burst penalty; sets
                             the allocation-phase share near Figure 3's
                             saturation levels
DecodeCosts (60/180/40/600)  C-RT interrupt entry / xmr bind / library
                             lookup / kernel preamble in eCPU cycles.
                             Not a fit either: ``paper_cnn`` measures a
                             preamble share of 33.6 % at small and
                             2.40 % at large inputs against Figure 3's
                             60 % and 2.89 %; the falling trend holds.
                             Refitting waits on ROADMAP item 3 (set
                             last, since every slower phase lowers it)
Area model coefficients      solved exactly from Table II (see
                             :mod:`repro.eval.area`)
Multicore alpha = 0.052      back-solved from the paper's "theoretical
                             speedup peaks at 75x" for ~15 cores
===========================  ==========================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Anchor:
    """One paper-reported number the reproduction is checked against."""

    name: str
    paper_value: float
    unit: str
    source: str  # where in the paper
    tolerance_note: str = ""


PAPER_ANCHORS: Tuple[Anchor, ...] = (
    Anchor("speedup_int8_3x3_8lane", 30.0, "x vs CV32E40X",
           "section V-C: 256x256 int8, 3x3 filters, 8-lane"),
    Anchor("speedup_int8_7x7_8lane", 84.0, "x vs CV32E40X",
           "section VI: 256x256x3 int8, 7x7 filter"),
    Anchor("speedup_pulp_int8_3x3", 5.0, "x vs CV32E40X",
           "section V-C: CV32E40PX at 256x256 int8 3x3"),
    Anchor("pulp_peak_speedup", 8.6, "x vs CV32E40X",
           "section V-C: CV32E40PX scaling peak"),
    Anchor("speedup_multi_instance", 120.0, "x vs CV32E40X",
           "section V-C: 4 VPUs x 8 lanes multi-instance mode"),
    Anchor("speedup_vs_pulp_7x7", 16.0, "x vs CV32E40PX",
           "section VI: 256x256x3 int8, 7x7 filter"),
    Anchor("area_overhead_8lane", 41.3, "% vs X-HEEP",
           "abstract / Table II"),
    Anchor("area_overhead_4lane", 28.3, "% vs X-HEEP", "Table II"),
    Anchor("area_overhead_2lane", 21.7, "% vs X-HEEP", "Table II"),
    Anchor("peak_throughput", 17.0, "GOPS @ 265 MHz",
           "section V-C (= 4 VPUs x 8 lanes x 2 OP x f)"),
    Anchor("overhead_saturation", 20.0, "% non-compute at large inputs",
           "section V-B / Figure 3 (int32 worst case)"),
    Anchor("preamble_small_input", 60.0, "% of total at small inputs",
           "section V-B / Figure 3"),
    Anchor("preamble_large_input", 2.89, "% of total at large inputs",
           "section V-B / Figure 3"),
    Anchor("multicore_theoretical_peak", 75.0, "x vs CV32E40X",
           "section V-C: 15-core CV32E40PX ceiling"),
)


def anchor(name: str) -> Anchor:
    for entry in PAPER_ANCHORS:
        if entry.name == name:
            return entry
    raise KeyError(f"unknown anchor {name!r}")
