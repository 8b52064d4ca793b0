"""Per-instruction cycle-timing models for the CV32E40X and CV32E40PX.

Both cores are 4-stage in-order pipelines (IF/ID/EX/WB) issuing at most
one instruction per cycle, so dynamic cycle count is the sum of
per-instruction latencies plus control-flow penalties:

* ALU / packed-SIMD / MAC instructions: 1 cycle;
* loads/stores: 1 cycle against single-cycle local SRAM, plus any memory
  wait states the platform model charges separately;
* taken branches flush the two fetch stages (+2 cycles); not-taken
  branches are 1 cycle; jumps pay +1;
* multiplies: ``mul`` is single-cycle, the ``mulh*`` family takes 5;
* divides are iterative (3-35 cycles); we charge the documented mean;
* hardware-loop end-of-body branches are free (that is their point) —
  the ISS accounts for this in :mod:`repro.cpu.core`, not here.

These numbers come from the CV32E40X/CV32E40P user manuals and are the
calibration anchors for the analytical baseline models
(:mod:`repro.eval.calibration`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.isa import rv32i, xcvpulp

#: every memory-access mnemonic, taken from the decoders' own tables
LOAD_MNEMONICS = rv32i.LOAD_MNEMONICS | xcvpulp.POSTINC_LOAD_MNEMONICS
STORE_MNEMONICS = rv32i.STORE_MNEMONICS | xcvpulp.POSTINC_STORE_MNEMONICS


@dataclass(frozen=True)
class TimingModel:
    """Cycle cost lookup for one core configuration."""

    name: str
    default_cycles: int = 1
    taken_branch_penalty: int = 2
    jump_penalty: int = 1
    load_cycles: int = 1
    store_cycles: int = 1
    special: Dict[str, int] = field(default_factory=dict)

    def cycles_for(self, mnemonic: str) -> int:
        """Base cycles for ``mnemonic`` (penalties applied by the core)."""
        if mnemonic in self.special:
            return self.special[mnemonic]
        if mnemonic in LOAD_MNEMONICS:
            return self.load_cycles
        if mnemonic in STORE_MNEMONICS:
            return self.store_cycles
        return self.default_cycles


_MULH_CYCLES = 5
_DIV_CYCLES = 18  # mid-range of the 3-35 iterative divider

CV32E40X_TIMING = TimingModel(
    name="cv32e40x",
    special={
        "mulh": _MULH_CYCLES,
        "mulhu": _MULH_CYCLES,
        "mulhsu": _MULH_CYCLES,
        "div": _DIV_CYCLES,
        "divu": _DIV_CYCLES,
        "rem": _DIV_CYCLES,
        "remu": _DIV_CYCLES,
    },
)

# The PX core shares the base pipeline; XCVPULP ops are single-cycle,
# including post-increment memory ops and packed dot products.
CV32E40PX_TIMING = TimingModel(
    name="cv32e40px",
    special=dict(CV32E40X_TIMING.special),
)
