"""XCVPULP custom extension subset (CV32E40PX baseline of the paper).

The paper's strongest CPU baseline is the CV32E40PX, a CV32E40P-derived
core with the XCVPULP DSP extensions: hardware loops, post-increment
memory accesses, scalar MAC/clip and 8/16-bit packed-SIMD arithmetic
including dot products.  Those are exactly the features that buy the
paper's reported 5-8.6x speedup over plain RV32IMC on convolutions, so we
implement the subset a convolution kernel needs.

Encoding note (documented substitution): the official XCVPULP encodings
spread across several major opcodes with non-trivial sub-fields.  Since
this repo is both the producer (assembler) and consumer (ISS) of machine
code, we re-house the subset in the Custom-0 (0x0b, post-increment
memory), Custom-1 (0x2b, hardware loops + scalar DSP) and Custom-3 (0x7b,
packed SIMD) spaces with regular R/I-type layouts.  Semantics and timing
follow the CORE-V specification; only the bit layout differs.
"""

from __future__ import annotations

from typing import Optional

from repro.isa import fields
from repro.isa.instruction import Instruction

# --- Custom-0 (0x0b): post-increment loads/stores ------------------------
# Loads are I-type (rd, imm(rs1!)) with funct3 in _POSTINC_LOADS; stores
# are S-type (rs2, imm(rs1!)) and get their own funct3 values 0b110 (sb),
# 0b111 (sh) and 0b011 (sw) so the two never collide.
_POSTINC_LOADS = {0b000: "cv.lb", 0b001: "cv.lh", 0b010: "cv.lw", 0b100: "cv.lbu", 0b101: "cv.lhu"}
_POSTINC_STORE_F3 = {0b110: "cv.sb", 0b111: "cv.sh", 0b011: "cv.sw"}
POSTINC_LOAD_MNEMONICS = frozenset(_POSTINC_LOADS.values())
POSTINC_STORE_MNEMONICS = frozenset(_POSTINC_STORE_F3.values())

# --- Custom-1 (0x2b): hardware loops + scalar DSP ------------------------
# Hardware loops are I-type: funct3 selects the operation, rd selects the
# loop index (0 or 1).
HWLOOP_F3 = {
    0b000: "cv.starti",  # loop start = pc + imm*2
    0b001: "cv.endi",  # loop end = pc + imm*2
    0b010: "cv.counti",  # loop count = uimm
    0b011: "cv.count",  # loop count = rs1
    0b100: "cv.setup",  # count = rs1, end = pc + imm*2, start = next pc
    0b101: "cv.setupi",  # count = imm[11:5], end = pc + imm[4:0]*2
}
HWLOOP_MNEMONICS = frozenset(HWLOOP_F3.values())
# Scalar DSP in Custom-1 R-type, funct3=0b110, funct7 selects:
_SCALAR_DSP_F7 = {
    0b0000000: "cv.mac",  # rd += rs1 * rs2 (signed 32-bit)
    0b0000001: "cv.msu",  # rd -= rs1 * rs2
    0b0000010: "cv.min",
    0b0000011: "cv.max",
    0b0000100: "cv.abs",
    0b0000101: "cv.clip",  # clip rs1 to +-2^(rs2-1)
    0b0000110: "cv.minu",
    0b0000111: "cv.maxu",
}

# --- Custom-3 (0x7b): packed SIMD -----------------------------------------
# R-type; funct3 = 0 for .b (four int8 lanes), 1 for .h (two int16 lanes);
# funct7 selects the operation.  .sc (scalar-replicated) variants take the
# scalar in rs2.
_SIMD_F7 = {
    0b0000000: "pv.add",
    0b0000001: "pv.sub",
    0b0000010: "pv.avg",
    0b0000011: "pv.min",
    0b0000100: "pv.max",
    0b0000101: "pv.and",
    0b0000110: "pv.or",
    0b0000111: "pv.xor",
    0b0001000: "pv.dotsp",  # rd  = sum(rs1[i] * rs2[i]), signed lanes
    0b0001001: "pv.dotup",  # unsigned lanes
    0b0001010: "pv.sdotsp",  # rd += sum(rs1[i] * rs2[i])  (the conv workhorse)
    0b0001011: "pv.sdotup",
    0b0001100: "pv.extract",  # rd = sext(rs1[lane rs2])
    0b0001101: "pv.insert",  # rd[lane rs2] = rs1 (read-modify-write rd)
    0b0001110: "pv.add.sc",
    0b0001111: "pv.sub.sc",
    0b0010000: "pv.max.sc",
    0b0010001: "pv.min.sc",
    0b0010010: "pv.shuffle2",
}

#: packed-SIMD base mnemonics (each exists with a .b and a .h suffix)
SIMD_BASES = tuple(_SIMD_F7.values())

MNEMONICS = sorted(
    POSTINC_LOAD_MNEMONICS
    | POSTINC_STORE_MNEMONICS
    | HWLOOP_MNEMONICS
    | set(_SCALAR_DSP_F7.values())
    | {f"{m}.{s}" for m in SIMD_BASES for s in ("b", "h")}
)


def simd_funct7(base_mnemonic: str) -> int:
    """Reverse lookup: ``"pv.add"`` -> funct7 (used by the assembler)."""
    for funct7, name in _SIMD_F7.items():
        if name == base_mnemonic:
            return funct7
    raise KeyError(base_mnemonic)


def scalar_dsp_funct7(mnemonic: str) -> int:
    for funct7, name in _SCALAR_DSP_F7.items():
        if name == mnemonic:
            return funct7
    raise KeyError(mnemonic)


def hwloop_funct3(mnemonic: str) -> int:
    for funct3, name in HWLOOP_F3.items():
        if name == mnemonic:
            return funct3
    raise KeyError(mnemonic)


def postinc_funct3(mnemonic: str) -> int:
    for funct3, name in _POSTINC_LOADS.items():
        if name == mnemonic:
            return funct3
    for funct3, name in _POSTINC_STORE_F3.items():
        if name == mnemonic:
            return funct3
    raise KeyError(mnemonic)


def decode_xcvpulp(word: int) -> Optional[Instruction]:
    """Decode an XCVPULP-subset instruction, or None."""
    opcode = fields.decode_opcode(word)

    if opcode == fields.OPCODE_CUSTOM_0:
        ops = fields.decode_i(word)
        funct3 = ops.pop("funct3")
        mnemonic = _POSTINC_LOADS.get(funct3)
        if mnemonic is not None:
            return Instruction(mnemonic, word, extension="xcvpulp", operands=ops)
        mnemonic = _POSTINC_STORE_F3.get(funct3)
        if mnemonic is not None:
            store_ops = fields.decode_s(word)
            store_ops.pop("funct3")
            return Instruction(mnemonic, word, extension="xcvpulp", operands=store_ops)
        return None

    if opcode == fields.OPCODE_CUSTOM_1:
        funct3 = fields.bits(word, 14, 12)
        if funct3 in HWLOOP_F3:
            ops = fields.decode_i(word)
            ops.pop("funct3")
            ops["loop"] = ops.pop("rd") & 1
            return Instruction(HWLOOP_F3[funct3], word, extension="xcvpulp", operands=ops)
        if funct3 == 0b110:
            ops = fields.decode_r(word)
            ops.pop("funct3")
            mnemonic = _SCALAR_DSP_F7.get(ops.pop("funct7"))
            if mnemonic is None:
                return None
            return Instruction(mnemonic, word, extension="xcvpulp", operands=ops)
        return None

    if opcode == fields.OPCODE_CUSTOM_3:
        ops = fields.decode_r(word)
        funct3 = ops.pop("funct3")
        if funct3 not in (0, 1):
            return None
        suffix = "b" if funct3 == 0 else "h"
        base = _SIMD_F7.get(ops.pop("funct7"))
        if base is None:
            return None
        return Instruction(f"{base}.{suffix}", word, extension="xcvpulp", operands=ops)

    return None
