"""RV32I base integer ISA: decoding tables and mnemonic catalogue.

The decoder maps a 32-bit word in a base opcode space to an
:class:`~repro.isa.instruction.Instruction`.  Encoding for the assembler
lives in :mod:`repro.isa.asm`, built on :mod:`repro.isa.fields`.
"""

from __future__ import annotations

from typing import Optional

from repro.isa import fields
from repro.isa.instruction import Instruction

# funct3 -> mnemonic for each opcode family.
_LOADS = {0b000: "lb", 0b001: "lh", 0b010: "lw", 0b100: "lbu", 0b101: "lhu"}
_STORES = {0b000: "sb", 0b001: "sh", 0b010: "sw"}
LOAD_MNEMONICS = frozenset(_LOADS.values())
STORE_MNEMONICS = frozenset(_STORES.values())
_BRANCHES = {
    0b000: "beq",
    0b001: "bne",
    0b100: "blt",
    0b101: "bge",
    0b110: "bltu",
    0b111: "bgeu",
}
BRANCH_MNEMONICS = frozenset(_BRANCHES.values())
_OP_IMM = {
    0b000: "addi",
    0b010: "slti",
    0b011: "sltiu",
    0b100: "xori",
    0b110: "ori",
    0b111: "andi",
}
_OP = {
    (0b000, 0b0000000): "add",
    (0b000, 0b0100000): "sub",
    (0b001, 0b0000000): "sll",
    (0b010, 0b0000000): "slt",
    (0b011, 0b0000000): "sltu",
    (0b100, 0b0000000): "xor",
    (0b101, 0b0000000): "srl",
    (0b101, 0b0100000): "sra",
    (0b110, 0b0000000): "or",
    (0b111, 0b0000000): "and",
}

MNEMONICS = sorted(
    LOAD_MNEMONICS
    | STORE_MNEMONICS
    | BRANCH_MNEMONICS
    | set(_OP_IMM.values())
    | set(_OP.values())
    | {"lui", "auipc", "jal", "jalr", "slli", "srli", "srai", "fence", "ecall", "ebreak"}
)


def decode_base(word: int) -> Optional[Instruction]:
    """Decode an RV32I instruction, or return None if the word is not RV32I."""
    opcode = fields.decode_opcode(word)

    if opcode == fields.OPCODE_LUI:
        ops = fields.decode_u(word)
        return Instruction("lui", word, operands=ops)
    if opcode == fields.OPCODE_AUIPC:
        ops = fields.decode_u(word)
        return Instruction("auipc", word, operands=ops)
    if opcode == fields.OPCODE_JAL:
        ops = fields.decode_j(word)
        return Instruction("jal", word, operands=ops)
    if opcode == fields.OPCODE_JALR:
        ops = fields.decode_i(word)
        if ops.pop("funct3") != 0:
            return None
        return Instruction("jalr", word, operands=ops)
    if opcode == fields.OPCODE_BRANCH:
        ops = fields.decode_b(word)
        mnemonic = _BRANCHES.get(ops.pop("funct3"))
        if mnemonic is None:
            return None
        return Instruction(mnemonic, word, operands=ops)
    if opcode == fields.OPCODE_LOAD:
        ops = fields.decode_i(word)
        mnemonic = _LOADS.get(ops.pop("funct3"))
        if mnemonic is None:
            return None
        return Instruction(mnemonic, word, operands=ops)
    if opcode == fields.OPCODE_STORE:
        ops = fields.decode_s(word)
        mnemonic = _STORES.get(ops.pop("funct3"))
        if mnemonic is None:
            return None
        return Instruction(mnemonic, word, operands=ops)
    if opcode == fields.OPCODE_OP_IMM:
        return _decode_op_imm(word)
    if opcode == fields.OPCODE_OP:
        ops = fields.decode_r(word)
        key = (ops.pop("funct3"), ops.pop("funct7"))
        mnemonic = _OP.get(key)
        if mnemonic is None:
            return None
        return Instruction(mnemonic, word, operands=ops)
    if opcode == fields.OPCODE_MISC_MEM:
        return Instruction("fence", word, operands={})
    if opcode == fields.OPCODE_SYSTEM:
        return _decode_system(word)
    return None


def _decode_op_imm(word: int) -> Optional[Instruction]:
    ops = fields.decode_i(word)
    funct3 = ops.pop("funct3")
    if funct3 == 0b001:  # slli
        funct7 = fields.bits(word, 31, 25)
        if funct7 != 0:
            return None
        return Instruction(
            "slli", word, operands={"rd": ops["rd"], "rs1": ops["rs1"], "imm": ops["imm"] & 0x1F}
        )
    if funct3 == 0b101:  # srli / srai
        funct7 = fields.bits(word, 31, 25)
        shamt = fields.bits(word, 24, 20)
        base = {"rd": ops["rd"], "rs1": ops["rs1"], "imm": shamt}
        if funct7 == 0b0000000:
            return Instruction("srli", word, operands=base)
        if funct7 == 0b0100000:
            return Instruction("srai", word, operands=base)
        return None
    mnemonic = _OP_IMM.get(funct3)
    if mnemonic is None:
        return None
    return Instruction(mnemonic, word, operands=ops)


# CSR funct3 values (Zicsr, needed for eCPU interrupt handling).
_CSR_OPS = {
    0b001: "csrrw",
    0b010: "csrrs",
    0b011: "csrrc",
    0b101: "csrrwi",
    0b110: "csrrsi",
    0b111: "csrrci",
}
CSR_MNEMONICS = frozenset(_CSR_OPS.values())


def _decode_system(word: int) -> Optional[Instruction]:
    funct3 = fields.bits(word, 14, 12)
    if funct3 == 0:
        imm12 = fields.bits(word, 31, 20)
        if imm12 == 0:
            return Instruction("ecall", word, operands={})
        if imm12 == 1:
            return Instruction("ebreak", word, operands={})
        if imm12 == 0x302:
            return Instruction("mret", word, operands={})
        if imm12 == 0x105:
            return Instruction("wfi", word, operands={})
        return None
    mnemonic = _CSR_OPS.get(funct3)
    if mnemonic is None:
        return None
    operands = {
        "rd": fields.bits(word, 11, 7),
        "rs1": fields.bits(word, 19, 15),  # register index or zimm for *i forms
        "csr": fields.bits(word, 31, 20),
    }
    return Instruction(mnemonic, word, operands=operands)
