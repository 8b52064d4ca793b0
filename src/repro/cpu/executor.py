"""Functional semantics of every instruction the ISS supports, as translators.

The ISS decodes each instruction once.  :func:`translate` turns a decoded
:class:`~repro.isa.instruction.Instruction` at a fixed PC into a
zero-argument *handler*: a closure specialised to that instruction's
fields, with register indices, immediates, the PC-relative targets and
the memory accessor captured as locals.  Calling the handler mutates the
architectural state (registers, memory, CSRs, hardware-loop state) and
returns the next PC when the instruction redirects control flow, or
``None`` for sequential execution.  Timing is *not* handled here —
:mod:`repro.cpu.core` charges cycles.

Handlers write the register file's backing list directly: results are
wrapped to 32 bits inline, and an instruction whose only effect is a
write to ``x0`` translates to a no-op (loads still access memory, so a
load to ``x0`` can still fault).  They capture the register list, CSR
file, hardware-loop records and memory accessors they use, never the
CPU itself (only the xmnmc offload calls back into it), so a core and
its translation cache form no reference cycle; :meth:`Cpu.reset
<repro.cpu.core.Cpu.reset>` replaces that state and clears the cache
together.  Every mnemonic the decoder emits has exactly one entry in
:data:`_BUILDERS`.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.cpu import csr as csrdefs
from repro.cpu.csr import CsrFile
from repro.isa import xcvpulp, xmnmc
from repro.utils.fixedint import (
    div_signed,
    div_unsigned,
    mulh_signed,
    mulh_signed_unsigned,
    mulh_unsigned,
    rem_signed,
    rem_unsigned,
    sat,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cpu.core import Cpu
    from repro.isa.instruction import Instruction

M32 = 0xFFFFFFFF
_SIGN = 0x80000000

#: ``handler() -> next PC or None``
Handler = Callable[[], Optional[int]]
#: ``build(instruction, pc, register list, cpu) -> handler``
Builder = Callable[["Instruction", int, List[int], "Cpu"], Handler]


class EcallTrap(Exception):
    """Raised on ``ecall`` so the embedding environment can service it."""


class EbreakHalt(Exception):
    """Raised on ``ebreak`` — the ISS convention for 'program finished'."""


def translate(cpu: "Cpu", instr: "Instruction", pc: int) -> Handler:
    """Build the handler that executes ``instr`` (fetched at ``pc``) on ``cpu``."""
    return _BUILDERS[instr.mnemonic](instr, pc, cpu.regs._regs, cpu)


def _nop() -> None:
    return None


def _signed(value: int) -> int:
    return (value ^ _SIGN) - _SIGN


# ---- register-writing ALU forms ------------------------------------------


def _reg_reg(op: Callable[[int, int], int]) -> Builder:
    """``rd = op(rs1, rs2)`` over unsigned 32-bit register values."""

    def build(ins, pc, r, cpu):
        rd, rs1, rs2 = ins.rd, ins.rs1, ins.rs2
        if not rd:
            return _nop

        def handler():
            r[rd] = op(r[rs1], r[rs2]) & M32

        return handler

    return build


def _reg_acc(op: Callable[[int, int, int], int]) -> Builder:
    """``rd = op(rd, rs1, rs2)``: accumulating forms that read ``rd``."""

    def build(ins, pc, r, cpu):
        rd, rs1, rs2 = ins.rd, ins.rs1, ins.rs2
        if not rd:
            return _nop

        def handler():
            r[rd] = op(r[rd], r[rs1], r[rs2]) & M32

        return handler

    return build


def _reg_imm(op: Callable[[int, int], int], operand: Callable[[int], int] = int) -> Builder:
    """``rd = op(rs1, operand(imm))``; ``operand`` prepares the immediate once
    at translation (by default it is used as decoded)."""

    def build(ins, pc, r, cpu):
        rd, rs1, k = ins.rd, ins.rs1, operand(ins.imm)
        if not rd:
            return _nop

        def handler():
            r[rd] = op(r[rs1], k) & M32

        return handler

    return build


def _constant(value_at: Callable[[int, int], int]) -> Builder:
    """``rd = value_at(pc, imm)``: ``lui``/``auipc`` write a translation-time constant."""

    def build(ins, pc, r, cpu):
        rd, value = ins.rd, value_at(pc, ins.imm) & M32
        if not rd:
            return _nop

        def handler():
            r[rd] = value

        return handler

    return build


def _wrapped_imm(imm: int) -> int:
    return imm & M32


def _shamt(imm: int) -> int:
    return imm & 0x1F


# ---- control flow ----------------------------------------------------------


def _branch(taken: Callable[[int, int], bool]) -> Builder:
    def build(ins, pc, r, cpu):
        rs1, rs2, target = ins.rs1, ins.rs2, (pc + ins.imm) & M32

        def handler():
            if taken(r[rs1], r[rs2]):
                return target
            return None

        return handler

    return build


def _jal(ins, pc, r, cpu):
    rd, link, target = ins.rd, (pc + ins.length) & M32, (pc + ins.imm) & M32

    def handler():
        if rd:
            r[rd] = link
        return target

    return handler


def _jalr(ins, pc, r, cpu):
    rd, rs1, imm, link = ins.rd, ins.rs1, ins.imm, (pc + ins.length) & M32

    def handler():
        target = (r[rs1] + imm) & 0xFFFFFFFE
        if rd:
            r[rd] = link
        return target

    return handler


# ---- memory ----------------------------------------------------------------
#
# Loaded values are sign-extended as ``((value ^ sign) - sign) & M32`` with
# ``sign = 0`` for the unsigned forms, so every load width shares one shape.


def _reader(cpu: "Cpu", width: int) -> Callable[[int], int]:
    memory = cpu.memory
    return {1: memory.read_u8, 2: memory.read_u16, 4: memory.read_u32}[width]


def _writer(cpu: "Cpu", width: int) -> Callable[[int, int], None]:
    memory = cpu.memory
    return {1: memory.write_u8, 2: memory.write_u16, 4: memory.write_u32}[width]


def _load(width: int, signed: bool = False) -> Builder:
    sign = 1 << (8 * width - 1) if signed else 0

    def build(ins, pc, r, cpu):
        rd, rs1, imm, read = ins.rd, ins.rs1, ins.imm, _reader(cpu, width)

        def handler():
            value = read((r[rs1] + imm) & M32)
            if rd:
                r[rd] = ((value ^ sign) - sign) & M32

        return handler

    return build


def _store(width: int) -> Builder:
    def build(ins, pc, r, cpu):
        rs1, rs2, imm, write = ins.rs1, ins.rs2, ins.imm, _writer(cpu, width)

        def handler():
            write((r[rs1] + imm) & M32, r[rs2])

        return handler

    return build


def _load_postinc(width: int, signed: bool = False) -> Builder:
    """XCVPULP ``cv.l*``: load from ``rs1``, then ``rs1 += imm`` (wins over ``rd == rs1``)."""
    sign = 1 << (8 * width - 1) if signed else 0

    def build(ins, pc, r, cpu):
        rd, rs1, imm, read = ins.rd, ins.rs1, ins.imm, _reader(cpu, width)

        def handler():
            address = r[rs1]
            value = read(address)
            if rd:
                r[rd] = ((value ^ sign) - sign) & M32
            if rs1:
                r[rs1] = (address + imm) & M32

        return handler

    return build


def _store_postinc(width: int) -> Builder:
    def build(ins, pc, r, cpu):
        rs1, rs2, imm, write = ins.rs1, ins.rs2, ins.imm, _writer(cpu, width)

        def handler():
            address = r[rs1]
            write(address, r[rs2])
            if rs1:
                r[rs1] = (address + imm) & M32

        return handler

    return build


# ---- XCVPULP hardware loops ------------------------------------------------


def _starti(ins, pc, r, cpu):
    loop, start = cpu.hwloop[ins.operand("loop")], (pc + 2 * ins.imm) & M32

    def handler():
        loop.start = start

    return handler


def _endi(ins, pc, r, cpu):
    loop, end = cpu.hwloop[ins.operand("loop")], (pc + 2 * ins.imm) & M32

    def handler():
        loop.end = end

    return handler


def _counti(ins, pc, r, cpu):
    loop, count = cpu.hwloop[ins.operand("loop")], ins.imm & M32

    def handler():
        loop.count = count

    return handler


def _count(ins, pc, r, cpu):
    loop, rs1 = cpu.hwloop[ins.operand("loop")], ins.rs1

    def handler():
        loop.count = r[rs1]

    return handler


def _setup(ins, pc, r, cpu):
    """``cv.setup``: count from ``rs1``; the body starts at the next instruction."""
    loop, rs1 = cpu.hwloop[ins.operand("loop")], ins.rs1
    start, end = (pc + ins.length) & M32, (pc + 2 * ins.imm) & M32

    def handler():
        loop.count, loop.start, loop.end = r[rs1], start, end

    return handler


def _setupi(ins, pc, r, cpu):
    """``cv.setupi``: count in ``imm[11:5]``, end offset in ``imm[4:0]``."""
    loop, count = cpu.hwloop[ins.operand("loop")], (ins.imm >> 5) & 0x7F
    start, end = (pc + ins.length) & M32, (pc + 2 * (ins.imm & 0x1F)) & M32

    def handler():
        loop.count, loop.start, loop.end = count, start, end

    return handler


# ---- XCVPULP packed SIMD ---------------------------------------------------


def _simd(base: str, width: int) -> Builder:
    """One ``pv.<base>.<b|h>`` form.  Its lane op is made when an instruction
    is translated, so importing the table builds none of the 38 variants."""

    def build(ins, pc, r, cpu):
        return _reg_acc(_simd_op(base, width))(ins, pc, r, cpu)

    return build


def _simd_op(base: str, width: int) -> Callable[[int, int, int], int]:
    """``op(rd, rs1, rs2)`` for ``pv.<base>``; ``.sc`` forms replicate lane 0 of ``rs2``."""
    mask, sign, count = (1 << width) - 1, 1 << (width - 1), 32 // width
    shifts = tuple(range(0, 32, width))
    scalar = base.endswith(".sc")
    base = base[:-3] if scalar else base

    def lanes(value):
        return [((value >> s & mask) ^ sign) - sign for s in shifts]

    def ulanes(value):
        return [value >> s & mask for s in shifts]

    def pack(values):
        word = 0
        for s, value in zip(shifts, values):
            word |= (value & mask) << s
        return word

    def second(value):
        if scalar:
            return [((value & mask) ^ sign) - sign] * count
        return lanes(value)

    def lanewise(fn):
        return lambda d, a, b: pack(map(fn, lanes(a), second(b)))

    def insert(d, a, b):
        dest = lanes(d)
        dest[b % count] = ((a & mask) ^ sign) - sign
        return pack(dest)

    ops = {
        "pv.add": lanewise(operator.add),
        "pv.sub": lanewise(operator.sub),
        "pv.avg": lanewise(lambda x, y: (x + y) >> 1),
        "pv.min": lanewise(min),
        "pv.max": lanewise(max),
        "pv.and": lambda d, a, b: a & b,
        "pv.or": lambda d, a, b: a | b,
        "pv.xor": lambda d, a, b: a ^ b,
        "pv.dotsp": lambda d, a, b: sum(map(operator.mul, lanes(a), second(b))),
        "pv.dotup": lambda d, a, b: sum(map(operator.mul, ulanes(a), ulanes(b))),
        "pv.sdotsp": lambda d, a, b: d + sum(map(operator.mul, lanes(a), second(b))),
        "pv.sdotup": lambda d, a, b: d + sum(map(operator.mul, ulanes(a), ulanes(b))),
        "pv.extract": lambda d, a, b: lanes(a)[b % count],
        "pv.insert": insert,
        "pv.shuffle2": lambda d, a, b: pack(lanes(a)[s % count] for s in ulanes(b)),
    }
    return ops[base]


# ---- system ----------------------------------------------------------------


def _csr(update: Optional[Callable[[CsrFile, int, int], int]], immediate: bool) -> Builder:
    """Zicsr: ``rd = csr``, then write (``update`` None) or set/clear with
    ``rs1``'s value or the zimm.  Set and clear skip the update when the
    source *index* is zero.
    """

    def build(ins, pc, r, cpu):
        rd, source, address, csrs = ins.rd, ins.rs1, ins.operand("csr"), cpu.csrs

        def handler():
            old = csrs.read(address)
            value = source if immediate else r[source]
            if update is None:
                csrs.write(address, value)
            elif source:
                update(csrs, address, value)
            if rd:
                r[rd] = old

        return handler

    return build


def _mret(ins, pc, r, cpu):
    csrs = cpu.csrs

    def handler():
        csrs.set_bits(csrdefs.MSTATUS, 1 << csrdefs.MSTATUS_MIE_BIT)
        return csrs.read(csrdefs.MEPC)

    return handler


def _raise(error: type) -> Builder:
    def build(ins, pc, r, cpu):
        def handler():
            raise error()

        return handler

    return build


def _offload(ins, pc, r, cpu):
    """xmnmc instructions are offloaded to the coprocessor, not executed here."""

    def handler():
        cpu.offload_matrix_instruction(ins)

    return handler


_BUILDERS: Dict[str, Builder] = {
    # RV32I register-immediate
    "addi": _reg_imm(operator.add),
    "andi": _reg_imm(operator.and_, _wrapped_imm),
    "ori": _reg_imm(operator.or_, _wrapped_imm),
    "xori": _reg_imm(operator.xor, _wrapped_imm),
    "slti": _reg_imm(lambda a, k: _signed(a) < k),
    "sltiu": _reg_imm(operator.lt, _wrapped_imm),
    "slli": _reg_imm(operator.lshift, _shamt),
    "srli": _reg_imm(operator.rshift, _shamt),
    "srai": _reg_imm(lambda a, k: _signed(a) >> k, _shamt),
    # RV32I register-register
    "add": _reg_reg(operator.add),
    "sub": _reg_reg(operator.sub),
    "and": _reg_reg(operator.and_),
    "or": _reg_reg(operator.or_),
    "xor": _reg_reg(operator.xor),
    "sll": _reg_reg(lambda a, b: a << (b & 0x1F)),
    "srl": _reg_reg(lambda a, b: a >> (b & 0x1F)),
    "sra": _reg_reg(lambda a, b: _signed(a) >> (b & 0x1F)),
    "slt": _reg_reg(lambda a, b: _signed(a) < _signed(b)),
    "sltu": _reg_reg(operator.lt),
    # RV32M (the low product word does not depend on operand signedness)
    "mul": _reg_reg(operator.mul),
    "mulh": _reg_reg(mulh_signed),
    "mulhu": _reg_reg(mulh_unsigned),
    "mulhsu": _reg_reg(mulh_signed_unsigned),
    "div": _reg_reg(div_signed),
    "divu": _reg_reg(div_unsigned),
    "rem": _reg_reg(rem_signed),
    "remu": _reg_reg(rem_unsigned),
    # upper immediates and control flow
    "lui": _constant(lambda pc, imm: imm << 12),
    "auipc": _constant(lambda pc, imm: pc + (imm << 12)),
    "jal": _jal,
    "jalr": _jalr,
    "beq": _branch(operator.eq),
    "bne": _branch(operator.ne),
    "blt": _branch(lambda a, b: _signed(a) < _signed(b)),
    "bge": _branch(lambda a, b: _signed(a) >= _signed(b)),
    "bltu": _branch(operator.lt),
    "bgeu": _branch(operator.ge),
    # loads and stores
    "lw": _load(4),
    "lh": _load(2, signed=True),
    "lhu": _load(2),
    "lb": _load(1, signed=True),
    "lbu": _load(1),
    "sw": _store(4),
    "sh": _store(2),
    "sb": _store(1),
    # XCVPULP post-increment memory
    "cv.lw": _load_postinc(4),
    "cv.lh": _load_postinc(2, signed=True),
    "cv.lhu": _load_postinc(2),
    "cv.lb": _load_postinc(1, signed=True),
    "cv.lbu": _load_postinc(1),
    "cv.sw": _store_postinc(4),
    "cv.sh": _store_postinc(2),
    "cv.sb": _store_postinc(1),
    # XCVPULP hardware loops
    "cv.starti": _starti,
    "cv.endi": _endi,
    "cv.counti": _counti,
    "cv.count": _count,
    "cv.setup": _setup,
    "cv.setupi": _setupi,
    # XCVPULP scalar DSP (mac/msu wrap identically signed or unsigned)
    "cv.mac": _reg_acc(lambda d, a, b: d + a * b),
    "cv.msu": _reg_acc(lambda d, a, b: d - a * b),
    "cv.min": _reg_reg(lambda a, b: min(_signed(a), _signed(b))),
    "cv.max": _reg_reg(lambda a, b: max(_signed(a), _signed(b))),
    "cv.minu": _reg_reg(min),
    "cv.maxu": _reg_reg(max),
    "cv.abs": _reg_reg(lambda a, b: abs(_signed(a))),
    "cv.clip": _reg_reg(lambda a, b: sat(_signed(a), (b & 0x1F) or 1, signed=True)),
    # Zicsr and system
    "csrrw": _csr(None, immediate=False),
    "csrrs": _csr(CsrFile.set_bits, immediate=False),
    "csrrc": _csr(CsrFile.clear_bits, immediate=False),
    "csrrwi": _csr(None, immediate=True),
    "csrrsi": _csr(CsrFile.set_bits, immediate=True),
    "csrrci": _csr(CsrFile.clear_bits, immediate=True),
    "mret": _mret,
    "ecall": _raise(EcallTrap),
    "ebreak": _raise(EbreakHalt),
    "fence": lambda ins, pc, r, cpu: _nop,
    "wfi": lambda ins, pc, r, cpu: _nop,
}
# XCVPULP packed SIMD: every base (including the .sc forms) at both widths
for _base in xcvpulp.SIMD_BASES:
    _BUILDERS[f"{_base}.b"] = _simd(_base, 8)
    _BUILDERS[f"{_base}.h"] = _simd(_base, 16)
# xmnmc: xmr and every software-decoded kernel slot, at every element size
for _suffix in xmnmc.SIZE_SUFFIXES:
    _BUILDERS[f"xmr.{_suffix}"] = _offload
    for _func5 in range(xmnmc.MAX_KERNEL_FUNC5 + 1):
        _BUILDERS[f"xmk{_func5}.{_suffix}"] = _offload
#: the mnemonics whose handler calls out to the attached coprocessor
OFFLOAD_MNEMONICS = frozenset(m for m, build in _BUILDERS.items() if build is _offload)
