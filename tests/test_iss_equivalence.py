"""Bit-exactness of the predecoded ISS against pinned reference results.

Two layers are pinned, both captured from the per-retired-instruction
interpreter that the translator replaced:

* **per mnemonic** — every mnemonic the decoder can emit (RV32IMC,
  Zicsr, every XCVPULP form including all ``pv.*`` ``.b``/``.h``/``.sc``
  variants and the hardware-loop set-up instructions, xmnmc offloads)
  runs one step from a fixed architectural state, under two timing/wait
  state configurations.  Registers, memory, ``pc``, ``cycles``,
  ``instret``, hardware-loop and CSR state, offload requests and any
  raised exception must match ``data/iss_reference.json``.  A few short
  programs (nested hardware loops, a jump onto a loop end, an interrupt
  taken mid-loop) run to completion the same way;
* **calibration** — the 32 ISS runs behind the baseline cycle models keep
  their ``(cycles, output bytes)`` and the 4 fitted coefficient vectors
  stay bit-identical.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.baselines import models
from repro.cpu import csr as csrdefs
from repro.cpu.core import Cpu, IllegalInstruction
from repro.cpu.csr import CsrFile
from repro.cpu.executor import EbreakHalt, EcallTrap
from repro.cpu.timing import CV32E40PX_TIMING, CV32E40X_TIMING
from repro.isa import fields, xcvpulp, xmnmc
from repro.isa.asm import assemble
from repro.isa.decode import decode
from repro.mem.memory import MainMemory, MainMemoryError

REFERENCE_PATH = pathlib.Path(__file__).parent / "data" / "iss_reference.json"

PC0 = 0x100
DATA = 0x1000
MEMORY_BYTES = 0x2000

#: x0..x31 at the start of every case: pointers into the data region
#: (x2, x8, x9, x19), sign/overflow edges, packed-lane patterns, shift and
#: clip amounts, lane selectors and (odd) jump targets.
REG_INIT = (
    0x00000000, 0x00000124, 0x00001080, 0xFFFFFFFF,
    0x80000000, 0x7FFFFFFF, 0x12345678, 0x00000003,
    0x00001040, 0x00001044, 0xFFFFFFF9, 0x0000001F,
    0x8081FF7F, 0x7F80017F, 0x00010002, 0xFFFF8000,
    0x00000005, 0x000000FF, 0x0000000B, 0x00001010,
    0x00000000, 0xDEADBEEF, 0x00000002, 0x00000010,
    0x00000007, 0x03020100, 0x00000101, 0x0000011C,
    0x000001C3, 0x0000FFFF, 0xFFFFFF80, 0x00000020,
)
CSR_INIT = {csrdefs.MEPC: 0x180, csrdefs.MTVEC: 0x1C1, csrdefs.MSCRATCH: 0x5A5A0F0F}
CSR_WATCH = (*sorted(csrdefs._KNOWN), 0x7C0)

#: (rd, rs1, rs2): plain, x0 destination, rd == rs1, overflow edge,
#: x0 source, and a lane/selector-heavy mix
RRR = ((10, 12, 13), (0, 6, 21), (12, 12, 10), (11, 4, 3), (14, 5, 0), (13, 15, 30))
SHIFT_RRR = ((10, 12, 11), (11, 3, 18), (12, 6, 31), (13, 4, 10), (0, 6, 11))
DIV_RRR = ((10, 6, 7), (11, 4, 3), (12, 6, 0), (13, 10, 16), (0, 6, 7), (16, 16, 10))
SIMD_RRR = ((10, 12, 13), (0, 12, 13), (13, 13, 12), (11, 21, 25), (14, 6, 24), (15, 30, 15))
DSP_RRR = ((10, 12, 13), (0, 6, 21), (12, 12, 10), (11, 4, 3), (14, 5, 31), (13, 15, 23))
#: (rd, rs1, imm)
RRI = ((10, 6, 0x7FF), (0, 6, 5), (12, 12, -2048), (11, 3, -1), (13, 4, 1))
SHIFT_RRI = ((10, 12, 0), (11, 3, 1), (12, 4, 31), (0, 6, 11), (13, 13, 7))
LOAD_RRI = ((10, 8, 0), (11, 8, -4), (12, 9, 3), (0, 19, 8), (8, 8, 2), (13, 2, 60), (10, 3, 0))
POSTINC_LOAD_RRI = ((10, 8, 4), (11, 9, -4), (8, 8, 4), (0, 19, -2), (12, 2, -2048))
#: (rs1, rs2, imm) for stores
STORE_RRI = ((8, 21, 0), (9, 12, -5), (19, 3, 7), (2, 0, 4), (8, 8, 0))
POSTINC_STORE_RRI = ((8, 21, 4), (9, 12, -8), (19, 19, 1), (2, 0, -1))
#: (rs1, rs2, imm) for branches: taken/not-taken both ways, and a taken
#: branch whose target is the fall-through address (still pays the flush)
BRANCH_RRI = ((12, 13, -8), (3, 5, 12), (4, 4, 16), (0, 20, 4), (10, 7, -256), (13, 12, 2048))

_LOADS = {"lb": 0, "lh": 1, "lw": 2, "lbu": 4, "lhu": 5}
_STORES = {"sb": 0, "sh": 1, "sw": 2}
_BRANCHES = {"beq": 0, "bne": 1, "blt": 4, "bge": 5, "bltu": 6, "bgeu": 7}
_OP_IMM = {"addi": 0, "slti": 2, "sltiu": 3, "xori": 4, "ori": 6, "andi": 7}
_OP = {
    "add": (0, 0), "sub": (0, 0x20), "sll": (1, 0), "slt": (2, 0), "sltu": (3, 0),
    "xor": (4, 0), "srl": (5, 0), "sra": (5, 0x20), "or": (6, 0), "and": (7, 0),
}
_MULDIV = {"mul": 0, "mulh": 1, "mulhsu": 2, "mulhu": 3, "div": 4, "divu": 5, "rem": 6, "remu": 7}
_CSR = {"csrrw": 1, "csrrs": 2, "csrrc": 3, "csrrwi": 5, "csrrsi": 6, "csrrci": 7}
_SYSTEM = {"ecall": 0x00000073, "ebreak": 0x00100073, "mret": 0x30200073, "wfi": 0x10500073,
           "fence": 0x0000000F}

#: compressed encodings (raw halfword, the 32-bit form it expands to)
RVC = (
    (0x1475, "c.addi x8, -3"), (0x557D, "c.li x10, -1"), (0x7139, "c.addi16sp -64"),
    (0x0804, "c.addi4spn x9, 16"), (0x0001, "c.nop"), (0x75FD, "c.lui x11, 0xfffff"),
    (0x820D, "c.srli x12, 3"), (0x8611, "c.srai x12, 4"), (0x9AC1, "c.andi x13, -16"),
    (0x8C91, "c.sub x9, x12"), (0x8D35, "c.xor x10, x13"), (0x8DD9, "c.or x11, x14"),
    (0x8E7D, "c.and x12, x15"), (0x37C1, "c.jal -64"), (0xA025, "c.j 40"),
    (0xDBE5, "c.beqz x15, -16"), (0xE511, "c.bnez x10, 12"), (0x037E, "c.slli x6, 31"),
    (0x4050, "c.lw x12, 4(x8)"), (0x46A2, "c.lwsp x13, 8"), (0x8D82, "c.jr x27"),
    (0x9E02, "c.jalr x28"), (0x8756, "c.mv x14, x21"), (0x9756, "c.add x14, x21"),
    (0xC488, "c.sw x10, 8(x9)"), (0xC656, "c.swsp x21, 12"), (0x9002, "c.ebreak"),
)

#: exceptions a step may end in; which one is part of the pinned result
OUTCOMES = (EbreakHalt, EcallTrap, IllegalInstruction, MainMemoryError)

#: short programs run to completion (``ebreak``) from ``PC0``
PROGRAMS = {
    "hwloop_setupi": """
        cv.setupi_word
        addi x10, x10, 1
        addi x11, x11, 2
        ebreak
    """,
    "hwloop_nested": """
        cv.setup 1, x7, outer_end
        cv.setup 0, x16, inner_end
        addi x10, x10, 1
        add x11, x11, x10
    inner_end:
        addi x12, x12, 3
    outer_end:
        ebreak
    """,
    "hwloop_jump_onto_end": """
        cv.starti 0, body
        cv.endi 0, end
        cv.counti 0, 3
    body:
        addi x10, x10, 1
        j end
        addi x11, x11, 1
    end:
        ebreak
    """,
    "hwloop_count_zero": """
        cv.count 0, x20
        cv.endi 0, end
        addi x10, x10, 1
    end:
        addi x11, x11, 1
        ebreak
    """,
    "hwloop_postinc_sdot": """
        li x10, 0
        cv.setup 0, x16, end
        cv.lw x11, 4(x8!)
        cv.lw x12, -4(x9!)
        pv.sdotsp.b x10, x11, x12
        cv.sw x10, 4(x19!)
    end:
        ebreak
    """,
    "interrupt_mid_loop": """
        la t0, handler
        csrrw zero, 0x305, t0
        li t0, 0x800
        csrrs zero, 0x304, t0
        csrrsi zero, 0x300, 8
        li a0, 0
    spin:
        addi a0, a0, 1
        li t1, 12
        blt a0, t1, spin
        ebreak
    handler:
        li a1, 77
        csrrci zero, 0x344, 0
        li t2, 0x800
        csrrc zero, 0x344, t2
        mret
    """,
}


def _i(opcode, rd, funct3, rs1, imm):
    return fields.encode_i(opcode, rd, funct3, rs1, imm)


def _single_cases():
    """(case id, raw instruction, length) for every single-step case."""
    cases = {}

    def add(name, raw, length=4):
        case_id = f"{name} {raw:#010x}"
        cases[case_id] = (case_id, raw, length)

    for m, f3 in _OP_IMM.items():
        for rd, rs1, imm in RRI:
            add(m, _i(fields.OPCODE_OP_IMM, rd, f3, rs1, imm))
    for m, (f3, f7) in (("slli", (1, 0)), ("srli", (5, 0)), ("srai", (5, 0x20))):
        for rd, rs1, imm in SHIFT_RRI:
            add(m, fields.encode_i_shift(fields.OPCODE_OP_IMM, rd, f3, rs1, imm, f7))
    for m, (f3, f7) in _OP.items():
        for rd, rs1, rs2 in (SHIFT_RRR if m in ("sll", "srl", "sra") else RRR):
            add(m, fields.encode_r(fields.OPCODE_OP, rd, f3, rs1, rs2, f7))
    for m, f3 in _MULDIV.items():
        for rd, rs1, rs2 in DIV_RRR + RRR[:2]:
            add(m, fields.encode_r(fields.OPCODE_OP, rd, f3, rs1, rs2, 1))
    for m, opcode in (("lui", fields.OPCODE_LUI), ("auipc", fields.OPCODE_AUIPC)):
        for rd, imm in ((10, 0xFFFFF), (11, 0x80000), (12, 1), (0, 0x12345)):
            add(m, fields.encode_u(opcode, rd, imm))
    for rd, imm in ((1, 0x40), (0, -0x80), (10, 4), (5, -0x100)):
        add("jal", fields.encode_j(fields.OPCODE_JAL, rd, imm))
    for rd, rs1, imm in ((1, 27, 0), (0, 28, 0), (27, 27, 8), (5, 3, -1), (10, 1, -3)):
        add("jalr", _i(fields.OPCODE_JALR, rd, 0, rs1, imm))
    for m, f3 in _BRANCHES.items():
        for rs1, rs2, imm in BRANCH_RRI:
            add(m, fields.encode_b(fields.OPCODE_BRANCH, f3, rs1, rs2, imm))
    for m, f3 in _LOADS.items():
        for rd, rs1, imm in LOAD_RRI:
            add(m, _i(fields.OPCODE_LOAD, rd, f3, rs1, imm))
    for m, f3 in _STORES.items():
        for rs1, rs2, imm in STORE_RRI:
            add(m, fields.encode_s(fields.OPCODE_STORE, f3, rs1, rs2, imm))
    for m in ("cv.lb", "cv.lh", "cv.lw", "cv.lbu", "cv.lhu"):
        for rd, rs1, imm in POSTINC_LOAD_RRI:
            add(m, _i(fields.OPCODE_CUSTOM_0, rd, xcvpulp.postinc_funct3(m), rs1, imm))
    for m in ("cv.sb", "cv.sh", "cv.sw"):
        for rs1, rs2, imm in POSTINC_STORE_RRI:
            add(m, fields.encode_s(fields.OPCODE_CUSTOM_0, xcvpulp.postinc_funct3(m), rs1, rs2, imm))
    hwloop = (
        ("cv.starti", 0, 0, 4), ("cv.starti", 1, 0, -4), ("cv.endi", 0, 0, 8),
        ("cv.endi", 1, 0, -6), ("cv.counti", 0, 0, 5), ("cv.counti", 1, 0, -1),
        ("cv.count", 0, 16, 0), ("cv.count", 1, 3, 0), ("cv.setup", 0, 16, 6),
        ("cv.setup", 1, 20, -2), ("cv.setupi", 0, 0, (3 << 5) | 6),
        ("cv.setupi", 1, 0, -1),
    )
    for m, loop, rs1, imm in hwloop:
        add(m, _i(fields.OPCODE_CUSTOM_1, loop, xcvpulp.hwloop_funct3(m), rs1, imm))
    for m in ("cv.mac", "cv.msu", "cv.min", "cv.max", "cv.abs", "cv.clip", "cv.minu", "cv.maxu"):
        for rd, rs1, rs2 in DSP_RRR:
            f7 = xcvpulp.scalar_dsp_funct7(m)
            add(m, fields.encode_r(fields.OPCODE_CUSTOM_1, rd, 0b110, rs1, rs2, f7))
    for base in xcvpulp.SIMD_BASES:
        for funct3, suffix in ((0, "b"), (1, "h")):
            for rd, rs1, rs2 in SIMD_RRR:
                raw = fields.encode_r(
                    fields.OPCODE_CUSTOM_3, rd, funct3, rs1, rs2, xcvpulp.simd_funct7(base)
                )
                add(f"{base}.{suffix}", raw)
    for m, f3 in _CSR.items():
        for rd, src, address in (
            (10, 21, csrdefs.MSCRATCH), (0, 17, csrdefs.MSTATUS), (11, 0, csrdefs.MEPC),
            (12, 8, csrdefs.MIE), (13, 31, 0x7C0), (14, 6, csrdefs.MCYCLE),
        ):
            add(m, (address << 20) | (src << 15) | (f3 << 12) | (rd << 7) | fields.OPCODE_SYSTEM)
    for m, raw in _SYSTEM.items():
        add(m, raw)
    for raw in (
        xmnmc.encode_xmr("w", 12, 13, 21), xmnmc.encode_xmk(0, "b", 12, 13, 21),
        xmnmc.encode_xmk(3, "h", 3, 0, 25), xmnmc.encode_xmk(30, "w", 6, 4, 5),
    ):
        add(decode(raw).mnemonic, raw)
    add("xmk0.w no_xif", xmnmc.encode_xmk(0, "w", 12, 13, 21))
    for raw, _ in RVC:
        add(f"rvc.{decode(raw).mnemonic}", raw, 2)
    add("illegal", 0x00000000)
    add("illegal", 0xFFFFFFFF)
    return list(cases.values())


SINGLE_CASES = _single_cases()
#: (timing, memory wait states) configurations every case runs under
CONFIGS = {"x_ws0": (CV32E40X_TIMING, 0), "px_ws3": (CV32E40PX_TIMING, 3)}


def _data_image() -> bytes:
    return bytes((i * 37 + 11) & 0xFF for i in range(0x200))


def _machine(config: str, program: bytes, xif: bool):
    timing, wait_states = CONFIGS[config]
    memory = MainMemory(MEMORY_BYTES)
    memory.write_block(PC0, program)
    memory.write_block(DATA, _data_image())
    offloads = []

    def coprocessor(request):
        offloads.append([request.func5, request.size_suffix, request.rs1_value,
                         request.rs2_value, request.rs3_value, request.instr_id])
        return 7

    cpu = Cpu(memory, timing=timing, xif=coprocessor if xif else None,
              memory_wait_states=wait_states)
    for index, value in enumerate(REG_INIT):
        cpu.regs[index] = value
    for address, value in CSR_INIT.items():
        cpu.csrs.write(address, value)
    cpu.pc = PC0
    return cpu, memory, offloads


def _observe(cpu, memory, offloads, initial: bytes, raised):
    image = memory.read_block(0, MEMORY_BYTES)
    changed = np.flatnonzero(np.frombuffer(image, np.uint8) != np.frombuffer(initial, np.uint8))
    csr_init = CsrFile()
    for address, value in CSR_INIT.items():
        csr_init.write(address, value)
    return {
        "regs": {str(i): v for i, v in enumerate(cpu.regs.snapshot()) if v != REG_INIT[i]},
        "mem": [[int(a), image[a]] for a in changed],
        "pc": cpu.pc,
        "cycles": cpu.cycles,
        "instret": cpu.instret,
        "hwloop": [[loop.start, loop.end, loop.count] for loop in cpu.hwloop],
        "csrs": {str(a): cpu.csrs.read(a) for a in CSR_WATCH
                 if cpu.csrs.read(a) != csr_init.read(a)},
        "offloads": offloads,
        "raised": raised,
    }


def _initial_image(program: bytes) -> bytes:
    image = bytearray(MEMORY_BYTES)
    image[PC0:PC0 + len(program)] = program
    image[DATA:DATA + 0x200] = _data_image()
    return bytes(image)


def run_single(case_id: str, raw: int, length: int, config: str) -> dict:
    """Execute one instruction from the fixed state; return what changed."""
    program = raw.to_bytes(length, "little")
    cpu, memory, offloads = _machine(config, program, xif="no_xif" not in case_id)
    raised = None
    try:
        cpu.step()
    except OUTCOMES as error:
        raised = type(error).__name__
    return _observe(cpu, memory, offloads, _initial_image(program), raised)


def _program_bytes(name: str) -> bytes:
    # the assembler has no cv.setupi form: count 4, end 6 halfwords ahead
    text = PROGRAMS[name].replace(
        "cv.setupi_word",
        f".word {_i(fields.OPCODE_CUSTOM_1, 0, xcvpulp.hwloop_funct3('cv.setupi'), 0, (4 << 5) | 6)}",
    )
    return bytes(assemble(text, base=PC0).data)


def run_program(name: str, config: str) -> dict:
    """Run a short program to ``ebreak`` (interrupting it once if it asks)."""
    program = _program_bytes(name)
    cpu, memory, offloads = _machine(config, program, xif=True)
    raised = None
    try:
        if name.startswith("interrupt"):
            for _ in range(14):
                cpu.step()
            cpu.csrs.raise_external_interrupt()
        cpu.run(max_instructions=500)
    except OUTCOMES as error:
        raised = type(error).__name__
    return _observe(cpu, memory, offloads, _initial_image(program), raised)


# -- per-mnemonic differential ------------------------------------------------


@functools.lru_cache(maxsize=None)
def reference() -> dict:
    """The pinned results; each entry keeps one ``cycles`` value per config."""
    return json.loads(REFERENCE_PATH.read_text())


def expected(section: str, key: str, config: str) -> dict:
    entry = reference()[section][key]
    return {**entry, "cycles": entry["cycles"][config]}


def test_cases_cover_every_decodable_mnemonic():
    from repro.isa import rv32i, rv32m

    covered = {decode(raw).mnemonic for _, raw, _ in SINGLE_CASES if raw not in (0, 0xFFFFFFFF)}
    decodable = (
        set(rv32i.MNEMONICS) | set(rv32m.MNEMONICS) | set(xcvpulp.MNEMONICS)
        | set(_CSR) | {"mret", "wfi"}
    )
    assert decodable <= covered
    assert {"xmr.w", "xmk0.b", "xmk3.h", "xmk30.w"} <= covered
    assert all(decode(raw).length == 2 for raw, _ in RVC)
    assert set(reference()["single"]) == {case_id for case_id, _, _ in SINGLE_CASES}


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("case_id,raw,length", SINGLE_CASES, ids=[c[0] for c in SINGLE_CASES])
def test_single_step_matches_reference(case_id, raw, length, config):
    assert run_single(case_id, raw, length, config) == expected("single", case_id, config)


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_program_matches_reference(name, config):
    assert run_program(name, config) == expected("programs", name, config)


# -- calibration runs and fitted models ----------------------------------------


def _calibration_keys():
    for arch in ("scalar", "pulp"):
        for esize in (1, 4):
            for shape in models._CALIBRATION_SHAPES:
                yield arch, esize, shape


@pytest.mark.parametrize(
    "arch,esize,shape", list(_calibration_keys()),
    ids=[f"{a}-{e}-{s.height}x{s.width}k{s.k}" for a, e, s in _calibration_keys()],
)
def test_calibration_run_bit_identical(arch, esize, shape):
    rng = np.random.default_rng(1234 + esize)
    dtype = models._DTYPES[esize]
    image = rng.integers(-8, 8, (shape.channels * shape.height, shape.width)).astype(dtype)
    filters = rng.integers(-2, 3, (shape.channels * shape.k, shape.k)).astype(dtype)
    output, cycles = models._RUNNERS[arch](image, filters)
    key = f"{arch}/{esize}/{shape.height}x{shape.width}k{shape.k}"
    digest = hashlib.sha256(output.tobytes()).hexdigest()[:24]
    assert [cycles, digest] == reference()["calibration"][key]


@pytest.mark.parametrize("arch,esize", [("scalar", 1), ("scalar", 4), ("pulp", 1), ("pulp", 4)])
def test_fitted_coefficients_bit_identical(arch, esize):
    model = models.fit_conv_model(arch, esize)
    pinned = reference()["coefficients"][f"{arch}/{esize}"]
    assert [float(c).hex() for c in model.coefficients] == pinned
