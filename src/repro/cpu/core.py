"""The instruction-set simulator core with cycle accounting.

Models a CV32E40X-class 4-stage in-order core: one instruction retires
per cycle except for the penalties encoded in the
:class:`~repro.cpu.timing.TimingModel` (taken branches, jumps, multi-cycle
mul/div) and the platform's memory wait states on loads and stores.
Hardware-loop redirects are zero-penalty, matching XCVPULP.

Each instruction is decoded once.  On a miss in the per-PC translation
cache the core decodes the word, has :func:`~repro.cpu.executor.translate`
build a handler specialised to its fields, and fixes its sequential next
PC and its cycle costs (sequential and redirected).  :meth:`Cpu.step` then
costs an interrupt-bit check, one dict lookup, one handler call, the
cycle add and — only when the next PC equals a loop end — the
hardware-loop update.

A coprocessor implementing the CV-X-IF issue side can be attached via
:attr:`Cpu.xif`; decoded ``xmnmc`` instructions are forwarded to it with
the three source register values sampled, exactly like the paper's bridge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional

from repro.cpu import csr as csrdefs
from repro.cpu.csr import CsrFile
from repro.cpu.executor import M32, EbreakHalt, EcallTrap, Handler, translate
from repro.cpu.regfile import RegisterFile
from repro.cpu.timing import CV32E40X_TIMING, LOAD_MNEMONICS, STORE_MNEMONICS, TimingModel
from repro.isa.decode import DecodeError, decode
from repro.isa.instruction import Instruction
from repro.isa.xmnmc import request_from_instruction
from repro.mem.memory import MainMemory


class CpuHalted(Exception):
    """The program executed ``ebreak`` (normal completion for ISS runs)."""


class IllegalInstruction(Exception):
    """Fetch decoded to an illegal or unsupported encoding."""


@dataclass
class HwLoop:
    """One XCVPULP hardware-loop register set (start, end, count)."""

    start: int = 0
    end: int = 0
    count: int = 0

    @property
    def active(self) -> bool:
        return self.count > 0 and self.end > 0


class Translation(NamedTuple):
    """Everything ``step`` needs about the instruction at one PC."""

    handler: Handler
    #: sequential next PC
    fallthrough: int
    #: base cycles (memory wait states included) when the flow is sequential
    cycles: int
    #: cycles when the handler redirects (taken branch / jump penalty added)
    taken_cycles: int
    instruction: Instruction


_BRANCH_MNEMONICS = frozenset({"beq", "bne", "blt", "bge", "bltu", "bgeu"})
_JUMP_MNEMONICS = frozenset({"jal", "jalr", "mret"})
_MIP, _MIE, _MSTATUS = csrdefs.MIP, csrdefs.MIE, csrdefs.MSTATUS
_MEIP_BIT = 1 << csrdefs.MIP_MEIP_BIT
_MIE_BIT = 1 << csrdefs.MSTATUS_MIE_BIT


class Cpu:
    """RV32IMC(+XCVPULP, +xmnmc offload) instruction-set simulator."""

    #: Decoded-instruction cache bound.  A long-lived core (a pooled
    #: worker's host serving an unbounded request stream) must not grow
    #: the cache without limit; the insertion-ordered dict evicts FIFO,
    #: which is free on the hot path and good enough for looping code.
    DECODE_CACHE_LIMIT = 4096

    def __init__(
        self,
        memory: MainMemory,
        timing: TimingModel = CV32E40X_TIMING,
        xif: Optional[Callable[..., int]] = None,
        memory_wait_states: int = 0,
    ) -> None:
        self.memory = memory
        self.timing = timing
        self.regs = RegisterFile()
        self.csrs = CsrFile()
        self.pc = 0
        self.cycles = 0
        self.instret = 0
        self.hwloop = [HwLoop(), HwLoop()]
        self.xif = xif
        #: wait states charged per load/store; folded into an instruction's
        #: cycles when it is translated
        self.memory_wait_states = memory_wait_states
        self._offload_count = 0
        #: pc -> Translation; each instruction is decoded and specialised
        #: once, then executed from here
        self._decode_cache: Dict[int, Translation] = {}

    # -- CV-X-IF offload hook -------------------------------------------------

    def offload_matrix_instruction(self, instr: Instruction) -> None:
        """Sample source registers and hand the instruction to the coprocessor.

        The attached ``xif`` callable receives an
        :class:`~repro.isa.xmnmc.OffloadRequest` and returns the number of
        cycles the host was stalled for (issue + software decode handshake;
        paper section III-B — the host then continues out-of-order).
        """
        if self.xif is None:
            raise IllegalInstruction(
                f"matrix instruction {instr.mnemonic} with no coprocessor attached"
            )
        self._offload_count += 1
        request = request_from_instruction(
            instr,
            self.regs[instr.rs1],
            self.regs[instr.rs2],
            self.regs[instr.rs3],
            instr_id=self._offload_count,
        )
        stall = self.xif(request)
        self.cycles += int(stall)

    # -- fetch/execute loop ------------------------------------------------------

    def _translate(self, pc: int) -> Translation:
        """Decode the instruction at ``pc`` and cache its translation."""
        word = self.memory.read_u32(pc)
        try:
            instruction = decode(word, pc)
        except DecodeError as error:
            raise IllegalInstruction(str(error)) from error
        mnemonic = instruction.mnemonic
        cycles = self.timing.cycles_for(mnemonic)
        if mnemonic in LOAD_MNEMONICS or mnemonic in STORE_MNEMONICS:
            cycles += self.memory_wait_states
        taken_cycles = cycles
        if mnemonic in _BRANCH_MNEMONICS:
            taken_cycles += self.timing.taken_branch_penalty
        elif mnemonic in _JUMP_MNEMONICS:
            taken_cycles += self.timing.jump_penalty
        entry = Translation(
            translate(self, instruction, pc),
            (pc + instruction.length) & M32,
            cycles,
            taken_cycles,
            instruction,
        )
        if len(self._decode_cache) >= self.DECODE_CACHE_LIMIT:
            self._decode_cache.pop(next(iter(self._decode_cache)))
        self._decode_cache[pc] = entry
        return entry

    def step(self) -> Instruction:
        """Execute one instruction; returns it (for tracing)."""
        # pending-and-enabled external interrupt, read straight from the CSR
        # storage: this runs before every instruction
        csrs = self.csrs._csrs
        if csrs[_MIP] & _MEIP_BIT and csrs[_MIE] & _MEIP_BIT and csrs[_MSTATUS] & _MIE_BIT:
            self._take_interrupt()
        entry = self._decode_cache.get(self.pc)
        if entry is None:
            entry = self._translate(self.pc)
        handler, next_pc, cycles, taken_cycles, instruction = entry
        target = handler()
        if target is not None:
            next_pc, cycles = target, taken_cycles
        self.cycles += cycles
        self.instret += 1
        loop0, loop1 = self.hwloop
        if next_pc == loop0.end or next_pc == loop1.end:
            next_pc = self._apply_hwloops(next_pc)
        self.pc = next_pc
        return instruction

    def _apply_hwloops(self, next_pc: int) -> int:
        """Zero-cycle loop-back when sequential flow reaches a loop end."""
        for loop in self.hwloop:
            if loop.active and next_pc == loop.end:
                if loop.count > 1:
                    loop.count -= 1
                    return loop.start
                loop.count = 0
        return next_pc

    def _take_interrupt(self) -> None:
        self.csrs.write(csrdefs.MEPC, self.pc)
        self.csrs.write(csrdefs.MCAUSE, 0x8000000B)  # machine external interrupt
        self.csrs.clear_bits(csrdefs.MSTATUS, _MIE_BIT)
        self.pc = self.csrs.read(csrdefs.MTVEC) & ~0b11
        self.cycles += 4  # pipeline flush + vector fetch

    def run(self, max_instructions: int = 10_000_000) -> int:
        """Run until ``ebreak``; returns cycles consumed.  ``ecall`` is a no-op.

        Every instruction retires through :meth:`step`.
        """
        step = self.step
        for _ in range(max_instructions):
            try:
                step()
            except EbreakHalt:
                return self.cycles
            except EcallTrap:
                pass  # environment calls are ignored in bare-metal runs
        raise RuntimeError(
            f"program did not halt within {max_instructions} instructions "
            f"(pc={self.pc:#010x})"
        )

    def reset(self, pc: int = 0) -> None:
        """Reset architectural state, keeping the loaded memory image."""
        self.regs = RegisterFile()
        self.csrs = CsrFile()
        self.pc = pc
        self.cycles = 0
        self.instret = 0
        self.hwloop = [HwLoop(), HwLoop()]
        self._offload_count = 0
        self._decode_cache.clear()
