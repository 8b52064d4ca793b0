"""The instruction-set simulator core with cycle accounting.

Models a CV32E40X-class 4-stage in-order core: one instruction retires
per cycle except for the penalties encoded in the
:class:`~repro.cpu.timing.TimingModel` (taken branches, jumps, multi-cycle
mul/div) and the platform's memory wait states on loads and stores.
Hardware-loop redirects are zero-penalty, matching XCVPULP.

Each instruction is decoded once.  On a miss in the per-PC translation
cache the core decodes the word, has :func:`~repro.cpu.executor.translate`
build a handler specialised to its fields, and fixes its sequential next
PC and its cycle costs (sequential and redirected).  :meth:`Cpu.step`
executes one translation: an interrupt-bit check, one dict lookup, one
handler call, the cycle add and — only when the next PC equals a loop
end — the hardware-loop update.

:meth:`Cpu.run` executes one *block* per dispatch instead: the
straight-line run of translations from one PC up to and including the
first instruction that can redirect, trap or change interrupt or
hardware-loop state (:data:`BLOCK_ENDERS`: branches, ``jal``/``jalr``/
``mret``, ``ecall``/``ebreak``, every ``csr*`` and every hardware-loop
set-up instruction), or :attr:`Cpu.MAX_BLOCK_LENGTH` instructions.  A
block also stops where its sequential flow reaches a hardware-loop end
(one set later, inside a cached block, makes ``run`` rebuild that block),
and before an ``xmnmc`` offload, which runs as a block of its own so the
coprocessor sees committed state.  Nothing inside a block can change
what ``step`` checks between instructions, so ``run`` checks for an
interrupt at block entry only, calls the handlers back to back and
commits ``pc``, ``cycles`` and ``instret`` once from the block's
precomputed sums; the result is bit-identical to stepping.  Translations
are built ahead of execution within a block, so, as with the translation
cache itself, code must not rewrite instructions it is about to run.

A coprocessor implementing the CV-X-IF issue side can be attached via
:attr:`Cpu.xif`; decoded ``xmnmc`` instructions are forwarded to it with
the three source register values sampled, exactly like the paper's bridge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, NamedTuple, Optional, Tuple

from repro.cpu import csr as csrdefs
from repro.cpu.csr import CsrFile
from repro.cpu.executor import (
    M32,
    OFFLOAD_MNEMONICS,
    EbreakHalt,
    EcallTrap,
    Handler,
    translate,
)
from repro.cpu.regfile import RegisterFile
from repro.cpu.timing import CV32E40X_TIMING, LOAD_MNEMONICS, STORE_MNEMONICS, TimingModel
from repro.isa import rv32i, xcvpulp
from repro.isa.decode import DecodeError, decode
from repro.isa.instruction import Instruction
from repro.isa.xmnmc import request_from_instruction
from repro.mem.memory import MainMemory, MainMemoryError


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


class Block(NamedTuple):
    """A straight-line run of translations that ``run`` retires at once."""

    handlers: Tuple[Handler, ...]
    length: int
    #: PC after the last instruction when it does not redirect
    fallthrough: int
    #: cycles of the whole block when the last instruction does not redirect
    cycles: int
    #: cycles when it does
    taken_cycles: int
    #: PCs of every instruction but the first: a hardware-loop end among
    #: them means the block was built under other loop bounds
    interior: FrozenSet[int]
    translations: Tuple[Translation, ...]


_JUMP_MNEMONICS = frozenset({"jal", "jalr", "mret"})
#: instructions that end a block: they may redirect, trap, or change
#: interrupt state (MIP/MIE/MSTATUS) or hardware-loop state
BLOCK_ENDERS = (
    rv32i.BRANCH_MNEMONICS
    | _JUMP_MNEMONICS
    | {"ecall", "ebreak"}
    | rv32i.CSR_MNEMONICS
    | xcvpulp.HWLOOP_MNEMONICS
    | OFFLOAD_MNEMONICS
)
_MIP, _MIE, _MSTATUS = csrdefs.MIP, csrdefs.MIE, csrdefs.MSTATUS
_MEIP_BIT = 1 << csrdefs.MIP_MEIP_BIT
_MIE_BIT = 1 << csrdefs.MSTATUS_MIE_BIT


class Cpu:
    """RV32IMC(+XCVPULP, +xmnmc offload) instruction-set simulator."""

    #: Bound on the translation cache and, separately, the block cache.  A
    #: long-lived core (a pooled worker's host serving an unbounded
    #: request stream) must not grow either without limit; the
    #: insertion-ordered dicts evict FIFO, which is free on the hot path
    #: and good enough for looping code.
    DECODE_CACHE_LIMIT = 4096
    #: Longest block ``run`` builds; longer straight-line code spans blocks.
    MAX_BLOCK_LENGTH = 64

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
        #: pc -> Block that ``run`` dispatches
        self._blocks: Dict[int, Block] = {}

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
        if mnemonic in rv32i.BRANCH_MNEMONICS:
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

        Retires one block per dispatch (see the module docstring), with
        the same architectural effect as calling :meth:`step` per
        instruction.  When fewer than a block's instructions remain of
        ``max_instructions`` the instruction at ``pc`` is single-stepped,
        so a program that does not halt stops at the same ``pc`` and
        ``instret`` either way.  An exception raised inside a block leaves
        ``pc``, ``cycles`` and ``instret`` at the instruction that raised.
        """
        blocks = self._blocks
        csrs = self.csrs._csrs
        loop0, loop1 = self.hwloop
        remaining = max_instructions
        while remaining > 0:
            if csrs[_MIP] & _MEIP_BIT and csrs[_MIE] & _MEIP_BIT and csrs[_MSTATUS] & _MIE_BIT:
                self._take_interrupt()
            pc = self.pc
            block = blocks.get(pc) or self._build_block(pc)
            handlers, length, fallthrough, cycles, taken_cycles, interior, _ = block
            if loop0.end in interior or loop1.end in interior:
                del blocks[pc]  # rebuilt to stop at the current loop end
                continue
            if length > remaining:
                # a longer-than-one block does not start with an ender, so
                # this step cannot raise EbreakHalt or EcallTrap
                self.step()
                remaining -= 1
                continue
            pending = iter(handlers)
            try:
                for handler in pending:
                    target = handler()
            except Exception as error:
                # the handler that raised precedes the ones still pending
                done = length - 1 - pending.__length_hint__()
                self._retire_prefix(block, done)
                remaining -= done + 1
                if isinstance(error, EbreakHalt):
                    return self.cycles
                if not isinstance(error, EcallTrap):
                    raise
                self._retire_ecall(block.translations[done])
                continue
            if target is None:
                next_pc = fallthrough
            else:
                next_pc, cycles = target, taken_cycles
            self.cycles += cycles
            self.instret += length
            remaining -= length
            if next_pc == loop0.end or next_pc == loop1.end:
                next_pc = self._apply_hwloops(next_pc)
            self.pc = next_pc
        raise RuntimeError(
            f"program did not halt within {max_instructions} instructions "
            f"(pc={self.pc:#010x})"
        )

    def _build_block(self, pc: int) -> Block:
        """Translate the straight-line run from ``pc`` and cache it as a block."""
        cache = self._decode_cache
        loop_ends = (self.hwloop[0].end, self.hwloop[1].end)
        translations = [cache.get(pc) or self._translate(pc)]
        while len(translations) < self.MAX_BLOCK_LENGTH:
            last = translations[-1]
            next_pc = last.fallthrough
            if last.instruction.mnemonic in BLOCK_ENDERS or next_pc in loop_ends:
                break
            try:
                entry = cache.get(next_pc) or self._translate(next_pc)
            except (IllegalInstruction, MainMemoryError):
                break  # raised at the right instruction if execution gets there
            if entry.instruction.mnemonic in OFFLOAD_MNEMONICS:
                break
            translations.append(entry)
        *body, last = translations
        body_cycles = sum(entry.cycles for entry in body)
        block = Block(
            tuple(entry.handler for entry in translations),
            len(translations),
            last.fallthrough,
            body_cycles + last.cycles,
            body_cycles + last.taken_cycles,
            frozenset(entry.fallthrough for entry in body),
            tuple(translations),
        )
        if len(self._blocks) >= self.DECODE_CACHE_LIMIT:
            self._blocks.pop(next(iter(self._blocks)))
        self._blocks[pc] = block
        return block

    def _retire_prefix(self, block: Block, done: int) -> None:
        """Commit the first ``done`` instructions of ``block``, as ``step`` would have."""
        if done:
            retired = block.translations[:done]
            self.cycles += sum(entry.cycles for entry in retired)
            self.instret += done
            self.pc = retired[-1].fallthrough

    def _retire_ecall(self, entry: Translation) -> None:
        """Retire ``ecall`` as a no-op: bare-metal runs ignore environment calls."""
        self.cycles += entry.cycles
        self.instret += 1
        self.pc = self._apply_hwloops(entry.fallthrough)

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
        self._blocks.clear()
