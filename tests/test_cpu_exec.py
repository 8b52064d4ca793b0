"""ISS execution tests: instruction semantics via small assembled programs."""

import gc
import weakref

import pytest

from repro.cpu.core import Cpu, IllegalInstruction
from repro.isa.asm import assemble
from repro.mem.memory import MainMemory
from repro.utils.bitops import to_signed


def run(source: str, memory_bytes: int = 64 * 1024) -> Cpu:
    program = assemble(source)
    memory = MainMemory(memory_bytes)
    memory.write_block(0, bytes(program.data))
    cpu = Cpu(memory)
    cpu.run()
    return cpu


class TestArithmetic:
    def test_add_sub(self):
        cpu = run("li a0, 7\nli a1, 5\nadd a2, a0, a1\nsub a3, a0, a1\nebreak")
        assert cpu.regs[12] == 12 and cpu.regs[13] == 2

    def test_overflow_wraps(self):
        cpu = run("li a0, 0x7fffffff\naddi a0, a0, 1\nebreak")
        assert cpu.regs[10] == 0x80000000

    def test_logic_ops(self):
        cpu = run(
            "li a0, 0xf0f0\nli a1, 0x0ff0\n"
            "and a2, a0, a1\nor a3, a0, a1\nxor a4, a0, a1\nebreak"
        )
        assert cpu.regs[12] == 0x0F0
        assert cpu.regs[13] == 0xFFF0
        assert cpu.regs[14] == 0xFF00

    def test_shifts(self):
        cpu = run(
            "li a0, -8\nsrai a1, a0, 1\nsrli a2, a0, 28\nslli a3, a0, 1\nebreak"
        )
        assert to_signed(cpu.regs[11]) == -4
        assert cpu.regs[12] == 0xF
        assert to_signed(cpu.regs[13]) == -16

    def test_slt_family(self):
        cpu = run(
            "li a0, -1\nli a1, 1\n"
            "slt a2, a0, a1\nsltu a3, a0, a1\nslti a4, a0, 0\nsltiu a5, a1, 2\nebreak"
        )
        assert cpu.regs[12] == 1  # -1 < 1 signed
        assert cpu.regs[13] == 0  # 0xffffffff > 1 unsigned
        assert cpu.regs[14] == 1
        assert cpu.regs[15] == 1

    def test_x0_is_hardwired(self):
        cpu = run("li t0, 5\nadd zero, t0, t0\nmv a0, zero\nebreak")
        assert cpu.regs[10] == 0


class TestMulDiv:
    def test_mul(self):
        cpu = run("li a0, -3\nli a1, 7\nmul a2, a0, a1\nebreak")
        assert to_signed(cpu.regs[12]) == -21

    def test_mulh(self):
        cpu = run("li a0, 0x40000000\nli a1, 4\nmulh a2, a0, a1\nmulhu a3, a0, a1\nebreak")
        assert cpu.regs[12] == 1
        assert cpu.regs[13] == 1

    def test_div_rem(self):
        cpu = run("li a0, -7\nli a1, 2\ndiv a2, a0, a1\nrem a3, a0, a1\nebreak")
        assert to_signed(cpu.regs[12]) == -3
        assert to_signed(cpu.regs[13]) == -1

    def test_div_by_zero(self):
        cpu = run("li a0, 9\nli a1, 0\ndivu a2, a0, a1\nremu a3, a0, a1\nebreak")
        assert cpu.regs[12] == 0xFFFFFFFF
        assert cpu.regs[13] == 9


class TestMemoryAccess:
    def test_store_load_roundtrip(self):
        cpu = run(
            "li a0, 0x1000\nli a1, 0xdeadbeef\nsw a1, 0(a0)\n"
            "lw a2, 0(a0)\nlhu a3, 0(a0)\nlbu a4, 3(a0)\nebreak"
        )
        assert cpu.regs[12] == 0xDEADBEEF
        assert cpu.regs[13] == 0xBEEF
        assert cpu.regs[14] == 0xDE

    def test_signed_loads(self):
        cpu = run("li a0, 0x1000\nli a1, -1\nsb a1, 0(a0)\nlb a2, 0(a0)\nlbu a3, 0(a0)\nebreak")
        assert to_signed(cpu.regs[12]) == -1
        assert cpu.regs[13] == 0xFF

    def test_data_section(self):
        cpu = run(
            "la a0, datum\nlw a1, 0(a0)\nebreak\n.align 2\ndatum:\n.word 0x12345678"
        )
        assert cpu.regs[11] == 0x12345678


class TestControlFlow:
    def test_loop_sum(self):
        cpu = run(
            "li a0, 0\nli a1, 10\nloop:\nadd a0, a0, a1\naddi a1, a1, -1\nbnez a1, loop\nebreak"
        )
        assert cpu.regs[10] == 55

    def test_call_ret(self):
        cpu = run(
            """
                li a0, 5
                call double
                ebreak
            double:
                add a0, a0, a0
                ret
            """
        )
        assert cpu.regs[10] == 10

    def test_branch_variants(self):
        cpu = run(
            """
                li a0, 0
                li a1, -1
                li a2, 1
                bltu a1, a2, not_taken    # 0xffffffff > 1 unsigned
                addi a0, a0, 1
            not_taken:
                blt a1, a2, taken         # -1 < 1 signed
                addi a0, a0, 100
            taken:
                ebreak
            """
        )
        assert cpu.regs[10] == 1

    def test_jalr_indirect(self):
        cpu = run(
            """
                la t0, target
                jalr ra, 0(t0)
                ebreak
            target:
                li a0, 99
                ebreak
            """
        )
        assert cpu.regs[10] == 99


class TestRuntimeGuards:
    def test_illegal_instruction_raises(self):
        memory = MainMemory(4096)
        memory.write_u32(0, 0x00000000)
        cpu = Cpu(memory)
        with pytest.raises(IllegalInstruction):
            cpu.run()

    def test_runaway_guard(self):
        program = assemble("loop:\n j loop")
        memory = MainMemory(4096)
        memory.write_block(0, bytes(program.data))
        cpu = Cpu(memory)
        with pytest.raises(RuntimeError, match="did not halt"):
            cpu.run(max_instructions=100)

    def test_reset_clears_state(self):
        cpu = run("li a0, 7\nebreak")
        assert cpu.instret > 0
        cpu.reset()
        assert cpu.instret == 0 and cpu.cycles == 0 and cpu.regs[10] == 0

    def test_offload_without_coprocessor(self):
        program = assemble("xmk0.w a0, a1, a2")
        memory = MainMemory(4096)
        memory.write_block(0, bytes(program.data))
        cpu = Cpu(memory)
        with pytest.raises(IllegalInstruction, match="no coprocessor"):
            cpu.step()


class TestDecodeCacheBound:
    """The decoded-instruction cache must stay bounded on long-lived
    cores (a pooled serving worker's host executes unbounded request
    streams through one Cpu instance)."""

    def _straight_line_cpu(self, n_instructions):
        source = "\n".join(["addi x1, x1, 1"] * n_instructions + ["ebreak"])
        program = assemble(source)
        memory = MainMemory(4 * 1024 * 1024)
        memory.write_block(0, bytes(program.data))
        return Cpu(memory)

    def test_cache_never_exceeds_limit(self, monkeypatch):
        monkeypatch.setattr(Cpu, "DECODE_CACHE_LIMIT", 64)
        cpu = self._straight_line_cpu(300)
        cpu.run()
        assert len(cpu._decode_cache) <= 64
        assert cpu.instret == 300  # ebreak halts before retiring

    def test_reset_clears_decode_cache(self):
        cpu = self._straight_line_cpu(10)
        cpu.run()
        assert cpu._decode_cache
        cpu.reset()
        assert not cpu._decode_cache

    def test_eviction_keeps_execution_correct(self, monkeypatch):
        # a stream longer than the cache bound re-decodes evicted entries
        # transparently; the architectural result must not change
        monkeypatch.setattr(Cpu, "DECODE_CACHE_LIMIT", 8)
        cpu = self._straight_line_cpu(50)
        cpu.run()
        assert cpu.regs[1] == 50


class TestStepContract:
    """``Cpu.step`` retires one instruction (the unit tests, tracers and
    interrupt injection drive); ``Cpu.run`` retires whole blocks and
    single-steps only where a block would overrun its instruction budget.
    The translation and block caches never outlive the state they were
    built against."""

    LOOP = "li a0, 0\nli a1, 5\nloop:\naddi a0, a0, 1\nbne a0, a1, loop\nebreak"

    def test_run_steps_only_at_the_budget_edge(self, monkeypatch):
        calls = []
        original = Cpu.step

        def counting(self):
            calls.append(self.pc)
            return original(self)

        monkeypatch.setattr(Cpu, "step", counting)
        cpu = run(self.LOOP)
        assert cpu.regs[10] == 5 and cpu.instret == 12
        assert calls == []  # every instruction retired inside a block
        # the first block (li, li, addi, bne) does not fit a budget of 3
        program = assemble(self.LOOP)
        memory = MainMemory(4096)
        memory.write_block(0, bytes(program.data))
        cpu = Cpu(memory)
        with pytest.raises(RuntimeError, match="within 3 instructions"):
            cpu.run(max_instructions=3)
        assert calls == [0, 4, 8] and cpu.instret == 3

    def test_step_returns_the_retired_instruction(self):
        program = assemble("addi a0, zero, 3\nebreak")
        memory = MainMemory(4096)
        memory.write_block(0, bytes(program.data))
        cpu = Cpu(memory)
        instruction = cpu.step()
        assert instruction.mnemonic == "addi" and instruction.imm == 3

    def test_reset_retranslates_against_fresh_state(self):
        cpu = run(self.LOOP)
        cpu.reset()
        cpu.run()
        # handlers built before the reset wrote the old register file; a
        # stale translation would leave the new one untouched
        assert cpu.regs[10] == 5 and cpu.instret == 12

    def test_finished_core_is_freed_without_the_cycle_collector(self):
        # translations capture the state they touch, not the core, so a
        # core (and the memory image it holds) goes with its last reference
        gc.disable()
        try:
            cpu = run("li t0, 2\ncv.setup 0, t0, end\naddi a3, a3, 1\nend:\n"
                      "csrrsi a0, 0x340, 1\nebreak")
            assert cpu.regs[13] == 2
            freed = weakref.ref(cpu)
            del cpu
            assert freed() is None
        finally:
            gc.enable()

    def test_interrupt_raised_between_steps_is_taken_on_next_step(self):
        program = assemble("""
                la t0, handler
                csrrw zero, 0x305, t0
                li t0, 0x800
                csrrs zero, 0x304, t0
                csrrsi zero, 0x300, 8
            spin:
                addi a0, a0, 1
                j spin
            handler:
                li a1, 42
                ebreak
            """)
        memory = MainMemory(4096)
        memory.write_block(0, bytes(program.data))
        cpu = Cpu(memory)
        for _ in range(12):  # set-up, then a few trips round the spin loop
            cpu.step()
        interrupted_pc, cycles = cpu.pc, cpu.cycles
        cpu.csrs.raise_external_interrupt()
        cpu.step()
        handler = program.symbols["handler"]
        assert cpu.csrs.read(0x341) == interrupted_pc  # mepc
        assert cpu.regs[11] == 42 and cpu.pc == handler + 4
        assert cpu.cycles == cycles + 4 + 1  # trap entry, then the handler's li
