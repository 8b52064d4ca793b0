"""Block execution in ``Cpu.run`` against ``Cpu.step``, instruction by instruction.

``Cpu.run`` retires one straight-line block of translations per dispatch;
``Cpu.step`` retires one instruction.  Every program here runs both ways
from the same state and must end in the same full observed state:
registers, memory, ``pc``, ``cycles``, ``instret``, hardware-loop and CSR
state, the raised exception, and what an attached coprocessor saw
(including the core's ``pc``/``cycles``/``instret`` at each offload).
The programs cover the pinned short programs of
``test_iss_equivalence``, all 32 calibration runs behind the baseline
models, and the cases where a block must not behave as one unit: a fault
mid-block, an instruction budget that ends mid-block, an interrupt
enabled by a CSR write, hardware-loop ends inside a block or reached by a
jump, offloads between ALU instructions, and ``reset()`` with new code at
the same PCs.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pytest

from repro.baselines import models
from repro.cpu.core import BLOCK_ENDERS, Cpu
from repro.cpu.executor import _BUILDERS, EbreakHalt, EcallTrap
from repro.isa import xmnmc
from repro.isa.asm import assemble
from repro.isa.decode import decode
from repro.mem.memory import MainMemory
from tests.test_iss_equivalence import (
    CONFIGS,
    OUTCOMES,
    PC0,
    PROGRAMS,
    SINGLE_CASES,
    _calibration_keys,
    _initial_image,
    _machine,
    _observe,
    _program_bytes,
    reference,
)


def stepped(cpu: Cpu, max_instructions: int) -> int:
    """``Cpu.run`` as one ``step`` per instruction: the reference."""
    for _ in range(max_instructions):
        try:
            cpu.step()
        except EbreakHalt:
            return cpu.cycles
    raise RuntimeError(
        f"program did not halt within {max_instructions} instructions (pc={cpu.pc:#010x})"
    )


def execute(program: bytes, config: str, mode: str, max_instructions: int = 500,
            prepare=None) -> dict:
    """Run ``program`` from ``PC0`` by blocks (``run``) or by ``step``."""
    cpu, memory, offloads = _machine(config, program, xif=True)

    def coprocessor(request):
        offloads.append([cpu.pc, cpu.cycles, cpu.instret, request.func5,
                         request.rs1_value, request.instr_id])
        return 7

    cpu.xif = coprocessor
    if prepare is not None:
        prepare(cpu)
    raised = None
    try:
        if mode == "run":
            cpu.run(max_instructions=max_instructions)
        else:
            stepped(cpu, max_instructions)
    except (*OUTCOMES, RuntimeError) as error:
        raised = f"{type(error).__name__}: {error}"
    return _observe(cpu, memory, offloads, _initial_image(program), raised)


def same_both_ways(source: str, config: str = "x_ws0", **kwargs) -> dict:
    program = bytes(assemble(source, base=PC0).data)
    by_blocks = execute(program, config, "run", **kwargs)
    assert by_blocks == execute(program, config, "step", **kwargs)
    return by_blocks


# -- the pinned programs ---------------------------------------------------------


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_pinned_program_runs_as_it_steps(name, config):
    program = _program_bytes(name)

    def prepare(cpu):
        if name.startswith("interrupt"):  # as the pinned run: step, then interrupt
            for _ in range(14):
                cpu.step()
            cpu.csrs.raise_external_interrupt()

    assert (execute(program, config, "run", prepare=prepare)
            == execute(program, config, "step", prepare=prepare))


# -- cases a block must split or stop for ------------------------------------------

STRAIGHT = "".join(f"addi x{10 + i % 4}, x{10 + i % 4}, {i + 1}\n" for i in range(10)) + "ebreak"
SPIN = """
    li x20, 0
spin:
    addi x20, x20, 1
    addi x10, x10, 3
    add x11, x11, x20
    xor x12, x12, x11
    j spin
"""


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_load_fault_mid_block_leaves_state_at_the_load(config):
    result = same_both_ways("""
        addi x10, x10, 1
        addi x11, x11, 2
        lw x12, 0(x3)
        addi x13, x13, 3
        ebreak
    """, config)  # x3 = 0xFFFFFFFF: out of range
    assert result["raised"].startswith("MainMemoryError")
    assert result["pc"] == PC0 + 8 and result["instret"] == 2 and result["cycles"] == 2


@pytest.mark.parametrize("budget", range(1, 13))
def test_budget_ending_mid_block_stops_where_stepping_does(budget):
    result = same_both_ways(STRAIGHT, max_instructions=budget)
    if budget <= 10:
        assert result["raised"] == (f"RuntimeError: program did not halt within {budget} "
                                    f"instructions (pc={PC0 + 4 * budget:#010x})")
        assert result["instret"] == budget
    else:
        assert result["raised"] is None and result["instret"] == 10


@pytest.mark.parametrize("budget", [1, 2, 5, 6, 7, 13, 24, 33])
def test_budget_ending_inside_a_loop(budget):
    result = same_both_ways(SPIN, max_instructions=budget)
    assert result["raised"].startswith("RuntimeError") and result["instret"] == budget


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_csr_write_enabling_a_pending_interrupt_takes_it_before_the_next_instruction(config):
    source = """
        la t0, handler
        csrrw zero, 0x305, t0
        li t0, 0x800
        csrrs zero, 0x304, t0
        csrrsi zero, 0x300, 8
    resume:
        addi x10, x10, 1
        addi x10, x10, 1
        addi x10, x10, 1
        ebreak
    handler:
        li x11, 77
        li t2, 0x800
        csrrc zero, 0x344, t2
        mret
    """
    result = same_both_ways(source, config,
                            prepare=lambda cpu: cpu.csrs.raise_external_interrupt())
    resume = assemble(source, base=PC0).symbols["resume"]
    assert result["csrs"][str(0x341)] == resume  # mepc: nothing after the csrrsi ran
    assert result["regs"]["11"] == 77 and result["regs"]["10"] == (0xFFFFFFF9 + 3) & 0xFFFFFFFF


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_loop_end_inside_an_already_built_block(config):
    # the first pass builds one block from again to bnez; the second
    # sets a loop whose end (mid) is inside it, so the block must be split
    result = same_both_ways("""
        li x20, 0
        j again
    again:
        addi x10, x10, 1
        addi x11, x11, 1
    mid:
        addi x12, x12, 1
        addi x13, x13, 1
        bnez x20, done
        li x20, 1
        cv.starti 0, again
        cv.endi 0, mid
        cv.counti 0, 3
        j again
    done:
        ebreak
    """, config)
    assert result["regs"]["12"] == (0x8081FF7F + 2) & 0xFFFFFFFF  # mid ran on each pass
    assert result["regs"]["10"] == (0xFFFFFFF9 + 4) & 0xFFFFFFFF  # 1 + 3 loop trips


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_taken_branch_onto_a_loop_end_loops_back(config):
    result = same_both_ways("""
        cv.starti 0, body
        cv.endi 0, end
        cv.counti 0, 3
    body:
        addi x10, x10, 1
        beq x0, x0, end
        addi x11, x11, 1
    end:
        addi x12, x12, 1
        addi x13, x13, 1
        ebreak
    """, config)
    assert result["regs"]["10"] == (0xFFFFFFF9 + 3) & 0xFFFFFFFF
    assert "11" not in result["regs"]


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_offload_between_alu_instructions_sees_committed_state(config):
    result = same_both_ways(f"""
        addi x10, x10, 1
        addi x11, x11, 1
        .word {xmnmc.encode_xmk(0, "w", 12, 13, 21)}
        addi x12, x12, 1
        lw x13, 0(x8)
        .word {xmnmc.encode_xmr("w", 10, 11, 12)}
        addi x14, x14, 1
        ebreak
    """, config)
    (first_pc, first_cycles, first_instret, *_), (second_pc, _, second_instret, *_) = (
        result["offloads"])
    assert (first_pc, first_cycles, first_instret) == (PC0 + 8, 2, 2)
    assert (second_pc, second_instret) == (PC0 + 20, 5)
    assert result["instret"] == 7


def test_reset_with_new_code_at_the_same_pcs():
    first = bytes(assemble(STRAIGHT, base=PC0).data)
    second_source = """
        addi x10, x10, 5
        beq x0, x0, skip
        addi x11, x11, 1
    skip:
        addi x12, x12, 1
        ebreak
    """
    second = bytes(assemble(second_source, base=PC0).data)
    cpu, memory, offloads = _machine("x_ws0", first, xif=True)
    cpu.run(max_instructions=100)
    memory.write_block(PC0, second)
    cpu.reset(PC0)
    cpu.run(max_instructions=100)
    fresh = MainMemory(0x2000)
    fresh.write_block(PC0, second)
    reference_cpu = Cpu(fresh)
    reference_cpu.pc = PC0
    stepped(reference_cpu, 100)
    assert cpu.regs.snapshot() == reference_cpu.regs.snapshot()
    assert (cpu.pc, cpu.cycles, cpu.instret) == (reference_cpu.pc, reference_cpu.cycles, 3)


def test_block_cache_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(Cpu, "DECODE_CACHE_LIMIT", 8)
    sizes = []
    build = Cpu._build_block

    def recording(self, pc):
        block = build(self, pc)
        sizes.append(len(self._blocks))
        return block

    monkeypatch.setattr(Cpu, "_build_block", recording)
    # 30 jumps, each the start of its own block
    source = "".join(f"j hop{i}\nhop{i}:\n" for i in range(30)) + "ebreak"
    result = same_both_ways(source)
    assert result["instret"] == 30 and max(sizes) == 8


# -- ecall retires as a no-op in run() ----------------------------------------------


def _bare(source: str) -> Cpu:
    program = assemble(source)
    memory = MainMemory(4096)
    memory.write_block(0, bytes(program.data))
    return Cpu(memory)


def test_run_retires_ecall_as_a_no_op():
    cpu = _bare("addi a0, zero, 5\necall\naddi a0, a0, 1\nebreak")
    assert cpu.run(max_instructions=1000) == 3
    assert cpu.regs[10] == 6 and cpu.instret == 3 and cpu.pc == 0xC


def test_step_still_raises_ecall_with_state_unchanged():
    cpu = _bare("addi a0, zero, 5\necall\naddi a0, a0, 1\nebreak")
    cpu.step()
    with pytest.raises(EcallTrap):
        cpu.step()
    assert (cpu.pc, cpu.cycles, cpu.instret, cpu.regs[10]) == (4, 1, 1, 5)


def test_ecall_at_a_loop_end_still_loops_back():
    cpu = _bare("li t0, 3\ncv.setup 0, t0, end\naddi a0, a0, 1\necall\nend:\nebreak")
    cpu.run(max_instructions=100)
    assert cpu.regs[10] == 3 and cpu.instret == 2 + 3 * 2


# -- block enders -----------------------------------------------------------------


def test_block_enders_are_executor_mnemonics():
    assert BLOCK_ENDERS <= set(_BUILDERS)
    assert {"beq", "jal", "jalr", "mret", "ecall", "ebreak", "csrrw", "csrrci",
            "cv.setup", "cv.starti", "cv.endi", "cv.count", "xmr.w", "xmk0.b"} <= BLOCK_ENDERS


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_non_enders_never_redirect_trap_or_touch_loop_and_csr_state(config):
    # checked against the pinned single-step results
    for case_id, raw, length in SINGLE_CASES:
        if raw in (0, 0xFFFFFFFF) or decode(raw).mnemonic in BLOCK_ENDERS:
            continue
        result = reference()["single"][case_id]
        assert result["raised"] in (None, "MainMemoryError"), case_id
        if result["raised"] is None:
            assert result["pc"] == PC0 + length, case_id
        assert result["hwloop"] == [[0, 0, 0], [0, 0, 0]], case_id
        assert result["csrs"] == {} and result["offloads"] == [], case_id


# -- the calibration runs behind the baseline models --------------------------------


@functools.lru_cache(maxsize=None)
def calibration_both_ways():
    """Every calibration run by blocks and by steps: key -> (run state, step state)."""
    block_run = Cpu.run
    results = {}
    for arch, esize, shape in _calibration_keys():
        states = []
        for mode in ("run", "step"):
            cores = []

            def observed(self, max_instructions=10_000_000):
                cores.append(self)
                if mode == "run":
                    return block_run(self, max_instructions)
                return stepped(self, max_instructions)

            Cpu.run = observed
            try:
                output, cycles = models._RUNNERS[arch](*_calibration_inputs(esize, shape))
            finally:
                Cpu.run = block_run
            (cpu,) = cores
            states.append({
                "cycles": cycles,
                "output": hashlib.sha256(output.tobytes()).hexdigest(),
                "memory": hashlib.sha256(cpu.memory.read_block(0, cpu.memory.size)).hexdigest(),
                "regs": cpu.regs.snapshot(),
                "pc": cpu.pc,
                "instret": cpu.instret,
                "hwloop": [[loop.start, loop.end, loop.count] for loop in cpu.hwloop],
                "blocks": len(cpu._blocks),
            })
        results[f"{arch}/{esize}/{shape.height}x{shape.width}k{shape.k}"] = tuple(states)
    return results


def _calibration_inputs(esize, shape):
    rng = np.random.default_rng(1234 + esize)
    dtype = models._DTYPES[esize]
    image = rng.integers(-8, 8, (shape.channels * shape.height, shape.width)).astype(dtype)
    filters = rng.integers(-2, 3, (shape.channels * shape.k, shape.k)).astype(dtype)
    return image, filters


@pytest.mark.parametrize(
    "key", [f"{a}/{e}/{s.height}x{s.width}k{s.k}" for a, e, s in _calibration_keys()],
)
def test_calibration_run_by_blocks_matches_stepping(key):
    by_blocks, by_steps = calibration_both_ways()[key]
    assert by_blocks["blocks"] <= Cpu.DECODE_CACHE_LIMIT
    by_steps["blocks"] = by_blocks["blocks"]  # stepping builds no blocks
    assert by_blocks == by_steps
    assert [by_blocks["cycles"], by_blocks["output"][:24]] == reference()["calibration"][key]


def test_calibration_runs_retire_the_pinned_instruction_total():
    # 1,722,675 retired-or-halting instructions: every run's instret plus its ebreak
    total = sum(by_blocks["instret"] + 1 for by_blocks, _ in calibration_both_ways().values())
    assert total == 1_722_675
