"""Cycle-timing model tests for the CV32E40X/PX pipelines."""

from repro.cpu.core import Cpu
from repro.cpu.timing import CV32E40PX_TIMING, CV32E40X_TIMING, TimingModel
from repro.isa.asm import assemble
from repro.mem.memory import MainMemory


def run(source: str, timing=CV32E40X_TIMING, wait_states: int = 0) -> Cpu:
    program = assemble(source)
    memory = MainMemory(64 * 1024)
    memory.write_block(0, bytes(program.data))
    cpu = Cpu(memory, timing=timing, memory_wait_states=wait_states)
    cpu.run()
    return cpu


def test_single_cycle_alu_chain():
    cpu = run("addi a0, zero, 1\naddi a0, a0, 1\naddi a0, a0, 1\nebreak")
    # 3 ALU ops + ebreak(raises before charging) -> 3 cycles
    assert cpu.cycles == 3


def test_taken_branch_penalty():
    not_taken = run("li a0, 1\nbeqz a0, skip\nskip:\nebreak")
    taken = run("li a0, 0\nbeqz a0, skip\nnop\nskip:\nebreak")
    # same retired instruction count on the branch path, +2 flush cycles
    assert taken.cycles - not_taken.cycles == 2


def test_jump_penalty():
    jump = run("j skip\nnop\nskip:\nebreak")
    straight = run("nop\nebreak")
    assert jump.cycles - straight.cycles == 1


def test_mulh_slower_than_mul():
    mul = run("li a0, 3\nli a1, 4\nmul a2, a0, a1\nebreak")
    mulh = run("li a0, 3\nli a1, 4\nmulh a2, a0, a1\nebreak")
    assert mulh.cycles - mul.cycles == 4  # 5-cycle mulh vs 1-cycle mul


def test_divider_is_iterative():
    div = run("li a0, 100\nli a1, 3\ndiv a2, a0, a1\nebreak")
    mul = run("li a0, 100\nli a1, 3\nmul a2, a0, a1\nebreak")
    assert div.cycles > mul.cycles + 10


def test_memory_wait_states_charged():
    source = "li a0, 0x100\nlw a1, 0(a0)\nsw a1, 4(a0)\nebreak"
    fast = run(source, wait_states=0)
    slow = run(source, wait_states=3)
    assert slow.cycles - fast.cycles == 6  # 3 per access, 2 accesses


def test_instret_counts_instructions_not_cycles():
    cpu = run("li a0, 9\nli a1, 3\ndiv a2, a0, a1\nebreak")
    assert cpu.instret == 3
    assert cpu.cycles > cpu.instret


def test_px_timing_matches_base_for_shared_ops():
    base = run("li a0, 1\nli a1, 2\nadd a2, a0, a1\nebreak", CV32E40X_TIMING)
    px = run("li a0, 1\nli a1, 2\nadd a2, a0, a1\nebreak", CV32E40PX_TIMING)
    assert base.cycles == px.cycles


def test_simd_is_single_cycle():
    cpu = run("li a0, 1\nli a1, 2\npv.add.b a2, a0, a1\nebreak", CV32E40PX_TIMING)
    plain = run("li a0, 1\nli a1, 2\nadd a2, a0, a1\nebreak", CV32E40PX_TIMING)
    assert cpu.cycles == plain.cycles


def test_memory_classes_come_from_the_decoder_tables():
    # cv.setup / cv.setupi / cv.starti share the "cv.s" prefix with the
    # post-increment stores but are hardware-loop set-up, not stores
    timing = TimingModel(name="slow-memory", load_cycles=2, store_cycles=3)
    for mnemonic in ("cv.setup", "cv.setupi", "cv.starti", "cv.sdotsp", "csrrs"):
        assert timing.cycles_for(mnemonic) == 1, mnemonic
    for mnemonic in ("lb", "lh", "lw", "lbu", "lhu", "cv.lb", "cv.lh", "cv.lw", "cv.lbu", "cv.lhu"):
        assert timing.cycles_for(mnemonic) == 2, mnemonic
    for mnemonic in ("sb", "sh", "sw", "cv.sb", "cv.sh", "cv.sw"):
        assert timing.cycles_for(mnemonic) == 3, mnemonic


def test_non_default_memory_cycles_in_the_iss():
    timing = TimingModel(name="slow-memory", load_cycles=2, store_cycles=3)
    memory_ops = run(
        "li a0, 0x100\nlw a1, 0(a0)\nsw a1, 4(a0)\ncv.lw a2, 4(a0!)\ncv.sw a2, 4(a0!)\nebreak",
        timing,
    )
    assert memory_ops.cycles == 1 + 2 + 3 + 2 + 3
    hwloop = run("li t0, 2\ncv.setup 0, t0, end\naddi a3, a3, 1\nend:\nebreak", timing)
    assert hwloop.regs[13] == 2
    assert hwloop.cycles == 1 + 1 + 2  # li, cv.setup (not a store), two addi
