"""Cross-cutting property-based tests (hypothesis).

The heavyweight invariants:

* the LLC controller is *transparent*: any interleaving of host reads and
  writes through the cache observes exactly the same values as a flat
  memory (write-back, eviction, refill and approximate-LRU are invisible
  to software semantics);
* assembled `li` materialises every 32-bit constant exactly;
* the conv-layer micro-program equals the golden model for arbitrary
  shapes/data (in test_kernels.py);
* phase breakdowns merge associatively;
* fault-free dispatch binds late under every admission policy: the
  admission queue never holds more than its capacity, no request waits
  while a worker is idle, and the dispatch log is in cycle order;
* memo ≡ run: an engine serving repeats from its result memo reports
  exactly what a memo-less pool of fresh workers does, results and
  event log alike;
* segment ≡ per-op: vector ops a kernel context buffers and runs at the
  next synchronisation point (same-``vd`` ``vmacc.vs`` chains as one
  gather-dot) leave the same register bytes, read values, cycle costs
  and counters as executing each op when it is issued.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cache.cache_table import CacheTable
from repro.cpu.core import Cpu
from repro.isa.asm import assemble
from repro.mem.memory import MainMemory
from repro.runtime.context import KernelContext
from repro.runtime.phases import PHASES, PhaseBreakdown
from repro.sim.stats import StatsRegistry
from repro.utils.bitops import to_signed
from repro.vpu.dispatcher import Dispatcher
from repro.vpu.visa import ElementType, VectorOp, VectorOpcode
from repro.vpu.vpu import Vpu
from repro.vpu.vrf import VectorRegisterFile

from tests.conftest import CacheHarness


@st.composite
def host_operations(draw):
    """A random sequence of aligned host accesses within a small region."""
    ops = []
    for _ in range(draw(st.integers(1, 40))):
        size = draw(st.sampled_from([1, 2, 4]))
        # region spans several cache lines (64 B lines in the harness)
        slot = draw(st.integers(0, 127))
        address = 0x1000 + slot * 4 + draw(st.sampled_from(
            [0] if size == 4 else ([0, 2] if size == 2 else [0, 1, 2, 3])
        ))
        if draw(st.booleans()):
            value = draw(st.integers(0, (1 << (8 * size)) - 1))
            ops.append(("write", address, size, value))
        else:
            ops.append(("read", address, size))
    return ops


@given(host_operations())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cache_is_transparent_to_software(ops):
    """Cache + memory together behave exactly like one flat memory."""
    cache = CacheHarness(n_vpus=2, vregs=2, line_bytes=64)  # tiny: forces evictions
    reference = MainMemory(64 * 1024)

    for op in ops:
        if op[0] == "write":
            _, address, size, value = op
            cache.write(address, value, size)
            if size == 4:
                reference.write_u32(address, value)
            elif size == 2:
                reference.write_u16(address, value)
            else:
                reference.write_u8(address, value)
        else:
            _, address, size = op
            got = cache.read(address, size)
            if size == 4:
                expected = reference.read_u32(address)
            elif size == 2:
                expected = reference.read_u16(address)
            else:
                expected = reference.read_u8(address)
            assert got == expected

    # after a flush, main memory itself converges to the reference
    cache.controller.flush()
    assert bytes(cache.memory.read_block(0x1000, 512)) == bytes(
        reference.read_block(0x1000, 512)
    )


@given(st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1))
@settings(max_examples=60, deadline=None)
def test_li_materialises_any_constant(value):
    program = assemble(f"li a0, {value}\nebreak")
    memory = MainMemory(4096)
    memory.write_block(0, bytes(program.data))
    cpu = Cpu(memory)
    cpu.run()
    assert to_signed(cpu.regs[10]) == value


@given(
    st.lists(
        st.tuples(st.sampled_from(PHASES), st.integers(0, 10_000)),
        max_size=30,
    )
)
@settings(max_examples=40, deadline=None)
def test_phase_breakdown_merge_equals_sum(entries):
    split_a, split_b, together = PhaseBreakdown(), PhaseBreakdown(), PhaseBreakdown()
    for index, (phase, amount) in enumerate(entries):
        (split_a if index % 2 else split_b).add(phase, amount)
        together.add(phase, amount)
    split_a.merge(split_b)
    assert split_a.cycles == together.cycles
    assert split_a.total == together.total


@given(st.integers(0, 255), st.integers(1, 8), st.integers(1, 16))
@settings(max_examples=40, deadline=None)
def test_bus_2d_cost_additive(row_bytes, rows_a, rows_b):
    """Transferring A+B rows costs exactly the sum of the two transfers."""
    from repro.mem.bus import BusModel

    bus = BusModel(offchip_latency=10)
    combined = bus.transfer_2d_cycles(row_bytes, rows_a + rows_b, offchip=True)
    split = (bus.transfer_2d_cycles(row_bytes, rows_a, offchip=True)
             + bus.transfer_2d_cycles(row_bytes, rows_b, offchip=True))
    assert combined == split


@given(
    rows=st.integers(1, 6), cols=st.integers(1, 24),
    alpha=st.integers(0, 7), seed=st.integers(0, 2**16),
    dtype=st.sampled_from([np.int8, np.int16, np.int32]),
)
@settings(max_examples=15, deadline=None)
def test_leaky_relu_kernel_property(rows, cols, alpha, seed, dtype):
    """Arbitrary shapes/dtypes/shifts: xmk1 == golden model."""
    from repro.baselines.reference import ref_leaky_relu
    from repro.core.config import ArcaneConfig
    from repro.core.system import ArcaneSystem

    rng = np.random.default_rng(seed)
    info = np.iinfo(dtype)
    x = rng.integers(info.min, int(info.max) + 1, (rows, cols)).astype(dtype)
    system = ArcaneSystem(
        ArcaneConfig(n_vpus=2, lanes=4, line_bytes=256, vpu_kib=4, main_memory_kib=512)
    )
    mx = system.place_matrix(x)
    out = system.alloc_matrix((rows, cols), dtype)
    with system.program() as prog:
        prog.xmr(0, mx).xmr(1, out)
        prog.leaky_relu(dest=1, src=0, alpha=alpha, suffix=mx.etype.suffix)
    assert np.array_equal(system.read_matrix(out), ref_leaky_relu(x, alpha))


@given(
    m=st.integers(1, 5), k=st.integers(1, 6), n=st.integers(1, 12),
    alpha=st.integers(-3, 3), beta=st.integers(-2, 2), seed=st.integers(0, 999),
)
@settings(max_examples=12, deadline=None)
def test_gemm_kernel_property(m, k, n, alpha, beta, seed):
    """Arbitrary GeMM shapes and scalar parameters: xmk0 == golden."""
    from repro.baselines.reference import ref_gemm
    from repro.core.config import ArcaneConfig
    from repro.core.system import ArcaneSystem

    rng = np.random.default_rng(seed)
    a = rng.integers(-9, 9, (m, k)).astype(np.int32)
    b = rng.integers(-9, 9, (k, n)).astype(np.int32)
    c = rng.integers(-9, 9, (m, n)).astype(np.int32)
    system = ArcaneSystem(
        ArcaneConfig(n_vpus=2, lanes=4, line_bytes=256, vpu_kib=4, main_memory_kib=512)
    )
    ma, mb, mc = (system.place_matrix(x) for x in (a, b, c))
    md = system.alloc_matrix((m, n), np.int32)
    with system.program() as prog:
        prog.xmr(0, ma).xmr(1, mb).xmr(2, mc).xmr(3, md)
        prog.gemm(dest=3, a=0, b=1, c=2, alpha=alpha, beta=beta)
    assert np.array_equal(system.read_matrix(md), ref_gemm(a, b, c, alpha, beta))


_PROPERTY_PAYLOADS = [
    (
        np.random.default_rng(shape).integers(-5, 5, shape[:2]).astype(np.int16),
        np.random.default_rng(shape).integers(-5, 5, shape[1:]).astype(np.int16),
    )
    for shape in ((4, 6, 5), (8, 6, 5), (6, 8, 7))
]


@pytest.mark.dispatch
@given(
    pool_size=st.integers(1, 3),
    admission=st.sampled_from(["fifo", "priority", "edf", "sjf"]),
    traffic=st.one_of(
        st.builds(
            "bursty:{}:{}".format, st.integers(2, 8), st.sampled_from([0, 9000, 20000])
        ),
        st.builds("poisson:{}".format, st.sampled_from([40, 120, 300])),
    ),
    capacity=st.sampled_from([None, 1, 2, 4]),
    kinds=st.lists(  # (payload, priority) per request
        st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=10
    ),
    seed=st.integers(0, 99),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_dispatch_binds_late_under_every_policy(
    pool_size, admission, traffic, capacity, kinds, seed
):
    """Bounded admission holds, no request waits beside an idle worker,
    and log cycles never decrease, for any pool, policy and traffic."""
    from repro.core.config import ArcaneConfig
    from repro.serve import ServingEngine, gemm_request

    requests = []
    for rid, (payload, priority) in enumerate(kinds):
        request = gemm_request(rid, *_PROPERTY_PAYLOADS[payload])
        request.priority = priority
        requests.append(request)
    engine = ServingEngine(
        pool_size=pool_size, admission=admission,
        config=ArcaneConfig(n_vpus=2, lanes=4, line_bytes=256, vpu_kib=8,
                            main_memory_kib=512),
    )
    report = engine.serve_online(
        requests, traffic=traffic, seed=seed, queue_capacity=capacity
    )
    log = report.dispatch_events
    assert [e.cycle for e in log] == sorted(e.cycle for e in log)

    # each request waits from its arrival to the cycle it starts or is shed
    arrived = {e.request_id: e.cycle for e in log if e.kind == "arrival"}
    waits = [
        (arrived[e.request_id], e.cycle) for e in log if e.kind in ("dispatch", "shed")
    ]
    assert len(waits) == len(requests)
    if capacity is not None:
        for instant in arrived.values():
            depth = sum(begin <= instant < end for begin, end in waits)
            assert depth <= capacity
    busy = {worker: [] for worker in range(pool_size)}
    for result in report.results:
        if result.completed:
            busy[result.worker].append((result.start_cycle, result.completion_cycle))
    for begin, end in waits:
        for spans in busy.values():
            covered = begin
            for start, completion in sorted(spans):
                if start <= covered:
                    covered = max(covered, completion)
            assert covered >= end, (begin, end, sorted(spans))


def _memo_payloads():
    """gemm, fc and conv-layer payloads of a few shapes: request factories."""
    from repro.compiler import FUNC5_FC
    from repro.serve import conv_layer_request, gemm_request, kernel_request

    rng = np.random.default_rng(77)

    def draw(shape, dtype, bound=6):
        return rng.integers(-bound, bound, shape).astype(dtype)

    factories = []
    for m, k, n in ((4, 6, 5), (6, 8, 7)):
        a, b = draw((m, k), np.int16), draw((k, n), np.int16)
        factories.append(
            lambda rid, a=a, b=b: gemm_request(rid, a, b, alpha=2, beta=-1)
        )
    for size in (8, 12):
        xv, w = draw((1, size), np.int16), draw((size, size // 2), np.int16)
        bias = draw((1, size // 2), np.int16)
        factories.append(lambda rid, xv=xv, w=w, bias=bias: kernel_request(
            rid, FUNC5_FC, [xv, w, bias], (1, bias.shape[1])
        ))
    for size in (6, 8):
        x, f = draw((3 * size, size), np.int8, 8), draw((9, 3), np.int8, 2)
        factories.append(lambda rid, x=x, f=f: conv_layer_request(rid, x, f))
    return factories


_MEMO_PAYLOADS = _memo_payloads()


def _served(result):
    """Everything a serving result reports, bar host time and kernel ids."""
    output = result.output
    return (
        result.request_id, result.status, result.worker, result.attempts,
        result.error, result.fault_class, result.arrival_cycle,
        result.start_cycle, result.completion_cycle, result.sim_cycles,
        None if output is None else (output.dtype.str, output.tobytes()),
        sorted(result.breakdown.cycles.items()), result.integrity,
        [
            (r.total_cycles, r.host_cycles, sorted(r.breakdown.cycles.items()),
             sorted(r.stats.items()), r.outcomes)
            for r in result.reports
        ],
        [
            (launch["name"], launch["cycles"], launch["start_cycle"],
             launch["end_cycle"])
            for launch in result.launches
        ],
    )


@pytest.mark.dispatch
@given(
    picks=st.lists(st.integers(0, len(_MEMO_PAYLOADS) - 1), min_size=2, max_size=8),
    pool_size=st.integers(1, 2),
    plan=st.sampled_from([None, "kill:0.3", "transient:0.3", "kill:0.2,transient:0.2"]),
    fault_seed=st.integers(0, 9),
    integrity=st.sampled_from(["off", "abft"]),
    observe=st.booleans(),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_memo_serves_what_a_run_would(
    picks, pool_size, plan, fault_seed, integrity, observe
):
    """A batch with repeats served by an engine (result memo on) equals
    the same batch on a memo-less pool of fresh workers, result for
    result and event for event."""
    from repro.core.config import ArcaneConfig
    from repro.serve import (
        DispatchCore,
        FaultInjector,
        FaultPlan,
        SerialPool,
        ServingEngine,
        SystemWorker,
    )

    config = ArcaneConfig(n_vpus=2, lanes=4, line_bytes=256, vpu_kib=8,
                          main_memory_kib=512)
    requests = [_MEMO_PAYLOADS[pick](rid) for rid, pick in enumerate(picks)]
    engine = ServingEngine(pool_size=pool_size, config=config, integrity=integrity)
    report = engine.serve(requests, faults=plan, fault_seed=fault_seed,
                          observe=observe)
    core = DispatchCore(
        SerialPool([
            SystemWorker(i, config, integrity=integrity) for i in range(pool_size)
        ]),
        injector=FaultInjector(FaultPlan.parse(plan), fault_seed) if plan else None,
        observe=observe,
    )
    results = core.run(requests)
    assert list(map(_served, report.results)) == list(map(_served, results))
    assert report.dispatch_events == core.events
    if observe and plan is None:
        served = sum(
            all(launch["replay"] == "memo" for launch in result.launches)
            for result in report.results
        )
        assert served == len(picks) - len(set(picks))


# -- segment ≡ per-op -------------------------------------------------------

SEG_VREGS, SEG_LINE_BYTES = 6, 64


@st.composite
def source_window(draw, max_vl, vl):
    """(stride, offset) whose gather stays inside one register."""
    if vl == 0:
        return draw(st.integers(1, 3)), draw(st.integers(0, max_vl - 1))
    stride = draw(st.integers(1, max(1, min(4, (max_vl - 1) // max(1, vl - 1)))))
    return stride, draw(st.integers(0, max_vl - 1 - stride * (vl - 1)))


def vop_scalar(draw, opcode, etype):
    info = np.iinfo(etype.np_dtype)
    if opcode in (VectorOpcode.VMAX_VS, VectorOpcode.VMIN_VS):
        return draw(st.integers(int(info.min), int(info.max)))
    if opcode is VectorOpcode.VSRA_VS:
        return draw(st.integers(0, info.bits - 1))
    return draw(st.one_of(
        st.sampled_from([0, 1, -1, int(info.min), int(info.max), -(2**31), 2**31 - 1]),
        st.integers(-(2**40), 2**40),
    ))


@st.composite
def single_vops(draw):
    opcode = draw(st.sampled_from(list(VectorOpcode)))
    etype = draw(st.sampled_from(list(ElementType)))
    max_vl = SEG_LINE_BYTES // etype.nbytes
    vl = draw(st.integers(0, max_vl))
    stride, offset = draw(source_window(max_vl, vl))
    return VectorOp(
        opcode, etype, vd=draw(st.integers(0, SEG_VREGS - 1)),
        vs1=draw(st.integers(0, SEG_VREGS - 1)), vs2=draw(st.integers(0, SEG_VREGS - 1)),
        vl=vl, scalar=vop_scalar(draw, opcode, etype), offset=offset, stride=stride,
        vd_offset=draw(st.integers(0, max_vl - vl)),
    )


@st.composite
def macc_chains(draw):
    """2-6 ``vmacc.vs`` sharing vd, vl, etype, stride and vd_offset; a
    term may read vd."""
    etype = draw(st.sampled_from(list(ElementType)))
    max_vl = SEG_LINE_BYTES // etype.nbytes
    vl = draw(st.integers(1, max_vl))
    stride, _ = draw(source_window(max_vl, vl))
    vd = draw(st.integers(0, SEG_VREGS - 1))
    vd_offset = draw(st.integers(0, max_vl - vl))
    return [
        VectorOp(
            VectorOpcode.VMACC_VS, etype, vd=vd, vs1=draw(st.integers(0, SEG_VREGS - 1)),
            vl=vl, scalar=vop_scalar(draw, VectorOpcode.VMACC_VS, etype),
            offset=draw(st.integers(0, max_vl - 1 - stride * (vl - 1))),
            stride=stride, vd_offset=vd_offset,
        )
        for _ in range(draw(st.integers(2, 6)))
    ]


@st.composite
def element_reads(draw):
    etype = draw(st.sampled_from(list(ElementType)))
    return ("read", draw(st.integers(0, SEG_VREGS - 1)),
            draw(st.integers(0, SEG_LINE_BYTES // etype.nbytes - 1)), etype)


@st.composite
def segment_programs(draw):
    steps = []
    for _ in range(draw(st.integers(1, 16))):
        kind = draw(st.sampled_from(["op", "chain", "read", "sync"]))
        if kind == "op":
            steps.append(("op", draw(single_vops())))
        elif kind == "chain":
            steps.extend(("op", op) for op in draw(macc_chains()))
        elif kind == "read":
            steps.append(draw(element_reads()))
        else:
            steps.append(("sync",))
    return steps


@given(segment_programs(), st.integers(0, 2**32 - 1))
@settings(deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
def test_segment_runs_what_per_op_execution_would(steps, seed):
    """A kernel context's deferred segments ≡ ``Dispatcher.dispatch`` per op."""
    fill = np.random.default_rng(seed).integers(
        0, 256, SEG_VREGS * SEG_LINE_BYTES, dtype=np.uint8
    )
    dispatchers = []
    for _ in range(2):
        table = CacheTable(1, SEG_VREGS, SEG_LINE_BYTES)
        table.storage[:] = fill
        stats = StatsRegistry()
        vpu = Vpu(0, VectorRegisterFile(table.vpu_lines(0)), lanes=4, stats=stats)
        dispatchers.append(Dispatcher([vpu], issue_cycles=3, stats=stats))
    deferred, per_op = dispatchers
    kc = KernelContext(0, ElementType.W, None, deferred, PhaseBreakdown())
    per_op_vrf = per_op.vpu(0).vrf

    def run_now(generator):
        try:
            next(generator)
        except StopIteration as done:
            return done.value
        raise AssertionError("vop/read_element suspended")

    seen, expected = [], []
    for step in steps:
        if step[0] == "op":
            op = step[1]
            seen.append(run_now(kc.vop(
                op.opcode, op.vd, op.vs1, op.vs2, op.vl, op.scalar, op.offset,
                op.stride, op.vd_offset, op.etype,
            )))
            expected.append(per_op.dispatch(0, op))
        elif step[0] == "read":
            _, vreg, index, etype = step
            seen.append(run_now(kc.read_element(vreg, index, etype)))
            expected.append(int(per_op_vrf.view(vreg, etype)[index]))
        else:
            for _ in kc.flush():
                pass
    for _ in kc.flush():
        pass
    assert seen == expected
    assert deferred.vpu(0).vrf.lines[0].data.base.tobytes() \
        == per_op_vrf.lines[0].data.base.tobytes()
    assert deferred.stats.counters() == per_op.stats.counters()
