"""VPU tests: vector ISA semantics, lane timing, VRF views, dispatcher."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache_table import CacheTable
from repro.sim.stats import StatsRegistry
from repro.vpu.dispatcher import Dispatcher
from repro.vpu.visa import ElementType, VectorOp, VectorOpcode
from repro.vpu.vpu import Vpu
from repro.vpu.vrf import VectorRegisterFile


def make_vpu(lanes=4, vregs=8, line_bytes=256) -> Vpu:
    ct = CacheTable(1, vregs, line_bytes)
    return Vpu(0, VectorRegisterFile(ct.vpu_lines(0)), lanes=lanes)


class TestElementType:
    def test_suffix_mapping(self):
        assert ElementType.from_suffix("b") is ElementType.B
        assert ElementType.from_suffix("w").nbytes == 4
        assert ElementType.from_bytes(2) is ElementType.H
        with pytest.raises(ValueError):
            ElementType.from_suffix("q")
        with pytest.raises(ValueError):
            ElementType.from_bytes(3)

    def test_subword_packing(self):
        assert ElementType.B.elems_per_word == 4
        assert ElementType.H.elems_per_word == 2
        assert ElementType.W.elems_per_word == 1


class TestVrf:
    def test_views_share_storage(self):
        vpu = make_vpu()
        view8 = vpu.vrf.view(0, ElementType.B)
        view32 = vpu.vrf.view(0, ElementType.W)
        view8[:4] = [1, 0, 0, 0]
        assert view32[0] == 1

    def test_max_vl(self):
        vpu = make_vpu(line_bytes=256)
        assert vpu.vrf.max_vl(ElementType.B) == 256
        assert vpu.vrf.max_vl(ElementType.W) == 64

    def test_write_offset_and_overflow(self):
        vpu = make_vpu()
        vpu.vrf.write(1, np.array([5, 6], dtype=np.int32), offset=2)
        assert vpu.vrf.view(1, ElementType.W)[2] == 5
        with pytest.raises(ValueError):
            vpu.vrf.write(1, np.zeros(65, dtype=np.int32))

    def test_bad_register_index(self):
        vpu = make_vpu(vregs=4)
        with pytest.raises(IndexError):
            vpu.vrf.view(4, ElementType.B)

    def test_flat_view_aliases_every_register(self):
        # VPU 1's slice starts mid-storage: flat index r * max_vl + i
        ct = CacheTable(2, 4, 64)
        vrf = VectorRegisterFile(ct.vpu_lines(1))
        flat = vrf.flat(ElementType.H)
        flat[32 * 2 + 5] = -7
        assert vrf.view(2, ElementType.H)[5] == -7
        assert len(flat) == 4 * 32

    def test_lines_from_separate_buffers_are_rejected(self):
        from repro.cache.line import CacheLine

        lines = [CacheLine(i, np.zeros(64, dtype=np.uint8)) for i in range(2)]
        with pytest.raises(ValueError, match="consecutive slices"):
            VectorRegisterFile(lines)


class TestSemantics:
    def test_vclear(self):
        vpu = make_vpu()
        vpu.vrf.fill(0, 77, ElementType.W)
        vpu.execute(VectorOp(VectorOpcode.VCLEAR, ElementType.W, vd=0, vl=10))
        assert np.all(vpu.vrf.view(0, ElementType.W)[:10] == 0)
        assert vpu.vrf.view(0, ElementType.W)[10] == 77  # beyond vl untouched

    def test_vmacc_vs(self):
        vpu = make_vpu()
        vpu.vrf.write(1, np.arange(8, dtype=np.int32))
        vpu.execute(VectorOp(VectorOpcode.VCLEAR, ElementType.W, vd=0, vl=8))
        vpu.execute(VectorOp(VectorOpcode.VMACC_VS, ElementType.W, vd=0, vs1=1,
                             scalar=3, vl=8))
        assert np.array_equal(vpu.vrf.view(0, ElementType.W)[:8],
                              3 * np.arange(8, dtype=np.int32))

    def test_vmacc_wraps_in_element_width(self):
        vpu = make_vpu()
        vpu.vrf.write(1, np.array([100], dtype=np.int8))
        vpu.execute(VectorOp(VectorOpcode.VCLEAR, ElementType.B, vd=0, vl=1))
        vpu.execute(VectorOp(VectorOpcode.VMACC_VS, ElementType.B, vd=0, vs1=1,
                             scalar=2, vl=1))
        assert vpu.vrf.view(0, ElementType.B)[0] == np.int64(200).astype(np.int8)

    def test_offset_and_stride_gather(self):
        vpu = make_vpu()
        vpu.vrf.write(1, np.arange(16, dtype=np.int32))
        vpu.execute(VectorOp(VectorOpcode.VMV, ElementType.W, vd=0, vs1=1,
                             vl=4, offset=1, stride=3))
        assert list(vpu.vrf.view(0, ElementType.W)[:4]) == [1, 4, 7, 10]

    def test_vmax_vv_accumulates_into_vd(self):
        vpu = make_vpu()
        vpu.vrf.write(0, np.array([5, -2, 0, 9], dtype=np.int32))
        vpu.vrf.write(1, np.array([3, 4, -1, 20], dtype=np.int32))
        vpu.execute(VectorOp(VectorOpcode.VMAX_VV, ElementType.W, vd=0, vs1=1, vl=4))
        assert list(vpu.vrf.view(0, ElementType.W)[:4]) == [5, 4, 0, 20]

    def test_vmax_vmin_vs(self):
        vpu = make_vpu()
        vpu.vrf.write(1, np.array([-3, 2], dtype=np.int16))
        vpu.execute(VectorOp(VectorOpcode.VMAX_VS, ElementType.H, vd=0, vs1=1,
                             scalar=0, vl=2))
        assert list(vpu.vrf.view(0, ElementType.H)[:2]) == [0, 2]
        vpu.execute(VectorOp(VectorOpcode.VMIN_VS, ElementType.H, vd=2, vs1=1,
                             scalar=0, vl=2))
        assert list(vpu.vrf.view(2, ElementType.H)[:2]) == [-3, 0]

    def test_vsra(self):
        vpu = make_vpu()
        vpu.vrf.write(1, np.array([-8, 8], dtype=np.int32))
        vpu.execute(VectorOp(VectorOpcode.VSRA_VS, ElementType.W, vd=0, vs1=1,
                             scalar=2, vl=2))
        assert list(vpu.vrf.view(0, ElementType.W)[:2]) == [-2, 2]

    def test_vredsum(self):
        vpu = make_vpu()
        vpu.vrf.write(1, np.arange(10, dtype=np.int32))
        vpu.execute(VectorOp(VectorOpcode.VREDSUM, ElementType.W, vd=0, vs1=1, vl=10))
        assert vpu.vrf.view(0, ElementType.W)[0] == 45

    def test_vadd_vv(self):
        vpu = make_vpu()
        vpu.vrf.write(1, np.array([1, 2], dtype=np.int32))
        vpu.vrf.write(2, np.array([10, 20], dtype=np.int32))
        vpu.execute(VectorOp(VectorOpcode.VADD_VV, ElementType.W, vd=0, vs1=1,
                             vs2=2, vl=2))
        assert list(vpu.vrf.view(0, ElementType.W)[:2]) == [11, 22]

    def test_vd_offset(self):
        vpu = make_vpu()
        vpu.vrf.fill(0, 9, ElementType.W)
        vpu.vrf.write(1, np.array([1], dtype=np.int32))
        vpu.execute(VectorOp(VectorOpcode.VMV, ElementType.W, vd=0, vs1=1, vl=1,
                             vd_offset=5))
        view = vpu.vrf.view(0, ElementType.W)
        assert view[5] == 1 and view[4] == 9

    def test_source_overflow_rejected(self):
        vpu = make_vpu(line_bytes=64)
        with pytest.raises(ValueError):
            vpu.execute(VectorOp(VectorOpcode.VMV, ElementType.W, vd=0, vs1=1,
                                 vl=16, offset=8))

    @given(st.lists(st.integers(-128, 127), min_size=1, max_size=32),
           st.integers(-8, 8))
    @settings(max_examples=30, deadline=None)
    def test_vmacc_matches_numpy(self, values, scalar):
        vpu = make_vpu()
        data = np.array(values, dtype=np.int8)
        vpu.vrf.write(1, data)
        vpu.execute(VectorOp(VectorOpcode.VCLEAR, ElementType.B, vd=0, vl=len(values)))
        vpu.execute(VectorOp(VectorOpcode.VMACC_VS, ElementType.B, vd=0, vs1=1,
                             scalar=scalar, vl=len(values)))
        expected = (data.astype(np.int64) * scalar).astype(np.int8)
        assert np.array_equal(vpu.vrf.view(0, ElementType.B)[: len(values)], expected)


class TestTiming:
    def test_contiguous_subword_throughput(self):
        vpu = make_vpu(lanes=4)
        op = VectorOp(VectorOpcode.VMACC_VS, ElementType.B, vd=0, vs1=1, vl=64)
        # 64 int8 / (4 lanes * 4 per lane) = 4 cycles + startup
        assert vpu.op_cycles(op) == Vpu.STARTUP_CYCLES + 4

    def test_int32_throughput(self):
        vpu = make_vpu(lanes=4)
        op = VectorOp(VectorOpcode.VMACC_VS, ElementType.W, vd=0, vs1=1, vl=64)
        assert vpu.op_cycles(op) == Vpu.STARTUP_CYCLES + 16

    def test_strided_defeats_packing(self):
        vpu = make_vpu(lanes=4)
        contiguous = VectorOp(VectorOpcode.VMV, ElementType.B, vd=0, vs1=1, vl=32)
        strided = VectorOp(VectorOpcode.VMV, ElementType.B, vd=0, vs1=1, vl=32, stride=2)
        assert vpu.op_cycles(strided) > vpu.op_cycles(contiguous)

    def test_more_lanes_faster(self):
        op = VectorOp(VectorOpcode.VMACC_VS, ElementType.W, vd=0, vs1=1, vl=60)
        assert make_vpu(lanes=8).op_cycles(op) < make_vpu(lanes=2).op_cycles(op)

    def test_empty_op_costs_startup(self):
        vpu = make_vpu()
        assert vpu.op_cycles(VectorOp(VectorOpcode.VCLEAR, ElementType.W, vd=0, vl=0)) \
            == Vpu.STARTUP_CYCLES


class TestDispatcher:
    def make(self, issue=10):
        ct = CacheTable(2, 4, 256)
        vpus = [Vpu(i, VectorRegisterFile(ct.vpu_lines(i)), lanes=4) for i in range(2)]
        return Dispatcher(vpus, issue_cycles=issue, stats=StatsRegistry())

    def test_claim_release_cycle(self):
        dispatcher = self.make()
        dispatcher.claim(0, kernel_id=1)
        assert dispatcher.owner(0) == 1
        assert dispatcher.free_vpus() == [1]
        with pytest.raises(RuntimeError):
            dispatcher.claim(0, kernel_id=2)
        dispatcher.release(0)
        assert dispatcher.free_vpus() == [0, 1]

    def test_dispatch_cost_is_pipelined_max(self):
        dispatcher = self.make(issue=10)
        short = VectorOp(VectorOpcode.VCLEAR, ElementType.W, vd=0, vl=4)
        long = VectorOp(VectorOpcode.VMACC_VS, ElementType.W, vd=0, vs1=1, vl=64)
        assert dispatcher.dispatch(0, short) == 10  # issue-bound
        vpu_cycles = dispatcher.vpu(0).op_cycles(long)
        assert vpu_cycles > 10
        assert dispatcher.dispatch(0, long) == vpu_cycles  # compute-bound

    def test_issue_bound_counter(self):
        dispatcher = self.make(issue=100)
        dispatcher.dispatch(0, VectorOp(VectorOpcode.VCLEAR, ElementType.W, vd=0, vl=4))
        assert dispatcher.stats.value("dispatch.issue_bound") == 1


class TestRedsumWrapBoundaries:
    """VREDSUM wraps its int64 total through the element dtype (the old
    ``& -1`` int64 mask was a no-op; the cast does the wrapping)."""

    @pytest.mark.parametrize(
        "etype,values,expected",
        [
            # int8: 100 + 100 = 200 -> wraps to -56
            (ElementType.B, [100, 100], -56),
            # int8: exactly the negative boundary
            (ElementType.B, [-128, -128], 0),
            # int16: 30000 + 30000 = 60000 -> wraps to -5536
            (ElementType.H, [30000, 30000], -5536),
            # int16: one past the positive boundary
            (ElementType.H, [32767, 1], -32768),
            # int32: 2**31 total wraps to the negative boundary
            (ElementType.W, [2**30, 2**30], -(2**31)),
            # int32: stays representable, no wrap
            (ElementType.W, [2**30, 2**30 - 1], 2**31 - 1),
        ],
    )
    def test_wrap_at_width_boundary(self, etype, values, expected):
        vpu = make_vpu()
        vpu.vrf.write(0, np.array(values, dtype=etype.np_dtype))
        vpu.execute(
            VectorOp(VectorOpcode.VREDSUM, etype, vd=1, vs1=0, vl=len(values))
        )
        assert int(vpu.vrf.view(1, etype)[0]) == expected

    def test_negative_total_wraps(self):
        vpu = make_vpu()
        vpu.vrf.write(0, np.array([-100, -100, -100], dtype=np.int8))
        vpu.execute(VectorOp(VectorOpcode.VREDSUM, ElementType.B, vd=1, vs1=0, vl=3))
        # -300 mod 256 -> -44
        assert int(vpu.vrf.view(1, ElementType.B)[0]) == -44


class TestStridedGatherView:
    """The strided source path uses a slice view (no per-op index-array
    allocation) with an arithmetic bounds check."""

    def test_strided_gather_matches_manual_indexing(self):
        vpu = make_vpu()
        data = np.arange(64, dtype=np.int16)
        vpu.vrf.write(0, data)
        vpu.execute(
            VectorOp(VectorOpcode.VMV, ElementType.H, vd=1, vs1=0, vl=10,
                     offset=3, stride=5)
        )
        assert np.array_equal(
            vpu.vrf.view(1, ElementType.H)[:10], data[3 : 3 + 5 * 10 : 5]
        )

    def test_strided_bounds_check_exact_fit(self):
        vpu = make_vpu(line_bytes=64)  # 32 int16 elements per register
        vpu.vrf.write(0, np.arange(32, dtype=np.int16))
        # last index = 1 + 10*3 = 31: legal
        vpu.execute(
            VectorOp(VectorOpcode.VMV, ElementType.H, vd=1, vs1=0, vl=11,
                     offset=1, stride=3)
        )
        # last index = 2 + 10*3 = 32: one past the end
        with pytest.raises(ValueError, match="overflows source register"):
            vpu.execute(
                VectorOp(VectorOpcode.VMV, ElementType.H, vd=1, vs1=0, vl=11,
                         offset=2, stride=3)
            )

    def test_strided_self_move_copies_before_writing(self):
        # vs1 == vd with overlapping strided/contiguous windows: the
        # source must be snapshotted before the destination is written
        vpu = make_vpu()
        data = np.arange(16, dtype=np.int16)
        vpu.vrf.write(0, data)
        vpu.execute(
            VectorOp(VectorOpcode.VMV, ElementType.H, vd=0, vs1=0, vl=5,
                     offset=1, stride=2)
        )
        assert np.array_equal(
            vpu.vrf.view(0, ElementType.H)[:5], data[1:11:2]
        )

    def test_strided_macc_still_exact(self):
        vpu = make_vpu()
        src = np.arange(20, dtype=np.int32)
        acc = np.ones(6, dtype=np.int32)
        vpu.vrf.write(0, src)
        vpu.vrf.write(1, acc)
        vpu.execute(
            VectorOp(VectorOpcode.VMACC_VS, ElementType.W, vd=1, vs1=0, vl=6,
                     scalar=7, offset=2, stride=3)
        )
        assert np.array_equal(
            vpu.vrf.view(1, ElementType.W)[:6], acc + 7 * src[2 : 2 + 3 * 6 : 3]
        )


def twin_dispatchers(vregs=6, line_bytes=64, issue=3, seed=0):
    """Two dispatchers over VRFs holding the same random bytes."""
    rng = np.random.default_rng(seed)
    fill = rng.integers(0, 256, vregs * line_bytes, dtype=np.uint8)
    twins = []
    for _ in range(2):
        ct = CacheTable(1, vregs, line_bytes)
        ct.storage[:] = fill
        vpu = Vpu(0, VectorRegisterFile(ct.vpu_lines(0)), lanes=4, stats=StatsRegistry())
        twins.append(Dispatcher([vpu], issue_cycles=issue, stats=vpu.stats))
    return twins


def run_both(ops, **kwargs):
    """``ops`` as one segment on one twin, op by op on the other."""
    segmented, per_op = twin_dispatchers(**kwargs)
    segment = segmented.segment(0)
    costs = [segment.add(op) for op in ops]
    segmented.run_segment(0, segment)
    assert costs == [per_op.dispatch(0, op) for op in ops]
    assert segmented.stats.counters() == per_op.stats.counters()
    return segmented.vpu(0).vrf, per_op.vpu(0).vrf


def macc(etype, vd, vs1, scalar, vl, offset=0, stride=1, vd_offset=0):
    return VectorOp(VectorOpcode.VMACC_VS, etype, vd=vd, vs1=vs1, vl=vl,
                    scalar=scalar, offset=offset, stride=stride, vd_offset=vd_offset)


class TestSegmentRunner:
    """A same-``vd`` ``vmacc.vs`` chain runs as one gather-dot; it must
    equal per-op execution bit for bit, wrap like it, and fail like it."""

    def test_int32_extremes_wrap_like_per_op(self):
        w = ElementType.W
        segmented, per_op = twin_dispatchers()
        for dispatcher in (segmented, per_op):
            vrf = dispatcher.vpu(0).vrf
            vrf.write(1, np.full(16, -(2**31), dtype=np.int32))
            vrf.write(2, np.full(16, 2**31 - 1, dtype=np.int32))
            vrf.write(0, np.full(16, 2**31 - 1, dtype=np.int32))
        scalars = [-(2**31), 2**31 - 1, -(2**31), 2**31 - 1, -(2**31), 2**40 + 3]
        ops = [macc(w, 0, 1 + k % 2, s, vl=16) for k, s in enumerate(scalars)]
        segment = segmented.segment(0)
        for op in ops:
            segment.add(op)
            per_op.dispatch(0, op)
        segmented.run_segment(0, segment)
        got = segmented.vpu(0).vrf.view(0, w)
        assert np.array_equal(got, per_op.vpu(0).vrf.view(0, w))
        exact = 2**31 - 1 + sum(
            s * (-(2**31) if k % 2 == 0 else 2**31 - 1) for k, s in enumerate(scalars)
        )
        wrapped = (exact + 2**31) % 2**32 - 2**31
        assert got.tolist() == [wrapped] * 16

    def test_int8_chain_wraps(self):
        b = ElementType.B
        ops = [macc(b, 3, k % 3, 127 - 60 * k, vl=40, offset=k, stride=1)
               for k in range(5)]
        ops += [macc(b, 3, 4, -128, vl=40, offset=1)]
        collapsed, reference = run_both(ops)
        assert collapsed.lines[3].data.tobytes() == reference.lines[3].data.tobytes()

    def test_strided_chain_and_vd_offset(self):
        h = ElementType.H
        ops = [macc(h, 5, k, 3 * k - 7, vl=9, offset=k, stride=3, vd_offset=4)
               for k in range(4)]
        collapsed, reference = run_both(ops)
        assert collapsed.flat(h).tobytes() == reference.flat(h).tobytes()

    def test_chain_reading_vd_falls_back_to_per_op(self):
        w = ElementType.W
        ops = [macc(w, 2, 1, 3, vl=8), macc(w, 2, 2, 5, vl=8, offset=1),
               macc(w, 2, 3, -1, vl=8)]
        collapsed, reference = run_both(ops)
        assert collapsed.flat(w).tobytes() == reference.flat(w).tobytes()

    @pytest.mark.parametrize("stride,offset", [(1, 9), (2, 3)])
    def test_out_of_range_term_raises_bind_vops_error(self, stride, offset):
        # vs1 = 1 is not the last register: an unchecked gather would read
        # register 2 without complaint
        w = ElementType.W
        ops = [macc(w, 0, 3, 2, vl=8, stride=stride),
               macc(w, 0, 4, 5, vl=8, stride=stride),
               macc(w, 0, 1, 7, vl=8, offset=offset, stride=stride),
               macc(w, 0, 3, 1, vl=8, stride=stride)]
        segmented, per_op = twin_dispatchers()
        with pytest.raises(ValueError) as expected:
            for op in ops:
                per_op.dispatch(0, op)
        segment = segmented.segment(0)
        for op in ops:
            segment.add(op)
        with pytest.raises(ValueError) as raised:
            segmented.run_segment(0, segment)
        assert str(raised.value) == str(expected.value)
        assert "overflows source register 1" in str(raised.value)
        assert segmented.vpu(0).vrf.flat(w).tobytes() \
            == per_op.vpu(0).vrf.flat(w).tobytes()

    def test_scalar_past_int64_raises_like_per_op(self):
        w = ElementType.W
        ops = [macc(w, 0, 3, 2, vl=8), macc(w, 0, 4, 2**70, vl=8), macc(w, 0, 1, 1, vl=8)]
        segmented, per_op = twin_dispatchers()
        with pytest.raises(OverflowError):
            for op in ops:
                per_op.dispatch(0, op)
        segment = segmented.segment(0)
        for op in ops:
            segment.add(op)
        with pytest.raises(OverflowError):
            segmented.run_segment(0, segment)
        assert segmented.vpu(0).vrf.flat(w).tobytes() \
            == per_op.vpu(0).vrf.flat(w).tobytes()

    def test_read_forces_only_a_written_register(self):
        from repro.runtime.context import KernelContext
        from repro.runtime.phases import PhaseBreakdown

        w = ElementType.W
        dispatcher, _ = twin_dispatchers()
        vrf = dispatcher.vpu(0).vrf
        vrf.write(1, np.arange(16, dtype=np.int32))
        vrf.write(0, np.zeros(16, dtype=np.int32))
        kc = KernelContext(0, w, None, dispatcher, PhaseBreakdown())

        def body():
            yield from kc.vop(VectorOpcode.VMACC_VS, vd=0, vs1=1, scalar=2, vl=16)
            untouched = yield from kc.read_element(1, 5)
            assert len(kc._segment.ops) == 1  # reading vs1 forced nothing
            written = yield from kc.read_element(0, 5)
            assert not kc._segment.ops
            return untouched, written

        steps = body()
        with pytest.raises(StopIteration) as done:
            next(steps)
        assert done.value.value == (5, 10)
