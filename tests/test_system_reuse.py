"""Lifecycle tests: one ArcaneSystem serving many programs back-to-back.

The regression battery for the serving engine's foundation: heap
recycling (free list + epoch reset), per-run report isolation (stats and
breakdowns), and cache coherence across reuse (no stale lines aliasing a
reallocated address).
"""

import numpy as np
import pytest

from repro.baselines.reference import ref_conv_layer, ref_leaky_relu
from repro.core.config import ArcaneConfig
from repro.core.system import ArcaneSystem, HeapExhaustedError

CFG = ArcaneConfig(n_vpus=2, lanes=4, line_bytes=256, vpu_kib=8, main_memory_kib=192)


def conv_operands(rng):
    x = rng.integers(-8, 8, (3 * 12, 12)).astype(np.int8)
    f = rng.integers(-2, 3, (9, 3)).astype(np.int8)
    return x, f


class TestBackToBackPrograms:
    def test_three_runs_bit_exact_with_single_shot(self, rng):
        """≥3 programs on one system: results, cycles and stats all match a
        fresh system's single-shot run after each reset."""
        x, f = conv_operands(rng)
        reference = ArcaneSystem(CFG)
        out_ref, rep_ref = reference.run_conv_layer(x, f)

        system = ArcaneSystem(CFG)
        for i in range(3):
            out, report = system.run_conv_layer(x, f)
            assert np.array_equal(out, out_ref), f"run {i} output differs"
            assert report.total_cycles == rep_ref.total_cycles, f"run {i} cycles differ"
            assert report.stats == rep_ref.stats, f"run {i} stats differ"
            system.reset_heap()

    def test_heap_does_not_grow_across_resets(self, rng):
        """The old bump-only allocator leaked until the heap ran out; with resets
        a small memory map survives far more programs than it could hold."""
        x, f = conv_operands(rng)
        system = ArcaneSystem(CFG)
        for _ in range(40):  # 40 * (3 matrices) would blow a 192 KiB map
            system.run_conv_layer(x, f)
            system.reset_heap()
        assert system.heap_stats() == {
            "live_matrices": 0, "live_bytes": 0, "free_bytes": 0, "heap_bytes": 0,
        }

    def test_exhaustion_without_reset_still_raises(self, rng):
        """No silent wrap-around: a leaking caller still gets
        HeapExhaustedError (not the builtin MemoryError, which means the
        host ran out), with a hint at the reclamation API."""
        system = ArcaneSystem(CFG)
        with pytest.raises(HeapExhaustedError, match="reset_heap") as caught:
            for _ in range(10_000):
                system.alloc_matrix((16, 16), np.int32)
        assert not isinstance(caught.value, MemoryError)

    def test_per_run_breakdown_isolated(self, rng):
        """Each report covers only its own kernels, run after run."""
        x, f = conv_operands(rng)
        system = ArcaneSystem(CFG)
        for _ in range(3):
            _, report = system.run_conv_layer(x, f)
            assert len(report.per_kernel) == 1  # exactly this run's xmk4
            assert report.stats["scheduler.kernels"] == 1  # per-run delta
            assert report.breakdown.cycles["compute"] > 0
            system.reset_heap()

    def test_read_matrix_coherent_after_reuse(self, rng):
        """A reallocated address must not serve another run's stale lines."""
        system = ArcaneSystem(CFG)
        first = rng.integers(-9, 9, (4, 16)).astype(np.int32)
        handle = system.place_matrix(first)
        # a host read pulls a line over the block: without invalidation on
        # reset, the next run's read would be served this stale data
        system.sim.run_process(system.llc.controller.host_read(handle.address, 4))
        assert np.array_equal(system.read_matrix(handle), first)
        address = handle.address
        system.reset_heap()
        second = rng.integers(-9, 9, (4, 16)).astype(np.int32)
        handle2 = system.place_matrix(second)
        assert handle2.address == address  # same block recycled
        assert np.array_equal(system.read_matrix(handle2), second)

    def test_reset_refused_mid_flight(self, rng):
        """Resetting under queued kernels would free live operands."""
        system = ArcaneSystem(CFG)
        x = system.place_matrix(rng.integers(-4, 4, (4, 8)).astype(np.int32))
        out = system.alloc_matrix((4, 8), np.int32)
        prog = system.program()
        prog.xmr(0, x).xmr(1, out)
        prog.leaky_relu(dest=1, src=0, alpha=0)

        captured = {}

        def meddle():
            outcome = yield from system.llc.bridge.offload(prog._ops[0][1][0])
            yield from system.llc.bridge.offload(prog._ops[1][1][0])
            yield from system.llc.bridge.offload(prog._ops[2][1][0])
            try:
                system.reset_heap()
            except RuntimeError as error:
                captured["error"] = error

        system.sim.process(meddle())
        system.sim.run()
        system.sim.run_process(system.llc.runtime.drain())
        assert "error" in captured
        assert "pending" in str(captured["error"])


class TestFreeMatrix:
    def test_free_list_reuses_block(self, rng):
        system = ArcaneSystem(CFG)
        a = system.place_matrix(rng.integers(-4, 4, (8, 16)).astype(np.int32))
        address = a.address
        system.free_matrix(a)
        fresh = rng.integers(-4, 4, (8, 16)).astype(np.int32)
        b = system.place_matrix(fresh)
        assert b.address == address  # first fit found the freed block
        assert np.array_equal(system.read_matrix(b), fresh)

    def test_double_free_rejected(self, rng):
        system = ArcaneSystem(CFG)
        a = system.place_matrix(rng.integers(-4, 4, (4, 4)).astype(np.int16))
        system.free_matrix(a)
        with pytest.raises(ValueError, match="not a live allocation"):
            system.free_matrix(a)

    def test_stale_handle_cannot_free_recycled_address(self, rng):
        """Regression: freeing an old handle whose address was reused must
        not free (and corrupt) the live matrix now occupying it."""
        system = ArcaneSystem(CFG)
        first = system.place_matrix(rng.integers(-4, 4, (4, 16)).astype(np.int32))
        system.free_matrix(first)
        current = rng.integers(-4, 4, (4, 16)).astype(np.int32)
        second = system.place_matrix(current)
        assert second.address == first.address  # address recycled
        with pytest.raises(ValueError, match="stale"):
            system.free_matrix(first)  # allocation id no longer matches
        # the live matrix is untouched and still freeable
        assert np.array_equal(system.read_matrix(second), current)
        system.free_matrix(second)

    def test_coalescing_retracts_bump_pointer(self, rng):
        system = ArcaneSystem(CFG)
        base_stats = system.heap_stats()
        matrices = [
            system.place_matrix(rng.integers(-4, 4, (4, 16)).astype(np.int32))
            for _ in range(4)
        ]
        for matrix in matrices:  # free in allocation order: coalesce + retract
            system.free_matrix(matrix)
        assert system.heap_stats() == base_stats

    def test_freed_region_dropped_from_cache(self, rng):
        """Freeing must invalidate covering lines, not write them back."""
        system = ArcaneSystem(CFG)
        data = rng.integers(-9, 9, (4, 16)).astype(np.int32)
        a = system.place_matrix(data)
        # a host read misses and refills, leaving a line over the block
        system.sim.run_process(system.llc.controller.host_read(a.address, 4))
        assert system.llc.cache_table.lookup(a.address) is not None
        system.free_matrix(a)
        assert system.llc.cache_table.lookup(a.address) is None

    def test_free_refused_while_kernel_pending(self, rng):
        """Freeing a queued kernel's operand would recycle it mid-compute."""
        system = ArcaneSystem(CFG)
        x = system.place_matrix(rng.integers(-4, 4, (4, 8)).astype(np.int32))
        out = system.alloc_matrix((4, 8), np.int32)
        prog = system.program()
        prog.xmr(0, x).xmr(1, out)
        prog.leaky_relu(dest=1, src=0, alpha=0)

        captured = {}

        def meddle():
            for _, args in prog._ops:
                yield from system.llc.bridge.offload(args[0])
            try:
                system.free_matrix(x)
            except RuntimeError as error:
                captured["error"] = error

        system.sim.process(meddle())
        system.sim.run()
        assert "pending" in str(captured["error"])

    def test_interleaved_compute_with_free(self, rng):
        """Free + reallocate between programs; kernel results stay exact."""
        system = ArcaneSystem(CFG)
        for i in range(3):
            x = rng.integers(-50, 50, (4, 8)).astype(np.int32)
            mx = system.place_matrix(x)
            out = system.alloc_matrix(x.shape, np.int32)
            with system.program() as prog:
                prog.xmr(0, mx).xmr(1, out)
                prog.leaky_relu(dest=1, src=0, alpha=1)
            assert np.array_equal(system.read_matrix(out), ref_leaky_relu(x, 1))
            system.free_matrix(mx)
            system.free_matrix(out)
