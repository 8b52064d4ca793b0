"""Tests for main memory, the bus latency model and the 2D DMA engine."""

import numpy as np
import pytest

from repro.integrity import CorruptionDirective
from repro.mem.bus import BusModel
from repro.mem.dma import Dma2D
from repro.mem.memory import MainMemory, MainMemoryError
from repro.sim.kernel import Simulator
from repro.vpu.visa import ElementType
from repro.vpu.vrf import VectorRegisterFile


class TestMainMemory:
    def test_typed_roundtrip(self):
        memory = MainMemory(1024)
        memory.write_u32(0x10, 0xDEADBEEF)
        assert memory.read_u32(0x10) == 0xDEADBEEF
        assert memory.read_u16(0x10) == 0xBEEF
        assert memory.read_u8(0x13) == 0xDE

    def test_signed_reads(self):
        memory = MainMemory(64)
        memory.write_u8(0, 0xFF)
        memory.write_u16(2, 0x8000)
        assert memory.read_s8(0) == -1
        assert memory.read_s16(2) == -32768

    def test_base_offset(self):
        memory = MainMemory(256, base=0x1000)
        memory.write_u32(0x1000, 7)
        assert memory.read_u32(0x1000) == 7
        with pytest.raises(MainMemoryError):
            memory.read_u8(0xFFF)

    def test_bounds_checked(self):
        memory = MainMemory(16)
        with pytest.raises(MainMemoryError):
            memory.read_u32(14)
        with pytest.raises(MainMemoryError):
            memory.write_block(8, b"123456789")

    def test_contains(self):
        memory = MainMemory(64, base=32)
        assert memory.contains(32, 64)
        assert not memory.contains(31)
        assert not memory.contains(90, 8)

    def test_matrix_roundtrip(self):
        memory = MainMemory(4096)
        matrix = np.arange(12, dtype=np.int16).reshape(3, 4)
        memory.write_matrix(0x100, matrix)
        out = memory.read_matrix(0x100, 3, 4, np.int16)
        assert np.array_equal(out, matrix)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            MainMemory(0)


class TestBusModel:
    def test_beats(self):
        bus = BusModel(width_bytes=4)
        assert bus.beats(1) == 1
        assert bus.beats(4) == 1
        assert bus.beats(5) == 2
        assert bus.beats(0) == 0

    def test_onchip_vs_offchip(self):
        bus = BusModel(request_latency=1, offchip_latency=10)
        assert bus.transfer_cycles(64) == 1 + 16
        assert bus.transfer_cycles(64, offchip=True) == 11 + 16

    def test_2d_charges_per_row(self):
        bus = BusModel(request_latency=2, offchip_latency=0)
        per_row = bus.transfer_cycles(16)
        assert bus.transfer_2d_cycles(16, 8) == 8 * per_row

    def test_zero_transfers_free(self):
        bus = BusModel()
        assert bus.transfer_cycles(0) == 0
        assert bus.transfer_2d_cycles(0, 5) == 0
        assert bus.transfer_2d_cycles(8, 0) == 0

    def test_non_burst_mode(self):
        bus = BusModel(request_latency=2, burst=False)
        assert bus.transfer_cycles(8) == 2 * (2 + 1)


W = ElementType.W


def _engine(cache):
    """A DMA engine over the harness controller, plus VPU 1's registers.

    The register lines are claimed for compute, as the allocator does, so
    fetch-on-write never picks them as victims.
    """
    lines = cache.ct.vpu_lines(1)
    for line in lines:
        cache.ct.claim_for_compute(line)
    return Dma2D(cache.controller, cache.bus), VectorRegisterFile(lines)


def _words(start, count):
    return np.arange(start, start + count, dtype=np.int32)


class RowRecorder:
    """A pass-through corruption hook that records every row payload."""

    def __init__(self):
        self.payloads = []

    def on_dma_row(self, payload):
        self.payloads.append(bytes(payload))
        return payload


class TestDma2D:
    def test_contiguous_copy(self, cache):
        dma, vrf = _engine(cache)
        cache.memory.write_block(0x100, _words(0, 16).tobytes())
        cycles = dma.transfer([(0x100, 64, vrf, 0, W, 0)])
        assert np.array_equal(vrf.view(0, W), _words(0, 16))
        assert cycles == cache.bus.transfer_cycles(64, offchip=True)

    def test_strided_gather(self, cache):
        # four 8-byte rows 128 bytes apart land in consecutive registers
        dma, vrf = _engine(cache)
        for row in range(4):
            cache.memory.write_block(0x1000 + row * 128, _words(row * 10, 2).tobytes())
        dma.transfer([(0x1000 + row * 128, 8, vrf, row, W, 0) for row in range(4)])
        for row in range(4):
            assert np.array_equal(vrf.view(row, W)[:2], _words(row * 10, 2))

    def test_packed_rows_land_at_element_offsets(self, cache):
        dma, vrf = _engine(cache)
        cache.memory.write_block(0x400, _words(0, 6).tobytes())
        dma.transfer([(0x400 + row * 8, 8, vrf, 2, W, row * 2) for row in range(3)])
        assert np.array_equal(vrf.view(2, W)[:6], _words(0, 6))

    def test_scatter(self, cache):
        # registers back to rows 128 bytes apart, through the cache
        dma, vrf = _engine(cache)
        for reg in range(4):
            vrf.write(reg, _words(reg * 4, 4))
        dma.transfer(
            [(0x2000 + reg * 128, 16, vrf, reg, W, 0) for reg in range(4)], store=True
        )
        for reg in range(4):
            address = 0x2000 + reg * 128
            assert cache.controller.peek(address, 16) == _words(reg * 4, 4).tobytes()
            assert cache.ct.lookup(address).dirty

    def test_store_allocates_its_line(self, cache):
        # fetch-on-write: the covering line is filled from memory first,
        # then the row lands in it dirty; memory keeps the old bytes
        dma, vrf = _engine(cache)
        old = bytes(range(64))
        cache.memory.write_block(0x3000, old)
        vrf.write(0, _words(-2, 2))
        cycles = dma.transfer([(0x3010, 8, vrf, 0, W, 0)], store=True)
        line = cache.ct.lookup(0x3000)
        assert line is not None and line.dirty
        assert cache.stats.value("llc.refills") == 1
        expected = old[:16] + _words(-2, 2).tobytes() + old[24:]
        assert cache.controller.peek(0x3000, 64) == expected
        assert cache.memory.read_block(0x3000, 64) == old
        assert cycles == cache.bus.transfer_cycles(8, offchip=True)

    def test_store_into_resident_line_is_onchip(self, cache):
        dma, vrf = _engine(cache)
        dma.transfer([(0x3000, 8, vrf, 0, W, 0)], store=True)
        cycles = dma.transfer([(0x3008, 8, vrf, 0, W, 0)], store=True)
        assert cycles == cache.bus.transfer_cycles(8, offchip=False)
        assert cache.stats.value("llc.refills") == 1

    def test_onchip_pricing_follows_the_first_byte(self, cache):
        # a 64-byte row straddling two lines: only the first byte's line counts
        dma, vrf = _engine(cache)
        row = [(0x5020, 64, vrf, 0, W, 0)]
        onchip = cache.bus.transfer_cycles(64, offchip=False)
        offchip = cache.bus.transfer_cycles(64, offchip=True)
        assert dma.transfer(row) == offchip
        cache.read(0x5040)  # only the second line is resident
        assert dma.transfer(row) == offchip
        cache.read(0x5000)  # now the first byte's line is too
        assert dma.transfer(row) == onchip
        cache.controller.invalidate_region(0x5040, 0x5080)
        assert cache.ct.lookup(0x5040) is None
        assert dma.transfer(row) == onchip  # the second line does not matter

    def test_load_reads_through_a_dirty_overlay(self, cache):
        # the row's second half sits in a dirty line newer than memory
        dma, vrf = _engine(cache)
        cache.memory.write_block(0x6020, _words(0, 16).tobytes())
        cache.write(0x6040, 0x7777)
        assert cache.ct.lookup(0x6040).dirty
        cycles = dma.transfer([(0x6020, 64, vrf, 0, W, 0)])
        expected = _words(0, 16)
        expected[8] = 0x7777
        assert np.array_equal(vrf.view(0, W)[:16], expected)
        assert cache.memory.read_u32(0x6040) == 8  # still the stale copy
        assert cycles == cache.bus.transfer_cycles(64, offchip=True)

    def test_row_hook_invoked_per_row(self, cache):
        # the corruption hook sees every payload once, loads and stores,
        # in row order
        dma, vrf = _engine(cache)
        cache.memory.write_block(0x100, _words(1, 4).tobytes())
        recorder = RowRecorder()
        dma.corruption = recorder
        dma.transfer([(0x100, 8, vrf, 0, W, 0), (0x108, 8, vrf, 1, W, 0)])
        dma.transfer([(0x200, 4, vrf, 1, W, 0), (0x300, 8, vrf, 0, W, 0)], store=True)
        assert recorder.payloads == [
            _words(1, 2).tobytes(),
            _words(3, 2).tobytes(),
            _words(3, 1).tobytes(),
            _words(1, 2).tobytes(),
        ]

    def test_process_form_advances_time_per_row(self, cache):
        dma, vrf = _engine(cache)
        rows = [(0x100 + row * 16, 16, vrf, row, W, 0) for row in range(4)]
        per_row = cache.bus.transfer_cycles(16, offchip=True)
        process = dma.transfer_process(rows)
        yielded = []
        try:
            while True:
                yielded.append(next(process))
        except StopIteration as stop:
            total = stop.value
        assert yielded == [per_row] * 4
        assert total == 4 * per_row
        sim = Simulator()
        sim.run_process(dma.transfer_process(rows))
        assert sim.now == 4 * per_row

    def test_empty_transfer_is_free(self, cache):
        dma, _ = _engine(cache)
        assert dma.transfer([]) == 0
        assert dma.transfer([], store=True) == 0

    def test_empty_transfer_process_is_free(self, cache):
        dma, _ = _engine(cache)
        sim = Simulator()
        assert sim.run_process(dma.transfer_process([])) == 0
        assert sim.now == 0


class TestDmaCorruption:
    """``dma_corrupt`` flips one bit of the nth row the engine moves."""

    @pytest.mark.parametrize("target", range(4))
    def test_hits_the_nth_row_across_loads_and_stores(self, system, target):
        allocator = system.llc.runtime.allocator
        dma = allocator.dma
        vrf = system.llc.vpus[0].vrf
        window = allocator.claim(0, 2)
        source = system.place_matrix(_words(0, 8).reshape(2, 4))
        dest = system.alloc_matrix((2, 4), np.int32)
        system.corruption.arm(
            [CorruptionDirective("dma_corrupt", site=target + 16, value=32 + 3)]
        )
        assert dma.corruption is system.corruption
        loads = [
            (source.address + row * 16, 16, vrf, window[row], W, 0) for row in range(2)
        ]
        stores = [
            (dest.address + row * 16, 16, vrf, window[row], W, 0) for row in range(2)
        ]
        dma.transfer(loads)
        dma.transfer(stores, store=True)
        system.corruption.disarm()
        assert dma.corruption is None
        # bit 35 of a 16-byte row: byte 4, bit 3 -> element 1 gets +/- 8
        expected = _words(0, 8).reshape(2, 4)
        if target < 2:  # a load: the register and its store copy both see it
            expected[target, 1] ^= 8
        else:
            expected[target - 2, 1] ^= 8
        assert system.read_matrix(dest).tobytes() == expected.tobytes()
        if target < 2:
            assert vrf.view(window[target], W)[1] == expected[target, 1]
        assert system.corruption.events == [
            {"kind": "dma_corrupt", "row_event": target, "byte": 4, "bit": 3}
        ]
