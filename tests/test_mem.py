"""Tests for main memory, the bus latency model and the 2D DMA engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.bus import BusModel
from repro.mem.dma import Dma2D, DmaRequest
from repro.mem.memory import MainMemory, MainMemoryError
from repro.sim.kernel import Simulator


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


def _memory_endpoints(memory: MainMemory):
    return memory.read_block, memory.write_block


class TestDma2D:
    def test_contiguous_copy(self):
        memory = MainMemory(4096)
        memory.write_block(0, bytes(range(64)))
        dma = Dma2D(BusModel())
        read, write = _memory_endpoints(memory)
        request = DmaRequest(src_addr=0, dst_addr=1024, row_bytes=64, rows=1,
                             read=read, write=write)
        cycles = dma.transfer(request)
        assert memory.read_block(1024, 64) == bytes(range(64))
        assert cycles == BusModel().transfer_cycles(64)

    def test_strided_gather(self):
        # gather column-like rows: 4 rows of 8 bytes with 32-byte src stride
        memory = MainMemory(4096)
        for row in range(4):
            memory.write_block(row * 32, bytes([row] * 8))
        dma = Dma2D(BusModel())
        read, write = _memory_endpoints(memory)
        request = DmaRequest(src_addr=0, dst_addr=2048, row_bytes=8, rows=4,
                             src_stride=32, dst_stride=8, read=read, write=write)
        dma.transfer(request)
        assert memory.read_block(2048, 32) == bytes([0] * 8 + [1] * 8 + [2] * 8 + [3] * 8)

    def test_scatter(self):
        memory = MainMemory(4096)
        memory.write_block(0, bytes(range(16)))
        dma = Dma2D(BusModel())
        read, write = _memory_endpoints(memory)
        request = DmaRequest(src_addr=0, dst_addr=256, row_bytes=4, rows=4,
                             src_stride=4, dst_stride=64, read=read, write=write)
        dma.transfer(request)
        for row in range(4):
            assert memory.read_block(256 + row * 64, 4) == bytes(range(row * 4, row * 4 + 4))

    def test_row_hook_invoked_per_row(self):
        memory = MainMemory(1024)
        seen = []
        dma = Dma2D(BusModel())
        read, write = _memory_endpoints(memory)
        request = DmaRequest(src_addr=0, dst_addr=512, row_bytes=8, rows=3,
                             read=read, write=write,
                             row_hook=lambda row, s, d: seen.append((row, s, d)))
        dma.transfer(request)
        assert seen == [(0, 0, 512), (1, 8, 520), (2, 16, 528)]

    def test_process_form_advances_time_per_row(self):
        memory = MainMemory(1024)
        bus = BusModel(request_latency=1)
        dma = Dma2D(bus)
        sim = Simulator()
        read, write = _memory_endpoints(memory)
        request = DmaRequest(src_addr=0, dst_addr=512, row_bytes=16, rows=4,
                             read=read, write=write)
        sim.run_process(dma.transfer_process(sim, request))
        assert sim.now == 4 * bus.transfer_cycles(16)

    def test_stats_recorded(self):
        memory = MainMemory(1024)
        dma = Dma2D(BusModel())
        read, write = _memory_endpoints(memory)
        dma.transfer(DmaRequest(src_addr=0, dst_addr=512, row_bytes=32, rows=2,
                                read=read, write=write))
        assert dma.stats.value("dma.transfers") == 1
        assert dma.stats.value("dma.bytes") == 64

    def test_invalid_request_rejected(self):
        with pytest.raises(ValueError):
            DmaRequest(src_addr=0, dst_addr=0, row_bytes=-1, rows=1)

    def test_negative_strides_rejected(self):
        with pytest.raises(ValueError, match="strides must be non-negative"):
            DmaRequest(src_addr=0, dst_addr=0, row_bytes=8, rows=2, src_stride=-8)
        with pytest.raises(ValueError, match="strides must be non-negative"):
            DmaRequest(src_addr=0, dst_addr=0, row_bytes=8, rows=2, dst_stride=-8)

    def test_empty_transfer_skips_stats(self):
        # zero rows and zero-byte rows move nothing: no cycles, no counters
        dma = Dma2D(BusModel())
        assert dma.transfer(DmaRequest(src_addr=0, dst_addr=0, row_bytes=8,
                                       rows=0)) == 0
        assert dma.transfer(DmaRequest(src_addr=0, dst_addr=0, row_bytes=0,
                                       rows=5)) == 0
        assert dma.stats.value("dma.transfers") == 0
        assert dma.stats.value("dma.bytes") == 0
        assert dma.stats.value("dma.cycles") == 0

    def test_empty_transfer_process_skips_stats(self):
        dma = Dma2D(BusModel())
        sim = Simulator()
        sim.run_process(dma.transfer_process(
            sim, DmaRequest(src_addr=0, dst_addr=0, row_bytes=8, rows=0)))
        assert sim.now == 0
        assert dma.stats.value("dma.transfers") == 0

    @given(st.integers(0, 8), st.integers(0, 32))
    @settings(max_examples=20, deadline=None)
    def test_empty_iff_no_bytes(self, rows, row_bytes):
        request = DmaRequest(src_addr=0, dst_addr=0, row_bytes=row_bytes, rows=rows)
        assert request.empty == (request.total_bytes == 0)

    @given(st.integers(1, 8), st.integers(1, 32), st.integers(0, 64))
    @settings(max_examples=20, deadline=None)
    def test_total_bytes_property(self, rows, row_bytes, extra_stride):
        request = DmaRequest(src_addr=0, dst_addr=0, row_bytes=row_bytes, rows=rows,
                             src_stride=row_bytes + extra_stride)
        assert request.total_bytes == rows * row_bytes
