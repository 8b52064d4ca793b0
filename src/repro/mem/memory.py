"""Byte-addressable main memory backed by a numpy array.

Models the external memory (flash / pseudo-static RAM) behind the ARCANE
LLC as well as the instruction memory of the host MCU.  Accesses are
bounds-checked; the ISS and DMA read/write through the typed accessors.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.utils.bitops import sign_extend


_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


class MainMemoryError(RuntimeError):
    """Out-of-range or misaligned access."""


#: Deprecated alias.  The original name shadowed the Python builtin
#: ``MemoryError``, which made ``except MemoryError:`` handlers catch
#: simulator access errors (or vice versa) depending on which name was
#: imported.  Import :class:`MainMemoryError` instead.
MemoryError = MainMemoryError


class MainMemory:
    """A flat little-endian memory region of ``size`` bytes starting at ``base``."""

    def __init__(self, size: int, base: int = 0) -> None:
        if size <= 0:
            raise ValueError(f"memory size must be positive, got {size}")
        self.base = base
        self.size = size
        self.data = np.zeros(size, dtype=np.uint8)
        # the scalar accessors go through a byte view of ``data``: one ISS
        # load is a struct unpack, not a numpy slice plus ``tobytes``
        self._bytes = memoryview(self.data)

    def _offset(self, address: int, length: int) -> int:
        offset = address - self.base
        if offset < 0 or offset + length > self.size:
            raise MainMemoryError(
                f"access [{address:#x}, +{length}) outside "
                f"[{self.base:#x}, {self.base + self.size:#x})"
            )
        return offset

    def contains(self, address: int, length: int = 1) -> bool:
        """True when the byte range lies entirely inside this memory."""
        offset = address - self.base
        return 0 <= offset and offset + length <= self.size

    # -- raw block access (DMA, cache line fills) --------------------------

    def read_block(self, address: int, length: int) -> bytes:
        offset = self._offset(address, length)
        return self.data[offset : offset + length].tobytes()

    def write_block(self, address: int, payload: bytes) -> None:
        offset = self._offset(address, len(payload))
        self.data[offset : offset + len(payload)] = np.frombuffer(
            bytes(payload), dtype=np.uint8
        )

    # -- typed scalar access (ISS) ----------------------------------------

    def read_u8(self, address: int) -> int:
        return self._bytes[self._offset(address, 1)]

    def read_u16(self, address: int) -> int:
        return _U16.unpack_from(self._bytes, self._offset(address, 2))[0]

    def read_u32(self, address: int) -> int:
        return _U32.unpack_from(self._bytes, self._offset(address, 4))[0]

    def read_s8(self, address: int) -> int:
        return sign_extend(self.read_u8(address), 8)

    def read_s16(self, address: int) -> int:
        return sign_extend(self.read_u16(address), 16)

    def write_u8(self, address: int, value: int) -> None:
        self._bytes[self._offset(address, 1)] = value & 0xFF

    def write_u16(self, address: int, value: int) -> None:
        _U16.pack_into(self._bytes, self._offset(address, 2), value & 0xFFFF)

    def write_u32(self, address: int, value: int) -> None:
        _U32.pack_into(self._bytes, self._offset(address, 4), value & 0xFFFFFFFF)

    # -- numpy matrix views (test fixtures, allocator) ----------------------

    def write_matrix(self, address: int, matrix: np.ndarray) -> None:
        """Store a 2-D numpy integer matrix row-major at ``address``."""
        contiguous = np.ascontiguousarray(matrix)
        self.write_block(address, contiguous.tobytes())

    def read_matrix(self, address: int, rows: int, cols: int, dtype: np.dtype) -> np.ndarray:
        """Load a row-major matrix of the given shape and dtype."""
        dtype = np.dtype(dtype)
        raw = self.read_block(address, rows * cols * dtype.itemsize)
        return np.frombuffer(raw, dtype=dtype).reshape(rows, cols).copy()
