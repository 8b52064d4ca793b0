"""The vector register file: typed views over a VPU's cache lines.

A vector register *is* a cache line (paper III-A.1).  The VRF wraps the
``CacheLine`` objects of one VPU's slice and hands out numpy views in the
requested element type, so VPU writes are visible to the cache controller
(and thus the host) without copies.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.cache.line import CacheLine
from repro.vpu.visa import ElementType


class VectorRegisterFile:
    """Typed accessors over one VPU's vector registers."""

    def __init__(self, lines: List[CacheLine]) -> None:
        if not lines:
            raise ValueError("a VRF needs at least one line")
        self.lines = lines
        self.line_bytes = lines[0].size
        # Typed views are pure aliases of the (never-reallocated) line
        # buffers, built once per (element width, register) and reused:
        # the VPU execute loop would otherwise allocate a fresh numpy view
        # object per operand fetch.  Keyed by element *width* (a plain
        # int) rather than the ElementType enum — enum hashing is a
        # pure-Python call and this lookup runs several times per op.
        self._views = {
            etype.nbytes: [line.data.view(etype.np_dtype) for line in lines]
            for etype in ElementType
        }
        # The lines are consecutive slices of the LLC storage, so the whole
        # file is also one flat buffer: register r, element i of a typed
        # view sits at flat index r * max_vl + i.  The segment runner
        # gathers a chain's source elements through it in one index.
        def owner(data: np.ndarray) -> np.ndarray:
            return data if data.base is None else data.base

        storage = owner(lines[0].data)
        start = lines[0].data.ctypes.data
        for position, line in enumerate(lines):
            if owner(line.data) is not storage or \
                    line.data.ctypes.data != start + position * self.line_bytes:
                raise ValueError("a VRF's lines must be consecutive slices of one buffer")
        offset = start - storage.ctypes.data
        flat = storage[offset : offset + len(lines) * self.line_bytes]
        self._flat = {etype.nbytes: flat.view(etype.np_dtype) for etype in ElementType}
        # Fault-injection hook (see repro.integrity.inject): when armed it
        # may return a corrupted copy of the values written.  None when no
        # fault plan is armed, so the hot path pays one attribute check.
        self.corruption = None

    @property
    def n_regs(self) -> int:
        return len(self.lines)

    def max_vl(self, etype: ElementType) -> int:
        """Maximum vector length for the element type (one full line)."""
        return self.line_bytes // etype.nbytes

    def view(self, index: int, etype: ElementType) -> np.ndarray:
        """A mutable typed view of the whole register ``index``."""
        if index < 0:
            raise IndexError(f"vector register {index} out of range 0..{self.n_regs - 1}")
        try:
            return self._views[etype.nbytes][index]
        except IndexError:
            raise IndexError(
                f"vector register {index} out of range 0..{self.n_regs - 1}"
            ) from None

    def flat(self, etype: ElementType) -> np.ndarray:
        """A mutable typed view of every register, one after the other."""
        return self._flat[etype.nbytes]

    def read(self, index: int, etype: ElementType, vl: int) -> np.ndarray:
        """A copy of the first ``vl`` elements of register ``index``."""
        return self.view(index, etype)[:vl].copy()

    def write(self, index: int, values: np.ndarray, offset: int = 0) -> None:
        """Write ``values`` (typed array) into register ``index`` at element offset."""
        if not 0 <= index < self.n_regs:
            raise IndexError(f"vector register {index} out of range 0..{self.n_regs - 1}")
        try:
            view = self._views[values.dtype.itemsize][index]
        except KeyError:
            raise ValueError(
                f"cannot write {values.dtype} values to register {index}"
            ) from None
        if offset + len(values) > len(view):
            raise ValueError(
                f"write of {len(values)} elements at offset {offset} "
                f"overflows register {index}"
            )
        if self.corruption is not None:
            values = self.corruption.on_vrf_write(index, values, offset)
        view[offset : offset + len(values)] = values

    def fill(self, index: int, value: int, etype: ElementType) -> None:
        self.view(index, etype)[:] = value
