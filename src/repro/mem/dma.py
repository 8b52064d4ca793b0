"""The 2D DMA engine that prices and moves every kernel operand row.

Paper sections III-A.4 and IV-B.3: the Matrix Allocator moves operands
between memory and the VPU register files with lock-protected 2D DMA
transfers, routed *through* the LLC controller, which serves each row
from the cache on a hit or from external memory on a miss.  Every
operand row — the allocator's loads and write-backs and the replay
cache's re-executed rows — goes through :class:`Dma2D`; line refills and
write-backs of the address-mapped cache stay in the controller.

A transfer is a list of rows, each a tuple ``(address, n_bytes, vrf,
register, etype, offset)``: ``n_bytes`` at ``address`` in the memory
system against register ``register`` of ``vrf``, starting at element
``offset`` in element type ``etype``.  Per row, in order:

* the cost is ``bus.transfer_cycles(n_bytes, offchip=...)``, off-chip
  unless the line holding the row's first byte is resident — decided
  before the row moves;
* a load reads through ``route_read``, or slices main memory directly
  when no valid line overlays the row; a store writes through
  ``route_write`` (fetch-on-write);
* the fault-injection hook, when armed, sees the row payload.

The allocator's timed form (:meth:`Dma2D.transfer_process`) yields once
per row, so a host access unblocked mid-transfer observes exactly the
rows already moved; replay applies a whole transfer at once
(:meth:`Dma2D.transfer`).
"""

from __future__ import annotations

from typing import Generator, Iterator, Sequence

import numpy as np

from repro.mem.bus import BusModel


class Dma2D:
    """Moves operand rows between the memory system and VPU registers."""

    def __init__(self, controller, bus: BusModel) -> None:
        self.controller = controller
        self.bus = bus
        # Fault-injection hook (repro.integrity.inject): when armed it may
        # return a corrupted copy of a row payload in flight.  None when no
        # fault plan is armed — the hot path pays one attribute check.
        self.corruption = None

    def transfer(self, rows: Sequence[tuple], store: bool = False) -> int:
        """Move every row at once; return the total cycle cost."""
        return sum(self._move(rows, store))

    def transfer_process(self, rows: Sequence[tuple], store: bool = False) -> Generator:
        """Simulation process: move row by row, yielding each row's cycles.

        Returns the total cycle cost.
        """
        total = 0
        for cycles in self._move(rows, store):
            total += cycles
            yield cycles
        return total

    def _move(self, rows: Sequence[tuple], store: bool) -> Iterator[int]:
        """Move each row in order; yield its cycles after it moved."""
        controller = self.controller
        ct = controller.ct
        cost = self.bus.transfer_cycles
        corruption = self.corruption
        if store:
            lookup = ct.lookup
            route_write = controller.route_write
            for address, n_bytes, vrf, register, etype, offset in rows:
                cycles = cost(n_bytes, offchip=lookup(address) is None)
                payload = vrf.view(register, etype)[
                    offset : offset + n_bytes // etype.nbytes
                ].tobytes()
                if corruption is not None:
                    payload = corruption.on_dma_row(payload)
                route_write(address, payload)
                yield cycles
            return
        route_read = controller.route_read
        tag_map = ct._tag_map
        line_bytes = ct.line_bytes
        memory = controller.memory
        mem_data = memory.data
        mem_base = memory.base
        mem_end = mem_base + memory.size
        frombuffer = np.frombuffer
        for address, n_bytes, vrf, register, etype, offset in rows:
            end = address + n_bytes
            # the walk over the lines the row overlays starts at the first
            # byte's line, whose residency prices the row (ct.lookup)
            tag = address - address % line_bytes
            line = tag_map.get(tag)
            overlaid = line is not None and line.valid
            cycles = cost(n_bytes, offchip=not overlaid)
            tag += line_bytes
            while not overlaid and tag < end:
                line = tag_map.get(tag)
                overlaid = line is not None and line.valid
                tag += line_bytes
            # any valid line overlaying the row forces the routed read;
            # otherwise the row is copied straight out of main memory
            if not overlaid and address >= mem_base and end <= mem_end:
                values = mem_data[address - mem_base : end - mem_base].view(
                    etype.np_dtype
                )
            else:
                values = frombuffer(route_read(address, n_bytes), dtype=etype.np_dtype)
            if corruption is not None:
                values = frombuffer(
                    corruption.on_dma_row(values.tobytes()), dtype=etype.np_dtype
                )
            vrf.write(register, values, offset)
            yield cycles
