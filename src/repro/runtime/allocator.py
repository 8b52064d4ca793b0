"""The Matrix Allocator (paper IV-B.3).

Moves matrix operands between the memory system and VPU vector registers
using lock-protected 2D DMA transfers through the
:class:`~repro.mem.dma.Dma2D` engine, routed through the LLC controller:

* ``load_rows`` copies matrix rows into consecutive vector registers of
  the selected VPU — the "temporary copies in the VPU cache lines
  arranged according to the kernel layout" of paper III-A.2;
* ``store_rows`` consolidates computed rows back into the matrix's
  memory region; the controller's fetch-on-write policy lands the data
  in cache lines marked dirty, so host reads observe it immediately;
* vector registers are claimed/released per kernel through a simple
  per-VPU free-list, and claimed lines are flagged ``BUSY_COMPUTE`` so
  the replacement policy never evicts them.

Every transfer first acquires the LLC lock (stalling until in-flight
host operations finish) and releases it afterwards, exactly like the
paper's allocator.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Sequence

from repro.cache.controller import LlcController
from repro.mem.bus import BusModel
from repro.mem.dma import Dma2D
from repro.runtime.matrix import MatrixBinding
from repro.sim.kernel import Simulator
from repro.sim.stats import StatsRegistry
from repro.vpu.vpu import Vpu


class RegisterWindow:
    """A set of vector registers claimed on one VPU for a kernel operand."""

    def __init__(self, vpu_index: int, vregs: List[int]) -> None:
        self.vpu_index = vpu_index
        self.vregs = vregs

    def __len__(self) -> int:
        return len(self.vregs)

    def __getitem__(self, index: int) -> int:
        return self.vregs[index]


class MatrixAllocator:
    """Lock-protected DMA mover between memory system and VPU registers."""

    def __init__(
        self,
        sim: Simulator,
        controller: LlcController,
        vpus: Sequence[Vpu],
        bus: BusModel,
        stats: Optional[StatsRegistry] = None,
        lock_overhead_cycles: int = 8,
    ) -> None:
        self.sim = sim
        self.controller = controller
        self.vpus = list(vpus)
        #: the engine every operand row moves through
        self.dma = Dma2D(controller, bus)
        self.stats = stats or StatsRegistry()
        self.lock_overhead_cycles = lock_overhead_cycles
        ct = controller.ct
        self._free: Dict[int, List[int]] = {
            v: list(range(ct.vregs_per_vpu)) for v in range(ct.n_vpus)
        }
        # counter handles resolved once: these run per operand transfer
        self._c_rows_loaded = self.stats.counter("alloc.rows_loaded")
        self._c_load_cycles = self.stats.counter("alloc.load_cycles")
        self._c_rows_stored = self.stats.counter("alloc.rows_stored")
        self._c_store_cycles = self.stats.counter("alloc.store_cycles")
        self._c_regs_claimed = self.stats.counter("alloc.regs_claimed")
        self._c_regs_released = self.stats.counter("alloc.regs_released")
        self._c_evicted_dirty = self.stats.counter("alloc.evicted_dirty")

    # -- vector register management ------------------------------------------

    def free_regs(self, vpu_index: int) -> int:
        return len(self._free[vpu_index])

    def claim(self, vpu_index: int, count: int) -> RegisterWindow:
        """Claim ``count`` vector registers on a VPU for kernel use.

        The backing cache lines leave the address-mapped cache: dirty
        victims are written back functionally (the cycle cost is charged
        by the caller's DMA accounting at load time).
        """
        free = self._free[vpu_index]
        if count > len(free):
            raise RuntimeError(
                f"VPU {vpu_index} has {len(free)} free vregs, kernel needs {count}"
            )
        taken = [free.pop(0) for _ in range(count)]
        ct = self.controller.ct
        for reg in taken:
            line = ct.vpu_lines(vpu_index)[reg]
            if line.valid and line.dirty:
                self.controller._memory_write_line(line.tag, line.data.tobytes())
                self._c_evicted_dirty.add()
            ct.claim_for_compute(line)
        self._c_regs_claimed.add(count)
        return RegisterWindow(vpu_index, taken)

    def release(self, window: RegisterWindow) -> None:
        ct = self.controller.ct
        for reg in window.vregs:
            line = ct.vpu_lines(window.vpu_index)[reg]
            ct.release_from_compute(line)
        self._free[window.vpu_index].extend(window.vregs)
        self._free[window.vpu_index].sort()
        self._c_regs_released.add(len(window.vregs))
        window.vregs = []

    # -- data movement ------------------------------------------------------------

    def _locked_transfer(self, rows: List[tuple], store: bool = False) -> Generator:
        """Move ``rows`` through the DMA engine under the LLC lock.

        Returns the total DMA cycles; each row's cycles are also yielded.
        """
        yield from self.controller.acquire_lock("ecpu")
        yield self.lock_overhead_cycles
        try:
            total = yield from self.dma.transfer_process(rows, store)
        finally:
            self.controller.release_lock("ecpu")
        if store:
            self._c_rows_stored.add(len(rows))
            self._c_store_cycles.add(total)
        else:
            self._c_rows_loaded.add(len(rows))
            self._c_load_cycles.add(total)
        return total

    def load_rows(
        self,
        window: RegisterWindow,
        matrix: MatrixBinding,
        row_start: int,
        n_rows: int,
        reg_start: int = 0,
    ) -> Generator:
        """Copy ``n_rows`` matrix rows into the window's registers.

        Row ``row_start + i`` lands in register ``window[reg_start + i]``
        starting at element 0.  Returns total DMA cycles (also yielded).
        Rows resident in the cache stream at on-chip speed; missing rows
        pay the off-chip latency — this is what makes allocation overhead
        shrink when producers left their output in the LLC.
        """
        if n_rows == 0:
            return 0
        vrf = self.vpus[window.vpu_index].vrf
        rows = [
            (matrix.row_address(row_start + i), matrix.row_bytes, vrf,
             window[reg_start + i], matrix.etype, 0)
            for i in range(n_rows)
        ]
        return (yield from self._locked_transfer(rows))

    def load_row_set(self, specs) -> Generator:
        """Load a batch of single rows under one lock acquisition.

        ``specs`` is a list of ``(window, matrix, row, reg)`` tuples — the
        conv kernels use it to fetch the next input row of every channel
        in one DMA programming step.  Designed to run either inline
        (``yield from``) or as a detached *prefetch* process that overlaps
        the DMA with VPU compute (double buffering — the paper's
        "optimized DMA transfers reducing allocation times").
        """
        if not specs:
            return 0
        rows = [
            (matrix.row_address(row), matrix.row_bytes,
             self.vpus[window.vpu_index].vrf, window[reg], matrix.etype, 0)
            for window, matrix, row, reg in specs
        ]
        return (yield from self._locked_transfer(rows))

    def load_packed(
        self,
        window: RegisterWindow,
        matrix: MatrixBinding,
        reg_index: int = 0,
    ) -> Generator:
        """Pack a whole (small) matrix into a single vector register.

        The 2D DMA advances the destination by ``cols`` elements per row,
        so the matrix lands row-major and element ``r * cols + c`` can be
        fetched by the eCPU as a ``.vs`` scalar operand (how the conv
        kernels keep their filter taps resident in one register).
        """
        vrf = self.vpus[window.vpu_index].vrf
        if matrix.rows * matrix.cols > vrf.max_vl(matrix.etype):
            raise ValueError(
                f"matrix {matrix.rows}x{matrix.cols} does not fit in one "
                f"vector register ({vrf.max_vl(matrix.etype)} elements)"
            )
        register = window[reg_index]
        rows = [
            (matrix.row_address(row), matrix.row_bytes, vrf, register,
             matrix.etype, row * matrix.cols)
            for row in range(matrix.rows)
        ]
        return (yield from self._locked_transfer(rows))

    def store_rows(
        self,
        window: RegisterWindow,
        matrix: MatrixBinding,
        row_start: int,
        n_rows: int,
        reg_start: int = 0,
        n_cols: Optional[int] = None,
    ) -> Generator:
        """Copy registers back into the matrix region (kernel write-back).

        Fetch-on-write: the destination lands in the cache; a miss on the
        covering line pays the fill (paper III-A.4).
        """
        if n_rows == 0:
            return 0
        n_cols = matrix.cols if n_cols is None else n_cols
        row_bytes = n_cols * matrix.etype.nbytes
        vrf = self.vpus[window.vpu_index].vrf
        rows = [
            (matrix.row_address(row_start + i), row_bytes, vrf,
             window[reg_start + i], matrix.etype, 0)
            for i in range(n_rows)
        ]
        return (yield from self._locked_transfer(rows, store=True))
