"""The micro-program API kernels are written against.

A kernel body is a generator that receives a :class:`KernelContext` bound
to the VPU the scheduler selected.  The context exposes:

* register-window management (``claim`` / ``release``);
* DMA in/out through the Matrix Allocator (charged to the *allocation*
  and *writeback* phase buckets of Figure 3);
* vector-instruction dispatch (charged to *compute*, with the pipelined
  ``max(issue, execute)`` cost of the eCPU/VPU pair);
* scalar element reads (the eCPU fetching a filter coefficient out of a
  vector register to use as a ``.vs`` scalar operand).

Keeping phase accounting inside the context means kernels cannot forget
to charge a phase — every effect they can cause is a context call.

Run-ahead compute
-----------------

Vector instructions and element reads do not suspend the event loop:
their cycles accumulate in the context's :attr:`~KernelContext.lag` and
are charged (to the simulated clock and to the *compute* phase) at the
next synchronisation point — ``load_rows``, ``load_packed``,
``load_row_set``, ``store_rows`` and ``wait_prefetch`` yield the lag
first, and the scheduler flushes once more after the body returns.

The arithmetic is deferred too.  ``vop`` prices an instruction and
buffers it in a :class:`~repro.vpu.dispatcher.Segment`; every
synchronisation point executes the buffered segment (one runner call,
collapsing each same-``vd`` ``vmacc.vs`` chain into a dot product — see
:mod:`repro.vpu.vpu`) before it yields.  The one forcing rule:
``read_element`` on a register that a buffered op writes executes the
segment first, so the eCPU always reads what per-op execution would
show it.  Bodies see the VRF only through ``read_element`` and
``max_vl``, and an out-of-range operand raises its ``ValueError`` when
its segment runs, not when it is issued.

Between two synchronisation points a body's effects are private to the
VPU it claimed (its registers are cache lines the controller keeps out
of the address-mapped cache), so nothing outside the kernel can observe
the difference: LLC-lock acquisitions, DMA rows and prefetch
exposed-wait arithmetic all happen at the same simulated cycle as with
one suspension per instruction.

``claim`` and ``prefetch_row_set`` act on shared state at ``sim.now``
(a claim writes dirty victims back; a prefetch starts a DMA process)
without being generators, so they must be called with a flushed clock
— before any compute since the last synchronisation point — and raise
otherwise.  Every buffered op has a non-zero cost, so a flushed clock
also means an empty segment.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.runtime.allocator import MatrixAllocator, RegisterWindow
from repro.runtime.matrix import MatrixBinding
from repro.runtime.phases import PhaseBreakdown
from repro.vpu.dispatcher import Dispatcher, Segment
from repro.vpu.visa import ElementType, VectorOp, VectorOpcode


class KernelContext:
    """Execution context handed to a kernel body by the scheduler.

    Compute runs ahead of the simulated clock: each vector instruction
    or element read adds its cycles to :attr:`lag`, and the lag is
    charged at the next synchronisation point (a DMA call,
    ``wait_prefetch``, or the scheduler's :meth:`flush` after the body),
    which first executes the buffered vector instructions.
    ``claim`` and ``prefetch_row_set`` require a flushed clock.
    """

    #: eCPU cycles to read one element out of a vector register via the
    #: memory-mapped window (load + address computation in the C-RT).
    SCALAR_READ_CYCLES = 4

    def __init__(
        self,
        vpu_index: int,
        etype: ElementType,
        allocator: MatrixAllocator,
        dispatcher: Dispatcher,
        phases: PhaseBreakdown,
    ) -> None:
        self.vpu_index = vpu_index
        self.etype = etype
        self.allocator = allocator
        self.dispatcher = dispatcher
        self.phases = phases
        self._windows: List[RegisterWindow] = []
        #: compute cycles issued but not yet charged to the clock
        self.lag = 0
        self._vrf = dispatcher.vpu(vpu_index).vrf
        #: vector ops issued since the last synchronisation point
        self._segment: Segment = dispatcher.segment(vpu_index)

    # -- register windows ---------------------------------------------------

    @property
    def max_vl(self) -> int:
        return self._vrf.max_vl(self.etype)

    def free_regs(self) -> int:
        return self.allocator.free_regs(self.vpu_index)

    def claim(self, count: int) -> RegisterWindow:
        self._require_flushed("claim")
        window = self.allocator.claim(self.vpu_index, count)
        self._windows.append(window)
        return window

    def release_all(self) -> None:
        """Return every window claimed through this context (scheduler epilogue)."""
        for window in self._windows:
            if window.vregs:
                self.allocator.release(window)
        self._windows.clear()

    # -- synchronisation ------------------------------------------------------

    def flush(self) -> Generator:
        """Execute the buffered vector ops, then charge the compute run
        ahead since the last synchronisation point."""
        if self._segment.ops:
            self._run_segment()
        lag = self.lag
        if lag:
            self.lag = 0
            self.phases.add("compute", lag)
            yield lag

    def _run_segment(self) -> None:
        segment = self._segment
        self._segment = self.dispatcher.segment(self.vpu_index)
        self.dispatcher.run_segment(self.vpu_index, segment)

    def _require_flushed(self, call: str) -> None:
        if self.lag:
            raise RuntimeError(
                f"{call}() needs a flushed clock, but {self.lag} compute cycles "
                "are pending; call it before computing, or after a DMA call or "
                "wait_prefetch"
            )

    # -- data movement --------------------------------------------------------

    def load_rows(
        self,
        window: RegisterWindow,
        matrix: MatrixBinding,
        row_start: int,
        n_rows: int,
        reg_start: int = 0,
    ) -> Generator:
        yield from self.flush()
        cycles = yield from self.allocator.load_rows(
            window, matrix, row_start, n_rows, reg_start
        )
        self.phases.add("allocation", cycles)
        return cycles

    def load_packed(
        self,
        window: RegisterWindow,
        matrix: MatrixBinding,
        reg_index: int = 0,
    ) -> Generator:
        yield from self.flush()
        cycles = yield from self.allocator.load_packed(window, matrix, reg_index)
        self.phases.add("allocation", cycles)
        return cycles

    def load_row_set(self, specs) -> Generator:
        """Synchronous batched row load (one lock acquisition)."""
        yield from self.flush()
        cycles = yield from self.allocator.load_row_set(specs)
        self.phases.add("allocation", cycles)
        return cycles

    def prefetch_row_set(self, specs):
        """Start a double-buffered row load running concurrently with compute.

        Returns a handle to pass to :meth:`wait_prefetch`.  Only the
        *exposed* wait time (DMA cycles not hidden under compute) is
        charged to the allocation phase — this is the wall-clock
        attribution behind Figure 3's allocation share.
        """
        self._require_flushed("prefetch_row_set")
        sim = self.allocator.sim
        generator = self.allocator.load_row_set(specs)
        return sim.process(generator, name=f"prefetch.vpu{self.vpu_index}")

    def wait_prefetch(self, handle) -> Generator:
        """Join an outstanding prefetch; charge only the exposed wait."""
        yield from self.flush()
        if handle is None:
            return 0
        sim = self.allocator.sim
        started = sim.now
        if not handle.finished:
            yield handle
        exposed = sim.now - started
        self.phases.add("allocation", exposed)
        return exposed

    def store_rows(
        self,
        window: RegisterWindow,
        matrix: MatrixBinding,
        row_start: int,
        n_rows: int,
        reg_start: int = 0,
        n_cols: Optional[int] = None,
    ) -> Generator:
        yield from self.flush()
        cycles = yield from self.allocator.store_rows(
            window, matrix, row_start, n_rows, reg_start, n_cols
        )
        self.phases.add("writeback", cycles)
        return cycles

    # -- compute ---------------------------------------------------------------

    def vop(
        self,
        opcode: VectorOpcode,
        vd: int,
        vs1: int = 0,
        vs2: int = 0,
        vl: int = 0,
        scalar: int = 0,
        offset: int = 0,
        stride: int = 1,
        vd_offset: int = 0,
        etype: Optional[ElementType] = None,
    ) -> Generator:
        """Dispatch one vector instruction; returns its pipelined cost.

        A generator (bodies ``yield from`` it) that never suspends: the
        instruction is buffered, and its cost runs ahead in :attr:`lag`,
        until the next synchronisation point.
        """
        cost = self._segment.add(VectorOp(
            opcode, etype or self.etype, vd, vs1, vs2, vl, scalar, offset,
            stride, vd_offset,
        ))
        self.lag += cost
        return cost
        yield  # a generator that never suspends

    def read_element(self, vreg: int, index: int, etype: Optional[ElementType] = None) -> Generator:
        """eCPU reads one element from a vector register (returns its value).

        Executes the buffered ops first when one of them writes ``vreg``.
        """
        if vreg in self._segment.written:
            self._run_segment()
        value = int(self._vrf.view(vreg, etype or self.etype)[index])
        self.lag += self.SCALAR_READ_CYCLES
        return value
        yield  # a generator that never suspends
