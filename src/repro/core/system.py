"""The X-HEEP + ARCANE system model and the host program builder.

:class:`ArcaneSystem` owns one simulation universe: main memory, the
ARCANE LLC (cache + VPUs + C-RT + bridge) and a host-CPU agent.  The host
agent is transaction-level: it issues xmnmc offloads and loads/stores
through the LLC with the same ordering and stalling a CV32E40X would see
over the CV-X-IF and the system bus (the instruction-accurate host ISS is
used for the *baselines*, where instruction-level effects are the whole
point; on the ARCANE side host work between offloads is negligible and
transaction-level modelling is standard practice).

:class:`HostProgram` is the Listing-1 builder::

    with system.program() as prog:
        prog.xmr(0, a)
        prog.xmr(1, f)
        prog.xmr(2, out)
        prog.conv_layer(dest=2, src=0, flt=1)

On exit the queued operations run as a simulation process, the C-RT
drains, and :attr:`ArcaneSystem.last_report` collects cycles, phase
breakdowns and cache statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.core.api import Matrix, element_type_for
from repro.core.config import ArcaneConfig
from repro.core.llc import ArcaneLlc
from repro.isa.xmnmc import FUNC5_XMR, OffloadRequest, pack_pair
from repro.mem.memory import MainMemory
from repro.runtime.phases import PhaseBreakdown
from repro.sim.kernel import Simulator
from repro.sim.stats import StatsRegistry
from repro.sim.trace import Tracer
from repro.utils.bitops import align_up
from repro.xbridge.bridge import OffloadOutcome


@dataclass
class RunReport:
    """What one host program execution measured."""

    total_cycles: int
    host_cycles: int
    breakdown: PhaseBreakdown
    per_kernel: Dict[int, PhaseBreakdown]
    outcomes: List[OffloadOutcome]
    stats: Dict[str, int]
    load_values: List[int] = field(default_factory=list)
    #: kernel replay-cache activity during this run (hits / misses /
    #: recorded / bypassed / invalidated); empty when the fast path is
    #: off.  Kept out of :attr:`stats` on purpose — the simulated-world
    #: counters must be bit-exact between fast and slow paths, while this
    #: block describes the host-side machinery.
    replay: Dict[str, int] = field(default_factory=dict)

    @property
    def offload_count(self) -> int:
        return len(self.outcomes)


class HostProgram:
    """Deferred host instruction stream (built, then executed on exit)."""

    def __init__(self, system: "ArcaneSystem") -> None:
        self.system = system
        self._ops: List[Tuple[str, tuple]] = []
        self._instr_id = 0

    # -- xmnmc intrinsics ----------------------------------------------------

    def _next_id(self) -> int:
        self._instr_id += 1
        return self._instr_id

    def xmr(self, md: int, matrix: Matrix) -> "HostProgram":
        """``_xmr_[w|h|b](mN, A, stride, rows, cols)`` of Listing 1."""
        request = OffloadRequest(
            func5=FUNC5_XMR,
            size_suffix=matrix.etype.suffix,
            rs1_value=matrix.address & 0xFFFFFFFF,
            rs2_value=pack_pair(matrix.cols, md),  # stride (elements), md
            rs3_value=pack_pair(matrix.cols, matrix.rows),
            instr_id=self._next_id(),
        )
        self._ops.append(("offload", (request,)))
        return self

    def xmk(
        self, func5: int, suffix: str, rs1: int = 0, rs2: int = 0, rs3: int = 0
    ) -> "HostProgram":
        """Raw kernel instruction with pre-packed operand registers."""
        request = OffloadRequest(
            func5=func5, size_suffix=suffix,
            rs1_value=rs1 & 0xFFFFFFFF, rs2_value=rs2 & 0xFFFFFFFF,
            rs3_value=rs3 & 0xFFFFFFFF, instr_id=self._next_id(),
        )
        self._ops.append(("offload", (request,)))
        return self

    def gemm(
        self, dest: int, a: int, b: int, c: int,
        alpha: int = 1, beta: int = 0, suffix: str = "w",
    ) -> "HostProgram":
        return self.xmk(
            0, suffix,
            rs1=pack_pair(alpha & 0xFFFF, beta & 0xFFFF),
            rs2=pack_pair(c, dest),
            rs3=pack_pair(a, b),
        )

    def leaky_relu(self, dest: int, src: int, alpha: int = 3, suffix: str = "w") -> "HostProgram":
        return self.xmk(1, suffix, rs1=pack_pair(alpha, 0), rs2=pack_pair(0, dest),
                        rs3=pack_pair(src, 0))

    def maxpool(
        self, dest: int, src: int, window: int = 2, stride: int = 2, suffix: str = "w"
    ) -> "HostProgram":
        return self.xmk(2, suffix, rs1=pack_pair(stride, window), rs2=pack_pair(0, dest),
                        rs3=pack_pair(src, 0))

    def conv2d(self, dest: int, src: int, flt: int, suffix: str = "w") -> "HostProgram":
        return self.xmk(3, suffix, rs2=pack_pair(0, dest), rs3=pack_pair(src, flt))

    def conv_layer(self, dest: int, src: int, flt: int, suffix: str = "w") -> "HostProgram":
        """``_conv_layer_[w|h|b](mR, mA, mF)`` of Listing 1 (xmk4)."""
        return self.xmk(4, suffix, rs2=pack_pair(0, dest), rs3=pack_pair(src, flt))

    # -- plain host memory traffic (exercises the cache + hazard paths) -------

    def load(self, matrix: Matrix, row: int, col: int) -> "HostProgram":
        """Host load of one element; stalls on RAW if the kernel still owns it."""
        self._ops.append(("load", (matrix.element_address(row, col), matrix.itemsize)))
        return self

    def store(self, matrix: Matrix, row: int, col: int, value: int) -> "HostProgram":
        self._ops.append(
            ("store", (matrix.element_address(row, col), int(value), matrix.itemsize))
        )
        return self

    def delay(self, cycles: int) -> "HostProgram":
        self._ops.append(("delay", (int(cycles),)))
        return self

    # -- execution -----------------------------------------------------------------

    def _host_process(self, report_sink: dict) -> Generator:
        llc = self.system.llc
        outcomes: List[OffloadOutcome] = []
        loads: List[int] = []
        for op, args in self._ops:
            if op == "offload":
                outcome = yield from llc.bridge.offload(args[0])
                outcomes.append(outcome)
            elif op == "load":
                value = yield from llc.controller.host_read(args[0], args[1])
                # matrices are signed integers: present the load like lb/lh/lw
                from repro.utils.bitops import sign_extend

                loads.append(sign_extend(value, args[1] * 8))
            elif op == "store":
                yield from llc.controller.host_write(args[0], args[1], args[2])
            elif op == "delay":
                yield args[0]
            else:  # pragma: no cover - builder is closed
                raise RuntimeError(f"unknown host op {op}")
        report_sink["host_done"] = self.system.sim.now
        report_sink["outcomes"] = outcomes
        report_sink["loads"] = loads

    def run(self) -> RunReport:
        return self.system._execute_program(self)

    def __enter__(self) -> "HostProgram":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self.run()
        return False


class HeapExhaustedError(RuntimeError):
    """The matrix heap has no room left for an allocation.

    Distinct from Python's builtin ``MemoryError``, which means the host
    process itself ran out of memory.
    """


class ArcaneSystem:
    """One simulated X-HEEP MCU with its data LLC replaced by ARCANE."""

    #: Matrices are placed from this offset, line-aligned.
    HEAP_BASE = 0x0001_0000

    def __init__(
        self,
        config: Optional[ArcaneConfig] = None,
        trace: bool = False,
    ) -> None:
        """Build one system.

        ``config.fastpath=False`` forces every kernel launch down the slow
        interpreted path.  Tracing also disables the fast path: a replayed
        kernel would not emit per-operation trace events.
        """
        self.config = config or ArcaneConfig()
        self.sim = Simulator()
        self.stats = StatsRegistry()
        self.tracer = Tracer(enabled=trace)
        self.memory = MainMemory(self.config.main_memory_kib * 1024, base=0)
        self.llc = ArcaneLlc(self.sim, self.config, self.memory, self.stats, self.tracer)
        self.llc.start()
        self._heap = align_up(self.HEAP_BASE, self.config.line_bytes)
        self._matrix_count = 0
        self._alloc_seq = 0
        #: live allocations: line-aligned base -> (reserved bytes, alloc id)
        self._live: Dict[int, Tuple[int, int]] = {}
        #: free blocks (address-sorted, coalesced): [(address, reserved bytes)]
        self._free_blocks: List[Tuple[int, int]] = []
        self.last_report: Optional[RunReport] = None

    @property
    def corruption(self):
        """The LLC's data-corruption injection surface (inert until armed)."""
        return self.llc.corruption

    # -- memory management ----------------------------------------------------
    #
    # Matrices live in a line-aligned heap with a free list: freed blocks
    # are coalesced and reused first-fit, and the bump pointer only grows
    # when no freed block fits.  free_matrix() / reset_heap() make one
    # ArcaneSystem reusable across an unbounded number of programs — the
    # serving engine's whole premise.

    def _allocate(self, n_bytes: int) -> int:
        reserved = align_up(max(n_bytes, 1), self.config.line_bytes)
        self._alloc_seq += 1
        for i, (address, size) in enumerate(self._free_blocks):
            if size >= reserved:  # first fit; keep the (aligned) remainder free
                if size > reserved:
                    self._free_blocks[i] = (address + reserved, size - reserved)
                else:
                    del self._free_blocks[i]
                self._live[address] = (reserved, self._alloc_seq)
                return address
        address = self._heap
        if address + reserved > self.memory.base + self.memory.size:
            raise HeapExhaustedError(
                f"matrix heap exhausted placing {n_bytes} bytes at {address:#x} "
                f"({self.heap_stats()['live_bytes']} bytes live; free_matrix() or "
                "reset_heap() reclaims space on a long-lived system)"
            )
        self._heap = address + reserved
        self._live[address] = (reserved, self._alloc_seq)
        return address

    def _require_idle_runtime(self, action: str) -> None:
        reasons = self.llc.runtime.busy_reasons()
        if reasons:
            raise RuntimeError(
                f"cannot {action} with kernels pending ({'; '.join(reasons)}); "
                "run the program to completion (or drain) first"
            )

    def free_matrix(self, matrix: Matrix) -> None:
        """Return a matrix's heap block to the free list.

        Cached lines covering the block are dropped *without* write-back
        (the data is dead); this keeps a later allocation at the same
        address from reading another matrix's stale lines.  The handle's
        allocation id must match the live allocation — a stale handle
        whose address was recycled cannot free the current occupant —
        and the runtime must be idle: freeing the operand of a queued or
        running kernel would let its block be recycled mid-computation.
        """
        self._require_idle_runtime("free a matrix")
        live = self._live.get(matrix.address)
        if live is None or live[1] != matrix.alloc_id:
            raise ValueError(
                f"matrix {matrix.name!r} at {matrix.address:#x} is not a live "
                "allocation of this system (double free, stale or foreign handle?)"
            )
        reserved, _ = self._live.pop(matrix.address)
        self.llc.controller.invalidate_region(
            matrix.address, matrix.address + reserved, writeback=False
        )
        self._free_blocks.append((matrix.address, reserved))
        self._free_blocks.sort()
        self._coalesce_free_blocks()

    def _coalesce_free_blocks(self) -> None:
        merged: List[Tuple[int, int]] = []
        for address, size in self._free_blocks:
            if merged and merged[-1][0] + merged[-1][1] == address:
                merged[-1] = (merged[-1][0], merged[-1][1] + size)
            else:
                merged.append((address, size))
        if merged and merged[-1][0] + merged[-1][1] == self._heap:
            self._heap = merged.pop()[0]  # retract the bump pointer
        self._free_blocks = merged

    def reset_heap(self) -> None:
        """Release every matrix and rewind the heap to its base.

        The fast path between serving requests: cached heap lines are
        discarded (no write-back — all matrices are dead), per-kernel
        breakdown history is cleared, and the next program starts from
        the same cold-cache state a freshly built system would see, so
        its results *and* cycle counts match a single-shot run bit-exactly.
        Raises if kernels are still queued or running.
        """
        self._require_idle_runtime("reset the heap")
        runtime = self.llc.runtime
        self.llc.controller.invalidate_region(
            self.HEAP_BASE, self._heap, writeback=False
        )
        self._heap = align_up(self.HEAP_BASE, self.config.line_bytes)
        self._live.clear()
        self._free_blocks.clear()
        self._matrix_count = 0
        runtime.scheduler.breakdowns.clear()
        runtime.scheduler.completed.clear()
        self.last_report = None

    def heap_stats(self) -> Dict[str, int]:
        """Occupancy of the matrix heap (for reports and regression tests)."""
        live = sum(reserved for reserved, _ in self._live.values())
        free = sum(size for _, size in self._free_blocks)
        base = align_up(self.HEAP_BASE, self.config.line_bytes)
        return {
            "live_matrices": len(self._live),
            "live_bytes": live,
            "free_bytes": free,
            "heap_bytes": self._heap - base,
        }

    def place_matrix(self, values: np.ndarray, name: str = "") -> Matrix:
        """Copy a 2-D integer array into system memory, return its handle."""
        values = np.asarray(values)
        if values.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {values.shape}")
        element_type_for(values.dtype)  # validation
        address = self._allocate(values.nbytes)
        self.memory.write_matrix(address, values)
        self._matrix_count += 1
        return Matrix(
            address, values.shape[0], values.shape[1], np.dtype(values.dtype),
            name or f"m{self._matrix_count}", alloc_id=self._live[address][1],
        )

    def alloc_matrix(self, shape: Tuple[int, int], dtype: Any, name: str = "") -> Matrix:
        """Reserve a zeroed output matrix in system memory."""
        rows, cols = shape
        dtype = np.dtype(dtype)
        element_type_for(dtype)
        address = self._allocate(rows * cols * dtype.itemsize)
        self.memory.write_matrix(address, np.zeros((rows, cols), dtype=dtype))
        self._matrix_count += 1
        return Matrix(address, rows, cols, dtype, name or f"m{self._matrix_count}",
                      alloc_id=self._live[address][1])

    def read_matrix(self, matrix: Matrix) -> np.ndarray:
        """Read a matrix back (coherent view through the LLC)."""
        raw = self.llc.controller.peek(matrix.address, matrix.total_bytes)
        return np.frombuffer(raw, dtype=matrix.dtype).reshape(matrix.shape).copy()

    # -- program execution -------------------------------------------------------

    def program(self) -> HostProgram:
        return HostProgram(self)

    def _execute_program(self, program: HostProgram) -> RunReport:
        sink: dict = {}
        start_cycle = self.sim.now
        start_breakdowns = set(self.llc.runtime.breakdowns)
        start_counters = self.stats.counters()
        replay_cache = self.llc.runtime.replay_cache
        start_replay = dict(replay_cache.stats) if replay_cache is not None else {}
        host = self.sim.process(program._host_process(sink), name="host")
        self.sim.run()
        if not host.finished:
            raise RuntimeError(f"host program deadlocked at cycle {self.sim.now}")
        drain = self.sim.process(self.llc.runtime.drain(), name="drain")
        self.sim.run()
        if not drain.finished:
            raise RuntimeError(f"C-RT failed to drain at cycle {self.sim.now}")

        merged = PhaseBreakdown()
        per_kernel: Dict[int, PhaseBreakdown] = {}
        for kernel_id, breakdown in self.llc.runtime.breakdowns.items():
            if kernel_id in start_breakdowns:
                continue
            per_kernel[kernel_id] = breakdown
            merged.merge(breakdown)
        # Per-run stats epoch: report what *this* program added, so reports
        # from a long-lived system match single-shot runs on a fresh one.
        stats_delta = {
            name: value - start_counters.get(name, 0)
            for name, value in self.stats.counters().items()
        }
        replay_delta = (
            {
                name: value - start_replay.get(name, 0)
                for name, value in replay_cache.stats.items()
            }
            if replay_cache is not None
            else {}
        )
        report = RunReport(
            total_cycles=self.sim.now - start_cycle,
            host_cycles=sink.get("host_done", self.sim.now) - start_cycle,
            breakdown=merged,
            per_kernel=per_kernel,
            outcomes=sink.get("outcomes", []),
            stats=stats_delta,
            load_values=sink.get("loads", []),
            replay=replay_delta,
        )
        self.last_report = report
        return report

    # -- convenience one-shots (benchmark harness entry points) --------------------

    def run_conv_layer(
        self, image: np.ndarray, filters: np.ndarray
    ) -> Tuple[np.ndarray, RunReport]:
        """Place operands, run one xmk4 conv layer, return (result, report)."""
        from repro.runtime.kernels.conv_layer import conv_layer_shapes

        _, _, _, pooled = conv_layer_shapes(
            image.shape[0], image.shape[1], filters.shape[0], filters.shape[1]
        )
        x = self.place_matrix(image, "x")
        f = self.place_matrix(filters, "f")
        out = self.alloc_matrix(pooled, image.dtype, "out")
        suffix = x.etype.suffix
        with self.program() as prog:
            prog.xmr(0, x)
            prog.xmr(1, f)
            prog.xmr(2, out)
            prog.conv_layer(dest=2, src=0, flt=1, suffix=suffix)
        return self.read_matrix(out), self.last_report
