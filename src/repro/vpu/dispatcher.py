"""The eCPU-to-VPU dispatcher (paper section III: "a dispatcher carries
out the distribution to the selected VPUs, keeping the architecture
modular and scalable").

The dispatcher owns all VPU instances, tracks which kernel currently
occupies each, and charges the per-instruction *issue* cost: the eCPU's
software loop that prepares and dispatches each vector instruction.
Dispatch and VPU execution are pipelined — while the VPU crunches one
vector instruction the eCPU prepares the next — so the cost of one issued
operation is ``max(issue_cycles, vpu_cycles)`` once the pipeline is full.

Kernel contexts issue into a :class:`Segment` — the ops sent to one VPU
since the last synchronisation point, with their cycle and counter sums
— and :meth:`Dispatcher.run_segment` executes it in one call.
:meth:`Dispatcher.dispatch` issues and executes a single op.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.sim.stats import StatsRegistry
from repro.vpu.vpu import Vpu
from repro.vpu.visa import VectorOp


class Segment:
    """Vector ops issued to one VPU and not yet executed.

    :meth:`add` prices each op as it is issued (the pipelined cost is
    static: op fields and VPU geometry only) and keeps the sums the
    counters need, so executing the run is one :meth:`Dispatcher.run_segment`.
    """

    __slots__ = (
        "ops", "written", "cycles", "vpu_cycles", "elems", "issue_bound",
        "_op_cycles", "_issue_cycles",
    )

    def __init__(self, vpu: Vpu, issue_cycles: int) -> None:
        self.ops: List[VectorOp] = []
        #: destination registers of the buffered ops (every opcode writes vd)
        self.written: Set[int] = set()
        #: summed pipelined cost (the ``dispatch.cycles`` increment)
        self.cycles = 0
        self.vpu_cycles = 0
        self.elems = 0
        self.issue_bound = 0
        self._op_cycles = vpu.op_cycles
        self._issue_cycles = issue_cycles

    def add(self, op: VectorOp) -> int:
        """Buffer ``op``; return its pipelined cycle cost."""
        op_cycles = self._op_cycles(op)
        self.ops.append(op)
        self.written.add(op.vd)
        self.vpu_cycles += op_cycles
        self.elems += op.vl
        issue = self._issue_cycles
        if issue >= op_cycles:
            self.issue_bound += 1
            op_cycles = issue
        self.cycles += op_cycles
        return op_cycles


class Dispatcher:
    """Routes vector instructions from the eCPU to the selected VPU."""

    def __init__(
        self,
        vpus: List[Vpu],
        issue_cycles: int,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        if not vpus:
            raise ValueError("dispatcher needs at least one VPU")
        self.vpus = vpus
        self.issue_cycles = issue_cycles
        self.stats = stats or StatsRegistry()
        self._owner: Dict[int, Optional[int]] = {vpu.index: None for vpu in vpus}
        # counter handles resolved once: segments run many times per kernel
        self._c_ops = self.stats.counter("dispatch.ops")
        self._c_cycles = self.stats.counter("dispatch.cycles")
        self._c_issue_bound = self.stats.counter("dispatch.issue_bound")

    @property
    def n_vpus(self) -> int:
        return len(self.vpus)

    def vpu(self, index: int) -> Vpu:
        return self.vpus[index]

    # -- occupancy tracking (used by the Kernel Scheduler) -----------------

    def claim(self, vpu_index: int, kernel_id: int) -> None:
        if self._owner[vpu_index] is not None:
            raise RuntimeError(
                f"VPU {vpu_index} already claimed by kernel {self._owner[vpu_index]}"
            )
        self._owner[vpu_index] = kernel_id

    def release(self, vpu_index: int) -> None:
        self._owner[vpu_index] = None

    def owner(self, vpu_index: int) -> Optional[int]:
        return self._owner[vpu_index]

    def free_vpus(self) -> List[int]:
        return [index for index, owner in self._owner.items() if owner is None]

    # -- dispatch ------------------------------------------------------------

    def dispatch(self, vpu_index: int, op: VectorOp) -> int:
        """Execute ``op`` on VPU ``vpu_index``; return the pipelined cycle cost."""
        segment = self.segment(vpu_index)
        cost = segment.add(op)
        self.run_segment(vpu_index, segment)
        return cost

    def segment(self, vpu_index: int) -> Segment:
        """An empty :class:`Segment` priced for VPU ``vpu_index``."""
        return Segment(self.vpus[vpu_index], self.issue_cycles)

    def run_segment(self, vpu_index: int, segment: Segment) -> None:
        """Execute ``segment`` on VPU ``vpu_index``."""
        # counters are monotonic by construction: bump directly
        self._c_ops.value += len(segment.ops)
        self._c_cycles.value += segment.cycles
        self._c_issue_bound.value += segment.issue_bound
        self.vpus[vpu_index].run_segment(
            segment.ops, segment.vpu_cycles, segment.elems
        )
