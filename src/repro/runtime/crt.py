"""C-RT top level: wiring of decoder, scheduler, allocator and queue.

The runtime mirrors the paper's description (section IV-B): a
single-threaded preemptive runtime with statically allocated structures
(kernel queue, matrix map) sized at configuration time, a producer-
consumer kernel queue between the interrupt-context decoder and the
main-loop scheduler, and a deep-sleep mode when no operations are
pending (modelled as an idle-cycle counter for the power discussion).
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.cache.controller import LlcController
from repro.mem.bus import BusModel
from repro.runtime.allocator import MatrixAllocator
from repro.runtime.decoder import DecodeCosts, KernelDecoder
from repro.runtime.kernel_lib import KernelLibrary
from repro.runtime.matrix import MatrixMap
from repro.runtime.queue import KernelQueue, QueuedKernel
from repro.runtime.replay import ReplayCache
from repro.runtime.scheduler import KernelScheduler
from repro.sim.kernel import Process, Simulator
from repro.sim.stats import StatsRegistry
from repro.sim.trace import Tracer
from repro.vpu.dispatcher import Dispatcher
from repro.isa.xmnmc import OffloadRequest


class CacheRuntime:
    """The complete C-RT instance running on the eCPU."""

    def __init__(
        self,
        sim: Simulator,
        controller: LlcController,
        dispatcher: Dispatcher,
        bus: BusModel,
        n_matrix_registers: int = 8,
        queue_capacity: int = 8,
        stats: Optional[StatsRegistry] = None,
        tracer: Optional[Tracer] = None,
        decode_costs: DecodeCosts = DecodeCosts(),
        multi_vpu: bool = False,
        vpu_policy: str = "fewest_dirty",
        fastpath: bool = True,
    ) -> None:
        self.sim = sim
        self.controller = controller
        self.stats = stats or StatsRegistry()
        self.tracer = tracer or Tracer(enabled=False)
        self.matrix_map = MatrixMap(n_matrix_registers)
        self.library = KernelLibrary()
        self.queue = KernelQueue(queue_capacity, sim)
        self.allocator = MatrixAllocator(
            sim, controller, [vpu for vpu in dispatcher.vpus], bus, self.stats
        )
        self.decoder = KernelDecoder(
            sim, self.matrix_map, self.library, self.queue, controller.at,
            self.stats, self.tracer, decode_costs,
        )
        #: the kernel replay cache (None when the fast path is disabled via
        #: config or per-op tracing)
        self.replay_cache = (
            ReplayCache(self.library) if fastpath and not self.tracer.enabled else None
        )
        self.scheduler = KernelScheduler(
            sim, self.queue, self.library, dispatcher, self.allocator, controller,
            self.stats, self.tracer, multi_vpu=multi_vpu, vpu_policy=vpu_policy,
            replay_cache=self.replay_cache,
        )
        self._scheduler_process: Optional[Process] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Launch the scheduler main loop as a simulation process."""
        if self._scheduler_process is not None:
            return
        self.scheduler.rearm()
        self._scheduler_process = self.sim.process(
            self.scheduler.run_forever(), name="crt.scheduler"
        )

    def stop(self) -> Optional[Process]:
        """Ask the scheduler loop to exit; returns its process (or None).

        The stop event wakes a scheduler parked on an empty queue, so the
        loop exits on the current cycle without another kernel arriving.
        A later :meth:`start` relaunches it.
        """
        if self._scheduler_process is None:
            return None
        self.scheduler.stop()
        process, self._scheduler_process = self._scheduler_process, None
        return process

    def install_default_kernels(self) -> None:
        """Register the five Table I kernels in their paper slots."""
        from repro.runtime.kernels import install_all

        install_all(self.library)

    # -- bridge-facing decode entry point ---------------------------------------

    def decode(self, request: OffloadRequest) -> Generator:
        """Interrupt handler body invoked by the bridge."""
        result = yield from self.decoder.decode(request)
        return result

    # -- synchronization helpers --------------------------------------------------

    def pending_kernels(self) -> List[QueuedKernel]:
        return self.queue.peek_all()

    def busy_reasons(self) -> List[str]:
        """Why the runtime is not idle (empty when all work has completed).

        The single source of truth for the idle predicate: queued kernels,
        claimed VPUs, and the pop→claim scheduling window all count as
        busy.  Used by :meth:`drain` and by every lifecycle operation that
        must not run over live operands (heap reset/free).
        """
        reasons = []
        pending = self.queue.peek_all()
        if pending:
            reasons.append(f"{len(pending)} queued kernel(s)")
        busy = [
            v for v in range(self.scheduler.dispatcher.n_vpus)
            if self.scheduler.dispatcher.owner(v) is not None
        ]
        if busy:
            reasons.append(f"VPUs busy: {busy}")
        if self.scheduler.inflight is not None:
            reasons.append("a kernel is mid-schedule")
        return reasons

    def is_idle(self) -> bool:
        return not self.busy_reasons()

    def drain(self) -> Generator:
        """Simulation process: wait until every queued kernel has completed."""
        while True:
            if self.is_idle():
                return
            pending = self.queue.peek_all()
            if pending and pending[0].done is not None:
                yield pending[0].done
            else:
                yield 50  # poll while a kernel is mid-flight

    @property
    def breakdowns(self) -> dict:
        """Per-kernel :class:`PhaseBreakdown` by kernel id."""
        return self.scheduler.breakdowns
