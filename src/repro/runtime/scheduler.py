"""The Kernel Scheduler (paper IV-B.2).

Runs as the C-RT main loop on the eCPU: pops scheduled kernels off the
queue, selects a VPU — preferring the one with the *fewest dirty cache
lines*, so claiming its registers for compute causes the least write-back
traffic — executes the kernel body, then releases operands:

* source regions are released (unblocking WAR-stalled host stores);
* the destination region is released after write-back completes
  (unblocking RAW/RAW-stalled host accesses);
* claimed vector registers return to the free pool and their lines to
  the cache.

A ``multi_vpu`` kernel body may be sharded across every free VPU; the
scheduler then runs one context per VPU concurrently and joins them —
the paper's "multi-instance mode" (section V-C).
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional

from repro.cache.controller import LlcController
from repro.runtime.allocator import MatrixAllocator
from repro.runtime.context import KernelContext
from repro.runtime.kernel_lib import KernelLibrary, KernelSpec
from repro.runtime.phases import PhaseBreakdown
from repro.runtime.queue import KernelQueue, QueuedKernel
from repro.runtime.replay import (
    Recording,
    RecordingContext,
    ReplayCache,
    ReplayDivergence,
    replay_kernel,
)
from repro.sim.kernel import Simulator
from repro.sim.stats import StatsRegistry
from repro.sim.trace import Tracer
from repro.vpu.dispatcher import Dispatcher


class KernelScheduler:
    """C-RT main loop: VPU selection, kernel execution, operand release."""

    #: eCPU cycles for one scheduling decision (queue pop + policy + setup).
    SCHEDULE_CYCLES = 400

    def __init__(
        self,
        sim: Simulator,
        queue: KernelQueue,
        library: KernelLibrary,
        dispatcher: Dispatcher,
        allocator: MatrixAllocator,
        controller: LlcController,
        stats: Optional[StatsRegistry] = None,
        tracer: Optional[Tracer] = None,
        multi_vpu: bool = False,
        vpu_policy: str = "fewest_dirty",
        replay_cache: Optional[ReplayCache] = None,
    ) -> None:
        self.sim = sim
        self.queue = queue
        self.library = library
        self.dispatcher = dispatcher
        self.allocator = allocator
        self.controller = controller
        self.stats = stats or StatsRegistry()
        self.tracer = tracer or Tracer(enabled=False)
        self.multi_vpu = multi_vpu
        self.vpu_policy = vpu_policy
        #: the kernel replay cache (None = fast path disabled).  Replay is
        #: incompatible with per-op tracing and with multi-VPU sharding,
        #: so those launches always take the slow path.
        self.replay_cache = replay_cache
        #: fault-injection hook (repro.integrity.inject): called once per
        #: kernel launch with the kernel's operand bindings so an armed
        #: plan can flip a bit in LLC-resident operand bytes.  None when
        #: no plan is armed (one attribute check on the hot path).
        self.corruption = None
        self.completed: List[QueuedKernel] = []
        self._c_kernels = self.stats.counter("scheduler.kernels")
        self.breakdowns: Dict[int, PhaseBreakdown] = {}
        self._stop = False
        self._epoch = 0
        self._inflight: Optional[QueuedKernel] = None

    # -- VPU selection policies (ablation bench compares them) ---------------

    def select_vpu(self) -> int:
        free = self.dispatcher.free_vpus()
        if not free:
            raise RuntimeError("no free VPU (scheduler runs kernels to completion)")
        if self.vpu_policy == "fewest_dirty":
            return min(free, key=lambda v: (self.controller.ct.dirty_line_count(v), v))
        if self.vpu_policy == "round_robin":
            return free[len(self.completed) % len(free)]
        if self.vpu_policy == "first_free":
            return free[0]
        raise ValueError(f"unknown VPU policy {self.vpu_policy!r}")

    # -- execution -----------------------------------------------------------------

    def run_forever(self) -> Generator:
        """Simulation process: serve the queue until :meth:`stop` is called.

        While the queue is empty the loop parks on the queue's push
        event; :meth:`stop` kicks that event, so a parked scheduler
        wakes and exits without another kernel having to arrive.  The
        park leaves no residue — push-event waiters drain on every fire,
        so a long-lived serving loop allocates nothing per idle period.

        Each launch captures the current epoch: a loop superseded by
        :meth:`rearm` (stop immediately followed by a relaunch, before
        the simulation advanced enough for the old loop to observe the
        stop) exits at its next wakeup instead of serving the queue
        alongside its replacement.
        """
        epoch = self._epoch
        while not self._stop and epoch == self._epoch:
            if self.queue.empty:
                yield self.queue.pushed_event
                continue
            kernel = self.queue.pop()
            yield from self.execute(kernel)

    def stop(self) -> None:
        """Request a clean exit; wakes the loop if it is parked on the queue."""
        self._stop = True
        self.queue.kick()

    def rearm(self) -> None:
        """Prepare a relaunch: clear the stop flag, retire older loops."""
        self._stop = False
        self._epoch += 1

    @property
    def inflight(self) -> Optional[QueuedKernel]:
        """The kernel currently being scheduled/executed (None when idle).

        Covers the window between queue pop and VPU claim, where a kernel
        is visible neither in the queue nor on a dispatcher owner —
        drain/reset logic must not mistake that window for idleness.
        """
        return self._inflight

    def execute(self, kernel: QueuedKernel) -> Generator:
        """Run one kernel to completion (simulation process)."""
        spec = self.library.lookup(kernel.func5)
        if spec is None:
            raise RuntimeError(f"kernel {kernel.func5} vanished from the library")
        self._inflight = kernel
        try:
            phases = PhaseBreakdown()
            phases.add("preamble", kernel.preamble_cycles + self.SCHEDULE_CYCLES)
            yield self.SCHEDULE_CYCLES
            if self.corruption is not None:
                # fires before the replay key is computed, so a flipped
                # operand byte keys its own (corrupt) recording instead of
                # poisoning the clean one
                self.corruption.on_kernel(kernel, self.controller)

            if self.multi_vpu and len(self.dispatcher.free_vpus()) > 1:
                yield from self._execute_multi(kernel, spec.body, phases)
            else:
                vpu_index = self.select_vpu()
                if self.replay_cache is not None \
                        and not self.replay_cache.suspended \
                        and not self.tracer.enabled:
                    yield from self._execute_replayable(kernel, spec, vpu_index, phases)
                else:
                    yield from self._execute_single(kernel, spec.body, vpu_index, phases)
        finally:
            # guard against a superseded loop's last kernel clearing a
            # replacement loop's in-flight marker (stop + immediate restart)
            if self._inflight is kernel:
                self._inflight = None

        self._release_operands(kernel)
        self.breakdowns[kernel.kernel_id] = phases
        self.completed.append(kernel)
        if kernel.done is not None:
            kernel.done.fire(phases)
        self._c_kernels.add()
        self.tracer.log(
            self.sim.now, "scheduler", "kernel_done",
            kernel=kernel.kernel_id, name=kernel.name, cycles=phases.total,
        )

    def _execute_replayable(
        self, kernel: QueuedKernel, spec: KernelSpec, vpu_index: int,
        phases: PhaseBreakdown,
    ) -> Generator:
        """Fast-path dispatch: replay a recording, or record a repeated key."""
        cache = self.replay_cache
        key = cache.key_for(kernel, vpu_index, self.controller)
        recording = cache.lookup(key)
        if recording is not None:
            if cache.can_replay(recording, self, vpu_index):
                cache.stats["hits"] += 1
                cache.note_launch(kernel.kernel_id, "hit")
                if cache.touched is not None:
                    cache.touched.append(key)
                yield from self._execute_recorded(
                    recording, kernel, vpu_index, phases, key
                )
            else:
                cache.stats["bypassed"] += 1
                cache.note_launch(kernel.kernel_id, "bypassed")
                yield from self._execute_single(kernel, spec.body, vpu_index, phases)
            return
        cache.stats["misses"] += 1
        cache.note_launch(kernel.kernel_id, "miss")
        if not cache.admit(key):
            # first sighting: remember the key, record nothing
            yield from self._execute_single(kernel, spec.body, vpu_index, phases)
            return
        recording = Recording(vpu_index, self.allocator._free[vpu_index])
        before = dict(phases.cycles)
        yield from self._execute_single(
            kernel, spec.body, vpu_index, phases, recording=recording
        )
        delta = {
            name: cycles - before.get(name, 0) for name, cycles in phases.cycles.items()
        }
        if recording.finalize(delta):
            cache.stats["recorded"] += 1
        if cache.touched is not None:
            cache.touched.append(key)
        cache.store(key, recording)

    def _execute_recorded(
        self, recording: Recording, kernel: QueuedKernel, vpu_index: int,
        phases: PhaseBreakdown, key: tuple,
    ) -> Generator:
        cache = self.replay_cache
        compiled = cache.compiled_for(key, recording, kernel, self, vpu_index)
        self.dispatcher.claim(vpu_index, kernel.kernel_id)
        context = KernelContext(
            vpu_index, kernel.etype, self.allocator, self.dispatcher, phases
        )
        try:
            yield from replay_kernel(recording, kernel, context, self, compiled)
        except ReplayDivergence:
            # the recording no longer matches the machine — most likely a
            # corrupted (poisoned) recording; drop it locally and retract
            # it from the fleet cache before the error propagates
            cache.invalidate(key)
            raise
        finally:
            context.release_all()
            self.dispatcher.release(vpu_index)

    def _execute_single(
        self, kernel: QueuedKernel, body: Callable, vpu_index: int,
        phases: PhaseBreakdown, recording: Optional[Recording] = None,
    ) -> Generator:
        self.dispatcher.claim(vpu_index, kernel.kernel_id)
        if recording is None:
            context = KernelContext(
                vpu_index, kernel.etype, self.allocator, self.dispatcher, phases
            )
        else:
            context = RecordingContext(
                vpu_index, kernel.etype, self.allocator, self.dispatcher, phases,
                kernel, recording,
            )
        self.tracer.log(
            self.sim.now, "scheduler", "kernel_start",
            kernel=kernel.kernel_id, name=kernel.name, vpu=vpu_index,
        )
        try:
            yield from body(context, kernel)
            yield from context.flush()
        finally:
            context.release_all()
            self.dispatcher.release(vpu_index)

    def _execute_multi(
        self, kernel: QueuedKernel, body: Callable, phases: PhaseBreakdown
    ) -> Generator:
        """Shard the kernel across all free VPUs and join.

        Each shard receives ``shard=(index, count)``; bodies that support
        sharding partition their output rows accordingly.  Per-shard phase
        cycles land in per-shard breakdowns; the merged breakdown keeps the
        *maximum* compute time (shards run concurrently) and the *sum* of
        DMA phases (the bus is shared).
        """
        vpus = self.dispatcher.free_vpus()
        shard_phases = [PhaseBreakdown() for _ in vpus]
        processes = []
        for i, vpu_index in enumerate(vpus):
            self.dispatcher.claim(vpu_index, kernel.kernel_id)
            context = KernelContext(
                vpu_index, kernel.etype, self.allocator, self.dispatcher, shard_phases[i]
            )
            generator = self._shard_wrapper(body, context, kernel, i, len(vpus))
            processes.append(
                self.sim.process(generator, name=f"kernel{kernel.kernel_id}.shard{i}")
            )
        yield self.sim.all_of([p.done_event for p in processes], name="shards_done")
        for vpu_index in vpus:
            self.dispatcher.release(vpu_index)
        merged = self._merge_shard_phases(shard_phases)
        phases.merge(merged)

    def _shard_wrapper(
        self, body: Callable, context: KernelContext, kernel: QueuedKernel,
        shard_index: int, shard_count: int,
    ) -> Generator:
        try:
            yield from body(context, kernel, shard=(shard_index, shard_count))
            yield from context.flush()
        finally:
            context.release_all()

    @staticmethod
    def _merge_shard_phases(shards: List[PhaseBreakdown]) -> PhaseBreakdown:
        """Join per-shard breakdowns over the union of recorded phase names.

        Shards run concurrently, so "compute" keeps the slowest shard's
        time; every other phase (DMA and eCPU work contending for the
        shared bus / eCPU) is summed.  Custom phases recorded by kernel
        bodies merge by the same sum rule instead of being dropped.
        """
        merged = PhaseBreakdown()
        names = list(merged.cycles)
        for shard in shards:
            names.extend(p for p in shard.cycles if p not in names)
        for phase in names:
            values = [shard.cycles.get(phase, 0) for shard in shards]
            if phase == "compute":
                merged.add(phase, max(values, default=0))
            else:
                merged.add(phase, sum(values))
        return merged

    def _release_operands(self, kernel: QueuedKernel) -> None:
        """Free AT entries and drop binding references (hazard release)."""
        at = self.allocator.controller.at
        for binding in kernel.sources:
            binding.pending_uses -= 1
            at.release(binding.binding_id)
            self.controller.clear_roles_for_region(binding.address, binding.end_address)
        if kernel.dest is not None:
            kernel.dest.pending_uses -= 1
            at.release(kernel.dest.binding_id)
            self.controller.clear_roles_for_region(
                kernel.dest.address, kernel.dest.end_address
            )
