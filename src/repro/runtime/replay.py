"""The kernel replay cache — the serving-path fast lane.

Serving workloads launch the *same* ``(kernel, shape, operand data)``
thousands of times (one pooled worker replays identical requests
back-to-back), yet the stock scheduler re-runs the kernel body's Python
tile-loop generator on every launch: thousands of generator suspensions,
``VectorOp`` constructions and per-row bookkeeping just to re-derive a
micro-program stream that is fully determined by the launch key.  This
module separates the *schedule* from its *execution* (the Exo/SYS_ATL
record-once-replay-cheaply idea applied to a simulator): one launch
records the stream of :class:`~repro.runtime.context.KernelContext`
effects, and later launches replay that stream in a tight loop with a
single simulator suspension.

Admission: record on the second sighting
----------------------------------------

Recording costs host time and memory, and a key seen once — every
launch of a serving workload that brings fresh operand bytes — never
pays it back.  So a key is recorded only when it misses for the second
time:

* on a first local miss the launch runs the plain slow path and the
  cache only remembers the key (at most ``capacity`` remembered keys,
  the oldest forgotten first — the same bound as the recordings);
* a second miss on a remembered key records, as every miss once did;
* a recording published by another worker (the fleet store) is adopted
  and replayed on the first local sighting — its first sighting
  happened elsewhere.

An exact-repeat workload therefore pays one extra slow launch per key,
and a fresh-data workload stores nothing.

Bit-exactness contract
----------------------

Replays reproduce the slow path exactly — results, ``RunReport`` cycle
counts, phase breakdowns and stats counters — because nothing about a
replay is *assumed* from the recording where live state could differ:

* functional effects (DMA row reads/writes, vector-op execution, register
  claims) are re-executed against live memory, cache and VRF state
  through the same primitives the slow path uses;
* DMA rows move through the same :class:`~repro.mem.dma.Dma2D` engine
  as the slow path, which prices each row from its live cache-hit state,
  not from the recording;
* the LLC-lock serialization of loads, stores and double-buffered
  prefetches is replayed with a closed-form timeline (a prefetch holds
  the lock until its last row, later locked sections start no earlier
  than that, and ``wait_prefetch`` charges only the exposed cycles) —
  the same arrival times the event loop would produce;
* recordings are keyed on a digest of the *source operand bytes*, so the
  data-dependent parts of a stream (``read_element`` coefficients that
  gate zero-skipping, scalar operands) can never be replayed against
  different data; every replayed ``read_element`` additionally
  re-reads the live value and verifies it matches the recording.

Recordings reference operands by *position* (source index / destination)
and rows by index, never by absolute address, so ``free_matrix()`` /
``reset_heap()`` recycling heap addresses between launches cannot stale a
recording — the canonical serving flow (reset between requests) replays
at full speed.  What *does* invalidate recordings:

* reprogramming a library slot (``KernelLibrary.generation`` mismatch);
* a different VPU selection, operand geometry, scalar set or source-data
  digest (all part of the key — a miss, not a wrong replay);
* an environment the timeline model cannot promise to reproduce (LLC
  lock held or host access in flight at launch, a different VRF
  free-list state, an armed ``dma_corrupt``/``vrf_flip`` hook, multi-VPU
  sharding, tracing) — the launch silently takes the slow path
  ("bypassed").

Kernel bodies interact with the machinery only through the closed
:class:`KernelContext` API; a body that mutated simulator state behind
the context's back would record an incomplete stream, which the
phase-accounting cross-check in :meth:`Recording.finalize` turns into a
poisoned (never replayed) recording rather than a wrong replay.

Concurrency envelope
--------------------

A replayed body is atomic: all effects land at its start cycle, then one
suspension covers its duration.  Host accesses to the kernel's *operand
regions* cannot tell the difference — they are hazard-blocked by the
Address Table until operand release in both paths.  Host traffic to
**unrelated addresses that begins mid-kernel** is outside the replay
guarantee: in the slow path it would interleave with (and stall on) the
body's locked DMA sections, while a replay has already applied them.
``can_replay`` rejects launches with the LLC lock held or a host access
in flight, which covers every launch-time race; serving workloads — the
fast path's purpose — issue only offloads while kernels execute, so no
such traffic exists there.  Debugging a workload that does mix them:
``ArcaneConfig(fastpath=False)``.
"""

from __future__ import annotations

import functools
import hashlib
from collections import OrderedDict
from typing import Dict, Generator, List, Optional, Tuple

from repro.runtime.context import KernelContext
from repro.runtime.matrix import MatrixBinding
from repro.runtime.queue import QueuedKernel

#: Step opcodes of the recorded effect stream.
STEP_CLAIM, STEP_LOAD, STEP_STORE, STEP_VOP, STEP_READ, STEP_PREFETCH, STEP_WAIT = (
    range(7)
)


class ReplayDivergence(RuntimeError):
    """A replayed stream observed different data than it recorded.

    Unreachable through the public API on a healthy machine (the launch
    key digests every operand's bytes, destination included).  It *is*
    reachable under injected silent data corruption: a recording made
    while a fault was corrupting mid-kernel state carries poisoned
    expected values, and a later clean replay of it trips this check.
    The scheduler treats it as a poisoning signal — the recording is
    invalidated locally and retracted from the fleet cache — and the
    serving worker converts it into a retryable ``corrupted`` failure.
    """


class Recording:
    """One kernel launch's recorded effect stream plus replay guards."""

    __slots__ = (
        "steps",
        "replayable",
        "reason",
        "free_regs",
        "vpu_index",
        "outstanding",
        "phase_check",
    )

    def __init__(self, vpu_index: int, free_regs: List[int]) -> None:
        self.steps: List[tuple] = []
        self.replayable = True
        self.reason = ""
        #: exact VRF free-list at recording start; replay requires equality
        #: (claim order and strip-mining budgets both derive from it).
        self.free_regs = list(free_regs)
        self.vpu_index = vpu_index
        self.outstanding: set = set()
        #: phase cycles attributable to recorded steps, cross-checked
        #: against the actual breakdown delta in :meth:`finalize`.
        self.phase_check: Dict[str, int] = {}

    def poison(self, reason: str) -> None:
        """Mark the recording as slow-path-only (kept to avoid re-recording)."""
        if self.replayable:
            self.replayable = False
            self.reason = reason
            self.steps.clear()

    def note_phase(self, phase: str, cycles: int) -> None:
        self.phase_check[phase] = self.phase_check.get(phase, 0) + cycles

    def finalize(self, phase_delta: Dict[str, int]) -> bool:
        """Validate the completed recording; returns its replayability.

        ``phase_delta`` is what the kernel body actually added to its
        :class:`PhaseBreakdown`; any cycles not accounted for by recorded
        steps mean the body produced effects the recorder did not see
        (e.g. direct ``phases.add`` calls), so the recording is poisoned
        instead of ever replaying incompletely.
        """
        if self.outstanding:
            self.poison("prefetch started but never waited on")
        checked = {k: v for k, v in self.phase_check.items() if v}
        actual = {k: v for k, v in phase_delta.items() if v}
        if self.replayable and checked != actual:
            self.poison(
                f"phase accounting mismatch (recorded {checked}, body added "
                f"{actual}); the body bypassed the KernelContext API"
            )
        return self.replayable


class RecordingContext(KernelContext):
    """A :class:`KernelContext` that mirrors every effect into a recording.

    Timing, stats and functional behaviour are untouched — each call
    delegates to the stock implementation and appends one step, so the
    recording launch is indistinguishable from a plain slow-path launch.
    """

    def __init__(
        self,
        vpu_index: int,
        etype,
        allocator,
        dispatcher,
        phases,
        kernel: QueuedKernel,
        recording: Recording,
    ) -> None:
        super().__init__(vpu_index, etype, allocator, dispatcher, phases)
        self._kernel = kernel
        self._rec = recording
        self._handle_ords: Dict[int, int] = {}
        self._next_handle = 0

    # -- operand references ------------------------------------------------

    def _ref(self, matrix: MatrixBinding) -> Optional[tuple]:
        """Positional reference of ``matrix`` among the kernel's operands.

        Derived bindings (a sub-plane view a body builds over an operand,
        like conv_layer's per-channel filter planes) are recorded as a
        base-relative rebase so a replay against relocated operands
        reconstructs them at the new address.
        """
        kernel = self._kernel
        for index, source in enumerate(kernel.sources):
            if source is matrix:
                return ("s", index)
        if matrix is kernel.dest:
            return ("d",)
        bases: List[Tuple[tuple, MatrixBinding]] = [
            (("s", i), s) for i, s in enumerate(kernel.sources)
        ]
        if kernel.dest is not None:
            bases.append((("d",), kernel.dest))
        for base_ref, base in bases:
            if (
                base.address <= matrix.address
                and matrix.end_address <= base.end_address
                and base.etype is matrix.etype
            ):
                return (
                    "rel",
                    base_ref,
                    matrix.address - base.address,
                    matrix.rows,
                    matrix.cols,
                    matrix.stride,
                )
        self._rec.poison(f"binding {matrix!r} is not derived from a kernel operand")
        return None

    # -- recorded context calls --------------------------------------------

    def claim(self, count: int):
        window = super().claim(count)
        if self._rec.replayable:
            self._rec.steps.append((STEP_CLAIM, count))
        return window

    def load_rows(self, window, matrix, row_start, n_rows, reg_start=0) -> Generator:
        cycles = yield from super().load_rows(window, matrix, row_start, n_rows, reg_start)
        if n_rows > 0 and self._rec.replayable:
            ref = self._ref(matrix)
            if ref is not None:
                items = tuple(
                    (ref, window[reg_start + i], row_start + i, 0)
                    for i in range(n_rows)
                )
                self._rec.steps.append((STEP_LOAD, items))
                self._rec.note_phase("allocation", cycles)
        return cycles

    def load_packed(self, window, matrix, reg_index=0) -> Generator:
        cycles = yield from super().load_packed(window, matrix, reg_index)
        if self._rec.replayable:
            ref = self._ref(matrix)
            if ref is not None:
                register = window[reg_index]
                items = tuple(
                    (ref, register, row, row * matrix.cols)
                    for row in range(matrix.rows)
                )
                self._rec.steps.append((STEP_LOAD, items))
                self._rec.note_phase("allocation", cycles)
        return cycles

    def _row_set_items(self, specs) -> Optional[tuple]:
        items = []
        for window, matrix, row, reg in specs:
            ref = self._ref(matrix)
            if ref is None:
                return None
            items.append((ref, window[reg], row, 0))
        return tuple(items)

    def load_row_set(self, specs) -> Generator:
        cycles = yield from super().load_row_set(specs)
        if specs and self._rec.replayable:
            items = self._row_set_items(specs)
            if items is not None:
                self._rec.steps.append((STEP_LOAD, items))
                self._rec.note_phase("allocation", cycles)
        return cycles

    def prefetch_row_set(self, specs):
        handle = super().prefetch_row_set(specs)
        if self._rec.replayable:
            items = self._row_set_items(specs)
            if items is not None:
                ordinal = self._next_handle
                self._next_handle += 1
                self._handle_ords[id(handle)] = ordinal
                self._rec.outstanding.add(ordinal)
                self._rec.steps.append((STEP_PREFETCH, ordinal, items))
        return handle

    def wait_prefetch(self, handle) -> Generator:
        exposed = yield from super().wait_prefetch(handle)
        if handle is not None and self._rec.replayable:
            ordinal = self._handle_ords.pop(id(handle), None)
            if ordinal is None:
                self._rec.poison("wait_prefetch on a handle this kernel did not start")
            else:
                self._rec.outstanding.discard(ordinal)
                self._rec.steps.append((STEP_WAIT, ordinal))
                self._rec.note_phase("allocation", exposed)
        return exposed

    def store_rows(
        self, window, matrix, row_start, n_rows, reg_start=0, n_cols=None
    ) -> Generator:
        cycles = yield from super().store_rows(
            window, matrix, row_start, n_rows, reg_start, n_cols
        )
        if n_rows > 0 and self._rec.replayable:
            ref = self._ref(matrix)
            if ref is not None:
                items = tuple(
                    (window[reg_start + i], row_start + i) for i in range(n_rows)
                )
                self._rec.steps.append(
                    (STEP_STORE, ref, items, matrix.cols if n_cols is None else n_cols)
                )
                self._rec.note_phase("writeback", cycles)
        return cycles

    def vop(self, *args, **kwargs) -> Generator:
        cost = yield from super().vop(*args, **kwargs)
        if self._rec.replayable:
            self._rec.steps.append((STEP_VOP, self._segment.ops[-1]))
            self._rec.note_phase("compute", cost)
        return cost

    def read_element(self, vreg, index, etype=None) -> Generator:
        value = yield from super().read_element(vreg, index, etype)
        if self._rec.replayable:
            self._rec.steps.append(
                (STEP_READ, vreg, index, etype or self.etype, value)
            )
            self._rec.note_phase("compute", self.SCALAR_READ_CYCLES)
        return value


def _resolve_ref(ref: tuple, kernel: QueuedKernel) -> MatrixBinding:
    if ref[0] == "s":
        return kernel.sources[ref[1]]
    if ref[0] == "d":
        return kernel.dest
    _, base_ref, delta, rows, cols, stride = ref
    base = _resolve_ref(base_ref, kernel)
    return MatrixBinding(
        address=base.address + delta, rows=rows, cols=cols, stride=stride,
        etype=base.etype,
    )


#: compiled-segment marker for a fused run of VOP/READ compute steps
_SEG_OPS = -1


def _compile_steps(recording: Recording, kernel: QueuedKernel, scheduler, vpu_index: int) -> list:
    """Fuse runs of compute steps into compiled compute segments.

    Cycle costs and counter sums of VOP/READ runs are static (they
    depend only on the op fields and the VPU geometry), so each run
    collapses to one step ``(_SEG_OPS, parts, t_cycles)``.  Its parts are
    called in order: dispatcher :class:`~repro.vpu.dispatcher.Segment`
    runs — the same runner, chain collapse and bulk counters as a live
    context — and read checks.  A read splits the ops into two runs only
    when one of them writes its register, the live forcing rule.
    DMA/claim steps pass through untouched — their costs depend on live
    cache state.
    """
    dispatcher = scheduler.dispatcher
    vrf = dispatcher.vpus[vpu_index].vrf
    scalar_read = KernelContext.SCALAR_READ_CYCLES
    name = kernel.name
    segments: list = []
    parts: list = []
    run = dispatcher.segment(vpu_index)
    t_cycles = 0

    def close_run() -> None:
        nonlocal run
        if run.ops:
            parts.append(functools.partial(dispatcher.run_segment, vpu_index, run))
            run = dispatcher.segment(vpu_index)

    def flush() -> None:
        nonlocal parts, t_cycles
        close_run()
        if parts:
            segments.append((_SEG_OPS, tuple(parts), t_cycles))
        parts = []
        t_cycles = 0

    for step in recording.steps:
        kind = step[0]
        if kind == STEP_VOP:
            t_cycles += run.add(step[1])
        elif kind == STEP_READ:
            _, vreg, index, etype, expected = step
            if vreg in run.written:
                close_run()
            read_view = vrf.view(vreg, etype)

            def check(read_view=read_view, vreg=vreg, index=index,
                      expected=expected) -> None:
                if read_view[index] != expected:
                    raise ReplayDivergence(
                        f"kernel {name!r} replay read v{vreg}[{index}] != "
                        "recorded value; replay-cache key invariant broken"
                    )
            parts.append(check)
            t_cycles += scalar_read
        else:
            flush()
            segments.append(step)
    flush()
    return segments


def replay_kernel(
    recording: Recording,
    kernel: QueuedKernel,
    context: KernelContext,
    scheduler,
    compiled: Optional[list] = None,
) -> Generator:
    """Simulation process: replay a recorded kernel in one suspension.

    Functional effects are applied in LLC-lock acquisition order (exactly
    the order the event loop serializes them in), DMA rows move through
    the allocator's :class:`~repro.mem.dma.Dma2D` engine (which prices
    them from live cache state), and the whole body advances the
    simulator with a single ``yield`` of its total duration.
    """
    allocator = scheduler.allocator
    controller = scheduler.controller
    vpu_index = context.vpu_index
    vrf = allocator.vpus[vpu_index].vrf
    lock_overhead = allocator.lock_overhead_cycles
    transfer = allocator.dma.transfer

    t = 0  # body-relative cycle offset
    lock_free = 0  # when the LLC lock is next free (prefetches hold it)
    pending: Dict[int, int] = {}  # prefetch ordinal -> completion offset
    compute = alloc_cycles = wb_cycles = 0
    bindings: Dict[tuple, MatrixBinding] = {}

    def binding_of(ref: tuple) -> MatrixBinding:
        binding = bindings.get(ref)
        if binding is None:
            binding = _resolve_ref(ref, kernel)
            bindings[ref] = binding
        return binding

    def apply_rows(items: tuple) -> int:
        rows = []
        for ref, reg, row, offset in items:
            matrix = binding_of(ref)
            rows.append(
                (matrix.row_address(row), matrix.row_bytes, vrf, reg, matrix.etype, offset)
            )
        return transfer(rows)

    if compiled is None:
        # compiled segments bind a specific system's VRF; the per-key
        # store on ReplayCache keeps them out of the recording, which the
        # fleet cache shares across workers — see
        # :meth:`ReplayCache.compiled_for`
        compiled = _compile_steps(recording, kernel, scheduler, vpu_index)

    for step in compiled:
        kind = step[0]
        if kind == _SEG_OPS:
            _, parts, t_cycles = step
            for part in parts:
                part()
            t += t_cycles
            compute += t_cycles
        elif kind == STEP_LOAD:
            items = step[1]
            start = t if t >= lock_free else lock_free
            total = apply_rows(items)
            t = start + lock_overhead + total
            lock_free = t
            alloc_cycles += total
            controller._c_lock_acquired.value += 1
            allocator._c_rows_loaded.value += len(items)
            allocator._c_load_cycles.value += total
        elif kind == STEP_STORE:
            _, ref, items, n_cols = step
            matrix = binding_of(ref)
            etype = matrix.etype
            row_bytes = n_cols * etype.nbytes
            start = t if t >= lock_free else lock_free
            total = transfer(
                [(matrix.row_address(row), row_bytes, vrf, reg, etype, 0)
                 for reg, row in items],
                store=True,
            )
            t = start + lock_overhead + total
            lock_free = t
            wb_cycles += total
            controller._c_lock_acquired.value += 1
            allocator._c_rows_stored.value += len(items)
            allocator._c_store_cycles.value += total
        elif kind == STEP_PREFETCH:
            _, ordinal, items = step
            if items:
                start = t if t >= lock_free else lock_free
                total = apply_rows(items)
                end = start + lock_overhead + total
                lock_free = end
                controller._c_lock_acquired.value += 1
                allocator._c_rows_loaded.value += len(items)
                allocator._c_load_cycles.value += total
            else:
                end = t
            pending[ordinal] = end
        elif kind == STEP_WAIT:
            end = pending.pop(step[1])
            if end > t:
                alloc_cycles += end - t
                t = end
        else:  # STEP_CLAIM — free-list equality guarantees identical regs
            context.claim(step[1])

    phases = context.phases
    if alloc_cycles:
        phases.add("allocation", alloc_cycles)
    if compute:
        phases.add("compute", compute)
    if wb_cycles:
        phases.add("writeback", wb_cycles)
    yield t


class ReplayCache:
    """Bounded cache of kernel recordings, keyed on the full launch key.

    With a ``fleet`` store attached (:class:`repro.serve.fleet.
    FleetReplayCache`), a local miss falls back to recordings published
    by *other* workers' caches, and locally recorded replayable
    recordings are published for the rest of the pool — one worker's
    first launch warms the fleet.  Recordings are position-independent
    and replays re-execute against live state, so a fleet hit is
    bit-exact with recording locally; the fleet assumes identically
    configured workers (same config and compiled-library install, hence
    the same library generation and launch-time VRF free lists).
    """

    def __init__(self, library, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("replay cache capacity must be positive")
        self.library = library
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, Recording]" = OrderedDict()
        self._generation = library.generation
        #: optional cross-worker recording store (set by SystemWorker)
        self.fleet = None
        #: per-key compiled segment streams (closures binding *this*
        #: system's VRF — never shared with the recording)
        self._compiled: Dict[tuple, list] = {}
        #: keys that missed once and were not recorded (admission on the
        #: second miss), oldest first, at most ``capacity`` of them
        self._sighted: "OrderedDict[tuple, None]" = OrderedDict()
        self.stats: Dict[str, int] = {
            "hits": 0, "misses": 0, "recorded": 0, "bypassed": 0,
            "invalidated": 0, "fleet_hits": 0,
        }
        #: observability hook: when a list, every launch appends
        #: ``(kernel_id, outcome)`` with outcome hit/miss/bypassed.  None
        #: (the default) keeps the hot path at one truthiness check.
        self.launch_log: Optional[List[Tuple[int, str]]] = None
        #: integrity hook: when a list, every key this cache stored or
        #: replayed during the current attempt is appended, so a failed
        #: integrity check can invalidate/retract exactly the recordings
        #: the corrupt run may have poisoned.  None (default) = off.
        self.touched: Optional[List[tuple]] = None
        #: escalation switch: while True the scheduler bypasses the fast
        #: path entirely (no lookup, no recording) — used to re-execute a
        #: corrupted request from first principles.
        self.suspended = False

    def note_launch(self, kernel_id: int, outcome: str) -> None:
        """Record one launch's replay outcome when a log is attached."""
        if self.launch_log is not None:
            self.launch_log.append((kernel_id, outcome))

    def __len__(self) -> int:
        return len(self._entries)

    # -- keys ---------------------------------------------------------------

    @staticmethod
    def key_for(kernel: QueuedKernel, vpu_index: int, controller) -> tuple:
        """Launch key: identity + geometry + scalars + operand-data digest.

        The digest reads the operand bytes through the controller (cache
        overlay over memory) — exactly the bytes the kernel's DMA loads
        would observe — so any data difference is a cache miss, never a
        wrong replay.  The *destination's* initial bytes are digested
        too: a body is free to load and branch on its output region
        (read-modify-write kernels), and only the data actually loaded
        during execution is otherwise guarded.  Addresses are
        deliberately absent: recordings are position-independent, which
        is what lets the serving loop's ``reset_heap()``-then-reallocate
        lifecycle keep hitting.
        """
        digest = hashlib.blake2b(digest_size=16)
        operands = list(kernel.sources)
        if kernel.dest is not None:
            operands.append(kernel.dest)
        for binding in operands:
            digest.update(
                controller.peek(binding.address, binding.end_address - binding.address)
            )
        geometry = tuple(
            (b.rows, b.cols, b.stride, b.etype.suffix) for b in kernel.sources
        )
        dest = kernel.dest
        dest_geometry = (
            (dest.rows, dest.cols, dest.stride, dest.etype.suffix)
            if dest is not None
            else None
        )
        return (
            kernel.func5,
            kernel.name,
            kernel.etype.suffix,
            vpu_index,
            tuple(sorted(kernel.scalars.items())),
            geometry,
            dest_geometry,
            digest.digest(),
        )

    # -- storage ------------------------------------------------------------

    def _sync_generation(self) -> None:
        # Reprogramming any library slot drops every recording: a body
        # registered under an old generation must never replay again.
        if self._generation != self.library.generation:
            self.clear()
            self._generation = self.library.generation

    def lookup(self, key: tuple) -> Optional[Recording]:
        self._sync_generation()
        recording = self._entries.get(key)
        if recording is not None:
            # LRU refresh: a stream of one-off keys (every distinct
            # operand payload records) must not evict the hot recordings
            # the cache exists for.
            self._entries.move_to_end(key)
            return recording
        if self.fleet is not None:
            recording = self.fleet.get(key)
            if recording is not None:
                # adopt into the local LRU (future launches hit without
                # the fleet); adopted recordings are never re-published
                self._entries[key] = recording
                self._trim()
                self.stats["fleet_hits"] += 1
        return recording

    def store(self, key: tuple, recording: Recording) -> None:
        self._sync_generation()
        self._entries[key] = recording
        self._trim()
        if self.fleet is not None and recording.replayable:
            self.fleet.publish(key, recording)

    def admit(self, key: tuple) -> bool:
        """Whether a missing ``key`` should be recorded now.

        True on its second miss; on a first miss the key is only
        remembered, and the launch runs unrecorded.
        """
        sighted = self._sighted
        if key in sighted:
            del sighted[key]
            return True
        sighted[key] = None
        if len(sighted) > self.capacity:
            sighted.popitem(last=False)
        return False

    def _trim(self) -> None:
        while len(self._entries) > self.capacity:
            evicted, _ = self._entries.popitem(last=False)
            self._compiled.pop(evicted, None)

    def compiled_for(
        self, key: tuple, recording: Recording, kernel, scheduler, vpu_index: int
    ) -> list:
        """This system's compiled segments for ``key`` (built on first use)."""
        segments = self._compiled.get(key)
        if segments is None:
            segments = _compile_steps(recording, kernel, scheduler, vpu_index)
            self._compiled[key] = segments
        return segments

    def clear(self) -> None:
        self.stats["invalidated"] += len(self._entries)
        self._entries.clear()
        self._compiled.clear()
        self._sighted.clear()

    def invalidate(self, key: tuple) -> None:
        """Drop one recording locally and retract it from the fleet.

        The poisoning defense: a recording whose replay diverged — or that
        was touched by a run whose integrity check failed — must not be
        served again, here or on any other worker.
        """
        if self._entries.pop(key, None) is not None:
            self.stats["invalidated"] += 1
        self._compiled.pop(key, None)
        if self.fleet is not None:
            self.fleet.retract(key)

    # -- replay preconditions ------------------------------------------------

    def can_replay(self, recording: Recording, scheduler, vpu_index: int) -> bool:
        """Cheap, side-effect-free environment check before a replay.

        The closed-form timeline assumes the body is the only LLC-lock /
        host-path actor for its duration and that register claims pop the
        same VRF free list, and no mid-kernel corruption hook may be armed;
        anything else takes the slow path.
        """
        if not recording.replayable or recording.vpu_index != vpu_index:
            return False
        controller = scheduler.controller
        if controller.lock_holder is not None or controller._host_inflight > 0:
            return False
        allocator = scheduler.allocator
        if allocator.dma.corruption is not None \
                or allocator.vpus[vpu_index].vrf.corruption is not None:
            # an armed dma_corrupt/vrf_flip hook counts rows and register
            # writes as the body runs; only the slow path produces them
            return False
        return allocator._free[vpu_index] == recording.free_regs
