"""Host-time spans around each layer's entry points, installed from outside.

The program under test carries no instrumentation of its own.  A traced
repetition patches the entry points listed in :data:`WRAPS` -- each where
its caller looks it up -- with wrappers that record a span per call (per
*resumption* for generator functions, so a simulation process is timed
while it runs, not while it is parked).  A layer's self time is its span
time minus the time its child spans cover, so self times plus the time
outside every span add up to the traced wall time.

Every workload serves in-process (``processes=1``); spans of forked pool
shards are not collected.
"""

from __future__ import annotations

import collections
import hashlib
import importlib
import inspect
import time
from typing import Callable, Dict, List, Tuple

#: (module, attribute path, layer).  Methods are patched on their class, so
#: every caller sees the wrapper; functions imported by name are patched in
#: the importing module.
WRAPS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.serve.dispatch", "DispatchCore.run", "serve.dispatch"),
    ("repro.serve.dispatch", "SerialPool.execute", "serve.pool"),
    ("repro.serve.worker", "SystemWorker.run", "serve.worker"),
    ("repro.serve.worker", "check_output", "integrity.check"),
    ("repro.serve.worker", "offload_compiled", "core.program"),
    ("repro.core.system", "ArcaneSystem.place_matrix", "core.program"),
    ("repro.core.system", "ArcaneSystem.alloc_matrix", "core.program"),
    ("repro.core.system", "ArcaneSystem.read_matrix", "core.program"),
    ("repro.core.system", "ArcaneSystem.reset_heap", "core.program"),
    ("repro.core.system", "ArcaneSystem._execute_program", "core.program"),
    ("repro.core.system", "HostProgram.xmr", "core.program"),
    ("repro.core.system", "HostProgram.xmk", "core.program"),
    ("repro.sim.kernel", "Simulator.run", "sim.loop"),
    ("repro.sim.kernel", "Process._step", "sim.loop"),
    ("repro.xbridge.bridge", "Bridge.offload", "runtime.decode"),
    ("repro.runtime.decoder", "KernelDecoder.decode", "runtime.decode"),
    ("repro.runtime.scheduler", "KernelScheduler.execute", "runtime.schedule"),
    ("repro.runtime.scheduler", "KernelScheduler._execute_single", "runtime.body"),
    ("repro.runtime.scheduler", "KernelScheduler._shard_wrapper", "runtime.body"),
    ("repro.runtime.allocator", "MatrixAllocator.claim", "runtime.alloc"),
    ("repro.runtime.allocator", "MatrixAllocator.release", "runtime.alloc"),
    ("repro.runtime.allocator", "MatrixAllocator.load_rows", "runtime.alloc"),
    ("repro.runtime.allocator", "MatrixAllocator.load_row_set", "runtime.alloc"),
    ("repro.runtime.allocator", "MatrixAllocator.load_packed", "runtime.alloc"),
    ("repro.runtime.allocator", "MatrixAllocator.store_rows", "runtime.alloc"),
    ("repro.runtime.replay", "ReplayCache.key_for", "runtime.replay"),
    ("repro.runtime.replay", "ReplayCache.lookup", "runtime.replay"),
    ("repro.runtime.replay", "ReplayCache.store", "runtime.replay"),
    ("repro.runtime.replay", "ReplayCache.compiled_for", "runtime.replay"),
    ("repro.runtime.scheduler", "replay_kernel", "runtime.replay"),
    # kernel rows move in the allocator's loops; the bus model prices them
    ("repro.mem.bus", "BusModel.transfer_cycles", "mem.dma"),
    ("repro.mem.bus", "BusModel.transfer_2d_cycles", "mem.dma"),
    ("repro.mem.dma", "Dma2D.transfer", "mem.dma"),
    ("repro.mem.dma", "Dma2D.transfer_process", "mem.dma"),
    ("repro.cache.controller", "LlcController.host_read", "cache"),
    ("repro.cache.controller", "LlcController.host_write", "cache"),
    ("repro.cache.controller", "LlcController._refill", "cache"),
    ("repro.cache.controller", "LlcController._write_back", "cache"),
    ("repro.cache.controller", "LlcController.route_read", "cache"),
    ("repro.cache.controller", "LlcController.route_write", "cache"),
    ("repro.cache.controller", "LlcController.peek", "cache"),
    ("repro.cache.controller", "LlcController.poke", "cache"),
    ("repro.cache.controller", "LlcController.invalidate_region", "cache"),
    ("repro.vpu.vpu", "Vpu.execute", "vpu"),
    ("repro.vpu.dispatcher", "Dispatcher.dispatch", "vpu"),
    ("repro.cpu.core", "Cpu.step", "cpu.iss"),
    ("repro.baselines.models", "fit_conv_model", "baselines"),
)

#: every layer a span can belong to, in report order
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for _, _, layer in WRAPS))


def _key_digest(key) -> str:
    return hashlib.blake2b(repr(key).encode(), digest_size=8).hexdigest()


class LayerTracer:
    """Span accounting: self time per layer, calls per wrapped name.

    Spans are kept as running totals, not as a list: the benchmark needs
    per-layer sums, and a list of every ``Process._step`` span would cost
    more memory than the simulation.
    """

    def __init__(self) -> None:
        self.active = False
        self._patches: List[Tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.self_s: Dict[str, float] = collections.defaultdict(float)
        #: span time of each layer's outermost spans (children included)
        self.incl_s: Dict[str, float] = collections.defaultdict(float)
        self.calls: Dict[str, int] = collections.defaultdict(int)
        #: wall time covered by outermost spans (nothing above them)
        self.top_s = 0.0
        #: one [child seconds] cell per open span
        self._stack: List[List[float]] = []
        #: open spans per layer, to find a layer's outermost span
        self._depth: Dict[str, int] = collections.defaultdict(int)
        #: replay keys recorded / replayed (digests), for unused-record counts
        self.stored: set = set()
        self.replayed: set = set()

    # -- spans ------------------------------------------------------------

    def _open(self, layer: str) -> List[float]:
        cell = [0.0]
        self._stack.append(cell)
        self._depth[layer] += 1
        return cell

    def _close(self, layer: str, cell: List[float], elapsed: float) -> None:
        self._stack.pop()
        self.self_s[layer] += elapsed - cell[0]
        self._depth[layer] -= 1
        if not self._depth[layer]:
            self.incl_s[layer] += elapsed
        if self._stack:
            self._stack[-1][0] += elapsed
        else:
            self.top_s += elapsed

    def _wrap_function(self, name: str, layer: str, fn: Callable) -> Callable:
        tracer = self
        clock = time.perf_counter
        note = self._note_for(name)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if note is not None:
                note(args)
            tracer.calls[name] += 1
            cell = tracer._open(layer)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(layer, cell, clock() - start)

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name: str, layer: str, fn: Callable) -> Callable:
        tracer = self
        clock = time.perf_counter

        def resumptions(gen):
            # one span per resumption of the wrapped generator
            value = None
            thrown = None
            while True:
                tracer.calls[name] += 1
                cell = tracer._open(layer)
                start = clock()
                try:
                    if thrown is None:
                        item = gen.send(value)
                    else:
                        error, thrown = thrown, None
                        item = gen.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    tracer._close(layer, cell, clock() - start)
                try:
                    value = yield item
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as error:  # forwarded into the generator
                    thrown = error

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not tracer.active:
                return gen
            return resumptions(gen)

        traced.__wrapped__ = fn
        return traced

    def _note_for(self, name: str):
        """Key bookkeeping behind ``runtime.replay.unused_records``."""
        if name == "ReplayCache.store":
            return lambda args: self.stored.add(_key_digest(args[1]))
        if name == "ReplayCache.compiled_for":
            return lambda args: self.replayed.add(_key_digest(args[1]))
        return None

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Patch every entry point in :data:`WRAPS`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, path, layer in WRAPS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            if inspect.isgeneratorfunction(fn):
                wrapped = self._wrap_generator(path, layer, fn)
            else:
                wrapped = self._wrap_function(path, layer, fn)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
