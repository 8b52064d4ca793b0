"""Hardware-level silent-data-corruption injection.

The :class:`CorruptionSurface` is the worker-side applicator for the
data-corruption fault clauses (``flip``, ``dma_corrupt``, ``vrf_flip``,
``stuck_line``).  *Whether* a clause fires and *which* site it hits are
decided in the dispatch parent from seeded rng streams hashed over
``(fault_seed, request_id, attempt, kind salt)`` — see
:meth:`repro.serve.faults.FaultInjector.corruption_for` — so injections
are order-independent and bit-reproducible across pool sizes and
process counts.  The surface only turns those parent-drawn
:class:`CorruptionDirective` numbers into actual flipped bits through
narrow hooks:

* ``flip``        — one bit in the LLC-resident bytes of a kernel's
  operands, flipped right after the launch is scheduled (and before the
  replay key is computed, so a corrupt operand keys its own recording
  rather than poisoning the clean one);
* ``dma_corrupt`` — one bit in one operand row payload moved by the
  :class:`~repro.mem.dma.Dma2D` engine (loads *and* write-backs);
* ``vrf_flip``    — one bit in the values of one VPU register-file
  write;
* ``stuck_line``  — a cache line freezes: reads return a byte snapshot
  taken at fault onset, regardless of later writes.  Stuck lines model
  a failed storage cell and survive disarm — only rebuilding the worker
  (fresh :class:`~repro.core.system.ArcaneSystem`) replaces the silicon.

Every hook hangs off a ``corruption`` attribute that is ``None`` unless
a plan armed it, so the fault-free paths pay one attribute check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

import numpy as np

#: data-corruption clause kinds (the legacy availability kinds live in
#: repro.serve.faults.FAULT_KINDS)
CORRUPTION_KINDS = ("flip", "dma_corrupt", "vrf_flip", "stuck_line")

#: per-kind salt mixed into the parent's rng stream key.  Keeping the
#: corruption draws on salted streams (and the legacy kill/transient/slow
#: draws on the unsalted ``(seed, request, attempt)`` stream) means adding
#: a corruption clause to a plan never perturbs the legacy draws.
SITE_SALTS = {"flip": 0x11, "dma_corrupt": 0x22, "vrf_flip": 0x33, "stuck_line": 0x44}

#: dma_corrupt targets row-movement event ``site % 16`` of the attempt; a
#: fixed modulus keeps the target independent of the (shape-dependent)
#: total row count, so a given seed names the same event everywhere.  If
#: the attempt moves fewer rows the directive simply never fires.
DMA_EVENT_MODULO = 16

#: vrf_flip targets register-file write event ``site % 32``, same scheme.
VRF_EVENT_MODULO = 32


@dataclass(frozen=True)
class CorruptionDirective:
    """One corruption to apply during one attempt.

    ``site`` and ``value`` are raw 63-bit draws from the parent's salted
    stream; the surface reduces them modulo whatever geometry the hit
    site actually has (operand bytes, payload bits, line count).
    """

    kind: str
    site: int
    value: int

    def __post_init__(self) -> None:
        if self.kind not in CORRUPTION_KINDS:
            raise ValueError(f"unknown corruption kind {self.kind!r}")
        if self.site < 0 or self.value < 0:
            raise ValueError("corruption draws must be non-negative")


class CorruptionSurface:
    """Applies armed directives through the simulator's narrow hooks."""

    def __init__(self, llc) -> None:
        self.llc = llc
        #: what actually fired this attempt (kind, site details); read by
        #: the serving worker after dispatch, reset on arm()
        self.events: List[Dict[str, Any]] = []
        self.armed = False
        self._flip: CorruptionDirective | None = None
        self._dma_target = -1
        self._dma_bit = 0
        self._dma_count = 0
        self._vrf_target = -1
        self._vrf_bit = 0
        self._vrf_count = 0

    # -- lifecycle -----------------------------------------------------------

    def arm(self, directives: Sequence[CorruptionDirective]) -> None:
        """Attach hooks for one attempt's directives (replaces any prior)."""
        self.disarm()
        self.events = []
        runtime = self.llc.runtime
        for directive in directives:
            if directive.kind == "flip":
                self._flip = directive
                runtime.scheduler.corruption = self
            elif directive.kind == "dma_corrupt":
                self._dma_target = directive.site % DMA_EVENT_MODULO
                self._dma_bit = directive.value
                self._dma_count = 0
                runtime.allocator.dma.corruption = self
            elif directive.kind == "vrf_flip":
                self._vrf_target = directive.site % VRF_EVENT_MODULO
                self._vrf_bit = directive.value
                self._vrf_count = 0
                for vpu in self.llc.vpus:
                    vpu.vrf.corruption = self
            else:  # stuck_line (__post_init__ rejects anything else)
                self._stick_line(directive)
        self.armed = True

    def disarm(self) -> None:
        """Detach all hooks.  Stuck lines deliberately stay stuck — a
        failed storage cell outlives the request that exposed it; only a
        worker rebuild installs fresh silicon."""
        runtime = self.llc.runtime
        runtime.scheduler.corruption = None
        runtime.allocator.dma.corruption = None
        for vpu in self.llc.vpus:
            vpu.vrf.corruption = None
        self._flip = None
        self._dma_target = -1
        self._vrf_target = -1
        self.armed = False

    # -- hooks (called from the simulator while armed) ----------------------

    def on_kernel(self, kernel, controller) -> None:
        """flip: XOR one bit of the first scheduled kernel's operand bytes.

        Runs after scheduling, before the replay key digest — the flip is
        part of the operand content the key hashes, so the corrupt run
        records under its own key and cannot poison the clean entry.
        """
        directive = self._flip
        if directive is None:
            return
        regions = [
            (binding.address, binding.end_address - binding.address)
            for binding in kernel.sources
        ]
        if kernel.dest is not None:
            regions.append(
                (kernel.dest.address, kernel.dest.end_address - kernel.dest.address)
            )
        total_bytes = sum(length for _, length in regions)
        if total_bytes == 0:
            return
        self._flip = None  # one flip per armed attempt
        byte_index, bit = divmod(directive.site % (total_bytes * 8), 8)
        for base, length in regions:
            if byte_index < length:
                address = base + byte_index
                break
            byte_index -= length
        original = controller.peek(address, 1)[0]
        controller.poke(address, bytes([original ^ (1 << bit)]))
        self.events.append(
            {"kind": "flip", "kernel": kernel.name, "address": address, "bit": bit}
        )

    def on_dma_row(self, payload: bytes) -> bytes:
        """dma_corrupt: XOR one bit of the targeted row-movement payload."""
        if self._dma_target < 0:
            return payload
        event = self._dma_count
        self._dma_count += 1
        if event != self._dma_target or not payload:
            return payload
        self._dma_target = -1
        byte_index, bit = divmod(self._dma_bit % (len(payload) * 8), 8)
        corrupted = bytearray(payload)
        corrupted[byte_index] ^= 1 << bit
        self.events.append(
            {"kind": "dma_corrupt", "row_event": event, "byte": byte_index, "bit": bit}
        )
        return bytes(corrupted)

    def on_vrf_write(
        self, index: int, values: np.ndarray, offset: int
    ) -> np.ndarray:
        """vrf_flip: XOR one bit of the targeted register-file write."""
        if self._vrf_target < 0:
            return values
        event = self._vrf_count
        self._vrf_count += 1
        if event != self._vrf_target or len(values) == 0:
            return values
        self._vrf_target = -1
        raw = bytearray(np.ascontiguousarray(values).tobytes())
        byte_index, bit = divmod(self._vrf_bit % (len(raw) * 8), 8)
        raw[byte_index] ^= 1 << bit
        self.events.append(
            {
                "kind": "vrf_flip",
                "write_event": event,
                "register": index,
                "byte": byte_index,
                "bit": bit,
            }
        )
        return np.frombuffer(bytes(raw), dtype=values.dtype)

    # -- persistent faults ---------------------------------------------------

    def _stick_line(self, directive: CorruptionDirective) -> None:
        """stuck_line: freeze one cache line at its current contents."""
        lines = self.llc.cache_table.lines
        line = lines[directive.site % len(lines)]
        if line.stuck is None:
            line.stuck = line.data.copy()
            self.events.append({"kind": "stuck_line", "line": line.index})
