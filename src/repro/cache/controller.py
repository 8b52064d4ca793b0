"""The LLC controller: arbitration, hazards, refills and routing.

This is the heart of ARCANE's "cache that doubles as a coprocessor"
(paper sections III-A.2 through III-A.4).  It mediates between three
masters:

* the **host CPU** issuing loads/stores through the system bus;
* the **eCPU / C-RT** which acquires a lock around allocation and
  write-back phases so DMA into VPU lines cannot race host accesses;
* the **DMA engine**, whose rows are routed through the controller so
  each row is served from the cache on a hit or external memory on a
  miss, with line statuses updated on the fly.

Host accesses are simulation processes: they park on events while the
eCPU holds the lock or while the Address Table reports a WAR/RAW/WAW
hazard, and resume the cycle the blocking condition clears — reproducing
the paper's stall-until-resolved behaviour observably.
"""

from __future__ import annotations

from typing import Generator, Optional, Tuple

from repro.cache.address_table import AddressTable, HazardKind, OperandKind
from repro.cache.cache_table import CacheTable
from repro.cache.line import CacheLine, LineRole
from repro.mem.bus import BusModel
from repro.mem.memory import MainMemory
from repro.sim.kernel import Event, Simulator
from repro.sim.stats import StatsRegistry
from repro.sim.trace import Tracer


class LlcController:
    """ARCANE LLC controller model."""

    HIT_CYCLES = 1  # paper: cache hits are resolved in a single cycle

    def __init__(
        self,
        sim: Simulator,
        cache_table: CacheTable,
        address_table: AddressTable,
        memory: MainMemory,
        bus: BusModel,
        stats: Optional[StatsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.sim = sim
        self.ct = cache_table
        self.at = address_table
        self.memory = memory
        self.bus = bus
        self.stats = stats or StatsRegistry()
        self.tracer = tracer or Tracer(enabled=False)
        self.lock_holder: Optional[str] = None
        self._host_inflight = 0
        self._state_change: Event = sim.event("llc.state_change")
        # Hot-path counter handles, resolved once: the access/refill loops
        # must not build f-string names per operation.
        self._c_hits = self.stats.counter("llc.hits")
        self._c_misses = self.stats.counter("llc.misses")
        self._c_refills = self.stats.counter("llc.refills")
        self._c_writebacks = self.stats.counter("llc.writebacks")
        self._c_lock_acquired = self.stats.counter("llc.lock_acquired")
        self._c_host_lock_stalls = self.stats.counter("llc.host_lock_stalls")
        self._c_hazard_stalls = {
            kind: self.stats.counter(f"llc.hazard_{kind.value}_stalls")
            for kind in HazardKind
        }

    # ------------------------------------------------------------------
    # state-change notification: waiters wake and re-check conditions
    # ------------------------------------------------------------------

    def _notify(self) -> None:
        previous = self._state_change
        self._state_change = self.sim.event("llc.state_change")
        previous.fire()

    # ------------------------------------------------------------------
    # lock (paper III-A.2): memory-mapped register written by the eCPU
    # ------------------------------------------------------------------

    def acquire_lock(self, owner: str = "ecpu") -> Generator:
        """eCPU-side lock acquisition process.

        Not granted while a host operation is in flight: the C-RT stalls
        until the memory operation concludes (paper III-A.2).
        """
        while self.lock_holder is not None or self._host_inflight > 0:
            yield self._state_change
        self.lock_holder = owner
        self._c_lock_acquired.add()
        self.tracer.log(self.sim.now, "llc", "lock_acquired", owner=owner)

    def release_lock(self, owner: str = "ecpu") -> None:
        if self.lock_holder != owner:
            raise RuntimeError(f"{owner!r} does not hold the LLC lock")
        self.lock_holder = None
        self.tracer.log(self.sim.now, "llc", "lock_released", owner=owner)
        self._notify()

    @property
    def locked(self) -> bool:
        return self.lock_holder is not None

    # ------------------------------------------------------------------
    # host access path
    # ------------------------------------------------------------------

    def host_read(self, address: int, size: int) -> Generator:
        """Simulation process: host load. Returns the loaded value."""
        return self._host_access(address, size, is_write=False, value=None)

    def host_write(self, address: int, value: int, size: int) -> Generator:
        """Simulation process: host store."""
        return self._host_access(address, size, is_write=True, value=value)

    def _host_access(
        self, address: int, size: int, is_write: bool, value: Optional[int]
    ) -> Generator:
        if size not in (1, 2, 4):
            raise ValueError(f"unsupported access size {size}")
        if address % size:
            raise ValueError(f"misaligned {size}-byte access at {address:#x}")

        # 1. the eCPU lock blocks all host traffic.
        while self.lock_holder is not None:
            self._c_host_lock_stalls.add()
            self.tracer.log(self.sim.now, "host", "stall_lock", addr=address)
            yield self._state_change

        # 2. hazard check against the Address Table.  Hit lines flagged
        #    source/dest and all misses consult the AT (paper III-A.3).
        while True:
            line = self.ct.lookup(address)
            needs_at = line is None or line.role in (LineRole.SOURCE, LineRole.DEST)
            if not needs_at:
                break
            entry = self.at.blocking_entry(address, size, is_write)
            if entry is None:
                break
            hazard = self.at.hazard_for(address, size, is_write)
            self._c_hazard_stalls[hazard].add()
            self.tracer.log(
                self.sim.now, "host", "stall_hazard",
                addr=address, hazard=hazard.value, matrix=entry.matrix_id,
            )
            if entry.released is not None:
                yield entry.released
            else:  # AT built without a simulator: busy state must be cleared externally
                yield self._state_change

        # 3. serve the access.
        self._host_inflight += 1
        try:
            line = self.ct.lookup(address)
            if line is not None:
                self._c_hits.add()
                yield self.HIT_CYCLES
            else:
                self._c_misses.add()
                line = yield from self._refill(address)
            self.ct.touch(line)
            offset = address - line.tag
            if is_write:
                wrapped = int(value) & ((1 << (size * 8)) - 1)
                line.write_bytes(offset, wrapped.to_bytes(size, "little"))
                line.dirty = True
                result = None
            else:
                result = int.from_bytes(line.read_bytes(offset, size), "little")
        finally:
            self._host_inflight -= 1
            self._notify()
        return result

    def _refill(self, address: int) -> Generator:
        """Miss handling: victim selection, write-back, line fill (via DMA).

        Victim selection re-validates after every timing yield: the eCPU's
        allocator may claim the chosen line for compute while the refill
        is in flight (in hardware the two requests arbitrate for the same
        line; retrying models losing that arbitration).
        """
        tag = self.ct.tag_of(address)
        fill_cycles = self.bus.transfer_cycles(self.ct.line_bytes, offchip=True)
        while True:
            victim = self.ct.select_victim()
            if victim is None:
                raise RuntimeError("no evictable cache line (all busy computing)")
            if victim.valid and victim.dirty:
                yield from self._write_back(victim)
                if victim.is_compute:
                    continue  # line stolen by the allocator mid-writeback
            yield fill_cycles
            if not victim.is_compute:
                break
        self.ct.bind(victim, tag)
        victim.data[:] = bytearray(self._memory_read_line(tag))
        # A refilled line belonging to a registered operand region keeps its
        # AT marker so later accesses re-check the table (paper III-A.3).
        entry = self.at.lookup(tag, self.ct.line_bytes)
        if entry is not None:
            victim.role = (
                LineRole.SOURCE if entry.kind is OperandKind.SOURCE else LineRole.DEST
            )
        self._c_refills.add()
        return victim

    def _write_back(self, line: CacheLine) -> Generator:
        cycles = self.bus.transfer_cycles(self.ct.line_bytes, offchip=True)
        yield cycles
        if line.tag is None or not line.dirty:
            return  # the allocator already flushed and claimed this line
        self._memory_write_line(line.tag, line.data.tobytes())
        line.dirty = False
        self._c_writebacks.add()

    def _memory_read_line(self, tag: int) -> bytes:
        if self.memory.contains(tag, self.ct.line_bytes):
            return self.memory.read_block(tag, self.ct.line_bytes)
        # Partially out-of-range lines (edge of memory map) are zero-filled.
        chunk = bytearray(self.ct.line_bytes)
        for i in range(self.ct.line_bytes):
            if self.memory.contains(tag + i):
                chunk[i] = self.memory.read_u8(tag + i)
        return bytes(chunk)

    def _memory_write_line(self, tag: int, payload: bytes) -> None:
        if self.memory.contains(tag, len(payload)):
            self.memory.write_block(tag, payload)
            return
        for i, byte in enumerate(payload):
            if self.memory.contains(tag + i):
                self.memory.write_u8(tag + i, byte)

    # ------------------------------------------------------------------
    # routed (DMA / allocator) access path — functional, cycle cost is
    # charged by the DMA engine that calls these per row.
    # ------------------------------------------------------------------

    def route_read(self, address: int, length: int) -> bytes:
        """Serve a DMA row read: cache on hit, external memory on miss."""
        out = bytearray()
        cursor = address
        remaining = length
        while remaining > 0:
            line = self.ct.lookup(cursor)
            line_end = self.ct.tag_of(cursor) + self.ct.line_bytes
            chunk = min(remaining, line_end - cursor)
            if line is not None:
                out += line.read_bytes(cursor - line.tag, chunk)
            else:
                out += self.memory.read_block(cursor, chunk)
            cursor += chunk
            remaining -= chunk
        return bytes(out)

    def route_write(self, address: int, payload: bytes) -> None:
        """Serve a DMA row write with the fetch-on-write policy (III-A.4).

        Destination data is updated *in the cache*: the covering line is
        allocated (and filled from memory first when the write does not
        cover it fully) and marked dirty, so pending host requests for the
        result are served with the latest data.
        """
        cursor = address
        view = memoryview(payload)
        while view:
            line = self.ct.lookup(cursor)
            tag = self.ct.tag_of(cursor)
            line_end = tag + self.ct.line_bytes
            chunk = min(len(view), line_end - cursor)
            if line is None:
                victim = self.ct.select_victim()
                if victim is None:
                    raise RuntimeError("no evictable cache line for fetch-on-write")
                if victim.valid and victim.dirty:
                    self._memory_write_line(victim.tag, victim.data.tobytes())
                    self._c_writebacks.add()
                self.ct.bind(victim, tag)
                victim.data[:] = bytearray(self._memory_read_line(tag))
                line = victim
                self._c_refills.add()
            line.write_bytes(cursor - line.tag, view[:chunk])
            line.dirty = True
            cursor += chunk
            view = view[chunk:]

    def set_role_for_region(self, start: int, end: int, role: LineRole) -> int:
        """Mark valid lines intersecting [start, end) with a compute role.

        The controller updates line statuses when it receives DMA requests
        for operand regions, sparing the C-RT a CT search (paper III-A.4).
        Returns the number of lines marked.
        """
        count = 0
        for line in self.ct.lines:
            if line.valid and line.tag < end and line.tag + self.ct.line_bytes > start:
                if line.role is not LineRole.BUSY_COMPUTE:
                    line.role = role
                    count += 1
        return count

    def clear_roles_for_region(self, start: int, end: int) -> int:
        """Drop compute-role markers after a kernel releases its operands."""
        count = 0
        for line in self.ct.lines:
            if (
                line.valid
                and line.tag < end
                and line.tag + self.ct.line_bytes > start
                and line.role in (LineRole.SOURCE, LineRole.DEST)
            ):
                line.role = LineRole.NONE
                count += 1
        return count

    # ------------------------------------------------------------------
    # debug access (no timing, no hazards) — test setup and inspection
    # ------------------------------------------------------------------

    def peek(self, address: int, length: int) -> bytes:
        return self.route_read(address, length)

    def poke(self, address: int, payload: bytes) -> None:
        """Debug write that keeps cache and memory coherent."""
        cursor = address
        view = memoryview(payload)
        while view:
            line = self.ct.lookup(cursor)
            tag = self.ct.tag_of(cursor)
            chunk = min(len(view), tag + self.ct.line_bytes - cursor)
            if line is not None:
                line.write_bytes(cursor - line.tag, view[:chunk])
                line.dirty = True
            else:
                self.memory.write_block(cursor, view[:chunk])
            cursor += chunk
            view = view[chunk:]

    def invalidate_region(self, start: int, end: int, writeback: bool = True) -> int:
        """Drop cached lines intersecting ``[start, end)`` from the tag map.

        With ``writeback`` dirty victims are flushed first; without it the
        cached data is discarded (the heap manager uses this when freeing
        a matrix — its contents are dead, and stale lines must not alias a
        future allocation at the same address).  Compute-claimed lines are
        never touched.  Returns the number of lines invalidated.
        """
        count = 0
        for line in self.ct.lines:
            if not line.valid or line.is_compute or line.tag is None:
                continue
            if line.tag < end and line.tag + self.ct.line_bytes > start:
                if writeback and line.dirty:
                    self._memory_write_line(line.tag, line.data.tobytes())
                self.ct.unbind(line)
                count += 1
        return count

    def flush(self) -> int:
        """Write every dirty line back to memory (functional, for tests)."""
        flushed = 0
        for line in self.ct.lines:
            if line.valid and line.dirty and line.tag is not None:
                self._memory_write_line(line.tag, line.data.tobytes())
                line.dirty = False
                flushed += 1
        return flushed
