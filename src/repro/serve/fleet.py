"""The shared fleet replay cache: one worker's recording warms the pool.

A :class:`~repro.runtime.replay.ReplayCache` is per-system, so in a
serving pool every worker pays the record-once cost for every distinct
launch key itself.  Recordings are deliberately position-independent
(operands referenced by position, rows by index) and replays re-execute
against the live machine, which makes a recording valid on *any*
identically configured system — the :class:`FleetReplayCache` exploits
exactly that: a bounded cross-worker store the per-system caches publish
newly recorded streams into and fall back to on a local miss.  Every
worker of the pool holds the same object.

Sharing recordings cannot change results: replay is bit-exact with the
slow path by the replay module's contract, and ``can_replay`` still
vetoes any launch whose environment (VRF free list, LLC state, VPU
selection) differs from the recording's — a fleet hit that doesn't fit
simply takes the slow path.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.runtime.replay import Recording


class FleetReplayCache:
    """Bounded LRU store of recordings shared across a worker pool."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("fleet cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, Recording]" = OrderedDict()
        self.stats = {"retracted": 0}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> Optional[Recording]:
        recording = self._entries.get(key)
        if recording is not None:
            self._entries.move_to_end(key)
        return recording

    def publish(self, key: tuple, recording: Recording) -> None:
        """Share one locally recorded stream with the rest of the pool."""
        if key in self._entries:
            return
        self._entries[key] = recording
        self._trim()

    def retract(self, key: tuple) -> None:
        """Remove a poisoned recording fleet-wide, so a corrupt recording
        one worker produced can never be replayed by another."""
        self._entries.pop(key, None)
        self.stats["retracted"] += 1

    def _trim(self) -> None:
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
