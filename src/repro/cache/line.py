"""Per-cache-line state.

Each line carries the conventional tag/valid/dirty state plus the
ARCANE-specific *role* flags from paper section III-A:

* ``SOURCE`` / ``DEST`` — the line holds data belonging to a registered
  kernel operand region; accesses must consult the Address Table.
* ``BUSY_COMPUTE`` — the line is currently owned by a VPU as part of an
  active kernel's operand layout and is excluded from normal caching.

The line's storage is a numpy ``uint8`` view into the shared LLC data
array, the same buffer the VPU sees as one vector register.
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np


class LineRole(enum.Enum):
    """Compute-related role of a cache line (CT status bits)."""

    NONE = "none"
    SOURCE = "source"
    DEST = "dest"
    BUSY_COMPUTE = "busy_compute"


class CacheLine:
    """One fully-associative cache line / vector register."""

    __slots__ = (
        "index", "data", "tag", "valid", "dirty", "role", "lru_counter", "stuck",
    )

    def __init__(self, index: int, data: np.ndarray) -> None:
        self.index = index
        self.data = data  # uint8 view, len == line_bytes
        self.tag: Optional[int] = None  # line-aligned base address, None = unmapped
        self.valid = False
        self.dirty = False
        self.role = LineRole.NONE
        self.lru_counter = 0
        # Injected stuck-at fault (repro.integrity.inject): a frozen uint8
        # snapshot the line keeps serving on reads regardless of later
        # writes, modelling failed storage.  None = healthy line.
        self.stuck: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        return len(self.data)

    @property
    def is_compute(self) -> bool:
        return self.role is LineRole.BUSY_COMPUTE

    def invalidate(self) -> None:
        """Drop the cached mapping (does not clear data — hardware doesn't)."""
        self.tag = None
        self.valid = False
        self.dirty = False
        self.role = LineRole.NONE

    def claim_for_compute(self) -> None:
        """Take the line out of the address-mapped cache for kernel use."""
        self.tag = None
        self.valid = False
        self.dirty = False
        self.role = LineRole.BUSY_COMPUTE

    def release_from_compute(self) -> None:
        """Return the line to the free pool after kernel write-back."""
        if self.role is not LineRole.BUSY_COMPUTE:
            raise RuntimeError(f"line {self.index} is not in compute state")
        self.role = LineRole.NONE
        self.tag = None
        self.valid = False
        self.dirty = False

    def read_bytes(self, offset: int, length: int) -> bytes:
        if self.stuck is not None:
            return self.stuck[offset : offset + length].tobytes()
        return self.data[offset : offset + length].tobytes()

    def write_bytes(self, offset: int, payload: bytes | memoryview) -> None:
        self.data[offset : offset + len(payload)] = np.frombuffer(
            payload, dtype=np.uint8
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tag = f"{self.tag:#x}" if self.tag is not None else "-"
        flags = ("V" if self.valid else "") + ("D" if self.dirty else "")
        return f"<Line {self.index} tag={tag} {flags} role={self.role.value}>"
